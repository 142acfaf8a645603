"""Mixed-integer LP oracle: branch-and-bound plus a parametric cutting-plane mode.

Rows live in a joint (parameter, decision) space: ``cx . x + cy . y <= rhs``
with the parameter block fixed to binary values during a solve but carried
symbolically in every cut, so that cutting-plane runs terminate with a linear
relaxation whose rows stay valid for every admissible parameter value.

The cutting-plane ladder tries, in order,
  1. bound cuts from split disjunctions with an empty branch (tested over the
     joint polyhedron so the cut is parameter-free valid),
  2. Chvatal-Gomory rounding of integer-supported rows,
  3. a lift-and-project cut-generating LP on the most fractional variable,
and falls back to branch-and-bound plus a value-function optimality row when
cut generation stalls, so exactness never depends on the ladder.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericalFailure
from .simplex import LpProblem, lp_solve

log = logging.getLogger(__name__)

INT_TOL = 1e-6
NODE_LIMIT = 20000   # branch-and-bound nodes before NumericalFailure
MAX_CUTS = 250       # cutting-plane rounds before the branch-and-bound fallback
_VIOL_TOL = 1e-7
_CGLP_CAP = 1e6


@dataclass
class MilpRow:
    """cx . x + cy . y <= rhs in the joint space (cx empty when l1 == 0)."""

    cx: np.ndarray
    cy: np.ndarray
    rhs: float

    def __post_init__(self):
        self.cx = np.asarray(self.cx, dtype=float).ravel()
        self.cy = np.asarray(self.cy, dtype=float).ravel()
        self.rhs = float(self.rhs)

    def at_param(self, x):
        """Effective decision-space rhs at a fixed parameter value."""
        return self.rhs - float(self.cx @ x) if self.cx.size else self.rhs

    def to_dict(self):
        return {"cx": self.cx.tolist(), "cy": self.cy.tolist(), "rhs": self.rhs}


@dataclass
class CutRecord:
    row: MilpRow
    provenance: str  # gomory | disjunctive-cglp | no-good | separation | supporting | benders
    iteration: int

    def to_dict(self):
        d = self.row.to_dict()
        d.update(provenance=self.provenance, iteration=self.iteration)
        return d


@dataclass
class MilpProblem:
    c: np.ndarray                      # objective over decisions
    rows: list                         # original MilpRow list
    integer: np.ndarray                # bool mask over decisions
    lb: np.ndarray
    ub: np.ndarray
    l1: int = 0                        # parameter count
    x_param: np.ndarray | None = None  # current parameter value (binary)
    cut_rows: list = field(default_factory=list)  # pooled CutRecords treated as given cuts

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.integer = np.asarray(self.integer, dtype=bool).ravel()
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        n = self.c.size
        if not (self.integer.size == n and self.lb.size == n and self.ub.size == n):
            raise ModelError("milp dimension mismatch")
        if not (np.all(np.isfinite(self.lb)) and np.all(np.isfinite(self.ub))):
            raise ModelError("milp requires finite bounds")
        bad = self.integer & ((self.lb != np.round(self.lb)) | (self.ub != np.round(self.ub)))
        if np.any(bad):
            raise ModelError("integer variables need integer bounds")
        if self.l1:
            self.x_param = np.asarray(self.x_param, dtype=float).ravel()
            if self.x_param.size != self.l1:
                raise ModelError("parameter value length mismatch")
        else:
            self.x_param = np.zeros(0)

    @property
    def n(self):
        return self.c.size

    def all_rows(self):
        return list(self.rows) + [c.row for c in self.cut_rows]


@dataclass
class TerminalLp:
    """Final linear relaxation sharing its optimum with the mixed-integer solve.

    Each row ``cx . x + cy . y <= rhs`` splits into a parameter block and a
    decision block; :meth:`blocks` stacks the parameter coefficients and the
    right-hand sides that the Benders callers read.
    """

    c: np.ndarray
    rows: list            # MilpRow, <=-form
    lb: np.ndarray
    ub: np.ndarray
    x_param: np.ndarray
    obj: float
    anchor: tuple | None = field(default=None, repr=False)   # (LpProblem, LpSolution) at x_param

    def solve_anchor(self):
        """The LP at the solve's own parameter value and its solution.

        Solved at most once; callers read the stored solution and must not
        modify it.
        """
        if self.anchor is None:
            lpp = self.lp_at(self.x_param)
            self.anchor = (lpp, lp_solve(lpp))
        return self.anchor

    def lp_at(self, x):
        x = np.asarray(x, dtype=float).ravel()
        return _lp_at_param(self.c, self.rows, x, self.lb, self.ub)

    def blocks(self):
        """``(C, F)``: parameter coefficients and right-hand sides, one row each."""
        C = np.vstack([r.cx for r in self.rows]) if self.rows else np.zeros((0, self.x_param.size))
        F = np.array([r.rhs for r in self.rows])
        return C, F


@dataclass
class MilpResult:
    status: str           # optimal | infeasible | numerical-failure
    y: np.ndarray | None = None
    obj: float | None = None
    root_point: np.ndarray | None = None
    root_obj: float | None = None
    cuts: list = field(default_factory=list)
    mode: str = "bb"
    used_fallback: bool = False
    terminal: TerminalLp | None = None
    nodes: int = 0
    lp_calls: int = 0


def _lp_at_param(c, rows, x, lb, ub):
    """The LP min c.y over ``rows`` (joint MilpRows) at parameter ``x``, within [lb, ub]."""
    A = np.vstack([r.cy for r in rows]) if rows else None
    b = np.array([r.at_param(x) for r in rows]) if rows else None
    return LpProblem.build(c, A, b, None, None, lb, ub)


def _fractional(y, integer, tol=INT_TOL):
    frac = np.abs(y - np.round(y))
    frac[~integer] = 0.0
    order = np.argsort(-np.abs(frac - 0.5))  # most fractional first
    out = [int(i) for i in order if frac[i] > tol]
    return out


def branch_and_bound(problem: MilpProblem):
    """Exact depth-first branch and bound; deterministic branching order."""
    base_lb = problem.lb.copy()
    base_ub = problem.ub.copy()
    best = None
    best_obj = np.inf
    root = None
    nodes = 0
    lp_calls = 0
    stack = [(base_lb, base_ub)]
    while stack:
        lb, ub = stack.pop()
        if np.any(lb > ub + 1e-12):
            continue
        nodes += 1
        if nodes > NODE_LIMIT:
            raise NumericalFailure("branch-and-bound node limit exceeded")
        sol = lp_solve(_lp_at_param(problem.c, problem.all_rows(), problem.x_param, lb, ub))
        lp_calls += 1
        if root is None:
            root = sol
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise NumericalFailure(f"node relaxation returned {sol.status}")
        if sol.obj >= best_obj - 1e-9:
            continue
        fracs = _fractional(sol.x, problem.integer)
        if not fracs:
            y = sol.x.copy()
            y[problem.integer] = np.round(y[problem.integer])
            obj = float(problem.c @ y)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = y
            continue
        i = fracs[0]
        k = math.floor(sol.x[i])
        up_lb = lb.copy()
        up_lb[i] = k + 1
        dn_ub = ub.copy()
        dn_ub[i] = k
        # floor branch explored first
        stack.append((up_lb, ub))
        stack.append((lb, dn_ub))
    if root is None or root.status == "infeasible":
        return MilpResult(status="infeasible", mode="bb", nodes=nodes, lp_calls=lp_calls)
    if best is None:
        return MilpResult(status="infeasible", mode="bb", nodes=nodes, lp_calls=lp_calls,
                          root_point=root.x, root_obj=root.obj)
    return MilpResult(
        status="optimal", y=best, obj=best_obj, mode="bb",
        root_point=root.x if root.status == "optimal" else None,
        root_obj=root.obj if root.status == "optimal" else None,
        nodes=nodes, lp_calls=lp_calls,
    )


# ---------------------------------------------------------------------------
# cut generation
# ---------------------------------------------------------------------------

def chvatal_gomory_round(row: MilpRow, problem: MilpProblem):
    """Integer-rounding strengthening of a row whose support is all integer.

    The row is rescaled by its largest coefficient, shifted to nonnegative
    integer variables, and ceiled.  Returns None when a continuous decision
    variable carries weight (rounding would be invalid).
    """
    sup = np.abs(row.cy) > 1e-12
    if np.any(sup & ~problem.integer):
        return None
    a = np.concatenate([-row.cx, -row.cy])   # >= form
    beta = -row.rhs
    nz = np.abs(a) > 1e-12
    if not np.any(nz):
        return None
    u = 1.0 / float(np.max(np.abs(a[nz])))
    lv = np.concatenate([np.zeros(problem.l1), problem.lb])
    lv_int = np.round(lv)
    a_bar = np.ceil(u * a - 1e-9)
    beta_bar = math.ceil(u * (beta - float(a @ lv_int)) - 1e-9) + float(a_bar @ lv_int)
    return MilpRow(cx=-a_bar[: problem.l1], cy=-a_bar[problem.l1 :], rhs=-beta_bar)


def _joint_system(problem: MilpProblem):
    """Rows + box faces of the joint polyhedron in >= form: G v >= g."""
    l1, n = problem.l1, problem.n
    p = l1 + n
    G, g = [], []
    for r in problem.all_rows():
        G.append(np.concatenate([-r.cx if r.cx.size else np.zeros(l1), -r.cy]))
        g.append(-r.rhs)
    for j in range(l1):
        e = np.zeros(p)
        e[j] = 1.0
        G.append(e.copy())
        g.append(0.0)
        G.append(-e)
        g.append(-1.0)
    for j in range(n):
        e = np.zeros(p)
        e[l1 + j] = 1.0
        G.append(e.copy())
        g.append(problem.lb[j])
        G.append(-e)
        g.append(-problem.ub[j])
    return np.vstack(G), np.asarray(g)


def _branch_feasible(problem: MilpProblem, var_j, sense, bound):
    """Feasibility of the joint polyhedron with y_j <= k or >= k+1 appended."""
    l1, n = problem.l1, problem.n
    lb = np.concatenate([np.zeros(l1), problem.lb])
    ub = np.concatenate([np.ones(l1), problem.ub])
    j = l1 + var_j
    if sense == "<=":
        ub = ub.copy()
        ub[j] = min(ub[j], bound)
    else:
        lb = lb.copy()
        lb[j] = max(lb[j], bound)
    if lb[j] > ub[j] + 1e-12:
        return False
    rows = problem.all_rows()
    A = np.vstack([np.concatenate([r.cx if r.cx.size else np.zeros(l1), r.cy]) for r in rows]) if rows else None
    b = np.array([r.rhs for r in rows]) if rows else None
    sol = lp_solve(LpProblem.build(np.zeros(l1 + n), A, b, None, None, lb, ub))
    return sol.status == "optimal"


def cglp_split_cut(problem: MilpProblem, v_hat, var_j, k):
    """Lift-and-project cut from the split y_j <= k or y_j >= k+1.

    Solves the cut-generating LP under an L1 normalization of the cut
    coefficients and returns the most violated valid inequality, or None.
    """
    G, g = _joint_system(problem)
    mrows, p = G.shape
    e = np.zeros(p)
    e[problem.l1 + var_j] = 1.0

    # variables: uA(m) uB(m) sA sB alpha+(p) alpha-(p) beta
    nu = 2 * mrows + 2 + 2 * p + 1
    iuA = slice(0, mrows)
    iuB = slice(mrows, 2 * mrows)
    isA = 2 * mrows
    isB = 2 * mrows + 1
    iap = slice(2 * mrows + 2, 2 * mrows + 2 + p)
    iam = slice(2 * mrows + 2 + p, 2 * mrows + 2 + 2 * p)
    ib = nu - 1

    A_eq = np.zeros((2 * p, nu))
    b_eq = np.zeros(2 * p)
    # alpha - G^T uA + sA e = 0 ;  alpha - G^T uB - sB e = 0
    for loc, (iu, isv, sgn) in enumerate(((iuA, isA, +1.0), (iuB, isB, -1.0))):
        rowsl = slice(loc * p, (loc + 1) * p)
        A_eq[rowsl, iap] = np.eye(p)
        A_eq[rowsl, iam] = -np.eye(p)
        A_eq[rowsl, iu] = -G.T
        A_eq[rowsl, isv] = sgn * e
    A_ub = np.zeros((3, nu))
    b_ub = np.zeros(3)
    # beta <= g.uA - k sA ; beta <= g.uB + (k+1) sB ; sum(alpha+ + alpha-) <= 1
    A_ub[0, ib] = 1.0
    A_ub[0, iuA] = -g
    A_ub[0, isA] = k
    A_ub[1, ib] = 1.0
    A_ub[1, iuB] = -g
    A_ub[1, isB] = -(k + 1)
    A_ub[2, iap] = 1.0
    A_ub[2, iam] = 1.0
    b_ub[2] = 1.0

    cobj = np.zeros(nu)
    cobj[iap] = v_hat
    cobj[iam] = -v_hat
    cobj[ib] = -1.0

    lb = np.zeros(nu)
    ub = np.full(nu, _CGLP_CAP)
    ub[iap] = 1.0
    ub[iam] = 1.0
    lb[ib] = -_CGLP_CAP
    sol = lp_solve(LpProblem.build(cobj, A_ub, b_ub, A_eq, b_eq, lb, ub))
    if sol.status != "optimal":
        return None
    alpha = sol.x[iap] - sol.x[iam]
    beta = sol.x[ib]
    violation = beta - float(alpha @ v_hat)
    if violation <= _VIOL_TOL:
        return None
    scale = float(np.max(np.abs(alpha)))
    if scale <= 1e-10:
        return None
    alpha /= scale
    beta /= scale
    # alpha.v >= beta  ->  -alpha.v <= -beta
    return MilpRow(cx=-alpha[: problem.l1], cy=-alpha[problem.l1 :], rhs=-beta)


def value_function_row(problem: MilpProblem, opt_value):
    """Optimality row q.y >= Q(x_hat) + M.(x - x_hat) with box-derived slopes.

    Valid at every integer point of the joint feasible set because a single
    parameter flip relaxes the right side by the full objective range.
    """
    span = float(np.abs(problem.c) @ (problem.ub - problem.lb)) + 1.0 + abs(opt_value)
    M = span * (2.0 * problem.x_param - 1.0)
    # q.y - M.x >= Q - M.x_hat  ->  M.x - q.y <= M.x_hat - Q
    return MilpRow(cx=M, cy=-problem.c, rhs=float(M @ problem.x_param) - opt_value)


def cutting_plane_solve(problem: MilpProblem):
    """Solve by pure cutting planes in the joint space; exact via fallback."""
    cuts: list[CutRecord] = []
    root = None
    lp_calls = 0
    it = 0
    while it < MAX_CUTS:
        it += 1
        work = MilpProblem(
            c=problem.c, rows=problem.rows, integer=problem.integer,
            lb=problem.lb, ub=problem.ub, l1=problem.l1, x_param=problem.x_param,
            cut_rows=list(problem.cut_rows) + cuts,
        )
        sol = lp_solve(_lp_at_param(work.c, work.all_rows(), work.x_param, work.lb, work.ub))
        lp_calls += 1
        if root is None:
            root = sol
        if sol.status == "infeasible":
            return MilpResult(status="infeasible", mode="cp", cuts=cuts, lp_calls=lp_calls,
                              root_point=None if root is sol else root.x)
        if sol.status != "optimal":
            raise NumericalFailure(f"relaxation returned {sol.status}")
        fracs = _fractional(sol.x, problem.integer)
        if not fracs:
            y = sol.x.copy()
            y[problem.integer] = np.round(y[problem.integer])
            return MilpResult(
                status="optimal", y=y, obj=float(problem.c @ y), mode="cp",
                root_point=root.x, root_obj=root.obj, cuts=cuts, lp_calls=lp_calls,
            )
        j = fracs[0]
        k = math.floor(sol.x[j])
        v_hat = np.concatenate([problem.x_param, sol.x])
        new_row = None
        provenance = None
        # 1) split with an empty branch -> plain bound cut
        left = _branch_feasible(work, j, "<=", k)
        right = _branch_feasible(work, j, ">=", k + 1)
        lp_calls += 2
        if not left and not right:
            return MilpResult(status="infeasible", mode="cp", cuts=cuts, lp_calls=lp_calls,
                              root_point=root.x, root_obj=root.obj)
        if not left:
            e = np.zeros(problem.n)
            e[j] = -1.0
            new_row = MilpRow(cx=np.zeros(problem.l1), cy=e, rhs=-(k + 1))
            provenance = "disjunctive-cglp"
        elif not right:
            e = np.zeros(problem.n)
            e[j] = 1.0
            new_row = MilpRow(cx=np.zeros(problem.l1), cy=e, rhs=float(k))
            provenance = "disjunctive-cglp"
        # 2) most violated integer-rounding cut
        if new_row is None:
            best_v = _VIOL_TOL
            for r in work.all_rows():
                cand = chvatal_gomory_round(r, work)
                if cand is None:
                    continue
                viol = float(cand.cx @ problem.x_param + cand.cy @ sol.x - cand.rhs)
                if viol > best_v + 1e-12:
                    best_v = viol
                    new_row = cand
                    provenance = "gomory"
        # 3) lift-and-project CGLP
        if new_row is None:
            cand = cglp_split_cut(work, v_hat, j, k)
            lp_calls += 1
            if cand is not None:
                viol = float(cand.cx @ problem.x_param + cand.cy @ sol.x - cand.rhs)
                if viol > _VIOL_TOL:
                    new_row = cand
                    provenance = "disjunctive-cglp"
        if new_row is None:
            break  # ladder stalled
        if _duplicate(new_row, [c.row for c in cuts] + list(problem.rows) + [c.row for c in problem.cut_rows]):
            log.warning("duplicate cut suppressed at iteration %d", it)
            break
        cuts.append(CutRecord(row=new_row, provenance=provenance, iteration=it))

    # fallback: exact answer by enumeration plus a value-function row
    log.warning("cutting-plane ladder stalled; falling back to branch-and-bound")
    bb = branch_and_bound(problem if not cuts else MilpProblem(
        c=problem.c, rows=problem.rows, integer=problem.integer, lb=problem.lb,
        ub=problem.ub, l1=problem.l1, x_param=problem.x_param,
        cut_rows=list(problem.cut_rows) + cuts,
    ))
    if bb.status != "optimal":
        return MilpResult(status=bb.status, mode="cp", cuts=cuts, used_fallback=True,
                          lp_calls=lp_calls + bb.lp_calls)
    cuts.append(CutRecord(row=value_function_row(problem, bb.obj), provenance="no-good",
                          iteration=len(cuts) + 1))
    return MilpResult(
        status="optimal", y=bb.y, obj=bb.obj, mode="cp", used_fallback=True,
        root_point=root.x if root is not None and root.status == "optimal" else None,
        root_obj=root.obj if root is not None and root.status == "optimal" else None,
        cuts=cuts, lp_calls=lp_calls + bb.lp_calls,
    )


def _duplicate(row: MilpRow, rows, tol=1e-9):
    v = np.concatenate([row.cx, row.cy, [row.rhs]])
    nv = np.linalg.norm(v)
    if nv == 0:
        return True
    for r in rows:
        w = np.concatenate([r.cx, r.cy, [r.rhs]])
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        if np.linalg.norm(v / nv - w / nw) < tol:
            return True
    return False


def milp_solve(problem: MilpProblem, mode="bb") -> MilpResult:
    """Solve the MILP exactly; parametric cutting-plane mode also certifies a
    terminal LP (attach with :func:`extract_terminal_lp`)."""
    if mode == "bb":
        return branch_and_bound(problem)
    if mode == "cp":
        return cutting_plane_solve(problem)
    raise ModelError(f"unknown milp mode {mode!r}")


def extract_terminal_lp(result: MilpResult, problem: MilpProblem) -> TerminalLp:
    """Minimal linear relaxation reproducing the mixed-integer optimum.

    Starts from the original rows and adds pooled/engine cut rows newest
    first (integer-rounded where the support allows) until the LP optimum at
    the solve's parameter matches the mixed-integer optimum; appends a
    value-function row if fidelity is still out of reach.
    """
    if result.mode != "cp":
        raise ModelError("terminal LP extraction requires a cutting-plane solve")
    if result.status != "optimal":
        raise ModelError("terminal LP extraction requires an optimal result")

    candidates = []
    for rec in list(problem.cut_rows) + list(result.cuts):
        strong = chvatal_gomory_round(rec.row, problem)
        candidates.append(strong if strong is not None else rec.row)
    candidates.reverse()  # newest first

    target = result.obj

    def value(cur_rows):
        lpp = _lp_at_param(problem.c, cur_rows, problem.x_param, problem.lb, problem.ub)
        return lpp, lp_solve(lpp)

    chosen = list(problem.rows)
    lpp, sol = value(chosen)
    tol = 1e-7 * (1.0 + abs(target))
    idx = 0
    while not (sol.status == "optimal" and abs(sol.obj - target) <= tol) and idx < len(candidates):
        row = candidates[idx]
        idx += 1
        if _duplicate(row, chosen):
            continue
        chosen.append(row)
        lpp, sol = value(chosen)
    if not (sol.status == "optimal" and abs(sol.obj - target) <= tol):
        chosen.append(value_function_row(problem, target))
        lpp, sol = value(chosen)
        if not (sol.status == "optimal" and abs(sol.obj - target) <= tol):
            raise NumericalFailure("terminal LP fidelity unreachable")
    # the last LP solved is the terminal LP at its own parameter value
    return TerminalLp(
        c=problem.c.copy(),
        rows=chosen,
        lb=problem.lb.copy(),
        ub=problem.ub.copy(),
        x_param=problem.x_param.copy(),
        obj=float(sol.obj),
        anchor=(lpp, sol),
    )
