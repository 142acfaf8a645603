"""Mixed-integer LP oracle: branch-and-bound plus a parametric cutting-plane mode.

Rows live in a joint (parameter, decision) space: ``cx . x + cy . y <= rhs``
with the parameter block fixed to binary values during a solve but carried
symbolically in every cut, so that cutting-plane runs terminate with a linear
relaxation whose rows stay valid for every admissible parameter value.

The cutting-plane ladder tries, in order,
  1. Chvatal-Gomory rounding of integer-supported rows,
  2. a Gomory mixed-integer cut read off the optimal tableau row of the most
     fractional variable, with the parameters as nonbasic columns at their
     0/1 values, so the cut holds on the joint polyhedron,
  3. when a guard rejects that cut, a lift-and-project cut-generating LP on
     the same variable, also over the joint polyhedron,
and falls back to branch-and-bound plus a value-function optimality row when
cut generation stalls, so exactness never depends on the ladder.  Every cut
is therefore valid for every parameter value.  A split with an empty side
needs no step of its own: the CGLP cuts it off, and branch and bound
certifies an empty integer set.  Both Gomory kinds, rounding and tableau
cuts, carry the provenance ``gomory``.

An optimal cutting-plane solve carries its terminal LP: the last relaxation
of the loop (base rows, pooled cuts and its own cuts), whose optimum at the
parameter value equals the mixed-integer optimum.  On the integral exit that
is the LP the loop has just solved, and its value is the optimum (the LP
point is integral within ``INT_TOL``, and rounding it can break a row);
after the fallback it is the same rows plus the value-function row, solved
once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericalFailure
from .simplex import _FIXED_WIDTH, LpProblem, lp_solve

log = logging.getLogger(__name__)

INT_TOL = 1e-6
NODE_LIMIT = 20000   # branch-and-bound nodes before NumericalFailure
MAX_CUTS = 250       # cutting-plane rounds before the branch-and-bound fallback
_VIOL_TOL = 1e-7
_CGLP_CAP = 1e6
_GMI_F0 = 0.005        # a GMI row's fractional part must lie in [_GMI_F0, 1 - _GMI_F0]
_GMI_TINY = 1e-12      # GMI coefficients below this share of the largest are relaxed
_GMI_DYNAMISM = 1e8    # largest over smallest nonzero GMI coefficient


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
    # gomory (rounding or tableau cut) | disjunctive-cglp | no-good | separation
    # | supporting | benders
    provenance: str
    iteration: int

    def to_dict(self):
        d = self.row.to_dict()
        d.update(provenance=self.provenance, iteration=self.iteration)
        return d


@dataclass
class MilpProblem:
    c: np.ndarray                      # objective over decisions
    rows: list                         # MilpRow list: model rows, then pooled cuts
    integer: np.ndarray                # bool mask over decisions
    lb: np.ndarray
    ub: np.ndarray
    l1: int = 0                        # parameter count
    x_param: np.ndarray | None = None  # current parameter value (binary)

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
        for k, r in enumerate(self.rows):
            if r.cx.size != self.l1 or r.cy.size != n:
                raise ModelError(f"milp row {k} has {r.cx.size} parameter and {r.cy.size} "
                                 f"decision coefficients, not {self.l1} and {n}")

    @property
    def n(self):
        return self.c.size


@dataclass
class TerminalLp:
    """Last relaxation of a cutting-plane solve, sharing its optimum with the
    mixed-integer solve at ``x_param``.

    Each row ``cx . x + cy . y <= rhs`` splits into a parameter block and a
    decision block; :meth:`blocks` stacks the parameter coefficients and the
    right-hand sides that the Benders callers read.  ``anchor`` is the LP at
    ``x_param`` and its certified-optimal solution, as the solve left them:
    the LP holds the decision block's cost and box, the solution the terminal
    value.  Callers read them and must not modify them.
    """

    rows: list            # MilpRow, <=-form
    x_param: np.ndarray
    anchor: tuple = field(repr=False)   # (LpProblem, LpSolution) at x_param

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
    cuts: list = field(default_factory=list)
    mode: str = "bb"
    used_fallback: bool = False
    terminal: TerminalLp | None = None
    nodes: int = 0
    lp_calls: int = 0


def _rows_at_param(rows, x):
    """``(A, b)``: ``rows`` (joint MilpRows) in the decision space at parameter ``x``."""
    if not rows:
        return None, None
    return np.vstack([r.cy for r in rows]), np.array([r.at_param(x) for r in rows])


def _lp_at_param(c, rows, x, lb, ub):
    """The LP min c.y over ``rows`` at parameter ``x``, within [lb, ub]."""
    A, b = _rows_at_param(rows, x)
    return LpProblem.build(c, A, b, None, None, lb, ub)


def _rounded(y, integer):
    """``y`` with its integer coordinates rounded."""
    y = y.copy()
    y[integer] = np.round(y[integer])
    return y


def _fractional(y, integer):
    frac = np.abs(y - np.round(y))
    frac[~integer] = 0.0
    order = np.argsort(-np.abs(frac - 0.5))  # most fractional first
    return [int(i) for i in order if frac[i] > INT_TOL]


def branch_and_bound(problem: MilpProblem, rows=None):
    """Exact depth-first branch and bound over ``rows`` (default: the
    problem's); deterministic branching order."""
    A, b = _rows_at_param(problem.rows if rows is None else rows, problem.x_param)
    base_lb = problem.lb.copy()
    base_ub = problem.ub.copy()
    best = None
    best_obj = np.inf
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
        sol = lp_solve(LpProblem.build(problem.c, A, b, None, None, lb, ub))
        lp_calls += 1
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise NumericalFailure(f"node relaxation returned {sol.status}")
        if sol.obj >= best_obj - 1e-9:
            continue
        fracs = _fractional(sol.x, problem.integer)
        if not fracs:
            # the node LP's value: the rounded point can break a row, so
            # its own value bounds nothing
            if sol.obj < best_obj - 1e-12:
                best_obj = sol.obj
                best = _rounded(sol.x, problem.integer)
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
    if best is None:
        return MilpResult(status="infeasible", mode="bb", nodes=nodes, lp_calls=lp_calls)
    return MilpResult(status="optimal", y=best, obj=best_obj, mode="bb",
                      nodes=nodes, lp_calls=lp_calls)


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


def _joint_system(problem: MilpProblem, rows):
    """``rows`` + box faces of the joint polyhedron in >= form: G v >= g.

    The rows come first, then a +e/-e face pair per parameter (bounds 0 and
    1), then a pair per decision.
    """
    p = problem.l1 + problem.n
    R = np.array([np.concatenate([r.cx, r.cy]) for r in rows]).reshape(-1, p)
    faces = np.repeat(np.eye(p), 2, axis=0)
    faces[1::2] *= -1.0
    lo = np.concatenate([np.zeros(problem.l1), problem.lb])
    hi = np.concatenate([np.ones(problem.l1), problem.ub])
    return (np.vstack([-R, faces]),
            np.concatenate([[-r.rhs for r in rows], np.column_stack([lo, -hi]).ravel()]))


def cglp_split_cut(problem: MilpProblem, rows, v_hat, var_j, k):
    """Lift-and-project cut from the split y_j <= k or y_j >= k+1 over ``rows``.

    Solves the cut-generating LP under an L1 normalization of the cut
    coefficients and returns the most violated valid inequality, or None.
    """
    G, g = _joint_system(problem, rows)
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


def _gmi_cut(problem: MilpProblem, rows, lpp: LpProblem, sol, j):
    """Gomory mixed-integer cut from the optimal tableau row of basic ``y_j``.

    ``sol`` is the optimum of ``lpp``, the LP over ``rows`` at the parameter
    value.  The row is read off its final basis with one solve of the
    equilibrated basis matrix.  Over the joint (x, y, slack) system each
    row's parameter coefficients enter it as nonbasic columns at their 0/1
    bound, so the cut holds on the joint set ``_joint_system`` describes and
    stays parametric.  Binary x columns and integer y columns are
    strengthened, slacks and continuous y are not, and fixed columns are
    skipped; the slacks are then substituted out.  A coefficient below
    ``_GMI_TINY`` of the largest is relaxed over its box.  Returns None when
    a guard rejects the cut: the fractional part outside ``[_GMI_F0, 1 -
    _GMI_F0]``, a coefficient dynamism above ``_GMI_DYNAMISM``, or a violation
    at the LP point of at most ``_VIOL_TOL`` with the largest coefficient 1.
    """
    x_p = problem.x_param
    f0 = sol.x[j] - math.floor(sol.x[j])
    hit = (sol.basic == j).nonzero()[0]
    if not (hit.size and _GMI_F0 <= f0 <= 1.0 - _GMI_F0 and np.all((x_p == 0.0) | (x_p == 1.0))):
        return None
    l1, n = problem.l1, problem.n
    A = lpp.A_ub
    m = A.shape[0]
    K = np.hstack([np.vstack([r.cx for r in rows]), A])
    rhs = np.array([r.rhs for r in rows])
    # row ``hit`` of B^-1 [A / norm | I], in the equilibration the LP was
    # solved in, is w [K | I] over x, y and the unscaled slacks
    norm = np.abs(A).max(axis=1, initial=0.0)
    norm[norm == 0.0] = 1.0
    B = np.hstack([A / norm[:, None], np.eye(m)])[:, sol.basic]
    e = np.zeros(m)
    e[hit[0]] = 1.0
    try:
        w = np.linalg.solve(B.T, e) / norm
    except np.linalg.LinAlgError:
        return None
    # columns [x | y | slacks]: tableau coefficient, the bound each sits at,
    # the direction away from it, and which ones count
    a = np.concatenate([w @ K, w])
    lo = np.concatenate([np.zeros(l1), lpp.lb, np.zeros(m)])
    hi = np.concatenate([np.ones(l1), lpp.ub, np.full(m, np.inf)])
    upper = np.concatenate([x_p == 1.0, sol.at_upper])
    bound = np.where(upper, hi, lo)
    sigma = np.where(upper, -1.0, 1.0)
    nonbasic = np.ones(l1 + n + m, dtype=bool)
    nonbasic[l1 + sol.basic] = False
    nonbasic &= hi - lo > _FIXED_WIDTH
    integer = np.concatenate([np.ones(l1, dtype=bool), problem.integer, np.zeros(m, dtype=bool)])
    # y_j + sum a' t = f0 (mod 1) with t = sigma (v - bound) >= 0, t integral
    # on the integer columns: sum g t >= 1
    ap = sigma * a
    fk = ap - np.floor(ap)
    g = np.where(integer, np.where(fk <= f0, fk / f0, (1.0 - fk) / (1.0 - f0)),
                 np.where(ap >= 0.0, ap / f0, -ap / (1.0 - f0)))
    h = np.where(nonbasic, g * sigma, 0.0)
    hv, hs = h[:l1 + n], h[l1 + n:]
    # the slacks are rhs - K v
    alpha = hv - hs @ K
    beta = 1.0 + float(hv @ bound[:l1 + n]) - float(hs @ rhs)
    top = float(np.abs(alpha).max(initial=0.0))
    if not top:
        return None
    alpha /= top
    beta /= top
    tiny = (np.abs(alpha) < _GMI_TINY) & (alpha != 0.0)
    if tiny.any():
        beta -= float(np.maximum(alpha[tiny] * lo[:l1 + n][tiny], alpha[tiny] * hi[:l1 + n][tiny]).sum())
        alpha[tiny] = 0.0
    if 1.0 / np.abs(alpha[alpha != 0.0]).min() > _GMI_DYNAMISM:
        return None
    if beta - float(alpha[:l1] @ x_p + alpha[l1:] @ sol.x) <= _VIOL_TOL:
        return None
    # alpha.v >= beta  ->  -alpha.v <= -beta
    return MilpRow(cx=-alpha[:l1], cy=-alpha[l1:], rhs=-beta)


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
    """Solve by pure cutting planes in the joint space; exact via fallback.

    Each step solves the LP over the problem's rows and the cuts found so
    far, one list that grows by a row per step.  An optimal result carries
    its terminal LP (see the module notes).
    """
    cuts: list[CutRecord] = []
    rows = list(problem.rows)
    units = [u for u in map(_unit, rows) if u is not None]   # for _duplicate
    rounded = []   # chvatal_gomory_round of rows[i], filled as rows enter
    lp_calls = 0
    it = 0
    while it < MAX_CUTS:
        it += 1
        lpp = _lp_at_param(problem.c, rows, problem.x_param, problem.lb, problem.ub)
        sol = lp_solve(lpp)
        lp_calls += 1
        if sol.status == "infeasible":
            return MilpResult(status="infeasible", mode="cp", cuts=cuts, lp_calls=lp_calls)
        if sol.status != "optimal":
            raise NumericalFailure(f"relaxation returned {sol.status}")
        fracs = _fractional(sol.x, problem.integer)
        if not fracs:
            # the optimum is the LP's value, as in branch_and_bound
            return MilpResult(
                status="optimal", y=_rounded(sol.x, problem.integer), obj=sol.obj, mode="cp",
                cuts=cuts, lp_calls=lp_calls,
                terminal=_terminal_lp(problem, rows, sol.obj, (lpp, sol)),
            )
        j = fracs[0]
        k = math.floor(sol.x[j])
        new_row = None
        provenance = None
        # 1) most violated integer-rounding cut; a row's rounding does not
        # depend on the LP point, so each row is rounded once
        rounded.extend(chvatal_gomory_round(r, problem) for r in rows[len(rounded):])
        best_v = _VIOL_TOL
        for cand in rounded:
            if cand is None:
                continue
            viol = float(cand.cx @ problem.x_param + cand.cy @ sol.x - cand.rhs)
            if viol > best_v + 1e-12:
                best_v = viol
                new_row = cand
                provenance = "gomory"
        # 2) Gomory mixed-integer cut off the optimal tableau
        if new_row is None:
            new_row = _gmi_cut(problem, rows, lpp, sol, j)
            provenance = "gomory"
        # 3) lift-and-project CGLP on the same variable
        if new_row is None:
            cand = cglp_split_cut(problem, rows, np.concatenate([problem.x_param, sol.x]), j, k)
            lp_calls += 1
            if cand is not None:
                viol = float(cand.cx @ problem.x_param + cand.cy @ sol.x - cand.rhs)
                if viol > _VIOL_TOL:
                    new_row = cand
                    provenance = "disjunctive-cglp"
        if new_row is None:
            break  # ladder stalled
        u = _unit(new_row)
        if u is None or _duplicate(u, units):
            log.warning("duplicate cut suppressed at iteration %d", it)
            break
        cuts.append(CutRecord(row=new_row, provenance=provenance, iteration=it))
        rows.append(new_row)
        units.append(u)

    # fallback: exact answer by enumeration plus a value-function row
    log.warning("cutting-plane ladder stalled; falling back to branch-and-bound")
    bb = branch_and_bound(problem, rows)
    if bb.status != "optimal":
        return MilpResult(status=bb.status, mode="cp", cuts=cuts, used_fallback=True,
                          lp_calls=lp_calls + bb.lp_calls)
    cuts.append(CutRecord(row=value_function_row(problem, bb.obj), provenance="no-good",
                          iteration=len(cuts) + 1))
    rows.append(cuts[-1].row)
    return MilpResult(
        status="optimal", y=bb.y, obj=bb.obj, mode="cp", used_fallback=True,
        cuts=cuts, lp_calls=lp_calls + bb.lp_calls + 1,
        terminal=_terminal_lp(problem, rows, bb.obj),
    )


def _matches(sol, obj):
    """Whether an LP solution attains the mixed-integer optimum ``obj``."""
    return sol.status == "optimal" and abs(sol.obj - obj) <= 1e-7 * (1.0 + abs(obj))


def _terminal_lp(problem: MilpProblem, rows, obj, anchor=None) -> TerminalLp:
    """The terminal LP over ``rows`` at the solve's parameter value.

    ``anchor`` is the LP over ``rows`` already solved there; without one it
    is solved here, once.  Its optimum must equal ``obj``.
    """
    if anchor is None:
        lpp = _lp_at_param(problem.c, rows, problem.x_param, problem.lb, problem.ub)
        anchor = (lpp, lp_solve(lpp))
    if not _matches(anchor[1], obj):
        raise NumericalFailure("terminal LP fidelity unreachable")
    return TerminalLp(rows=rows, x_param=problem.x_param.copy(), anchor=anchor)


def _unit(row: MilpRow):
    """``[cx, cy, rhs]`` scaled to unit length; None for a zero row."""
    v = np.concatenate([row.cx, row.cy, [row.rhs]])
    nv = np.linalg.norm(v)
    return v / nv if nv else None


def _duplicate(unit, units):
    """Whether the unit row ``unit`` lies within 1e-9 of one of ``units``."""
    return bool(units) and bool(np.linalg.norm(np.asarray(units) - unit, axis=1).min() < 1e-9)


def milp_solve(problem: MilpProblem, mode="bb") -> MilpResult:
    """Solve the MILP exactly; an optimal parametric cutting-plane solve also
    carries its terminal LP in ``terminal``."""
    if mode == "bb":
        return branch_and_bound(problem)
    if mode == "cp":
        return cutting_plane_solve(problem)
    raise ModelError(f"unknown milp mode {mode!r}")

