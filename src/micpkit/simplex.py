"""Dense two-phase simplex with primal and dual certificates.

All inequalities are normalized to ``A x <= b`` internally; callers that need
a different sign convention do their own bookkeeping against the recorded row
order.  Bounds must be finite.  The solver returns vertex solutions (basic
feasible points), which downstream cut separation relies on.

The tableau is one dense array whose last row is the reduced-cost row.  A
pivot scales the pivot row and subtracts one rank-1 update from the rows whose
pivot-column entry is nonzero; the ratio test reads the positive column
entries only and breaks ties by the smallest basic column index.  Pricing is
Dantzig with an automatic switch to Bland's rule once the objective stalls, so
termination is guaranteed at desk scale.  A phase-2 optimum whose basic
values dip below the certificate's tolerance is cleaned up by dual simplex
pivots.  A bounded pivot budget turns into an explicit ``numerical-failure``
status rather than a wrong ``optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError

_PIVOT_TOL = 1e-9


@dataclass
class LpProblem:
    """min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub."""

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @staticmethod
    def build(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lb=None, ub=None):
        c = np.asarray(c, dtype=float).ravel()
        n = c.size
        if A_ub is None:
            A_ub = np.zeros((0, n))
            b_ub = np.zeros(0)
        if A_eq is None:
            A_eq = np.zeros((0, n))
            b_eq = np.zeros(0)
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float)) if np.size(A_ub) else np.zeros((0, n))
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float)) if np.size(A_eq) else np.zeros((0, n))
        b_ub = np.asarray(b_ub, dtype=float).ravel() if b_ub is not None else np.zeros(0)
        b_eq = np.asarray(b_eq, dtype=float).ravel() if b_eq is not None else np.zeros(0)
        if lb is None or ub is None:
            raise ModelError("finite variable bounds are required")
        lb = np.asarray(lb, dtype=float).ravel()
        ub = np.asarray(ub, dtype=float).ravel()
        prob = LpProblem(c, A_ub, b_ub, A_eq, b_eq, lb, ub)
        prob.validate()
        return prob

    def validate(self):
        n = self.c.size
        if self.A_ub.shape != (self.b_ub.size, n) and self.A_ub.size:
            raise ModelError("A_ub/b_ub dimension mismatch")
        if self.A_eq.shape != (self.b_eq.size, n) and self.A_eq.size:
            raise ModelError("A_eq/b_eq dimension mismatch")
        if self.lb.size != n or self.ub.size != n:
            raise ModelError("bound length mismatch")
        if not (np.isfinite(self.lb).all() and np.isfinite(self.ub).all()):
            raise ModelError("bounds must be finite")
        if (self.lb > self.ub + 1e-12).any():
            raise ModelError("lb > ub")

    @property
    def n(self):
        return self.c.size

    def scale(self):
        vals = [1.0]
        for arr in (self.c, self.A_ub, self.b_ub, self.A_eq, self.b_eq, self.lb, self.ub):
            if arr.size:
                vals.append(float(np.abs(arr).max()))
        return max(vals)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical-failure
    x: np.ndarray | None = None
    obj: float | None = None
    dual_ub: np.ndarray | None = None      # >= 0, one per A_ub row
    dual_eq: np.ndarray | None = None      # free sign, one per A_eq row
    dual_lb: np.ndarray | None = None      # >= 0, multipliers of x >= lb
    dual_ubound: np.ndarray | None = None  # >= 0, multipliers of x <= ub
    res_primal: float = np.inf
    res_dual: float = np.inf
    res_compl: float = np.inf
    dual_obj: float | None = None
    pivots: int = 0
    max_violation: float = 0.0  # phase-1 violation when infeasible

    def duality_gap(self):
        if self.obj is None or self.dual_obj is None:
            return np.inf
        return abs(self.obj - self.dual_obj)


def _pivot(T, basis, row, col):
    """Pivot on ``T[row, col]``: scale the pivot row, then one rank-1 update of
    the other rows, the objective row included, whose pivot-column entry is
    nonzero."""
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    rows = f.nonzero()[0]
    T[rows] -= f[rows, None] * T[row]
    basis[row] = col


def _simplex_core(T, basis, cost, max_pivots):
    """Minimize cost over {rows of ``T[:-1]`` feasible, vars >= 0}.

    ``T[-1]`` becomes the reduced-cost row; its last entry tracks minus the
    objective.  Returns (status, pivots).
    """
    m, ncols = T.shape[0] - 1, T.shape[1] - 1
    obj_row = T[-1]
    obj_row[:-1] = cost
    obj_row[-1] = 0.0
    # reduced costs: z_j - c_B B^-1 a_j computed incrementally via row ops
    for r, bcol in enumerate(basis.tolist()):
        if obj_row[bcol] != 0.0:
            obj_row -= obj_row[bcol] * T[r]
    rc = obj_row[:-1]
    rhs = T[:-1, -1]
    pivots = 0
    stall = 0
    last_obj = obj_row[-1]
    bland = False
    while pivots < max_pivots:
        if bland:
            improving = rc < -_PIVOT_TOL
            col = int(improving.argmax())
            if not improving[col]:
                return "optimal", pivots
        else:
            col = int(rc.argmin())
            if rc[col] >= -_PIVOT_TOL:
                return "optimal", pivots
        colvals = T[:-1, col]
        pos = (colvals > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return "unbounded", pivots
        ratios = rhs[pos] / colvals[pos]
        ties = pos[ratios <= ratios.min() + 1e-12]
        # smallest basis index on ties keeps Bland's rule honest
        row = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _pivot(T, basis, row, col)
        pivots += 1
        # obj_row[-1] tracks -objective, so progress means it increases
        if obj_row[-1] <= last_obj + 1e-12:
            stall += 1
            if stall > 3 * (m + ncols) and not bland:
                bland = True
        else:
            stall = 0
            last_obj = obj_row[-1]
    return "numerical-failure", pivots


def _dual_cleanup(T, basis, tol, max_pivots):
    """Dual simplex pivots on a tableau with optimal reduced costs until
    every basic value is at least ``-tol``.

    The primal ratio test skips column entries at or below the pivot
    tolerance, so a phase-2 optimum can leave a basic value slightly
    negative, past the certificate's tolerance.  Each pivot keeps the reduced
    costs optimal.  Returns (ok, pivots).
    """
    obj_row = T[-1]
    pivots = 0
    while pivots < max_pivots:
        row = int(T[:-1, -1].argmin())
        if T[row, -1] >= -tol:
            return True, pivots
        entries = T[row, :-1]
        neg = (entries < -_PIVOT_TOL).nonzero()[0]
        if neg.size == 0:
            return False, pivots
        col = int(neg[(obj_row[neg] / -entries[neg]).argmin()])
        _pivot(T, basis, row, col)
        pivots += 1
    return False, pivots


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve the LP and attach dual multipliers plus residuals.

    The status is only reported ``optimal`` when the assembled certificate
    passes its residual checks.
    """
    problem.validate()
    n = problem.n
    scale = problem.scale()

    # pinned variables (lb == ub) are substituted out
    width = problem.ub - problem.lb
    free = np.nonzero(width > 1e-11)[0]
    pinned = np.nonzero(width <= 1e-11)[0]
    xpin = problem.lb[pinned]

    if free.size == 0:
        x = problem.lb.copy()
        viol = 0.0
        if problem.A_ub.size:
            viol = max(viol, float(np.max(problem.A_ub @ x - problem.b_ub, initial=0.0)))
        if problem.A_eq.size:
            viol = max(viol, float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0)))
        if viol > 1e-8 * scale:
            return LpSolution(status="infeasible", max_violation=viol)
        return LpSolution(
            status="optimal", x=x, obj=float(problem.c @ x),
            dual_ub=np.zeros(problem.b_ub.size), dual_eq=np.zeros(problem.b_eq.size),
            dual_lb=np.zeros(n), dual_ubound=np.zeros(n),
            res_primal=viol, res_dual=0.0, res_compl=0.0, dual_obj=float(problem.c @ x),
        )

    c = problem.c[free]
    A_ub = problem.A_ub[:, free] if problem.A_ub.size else np.zeros((0, free.size))
    A_eq = problem.A_eq[:, free] if problem.A_eq.size else np.zeros((0, free.size))
    pin_ub = problem.A_ub[:, pinned] @ xpin if problem.A_ub.size else np.zeros(problem.b_ub.size)
    pin_eq = problem.A_eq[:, pinned] @ xpin if problem.A_eq.size else np.zeros(problem.b_eq.size)
    b_ub = problem.b_ub - pin_ub
    b_eq = problem.b_eq - pin_eq
    lb, ub = problem.lb[free], problem.ub[free]
    nf = free.size

    # shift to z >= 0 and append upper bounds as rows
    d_ub = b_ub - A_ub @ lb
    d_eq = b_eq - A_eq @ lb
    w = ub - lb

    m1, m2 = d_ub.size, d_eq.size
    # row layout: [ub rows (m1)] [bound rows (nf)] [eq rows (m2)]
    n_ineq = m1 + nf
    nrows = n_ineq + m2
    ncols = nf + n_ineq  # z columns + slack columns

    rhs = np.concatenate([d_ub, w, d_eq])
    flip = rhs < 0
    signs = np.where(flip, -1.0, 1.0)
    M = np.zeros((nrows, ncols))
    M[:m1, :nf] = A_ub
    M[n_ineq:, :nf] = A_eq
    i = np.arange(n_ineq)
    M[i, nf + i] = 1.0            # slack columns
    M[m1 + i[:nf], i[:nf]] = 1.0  # bound rows z_j <= w_j
    M *= signs[:, None]
    rhs *= signs

    # phase 1: artificials wherever no ready unit column exists, i.e. on the
    # flipped inequality rows and on every equality row
    needs_art = flip.copy()
    needs_art[n_ineq:] = True
    art_rows = needs_art.nonzero()[0]
    n_art = art_rows.size
    # tableau: constraint rows, then the objective row that _simplex_core fills
    T = np.zeros((nrows + 1, ncols + n_art + 1))
    T[:nrows, :ncols] = M
    T[:nrows, -1] = rhs
    basis = np.arange(nf, nf + nrows)
    basis[art_rows] = np.arange(ncols, ncols + n_art)
    T[art_rows, basis[art_rows]] = 1.0

    total_cols = ncols + n_art
    budget = 400 + 60 * (nrows + total_cols)
    pivots = 0
    surviving = np.arange(nrows)

    if n_art:
        cost1 = np.zeros(total_cols)
        cost1[ncols:] = 1.0
        status, p1 = _simplex_core(T, basis, cost1, budget)
        pivots += p1
        if status == "numerical-failure":
            return LpSolution(status="numerical-failure", pivots=pivots)
        phase1 = -T[-1, -1]
        if phase1 > 1e-8 * max(1.0, scale):
            return LpSolution(status="infeasible", pivots=pivots, max_violation=float(phase1))
        # drive remaining artificials out of the basis; a pivot only changes
        # the basis entry of its own row
        for r in (basis >= ncols).nonzero()[0]:
            piv = (np.abs(T[r, :ncols]) > _PIVOT_TOL).nonzero()[0]
            if piv.size:
                _pivot(T, basis, r, int(piv[0]))
                pivots += 1
        # redundant rows: artificial stays basic at zero level; drop them with
        # the artificial columns
        surviving = (basis < ncols).nonzero()[0]
        basis = basis[surviving]
        rows = np.append(surviving, nrows)
        T = np.hstack([T[rows, :ncols], T[rows, -1:]])

    cost2 = np.zeros(T.shape[1] - 1)
    cost2[:nf] = c
    status, p2 = _simplex_core(T, basis, cost2, budget)
    pivots += p2
    if status == "unbounded":
        return LpSolution(status="unbounded", pivots=pivots)
    if status == "optimal":
        ok, p3 = _dual_cleanup(T, basis, 1e-8 * (1.0 + scale), budget)
        pivots += p3
        if not ok:
            status = "numerical-failure"
    if status == "numerical-failure":
        return LpSolution(status="numerical-failure", pivots=pivots)

    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:-1, -1]
    xf = lb + z[:nf]
    x = np.empty(n)
    x[free] = xf
    x[pinned] = xpin
    obj = float(problem.c @ x)

    # duals: solve B^T y = c_B over the surviving rows, then undo row signs
    Bmat = M[surviving[:, None], basis]
    cB = cost2[basis]
    try:
        y_rows = np.linalg.solve(Bmat.T, cB)
    except np.linalg.LinAlgError:
        y_rows, *_ = np.linalg.lstsq(Bmat.T, cB, rcond=None)

    y_full = np.zeros(nrows)
    y_full[surviving] = y_rows * signs[surviving]

    # lagrangian sign convention: c + A_ub^T lam + A_eq^T nu + mu_ub - mu_lb = 0
    lam = np.maximum(-y_full[:m1], 0.0)
    mu_ubound_f = np.maximum(-y_full[m1 : m1 + nf], 0.0)
    nu = -y_full[m1 + nf :]
    stat_vec = c + A_ub.T @ lam + (A_eq.T @ nu if m2 else 0.0) + mu_ubound_f
    mu_lb_f = np.maximum(stat_vec, 0.0)

    dual_lb = np.zeros(n)
    dual_ubound = np.zeros(n)
    dual_lb[free] = mu_lb_f
    dual_ubound[free] = mu_ubound_f
    if pinned.size:
        # pinned coordinates sit at both bounds; their stationarity remainder
        # is absorbed by whichever bound multiplier keeps the right sign
        rem = problem.c[pinned].astype(float)
        if m1:
            rem = rem + problem.A_ub[:, pinned].T @ lam
        if m2:
            rem = rem + problem.A_eq[:, pinned].T @ nu
        dual_lb[pinned] = np.maximum(rem, 0.0)
        dual_ubound[pinned] = np.maximum(-rem, 0.0)

    dual_obj = float(
        -(lam @ problem.b_ub if m1 else 0.0)
        - (nu @ problem.b_eq if m2 else 0.0)
        - dual_ubound @ problem.ub
        + dual_lb @ problem.lb
    )
    # pinned columns absorb any stationarity remainder through their free duals
    sol = LpSolution(
        status="optimal", x=x, obj=obj, dual_ub=lam,
        dual_eq=nu if m2 else np.zeros(0),
        dual_lb=dual_lb, dual_ubound=dual_ubound,
        dual_obj=dual_obj, pivots=pivots,
    )
    report = lp_dual_certificate(sol, problem)
    sol.res_primal, sol.res_dual, sol.res_compl = report.res_primal, report.res_dual, report.res_compl
    if not report.ok:
        sol.status = "numerical-failure"
    return sol


@dataclass
class DualCertificateReport:
    res_primal: float
    res_dual: float
    res_compl: float
    duality_gap: float
    ok: bool


def lp_dual_certificate(solution: LpSolution, problem: LpProblem) -> DualCertificateReport:
    """The three KKT residual norms and the duality gap of an LP solution.

    ``lp_solve`` runs this on every optimal solution and demotes one that
    fails it to ``numerical-failure``; a caller that holds on to a solution,
    as the Benders cut does with its anchor, can run it again before
    trusting the duals.
    """
    if solution.status != "optimal":
        raise ModelError("dual certificate requires an optimal solution")
    scale = problem.scale()
    tol = 1e-8 * (1.0 + scale)
    x = solution.x
    lam = solution.dual_ub
    nu = solution.dual_eq
    stat = problem.c.copy()
    if problem.A_ub.size:
        stat += problem.A_ub.T @ lam
    if problem.A_eq.size:
        stat += problem.A_eq.T @ nu
    stat += solution.dual_ubound - solution.dual_lb
    res_dual = float(np.max(np.abs(stat), initial=0.0))
    res_primal = 0.0
    res_compl = 0.0
    if problem.A_ub.size:
        s = problem.b_ub - problem.A_ub @ x
        res_primal = max(res_primal, float(np.max(-s, initial=0.0)))
        res_compl = max(res_compl, float(np.max(np.abs(lam * s), initial=0.0)))
    if problem.A_eq.size:
        res_primal = max(res_primal, float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0)))
    res_primal = max(
        res_primal,
        float(np.max(problem.lb - x, initial=0.0)),
        float(np.max(x - problem.ub, initial=0.0)),
    )
    res_compl = max(
        res_compl,
        float(np.max(np.abs(solution.dual_lb * (x - problem.lb)), initial=0.0)),
        float(np.max(np.abs(solution.dual_ubound * (problem.ub - x)), initial=0.0)),
    )
    gap = solution.duality_gap()
    ok = res_primal <= tol and res_dual <= tol and res_compl <= tol and gap <= 1e-8 * (1.0 + abs(solution.obj))
    return DualCertificateReport(res_primal, res_dual, res_compl, gap, ok)
