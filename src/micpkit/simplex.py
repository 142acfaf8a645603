"""Dense bounded-variable dual simplex with primal and dual certificates.

All inequalities are normalized to ``A x <= b`` internally; callers that need
a different sign convention do their own bookkeeping against the recorded row
order.  Bounds must be finite.  The solver returns vertex solutions (basic
feasible points), which downstream cut separation relies on.

The tableau is one dense array of m rows by n + m columns, the structural
columns and one slack per row, plus the reduced-cost row and the column of
basic values.  Rows are equilibrated by their infinity norms.  Bounds are
handled in the ratio test, so no bound rows are appended; an equality row's
slack is fixed at zero.  The start is the slack basis with every column at
the bound its cost prefers, which is dual feasible, so there is no phase 1:
dual simplex pivots reach primal feasibility.  The row with the largest
infeasibility leaves, the ratio test flips boxed columns past their
breakpoints and picks the largest pivot within the dual tolerance (Harris),
and Bland's rule takes over while the dual objective stalls.  A pivot
scales the pivot row and subtracts one rank-1 update from the rows whose
pivot-column entry is nonzero.  Feasibility tolerances are taken per
equilibrated row.

Before a verdict the basic values and reduced costs are recomputed from one
inverse of the basis matrix, and before an infeasible verdict the tableau
rows too; the duals are read off that reduced-cost row.  An infeasible LP
reports, as ``max_violation``, the gap of the row that proves infeasibility.
A bounded pivot budget turns into an explicit ``numerical-failure`` status
rather than a wrong ``optimal``.

An optimal solution carries its final basis: ``basic`` holds the basic
column of each tableau row, in row order, as an index into ``[x | slacks]``
(slack ``i`` is column ``n + i``, the ``A_ub`` rows first), and ``at_upper``
marks, over the same columns, the nonbasic ones that sit at their upper
bound; every other nonbasic column sits at its lower bound.  A nonbasic
slack is at zero either way (an equality row's slack is fixed there).  The
basis is a read-out for tableau cuts, not a start: ``lp_solve`` always
starts from the slack basis.

Every container of linear rows in the package (``LpProblem``,
``barrier.ConvexProgram``, ``model.ModelInstance``,
``twostage.TwoStageInstance`` and ``twostage.AmbiguitySet``) builds each of
its row blocks ``(A, b)`` by one rule, ``_row_block``: ``None`` means no
rows; with no columns an empty matrix keeps one row per right-hand side;
otherwise ``A`` must be a ``(b.size, n)`` matrix, or ``ModelError`` is
raised.  Code that reads a built block therefore never tests it for
emptiness: an empty block is a ``(0, n)`` matrix and a 0-vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError

_PIVOT_TOL = 1e-9     # smallest tableau entry the ratio test pivots on
_FEAS_TOL = 1e-9      # primal feasibility, per bound and per equilibrated row
_DUAL_TOL = 1e-9      # reduced-cost slack of the Harris ratio test
_FIXED_WIDTH = 1e-11  # a column with ub - lb at most this never enters the basis


def _row_block(A, b, n, what):
    """The rows ``A x <= b`` (or ``= b``) over ``n`` columns as a float
    ``(m, n)`` matrix and an ``m``-vector, by the module's one rule.

    ``None`` means no rows.  With ``n == 0`` an empty matrix keeps one row
    per right-hand side: with every variable fixed by the caller the rows
    still decide feasibility.  Otherwise ``A`` must be a ``(b.size, n)``
    matrix (a single row may come as a vector), or ``ModelError`` names
    ``what``.
    """
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
    if A is None:
        A = np.zeros((0, n))
    else:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if n == 0 and not A.size:
            A = np.zeros((b.size, 0))
    if A.shape != (b.size, n):
        raise ModelError(f"{what}: {b.size} right-hand sides over {n} columns need a "
                         f"{b.size}x{n} matrix, not {'x'.join(map(str, A.shape))}")
    return A, b


def _is_index(i, n):
    """Whether ``i`` is an integer, not a bool, in ``0..n-1``."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n


@dataclass
class LpProblem:
    """min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub.

    Build problems with :meth:`build`, which validates them; ``lp_solve``
    does not validate again.  Both row blocks follow the module's rule
    (``_row_block``): ``None`` means no rows, and with ``c`` of size 0 an
    empty matrix keeps one row per right-hand side.
    """

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
        A_ub, b_ub = _row_block(A_ub, b_ub, n, "A_ub/b_ub")
        A_eq, b_eq = _row_block(A_eq, b_eq, n, "A_eq/b_eq")
        if lb is None or ub is None:
            raise ModelError("finite variable bounds are required")
        lb = np.asarray(lb, dtype=float).ravel()
        ub = np.asarray(ub, dtype=float).ravel()
        if lb.size != n or ub.size != n:
            raise ModelError("bound length mismatch")
        if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
            raise ModelError("bounds must be finite")
        if (lb > ub + 1e-12).any():
            raise ModelError("lb > ub")
        return LpProblem(c, A_ub, b_ub, A_eq, b_eq, lb, ub)

    @property
    def n(self):
        return self.c.size

    def scale(self):
        entries = np.concatenate([self.c, self.A_ub.ravel(), self.b_ub, self.A_eq.ravel(),
                                  self.b_eq, self.lb, self.ub])
        return max(1.0, float(np.abs(entries).max(initial=0.0)))


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | numerical-failure (bounds are finite)
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
    max_violation: float = 0.0  # when infeasible: the gap of the row that proves it
    basic: np.ndarray | None = None     # when optimal: each row's basic column of [x | slacks]
    at_upper: np.ndarray | None = None  # when optimal: nonbasic columns at their upper bound

    def duality_gap(self):
        if self.obj is None or self.dual_obj is None:
            return np.inf
        return abs(self.obj - self.dual_obj)


def _pivot(T, basis, row, col):
    """Pivot on ``T[row, col]``: scale the pivot row, then one rank-1 update of
    the other rows, the reduced-cost row included, whose pivot-column entry
    is nonzero."""
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    rows = f.nonzero()[0]
    T[rows] -= f[rows, None] * T[row]
    basis[row] = col


class _Tableau:
    """The bounded-variable tableau of one LP.

    Rows are ``[A_ub; A_eq]``, each divided by its infinity norm; columns
    are ``[x | slacks]`` with ``A x + s = b``, ``s >= 0`` on an ``A_ub`` row
    and ``s = 0`` on an ``A_eq`` row.  ``T[:m, :-1]`` is ``B^-1 [A | I]``,
    ``T[:m, -1]`` the basic values and ``T[m, :-1]`` the reduced costs.  A
    nonbasic column sits at ``val``, one of its bounds; a nonbasic slack is
    always at zero.
    """

    def __init__(self, problem: LpProblem):
        n, m_ub, m_eq = problem.n, problem.b_ub.size, problem.b_eq.size
        m = m_ub + m_eq
        ncols = n + m
        self.n, self.m, self.m_ub = n, m, m_ub
        self.T = T = np.zeros((m + 1, ncols + 1))
        T[:m_ub, :n] = problem.A_ub
        T[:m_ub, -1] = problem.b_ub
        T[m_ub:m, :n] = problem.A_eq
        T[m_ub:m, -1] = problem.b_eq
        norm = np.abs(T[:m, :n]).max(axis=1, initial=0.0)
        norm[norm == 0.0] = 1.0
        self.r = 1.0 / norm
        T[:m] *= self.r[:, None]
        np.fill_diagonal(T[:m, n:-1], 1.0)
        self.M = T[:m, :-1].copy()   # [A | I], equilibrated
        self.b = T[:m, -1].copy()
        T[m, :n] = problem.c
        self.cost = T[m, :-1].copy()
        # lower and upper bounds, then their feasibility tolerances: a
        # bound's own size for a column, the equilibrated right side for a
        # slack
        bounds = np.zeros((4, ncols))
        bounds[0, :n] = problem.lb
        bounds[1, :n] = problem.ub
        bounds[1, n:n + m_ub] = np.inf
        np.abs(bounds[:2], out=bounds[2:])
        bounds[2:, n:] = np.abs(self.b)
        bounds[2:] += 1.0
        bounds[2:] *= _FEAS_TOL
        self.lo, self.hi, self.tlo, self.thi = bounds
        self.width = self.hi - self.lo
        self.fixed = self.width <= _FIXED_WIDTH
        # degenerate pivots in a row before Bland's rule takes over
        self.stall_limit = 2 * m + n
        # the slack basis, each column at the bound its cost prefers: dual
        # feasible
        self.basic = np.arange(n, ncols)
        self.upper = (self.cost < 0.0) & ~self.fixed
        self.val = np.where(self.upper, self.hi, self.lo)
        T[:m, -1] -= self.M[:, :n] @ self.val[:n]

    def refactor(self, full):
        """Recompute the basic values and the reduced costs, and with
        ``full`` the whole tableau, from one inverse of the basis matrix;
        then flip every boxed column whose reduced cost has the wrong sign.
        False when the basis matrix is singular."""
        T, M, basic, m = self.T, self.M, self.basic, self.m
        try:
            Binv = np.linalg.inv(M[:, basic])
        except np.linalg.LinAlgError:
            return False
        x = self.val.copy()
        x[basic] = 0.0
        y = self.cost[basic] @ Binv
        T[:m, -1] = Binv @ (self.b - M @ x)
        T[m, :-1] = self.cost - y @ M
        T[m, basic] = 0.0
        # structural columns only: an A_ub slack has no upper bound to flip
        # to, an A_eq slack is fixed (basic columns have d = 0)
        n = self.n
        d = T[m, :n]
        wrong = ~self.fixed[:n] & (np.where(self.upper[:n], -d, d) < -_DUAL_TOL)
        if full or wrong.any():
            T[:m, :-1] = Binv @ M
            T[:m, basic] = np.eye(m)
            self.flip(wrong.nonzero()[0])
        return True

    def flip(self, cols):
        """Move nonbasic ``cols`` to their other bound."""
        new = np.where(self.upper[cols], self.lo[cols], self.hi[cols])
        self.T[:self.m, -1] -= self.T[:self.m, cols] @ (new - self.val[cols])
        self.val[cols] = new
        self.upper[cols] = ~self.upper[cols]

    def run(self):
        """Dual simplex pivots until the basis is primal feasible or a row
        proves infeasibility.  A verdict is only reached on values just
        computed from the basis matrix, the start's or refactored ones, and
        an infeasible verdict also on tableau rows just computed from it.

        Returns ``(status, pivots, gap)``, ``gap`` being the infeasible row's
        gap in its original units.
        """
        T, basic, upper, val = self.T, self.basic, self.upper, self.val
        n, m = self.n, self.m
        if not m:
            return "optimal", 0, 0.0
        lo, hi, tlo, thi, fixed, width = self.lo, self.hi, self.tlo, self.thi, self.fixed, self.width
        lo_t, hi_t = lo - tlo, hi + thi
        xB, d = T[:m, -1], T[m, :-1]
        budget = 400 + 60 * (2 * m + n)
        stall_limit = self.stall_limit
        pivots = stall = 0
        bland = stall > stall_limit
        # basic values and reduced costs / tableau rows just computed from
        # the basis matrix
        fresh = body = True
        while True:
            # +1 / -1 for a nonbasic column at its lower / upper bound, 0 for
            # one that cannot enter
            dirn = np.where(upper, -1.0, 1.0)
            dirn[fixed] = 0.0
            dirn[basic] = 0.0
            lo_B, hi_B = lo_t[basic], hi_t[basic]
            while True:
                v = np.maximum(lo_B - xB, xB - hi_B)
                if bland:
                    rows = (v > 0.0).nonzero()[0]
                    if not rows.size:
                        status = "optimal"
                        break
                    r = int(rows[basic[rows].argmin()])
                else:
                    # the largest infeasibility leaves: on these small LPs
                    # dual steepest-edge weights cost more than they save
                    r = int(v.argmax())
                    if v[r] <= 0.0:
                        status = "optimal"
                        break
                p = int(basic[r])
                sa = T[r, :-1] * dirn
                x_r = xB[r]
                up = bool(x_r > hi_B[r])
                if up:
                    gap, tol = x_r - hi[p], thi[p]
                    cand = (sa > _PIVOT_TOL).nonzero()[0]
                    a = sa[cand]
                else:
                    gap, tol = lo[p] - x_r, tlo[p]
                    cand = (sa < -_PIVOT_TOL).nonzero()[0]
                    a = -sa[cand]
                if not cand.size:
                    status = "infeasible"
                    break
                flips = None
                if cand.size == 1:
                    qi = 0
                    if a[0] * width[cand[0]] < gap - tol:
                        gap -= a[0] * width[cand[0]]
                        status = "infeasible"
                        break
                else:
                    dd = (d * dirn)[cand]
                    ratio = dd / a
                    if bland:
                        qi = int((ratio <= ratio.min() + 1e-12).argmax())
                    else:
                        # Harris: among the breakpoints within the dual
                        # tolerance of the first, the largest pivot
                        dd += _DUAL_TOL
                        dd /= a
                        qi = int((a * (ratio <= dd.min())).argmax())
                        if a[qi] * width[cand[qi]] < gap:
                            # bound-flipping ratio test: pass every
                            # breakpoint whose column can flip to its other
                            # bound and still leave the row infeasible
                            order = np.argsort(ratio, kind="stable")
                            drop = np.cumsum(a[order] * width[cand[order]])
                            k = int(np.searchsorted(drop, gap))
                            if k == cand.size and gap - drop[-1] > tol:
                                gap -= drop[-1]
                                status = "infeasible"
                                break
                            k = min(k, cand.size - 1)
                            rest = order[k:]
                            near = rest[ratio[rest] <= dd[rest].min()]
                            qi = int(near[a[near].argmax()])
                            flips = cand[order[:k]]
                q = int(cand[qi])
                if pivots >= budget:
                    return "numerical-failure", pivots, 0.0
                if flips is not None and flips.size:
                    self.flip(flips)
                    dirn[flips] = -dirn[flips]
                dq = d[q]
                if dq * dirn[q] < 0.0:
                    d[q] = dq = 0.0   # a cost shift within the dual tolerance
                degenerate = abs(dq) <= 1e-12 * a[qi]
                vp = hi[p] if up else lo[p]
                vq = val[q]
                _pivot(T, basic, r, q)
                xB[r] += vq
                if vp:
                    xB -= T[:m, p] * vp
                val[p] = vp
                upper[p] = up
                dirn[p] = 0.0 if fixed[p] else -1.0 if up else 1.0
                dirn[q] = 0.0
                lo_B[r], hi_B[r] = lo_t[q], hi_t[q]
                pivots += 1
                fresh = body = False
                # anti-cycling: Bland's rule while the dual objective stalls
                stall = stall + 1 if degenerate else 0
                bland = stall > stall_limit
            if fresh and (body or status == "optimal"):
                break
            # an optimal verdict needs fresh values, an infeasible one a fresh row
            body = status == "infeasible"
            if not self.refactor(full=body):
                return "numerical-failure", pivots, 0.0
            fresh = True
        if status == "infeasible":
            if p >= n:
                gap /= self.r[p - n]
            return status, pivots, float(gap)
        return status, pivots, 0.0

    def solution(self, problem: LpProblem, pivots):
        """The optimal point, its duals read off the reduced-cost row, and
        the certificate's verdict."""
        T, basic, n, m, m_ub = self.T, self.basic, self.n, self.m, self.m_ub
        xall = self.val.copy()
        xall[basic] = T[:m, -1]
        x = xall[:n]
        d = T[m, n:-1] * self.r
        lam = np.maximum(d[:m_ub], 0.0)
        nu = d[m_ub:]
        stat = problem.c + problem.A_ub.T @ lam
        # most LPs here have no equality rows: the guard on their count
        # saves a product per solve
        if m > m_ub:
            stat += problem.A_eq.T @ nu
        # a bound multiplier only where the column sits at that bound
        upper = self.upper.copy()
        upper[basic] = False
        lower = ~upper
        lower[basic] = False
        fixed = self.fixed[:n]
        dual_lb = np.where(lower[:n] | fixed, np.maximum(stat, 0.0), 0.0)
        dual_ubound = np.where(upper[:n] | fixed, np.maximum(-stat, 0.0), 0.0)
        dual_obj = float(dual_lb @ problem.lb - dual_ubound @ problem.ub
                         - lam @ problem.b_ub - nu @ problem.b_eq)
        sol = LpSolution(
            status="optimal", x=x, obj=float(problem.c @ x), dual_ub=lam, dual_eq=nu,
            dual_lb=dual_lb, dual_ubound=dual_ubound, dual_obj=dual_obj, pivots=pivots,
            basic=basic.copy(), at_upper=upper,
        )
        report = lp_dual_certificate(sol, problem)
        sol.res_primal, sol.res_dual, sol.res_compl = report.res_primal, report.res_dual, report.res_compl
        if not report.ok:
            sol.status = "numerical-failure"
        return sol


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve the LP and attach dual multipliers plus residuals.

    The status is only reported ``optimal`` when the assembled certificate
    passes its residual checks.  ``problem`` comes from
    :meth:`LpProblem.build`, which has validated it.
    """
    tab = _Tableau(problem)
    status, pivots, gap = tab.run()
    if status == "optimal":
        return tab.solution(problem, pivots)
    return LpSolution(status=status, pivots=pivots, max_violation=gap)


@dataclass
class DualCertificateReport:
    res_primal: float
    res_dual: float
    res_compl: float
    duality_gap: float
    ok: bool


def lp_dual_certificate(solution: LpSolution, problem: LpProblem) -> DualCertificateReport:
    """The three KKT residual norms and the duality gap of an LP solution.

    The slacks ``[b_ub - A_ub x, x - lb, ub - x]`` and their multipliers
    ``[dual_ub, dual_lb, dual_ubound]`` are stacked once each, in that
    order.  ``res_primal`` is the largest negative slack or equality
    residual, ``res_compl`` the largest slack times its multiplier, and
    ``res_dual`` the larger of the stationarity residual and the largest
    negative part of a stacked multiplier, all of which must be nonnegative.
    ``lp_solve`` runs this on every optimal solution and demotes one that
    fails it to ``numerical-failure``.
    """
    if solution.status != "optimal":
        raise ModelError("dual certificate requires an optimal solution")
    tol = 1e-8 * (1.0 + problem.scale())
    x = solution.x
    slack = np.concatenate((problem.b_ub - problem.A_ub @ x, x - problem.lb, problem.ub - x))
    dual = np.concatenate((solution.dual_ub, solution.dual_lb, solution.dual_ubound))
    stat = problem.c + problem.A_ub.T @ solution.dual_ub
    res_eq = 0.0
    # most LPs here have no equality rows: the guard on their count saves
    # two products on every solve
    if problem.b_eq.size:
        stat += problem.A_eq.T @ solution.dual_eq
        res_eq = float(np.abs(problem.A_eq @ x - problem.b_eq).max())
    stat += solution.dual_ubound - solution.dual_lb
    res_primal = max(float((-slack).max(initial=0.0)), res_eq)
    res_dual = max(float(np.abs(stat).max(initial=0.0)), float((-dual).max(initial=0.0)))
    res_compl = float(np.abs(dual * slack).max(initial=0.0))
    gap = solution.duality_gap()
    ok = res_primal <= tol and res_dual <= tol and res_compl <= tol and gap <= 1e-8 * (1.0 + abs(solution.obj))
    return DualCertificateReport(res_primal, res_dual, res_compl, gap, ok)
