"""Continuous convex oracle: interior-point solves, projection, cuts, cone splits.

The solver is a primal-dual interior-point loop (``_pd_solve``).  Each solve
lowers its rows once (convex rows, linear rows and both box faces, written
``c(v) + s = 0, s >= 0``) in the program's full space into one stacked block
(``expr.LoweredRows``), and folds the pins into its offsets by slicing
columns, so a Newton step costs the same few array products whatever the
mix of atom kinds: the Newton matrix is
``hess f + sum_i y_i hess c_i + J.T diag(y/s) J``, bordered by the
equalities, and Mehrotra's predictor and corrector each solve one system
with it (Nocedal & Wright, *Numerical Optimization*, ch. 19).  Each iterate
is evaluated once, by the line search, whose inner residuals and per-leaf
sums the next step's derivatives read, and the predictor and corrector
share their right-hand sides' terms and one y/s.  When the box
center is not strictly feasible, the same loop first minimizes the worst
violation alpha of ``c(v) - alpha <= 0`` (Jacobian ``[J, -1]``) until a
strictly feasible point, or until its duals prove a positive lower bound on
the minimum (Boyd & Vandenberghe, *Convex Optimization*, sec. 11.4): that
bound is the infeasibility certificate's ``violation``.  A set with no
interior ends phase 1 at a violation of zero; the rows its duals prove tight
become equalities and pins, and the solve starts over on that program; when
only convex rows are tight, none can become an equality, and the solve
raises ``NumericalFailure``.  The loop itself finishes the point: it runs
until m*mu and the dual residual reach 1e-12.  Pure-linear programs take the
same loop, with their rows lowered as affine rows.  Every optimal exit, the
all-pinned one included, is certified by one active-set fit
(``_assemble_certificate``): the cone and equality multipliers come from one
nonnegative least-squares fit over the unpinned coordinates, each pin's
multiplier is minus the stationarity residual at its coordinate, and only
this certificate evaluates the atom trees, so it stays independent of the
kernel it checks.

Pin constraints (``x_i = v``) are substituted out of the Newton system and
their free-signed multipliers recovered from full-space stationarity.  A
program with every coordinate pinned is decided on its only point before any
row is lowered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DecompositionFailure, ModelError, NumericalFailure
from .expr import LoweredRows
from .simplex import LpProblem, _is_index, _row_block, lp_solve

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-8
ACTIVE_TOL = 1e-6  # boundary-activity threshold; >= 2 orders above solve tol
EQUIVALENCE_TOL = 1e-6  # relative gap allowed by the linear-reduction cross-check
NNLS_TOL = 1e-11
NEWTON_PHASES = ("phase1", "main")  # KktCertificate.newton_by_phase keys
_MAX_NEWTON = 200   # iterations of one primal-dual loop
_TAU = 0.995        # fraction to the boundary
_INTERIOR = 1e-6    # a start, or phase 1's violation, below -_INTERIOR is strictly feasible
_STOP = 1e-12       # m*mu and dual residual at which a primal-dual loop ends, in either phase


# ---------------------------------------------------------------------------
# nonnegative least squares (Lawson-Hanson active set)
# ---------------------------------------------------------------------------

def nnls(A, b):
    """argmin_{w >= 0} ||A w - b||_2, returned with the residual norm.

    The least-squares solution over all columns comes first: when every
    weight is above ``NNLS_TOL`` it is an optimum, and with full column rank
    the one Lawson-Hanson would end at, by the same solve.  Otherwise
    Lawson-Hanson runs from w = 0.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape if A.ndim == 2 else (b.size, 0)
    if n == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.all(w > NNLS_TOL):
        return w, float(np.linalg.norm(b - A @ w))
    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b.copy()
    for _ in range(6 * n + 30):
        grad = A.T @ resid
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= NNLS_TOL * (1.0 + np.linalg.norm(b)):
            break
        passive[j] = True
        while True:
            idx = np.nonzero(passive)[0]
            s, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if np.all(s > NNLS_TOL):
                w[:] = 0.0
                w[idx] = s
                break
            neg = s <= NNLS_TOL
            cur = w[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                alphas = np.where(neg, cur / (cur - s), np.inf)
            alpha = float(np.min(alphas))
            w[idx] = cur + alpha * (s - cur)
            passive[idx] = w[idx] > NNLS_TOL
            w[~passive] = 0.0
            if not passive.any():
                return np.zeros(n), float(np.linalg.norm(b))
        resid = b - A @ w
    return w, float(np.linalg.norm(b - A @ w))


def nnls_with_free(N, F, b):
    """min ||N w + F v - b|| with w >= 0 and v free.

    The free block is projected out with an orthonormal basis Q of its
    range, the left singular vectors whose singular values are above
    1e-12 of the largest (so a dependent or zero column of F adds no
    direction), and recovered after the nonnegative part is fixed.  Both
    blocks are copied to row-major order first: BLAS rounds a product
    differently for a column-major operand, so the same columns stacked two
    ways would give multipliers some ulp apart.
    """
    N = np.ascontiguousarray(N, dtype=float)
    F = np.ascontiguousarray(F, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if F.size == 0:
        w, r = nnls(N, b)
        return w, np.zeros(F.shape[1]), r
    U, sv, _ = np.linalg.svd(F, full_matrices=False)
    Q = U[:, sv > 1e-12 * sv[0]]
    if N.size:
        w, _ = nnls(N - Q @ (Q.T @ N), b - Q @ (Q.T @ b))
    else:
        w = np.zeros(0)
    rhs = b - (N @ w if N.size else 0.0)
    v, *_ = np.linalg.lstsq(F, rhs, rcond=None)
    resid = float(np.linalg.norm(rhs - F @ v))
    return w, v, resid


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class ConvexProgram:
    """min c.x (or 0.5||x - proj_point||^2)  s.t. linear rows, convex rows, pins, box.

    The linear row blocks follow ``simplex._row_block``."""

    n: int
    c: np.ndarray | None = None
    proj_point: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    convex: list = field(default_factory=list)
    pins: dict = field(default_factory=dict)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        self.c = np.zeros(n) if self.c is None else np.asarray(self.c, dtype=float).ravel()
        self.A_ub, self.b_ub = _row_block(self.A_ub, self.b_ub, n, "A_ub/b_ub")
        self.A_eq, self.b_eq = _row_block(self.A_eq, self.b_eq, n, "A_eq/b_eq")
        if self.lb is None or self.ub is None:
            raise ModelError("convex programs require finite box bounds")
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        if self.proj_point is not None:
            self.proj_point = np.asarray(self.proj_point, dtype=float).ravel()
        for i, v in self.pins.items():
            if not _is_index(i, n):
                raise ModelError(f"pin index {i!r} is not a variable index 0..{n - 1}")
            if not (self.lb[i] - 1e-9 <= v <= self.ub[i] + 1e-9):
                raise ModelError(f"pinned value for variable {i} violates its bounds")
        for g in self.convex:
            if g.dim != n:
                raise ModelError("convex constraint dimension mismatch")

    @property
    def is_projection(self):
        return self.proj_point is not None

    def objective_value(self, x):
        if self.is_projection:
            d = x - self.proj_point
            return 0.5 * float(d @ d)
        return float(self.c @ x)


@dataclass
class KktCertificate:
    """A solve's outcome; every optimal one is built by ``_assemble_certificate``."""

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    mult_convex: np.ndarray | None = None
    mult_ub: np.ndarray | None = None
    mult_eq: np.ndarray | None = None
    mult_lb: np.ndarray | None = None
    mult_ubound: np.ndarray | None = None
    mult_pins: dict = field(default_factory=dict)   # free-signed, one per pin
    res_stat: float = np.inf
    res_feas: float = np.inf
    res_compl: float = np.inf
    active_convex: list = field(default_factory=list)
    # when infeasible: phase 1's lower bound on the minimal violation (0 when
    # its loop ended without a positive one), the violation at the only point
    # when every coordinate is pinned, or the equalities' least-squares residual
    violation: float = 0.0
    newton_by_phase: dict = field(default_factory=lambda: dict.fromkeys(NEWTON_PHASES, 0))

    @property
    def newton_steps(self):
        """Every Newton iteration of the solve, over all phases."""
        return sum(self.newton_by_phase.values())


# ---------------------------------------------------------------------------
# interior-point internals
# ---------------------------------------------------------------------------

class _Work:
    """Reduced problem after pin substitution, with its rows lowered once.

    The rows are lowered in the program's full space and the pins folded into
    their offsets by column slicing (``LoweredRows.fold_pins``); no atom tree
    is rebuilt.
    """

    phase = "main"

    def __init__(self, prog: ConvexProgram):
        self.prog = prog
        n = prog.n
        pin_idx = np.array(sorted(prog.pins), dtype=int)
        pin_val = np.array([prog.pins[i] for i in sorted(prog.pins)], dtype=float)
        keep = np.array([i for i in range(n) if i not in prog.pins], dtype=int)
        self.keep, self.pin_idx, self.pin_val = keep, pin_idx, pin_val
        self.nr = keep.size
        self.E = prog.A_eq[:, keep]
        self.e = prog.b_eq - prog.A_eq[:, pin_idx] @ pin_val
        self.lb = prog.lb[keep]
        self.ub = prog.ub[keep]
        faces = np.eye(n)[keep]
        self.rows = LoweredRows(prog.convex, np.vstack([prog.A_ub, -faces, faces]),
                                np.concatenate([-prog.b_ub, self.lb, -self.ub]))
        self.rows.fold_pins(keep, pin_idx, pin_val)
        self.m = self.rows.m
        self.newton = dict.fromkeys(NEWTON_PHASES, 0)
        if prog.is_projection:
            self.p = prog.proj_point[keep]
            self.cv = None
            self.hess_f = np.eye(self.nr)
        else:
            self.cv = prog.c[keep]
            self.p = self.hess_f = None

    def full(self, v):
        x = np.empty(self.prog.n)
        x[self.keep] = v
        if self.pin_idx.size:
            x[self.pin_idx] = self.pin_val
        return x

    def f_val(self, v):
        if self.p is not None:
            d = v - self.p
            return 0.5 * float(d @ d)
        return float(self.cv @ v)

    def f_grad(self, v):
        return (v - self.p) if self.p is not None else self.cv

    def values(self, v):
        return self.rows.values(v)

    def derivatives(self, v, y, inner):
        return self.rows.derivatives(v, y, inner)


class _Phase1(_Work):
    """The rows of a ``_Work`` relaxed by a violation variable alpha.

    min alpha s.t. c(v) - alpha <= 0, E v = e, on z = (v, alpha): the rows'
    Jacobian is [J, -1] and the objective is linear, so the same loop solves
    it, to the same stop.  Its optimum alpha* is the program's minimized
    violation.
    """

    phase = "phase1"

    def __init__(self, work: _Work):
        self.work, self.m, self.e, self.newton = work, work.m, work.e, work.newton
        self.nr = work.nr + 1
        self.E = np.hstack([work.E, np.zeros((work.E.shape[0], 1))])
        self.cv, self.p, self.hess_f = np.eye(self.nr)[-1], None, None
        # derivatives() fills these in place: the Jacobian's last column is -1
        self._J = np.full((self.m, self.nr), -1.0)
        self._curv = np.zeros((self.nr, self.nr))
        self.width = work.ub - work.lb
        self.alpha_lo = -0.5 * float(self.width.min())   # the box faces alone need alpha >= this
        self.bound, self.y = -np.inf, None

    def values(self, z):
        c, inner = self.work.rows.values(z[:-1])
        return c - z[-1], inner

    def derivatives(self, z, y, inner):
        # ``inner`` is the rows' own inner evaluation at v = z[:-1]
        J, curv = self.work.rows.derivatives(z[:-1], y, inner)
        self._J[:, :-1] = J
        self._curv[:-1, :-1] = curv
        return self._J, self._curv

    def _lower_bound(self, z, y, sy, rd, nu, re):
        """Weak-duality bound on alpha* at the iterate (z, y), kept in ``self.bound`` and ``self.y``.

        With y >= 0 the Lagrangian L(z', y, nu) = alpha' - s'.y + nu.(E v' - e)
        is at most alpha* at a minimizer z*, and it is convex, so it lies
        above its linearization at z, whose gradient is the dual residual rd:
        alpha* >= L(z) - sum_j |rd_j| R_j for any R_j >= |z*_j - z_j|.  The
        box faces, relaxed by alpha* <= alpha, keep v* and v within
        width + 2 max(alpha, 0) of each other, and alpha* >= alpha_lo.
        ``sy`` is s.y; ``re`` is E v - e, or None without equalities.

        The same inequality bounds each row on the feasible set: there
        alpha' = 0, so L = sum_i y_i c_i(v') >= bound, and every term is at
        most 0, so c_i(v') >= bound / y_i.
        """
        alpha = z[-1]
        reach = np.append(self.width + 2.0 * max(alpha, 0.0), alpha - self.alpha_lo)
        bound = alpha - sy - float(np.abs(rd) @ reach)
        if re is not None:
            bound += float(nu @ re)
        self.bound, self.y, self._last = bound, y, (z, y, sy, rd, nu, re)
        return bound

    def kink_bound(self):
        """The last bound again, each norm leaf's gradient g_l swapped for a subgradient u_l.

        As w_l ||r'|| >= w_l u_l.r' for ||u_l|| <= 1, the Lagrangian keeps a
        convex minorant, lower at z by w_l (||r_l|| - u_l.r_l) and with its
        gradient moved by w_l M_l.T (u_l - g_l).  The u_l that best cancel the
        dual residual, scaled into the ball, can prove a stall at a kink.
        """
        z, y, sy, rd, nu, re = self._last
        leaves = self.work.rows.norm_leaves(z[:-1], y)
        if leaves is None:
            return self.bound
        M, r, g, seg, w = leaves
        C = M.T * w[seg]
        u = g - np.linalg.lstsq(C, rd[:-1], rcond=None)[0]
        u /= np.maximum(1.0, np.sqrt(np.bincount(seg, u * u)))[seg]
        drop = float(w @ (np.sqrt(np.bincount(seg, r * r)) - np.bincount(seg, u * r)))
        return self._lower_bound(z, y, sy + drop, rd + np.append(C @ (u - g), 0.0), nu, re)


def _newton_matrix(prob, z, y, ys, inner=None):
    """Row Jacobian J at z and the Newton matrix hess f + sum y_i hess c_i + J.T diag(ys) J.

    ``ys`` is y/s; ``inner`` is the rows' inner evaluation at z, as
    ``prob.values`` returns it.  Only a projection adds hess f: for a linear
    objective it is zero (``prob.hess_f`` is None).
    """
    J, curv = prob.derivatives(z, y, inner)
    K = (J.T * ys) @ J
    K += curv
    if prob.hess_f is not None:
        K += prob.hess_f
    return J, K


def _boundary_step(s, ds, y, dy):
    """Largest step in (0, 1] that keeps (s, y) + step*(ds, dy) at least (1 - _TAU)*(s, y).

    The fastest relative decrease, one ratio minimum per block, sets it:
    _TAU / max_i(-du_i/u_i), or 1 when no component decreases.
    """
    rate = -min(float((ds / s).min()), float((dy / y).min()))
    return min(1.0, _TAU / rate) if rate > 0.0 else 1.0


def _pd_solve(prob, z):
    """Primal-dual interior-point loop on c(z) + s = 0, s >= 0, E z = e from a strictly feasible z.

    The duals start centered at mu = 1 (y = 1/s).  Mehrotra's predictor-
    corrector gives the direction toward the target sigma*mu, with
    sigma = (mu_aff/mu)^3 floored at 0.1*min(1, err/mu), so mu does not fall
    below the dual residual, and at (1 - alpha)^2 after a short step alpha.
    When the corrector points uphill on the merit, the plain Newton direction
    toward the same target replaces it.  The step backtracks from the
    fraction to the boundary until every row stays strictly negative and the
    barrier merit f - target * sum log(-c) decreases (Armijo); s = -c(z)
    follows z, and the duals take the same step.  For convex rows the merit
    is convex along the step, so the backtracking ends.  Each iteration is
    counted in ``prob.newton[prob.phase]``.

    Each iterate is evaluated once: the line search's accepted ``values``
    call hands its inner evaluation (``expr.LoweredRows.values``) to the next
    step's ``derivatives``, and its sum log s to the merit.  The predictor
    and corrector share their terms.  With s*y as the complementarity
    residual, J.T (s*y/s) cancels the rows' part of the dual residual, so the
    predictor's right-hand side is -(g + E.T nu), and the corrector's is
    that plus J.T w with w = (ds*dy - target)/s; y/s is formed once per step,
    for the Newton matrix and for dy.

    When no step decreases the merit, the duals are re-centered once
    (y = mu/s, and the short-step floor dropped) and the loop steps on from
    there.

    Returns (z, status): "optimal" once m*mu and the dual residual reach
    ``_STOP``; in phase 1, "interior" as soon as the violation variable is
    below -_INTERIOR, "infeasible" as soon as the iterate's duals prove a
    positive lower bound on the minimal violation
    (``_Phase1._lower_bound``), and "zero" as soon as the violation variable
    is at most ``_STOP`` and the bound proves a row within ``ACTIVE_TOL`` of
    tight on the whole feasible set; "stalled" when no step decreases the
    merit twice in a row, or the iterations run out.
    """
    E, e, m = prob.E, prob.e, prob.m
    k, nz = E.shape[0], z.size
    phase1 = prob.phase == "phase1"
    c, inner = prob.values(z)
    s = -c
    y = 1.0 / s
    logs = float(np.log(s).sum())
    nu = np.zeros(k)
    re = None
    f = prob.f_val(z)
    alpha = 1.0
    recentered = False
    if k:   # the bordered Newton system: its equality blocks are set once
        KKT = np.zeros((nz + k, nz + k))
        KKT[:nz, nz:], KKT[nz:, :nz] = E.T, E
        rhs = np.empty(nz + k)
    for _ in range(_MAX_NEWTON):
        ys = y / s
        J, K = _newton_matrix(prob, z, y, ys, inner)
        g = prob.f_grad(z)
        gnu = g + E.T @ nu if k else g
        rd = gnu + J.T @ y
        if k:
            re = E @ z - e
            KKT[:nz, :nz], rhs[nz:] = K, -re
            K = KKT
        gap = float(s @ y)
        mu = gap / m
        err = float(np.abs(rd).max()) / (1.0 + float(np.abs(g).max()))
        if k:
            err = max(err, float(np.abs(re).max()))
        if phase1 and prob._lower_bound(z, y, gap, rd, nu, re) > 0.0:
            return z, "infeasible"
        if phase1 and z[-1] <= _STOP and ACTIVE_TOL * float(y.max()) > -prob.bound:
            return z, "zero"
        if m * mu <= _STOP and err <= _STOP:
            return z, "optimal"
        prob.newton[prob.phase] += 1

        def direction(w):
            """(dz, ds, dy, dnu) of the Newton step that takes s*y toward -s*w; w = None is w = 0."""
            top = -gnu if w is None else J.T @ w - gnu
            if k:
                rhs[:nz] = top
                top = rhs
            try:
                sol = np.linalg.solve(K, top)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(K, top, rcond=None)[0]
            dz = sol[:nz]
            ds = -(J @ dz)
            return dz, ds, -((y if w is None else y + w) + ys * ds), sol[nz:]

        dz, ds, dy, _ = direction(None)
        a = _boundary_step(s, ds, y, dy)
        mu_aff = float((s + a * ds) @ (y + a * dy)) / m
        target = max(mu * (mu_aff / mu) ** 3, 0.1 * min(mu, err), (1.0 - alpha) ** 2 * mu)
        dz, ds, dy, dnu = direction((ds * dy - target) / s)
        slope = float(g @ dz) - target * float((ds / s).sum())
        if not slope < 0.0:
            dz, ds, dy, dnu = direction(-target / s)
            slope = float(g @ dz) - target * float((ds / s).sum())
        if not (np.isfinite(slope) and np.isfinite(dy).all()):
            return z, "stalled"
        alpha = _boundary_step(s, ds, y, dy)
        phi0 = f - target * logs
        # a slope that is not negative is rounding: the rows pin z (E z = e
        # leaves no freedom, say), and only the duals move
        flat = not slope < 0.0
        for _ in range(50):
            zt = z + alpha * dz
            ct, inner_t = prob.values(zt)
            if ct.max() < 0.0:        # also false on NaN
                st, ft = -ct, prob.f_val(zt)
                logt = float(np.log(st).sum())
                # the tolerance accepts steps whose decrease is lost to rounding
                if flat or (ft - target * logt
                            <= phi0 + 1e-4 * alpha * slope + 1e-15 * (1.0 + abs(phi0))):
                    break
            alpha *= 0.5
        else:
            if recentered:
                return z, "stalled"
            # once: put the duals back on the central path at this mu
            y, alpha, recentered = mu / s, 1.0, True
            continue
        recentered = False
        z, s, f, logs, inner = zt, st, ft, logt, inner_t
        y = y + alpha * dy
        if k:
            nu = nu + alpha * dnu
        if phase1 and z[-1] < -_INTERIOR:
            return z, "interior"
    return z, "stalled"


def convex_solve(prog: ConvexProgram) -> KktCertificate:
    """Solve a convex program to a KKT certificate, or report infeasibility.

    The primal-dual loop starts from the box center moved onto the
    equalities.  When that point is not strictly feasible, the same loop
    first minimizes the worst violation of the rows (``_Phase1``): it stops
    at the first strictly feasible point, which starts the program's loop.
    It reports infeasible at the first iterate that proves a positive lower
    bound on the minimal violation, or when it reaches the stop ``_STOP``
    with a minimum that is not negative; ``violation`` is then that lower
    bound, at most the minimal violation.  When it ends at a violation of
    zero, the program as ``_implicit_equalities`` rewrites it is solved in
    its place, and the point certified on ``prog``; when only convex rows
    are tight there, nothing can be rewritten, and it raises.  The program's
    loop then runs to the same stop, and its end point is the solution.
    Pure-linear programs take the same loops.  ``newton_by_phase`` counts
    the Newton iterations of each phase; ``newton_steps`` sums them.  When every
    coordinate is pinned, the only point is infeasible if it violates a row
    by more than ``ACTIVE_TOL``.

    Every optimal certificate, the all-pinned one included, comes from the
    one active-set fit of ``_assemble_certificate``.

    Raises NumericalFailure when a loop stalls or ends without a certified
    point, or when the feasible set has no interior and only convex rows are
    tight on it; callers must abort rather than continue.  A stalled phase 1
    is first given the bound over the norms' subdifferentials
    (``_Phase1.kink_bound``), and reports infeasible when that is positive.
    """
    # everything pinned: the only point, certified by the same fit, with no rows lowered
    if len(prog.pins) == prog.n:
        x = np.array([prog.pins[i] for i in range(prog.n)], dtype=float)
        viol = float(max([0.0, *(g.value(x) for g in prog.convex), *(prog.A_ub @ x - prog.b_ub),
                          *np.abs(prog.A_eq @ x - prog.b_eq)]))
        if viol > ACTIVE_TOL:
            return KktCertificate(status="infeasible", x=x, violation=viol)
        return _assemble_certificate(prog, x)

    work = _Work(prog)
    nr = work.nr
    # the box center, moved onto the equalities, starts the main loop when it
    # is strictly feasible, and phase 1 otherwise
    v = 0.5 * (work.lb + work.ub)
    meq = work.E.shape[0]
    if meq:
        K = np.block([[np.eye(nr), work.E.T], [work.E, np.zeros((meq, meq))]])
        v = np.linalg.lstsq(K, np.concatenate([v, work.e]), rcond=None)[0][:nr]
        res_eq = float(np.max(np.abs(work.E @ v - work.e)))
        if res_eq > 1e-9 * (1.0 + float(np.max(np.abs(work.e)))):
            return KktCertificate(status="infeasible", violation=res_eq)
    c, _ = work.rows.values(v)
    if not float(np.max(c)) < -_INTERIOR:
        phase1 = _Phase1(work)
        z, status = _pd_solve(phase1, np.append(v, float(np.max(c)) + 1.0))
        if status == "stalled":
            # a stall at a norm's kink may still end with a proof of infeasibility
            if not phase1.kink_bound() > 0.0:
                raise NumericalFailure("primal-dual loop stalled in phase 1", point=work.full(z[:nr]))
            status = "infeasible"
        if status == "zero":
            flat = _implicit_equalities(prog, work, phase1)
            if flat is None:
                raise NumericalFailure("feasible set has no interior and only convex rows are tight "
                                       "(no linear row or face to make an equality)",
                                       point=work.full(z[:nr]))
            sub = convex_solve(flat)
            newton = {ph: work.newton[ph] + sub.newton_by_phase[ph] for ph in NEWTON_PHASES}
            if sub.status != "optimal":
                return replace(sub, newton_by_phase=newton)
            return _certified(prog, sub.x, newton)
        if status == "infeasible" or not z[-1] < -1e-12:
            return KktCertificate(status="infeasible", violation=max(phase1.bound, 0.0),
                                  newton_by_phase=dict(work.newton))
        v = z[:nr]
    v, status = _pd_solve(work, v)
    if status == "stalled":
        raise NumericalFailure("primal-dual loop stalled", point=work.full(v))
    return _certified(prog, work.full(v), work.newton)


def _implicit_equalities(prog, work, phase1):
    """``prog`` with the rows that phase 1 proves tight made equalities, or None.

    At phase 1's "zero" exit, c_i(v) >= bound / y_i on the whole feasible
    set (``_Phase1._lower_bound``), so a row with y_i * ACTIVE_TOL above
    -bound is within ``ACTIVE_TOL`` of tight there, and the exit needs one.
    A tight face pins its coordinate; a tight linear row leaves the
    inequalities and joins the equalities unless the pins and equalities
    already imply it.  A tight convex row that touches no unpinned
    coordinate is the constant 0, so it leaves the program.  The result has
    the same points and fewer rows.  Any other tight convex row cannot become
    an equality: None when only such rows are tight.  Such a set has points
    but no interior, and no KKT multipliers need exist there (Slater's
    condition fails), so ``convex_solve`` raises ``NumericalFailure`` rather
    than guess a verdict.
    """
    k, nr = len(prog.convex), work.nr
    tight = phase1.y * ACTIVE_TOL > -phase1.bound
    rows, lo, hi = np.flatnonzero(tight[k:-2 * nr]), tight[-2 * nr:-nr], tight[-nr:]
    pins = {**prog.pins, **{int(i): float(prog.ub[i]) for i in work.keep[hi]},
            **{int(i): float(prog.lb[i]) for i in work.keep[lo]}}
    free = np.array([i for i in range(prog.n) if i not in pins], dtype=int)
    flat = [i for i in np.flatnonzero(tight[:k]) if not prog.convex[i].touched()[free].any()]
    if not (rows.size or lo.any() or hi.any() or flat):
        return None
    E, join = prog.A_eq[:, free], []
    for j in rows:
        grown = np.vstack([E, prog.A_ub[j, free]])
        if np.linalg.matrix_rank(grown) > np.linalg.matrix_rank(E):
            E, join = grown, join + [j]
    ineq = np.setdiff1d(np.arange(prog.b_ub.size), rows)
    return replace(prog, A_ub=prog.A_ub[ineq], b_ub=prog.b_ub[ineq], pins=pins,
                   convex=[g for i, g in enumerate(prog.convex) if i not in flat],
                   A_eq=np.vstack([prog.A_eq, prog.A_ub[join]]),
                   b_eq=np.concatenate([prog.b_eq, prog.b_ub[join]]))


def _certified(prog, x, newton):
    """``_assemble_certificate`` at x with the solve's Newton counts, checked against its residuals."""
    cert = _assemble_certificate(prog, x)
    cert.newton_by_phase = dict(newton)
    # the certificate evaluates the atom trees, so a fault in the lowered rows
    # that misplaces the point fails here instead of passing as optimal
    scale = 1.0 + float(np.abs(np.concatenate((prog.c, prog.b_ub, prog.lb, prog.ub))).max(initial=0.0))
    for name, res in (("stationarity", cert.res_stat), ("feasibility", cert.res_feas)):
        if res > 50 * DEFAULT_TOL * scale:
            raise NumericalFailure(f"{name} residual {res:.2e} above tolerance", point=x,
                                   residual=res)
    return cert


def _assemble_certificate(prog, x):
    """The optimal certificate at x: multipliers fitted on the active set, full-space residuals.

    The cone rows (convex rows, linear rows, lower faces, upper faces) are
    stacked in that order, and a row is active when its slack is at most
    ``ACTIVE_TOL``; a pinned coordinate's faces never are.  The cone block N
    holds one column per active row, in the stacked order: the subgradient
    of a convex row (read off its atom tree), a linear row, or -e_i / e_i
    for a lower / upper face.  A pin's column would be the unit vector e_i,
    so fitting it only zeroes row i: one ``nnls_with_free`` fit of
    grad f + N w + A_eq.T v = 0 over the unpinned coordinates, with w >= 0
    and v free, gives the cone and equality multipliers, and each pin's
    multiplier is minus the stationarity residual at its coordinate, which
    leaves that coordinate's residual exactly zero.
    """
    n, k = prog.n, len(prog.convex)
    m = k + prog.b_ub.size
    grad_f = x - prog.proj_point if prog.is_projection else prog.c
    gvals = np.array([g.value(x) for g in prog.convex], dtype=float)
    slack = np.concatenate((-gvals, prog.b_ub - prog.A_ub @ x, x - prog.lb, prog.ub - x))
    pins = np.array(sorted(prog.pins), dtype=int)
    free = np.ones(n, dtype=bool)
    free[pins] = False
    active = slack <= ACTIVE_TOL
    active[m:] &= np.concatenate((free, free))
    act = np.flatnonzero(active)
    i_lin, i_face = np.searchsorted(act, (k, m))
    face = act[i_face:] - m
    N = np.zeros((n, act.size))
    N[:, :i_lin] = np.array([prog.convex[i].subgrad(x) for i in act[:i_lin]]).reshape(i_lin, n).T
    N[:, i_lin:i_face] = prog.A_ub[act[i_lin:i_face] - k].T
    # the signed unit columns themselves, so a lower face's zeros are -0.0:
    # the fit's rotations read the sign of a zero, and a +0.0 moves w by an ulp
    N[:, i_face:] = np.where(face < n, -1.0, 1.0) * np.eye(n)[:, face % n]
    w, v, _ = nnls_with_free(N[free], prog.A_eq[:, free].T, -grad_f[free])
    stat = grad_f + N @ w + prog.A_eq.T @ v
    mult = np.zeros(slack.size)
    mult[act] = w
    return KktCertificate(
        status="optimal", x=x, value=prog.objective_value(x),
        mult_convex=mult[:k], mult_ub=mult[k:m], mult_eq=v,
        mult_lb=mult[m:m + n], mult_ubound=mult[m + n:],
        mult_pins=dict(zip(pins.tolist(), (-stat[pins]).tolist())),
        res_stat=float(np.abs(stat[free]).max(initial=0.0)),
        res_feas=float(max((-slack).max(initial=0.0),
                           np.abs(prog.A_eq @ x - prog.b_eq).max(initial=0.0))),
        res_compl=float(np.abs(mult * slack).max(initial=0.0)),
        active_convex=(gvals >= -ACTIVE_TOL).tolist(),
    )


# ---------------------------------------------------------------------------
# projection, cuts, cone decomposition
# ---------------------------------------------------------------------------

def project(point, constraints, lb, ub, pins=None):
    """Euclidean projection onto {convex rows <= 0} within the box, with the
    coordinates in ``pins`` fixed (as in ``ConvexProgram``; ``point`` must
    already hold the pinned values there).

    Returns (z, distance, certificate); the certificate's ``mult_pins`` are
    the multipliers of the pinned coordinates.
    """
    point = np.asarray(point, dtype=float).ravel()
    prog = ConvexProgram(n=point.size, proj_point=point, convex=list(constraints),
                         pins=pins or {}, lb=lb, ub=ub)
    cert = convex_solve(prog)
    if cert.status != "optimal":
        return None, np.inf, cert
    dist = float(np.linalg.norm(cert.x - point))
    return cert.x, dist, cert


def supporting_inequalities(exprs, x_bar):
    """Subgradient rows ``A x <= b`` of the constraints active at a boundary point.

    Each row supports {g_i <= 0} at x_bar.  Returns ``(A, b)``.
    """
    x_bar = np.asarray(x_bar, dtype=float).ravel()
    A = [g.subgrad(x_bar) for g in exprs if g.value(x_bar) >= -ACTIVE_TOL]
    if not A:
        raise ModelError("no active convex constraint at the given point")
    return np.array(A), np.array([float(a @ x_bar) for a in A])


@dataclass
class NormalConeDecomposition:
    components: list
    residual: float


def decompose_normal_cone(target, cone_generators, tol=1e-8):
    """Split ``target`` into per-set normal-cone components.

    ``cone_generators`` is a list of (n x k_i) matrices whose nonnegative
    combinations span each cone.
    """
    target = np.asarray(target, dtype=float).ravel()
    mats = [np.asarray(G, dtype=float) for G in cone_generators]
    w, resid = nnls(np.hstack(mats), target)
    scale = 1.0 + float(np.linalg.norm(target))
    if resid > tol * scale:
        raise DecompositionFailure(
            f"decomposition residual {resid:.3e} exceeds tolerance; KKT input is broken"
        )
    comps = []
    off = 0
    for G in mats:
        k = G.shape[1]
        comps.append(G @ w[off : off + k])
        off += k
    return NormalConeDecomposition(components=comps, residual=resid)


def lp_equivalence_check(prog: ConvexProgram, A, b, reference_value):
    """Check that the LP built from supporting cuts ``A x <= b`` reproduces the convex optimum.

    Works for linear-objective programs; replaces the convex rows with the
    supplied cut rows and compares optima.
    """
    if prog.is_projection:
        raise ModelError("equivalence check applies to linear objectives")
    lb = prog.lb.copy()
    ub = prog.ub.copy()
    for i, v in prog.pins.items():
        lb[i] = ub[i] = v
    lpp = LpProblem.build(prog.c, np.vstack([prog.A_ub, A]), np.concatenate([prog.b_ub, b]),
                          prog.A_eq, prog.b_eq, lb, ub)
    sol = lp_solve(lpp)
    if sol.status != "optimal":
        return False
    return abs(sol.obj - reference_value) <= EQUIVALENCE_TOL * (1.0 + abs(reference_value))
