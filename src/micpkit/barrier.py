"""Continuous convex oracle: barrier solves, projection, cuts, cone splits.

The solver is a logarithmic-barrier Newton path-follower.  Each solve lowers
its rows once (convex rows, linear rows and both box faces, ``c(v) <= 0``)
into stacked per-kind blocks (``expr.LoweredRows``), so a Newton step costs a
few numpy calls: the barrier gradient is ``J.T @ (1/s)`` and its Hessian
``J.T @ (J / s**2) + sum_i hess c_i / s_i``.  Phase 1 is the same centering on
the rows augmented with a violation variable alpha, ``c(v) - alpha <= 0``
(Boyd & Vandenberghe, *Convex Optimization*, §11.4), whose Jacobian is
``[J, -1]``.  The start checks and the active-set refinement read the same
lowered rows; only the KKT certificate evaluates the atom trees, so it stays
independent of the kernel it checks.
Barrier multipliers double as KKT multipliers and are refit by a nonnegative
least-squares polish on the active set, which also feeds the normal-cone
decomposition oracle.

Pin constraints (``x_i = v``) are substituted out of the Newton system and
their free-signed multipliers recovered from full-space stationarity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionFailure, ModelError, NumericalFailure
from .expr import LoweredRows
from .simplex import LpProblem, lp_solve

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-8
ACTIVE_TOL = 1e-6  # boundary-activity threshold; >= 2 orders above solve tol
EQUIVALENCE_TOL = 1e-6  # relative gap allowed by the linear-reduction cross-check
NNLS_TOL = 1e-11


# ---------------------------------------------------------------------------
# nonnegative least squares (Lawson-Hanson active set)
# ---------------------------------------------------------------------------

def nnls(A, b):
    """argmin_{w >= 0} ||A w - b||_2, returned with the residual norm."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape if A.ndim == 2 else (b.size, 0)
    if n == 0:
        return np.zeros(0), float(np.linalg.norm(b))
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

    The free block is projected out with a least-squares pseudo-inverse and
    recovered after the nonnegative part is fixed.
    """
    N = np.asarray(N, dtype=float)
    F = np.asarray(F, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if F.size == 0:
        w, r = nnls(N, b)
        return w, np.zeros(0), r
    Q, _ = np.linalg.qr(F)
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
    """min c.x (or 0.5||x - proj_point||^2)  s.t. linear rows, convex rows, pins, box."""

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
        self.A_ub = np.zeros((0, n)) if self.A_ub is None or not np.size(self.A_ub) else np.atleast_2d(np.asarray(self.A_ub, dtype=float))
        self.b_ub = np.zeros(0) if self.b_ub is None else np.asarray(self.b_ub, dtype=float).ravel()
        self.A_eq = np.zeros((0, n)) if self.A_eq is None or not np.size(self.A_eq) else np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        self.b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        if self.lb is None or self.ub is None:
            raise ModelError("convex programs require finite box bounds")
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        if self.proj_point is not None:
            self.proj_point = np.asarray(self.proj_point, dtype=float).ravel()
        for i, v in self.pins.items():
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
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    mult_convex: np.ndarray | None = None
    mult_ub: np.ndarray | None = None
    mult_eq: np.ndarray | None = None
    mult_lb: np.ndarray | None = None
    mult_ubound: np.ndarray | None = None
    mult_pins: dict = field(default_factory=dict)
    res_stat: float = np.inf
    res_feas: float = np.inf
    res_compl: float = np.inf
    active_convex: list = field(default_factory=list)
    violation: float = 0.0       # phase-1 minimized violation when infeasible
    newton_steps: int = 0
    start: np.ndarray | None = None  # strictly feasible point the barrier started from


# ---------------------------------------------------------------------------
# barrier internals
# ---------------------------------------------------------------------------

class _Work:
    """Reduced problem after pin substitution, with its rows lowered once."""

    def __init__(self, prog: ConvexProgram):
        self.prog = prog
        n = prog.n
        pin_idx = np.array(sorted(prog.pins), dtype=int)
        pin_val = np.array([prog.pins[i] for i in sorted(prog.pins)], dtype=float)
        keep = np.array([i for i in range(n) if i not in prog.pins], dtype=int)
        self.keep, self.pin_idx, self.pin_val = keep, pin_idx, pin_val
        self.nr = keep.size
        self.exprs = [g.restrict(keep, pin_idx, pin_val) for g in prog.convex]
        if prog.A_ub.size:
            self.A = prog.A_ub[:, keep]
            self.b = prog.b_ub - (prog.A_ub[:, pin_idx] @ pin_val if pin_idx.size else 0.0)
        else:
            self.A = np.zeros((0, self.nr))
            self.b = np.zeros(0)
        if prog.A_eq.size:
            self.E = prog.A_eq[:, keep]
            self.e = prog.b_eq - (prog.A_eq[:, pin_idx] @ pin_val if pin_idx.size else 0.0)
        else:
            self.E = np.zeros((0, self.nr))
            self.e = np.zeros(0)
        self.lb = prog.lb[keep]
        self.ub = prog.ub[keep]
        eye = np.eye(self.nr)
        self.rows = LoweredRows(self.exprs, np.vstack([self.A, -eye, eye]),
                                np.concatenate([-self.b, self.lb, -self.ub]))
        if prog.is_projection:
            self.p = prog.proj_point[keep]
            self.cv = None
        else:
            self.cv = prog.c[keep]
            self.p = None

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
        return (v - self.p) if self.p is not None else self.cv.copy()

    def f_hess(self):
        return np.eye(self.nr) if self.p is not None else np.zeros((self.nr, self.nr))


class _Centering:
    """One barrier phase: minimize t*f(z) - sum(log s(z)) on {E z = e}.

    Phase 2 centers on z = v with slacks s = -c(v) and the program's
    objective.  Phase 1 centers on z = (v, alpha) with s = alpha - c(v) and
    objective alpha, so its rows have Jacobian [J, -1] and both phases share
    ``barrier``.
    """

    def __init__(self, work: _Work, phase1):
        self.work, self.phase1, self.e = work, phase1, work.e
        if phase1:
            nz = work.nr + 1
            self.E = np.hstack([work.E, np.zeros((work.E.shape[0], 1))])
            self.Hf = np.zeros((nz, nz))
            self.gf = np.eye(nz)[-1]
        else:
            self.E, self.Hf = work.E, work.f_hess()

    def f_val(self, z):
        return float(z[-1]) if self.phase1 else self.work.f_val(z)

    def f_grad(self, z):
        return self.gf if self.phase1 else self.work.f_grad(z)

    def slack(self, z):
        c = self.work.rows.values(z[: self.work.nr])
        return z[-1] - c if self.phase1 else -c

    def barrier(self, z, s):
        """Gradient and Hessian of -sum(log s) at z, given s = slack(z)."""
        nr = self.work.nr
        inv = 1.0 / s
        J, curv = self.work.rows.derivatives(z[:nr], inv)
        if self.phase1:
            J = np.hstack([J, -np.ones((s.size, 1))])
        Js = J * inv[:, None]
        H = Js.T @ Js
        H[:nr, :nr] += curv
        return J.T @ inv, H


def _newton_center(cen: _Centering, z, t, max_inner=80):
    """Minimize t*f + phi on {E z = e} starting at strictly feasible z.

    Returns (z, newton_steps).
    """
    E, e = cen.E, cen.e
    k, nz = E.shape
    steps = 0
    s = cen.slack(z)
    for _ in range(max_inner):
        gb, Hb = cen.barrier(z, s)
        grad = t * cen.f_grad(z) + gb
        if k:
            KKT = np.zeros((nz + k, nz + k))
            KKT[:nz, :nz] = t * cen.Hf + Hb
            KKT[:nz, nz:] = E.T
            KKT[nz:, :nz] = E
            rhs = np.concatenate([-grad, e - E @ z])
        else:
            KKT, rhs = t * cen.Hf + Hb, -grad
        if not np.isfinite(KKT).all():
            break
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            # near rank-collapse at extreme t: a least-norm step still makes
            # progress and the active-set refinement finishes the job
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        if not np.isfinite(sol).all():
            break
        dz = sol[:nz]
        dec = float(-grad @ dz)
        if not np.isfinite(dec) or dec < 0:
            break
        if dec / 2.0 <= 1e-18 * max(1.0, t) or np.linalg.norm(dz) <= 1e-14 * (1 + np.linalg.norm(z)):
            break
        # step with a slack floor (each trial slack keeps >= 1% of the
        # current one, preventing underflow spirals); once inside the
        # quadratic regime merit comparisons cancel out in floating point,
        # so pure Newton steps are accepted on domain feasibility alone
        pure = dec <= 1e-4 * max(1.0, t)
        alpha = 1.0
        merit0 = t * cen.f_val(z) - float(np.log(s).sum())
        ok = False
        for _ in range(60):
            zt = z + alpha * dz
            st = cen.slack(zt)
            # s > 0, so the floor also rules out st <= 0 and NaN
            if (st >= 0.01 * s).all() and np.isfinite(st).all():
                if pure:
                    ok = True
                    break
                merit = t * cen.f_val(zt) - float(np.log(st).sum())
                if merit <= merit0 - 1e-4 * alpha * dec:
                    ok = True
                    break
            alpha *= 0.5
        if not ok:
            break
        z, s = zt, st
        steps += 1
    return z, steps


def _phase1(work: _Work):
    """Minimize the worst violation alpha of c(v) <= alpha by the same centering.

    Returns (strictly feasible v, None), or (None, minimized violation) when
    the program is infeasible.
    """
    nr = work.nr
    # feasible point for equalities + box via LP (vertex is fine as a seed)
    seed = 0.5 * (work.lb + work.ub)
    if work.E.shape[0]:
        lpp = LpProblem.build(np.zeros(nr), None, None, work.E, work.e, work.lb, work.ub)
        sol = lp_solve(lpp)
        if sol.status == "infeasible":
            return None, float(sol.max_violation)
        if sol.status == "optimal":
            seed = sol.x.copy()

    cen = _Centering(work, phase1=True)
    c = work.rows.values(seed)
    z = np.append(seed, max(float(np.max(c)), 0.0) + 1.0)
    t = 1.0
    for _ in range(60):
        z, _ = _newton_center(cen, z, t)
        if z[nr] < -1e-6:
            return z[:nr], None
        if c.size / t < 1e-11:
            break
        t *= 20.0
    alpha_star = float(z[nr])
    if alpha_star < -1e-12:
        return z[:nr], None
    return None, max(alpha_star, 0.0)


def _interior(work: _Work, v, margin):
    """Whether v meets the equalities to 1e-10 with every lowered row below -margin."""
    if work.E.shape[0] and np.max(np.abs(work.E @ v - work.e)) > 1e-10:
        return False
    return bool(np.all(work.rows.values(v) < -margin))


def _quick_interior(work: _Work):
    """The box center, projected onto the equalities, when it is safely interior.

    Returns None otherwise, and phase 1 finds a start instead.
    """
    nr, meq = work.nr, work.E.shape[0]
    v = 0.5 * (work.lb + work.ub)
    if meq:
        K = np.zeros((nr + meq, nr + meq))
        K[:nr, :nr] = np.eye(nr)
        K[:nr, nr:] = work.E.T
        K[nr:, :nr] = work.E
        try:
            v = np.linalg.solve(K, np.concatenate([v, work.e]))[:nr]
        except np.linalg.LinAlgError:
            return None
    return v if _interior(work, v, 1e-3 * float(np.min(work.ub - work.lb))) else None


def convex_solve(prog: ConvexProgram, start=None) -> KktCertificate:
    """Solve a convex program to a KKT certificate, or report infeasibility.

    ``start`` (full-space) is tried as the barrier's start when the box
    center is not interior; it is used only if it is strictly feasible, and
    phase 1 runs otherwise.  The certificate's ``start`` returns the point
    the barrier did start from, for reuse on programs with the same rows.

    Raises NumericalFailure when the Newton budget runs out without a
    certified point; callers must abort rather than continue.
    """
    work = _Work(prog)
    nr = work.nr
    scale = 1.0 + max(
        [float(np.max(np.abs(prog.c))) if prog.c.size else 0.0]
        + ([float(np.max(np.abs(prog.b_ub)))] if prog.b_ub.size else [])
        + [float(np.max(np.abs(prog.ub))), float(np.max(np.abs(prog.lb))) if prog.lb.size else 0.0]
    ) if prog.n else 1.0

    # everything pinned: evaluate and certify directly
    if nr == 0:
        x = work.full(np.zeros(0))
        viol = max(
            [g.value(x) for g in prog.convex]
            + ([float(np.max(prog.A_ub @ x - prog.b_ub))] if prog.A_ub.size else [])
            + ([float(np.max(np.abs(prog.A_eq @ x - prog.b_eq)))] if prog.A_eq.size else [])
            + [0.0]
        )
        if viol > ACTIVE_TOL:
            return KktCertificate(status="infeasible", x=x, violation=viol)
        vals = np.array([g.value(x) for g in prog.convex])
        return KktCertificate(
            status="optimal", x=x, value=prog.objective_value(x),
            mult_convex=np.zeros(len(prog.convex)), mult_ub=np.zeros(prog.b_ub.size),
            mult_eq=np.zeros(prog.b_eq.size), mult_lb=np.zeros(prog.n), mult_ubound=np.zeros(prog.n),
            mult_pins={}, res_stat=0.0, res_feas=max(viol, 0.0), res_compl=0.0,
            active_convex=[bool(v >= -ACTIVE_TOL) for v in vals],
        )

    # pure-linear program: the simplex oracle is exact and gives vertex points
    if not prog.convex and not prog.is_projection:
        lb = prog.lb.copy()
        ub = prog.ub.copy()
        for i, v in prog.pins.items():
            lb[i] = ub[i] = v
        lpp = LpProblem.build(prog.c, prog.A_ub, prog.b_ub, prog.A_eq, prog.b_eq, lb, ub)
        sol = lp_solve(lpp)
        if sol.status == "infeasible":
            return KktCertificate(status="infeasible", violation=float(sol.max_violation))
        if sol.status != "optimal":
            raise NumericalFailure(f"lp oracle returned {sol.status}")
        pins_mult = {i: float(sol.dual_lb[i] - sol.dual_ubound[i]) for i in prog.pins}
        mult_lb = sol.dual_lb.copy()
        mult_ubound = sol.dual_ubound.copy()
        for i in prog.pins:
            mult_lb[i] = 0.0
            mult_ubound[i] = 0.0
        return KktCertificate(
            status="optimal", x=sol.x, value=sol.obj,
            mult_convex=np.zeros(0), mult_ub=sol.dual_ub, mult_eq=sol.dual_eq,
            mult_lb=mult_lb, mult_ubound=mult_ubound, mult_pins=pins_mult,
            res_stat=sol.res_dual, res_feas=sol.res_primal, res_compl=sol.res_compl,
            active_convex=[],
        )

    v0 = _quick_interior(work)
    if v0 is None and start is not None:
        v = np.asarray(start, dtype=float)[work.keep]
        v0 = v if _interior(work, v, 0.0) else None
    if v0 is None:
        v0, viol = _phase1(work)
        if v0 is None:
            return KktCertificate(status="infeasible", violation=viol)

    cen = _Centering(work, phase1=False)
    m = work.rows.c0.size
    t = max(1.0, m / max(1.0, abs(work.f_val(v0))))
    v = v0
    total_steps = 0
    target_gap = max(1e-9, 0.05 * DEFAULT_TOL)
    for outer in range(90):
        v, steps = _newton_center(cen, v, t)
        total_steps += steps
        if total_steps > 4000:
            raise NumericalFailure("newton budget exhausted", point=work.full(v))
        if m / t <= target_gap:
            break
        t *= 20.0
    else:
        raise NumericalFailure("barrier failed to reach target gap", point=work.full(v))

    # active-set Newton refinement drives the KKT residuals to machine level
    v = _kkt_refine(work, v)

    x = work.full(v)
    cert = _assemble_certificate(prog, x)
    cert.newton_steps = total_steps
    cert.start = work.full(v0)
    # the certificate evaluates the atom trees, so a fault in the lowered rows
    # that misplaces the point fails here instead of passing as optimal
    for name, res in (("stationarity", cert.res_stat), ("feasibility", cert.res_feas)):
        if res > 50 * DEFAULT_TOL * scale:
            raise NumericalFailure(f"{name} residual {res:.2e} above tolerance", point=x,
                                   residual=res)
    return cert


def _kkt_refine(work: _Work, v):
    """Primal-dual Newton polish on the active-set KKT system.

    The barrier point identifies the active set; Newton then solves
    stationarity plus active-constraint equations simultaneously, so both the
    position and the multipliers reach machine-level residuals.  Least-norm
    steps leave degenerate optimal faces where the central path ended (their
    analytic center).  The refined point is only adopted while inactive
    constraints stay satisfied and the residual improves.  A working set is
    an index array into the lowered rows, which supply every residual,
    Jacobian and curvature term.
    """
    nr, rows, E, e = work.nr, work.rows, work.E, work.e
    m = rows.c0.size
    thresh = 1e-3 * (1.0 + float(np.max(np.abs(v), initial=0.0)))

    # candidate rows in row order, with each coordinate's lower and upper
    # face side by side
    off = m - 2 * nr
    order = np.concatenate([np.arange(off), off + np.arange(2 * nr).reshape(2, nr).T.ravel()])
    cand = order[rows.values(v)[order] >= -thresh]
    if not cand.size and E.shape[0] == 0:
        return v

    def kkt(W, x, lam, nu):
        """KKT residual on working set W, with W's Jacobian and curvature."""
        J, curv = rows.derivatives(x, np.bincount(W, weights=lam, minlength=m))
        JW = J[W]
        r = np.concatenate([work.f_grad(x) + JW.T @ lam + E.T @ nu, rows.values(x)[W], E @ x - e])
        return r, JW, curv

    def newton_on(W, x, lam, nu, steps=20):
        """Solve stationarity + pinned equalities for a fixed working set."""
        r, JW, curv = kkt(W, x, lam, nu)
        na = W.size
        for _ in range(steps):
            rmax = float(np.max(np.abs(r), initial=0.0))
            if rmax <= 1e-13 * (1.0 + float(np.max(np.abs(x), initial=0.0))):
                break
            G = np.vstack([JW, E])
            K = np.zeros((nr + G.shape[0], nr + G.shape[0]))
            K[:nr, :nr] = work.f_hess() + curv
            K[:nr, nr:] = G.T
            K[nr:, :nr] = G
            step, *_ = np.linalg.lstsq(K, -r, rcond=None)
            alpha = 1.0
            for _ in range(15):
                xt = x + alpha * step[:nr]
                lt = lam + alpha * step[nr : nr + na]
                nt = nu + alpha * step[nr + na :]
                rt, JWt, curvt = kkt(W, xt, lt, nt)
                if float(np.max(np.abs(rt), initial=0.0)) < rmax:
                    x, lam, nu, r, JW, curv = xt, lt, nt, rt, JWt, curvt
                    break
                alpha *= 0.5
            else:
                break
        return x, lam, nu, float(np.max(np.abs(r), initial=0.0))

    # active-set loop: drop negative multipliers, add violated constraints
    J, _ = rows.derivatives(v, np.zeros(m))
    lam_c, nu, _ = nnls_with_free(J[cand].T, E.T, -work.f_grad(v))
    W, lam = cand[lam_c > 1e-9], lam_c[lam_c > 1e-9]
    best_x, best_score = v.copy(), np.inf
    x = v.copy()
    for _ in range(4 + 2 * cand.size):
        x, lam, nu, rmax = newton_on(W, x, lam, nu)
        c_all = rows.values(x)
        feas_viol = float(np.max(c_all, initial=0.0))
        score = max(rmax, feas_viol)
        if score < best_score and feas_viol <= 1e-9:
            best_x, best_score = x.copy(), score
        if lam.size and float(np.min(lam)) < -1e-10:
            j = int(np.argmin(lam))
            W, lam = np.delete(W, j), np.delete(lam, j)
            continue
        if feas_viol > 1e-11:
            # most violated constraint joins the working set
            W, lam = np.append(W, int(np.argmax(c_all))), np.append(lam, 0.0)
            continue
        if score <= 1e-12 * (1.0 + float(np.max(np.abs(x), initial=0.0))):
            return x
        break
    return best_x if np.isfinite(best_score) else v


def _assemble_certificate(prog, x):
    """Polish multipliers on the active set and compute full-space residuals."""
    n = prog.n
    if prog.is_projection:
        grad_f = x - prog.proj_point
    else:
        grad_f = prog.c.copy()

    gvals = np.array([g.value(x) for g in prog.convex]) if prog.convex else np.zeros(0)
    active_cv = [bool(val >= -ACTIVE_TOL) for val in gvals]
    rows_slack = prog.b_ub - prog.A_ub @ x if prog.A_ub.size else np.zeros(0)
    active_rows = rows_slack <= ACTIVE_TOL
    lb_slack = x - prog.lb
    ub_slack = prog.ub - x
    free_mask = np.ones(n, dtype=bool)
    for i in prog.pins:
        free_mask[i] = False
    act_lb = (lb_slack <= ACTIVE_TOL) & free_mask
    act_ub = (ub_slack <= ACTIVE_TOL) & free_mask

    cols = []
    tags = []
    for i, g in enumerate(prog.convex):
        if active_cv[i]:
            cols.append(g.subgrad(x))
            tags.append(("cv", i))
    for j in range(prog.A_ub.shape[0]):
        if active_rows[j]:
            cols.append(prog.A_ub[j])
            tags.append(("row", j))
    for i in np.nonzero(act_lb)[0]:
        e = np.zeros(n)
        e[i] = -1.0
        cols.append(e)
        tags.append(("lb", int(i)))
    for i in np.nonzero(act_ub)[0]:
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(e)
        tags.append(("ub", int(i)))
    free_cols = []
    for j in range(prog.A_eq.shape[0]):
        free_cols.append(prog.A_eq[j])
    for i in sorted(prog.pins):
        e = np.zeros(n)
        e[i] = 1.0
        free_cols.append(e)

    Ncols = np.column_stack(cols) if cols else np.zeros((n, 0))
    Fcols = np.column_stack(free_cols) if free_cols else np.zeros((n, 0))
    wts, vfree, resid = nnls_with_free(Ncols, Fcols, -grad_f)

    mult_convex = np.zeros(len(prog.convex))
    mult_ub = np.zeros(prog.A_ub.shape[0])
    mult_lb = np.zeros(n)
    mult_ubound = np.zeros(n)
    for wval, (kind, idx) in zip(wts, tags):
        if kind == "cv":
            mult_convex[idx] = wval
        elif kind == "row":
            mult_ub[idx] = wval
        elif kind == "lb":
            mult_lb[idx] = wval
        else:
            mult_ubound[idx] = wval
    meq = prog.A_eq.shape[0]
    mult_eq = vfree[:meq] if meq else np.zeros(0)
    mult_pins = {i: float(v) for i, v in zip(sorted(prog.pins), vfree[meq:])}

    stat = grad_f.copy()
    for i, g in enumerate(prog.convex):
        if mult_convex[i]:
            stat += mult_convex[i] * g.subgrad(x)
    if prog.A_ub.size:
        stat += prog.A_ub.T @ mult_ub
    if meq:
        stat += prog.A_eq.T @ mult_eq
    stat += mult_ubound - mult_lb
    for i, vv in mult_pins.items():
        stat[i] += vv
    res_stat = float(np.max(np.abs(stat), initial=0.0))

    res_feas = max(
        float(np.max(gvals, initial=0.0)),
        float(np.max(-rows_slack, initial=0.0)),
        float(np.max(-lb_slack, initial=0.0)),
        float(np.max(-ub_slack, initial=0.0)),
        float(np.max(np.abs(prog.A_eq @ x - prog.b_eq), initial=0.0)) if prog.A_eq.size else 0.0,
        0.0,
    )
    res_compl = 0.0
    if len(prog.convex):
        res_compl = max(res_compl, float(np.max(np.abs(mult_convex * gvals), initial=0.0)))
    if prog.A_ub.size:
        res_compl = max(res_compl, float(np.max(np.abs(mult_ub * rows_slack), initial=0.0)))
    res_compl = max(
        res_compl,
        float(np.max(np.abs(mult_lb * lb_slack), initial=0.0)),
        float(np.max(np.abs(mult_ubound * ub_slack), initial=0.0)),
    )

    return KktCertificate(
        status="optimal", x=x, value=prog.objective_value(x),
        mult_convex=mult_convex, mult_ub=mult_ub, mult_eq=mult_eq,
        mult_lb=mult_lb, mult_ubound=mult_ubound, mult_pins=mult_pins,
        res_stat=res_stat, res_feas=res_feas, res_compl=res_compl,
        active_convex=active_cv,
    )


# ---------------------------------------------------------------------------
# projection, cuts, cone decomposition
# ---------------------------------------------------------------------------

def project(point, constraints, lb, ub, start=None):
    """Euclidean projection onto {convex rows <= 0} within the box.

    ``start`` is passed to ``convex_solve``.  Returns (z, distance, certificate).
    """
    point = np.asarray(point, dtype=float).ravel()
    prog = ConvexProgram(n=point.size, proj_point=point, convex=list(constraints), lb=lb, ub=ub)
    cert = convex_solve(prog, start)
    if cert.status != "optimal":
        return None, np.inf, cert
    dist = float(np.linalg.norm(cert.x - point))
    return cert.x, dist, cert


@dataclass
class CutRow:
    """Linear inequality a.x <= rhs."""

    a: np.ndarray
    rhs: float


def supporting_inequalities(exprs, x_bar, structure=None):
    """Subgradient rows of the constraints active at a boundary point.

    Each row supports {g_i <= 0} at x_bar.  With ``structure`` (per-row
    product-form flags) the rows are for reuse verbatim in the joint space,
    which is only sound when every active constraint has a
    product-decomposable subdifferential; an active row flagged False raises.
    """
    x_bar = np.asarray(x_bar, dtype=float).ravel()
    rows = []
    for i, g in enumerate(exprs):
        val = g.value(x_bar)
        if val >= -ACTIVE_TOL:
            if structure is not None and not structure[i]:
                raise ModelError(
                    f"constraint {i} is active but lacks a product-form subdifferential; "
                    "parametric supporting cut would be invalid"
                )
            a = g.subgrad(x_bar)
            rows.append(CutRow(a=a, rhs=float(a @ x_bar)))
    if not rows:
        raise ModelError("no active convex constraint at the given point")
    return rows


@dataclass
class NormalConeDecomposition:
    components: list
    residual: float


def decompose_normal_cone(target, cone_generators, subspace_generators=None, tol=1e-8):
    """Split ``target`` into per-set normal-cone components.

    ``cone_generators`` is a list of (n x k_i) matrices whose nonnegative
    combinations span each cone; ``subspace_generators`` lists matrices whose
    free-signed combinations span subspace normals (equalities, pins).
    """
    target = np.asarray(target, dtype=float).ravel()
    mats = [np.atleast_2d(np.asarray(G, dtype=float)) for G in cone_generators]
    mats = [G.T if G.shape[0] != target.size else G for G in mats]
    subs = [np.atleast_2d(np.asarray(G, dtype=float)) for G in (subspace_generators or [])]
    subs = [G.T if G.shape[0] != target.size else G for G in subs]
    N = np.hstack(mats) if mats else np.zeros((target.size, 0))
    F = np.hstack(subs) if subs else np.zeros((target.size, 0))
    w, vfree, resid = nnls_with_free(N, F, target)
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
    off = 0
    for G in subs:
        k = G.shape[1]
        comps.append(G @ vfree[off : off + k])
        off += k
    return NormalConeDecomposition(components=comps, residual=resid)


def lp_equivalence_check(prog: ConvexProgram, cuts, reference_value):
    """Check that the LP built from supporting cuts reproduces the convex optimum.

    Works for linear-objective programs; replaces the convex rows with the
    supplied cut rows and compares optima.
    """
    if prog.is_projection:
        raise ModelError("equivalence check applies to linear objectives")
    lb = prog.lb.copy()
    ub = prog.ub.copy()
    for i, v in prog.pins.items():
        lb[i] = ub[i] = v
    A = [prog.A_ub] if prog.A_ub.size else []
    b = [prog.b_ub] if prog.b_ub.size else []
    for cut in cuts:
        A.append(cut.a[None, :])
        b.append(np.array([cut.rhs]))
    A_ub = np.vstack(A) if A else None
    b_ub = np.concatenate(b) if b else None
    lpp = LpProblem.build(prog.c, A_ub, b_ub, prog.A_eq if prog.A_eq.size else None,
                          prog.b_eq if prog.b_eq.size else None, lb, ub)
    sol = lp_solve(lpp)
    if sol.status != "optimal":
        return False
    return abs(sol.obj - reference_value) <= EQUIVALENCE_TOL * (1.0 + abs(reference_value))
