"""Parametric second-stage solves and Benders decomposition.

A second-stage solve is the cutting-plane MICP loop run with the binary
parameter block pinned; its terminal LP carries every cut in joint form, so
LP duality at the parameter value turns directly into a value-function
under-estimator in the parameter space (the Benders cut).  The cut is derived
from first principles of LP duality, including the bound terms the textbook
form drops: for

    Q(x) = min { q.y : D y <= F - C x,  l <= y <= u }

any dual-feasible (lam >= 0, mu_l >= 0, mu_u >= 0) gives

    Q(x) >= (C^T lam).x - lam.F + mu_l.l - mu_u.u,

tight at the parameter where the duals are optimal.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .certificate import SolveCertificate
from .errors import AssumptionViolation, ModelError, NumericalFailure, RecourseError
from .micp import MicpOptions, micp_solve
from .milp import MilpProblem, MilpRow, TerminalLp, milp_solve
from .model import ModelInstance, check_assumptions, epigraph_bounds
from .simplex import LpProblem, lp_dual_certificate, lp_solve

log = logging.getLogger(__name__)


@dataclass
class BendersCut:
    """eta >= a.x + b, tight at the generating parameter value."""

    a: np.ndarray
    b: float
    provenance: str = "single"
    iteration: int = 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        self.b = float(self.b)

    def value(self, x):
        return float(self.a @ np.asarray(x, dtype=float)) + self.b

    def to_dict(self):
        return {"a": self.a.tolist(), "b": self.b, "provenance": self.provenance,
                "iteration": self.iteration}


def _select_duals(terminal: TerminalLp, sol, lpp):
    """Deterministic dual choice on a degenerate optimal face.

    Re-optimizes over the dual-optimal polytope, down-weighting newer rows
    least, so the dual mass settles on the most recently generated
    (integer-strengthened) rows.  Falls back to the simplex duals when the
    selection LP fails.
    """
    m = len(terminal.rows)
    n = terminal.c.size
    if m == 0:
        return sol
    D = np.vstack([r.cy for r in terminal.rows])
    # variables: lam(m), mu_l(n), mu_u(n)
    nv = m + 2 * n
    A_eq = np.zeros((n + 1, nv))
    b_eq = np.zeros(n + 1)
    A_eq[:n, :m] = D.T
    A_eq[:n, m : m + n] = -np.eye(n)
    A_eq[:n, m + n :] = np.eye(n)
    b_eq[:n] = -terminal.c
    # dual objective pinned to the primal optimum
    A_eq[n, :m] = -lpp.b_ub
    A_eq[n, m : m + n] = lpp.lb
    A_eq[n, m + n :] = -lpp.ub
    b_eq[n] = sol.obj
    w = np.array([2.0 - k / max(1, m) for k in range(m)])
    c = np.concatenate([w, np.full(2 * n, 1e-3)])
    cap = 1e6
    sel = lp_solve(LpProblem.build(c, None, None, A_eq, b_eq,
                                   np.zeros(nv), np.full(nv, cap)))
    if sel.status != "optimal":
        return sol
    out = sol
    out.dual_ub = sel.x[:m]
    out.dual_lb = sel.x[m : m + n]
    out.dual_ubound = sel.x[m + n :]
    return out


def benders_cut_from_terminal_lp(terminal: TerminalLp, iteration=0, tol=1e-6) -> BendersCut:
    """Build the value-function cut from certified terminal-LP duals."""
    lpp = terminal.lp_at(terminal.x_param)
    sol = lp_solve(lpp)
    if sol.status != "optimal":
        raise NumericalFailure(f"terminal LP solve returned {sol.status}")
    report = lp_dual_certificate(sol, lpp)
    if not report.ok:
        raise NumericalFailure("terminal LP dual certificate failed; aborting cut generation")
    sol = _select_duals(terminal, sol, lpp)
    C, _, F = terminal.blocks()
    lam = sol.dual_ub
    a = C.T @ lam if C.size else np.zeros(terminal.x_param.size)
    b = float(-(lam @ F) + sol.dual_lb @ lpp.lb - sol.dual_ubound @ lpp.ub)
    cut = BendersCut(a=a, b=b, iteration=iteration)
    tight = cut.value(terminal.x_param)
    if abs(tight - sol.obj) > tol * (1.0 + abs(sol.obj)):
        raise NumericalFailure(
            f"benders cut not tight at its anchor: {tight} vs {sol.obj}"
        )
    return cut


def parametric_solve(model: ModelInstance, param_value: dict, opts: MicpOptions | None = None):
    """Solve the second stage at a fixed binary parameter, with terminal LP.

    Requires every convex row to have a product-form subdifferential;
    infeasibility at the parameter contradicts the standing feasibility
    assumption and is raised as such.
    """
    if model.param_block is None:
        raise ModelError("parametric solve needs a model with a parameter block")
    structure = check_assumptions(model)
    if not structure.all_product_form():
        bad = [i for i, ok in enumerate(structure.product_form) if not ok]
        raise AssumptionViolation(
            f"convex rows {bad} are nonsmooth and couple the blocks; parametric cuts unavailable"
        )
    opts = opts or MicpOptions()
    opts.want_terminal = True
    cert = micp_solve(model, opts, param_value=param_value)
    if cert.status == "infeasible":
        xv = [param_value[i] for i in model.param_block]
        raise RecourseError(f"second stage infeasible at parameter {xv}")
    if cert.status != "optimal":
        raise NumericalFailure(f"second-stage solve returned {cert.status}")
    return cert


@dataclass
class DecompositionOptions:
    tol: float = 1e-6
    max_iter: int = 500
    master_milp_mode: str = "bb"
    inner: MicpOptions = field(default_factory=MicpOptions)
    trace: list | None = None
    keep_convexification: bool = True


def decompose_solve(model: ModelInstance, opts: DecompositionOptions | None = None) -> SolveCertificate:
    """Benders-style decomposition of a joint binary/mixed-integer convex program.

    The master is a mixed 0-1 LP over the binary block and an epigraph value;
    second stages run the parametric cutting-plane solve and return one
    Benders cut per iteration.  Terminates on bound closure or when a binary
    point repeats (the finite-support argument).
    """
    opts = opts or DecompositionOptions()
    if model.param_block is None:
        raise ModelError("decomposition needs a model with a parameter block")
    t0 = time.perf_counter()
    params = list(model.param_block)
    l1 = len(params)
    others = [i for i in range(model.n) if i not in set(params)]

    # eta bounds from a box enclosure of the objective
    if model.has_linear_objective():
        span = np.abs(model.objective.c) @ (model.ub - model.lb)
        lo = float(model.objective.c @ np.where(model.objective.c > 0, model.lb, model.ub)) + model.objective.const
        hi = lo + float(span)
    else:
        lo, hi = epigraph_bounds(model.objective, model.lb, model.ub)
    margin = 1.0 + 0.01 * (hi - lo)
    eta_lb, eta_ub = lo - margin, hi + margin

    # master rows over (x, eta): only rows touching the binary block alone
    msk = np.zeros(model.n, dtype=bool)
    msk[params] = True
    rows = []
    if model.A_ub.size:
        for i in range(model.A_ub.shape[0]):
            if not np.any(model.A_ub[i, others]):
                rows.append((model.A_ub[i, params], model.b_ub[i]))

    cuts: list[BendersCut] = []
    convexification: list[MilpRow] = []
    L, U = -np.inf, np.inf
    incumbent = None
    trace = opts.trace if opts.trace is not None else []
    bounds_hist = []
    seen = {}
    status = "budget-exhausted"
    pool_dump = []

    for m_it in range(1, opts.max_iter + 1):
        mrows = [MilpRow(cx=[], cy=np.concatenate([r, [0.0]]), rhs=b) for r, b in rows]
        for cut in cuts:
            mrows.append(MilpRow(cx=[], cy=np.concatenate([cut.a, [-1.0]]), rhs=-cut.b))
        if opts.keep_convexification:
            mrows.extend(convexification)
        master = MilpProblem(
            c=np.concatenate([np.zeros(l1), [1.0]]),
            rows=mrows,
            integer=np.array([True] * l1 + [False]),
            lb=np.concatenate([np.zeros(l1), [eta_lb]]),
            ub=np.concatenate([np.ones(l1), [eta_ub]]),
        )
        res = milp_solve(master, opts.master_milp_mode)
        if res.status == "infeasible":
            status = "infeasible"
            break
        if res.status != "optimal":
            raise NumericalFailure(f"decomposition master returned {res.status}")
        if opts.master_milp_mode == "cp":
            for rec in res.cuts:
                if rec.provenance in ("gomory", "disjunctive-cglp"):
                    convexification.append(rec.row)
        x_m = np.round(res.y[:l1])
        L = res.obj
        key = tuple(int(v) for v in x_m)

        pv = {i: float(v) for i, v in zip(params, x_m)}
        inner_opts = MicpOptions(**{**opts.inner.__dict__})
        inner_opts.trace = None
        inner_opts.want_terminal = True
        sub = parametric_solve(model, pv, inner_opts)
        val = sub.objective
        if val < U - 1e-12:
            U = val
            incumbent = sub.x
        terminal = sub.extras["terminal"]
        cut = benders_cut_from_terminal_lp(terminal, iteration=m_it)
        # the terminal LP bounds the decision-block cost; fold the binary
        # block's own objective contribution back in
        if model.has_linear_objective():
            cut = BendersCut(a=cut.a + model.objective.c[params],
                             b=cut.b + model.objective.const,
                             provenance=cut.provenance, iteration=m_it)
        cuts.append(cut)
        pool_dump.extend(sub.cut_pool)
        bounds_hist.append((m_it, L, U))
        trace.append({"m": m_it, "x": [float(v) for v in x_m], "L": float(L),
                      "U": float(U), "cut": cut.to_dict()})
        if U - L <= opts.tol * (1.0 + abs(U)):
            status = "optimal"
            break
        if key in seen:
            # a repeated binary point certifies closure of the bounds
            status = "optimal"
            break
        seen[key] = m_it
    cert = SolveCertificate(
        status=status,
        x=incumbent,
        objective=U if np.isfinite(U) else None,
        bounds_history=bounds_hist,
        cut_pool=pool_dump + [c.to_dict() for c in cuts],
        iterations=len(bounds_hist),
        branch_exits=["decomposition"],
        oracle_counts={},
        trace=list(trace),
        extras={"benders_cuts": cuts},
    )
    cert.wall_time = time.perf_counter() - t0
    return cert
