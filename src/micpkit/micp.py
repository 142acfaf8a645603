"""Finitely convergent cutting-plane loop for mixed-integer convex programs.

Each iteration solves a mixed-integer linear master built from the linear
rows plus all pooled cuts, tests membership of the master point in the convex
set, separates it through a Euclidean projection when outside, and polishes
the continuous part with the integer block pinned.  Boundary polishes emit
supporting subgradient cuts and are cross-checked against their own linear
reduction each time.

With a parameter block (binary coordinates pinned for the whole solve) every
pooled cut is generated in the joint space so the terminal relaxation stays
valid for all parameter values; the masters are then cutting-plane solves and
the final one yields the terminal LP the decomposition layers consume.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    ACTIVE_TOL,
    ConvexProgram,
    convex_solve,
    lp_equivalence_check,
    project,
    supporting_inequalities,
)
from .certificate import SolveCertificate
from .errors import AssumptionViolation, ModelError, NumericalFailure
from .milp import CutRecord, MilpProblem, MilpRow, _duplicate, extract_terminal_lp, milp_solve
from .model import ModelInstance, check_assumptions, epigraph_reformulate

log = logging.getLogger(__name__)

MEMBERSHIP_TOL = 1e-6  # a master point with every convex row <= this is inside


@dataclass
class MicpOptions:
    tol: float = 1e-6
    max_iter: int = 500
    milp_mode: str = "bb"            # bb | cp; a pinned parameter block forces cp
    trace: list | None = None


@dataclass
class MicpState:
    n: int = 0
    pool: list = field(default_factory=list)       # CutRecord in joint space
    L: float = -np.inf
    U: float = np.inf
    incumbent: np.ndarray | None = None
    history: list = field(default_factory=list)


class _Split:
    """Column split between the pinned parameter block and master decisions."""

    def __init__(self, model: ModelInstance, param_value):
        n = model.n
        self.params = list(model.param_block) if param_value is not None else []
        if param_value is not None and model.param_block is None:
            raise ModelError("parameter values supplied but the model has no parameter block")
        self.decisions = [i for i in range(n) if i not in set(self.params)]
        self.x_param = (
            np.array([param_value[i] for i in self.params], dtype=float)
            if param_value is not None
            else np.zeros(0)
        )
        self.model = model

    @property
    def l1(self):
        return len(self.params)

    def assemble(self, y):
        x = np.empty(self.model.n)
        x[self.decisions] = y
        if self.params:
            x[self.params] = self.x_param
        return x

    def split_vec(self, full):
        full = np.asarray(full, dtype=float)
        return full[self.params], full[self.decisions]


def build_master(state: MicpState, model: ModelInstance, split: _Split) -> MilpProblem:
    """Master MILP: base linear rows plus every pooled cut, no convex rows."""
    dec = split.decisions
    par = split.params
    rows = []
    if model.A_ub.size:
        for i in range(model.A_ub.shape[0]):
            rows.append(MilpRow(cx=model.A_ub[i, par], cy=model.A_ub[i, dec], rhs=model.b_ub[i]))
    if model.A_eq.size:
        for i in range(model.A_eq.shape[0]):
            rows.append(MilpRow(cx=model.A_eq[i, par], cy=model.A_eq[i, dec], rhs=model.b_eq[i]))
            rows.append(MilpRow(cx=-model.A_eq[i, par], cy=-model.A_eq[i, dec], rhs=-model.b_eq[i]))
    integer = np.array([model.variables[i].is_integer for i in dec])
    lb = model.lb[dec]
    ub = model.ub[dec]
    c = model.objective.c[dec]
    return MilpProblem(
        c=c, rows=rows, integer=integer, lb=lb, ub=ub,
        l1=split.l1, x_param=split.x_param, cut_rows=list(state.pool),
    )


def _pool_append(state: MicpState, record: CutRecord):
    """Add a cut unless it is all zeros or duplicates a pooled row (the
    ``milp._duplicate`` test); duplicates cannot occur under exact
    arithmetic, so a hit is logged as numerical hygiene."""
    row = record.row
    if np.linalg.norm(np.concatenate([row.cx, row.cy, [row.rhs]])) == 0.0:
        return False
    if _duplicate(row, [rec.row for rec in state.pool]):
        log.warning("duplicate %s cut at iteration %d suppressed",
                    record.provenance, record.iteration)
        return False
    state.pool.append(record)
    return True


def _joint_cut_from_projection(model, split, y_hat, z, cert, iteration):
    """Lift the projection separation cut into the joint space.

    The projection normal decomposes through the certificate multipliers as a
    nonnegative combination of constraint gradients plus a box normal; each
    constraint contributes its parameter-block subgradient, the box nothing.
    """
    dec = split.decisions
    a_y = y_hat - z
    a_x = np.zeros(split.l1)
    if split.l1:
        zfull = split.assemble(z)
        for i, g in enumerate(model.convex):
            lam = cert.mult_convex[i]
            if lam > 1e-12:
                sub = g.subgrad(zfull)
                a_x += lam * sub[split.params]
    rhs = float(a_x @ split.x_param + a_y @ z)
    return MilpRow(cx=a_x, cy=a_y, rhs=rhs)


@dataclass
class PolishOutcome:
    case: str                      # infeasible | interior | boundary
    value: float | None = None
    point: np.ndarray | None = None
    cuts: list = field(default_factory=list)   # joint MilpRow
    equivalence_ok: bool | None = None


def polish_step(model: ModelInstance, split: _Split, x_n, structure=None) -> PolishOutcome:
    """Re-solve the continuous problem with the integer block pinned at x_n.

    Returns the branch taken; boundary polishes carry the supporting cuts in
    joint form plus the result of the linear-reduction cross-check.
    """
    pins = {i: split.x_param[k] for k, i in enumerate(split.params)}
    for i in split.decisions:
        if model.variables[i].is_integer:
            pins[i] = float(np.round(x_n[i]))
    prog = ConvexProgram(
        n=model.n, c=model.objective.c, A_ub=model.A_ub if model.A_ub.size else None,
        b_ub=model.b_ub if model.A_ub.size else None,
        A_eq=model.A_eq if model.A_eq.size else None,
        b_eq=model.b_eq if model.A_eq.size else None,
        convex=list(model.convex), pins=pins, lb=model.lb, ub=model.ub,
    )
    cert = convex_solve(prog)
    if cert.status == "infeasible":
        return PolishOutcome(case="infeasible")
    if cert.status != "optimal":
        raise NumericalFailure("polish solve failed", point=cert.x)
    value = cert.value + model.objective.const
    gvals = [g.value(cert.x) for g in model.convex]
    on_boundary = any(v >= -ACTIVE_TOL for v in gvals)
    if not on_boundary:
        return PolishOutcome(case="interior", value=value, point=cert.x)

    rows = supporting_inequalities(model.convex, cert.x, structure=structure)
    joint = [MilpRow(cx=r.a[split.params], cy=r.a[split.decisions], rhs=r.rhs) for r in rows]
    return PolishOutcome(case="boundary", value=value, point=cert.x, cuts=joint,
                         equivalence_ok=lp_equivalence_check(prog, rows, cert.value))


def micp_solve(model: ModelInstance, opts: MicpOptions | None = None,
               param_value: dict | None = None) -> SolveCertificate:
    """Cutting-plane solve of a mixed-integer convex program.

    ``param_value`` pins the model's binary parameter block for the whole
    solve (the decomposition layers' subproblem form).  Cuts are then lifted
    to the joint space, every master is a cutting-plane solve whatever
    ``opts.milp_mode`` says, and an optimal result carries the terminal LP in
    ``extras["terminal"]``.  A pinned block needs every convex row of the
    model to be smooth or separable across the split; ``AssumptionViolation``
    is raised otherwise.
    """
    opts = opts or MicpOptions()
    t0 = time.perf_counter()
    reformulated = not model.has_linear_objective()
    work = epigraph_reformulate(model) if reformulated else model

    split = _Split(work, param_value)
    structure = None
    if split.l1:
        structure = check_assumptions(work).product_form
        # the epigraph row, if any, comes last and is left unchecked
        bad = [i for i, ok in enumerate(structure[: len(model.convex)]) if not ok]
        if bad:
            raise AssumptionViolation(
                f"convex rows {bad} are nonsmooth and couple the blocks; "
                "parametric cuts unavailable"
            )
    pinned = param_value is not None
    milp_mode = "cp" if (pinned or opts.milp_mode == "cp") else "bb"

    state = MicpState()
    counts = {"milp": 0, "convex": 0, "projections": 0}
    trace = opts.trace if opts.trace is not None else []
    eq_events = []
    master_points = []
    last_master = None
    last_problem = None
    prev_point = None
    exit_branch = None
    result_x = None
    # the projection set is the same in every iteration: restrict it once and
    # start each projection from the first interior point found for it
    convex_slice = [g.restrict(split.decisions, split.params, split.x_param) for g in work.convex]
    interior = None

    for n in range(1, opts.max_iter + 1):
        state.n = n
        master_problem = build_master(state, work, split)
        res = milp_solve(master_problem, milp_mode)
        counts["milp"] += 1
        last_master, last_problem = res, master_problem
        if res.status == "infeasible":
            return _finish("infeasible", None, None, state, counts, trace, eq_events,
                           t0, exit_branch="master-infeasible",
                           extras={"master_points": master_points})
        if res.status != "optimal":
            raise NumericalFailure(f"master solve returned {res.status}")
        for rec in res.cuts:
            if rec.provenance in ("gomory", "disjunctive-cglp", "no-good"):
                _pool_append(state, CutRecord(row=rec.row, provenance=rec.provenance,
                                              iteration=n))
        y_hat = res.y
        x_full = split.assemble(y_hat)
        master_points.append(x_full.copy())
        # raw master value plus the pinned parameter-block cost, so L and U
        # live in the same space; monotonicity is a tested property
        param_cost = float(work.objective.c[split.params] @ split.x_param) if split.l1 else 0.0
        state.L = res.obj + work.objective.const + param_cost
        gvals = [g.value(x_full) for g in work.convex]
        inside = all(v <= MEMBERSHIP_TOL for v in gvals)

        if inside:
            state.U = min(state.U, res.obj + work.objective.const + param_cost)
            state.incumbent = x_full
            state.history.append((n, state.L, state.U))
            _trace_row(trace, n, state, "membership")
            exit_branch = "membership"
            result_x = x_full
            break

        counts["projections"] += 1
        z, dist, pcert = project(
            x_full[split.decisions], convex_slice,
            lb=work.lb[split.decisions], ub=work.ub[split.decisions], start=interior,
        )
        if interior is None:
            interior = pcert.start
        if z is None:
            # the convex slice is empty at this parameter value
            return _finish("infeasible", None, None, state, counts, trace, eq_events,
                           t0, exit_branch="convex-set-empty",
                           extras={"master_points": master_points})
        sep = _joint_cut_from_projection(work, split, y_hat, z, pcert, n)
        if sep.cy @ y_hat - sep.at_param(split.x_param) > 1e-10:
            _pool_append(state, CutRecord(row=sep, provenance="separation", iteration=n))
        else:
            log.warning("separation cut not violated at iteration %d; dropped", n)

        outcome = polish_step(work, split, x_full, structure)
        counts["convex"] += 1
        if outcome.case == "boundary":
            for row in outcome.cuts:
                _pool_append(state, CutRecord(row=row, provenance="supporting", iteration=n))
            eq_events.append(bool(outcome.equivalence_ok))
        if outcome.case in ("interior", "boundary"):
            if outcome.value < state.U - 1e-12:
                state.U = outcome.value
                state.incumbent = outcome.point
        state.history.append((n, state.L, state.U))
        _trace_row(trace, n, state, outcome.case)

        if np.isfinite(state.U) and state.U - state.L <= opts.tol * (1.0 + abs(state.U)):
            exit_branch = "bounds"
            result_x = state.incumbent
            break

        if prev_point is not None and np.allclose(prev_point, x_full, atol=1e-12):
            raise NumericalFailure("master point repeated without progress", point=x_full)
        prev_point = x_full
    else:
        return _finish("budget-exhausted", state.incumbent,
                       state.U if np.isfinite(state.U) else None,
                       state, counts, trace, eq_events, t0, exit_branch="budget",
                       extras={"master_points": master_points})

    extras = {"master_points": master_points}
    if pinned:
        extras["terminal"] = extract_terminal_lp(last_master, last_problem)
    objective = work.objective_value(result_x)
    if reformulated:
        result_reported = result_x[: model.n]
        objective = model.objective_value(result_reported)
    else:
        result_reported = result_x
    return _finish("optimal", result_reported, objective, state, counts, trace,
                   eq_events, t0, exit_branch=exit_branch, extras=extras)


def _trace_row(trace, n, state, branch):
    trace.append({
        "n": int(n),
        "L": None if not np.isfinite(state.L) else float(state.L),
        "U": None if not np.isfinite(state.U) else float(state.U),
        "pool": len(state.pool),
        "branch": branch,
    })


def _finish(status, x, objective, state, counts, trace, eq_events, t0, exit_branch, extras):
    cert = SolveCertificate(
        status=status,
        x=None if x is None else np.asarray(x, dtype=float),
        objective=objective,
        bounds_history=list(state.history),
        cut_pool=[rec.to_dict() for rec in state.pool],
        iterations=state.n,
        branch_exits=[exit_branch],
        oracle_counts=dict(counts),
        wall_time=0.0,
        trace=list(trace),
        extras=extras,
    )
    cert.extras.setdefault("pool_records", list(state.pool))
    cert.extras["equivalence_events"] = list(eq_events)
    cert.wall_time = time.perf_counter() - t0
    return cert
