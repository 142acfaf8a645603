"""Finitely convergent cutting-plane loop for mixed-integer convex programs.

Each iteration solves a mixed-integer linear master built from the linear
rows plus all pooled cuts, tests membership of the master point in the convex
set, separates it through a Euclidean projection when outside, and polishes
the continuous part with the integer block pinned.  Boundary polishes emit
supporting subgradient cuts and are cross-checked against their own linear
reduction each time.

Both convex oracles work in the model's full space with the parameter block
pinned, and every cut they give is a full-space row ``a.x <= b`` that
``_Split.row`` splits into its parameter and decision parts, the rule the
master's linear rows follow too.  With a parameter block (binary coordinates
pinned for the whole solve) the cuts therefore live in the joint space, so
the terminal relaxation stays valid for all parameter values: a supporting
row is a full-space subgradient, and the separation row's parameter part is
minus the projection's pin multipliers, the fixing-constraint multipliers of
generalized Benders decomposition (Geoffrion, *JOTA* 10, 1972).  The masters
are then cutting-plane solves and the final one's terminal LP is the one the
decomposition layers consume.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import (
    ConvexProgram,
    convex_solve,
    lp_equivalence_check,
    project,
    supporting_inequalities,
)
from .certificate import SolveCertificate
from .errors import ModelError, NumericalFailure
from .milp import CutRecord, MilpProblem, MilpRow, _duplicate, _unit, milp_solve
from .model import ModelInstance, check_assumptions, epigraph_reformulate

log = logging.getLogger(__name__)

MEMBERSHIP_TOL = 1e-6  # a master point with every convex row <= this is inside


@dataclass
class MicpOptions:
    tol: float = 1e-6
    max_iter: int = 500
    milp_mode: str = "bb"            # bb | cp; a pinned parameter block forces cp


class _Split:
    """Column split between the pinned parameter block and master decisions."""

    def __init__(self, model: ModelInstance, param_value):
        self.params, self.x_param = [], np.zeros(0)
        if param_value is not None:
            if model.param_block is None:
                raise ModelError("parameter values supplied but the model has no parameter block")
            self.params = list(model.param_block)
            binary = all(v in (0, 1) for v in param_value.values())
            if set(param_value) != set(self.params) or not binary:
                raise ModelError(f"parameter values {param_value} must map exactly the "
                                 f"parameter block {self.params} to 0 or 1")
            self.x_param = np.array([param_value[i] for i in self.params], dtype=float)
        params = set(self.params)
        self.decisions = [i for i in range(model.n) if i not in params]
        self.model = model

    @property
    def l1(self):
        return len(self.params)

    @property
    def pins(self):
        """The parameter block pinned at its value, as ``ConvexProgram.pins``."""
        return dict(zip(self.params, self.x_param))

    def row(self, a, rhs):
        """The full-space row ``a.x <= rhs`` as a ``MilpRow``, split into its blocks."""
        return MilpRow(cx=a[self.params], cy=a[self.decisions], rhs=rhs)

    def assemble(self, y):
        x = np.empty(self.model.n)
        x[self.decisions] = y
        if self.params:
            x[self.params] = self.x_param
        return x


def build_master(model: ModelInstance, split: _Split, pool: list) -> MilpProblem:
    """Master MILP: base linear rows plus every pooled cut (``CutRecord``), no convex rows."""
    dec = split.decisions
    rows = [split.row(a, r) for a, r in zip(model.A_ub, model.b_ub)]
    for a, r in zip(model.A_eq, model.b_eq):
        rows += [split.row(a, r), split.row(-a, -r)]
    integer = np.array([model.variables[i].is_integer for i in dec])
    lb = model.lb[dec]
    ub = model.ub[dec]
    c = model.objective.c[dec]
    rows += [rec.row for rec in pool]
    return MilpProblem(c=c, rows=rows, integer=integer, lb=lb, ub=ub,
                       l1=split.l1, x_param=split.x_param)


def _add_cut(pool, units, record: CutRecord):
    """Pool a cut, and its unit row in ``units``, unless it is all zeros or
    duplicates a pooled row (the ``milp._duplicate`` test).

    Duplicates do occur: a boundary polish that lands on the projection
    point returns a supporting cut equal, up to scale, to that iteration's
    separation cut.  Each suppressed duplicate is logged."""
    u = _unit(record.row)
    if u is None:
        return
    if _duplicate(u, units):
        log.warning("duplicate %s cut at iteration %d suppressed",
                    record.provenance, record.iteration)
        return
    pool.append(record)
    units.append(u)


@dataclass
class PolishOutcome:
    case: str                      # infeasible | interior | boundary
    value: float | None = None
    point: np.ndarray | None = None
    cuts: list = field(default_factory=list)   # joint MilpRow
    equivalence_ok: bool | None = None


def polish_step(model: ModelInstance, split: _Split, x_n) -> PolishOutcome:
    """Re-solve the continuous problem with the integer block pinned at x_n.

    Returns the branch taken; boundary polishes carry the supporting cuts in
    joint form plus the result of the linear-reduction cross-check.
    """
    pins = split.pins
    for i in split.decisions:
        if model.variables[i].is_integer:
            pins[i] = float(np.round(x_n[i]))
    prog = ConvexProgram(
        n=model.n, c=model.objective.c, A_ub=model.A_ub, b_ub=model.b_ub,
        A_eq=model.A_eq, b_eq=model.b_eq,
        convex=list(model.convex), pins=pins, lb=model.lb, ub=model.ub,
    )
    cert = convex_solve(prog)
    if cert.status == "infeasible":
        return PolishOutcome(case="infeasible")
    if cert.status != "optimal":
        raise NumericalFailure("polish solve failed", point=cert.x)
    value = cert.value + model.objective.const
    if not any(cert.active_convex):
        return PolishOutcome(case="interior", value=value, point=cert.x)

    A, b = supporting_inequalities(model.convex, cert.x)
    return PolishOutcome(case="boundary", value=value, point=cert.x,
                         cuts=[split.row(a, r) for a, r in zip(A, b)],
                         equivalence_ok=lp_equivalence_check(prog, A, b, cert.value))


def micp_solve(model: ModelInstance, opts: MicpOptions | None = None,
               param_value: dict | None = None, pool: list | None = None) -> SolveCertificate:
    """Cutting-plane solve of a mixed-integer convex program.

    ``param_value`` pins the model's binary parameter block for the whole
    solve (the decomposition layers' subproblem form); it maps each block
    index, and no other, to 0 or 1, or ``ModelError`` is raised.  Cuts are then lifted
    to the joint space, every master is a cutting-plane solve whatever
    ``opts.milp_mode`` says, and an optimal result carries the terminal LP in
    ``extras["terminal"]``.  A pinned block needs every convex row of the
    model, and a convex objective, to be smooth or separable across the
    split: :func:`model.check_assumptions` raises ``AssumptionViolation``
    otherwise, before any master or convex solve.

    ``pool`` seeds the cut pool with ``CutRecord``s valid for this model,
    such as ``extras["pool_records"]`` of an earlier solve of it at another
    parameter value (joint-space cuts hold at every parameter).  They are
    deduplicated like any cut and keep their provenance; the certificate's
    ``cut_pool`` lists only the cuts this solve added, and
    ``extras["carried_cuts"]`` counts the seeded ones it kept.
    """
    opts = opts or MicpOptions()
    t0 = time.perf_counter()
    pinned = param_value is not None
    if pinned:
        check_assumptions(model)
    work = model if model.has_linear_objective() else epigraph_reformulate(model)

    split = _Split(work, param_value)
    milp_mode = "cp" if (pinned or opts.milp_mode == "cp") else "bb"

    records, units = [], []        # the cut pool (CutRecord, joint space) and its unit rows
    for rec in pool or ():
        _add_cut(records, units, rec)
    carried = len(records)         # leading records seeded by the caller
    L, U, incumbent = -np.inf, np.inf, None
    trace, eq_events, master_points = [], [], []
    counts = {"convex": 0, "projections": 0}
    status, branch = "budget-exhausted", "budget"
    n = 0

    for n in range(1, opts.max_iter + 1):
        res = milp_solve(build_master(work, split, records), milp_mode)
        if res.status == "infeasible":
            status, branch = "infeasible", "master-infeasible"
            break
        if res.status != "optimal":
            raise NumericalFailure(f"master solve returned {res.status}")
        for rec in res.cuts:   # gomory, disjunctive-cglp and no-good cuts of this master
            _add_cut(records, units, replace(rec, iteration=n))
        y_hat = res.y
        x_full = split.assemble(y_hat)
        master_points.append(x_full.copy())
        # raw master value plus the pinned parameter-block cost, so L and U
        # live in the same space; monotonicity is a tested property
        param_cost = float(work.objective.c[split.params] @ split.x_param) if split.l1 else 0.0
        L = res.obj + work.objective.const + param_cost

        if all(g.value(x_full) <= MEMBERSHIP_TOL for g in work.convex):
            case, point, value = "membership", x_full, L
            if _breaks_a_row(work, x_full):
                # the master point is integral only within INT_TOL and breaks a
                # linear row: report the polish at its integer block instead
                outcome = polish_step(work, split, x_full)
                counts["convex"] += 1
                if outcome.case != "infeasible":
                    point, value = outcome.point, outcome.value
            if value <= U:
                U, incumbent = value, point
        else:
            counts["projections"] += 1
            z, _, pcert = project(x_full, work.convex, lb=work.lb, ub=work.ub, pins=split.pins)
            if z is None:
                # the convex set is empty at this parameter value
                status, branch = "infeasible", "convex-set-empty"
                break
            # the projection normal is a nonnegative combination of active row
            # subgradients and decision-box normals; on the pinned block the
            # pin multipliers balance it, so -mult_pins is the cut's parameter part
            a = x_full - z
            a[split.params] = [-pcert.mult_pins[i] for i in split.params]
            sep = split.row(a, a @ z)
            if sep.cy @ y_hat - sep.at_param(split.x_param) > 1e-10:
                _add_cut(records, units, CutRecord(row=sep, provenance="separation", iteration=n))
            else:
                log.warning("separation cut not violated at iteration %d; dropped", n)

            outcome = polish_step(work, split, x_full)
            counts["convex"] += 1
            case = outcome.case
            if case == "boundary":
                for row in outcome.cuts:
                    _add_cut(records, units, CutRecord(row=row, provenance="supporting", iteration=n))
                eq_events.append(bool(outcome.equivalence_ok))
            if case != "infeasible" and outcome.value < U - 1e-12:
                U, incumbent = outcome.value, outcome.point
        trace.append({"n": n, "L": float(L) if np.isfinite(L) else None,
                      "U": float(U) if np.isfinite(U) else None,
                      "pool": len(records), "branch": case})

        if case == "membership":
            status, branch = "optimal", "membership"
            break
        if np.isfinite(U) and U - L <= opts.tol * (1.0 + abs(U)):
            status, branch = "optimal", "bounds"
            break
        if n > 1 and np.allclose(master_points[-2], x_full, atol=1e-12):
            raise NumericalFailure("master point repeated without progress", point=x_full)

    x = objective = None
    extras = {"master_points": master_points, "pool_records": records,
              "carried_cuts": carried, "equivalence_events": eq_events}
    if incumbent is not None and status in ("optimal", "budget-exhausted"):
        x = incumbent[: model.n]   # without the epigraph coordinate, if any
        objective = model.objective_value(x)
    if status == "optimal" and pinned:
        extras["terminal"] = res.terminal
    return SolveCertificate(
        status=status,
        x=None if x is None else np.asarray(x, dtype=float),
        objective=objective,
        cut_pool=[rec.to_dict() for rec in records[carried:]],
        iterations=n,
        branch_exits=[branch],
        oracle_counts=counts,
        wall_time=time.perf_counter() - t0,
        trace=trace,
        extras=extras,
    )


def _breaks_a_row(model, x):
    """Whether x breaks a linear row of the model by more than 1e-9*(1 + |rhs|)."""
    over = np.concatenate([model.A_ub @ x - model.b_ub, np.abs(model.A_eq @ x - model.b_eq)])
    return bool(np.any(over > 1e-9 * (1.0 + np.abs(np.concatenate([model.b_ub, model.b_eq])))))
