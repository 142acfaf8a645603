"""The decomposition loop: distributionally robust two-stage programs and
plain Benders decomposition.

The first stage picks binary x against the worst probability vector from a
polyhedral ambiguity subset of the simplex; each scenario's mixed-integer
convex recourse is solved by the parametric cutting-plane loop, its terminal
LP duals yield a per-scenario value-function cut, and the worst-case weights
aggregate those into the single cut added to the master each iteration.
Benders decomposition of a joint model (:func:`decompose_solve`) is the same
loop with one scenario under the singleton ambiguity set {1}.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .benders import BendersCut, benders_cut_from_terminal_lp, parametric_solve
from .certificate import SolveCertificate
from .errors import ModelError, NumericalFailure, RecourseError
from .micp import MicpOptions, micp_solve
from .model import LinearObjective, ModelInstance, VariableSpec, epigraph_bounds
from .simplex import LpProblem, _row_block, lp_solve

log = logging.getLogger(__name__)

DUAL_VALUE_TOL = 1e-6  # relative gap allowed between a scenario's dual value and its recourse


@dataclass
class AmbiguitySet:
    """Polyhedral subset of the probability simplex: rows A p <= b plus simplex.

    The rows follow ``simplex._row_block``."""

    n_scenarios: int
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        k = self.n_scenarios
        if k < 1:
            raise ModelError("need at least one scenario")
        self.A_ub, self.b_ub = _row_block(self.A_ub, self.b_ub, k, "ambiguity rows")
        self.worst_case(np.zeros(k))   # raises ModelError on an empty set

    @staticmethod
    def singleton(p):
        p = np.asarray(p, dtype=float).ravel()
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
            raise ModelError("singleton distribution must lie on the simplex")
        k = p.size
        A = np.vstack([np.eye(k), -np.eye(k)])
        b = np.concatenate([p, -p])
        return AmbiguitySet(k, A, b)

    def is_singleton(self):
        for j in range(self.n_scenarios):
            e = np.zeros(self.n_scenarios)
            e[j] = 1.0
            hi = self.worst_case(e)
            lo = self.worst_case(-e)
            if abs(hi[j] - lo[j]) > 1e-9:
                return False
        return True

    def worst_case(self, values):
        """argmax_{p in set} p.values, a deterministic vertex.

        Raises ModelError when the set is empty, and NumericalFailure when the
        LP fails, so a failed solve is never read as an empty set.
        """
        values = np.asarray(values, dtype=float).ravel()
        k = self.n_scenarios
        lpp = LpProblem.build(-values, self.A_ub, self.b_ub, np.ones((1, k)), np.ones(1),
                              np.zeros(k), np.ones(k))
        sol = lp_solve(lpp)
        if sol.status == "infeasible":
            raise ModelError("ambiguity set is empty")
        if sol.status != "optimal":
            raise NumericalFailure(f"ambiguity LP returned {sol.status}")
        return sol.x


def worst_case_distribution(values, ambiguity: AmbiguitySet):
    """Worst-case probability vector for the given recourse values."""
    return ambiguity.worst_case(values)


def aggregate_benders(p, scenario_cuts, iteration=0) -> BendersCut:
    """Probability-weighted aggregation of per-scenario value-function cuts."""
    p = np.asarray(p, dtype=float).ravel()
    if len(scenario_cuts) != p.size:
        raise ModelError("weight/cut count mismatch")
    a = np.zeros(scenario_cuts[0].a.size)
    b = 0.0
    for w, cut in zip(p, scenario_cuts):
        a += w * cut.a
        b += w * cut.b
    return BendersCut(a=a, b=b, provenance="aggregated", iteration=iteration)


@dataclass
class ScenarioDual:
    """Certified terminal-LP row duals of one scenario solve.

    For the terminal rows ``C x + D y <= F`` the duality identity
    ``-mu.(F - C x) + bound terms = recourse value`` is enforced at
    construction.  The scenario's Benders cut is built from the same duals.
    """

    mu: np.ndarray       # row duals, >= 0

    @staticmethod
    def from_terminal(w, terminal, recourse):
        C, F = terminal.blocks()
        lpp, sol = terminal.anchor
        rhs_at_anchor = F - C @ terminal.x_param
        dual_value = float(-(sol.dual_ub @ rhs_at_anchor)
                           + sol.dual_lb @ lpp.lb - sol.dual_ubound @ lpp.ub)
        if abs(dual_value - recourse) > DUAL_VALUE_TOL * (1.0 + abs(recourse)):
            raise NumericalFailure(
                f"scenario {w}: dual value {dual_value} disagrees with recourse {recourse}"
            )
        return ScenarioDual(mu=sol.dual_ub)


@dataclass
class Scenario:
    name: str
    q: np.ndarray
    y_vars: list
    constraints: list            # ConvexExpr over the joint (x, y) space

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        if self.q.size != len(self.y_vars):
            raise ModelError(f"scenario {self.name}: objective dimension mismatch")


@dataclass
class TwoStageInstance:
    c: np.ndarray
    x_names: list
    scenarios: list
    ambiguity: AmbiguitySet
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    first_convex: list = field(default_factory=list)   # over x alone

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        l1 = self.c.size
        if len(self.x_names) != l1:
            raise ModelError("first-stage name/coefficient mismatch")
        self.A_ub, self.b_ub = _row_block(self.A_ub, self.b_ub, l1, "first-stage rows")
        if len(self.scenarios) != self.ambiguity.n_scenarios:
            raise ModelError("scenario count does not match the ambiguity set")
        for g in self.first_convex:
            if g.dim != l1:
                raise ModelError("first-stage convex row dimension mismatch")
        for sc in self.scenarios:
            for g in sc.constraints:
                if g.dim != l1 + len(sc.y_vars):
                    raise ModelError(f"scenario {sc.name}: constraint dimension mismatch")

    @property
    def l1(self):
        return self.c.size

    def scenario_model(self, w) -> ModelInstance:
        """Joint model for scenario w with the x block as parameters."""
        sc = self.scenarios[w]
        variables = [VariableSpec(nm, "binary", 0.0, 1.0) for nm in self.x_names] + list(sc.y_vars)
        c = np.concatenate([np.zeros(self.l1), sc.q])
        return ModelInstance(
            variables=variables,
            objective=LinearObjective(c),
            convex=list(sc.constraints),
            param_block=list(range(self.l1)),
        )

    def first_stage(self) -> ModelInstance:
        """The first stage over x alone: cost c, linear rows and convex rows."""
        return ModelInstance(
            variables=[VariableSpec(nm, "binary", 0.0, 1.0) for nm in self.x_names],
            objective=LinearObjective(self.c),
            A_ub=self.A_ub, b_ub=self.b_ub, convex=list(self.first_convex),
        )


@dataclass
class DrOptions:
    tol: float = 1e-6
    max_iter: int = 500
    milp_mode: str = "bb"            # the first-stage master's MILP mode: bb | cp
    # scenario solves pin the parameter block, so their masters are always cp
    # whatever scenario_opts.milp_mode says
    scenario_opts: MicpOptions = field(default_factory=MicpOptions)


def _param_cost(model: ModelInstance):
    """``(a, b)``: the objective's parameter-block cost ``a.x + b``.

    The terminal LP prices the decision block only, so scenario cuts fold
    this back in.  It is zero for a convex objective, whose epigraph variable
    already carries all of it, and for the scenario models of a two-stage
    instance.
    """
    if not model.has_linear_objective():
        return np.zeros(len(model.param_block)), 0.0
    return model.objective.c[model.param_block], model.objective.const


def _eta_bounds(models):
    """Box for the master's value variable: the range of every scenario
    objective over its variable box, padded."""
    lo, hi = np.inf, -np.inf
    for model in models:
        if model.has_linear_objective():
            c, lb, ub = model.objective.c, model.lb, model.ub
            params = set(model.param_block)
            decisions = [i for i in range(model.n) if i not in params]
            lo_m = hi_m = model.objective.const
            # decision block first, then the folded parameter-block cost
            for block in (decisions, list(model.param_block)):
                lo_m += float(np.minimum(c[block] * lb[block], c[block] * ub[block]).sum())
                hi_m += float(np.maximum(c[block] * lb[block], c[block] * ub[block]).sum())
        else:
            lo_m, hi_m = epigraph_bounds(model.objective, model.lb, model.ub)
        lo, hi = min(lo, lo_m), max(hi, hi_m)
    pad = 1.0 + 0.01 * (hi - lo)
    return lo - pad, hi + pad


def _solve_scenario(model, w, x_m, opts, pool):
    """Scenario ``w`` at first-stage point ``x_m``, its cut pool seeded with
    ``pool``: certificate, cut, duals."""
    cert = parametric_solve(model, {i: float(v) for i, v in zip(model.param_block, x_m)},
                            opts.scenario_opts, pool)
    terminal = cert.extras["terminal"]
    a, b = _param_cost(model)
    fold = float(a @ x_m) + b
    value = terminal.anchor[1].obj + fold
    if abs(value - cert.objective) > 1e-6 * (1.0 + abs(cert.objective)):
        raise NumericalFailure(
            f"scenario {w}: terminal LP value {value} disagrees with recourse {cert.objective}"
        )
    dual = ScenarioDual.from_terminal(w, terminal, cert.objective - fold)
    cut = benders_cut_from_terminal_lp(terminal)
    return cert, BendersCut(a=cut.a + a, b=cut.b + b), dual


_EXIT_STATUS = {"bounds": "optimal", "revisit": "optimal",
                "master-infeasible": "infeasible", "budget": "budget-exhausted"}


def _decompose(first: ModelInstance, models: list, ambiguity: AmbiguitySet,
               opts: DrOptions) -> SolveCertificate:
    """The decomposition loop behind :func:`dr_solve` and :func:`decompose_solve`.

    ``first`` is the first stage over x alone (cost, linear rows of both
    kinds and convex rows);
    ``models`` holds one joint scenario model per scenario, each with x as its
    parameter block.  Each iteration solves the master over (x, eta), solves
    every scenario at the master's x, and adds the worst-case aggregation of
    the scenario cuts.  A repeated x ends the loop without a scenario solve:
    its trace row is the visited point's row again, with this iteration's
    ``m``, ``x``, bounds and aggregated-cut iteration.
    Each scenario solve starts from the cut pool of that scenario's previous
    solve, whose joint-space cuts hold at every x.  The loop stops on bound
    closure (``bounds``), a repeated x (``revisit``), an infeasible master
    (``master-infeasible``) or the iteration budget (``budget``).
    """
    t0 = time.perf_counter()
    l1 = first.n
    eta_lb, eta_ub = _eta_bounds(models)
    variables = list(first.variables) + [VariableSpec("_eta", "continuous", eta_lb, eta_ub)]
    objective = LinearObjective(np.concatenate([first.objective.c, [1.0]]))
    base_A = np.hstack([first.A_ub, np.zeros((first.b_ub.size, 1))])
    A_eq = np.hstack([first.A_eq, np.zeros((first.b_eq.size, 1))])
    convex = [g.embed(l1 + 1, list(range(l1))) for g in first.convex]

    benders_rows: list[BendersCut] = []
    L, U = -np.inf, np.inf
    incumbent = None
    incumbent_points = None
    exit_branch = "budget"
    pool_dump = []
    trace = []
    visited = {}   # first-stage point -> index of its trace row
    pools = [[] for _ in models]   # each scenario's cut pool after its last solve
    counts = {"scenario_solves": 0, "scenario_cache_hits": 0, "carried_cuts": 0}

    for m_it in range(1, opts.max_iter + 1):
        master = ModelInstance(
            variables=variables, objective=objective,
            A_ub=np.vstack([base_A, *(np.append(cut.a, -1.0) for cut in benders_rows)]),
            b_ub=np.concatenate([first.b_ub, [-cut.b for cut in benders_rows]]),
            A_eq=A_eq, b_eq=first.b_eq, convex=convex,
        )
        mcert = micp_solve(master, MicpOptions(milp_mode=opts.milp_mode))
        if mcert.status == "infeasible":
            exit_branch = "master-infeasible"
            break
        if mcert.status != "optimal":
            raise NumericalFailure(f"first-stage master returned {mcert.status}")
        x_m = np.round(mcert.x[:l1])
        L = mcert.objective
        key = tuple(int(v) for v in x_m)
        if key in visited:
            # master re-proposed a visited binary point: bounds are closed
            row = trace[visited[key]]
            trace.append(dict(row, m=m_it, x=[float(v) for v in x_m], L=float(L), U=float(U),
                              aggregated=dict(row["aggregated"], iteration=m_it)))
            counts["scenario_cache_hits"] += len(models)
            exit_branch = "revisit"
            break
        try:
            results = [_solve_scenario(model, w, x_m, opts, pools[w])
                       for w, model in enumerate(models)]
        except RecourseError as exc:
            raise RecourseError(f"at first-stage point {key}: {exc}") from exc
        certs, scen_cuts, scen_duals = zip(*results)
        counts["scenario_solves"] += len(certs)
        for w, cert in enumerate(certs):
            pool_dump.extend(dict(d, scenario=w) for d in cert.cut_pool)
            pools[w] = cert.extras["pool_records"]
            counts["carried_cuts"] += cert.extras["carried_cuts"]
        q_vals = np.array([cert.objective for cert in certs])
        p_m = worst_case_distribution(q_vals, ambiguity)
        agg = aggregate_benders(p_m, scen_cuts, iteration=m_it)
        cand = float(first.objective.c @ x_m) + float(p_m @ q_vals)
        if cand < U - 1e-12:
            U = cand
            incumbent = x_m
            incumbent_points = [cert.x for cert in certs]
        benders_rows.append(agg)
        visited[key] = len(trace)
        trace.append({
            "m": m_it, "x": [float(v) for v in x_m], "p": [float(v) for v in p_m],
            "recourse": [float(v) for v in q_vals],
            "scenario_cuts": [c.to_dict() for c in scen_cuts],
            "scenario_duals": [list(map(float, d.mu)) for d in scen_duals],
            "aggregated": agg.to_dict(), "L": float(L), "U": float(U),
        })
        if U - L <= opts.tol * (1.0 + abs(U)):
            exit_branch = "bounds"
            break

    cert = SolveCertificate(
        status=_EXIT_STATUS[exit_branch],
        x=incumbent,
        objective=U if np.isfinite(U) else None,
        cut_pool=pool_dump
        + [dict(c, kind="benders") for it in trace for c in it["scenario_cuts"]]
        + [dict(it["aggregated"], kind="aggregated") for it in trace],
        iterations=len(trace),
        branch_exits=[exit_branch],
        oracle_counts=counts,
        trace=trace,
        extras={"scenario_points": incumbent_points},
    )
    cert.wall_time = time.perf_counter() - t0
    return cert


def dr_solve(instance: TwoStageInstance, opts: DrOptions | None = None) -> SolveCertificate:
    """Decomposition loop for the distributionally robust two-stage program."""
    models = [instance.scenario_model(w) for w in range(len(instance.scenarios))]
    return _decompose(instance.first_stage(), models, instance.ambiguity, opts or DrOptions())


def decompose_solve(model: ModelInstance, opts: DrOptions | None = None) -> SolveCertificate:
    """Benders decomposition of a joint model over its binary parameter block.

    This is the DR loop with one scenario, the model itself, under the
    singleton ambiguity set {1}.  The master has zero cost on the parameter
    block and keeps every row that touches that block alone: linear rows of
    both kinds and convex rows, restricted to the block.  The certificate
    reports the model's full point at the incumbent.
    """
    if model.param_block is None:
        raise ModelError("decomposition needs a model with a parameter block")
    params = list(model.param_block)
    others = np.ones(model.n, dtype=bool)
    others[params] = False
    own_ub = ~np.any(model.A_ub[:, others] != 0.0, axis=1)
    own_eq = ~np.any(model.A_eq[:, others] != 0.0, axis=1)
    decisions = list(np.flatnonzero(others))
    zeros = np.zeros(len(decisions))
    first = ModelInstance(
        variables=[model.variables[i] for i in params],
        objective=LinearObjective(np.zeros(len(params))),
        A_ub=model.A_ub[own_ub][:, params], b_ub=model.b_ub[own_ub],
        A_eq=model.A_eq[own_eq][:, params], b_eq=model.b_eq[own_eq],
        convex=[g.restrict(params, decisions, zeros) for g in model.convex
                if not np.any(g.touched()[others])],
    )
    cert = _decompose(first, [model], AmbiguitySet.singleton([1.0]), opts or DrOptions())
    points = cert.extras["scenario_points"]
    cert.x = None if points is None else points[0]
    return cert
