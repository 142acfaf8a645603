"""Distributionally robust two-stage solver with aggregated Benders cuts.

The first stage picks binary x against the worst probability vector from a
polyhedral ambiguity subset of the simplex; each scenario's mixed-integer
convex recourse is solved by the parametric cutting-plane loop, its terminal
LP duals yield a per-scenario value-function cut, and the worst-case weights
aggregate those into the single cut added to the master each iteration.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .benders import BendersCut, benders_cut_from_terminal_lp, parametric_solve
from .certificate import SolveCertificate
from .errors import ModelError, NumericalFailure, RecourseError
from .expr import ConvexExpr
from .micp import MicpOptions, micp_solve
from .model import LinearObjective, ModelInstance, VariableSpec
from .simplex import LpProblem, lp_solve

log = logging.getLogger(__name__)


@dataclass
class AmbiguitySet:
    """Polyhedral subset of the probability simplex: rows A p <= b plus simplex."""

    n_scenarios: int
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        k = self.n_scenarios
        if k < 1:
            raise ModelError("need at least one scenario")
        if self.A_ub is None or not np.size(self.A_ub):
            self.A_ub = np.zeros((0, k))
            self.b_ub = np.zeros(0)
        else:
            self.A_ub = np.atleast_2d(np.asarray(self.A_ub, dtype=float))
            self.b_ub = np.asarray(self.b_ub, dtype=float).ravel()
        if self.A_ub.shape != (self.b_ub.size, k):
            raise ModelError("ambiguity rows inconsistent")
        if self.worst_case(np.zeros(k)) is None:
            raise ModelError("ambiguity set is empty")

    @staticmethod
    def singleton(p):
        p = np.asarray(p, dtype=float).ravel()
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
            raise ModelError("singleton distribution must lie on the simplex")
        k = p.size
        A = np.vstack([np.eye(k), -np.eye(k)])
        b = np.concatenate([p, -p])
        return AmbiguitySet(k, A, b)

    def is_singleton(self, tol=1e-9):
        lofty = self.worst_case(np.ones(self.n_scenarios))
        low = self.worst_case(-np.ones(self.n_scenarios))
        if lofty is None or low is None:
            return False
        for j in range(self.n_scenarios):
            e = np.zeros(self.n_scenarios)
            e[j] = 1.0
            hi = self.worst_case(e)
            lo = self.worst_case(-e)
            if hi is None or lo is None or abs(hi[j] - lo[j]) > tol:
                return False
        return True

    def worst_case(self, values):
        """argmax_{p in set} p.values, a deterministic vertex, or None if empty."""
        values = np.asarray(values, dtype=float).ravel()
        k = self.n_scenarios
        lpp = LpProblem.build(
            -values, self.A_ub if self.A_ub.size else None,
            self.b_ub if self.b_ub.size else None,
            np.ones((1, k)), np.ones(1), np.zeros(k), np.ones(k),
        )
        sol = lp_solve(lpp)
        if sol.status != "optimal":
            return None
        return sol.x


def worst_case_distribution(values, ambiguity: AmbiguitySet):
    """Worst-case probability vector for the given recourse values."""
    p = ambiguity.worst_case(values)
    if p is None:
        raise ModelError("ambiguity set is empty")
    return p


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
    """Terminal-LP blocks and certified duals of one scenario solve.

    Rows are kept in decision >= form (Q y >= s - R x); the duality identity
    mu.(s - R x) + bound terms = recourse value is enforced at construction.
    """

    scenario: int
    Q: np.ndarray        # decision coefficients, >= form
    R: np.ndarray        # parameter coefficients, >= form
    s: np.ndarray        # right sides, >= form
    mu: np.ndarray       # row duals, >= 0
    recourse: float

    @staticmethod
    def from_terminal(w, terminal, recourse, tol=1e-6):
        from .simplex import lp_solve as _lp
        C, D, F = terminal.blocks()
        sol = _lp(terminal.lp_at(terminal.x_param))
        rhs_at_anchor = F - (C @ terminal.x_param if C.size else 0.0)
        dual_value = float(-(sol.dual_ub @ rhs_at_anchor)
                           + sol.dual_lb @ terminal.lb - sol.dual_ubound @ terminal.ub)
        if abs(dual_value - recourse) > tol * (1.0 + abs(recourse)):
            raise NumericalFailure(
                f"scenario {w}: dual value {dual_value} disagrees with recourse {recourse}"
            )
        # <=-form C x + D y <= F becomes Q y >= s - R x with Q=-D, s=-F, R=-C
        return ScenarioDual(scenario=w, Q=-D, R=-C, s=-F, mu=sol.dual_ub, recourse=recourse)


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
        if self.A_ub is None or not np.size(self.A_ub):
            self.A_ub = np.zeros((0, l1))
            self.b_ub = np.zeros(0)
        else:
            self.A_ub = np.atleast_2d(np.asarray(self.A_ub, dtype=float))
            self.b_ub = np.asarray(self.b_ub, dtype=float).ravel()
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

    def first_stage_feasible(self, x, tol=1e-6):
        x = np.asarray(x, dtype=float)
        if self.A_ub.size and np.any(self.A_ub @ x > self.b_ub + tol):
            return False
        return all(g.value(x) <= tol for g in self.first_convex)


@dataclass
class DrOptions:
    tol: float = 1e-6
    max_iter: int = 500
    threads: int = 1
    master_opts: MicpOptions = field(default_factory=MicpOptions)
    scenario_opts: MicpOptions = field(default_factory=lambda: MicpOptions(want_terminal=True))
    trace: list | None = None


def _eta_bounds(instance: TwoStageInstance):
    lo, hi = np.inf, -np.inf
    for sc in instance.scenarios:
        lbs = np.array([v.lb for v in sc.y_vars])
        ubs = np.array([v.ub for v in sc.y_vars])
        lo = min(lo, float(np.minimum(sc.q * lbs, sc.q * ubs).sum()))
        hi = max(hi, float(np.maximum(sc.q * lbs, sc.q * ubs).sum()))
    pad = 1.0 + 0.01 * (hi - lo)
    return lo - pad, hi + pad


def _solve_scenario(instance, w, x_m, opts):
    model = instance.scenario_model(w)
    pv = {i: float(x_m[i]) for i in range(instance.l1)}
    sopts = MicpOptions(**{**opts.scenario_opts.__dict__})
    sopts.want_terminal = True
    sopts.trace = None
    cert = parametric_solve(model, pv, sopts)
    terminal = cert.extras["terminal"]
    if abs(terminal.obj - cert.objective) > 1e-6 * (1.0 + abs(cert.objective)):
        raise NumericalFailure(
            f"terminal LP value {terminal.obj} disagrees with recourse {cert.objective}"
        )
    dual = ScenarioDual.from_terminal(w, terminal, cert.objective)
    cut = benders_cut_from_terminal_lp(terminal)
    return cert, cut, dual


def dr_solve(instance: TwoStageInstance, opts: DrOptions | None = None) -> SolveCertificate:
    """Decomposition loop for the distributionally robust two-stage program."""
    opts = opts or DrOptions()
    t0 = time.perf_counter()
    l1 = instance.l1
    eta_lb, eta_ub = _eta_bounds(instance)

    benders_rows: list[BendersCut] = []
    L, U = -np.inf, np.inf
    incumbent = None
    bounds_hist = []
    trace = opts.trace if opts.trace is not None else []
    seen = set()
    status = "budget-exhausted"
    pool_dump = []
    per_iter = []

    for m_it in range(1, opts.max_iter + 1):
        variables = [VariableSpec(nm, "binary", 0.0, 1.0) for nm in instance.x_names]
        variables.append(VariableSpec("_eta", "continuous", eta_lb, eta_ub))
        A = [np.hstack([instance.A_ub, np.zeros((instance.A_ub.shape[0], 1))])] if instance.A_ub.size else []
        b = [instance.b_ub] if instance.A_ub.size else []
        for cut in benders_rows:
            A.append(np.concatenate([cut.a, [-1.0]])[None, :])
            b.append(np.array([-cut.b]))
        master = ModelInstance(
            variables=variables,
            objective=LinearObjective(np.concatenate([instance.c, [1.0]])),
            A_ub=np.vstack(A) if A else None,
            b_ub=np.concatenate(b) if b else None,
            convex=[g.embed(l1 + 1, list(range(l1))) for g in instance.first_convex],
        )
        mopts = MicpOptions(**{**opts.master_opts.__dict__})
        mopts.trace = None
        mcert = micp_solve(master, mopts)
        if mcert.status == "infeasible":
            status = "infeasible"
            break
        if mcert.status != "optimal":
            raise NumericalFailure(f"first-stage master returned {mcert.status}")
        x_m = np.round(mcert.x[:l1])
        L = mcert.objective
        key = tuple(int(v) for v in x_m)

        try:
            if opts.threads > 1 and len(instance.scenarios) > 1:
                with ThreadPoolExecutor(max_workers=opts.threads) as pool:
                    results = list(pool.map(
                        lambda w: _solve_scenario(instance, w, x_m, opts),
                        range(len(instance.scenarios)),
                    ))
            else:
                results = [_solve_scenario(instance, w, x_m, opts)
                           for w in range(len(instance.scenarios))]
        except RecourseError as exc:
            raise RecourseError(f"at first-stage point {key}: {exc}") from exc

        q_vals = np.array([cert.objective for cert, _, _ in results])
        scen_cuts = [cut for _, cut, _ in results]
        scen_duals = [dual for _, _, dual in results]
        for w, (cert, _, _) in enumerate(results):
            pool_dump.extend(dict(d, scenario=w) for d in cert.cut_pool)
        p_m = worst_case_distribution(q_vals, instance.ambiguity)
        agg = aggregate_benders(p_m, scen_cuts, iteration=m_it)
        cand = float(instance.c @ x_m) + float(p_m @ q_vals)
        if cand < U - 1e-12:
            U = cand
            incumbent = x_m
        benders_rows.append(agg)
        bounds_hist.append((m_it, L, U))
        per_iter.append({
            "m": m_it, "x": [float(v) for v in x_m], "p": [float(v) for v in p_m],
            "recourse": [float(v) for v in q_vals],
            "scenario_cuts": [c.to_dict() for c in scen_cuts],
            "scenario_duals": [list(map(float, d.mu)) for d in scen_duals],
            "aggregated": agg.to_dict(), "L": float(L), "U": float(U),
        })
        trace.append(per_iter[-1])
        if U - L <= opts.tol * (1.0 + abs(U)):
            status = "optimal"
            break
        if key in seen:
            # master re-proposed a visited binary point: bounds are closed
            status = "optimal"
            break
        seen.add(key)

    cert = SolveCertificate(
        status=status,
        x=incumbent,
        objective=U if np.isfinite(U) else None,
        bounds_history=bounds_hist,
        cut_pool=pool_dump
        + [dict(c, kind="benders") for it in per_iter for c in it["scenario_cuts"]]
        + [dict(it["aggregated"], kind="aggregated") for it in per_iter],
        iterations=len(bounds_hist),
        branch_exits=["dr"],
        oracle_counts={"outer": len(bounds_hist)},
        trace=list(trace),
        extras={"iterations": per_iter, "benders_cuts": benders_rows},
    )
    cert.wall_time = time.perf_counter() - t0
    return cert
