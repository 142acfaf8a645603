import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from first_stage import full_first_stage
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micpkit import bruteforce
from micpkit.barrier import ConvexProgram, convex_solve
from micpkit.bruteforce import brute_force, brute_force_two_stage, extensive_form, scenario_recourse
from micpkit.errors import ModelError
from micpkit.expr import Affine, SquaredNorm, WeightedSum
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions, micp_solve
from micpkit.model import FEAS_TOL, LinearObjective, ModelInstance, VariableSpec, epigraph_reformulate
from micpkit.section6 import build_instance
from micpkit.twostage import AmbiguitySet, DrOptions, Scenario, TwoStageInstance, dr_solve


def test_walkthrough_value():
    ref = brute_force_two_stage(build_instance(y_upper=6))
    assert ref.status == "optimal"
    assert ref.value == pytest.approx(1.75, abs=1e-9)
    assert tuple(ref.table[(1, 0)]["recourse"]) == pytest.approx((0.5, 1.0), abs=1e-9)


def test_no_integer_variables_single_solve():
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine([0, 0], -1.0)])
    m = ModelInstance(
        variables=[VariableSpec("u", "continuous", -2, 2), VariableSpec("v", "continuous", -2, 2)],
        objective=LinearObjective([1.0, 0.0]),
        convex=[disk],
    )
    ref = brute_force(m)
    assert ref.enumerated == 1
    assert ref.value == pytest.approx(-1.0, abs=1e-7)


def test_fixed_continuous_variable_agrees_with_solver():
    # a continuous variable fixed by its bounds (v in [0.5, 0.5]) leaves
    # min u on the unit disk at -sqrt(0.75), for the oracle and the solver alike
    disk = WeightedSum([SquaredNorm(np.eye(3)[:2]), Affine([0, 0, 0], -1.0)])
    m = ModelInstance(
        variables=[VariableSpec("u", "continuous", -2, 2), VariableSpec("v", "continuous", 0.5, 0.5),
                   VariableSpec("k", "integer", 0, 2)],
        objective=LinearObjective([1.0, 0.0, 0.0]),
        convex=[disk],
    )
    ref = brute_force(m)
    assert ref.status == "optimal"
    assert ref.value == pytest.approx(-np.sqrt(0.75), abs=1e-7)
    cert = micp_solve(m, MicpOptions())
    assert cert.status == "optimal"
    assert cert.objective == pytest.approx(-np.sqrt(0.75), abs=1e-7)


def test_point_with_a_single_continuous_completion_is_kept():
    # at y = 1 the row y - x <= 0 and the box leave only x = 1: a feasible
    # set without interior, which the oracle must not drop
    m = ModelInstance(
        variables=[VariableSpec("x", "continuous", 0, 1), VariableSpec("y", "binary", 0, 1)],
        objective=LinearObjective([-1.0, -1.0]),
        A_ub=[[-1.0, 1.0]], b_ub=[0.0],
    )
    ref = brute_force(m)
    assert ref.status == "optimal"
    assert ref.value == pytest.approx(-2.0, abs=1e-9)
    assert len(ref.argmins) == 1 and ref.argmins[0] == pytest.approx([1.0, 1.0])
    cert = micp_solve(m, MicpOptions())
    assert cert.objective == pytest.approx(-2.0, abs=1e-9)


def test_infeasible_patterns_excluded():
    g = WeightedSum([SquaredNorm(np.eye(1)), Affine([0.0], -0.25)])  # |x| <= 0.5
    m = ModelInstance(
        variables=[VariableSpec("x", "integer", -2, 2)],
        objective=LinearObjective([-1.0]),
        convex=[g],
    )
    ref = brute_force(m)
    assert ref.status == "optimal"
    assert ref.value == pytest.approx(0.0)
    assert all(abs(p[0]) <= 0.5 for p, _ in ref.feasible_points)


def test_lattice_cap_refused():
    m = ModelInstance(
        variables=[VariableSpec(f"i{k}", "integer", 0, 63) for k in range(5)],
        objective=LinearObjective(np.ones(5)),
    )
    with pytest.raises(ModelError):
        brute_force(m)


def test_scenario_lattice_cap_refused():
    inst = build_instance(y_upper=1100)   # 1101**2 scenario points, over ENUM_CAP
    with pytest.raises(ModelError):
        scenario_recourse(inst, 0, [1.0, 0.0])


def test_scenario_lattice_cap_ignores_the_fixed_first_stage():
    l1 = 21   # 2**21 first-stage points: the fixed block alone is over ENUM_CAP
    y_at_least_1 = Affine(np.r_[np.zeros(l1), -1.0], 1.0)
    inst = TwoStageInstance(
        c=np.zeros(l1), x_names=[f"x{k}" for k in range(l1)],
        scenarios=[Scenario("s", [1.0], [VariableSpec("y", "integer", 0, 3)], [y_at_least_1])],
        ambiguity=AmbiguitySet.singleton([1.0]),
    )
    val, point = scenario_recourse(inst, 0, np.ones(l1))
    assert val == 1.0
    assert point.tolist() == [1.0] * l1 + [1.0]


def _lattice(model, free):
    return itertools.product(*(np.arange(model.lb[i], model.ub[i] + 0.5) for i in free))


def _pinned_solve(model, pins):
    return convex_solve(ConvexProgram(
        n=model.n, c=model.objective.c,
        A_ub=model.A_ub if model.A_ub.size else None, b_ub=model.b_ub if model.A_ub.size else None,
        A_eq=model.A_eq if model.A_eq.size else None, b_eq=model.b_eq if model.A_eq.size else None,
        convex=list(model.convex), pins=pins, lb=model.lb, ub=model.ub,
    ))


def _unpruned_recourse(model, x):
    """min over the scenario lattice at first stage x, every point solved."""
    free = [i for i in model.integer_indices() if i >= len(x)]
    best = np.inf
    for combo in _lattice(model, free):
        pins = {i: float(v) for i, v in enumerate(x)}
        pins.update((i, float(v)) for i, v in zip(free, combo))
        if len(pins) == model.n:
            z = np.array([pins[i] for i in range(model.n)])
            if model.feasible(z):
                best = min(best, model.objective_value(z))
            continue
        cert = _pinned_solve(model, pins)
        if cert.status == "optimal":
            best = min(best, cert.value + model.objective.const)
    return best


@pytest.mark.parametrize("seed", range(2000, 2005))
def test_pruned_recourse_matches_unpruned_enumeration(seed):
    inst = generate_instance(seed, "twostage-small")
    _, _, table = full_first_stage(inst)   # every feasible first-stage point
    assert table
    models = [inst.scenario_model(w) for w in range(len(inst.scenarios))]
    for bits, row in table.items():
        want = [_unpruned_recourse(m, np.asarray(bits, dtype=float)) for m in models]
        assert row["recourse"] == pytest.approx(want, abs=1e-9)


# some of the instances on which the first-stage walk skips points
FIRST_STAGE_SKIPS = {"walkthrough", 702, 2000, 2002, 2003, 2004}


@pytest.mark.parametrize("name", ["walkthrough", 702, *range(2000, 2030)])
def test_first_stage_walk_matches_full_enumeration(name):
    inst = (build_instance(y_upper=6) if name == "walkthrough"
            else generate_instance(name, "twostage-small"))
    value, argmins, full = full_first_stage(inst)
    ref = brute_force_two_stage(inst)
    assert ref.status == "optimal"
    assert ref.value == value
    assert [x.tolist() for x in ref.argmins] == [x.tolist() for x in argmins]
    # the solved points, in lattice order, each row as the full enumeration's
    assert list(ref.table) == [bits for bits in full if bits in ref.table]
    for bits, row in ref.table.items():
        assert row == full[bits]
    if name in FIRST_STAGE_SKIPS:
        assert len(ref.table) < len(full)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_int=st.integers(1, 2), n_cont=st.integers(1, 2),
       convex_objective=st.booleans())
# lattice point i0 = -2 of this draw stalled the primal-dual loop (a step that could not decrease the merit)
@example(seed=550, n_int=1, n_cont=2, convex_objective=False)
def test_objective_pruning_keeps_value_and_argmins(seed, n_int, n_cont, convex_objective):
    rng = np.random.default_rng(seed)
    n = n_int + n_cont
    variables = ([VariableSpec(f"i{k}", "integer", -2, 2) for k in range(n_int)]
                 + [VariableSpec(f"u{k}", "continuous", -2, 2) for k in range(n_cont)])
    center = rng.uniform(-1.5, 1.5, n)
    radius = rng.uniform(0.5, 2.0)
    ball = WeightedSum([SquaredNorm(np.eye(n)), Affine(-2.0 * center, center @ center - radius**2)])
    c = rng.integers(-3, 4, n).astype(float)   # integer costs, so ties occur
    objective = (WeightedSum([SquaredNorm(np.diag(rng.uniform(0.0, 1.0, n))), Affine(c)])
                 if convex_objective else LinearObjective(c))
    model = ModelInstance(variables=variables, objective=objective,
                          A_ub=rng.integers(-2, 3, (1, n)).astype(float), b_ub=[rng.uniform(0.0, 2.0)],
                          convex=[ball])
    pruned = brute_force(model, prune_objective=True)
    full = brute_force(model, prune_objective=False)
    assert pruned.status == full.status
    assert pruned.enumerated == full.enumerated
    if full.status == "optimal":
        assert pruned.value == pytest.approx(full.value, abs=1e-9)
        assert len(pruned.argmins) == len(full.argmins)
        for p, q in zip(pruned.argmins, full.argmins):
            assert np.allclose(p, q, atol=1e-9)


def _objective_bound(model, pins):
    """The oracle's cheap objective bound at one lattice point: pinned costs plus the box minimum."""
    c = model.objective.c
    cont = [i for i in range(model.n) if i not in pins]
    return sum(c[i] * v for i, v in pins.items()) + bruteforce._cont_min(c, model.lb, model.ub, cont) \
        + model.objective.const


@pytest.mark.parametrize("seed", [1013, 1039, 1045])
def test_walk_solves_only_points_whose_bound_can_reach_the_optimum(monkeypatch, seed):
    model = generate_instance(seed, "micp-smooth")
    full = brute_force(model, prune_objective=False)
    solved = []

    def recording_solve(prog):
        solved.append(dict(prog.pins))
        return convex_solve(prog)

    monkeypatch.setattr(bruteforce, "convex_solve", recording_solve)
    got = brute_force(model)
    assert solved
    epi = epigraph_reformulate(model)
    assert all(_objective_bound(epi, pins) <= got.value + 1e-9 for pins in solved)
    assert (got.status, got.value, got.enumerated) == (full.status, full.value, full.enumerated)
    assert len(got.argmins) == len(full.argmins)
    assert all(np.array_equal(p, q) for p, q in zip(got.argmins, full.argmins))
    everywhere = {(p.tobytes(), v) for p, v in full.feasible_points}
    assert all((p.tobytes(), v) in everywhere for p, v in got.feasible_points)


def _micp_model(seed):
    """The model of one ``micp`` acceptance seed."""
    return generate_instance(seed, "micp-smooth" if seed % 2 else "micp-separable")


def _pruned_walk(monkeypatch, model, mults=None, anchored=True):
    """``brute_force(model)`` and the pins of every point it solved; ``mults``,
    when given, replaces every entry of each certificate's ``mult_ub`` and
    ``mult_convex``.  Without ``anchored`` the walk prices only the minorants
    anchored at the box center."""
    solved = []
    dual_bound = bruteforce._dual_bound

    def center_only(model, cont, lam, x, V, G):
        at_center = np.array_equal(x[cont], 0.5 * (model.lb + model.ub)[cont])
        return dual_bound(model, cont, lam, x, V, G) if at_center else -np.inf

    if not anchored:
        monkeypatch.setattr(bruteforce, "_dual_bound", center_only)

    def recording_solve(prog):
        solved.append(dict(prog.pins))
        cert = convex_solve(prog)
        if mults is None or cert.status != "optimal":
            return cert
        return replace(cert, mult_ub=np.full_like(cert.mult_ub, mults),
                       mult_convex=np.full_like(cert.mult_convex, mults))

    monkeypatch.setattr(bruteforce, "convex_solve", recording_solve)
    got = brute_force(model)
    monkeypatch.undo()
    return got, solved


@pytest.mark.parametrize("seed", [1001, 1011, 1013, 1037, 1039])
def test_weak_duality_skips_only_points_that_cannot_attain_the_optimum(monkeypatch, seed):
    model = _micp_model(seed)
    got, solved = _pruned_walk(monkeypatch, model)
    # NaN multipliers leave no lam to price with: the walk by the box bound alone
    box, box_solved = _pruned_walk(monkeypatch, model, mults=np.nan)
    assert (got.status, got.value, got.enumerated) == (box.status, box.value, box.enumerated)
    assert all(pins in box_solved for pins in solved)
    skipped = [pins for pins in box_solved if pins not in solved]
    assert skipped
    epi = epigraph_reformulate(model)
    for pins in skipped:
        cert = _pinned_solve(epi, pins)
        assert cert.status == "infeasible" or cert.value + epi.objective.const > got.value + 1e-9


@pytest.mark.parametrize("seed", [1002, 1013, 1020])
def test_incumbent_anchored_bound_skips_only_points_that_cannot_attain_the_optimum(monkeypatch, seed):
    # the points that only the minorants anchored at the incumbent's
    # continuous coordinates skip are infeasible or worse than the optimum
    model = _micp_model(seed)
    got, solved = _pruned_walk(monkeypatch, model)
    center, center_solved = _pruned_walk(monkeypatch, model, anchored=False)
    assert (got.status, got.value, got.enumerated) == (center.status, center.value, center.enumerated)
    assert all(pins in center_solved for pins in solved)
    skipped = [pins for pins in center_solved if pins not in solved]
    assert skipped
    epi = epigraph_reformulate(model)
    for pins in skipped:
        cert = _pinned_solve(epi, pins)
        assert cert.status == "infeasible" or cert.value + epi.objective.const > got.value + 1e-9


@pytest.mark.parametrize("mults", [0.0, -1.0, 1e6, np.nan])
def test_weak_duality_skip_does_not_trust_the_multipliers(monkeypatch, mults):
    for seed in (1001, 1011, 1013, 1037, 1039, 1010, 1020, 1028, 1045):
        model = _micp_model(seed)
        full = brute_force(model, prune_objective=False)
        got, _ = _pruned_walk(monkeypatch, model, mults)
        assert (got.status, got.value, got.enumerated) == (full.status, full.value, full.enumerated)
        assert len(got.argmins) == len(full.argmins)
        assert all(np.array_equal(p, q) for p, q in zip(got.argmins, full.argmins))


def test_pruned_oracle_pass_over_the_micp_models_needs_few_convex_solves(monkeypatch):
    # the pass takes 98 convex solves with the weak-duality skip at both
    # anchors, 162 by the box bound alone
    calls = 0
    for seed in range(1000, 1050):
        _, solved = _pruned_walk(monkeypatch, _micp_model(seed))
        calls += len(solved)
    assert calls <= 120


def test_walk_stops_after_the_point_that_attains_the_least_bound(monkeypatch):
    # 2**16 binary points beside a zero-cost continuous coordinate: the least
    # bound is attained at one feasible point, so one convex solve settles the lattice
    k = 16
    costs = (1.0 + np.arange(k)) * np.where(np.arange(k) % 2, 1.0, -1.0)
    model = ModelInstance(
        variables=[VariableSpec(f"b{j}", "binary", 0, 1) for j in range(k)]
        + [VariableSpec("u", "continuous", -1, 1)],
        objective=LinearObjective(np.r_[costs, 0.0]),
        A_ub=[np.r_[np.zeros(k), 1.0]], b_ub=[0.5],
    )
    calls = []

    def counting_solve(prog):
        calls.append(prog)
        return convex_solve(prog)

    monkeypatch.setattr(bruteforce, "convex_solve", counting_solve)
    tracemalloc.start()
    got = brute_force(model)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(calls) == 1
    assert got.enumerated == 2**k
    assert got.value == pytest.approx(costs[costs < 0].sum(), abs=1e-9)
    assert len(got.feasible_points) == len(got.argmins) == 1
    assert np.array_equal(got.argmins[0][:k], (costs < 0).astype(float))
    # a few arrays of one number per point, and no Python object per point
    assert peak < 32 * 2**k


def _prunable_per_point(model, pins, cont):
    """The oracle's infeasibility certificate at one lattice point, row by row:
    the reference the block screen must agree with.  Linear rows are bounded
    coordinatewise over the continuous box, convex rows through a subgradient
    minorant anchored at the box center."""
    lb, ub = model.lb, model.ub
    x0 = 0.5 * (lb + ub)
    for i, v in pins.items():
        x0[i] = v
    for r in range(model.A_ub.shape[0]):
        row = model.A_ub[r]
        lo = float(row @ x0)
        lo += float(np.minimum(row[cont] * (lb[cont] - x0[cont]),
                               row[cont] * (ub[cont] - x0[cont])).sum())
        if lo > model.b_ub[r] + FEAS_TOL:
            return True
    for g in model.convex:
        v0 = g.value(x0)
        s = g.subgrad(x0)
        lo = v0 + float(np.minimum(s[cont] * (lb[cont] - x0[cont]), s[cont] * (ub[cont] - x0[cont])).sum())
        if lo > FEAS_TOL:
            return True
    return False


def _feasible_per_point(model, x):
    """``ModelInstance.feasible`` at one point, row by row and atom by atom."""
    if np.any(x < model.lb - FEAS_TOL) or np.any(x > model.ub + FEAS_TOL):
        return False
    if model.A_ub.size and np.any(model.A_ub @ x > model.b_ub + FEAS_TOL):
        return False
    if model.A_eq.size and np.any(np.abs(model.A_eq @ x - model.b_eq) > FEAS_TOL):
        return False
    return all(g.value(x) <= FEAS_TOL for g in model.convex)


def _screened_per_point(model, fixed):
    """The pins of every lattice point that passes the per-point screen, in lattice order."""
    free = [i for i in model.integer_indices() if i not in fixed]
    cont = [i for i in range(model.n) if i not in fixed and i not in free]
    kept = []
    for combo in _lattice(model, free):
        pins = {**fixed, **{i: float(v) for i, v in zip(free, combo)}}
        if cont:
            ok = not _prunable_per_point(model, pins, cont)
        else:
            ok = _feasible_per_point(model, np.array([pins[i] for i in range(model.n)]))
        if ok:
            kept.append(pins)
    return kept


def _screened_by_blocks(monkeypatch, model, fixed):
    """The pins of every lattice point the oracle's block screen passes on, in
    lattice order: with a continuous coordinate, the points it hands to the
    convex oracle (stubbed out here); without one, the feasible points."""
    handed = []
    monkeypatch.setattr(bruteforce, "convex_solve",
                        lambda prog: handed.append(dict(prog.pins)) or SimpleNamespace(status="infeasible"))
    _, _, feas, _ = bruteforce._enumerate(model, fixed, False)
    if any(i not in fixed and not v.is_integer for i, v in enumerate(model.variables)):
        return handed
    return [{i: float(v) for i, v in enumerate(p[: model.n])} for p, _ in feas]


@pytest.mark.parametrize("seed", range(1000, 1050))
def test_block_screen_drops_the_points_the_per_point_screen_drops_micp(monkeypatch, seed):
    model = _micp_model(seed)
    epi = epigraph_reformulate(model)
    assert _screened_by_blocks(monkeypatch, epi, {}) == _screened_per_point(epi, {})


@pytest.mark.parametrize("seed", range(2000, 2005))
def test_block_screen_drops_the_points_the_per_point_screen_drops_dr(monkeypatch, seed):
    inst = generate_instance(seed, "twostage-small")
    for w in range(len(inst.scenarios)):
        model = inst.scenario_model(w)
        for bits in itertools.product((0.0, 1.0), repeat=inst.l1):
            fixed = dict(enumerate(bits))
            assert _screened_by_blocks(monkeypatch, model, fixed) == _screened_per_point(model, fixed)


def test_pure_integer_lattice_is_screened_in_bounded_memory():
    # 2**16 binary points and one convex row that only the target point meets:
    # every point is screened, in blocks, and memory stays a few numbers per point
    k = 16
    target = (np.arange(k) % 3 == 0).astype(float)
    near = WeightedSum([SquaredNorm(np.eye(k), -target), Affine(np.zeros(k), -0.5)])
    model = ModelInstance(
        variables=[VariableSpec(f"b{j}", "binary", 0, 1) for j in range(k)],
        objective=LinearObjective(np.ones(k)), convex=[near],
    )
    tracemalloc.start()
    got = brute_force(model)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.enumerated == 2**k
    assert len(got.feasible_points) == len(got.argmins) == 1
    assert np.array_equal(got.argmins[0], target)
    assert got.value == target.sum()
    assert peak < 32 * 2**k


@pytest.mark.parametrize("seed,enumerated,feasible", [(1017, 512, 464), (1023, 20, 5), (1033, 480, 9)])
def test_pure_integer_convex_objective_needs_no_convex_solve(monkeypatch, seed, enumerated, feasible):
    model = generate_instance(seed, "micp-smooth")
    assert not model.has_linear_objective() and len(model.integer_indices()) == model.n
    # reference: the epigraph form's one-variable remainder solved at every lattice point
    epi = epigraph_reformulate(model)
    ref = []
    for combo in _lattice(epi, epi.integer_indices()):
        cert = _pinned_solve(epi, {i: float(v) for i, v in enumerate(combo)})
        if cert.status == "optimal":
            ref.append((cert.x, cert.value))
    calls = []
    monkeypatch.setattr(bruteforce, "convex_solve", lambda prog: calls.append(prog))
    got = brute_force(model)
    assert calls == []
    assert got.enumerated == enumerated
    assert len(got.feasible_points) == len(ref) == feasible
    assert got.value == pytest.approx(min(v for _, v in ref), abs=1e-9)
    for (p, v), (q, w) in zip(got.feasible_points, ref):
        assert p.shape == (model.n + 1,)
        assert p[-1] == v == model.objective_value(p[:-1])
        assert np.array_equal(p[:-1], q[:-1])
        assert v == pytest.approx(w, abs=1e-9)


def test_extensive_form_cross_solve_three_scenarios():
    for seed in (801, 804):
        inst = generate_instance(seed, "twostage-small")
        if not inst.ambiguity.is_singleton():
            continue
        ext = extensive_form(inst)
        direct = micp_solve(ext, MicpOptions())
        got = dr_solve(inst, DrOptions())
        assert direct.status == got.status == "optimal"
        assert got.objective == pytest.approx(direct.objective, abs=1e-6 * (1 + abs(direct.objective)))


def test_extensive_form_walkthrough_has_six_variables():
    ext = extensive_form(build_instance(y_upper=6))
    assert ext.n == 6
    ref = brute_force(ext)
    assert ref.value == pytest.approx(1.75, abs=1e-7)
