import numpy as np
import pytest
from first_stage import full_first_stage
from terminal_lp import lp_at

from micpkit import twostage
from micpkit.benders import BendersCut
from micpkit.bruteforce import brute_force, brute_force_two_stage, extensive_form
from micpkit.errors import ModelError, NumericalFailure, RecourseError
from micpkit.expr import Affine, Softplus, SquaredNorm, WeightedSum
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions, micp_solve
from micpkit.model import LinearObjective, ModelInstance, VariableSpec
from micpkit.modelio import dumps, load, save, to_document
from micpkit.section6 import build_instance
from micpkit.simplex import LpSolution
from micpkit.twostage import (
    AmbiguitySet,
    DrOptions,
    Scenario,
    TwoStageInstance,
    aggregate_benders,
    decompose_solve,
    dr_solve,
    worst_case_distribution,
)


def test_worst_case_examples():
    singleton = AmbiguitySet.singleton([0.5, 0.5])
    assert worst_case_distribution([3.0, 1.0], singleton) == pytest.approx([0.5, 0.5])
    simplex = AmbiguitySet(2)
    assert worst_case_distribution([1.0, 3.0], simplex) == pytest.approx([0.0, 1.0])
    box = AmbiguitySet(2, np.vstack([np.eye(2), -np.eye(2)]), [0.7, 0.7, -0.3, -0.3])
    assert worst_case_distribution([2.0, 1.0], box) == pytest.approx([0.7, 0.3])


def test_empty_ambiguity_rejected():
    with pytest.raises(ModelError):
        AmbiguitySet(2, np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.2, -0.8]))


def test_failed_ambiguity_lp_is_not_an_empty_set(monkeypatch):
    box = AmbiguitySet(2, np.vstack([np.eye(2), -np.eye(2)]), [0.7, 0.7, -0.3, -0.3])
    monkeypatch.setattr(twostage, "lp_solve", lambda lpp: LpSolution(status="numerical-failure"))
    with pytest.raises(NumericalFailure):
        worst_case_distribution([2.0, 1.0], box)
    with pytest.raises(NumericalFailure):
        box.is_singleton()


def test_aggregate_examples():
    cut1 = BendersCut(a=[-0.5, -0.5], b=1.0)
    cut2 = BendersCut(a=[-1.0, -1.0], b=2.0)
    agg = aggregate_benders([0.5, 0.5], [cut1, cut2])
    assert np.allclose(agg.a, [-0.75, -0.75])
    assert agg.b == pytest.approx(1.5)
    single = aggregate_benders([1.0], [cut2])
    assert np.allclose(single.a, cut2.a) and single.b == cut2.b
    conc = aggregate_benders([1.0, 0.0], [cut1, cut2])
    assert np.allclose(conc.a, cut1.a) and conc.b == cut1.b


def test_walkthrough_instance_solved():
    inst = build_instance()
    opts = DrOptions()
    opts.scenario_opts.milp_mode = "cp"
    cert = dr_solve(inst, opts)
    trace = cert.trace
    assert cert.status == "optimal"
    assert np.allclose(cert.x, [1, 0])
    assert cert.objective == pytest.approx(1.75, abs=1e-9)
    # termination happened when the master re-proposed the visited point
    xs = [tuple(row["x"]) for row in trace]
    assert xs[-1] in xs[:-1] or len(xs) == 1


def test_walkthrough_matches_brute_force_and_extensive_form():
    inst = build_instance(y_upper=6)
    ref = brute_force_two_stage(inst)
    assert ref.status == "optimal"
    assert ref.value == pytest.approx(1.75, abs=1e-9)
    assert any(np.allclose(x, [1, 0]) for x in ref.argmins)
    ext = extensive_form(inst)
    direct = micp_solve(ext, MicpOptions())
    assert direct.objective == pytest.approx(1.75, abs=1e-6)


def test_single_scenario_reduces_to_classical_benders():
    inst = build_instance(y_upper=6)
    single = TwoStageInstance(
        c=inst.c, x_names=inst.x_names, A_ub=inst.A_ub, b_ub=inst.b_ub,
        scenarios=[inst.scenarios[0]],
        ambiguity=AmbiguitySet.singleton([1.0]),
    )
    cert = dr_solve(single, DrOptions())
    ext = extensive_form(single)
    direct = micp_solve(ext, MicpOptions())
    assert cert.status == direct.status == "optimal"
    assert cert.objective == pytest.approx(direct.objective, abs=1e-6)


def test_random_suite_matches_brute_force():
    for seed in range(700, 706):
        inst = generate_instance(seed, "twostage-small")
        ref = brute_force_two_stage(inst)
        got = dr_solve(inst, DrOptions())
        assert ref.status == got.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))


def _with_first_stage_row(seed):
    """twostage-small ``seed`` plus the first-stage row softplus(v.x) <= softplus(v_j),
    v drawn from ``seed`` and v_j its median entry: the row is tight at x = e_j."""
    inst = generate_instance(seed, "twostage-small")
    l1 = inst.l1
    v = np.random.default_rng(seed).normal(size=l1)
    row = WeightedSum([Softplus(v, 0.0),
                       Affine(np.zeros(l1), -float(np.logaddexp(0.0, np.sort(v)[l1 // 2])))])
    assert row.value(np.eye(l1)[np.argsort(v)[l1 // 2]]) == 0.0
    return TwoStageInstance(c=inst.c, x_names=inst.x_names, scenarios=inst.scenarios,
                            ambiguity=inst.ambiguity, A_ub=inst.A_ub, b_ub=inst.b_ub,
                            first_convex=[row])


@pytest.mark.parametrize("seed", range(2000, 2006))
def test_first_stage_convex_row_matches_brute_force(seed):
    # every solver on a first-stage convex row that is tight at a lattice
    # point; pinned there, the row is the constant 0 in the scenario and
    # extensive-form subproblems
    inst = _with_first_stage_row(seed)
    ref = brute_force_two_stage(inst)
    assert ref.status == "optimal"
    certs = [dr_solve(inst, DrOptions())]
    if inst.ambiguity.is_singleton():
        ext = extensive_form(inst)
        certs += [micp_solve(ext, MicpOptions()), decompose_solve(ext, DrOptions())]
    for cert in certs:
        assert cert.status == "optimal"
        assert cert.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))


def test_first_stage_convex_row_round_trips_through_a_model_file(tmp_path):
    inst = _with_first_stage_row(2000)
    path = tmp_path / "first_convex.json"
    save(inst, path)
    loaded = load(path)
    assert len(loaded.first_convex) == 1
    assert dumps(to_document(loaded)) == dumps(to_document(inst))
    assert dr_solve(loaded, DrOptions()).objective == dr_solve(inst, DrOptions()).objective


def test_trace_holds_only_its_own_solve():
    # two solves of one instance: each certificate holds its own rows, numbered from 1
    inst = generate_instance(2000, "twostage-small")
    first = dr_solve(inst, DrOptions())
    second = dr_solve(inst, DrOptions())
    assert [r["m"] for r in second.trace] == list(range(1, second.iterations + 1))
    assert second.trace == first.trace


def test_bounds_monotone_and_lemma_tightness():
    for seed in (700, 701):
        inst = generate_instance(seed, "twostage-small")
        cert = dr_solve(inst, DrOptions())
        trace = cert.trace
        Ls = [row["L"] for row in trace]
        Us = [row["U"] for row in trace]
        assert all(b >= a - 1e-9 for a, b in zip(Ls, Ls[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(Us, Us[1:]))
        assert all(l <= u + 1e-8 for l, u in zip(Ls, Us))
        # per-iteration tightness: aggregated cut at its anchor equals p.Q
        for row in trace:
            lhs = float(np.asarray(row["aggregated"]["a"]) @ np.asarray(row["x"])) + row["aggregated"]["b"]
            rhs = float(np.asarray(row["p"]) @ np.asarray(row["recourse"]))
            assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(rhs)))


def test_scenario_cut_underestimates_recourse_everywhere():
    inst = generate_instance(702, "twostage-small")
    trace = dr_solve(inst, DrOptions()).trace
    _, _, table = full_first_stage(inst)   # every feasible first-stage point
    for row in trace:
        for w, cd in enumerate(row["scenario_cuts"]):
            cut = BendersCut(a=cd["a"], b=cd["b"])
            for bits, info in table.items():
                assert cut.value(np.asarray(bits, dtype=float)) <= info["recourse"][w] + 1e-6


def test_decompose_is_the_dr_loop_with_one_scenario():
    inst = build_instance(y_upper=6)
    dr = dr_solve(inst, DrOptions())
    ext = extensive_form(inst)
    dec = decompose_solve(ext, DrOptions())
    dr_trace, dec_trace = dr.trace, dec.trace
    assert dr.status == dec.status == "optimal"
    assert dr.objective == pytest.approx(1.75, abs=1e-9)
    assert dec.objective == pytest.approx(1.75, abs=1e-9)
    assert {tuple(sorted(r)) for r in dr_trace} == {tuple(sorted(r)) for r in dec_trace}
    assert set(dr.oracle_counts) == set(dec.oracle_counts) == {
        "scenario_solves", "scenario_cache_hits", "carried_cuts"}
    # one scenario round per outer iteration: solved at a new first-stage
    # point, taken from the cache at a repeated one
    for cert, trace, k in ((dec, dec_trace, 1), (dr, dr_trace, 2)):
        counts = cert.oracle_counts
        assert counts["scenario_solves"] + counts["scenario_cache_hits"] == k * cert.iterations
        assert counts["scenario_solves"] == k * len({tuple(r["x"]) for r in trace})
    assert dr.x.size == 2 and dec.x.size == ext.n


def test_revisit_takes_the_cached_scenario_row(monkeypatch):
    calls = []

    def counting_worst_case(values, ambiguity):
        calls.append(list(values))
        return worst_case_distribution(values, ambiguity)

    monkeypatch.setattr(twostage, "worst_case_distribution", counting_worst_case)
    cert = dr_solve(build_instance(y_upper=6), DrOptions())
    trace = cert.trace
    assert cert.branch_exits == ["revisit"]
    assert cert.oracle_counts["scenario_cache_hits"] == 2
    # one ambiguity LP per first-stage point: the revisit reuses its distribution
    assert len(calls) == len({tuple(row["x"]) for row in trace}) == len(trace) - 1
    last = trace[-1]
    (earlier,) = [row for row in trace[:-1] if row["x"] == last["x"]]
    for key in ("recourse", "scenario_cuts", "scenario_duals", "p"):
        assert last[key] == earlier[key], key
    # the repeated row carries this iteration's number and bounds
    assert last["m"] == last["aggregated"]["iteration"] == len(trace)
    assert last["L"] >= earlier["L"] and last["U"] == trace[-2]["U"]
    assert {k: v for k, v in last["aggregated"].items() if k != "iteration"} == \
        {k: v for k, v in earlier["aggregated"].items() if k != "iteration"}


def test_carried_cuts_hold_at_enumerated_scenario_points(monkeypatch):
    from micpkit import benders, twostage

    carried = []   # (scenario model, pool it was seeded with)

    def recording_parametric_solve(model, param_value, opts=None, pool=None):
        cert = benders.parametric_solve(model, param_value, opts, pool)
        carried.append((model, list(pool or [])))
        assert cert.extras["carried_cuts"] == len(pool or [])
        return cert

    monkeypatch.setattr(twostage, "parametric_solve", recording_parametric_solve)
    for seed in (2001, 2007):   # each visits more than one first-stage point
        carried.clear()
        inst = generate_instance(seed, "twostage-small")
        dr_solve(inst, DrOptions())
        assert sum(len(pool) for _, pool in carried) > 0
        points = {}
        for model, pool in carried:
            if id(model) not in points:
                bf = brute_force(model, prune_objective=False)
                points[id(model)] = [p for p, _ in bf.feasible_points]
            for rec in pool:
                row = rec.row
                for pt in points[id(model)]:
                    lhs = row.cx @ pt[: inst.l1] + row.cy @ pt[inst.l1:]
                    assert lhs <= row.rhs + 1e-8, rec.provenance


def test_decompose_takes_the_lp_value_at_a_near_integral_exit():
    # a scenario's cp master tails here and falls back to branch and bound; the
    # answer must still match the oracle, the last bounds must be in order, and
    # the reported point must keep every linear row (a master point integral
    # only within INT_TOL can break one).  The membership exit never meets such
    # a point on this model (each of its row checks passes); the polish it then
    # reports is covered by
    # tests/test_micp.py::test_membership_reports_the_polish_when_the_master_point_breaks_a_row
    model = generate_instance(1028, "micp-separable")
    ref = brute_force(model)
    cert = decompose_solve(model, DrOptions())
    assert ref.status == cert.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))
    last = cert.trace[-1]
    assert last["U"] >= last["L"]
    x = cert.x
    assert np.all(model.A_ub @ x - model.b_ub <= 1e-9 * (1 + np.abs(model.b_ub)))
    assert np.all(np.abs(model.A_eq @ x - model.b_eq) <= 1e-9 * (1 + np.abs(model.b_eq)))


def test_decompose_solves_the_seed_2001_extensive_form(monkeypatch):
    # the scenario's cp masters close on tableau cuts: a few hundred pivots,
    # where lift-and-project cuts alone took over 30,000
    from micpkit import barrier, milp, simplex, twostage

    pivots = []

    def counting_lp_solve(problem):
        sol = simplex.lp_solve(problem)
        pivots.append(sol.pivots)
        return sol

    inst = generate_instance(2001, "twostage-small")
    ref = brute_force_two_stage(inst)
    for module in (milp, barrier, twostage):
        monkeypatch.setattr(module, "lp_solve", counting_lp_solve)
    cert = decompose_solve(extensive_form(inst), DrOptions())
    assert ref.status == cert.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))
    assert sum(pivots) < 10000


def _same_lp(p, q):
    return all(np.array_equal(getattr(p, f), getattr(q, f))
               for f in ("c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub"))


def test_one_iteration_solves_each_terminal_lp_once(monkeypatch):
    from micpkit import benders, milp, simplex, twostage

    solved = []
    scenario_solves = []   # (number of LPs solved before the scenario solve, terminal)

    def counting_lp_solve(problem, *args, **kwargs):
        solved.append(problem)
        return simplex.lp_solve(problem, *args, **kwargs)

    def capturing_parametric_solve(*args, **kwargs):
        start = len(solved)
        cert = benders.parametric_solve(*args, **kwargs)
        scenario_solves.append((start, cert.extras["terminal"]))
        return cert

    for module in (milp, benders, twostage):
        monkeypatch.setattr(module, "lp_solve", counting_lp_solve)
    monkeypatch.setattr(twostage, "parametric_solve", capturing_parametric_solve)
    inst = generate_instance(2000, "twostage-small")
    opts = DrOptions(max_iter=1)
    opts.scenario_opts.milp_mode = "cp"
    cert = dr_solve(inst, opts)
    assert cert.iterations == 1
    assert len(scenario_solves) == len(inst.scenarios) == cert.oracle_counts["scenario_solves"]
    # from the start of its scenario solve to the end of the run, each
    # terminal LP is solved once: inside the cutting-plane loop
    for start, terminal in scenario_solves:
        anchor = lp_at(terminal, terminal.x_param)
        assert sum(_same_lp(p, anchor) for p in solved[start:]) == 1
        assert sum(p is terminal.anchor[0] for p in solved[start:]) == 1


def test_decompose_reports_an_infeasible_master():
    # x0 + x1 >= 3 touches the parameter block alone, so the first master
    # holds it and no binary point meets it
    model = ModelInstance(
        variables=[VariableSpec("x0", "binary", 0, 1), VariableSpec("x1", "binary", 0, 1),
                   VariableSpec("y", "continuous", 0, 1)],
        objective=LinearObjective([1.0, 1.0, 1.0]),
        A_ub=[[-1.0, -1.0, 0.0]], b_ub=[-3.0], param_block=[0, 1],
    )
    cert = decompose_solve(model, DrOptions())
    assert brute_force(model).status == cert.status == "infeasible"
    assert cert.branch_exits == ["master-infeasible"]
    assert cert.x is None and cert.objective is None


def test_decompose_with_a_convex_objective():
    # softplus(x0 - x1 + 0.2) + ||(y0 - 0.3, y1 - 0.6)||^2: the epigraph
    # variable carries the whole cost, parameter block included
    objective = WeightedSum([Softplus([1.0, -1.0, 0.0, 0.0], 0.2),
                             SquaredNorm([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [-0.3, -0.6])])
    model = ModelInstance(
        variables=[VariableSpec("x0", "binary", 0, 1), VariableSpec("x1", "binary", 0, 1),
                   VariableSpec("y0", "integer", 0, 2), VariableSpec("y1", "continuous", 0, 1)],
        objective=objective, param_block=[0, 1],
    )
    ref = brute_force(model)
    cert = decompose_solve(model, DrOptions())
    assert ref.status == cert.status == "optimal"
    assert ref.value == pytest.approx(np.log1p(np.exp(-0.8)) + 0.09, abs=1e-9)
    assert cert.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))
    assert cert.x[:2].tolist() == [0.0, 1.0]


def test_recourse_violation_raises():
    # scenario infeasible whenever the first binary is off
    g = WeightedSum([Softplus([0.0, 1.0]), Affine([-6.0, 0.0], 3.0)])
    inst = TwoStageInstance(
        c=[1.0], x_names=["x0"],
        scenarios=[Scenario("w0", [1.0], [VariableSpec("y", "integer", 0, 2)], [g])],
        ambiguity=AmbiguitySet.singleton([1.0]),
    )
    with pytest.raises(RecourseError):
        dr_solve(inst, DrOptions())


def test_extensive_form_requires_singleton():
    inst = build_instance()
    widened = TwoStageInstance(
        c=inst.c, x_names=inst.x_names, A_ub=inst.A_ub, b_ub=inst.b_ub,
        scenarios=inst.scenarios, ambiguity=AmbiguitySet(2),
    )
    with pytest.raises(ModelError):
        extensive_form(widened)


def test_extensive_form_concatenates_single_scenario():
    inst = build_instance(y_upper=6)
    single = TwoStageInstance(
        c=inst.c, x_names=inst.x_names, A_ub=inst.A_ub, b_ub=inst.b_ub,
        scenarios=[inst.scenarios[1]], ambiguity=AmbiguitySet.singleton([1.0]),
    )
    ext = extensive_form(single)
    assert ext.n == 2 + 2
    assert np.allclose(ext.objective.c, [1.0, 2.0, 1.0, 1.0])
