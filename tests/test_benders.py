import itertools

import numpy as np
import pytest

from micpkit.benders import benders_cut_from_terminal_lp, parametric_solve
from micpkit.bruteforce import brute_force, extensive_form
from micpkit.errors import AssumptionViolation, RecourseError
from micpkit.expr import Affine, NormAffine, Softplus, WeightedSum
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions, micp_solve
from micpkit.milp import MilpRow, TerminalLp
from micpkit.model import LinearObjective, ModelInstance, VariableSpec
from micpkit.section6 import build_instance
from micpkit.simplex import lp_solve
from micpkit.twostage import DrOptions, ScenarioDual, decompose_solve

LOG1PE = float(np.log1p(np.e))


def _joint_scenario(w=0):
    return build_instance().scenario_model(w)


def test_parametric_solve_walkthrough_terminal_row():
    model = _joint_scenario(0)
    cert = parametric_solve(model, {0: 1.0, 1: 0.0}, MicpOptions())
    assert cert.status == "optimal"
    assert cert.objective == pytest.approx(0.5)
    terminal = cert.extras["terminal"]
    rows = {tuple(np.round(np.concatenate([r.cx, r.cy, [r.rhs]]), 6)) for r in terminal.rows}
    assert (-1.0, -1.0, -1.0, -1.0, -2.0) in rows


def test_parametric_solve_infeasible_raises_recourse_error():
    g = WeightedSum([Softplus([0.0, 1.0]), Affine([-5.0, 0.0], 3.0)])
    model = ModelInstance(
        variables=[VariableSpec("x", "binary", 0, 1), VariableSpec("y", "integer", 0, 2)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[g],
        param_block=[0],
    )
    with pytest.raises(RecourseError) as err:
        parametric_solve(model, {0: 0.0}, MicpOptions())
    assert "0.0" in str(err.value)


def test_parametric_solve_rejects_coupled_nonsmooth_rows():
    bad = NormAffine([[1.0, 1.0]])
    model = ModelInstance(
        variables=[VariableSpec("x", "binary", 0, 1), VariableSpec("y", "integer", 0, 2)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[bad],
        param_block=[0],
    )
    with pytest.raises(AssumptionViolation):
        parametric_solve(model, {0: 1.0}, MicpOptions())


def test_benders_cut_walkthrough_values():
    # scenario one: single rounding row, dual 0.5
    t1 = TerminalLp(
        c=np.array([0.5, 1.0]),
        rows=[MilpRow(cx=[-1.0, -1.0], cy=[-1.0, -1.0], rhs=-2.0)],
        lb=np.zeros(2), ub=np.full(2, 10.0),
        x_param=np.array([1.0, 0.0]), obj=0.5,
    )
    cut1 = benders_cut_from_terminal_lp(t1)
    assert np.allclose(cut1.a, [-0.5, -0.5], atol=1e-9)
    assert cut1.b == pytest.approx(1.0, abs=1e-9)
    # scenario two: same row under the unit objective, dual 1
    t2 = TerminalLp(
        c=np.array([1.0, 1.0]),
        rows=[MilpRow(cx=[-1.0, -1.0], cy=[-1.0, -1.0], rhs=-2.0)],
        lb=np.zeros(2), ub=np.full(2, 10.0),
        x_param=np.array([1.0, 0.0]), obj=1.0,
    )
    cut2 = benders_cut_from_terminal_lp(t2)
    assert np.allclose(cut2.a, [-1.0, -1.0], atol=1e-9)
    assert cut2.b == pytest.approx(2.0, abs=1e-9)


def test_benders_cut_flat_when_rows_have_no_parameter():
    t = TerminalLp(
        c=np.array([1.0]),
        rows=[MilpRow(cx=[0.0, 0.0], cy=[-1.0], rhs=-1.0)],
        lb=np.zeros(1), ub=np.full(1, 5.0),
        x_param=np.array([1.0, 0.0]), obj=1.0,
    )
    cut = benders_cut_from_terminal_lp(t)
    assert np.allclose(cut.a, [0.0, 0.0])
    assert cut.b == pytest.approx(1.0)


def test_benders_cut_lower_bounds_recourse_everywhere():
    instance = build_instance()
    for w in range(2):
        model = instance.scenario_model(w)
        cert = parametric_solve(model, {0: 1.0, 1: 0.0}, MicpOptions())
        cut = benders_cut_from_terminal_lp(cert.extras["terminal"])
        assert cut.value([1.0, 0.0]) == pytest.approx(cert.objective, abs=1e-6)
        for bits in itertools.product((0.0, 1.0), repeat=2):
            sub = parametric_solve(model, {0: bits[0], 1: bits[1]}, MicpOptions())
            assert cut.value(bits) <= sub.objective + 1e-6


def test_terminal_lp_value_sweep_separable():
    inst = generate_instance(201, "micp-separable")
    params = inst.param_block
    c_param = inst.objective.c[params]
    cert = parametric_solve(inst, {i: 0.0 for i in params}, MicpOptions())
    terminal = cert.extras["terminal"]
    for bits in itertools.product((0.0, 1.0), repeat=len(params)):
        pv = {i: b for i, b in zip(params, bits)}
        try:
            direct = parametric_solve(inst, pv, MicpOptions())
        except RecourseError:
            continue
        sol = lp_solve(terminal.lp_at(np.array(bits)))
        assert sol.status == "optimal"
        # the terminal relaxation bounds the decision-block optimum from below
        assert sol.obj + float(c_param @ np.array(bits)) <= direct.objective + 1e-6


def test_decompose_walkthrough_extensive_form():
    ext = extensive_form(build_instance(y_upper=6))
    cert = decompose_solve(ext, DrOptions())
    assert cert.status == "optimal"
    assert np.allclose(np.round(cert.x[:2]), [1, 0])
    assert cert.objective == pytest.approx(1.75, abs=1e-6)


def test_decompose_trivial_second_stage_two_iterations():
    # second stage independent of the binary block: first cut is exact
    g = WeightedSum([Softplus([0.0, 1.0]), Affine([0.0, -2.0], 0.0)])
    model = ModelInstance(
        variables=[VariableSpec("x", "binary", 0, 1), VariableSpec("y", "integer", 0, 4)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[g],
        param_block=[0],
    )
    cert = decompose_solve(model, DrOptions())
    assert cert.status == "optimal"
    assert cert.iterations <= 2


def test_decompose_matches_direct_solve():
    for seed in (205, 207, 209):
        inst = generate_instance(seed, "micp-separable")
        direct = micp_solve(inst, MicpOptions())
        if direct.status != "optimal":
            continue
        try:
            dec = decompose_solve(inst, DrOptions())
        except RecourseError:
            continue  # not feasible in y for every binary block value
        assert dec.status == "optimal"
        assert dec.objective == pytest.approx(direct.objective, abs=1e-6 * (1 + abs(direct.objective)))


def test_decompose_outer_loop_stops_on_revisit():
    trace = []
    ext = extensive_form(build_instance(y_upper=6))
    cert = decompose_solve(ext, DrOptions(trace=trace))
    assert cert.status == "optimal"
    seen = []
    for row in trace[:-1]:
        assert row["x"] not in seen
        seen.append(row["x"])
    assert trace[-1]["x"] in seen
    assert cert.branch_exits == ["revisit"]


def test_decompose_recourse_error_names_the_first_stage_point():
    g = WeightedSum([Softplus([0.0, 1.0]), Affine([-5.0, 0.0], 3.0)])
    model = ModelInstance(
        variables=[VariableSpec("x", "binary", 0, 1), VariableSpec("y", "integer", 0, 2)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[g],
        param_block=[0],
    )
    with pytest.raises(RecourseError, match=r"at first-stage point \(0,\)"):
        decompose_solve(model, DrOptions())


def test_parametric_solve_leaves_the_options_alone():
    opts = MicpOptions()
    parametric_solve(_joint_scenario(0), {0: 1.0, 1: 0.0}, opts)
    assert opts == MicpOptions()


def _degenerate_terminal():
    # both rows are active at x = 1, so the optimal duals are not unique
    return TerminalLp(
        c=np.array([1.0]),
        rows=[MilpRow(cx=[0.0], cy=[-2.0], rhs=-2.0), MilpRow(cx=[-1.0], cy=[-1.0], rhs=-2.0)],
        lb=np.zeros(1), ub=np.full(1, 5.0),
        x_param=np.array([1.0]), obj=1.0,
    )


def test_benders_cut_keeps_the_shared_terminal_solution():
    # a degenerate anchor: the cut reads the stored solution's duals and
    # leaves that solution as a fresh solve gives it
    t = _degenerate_terminal()
    fresh = lp_solve(t.lp_at(t.x_param))
    first = benders_cut_from_terminal_lp(t)
    second = benders_cut_from_terminal_lp(t)
    assert first.to_dict() == second.to_dict()
    _, stored = t.solve_anchor()
    for name in ("dual_ub", "dual_lb", "dual_ubound"):
        assert np.array_equal(getattr(stored, name), getattr(fresh, name)), name


def test_benders_cut_uses_the_scenario_duals_on_a_degenerate_anchor():
    t = _degenerate_terminal()
    cut = benders_cut_from_terminal_lp(t)
    assert np.array_equal(cut.a, [-1.0])
    assert cut.b == 2.0
    C, _ = t.blocks()
    dual = ScenarioDual.from_terminal(0, t, t.obj)
    assert np.array_equal(cut.a, C.T @ dual.mu)
    # the cut is tight at the anchor and exact at x = 0, where the LP value is 2
    assert cut.value([1.0]) == pytest.approx(1.0)
    assert cut.value([0.0]) == pytest.approx(lp_solve(t.lp_at([0.0])).obj)


def test_benders_cut_on_an_extracted_terminal_solves_no_lp(monkeypatch):
    from micpkit import benders, milp

    terminal = parametric_solve(_joint_scenario(0), {0: 1.0, 1: 0.0}, MicpOptions()).extras["terminal"]
    calls = []

    def counting_lp_solve(problem, *args, **kwargs):
        calls.append(problem)
        return lp_solve(problem, *args, **kwargs)

    for module in (benders, milp):
        monkeypatch.setattr(module, "lp_solve", counting_lp_solve)
    benders_cut_from_terminal_lp(terminal)
    assert calls == []


def test_parametric_solve_scans_the_structure_once(monkeypatch):
    from micpkit import benders, micp
    from micpkit.model import check_assumptions

    scans = []

    def counting_check(model):
        scans.append(model)
        return check_assumptions(model)

    for module in (benders, micp):
        if hasattr(module, "check_assumptions"):
            monkeypatch.setattr(module, "check_assumptions", counting_check)
    parametric_solve(_joint_scenario(0), {0: 1.0, 1: 0.0}, MicpOptions())
    assert len(scans) == 1


def _binary_pair_model(objective, extra_convex=(), A_eq=None, b_eq=None):
    """x1, x2 binary parameters, y in [0, 4] integer, softplus(y) <= x1 + x2 + y + 1."""
    return ModelInstance(
        variables=[VariableSpec("x1", "binary", 0, 1), VariableSpec("x2", "binary", 0, 1),
                   VariableSpec("y", "integer", 0, 4)],
        objective=LinearObjective(objective),
        A_eq=A_eq, b_eq=b_eq,
        convex=[WeightedSum([Softplus([0.0, 0.0, 1.0]), Affine([-1.0, -1.0, -1.0], -1.0)]),
                *extra_convex],
        param_block=[0, 1],
    )


def test_decompose_keeps_parameter_only_equalities_in_the_master():
    model = _binary_pair_model([1.0, 0.5, 1.0], A_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0])
    ref = brute_force(model)
    assert ref.value == pytest.approx(0.5)
    cert = decompose_solve(model, DrOptions())
    assert cert.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6)
    assert model.feasible(cert.x)


def test_decompose_keeps_parameter_only_convex_rows_in_the_master():
    # softplus(2 x1 + 2 x2) <= log(1 + e^2) allows x1 + x2 <= 1
    row = WeightedSum([Softplus([2.0, 2.0, 0.0]), Affine([0.0, 0.0, 0.0], -float(np.log1p(np.e ** 2)))])
    model = _binary_pair_model([-1.0, -1.5, 1.0], extra_convex=[row])
    ref = brute_force(model)
    assert ref.value == pytest.approx(-1.5)
    cert = decompose_solve(model, DrOptions())
    assert cert.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6)
    assert model.feasible(cert.x)
