import pytest

from micpkit.section6 import REPORTED_SCENARIO1_POINT, replay


@pytest.fixture(scope="module")
def replayed():
    trace, artifacts = replay()
    return trace, artifacts


def _step(trace, name):
    return next(r for r in trace if r["step"] == name)


def test_master_relaxation_point(replayed):
    trace, art = replayed
    assert art["master_relaxation"] == pytest.approx([2.0 / 3.0, 0.0], abs=1e-6)


def test_first_stage_point(replayed):
    _, art = replayed
    assert art["first_stage"] == pytest.approx([1.0, 0.0])


def test_scenario1_fractional_point(replayed):
    _, art = replayed
    assert art["scenario1_fractional"] == pytest.approx(list(REPORTED_SCENARIO1_POINT), abs=1e-2)


def test_tangent_cut_coefficients(replayed):
    _, art = replayed
    cut = art["tangent_cut"]
    assert cut["coeffs"] == pytest.approx([1.272, 0.586], abs=1e-2)
    assert cut["rhs"] == pytest.approx(0.918, abs=1e-2)


def test_integrality_cut(replayed):
    _, art = replayed
    cut = art["integrality_cut"]
    assert cut["coeffs"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert cut["rhs"] == pytest.approx(1.0, abs=1e-9)


def test_scenario2_integrality_cut(replayed):
    # the rounded scenario-two tangent row: y21 + y22 >= 1 at x = [1, 0]
    trace, _ = replayed
    cut = _step(trace, "scenario2-integrality-cut")
    assert cut["coeffs"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert cut["rhs"] == pytest.approx(1.0, abs=1e-9)


def test_scenario_value_function_cuts(replayed):
    _, art = replayed
    assert art["benders1"]["a"] == pytest.approx([-0.5, -0.5], abs=1e-6)
    assert art["benders1"]["b"] == pytest.approx(1.0, abs=1e-6)
    assert art["benders2"]["a"] == pytest.approx([-1.0, -1.0], abs=1e-6)
    assert art["benders2"]["b"] == pytest.approx(2.0, abs=1e-6)


def test_aggregation_of_the_two_cuts(replayed):
    # probability-weighted average of the two recorded cuts
    _, art = replayed
    assert art["aggregated"]["b"] == pytest.approx(1.5, abs=1e-6)
    assert art["aggregated"]["a"] == pytest.approx([-0.75, -0.75], abs=1e-6)


def test_termination_on_repeat(replayed):
    _, art = replayed
    assert art["repeat_detected"]
    assert art["x_star"] == pytest.approx([1.0, 0.0])
    assert art["objective"] == pytest.approx(1.75, abs=1e-9)
    assert art["cross_check"]["objective"] == pytest.approx(1.75, abs=1e-9)


def test_scenario2_projection_point(replayed):
    trace, _ = replayed
    row = _step(trace, "scenario2-fractional")
    assert row["y"] == pytest.approx([0.5, 0.5], abs=1e-6)
    cut = _step(trace, "scenario2-tangent-cut")
    norm = cut["normalized"]
    assert norm == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)


def test_scenario_integral_solutions(replayed):
    trace, _ = replayed
    assert _step(trace, "scenario1-integral")["y"] == pytest.approx([1.0, 0.0])
    assert _step(trace, "scenario2-integral")["y"] == pytest.approx([1.0, 0.0])
