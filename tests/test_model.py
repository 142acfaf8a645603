import numpy as np
import pytest

from micpkit.bruteforce import brute_force
from micpkit.errors import AssumptionViolation, ModelError
from micpkit.expr import Affine, LogSumExp, NormAffine, PowerAffine, Softplus, SquaredNorm, WeightedSum
from micpkit.model import (
    LinearObjective,
    ModelInstance,
    VariableSpec,
    check_assumptions,
    epigraph_bounds,
    epigraph_reformulate,
)


def test_variable_validation():
    with pytest.raises(ModelError):
        VariableSpec("x", "binary", 0, 2)
    with pytest.raises(ModelError):
        VariableSpec("x", "integer", 0.5, 3)
    with pytest.raises(ModelError):
        VariableSpec("x", "continuous", 0, np.inf)
    with pytest.raises(ModelError):
        VariableSpec("x", "continuous", 2, 1)


def test_epigraph_square_objective():
    m = ModelInstance(
        variables=[VariableSpec("x", "continuous", 0, 1)],
        objective=PowerAffine([1.0], 0.0, 2.0),
    )
    ref = epigraph_reformulate(m)
    assert ref.n == 2
    assert ref.has_linear_objective()
    assert np.allclose(ref.objective.c, [0.0, 1.0])
    # epigraph row couples the objective and the new variable
    x = np.array([0.5, 0.25])
    assert ref.convex[-1].value(x) == pytest.approx(0.0, abs=1e-12)
    # eta bounds enclose the objective range over the box
    eta = ref.variables[-1]
    assert eta.lb <= 0.0 and eta.ub >= 1.0


def test_epigraph_linear_objective_unchanged():
    m = ModelInstance(
        variables=[VariableSpec("y11", "integer", 0, 10), VariableSpec("y12", "integer", 0, 10)],
        objective=LinearObjective([0.5, 1.0]),
    )
    assert epigraph_reformulate(m) is m


def test_epigraph_preserves_optimum():
    rng = np.random.default_rng(33)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        variables = [VariableSpec(f"i{k}", "integer", -1, 2) for k in range(n)]
        x0 = rng.uniform(-0.5, 0.5, n)
        obj = WeightedSum([SquaredNorm(np.eye(n), -x0)])
        g = WeightedSum([Softplus(rng.normal(size=n)), Affine(np.zeros(n), -2.0)])
        m = ModelInstance(variables=variables, objective=obj, convex=[g])
        direct = brute_force(m)
        # reformulated by hand and brute-forced again
        again = brute_force(epigraph_reformulate(m))
        assert direct.status == again.status == "optimal"
        assert direct.value == pytest.approx(again.value, abs=1e-8)


def test_epigraph_bounds_reject_huge_support():
    expr = Softplus(np.ones(25))
    with pytest.raises(ModelError):
        epigraph_bounds(expr, np.zeros(25), np.ones(25))


def test_check_assumptions_flags():
    variables = [VariableSpec("x", "binary", 0, 1),
                 VariableSpec("y", "integer", 0, 3),
                 VariableSpec("z", "continuous", -1, 1)]
    separable = WeightedSum([
        NormAffine([[1.0, 0.0, 0.0]]),               # nonsmooth, binary block only
        PowerAffine([0.0, 1.0, 1.0], 0.0, 2.0),      # smooth, other block
    ])
    smooth_mixed = LogSumExp([[1.0, 1.0, 0.5]], [0.0])
    bad = NormAffine([[1.0, 1.0, 0.0]])              # nonsmooth and coupling
    m = ModelInstance(
        variables=variables, objective=LinearObjective([1, 0, 0]),
        convex=[separable, smooth_mixed, bad], param_block=[0],
    )
    with pytest.raises(AssumptionViolation) as err:
        check_assumptions(m)
    assert "rows [2] " in str(err.value)
    # a coupling norm objective is named as the objective; split across the
    # blocks, it passes
    m.convex, m.objective = [separable, smooth_mixed], bad
    with pytest.raises(AssumptionViolation) as err:
        check_assumptions(m)
    assert "['objective']" in str(err.value)
    m.objective = WeightedSum([NormAffine([[1.0, 0.0, 0.0]]), NormAffine([[0.0, 1.0, 0.0]])])
    assert check_assumptions(m) is None


def test_structure_report_monotone():
    """Adding rows never changes the verdict on the rows already there."""
    variables = [VariableSpec("x", "binary", 0, 1), VariableSpec("y", "continuous", -1, 1)]
    base = [LogSumExp([[1.0, 1.0]], [0.0])]     # smooth, coupling
    extra = WeightedSum([Softplus([1.0, 0.0]), PowerAffine([0.0, 1.0], 0.0, 2.0)])
    coupled = NormAffine([[1.0, 1.0]])          # nonsmooth and coupling
    for convex in (base, base + [extra]):
        m = ModelInstance(variables=variables, objective=LinearObjective([1, 0]),
                          convex=convex, param_block=[0])
        assert check_assumptions(m) is None
    m.convex = base + [extra, coupled]
    with pytest.raises(AssumptionViolation) as err:
        check_assumptions(m)
    assert "rows [2] " in str(err.value)
