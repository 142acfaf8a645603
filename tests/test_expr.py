import numpy as np
import pytest

from micpkit.errors import ModelError
from micpkit.expr import (
    Affine,
    LogSumExp,
    NormAffine,
    PowerAffine,
    Softplus,
    SquaredNorm,
    WeightedSum,
    expr_from_dict,
    separable_blocks,
)


def _atoms(rng, n):
    return [
        Affine(rng.normal(size=n), rng.normal()),
        Softplus(rng.normal(size=n), rng.normal()),
        LogSumExp(rng.normal(size=(3, n)), rng.normal(size=3)),
        PowerAffine(rng.normal(size=n), rng.normal(), 2.0),
        PowerAffine(rng.normal(size=n), rng.normal(), 1.0),
        PowerAffine(rng.normal(size=n), rng.normal(), 3.5),
        SquaredNorm(rng.normal(size=(2, n)), rng.normal(size=2)),
        NormAffine(rng.normal(size=(2, n)), rng.normal(size=2)),
        WeightedSum(
            [Softplus(rng.normal(size=n)), SquaredNorm(rng.normal(size=(2, n)))],
            rng.uniform(0.1, 2.0, size=2),
            rng.normal(),
        ),
    ]


def test_softplus_value_matches_reference():
    u = 0.5 + 0.48
    expr = Softplus([1.0, 1.0])
    val = expr.value([0.5, 0.48])
    assert val == pytest.approx(np.log1p(np.exp(u)), abs=1e-12)


def test_norm_at_kink_returns_zero_subgradient():
    expr = NormAffine(np.eye(2))
    val, sub = expr.value([0.0, 0.0]), expr.subgrad([0.0, 0.0])
    assert val == 0.0
    assert np.all(sub == 0.0)


def test_affine_subgradient_is_coefficient_vector():
    a = np.array([2.0, -1.0, 0.5])
    expr = Affine(a, 3.0)
    for point in (np.zeros(3), np.ones(3), np.array([5.0, -2.0, 0.1])):
        val, sub = expr.value(point), expr.subgrad(point)
        assert np.allclose(sub, a)
        assert val == pytest.approx(float(a @ point) + 3.0)


def test_subgradient_inequality_every_atom():
    # expr(z) >= expr(x) + g.(z - x) on 1000 random pairs per atom
    rng = np.random.default_rng(42)
    n = 4
    for expr in _atoms(rng, n):
        pts = rng.normal(size=(1000, n)) * 2.0
        zs = rng.normal(size=(1000, n)) * 2.0
        for x, z in zip(pts, zs):
            vx, g = expr.value(x), expr.subgrad(x)
            vz = expr.value(z)
            assert vz >= vx + g @ (z - x) - 1e-9


def test_smooth_surrogates_match_finite_differences():
    rng = np.random.default_rng(3)
    n = 3
    for expr in _atoms(rng, n):
        if not expr.smooth_everywhere:
            continue
        x = rng.normal(size=n) * 0.5
        eps = 1e-6
        fd = np.array([
            (expr.value(x + eps * np.eye(n)[j]) - expr.value(x - eps * np.eye(n)[j])) / (2 * eps)
            for j in range(n)
        ])
        assert np.allclose(expr.grad(x), fd, atol=1e-5)
        fdh = np.array([
            (expr.grad(x + eps * np.eye(n)[j]) - expr.grad(x - eps * np.eye(n)[j])) / (2 * eps)
            for j in range(n)
        ])
        assert np.allclose(expr.hess(x), fdh.T, atol=1e-4)


def test_restrict_is_partial_evaluation():
    rng = np.random.default_rng(7)
    for expr in _atoms(rng, 5):
        keep = [0, 2, 4]
        pinned = [1, 3]
        vals = np.array([0.7, -1.2])
        sub = expr.restrict(keep, pinned, vals)
        x = rng.normal(size=5)
        x[pinned] = vals
        assert sub.value(x[keep]) == pytest.approx(expr.value(x), abs=1e-12)


def test_embed_round_trip():
    rng = np.random.default_rng(11)
    expr = Softplus(rng.normal(size=3), 0.2)
    big = expr.embed(6, [1, 3, 5])
    x = rng.normal(size=6)
    assert big.value(x) == pytest.approx(expr.value(x[[1, 3, 5]]))


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    for expr in _atoms(rng, 4):
        clone = expr_from_dict(expr.to_dict())
        x = rng.normal(size=4)
        assert clone.value(x) == pytest.approx(expr.value(x), abs=1e-12)
        assert np.allclose(clone.subgrad(x), expr.subgrad(x), atol=1e-12)


def test_dimension_mismatch_rejected():
    expr = Softplus([1.0, 2.0])
    with pytest.raises(ModelError):
        expr.value([1.0, 2.0, 3.0])


def test_weighted_sum_rejects_negative_weights():
    with pytest.raises(ModelError):
        WeightedSum([Affine([1.0])], [-1.0])


def test_separable_blocks_detection():
    psi = Softplus([1.0, 0.0, 0.0])
    phi = SquaredNorm([[0.0, 1.0, 1.0]])
    assert separable_blocks(WeightedSum([psi, phi]), [0], [1, 2])
    mixer = Softplus([1.0, 1.0, 0.0])
    assert not separable_blocks(mixer, [0], [1, 2])
