import warnings

import numpy as np
import pytest
from atom_derivatives import grad, hess
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert np.allclose(grad(expr, x), fd, atol=1e-5)
        fdh = np.array([
            (grad(expr, x + eps * np.eye(n)[j]) - grad(expr, x - eps * np.eye(n)[j])) / (2 * eps)
            for j in range(n)
        ])
        assert np.allclose(hess(expr, x), fdh.T, atol=1e-4)


def _same_atom(got, expr):
    """``got`` keeps the class of ``expr`` and, for a power, its exponent."""
    assert type(got) is type(expr)
    assert getattr(got, "p", None) == getattr(expr, "p", None)


def test_restrict_is_partial_evaluation():
    rng = np.random.default_rng(7)
    for expr in _atoms(rng, 5):
        keep = [0, 2, 4]
        pinned = [1, 3]
        vals = np.array([0.7, -1.2])
        sub = expr.restrict(keep, pinned, vals)
        _same_atom(sub, expr)
        x = rng.normal(size=5)
        x[pinned] = vals
        assert sub.value(x[keep]) == pytest.approx(expr.value(x), abs=1e-12)


def test_embed_round_trip():
    rng = np.random.default_rng(11)
    for expr in _atoms(rng, 3):
        big = expr.embed(6, [1, 3, 5])
        _same_atom(big, expr)
        x = rng.normal(size=6)
        assert big.value(x) == pytest.approx(expr.value(x[[1, 3, 5]]))


# the keys each kind writes: the file format modelio reads and writes
_DICT_KEYS = {
    "affine": ["kind", "a", "b"],
    "softplus": ["kind", "a", "b"],
    "logsumexp": ["kind", "A", "b"],
    "power": ["kind", "a", "b", "p"],
    "squared_norm": ["kind", "A", "b"],
    "norm": ["kind", "A", "b"],
    "sum": ["kind", "weights", "const", "terms"],
}


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    for expr in _atoms(rng, 4):
        d = expr.to_dict()
        assert list(d) == _DICT_KEYS[expr.kind]
        clone = expr_from_dict(d)
        assert clone.to_dict() == d
        x = rng.normal(size=4)
        assert clone.value(x) == pytest.approx(expr.value(x), abs=1e-12)
        assert np.allclose(clone.subgrad(x), expr.subgrad(x), atol=1e-12)


def test_dimension_mismatch_rejected():
    expr = Softplus([1.0, 2.0])
    with pytest.raises(ModelError):
        expr.value([1.0, 2.0, 3.0])


def test_a_2d_array_is_always_a_stack():
    expr = WeightedSum([SquaredNorm(np.eye(3), np.ones(3)), Softplus([1.0, -1.0, 2.0])])
    row = np.array([[0.5, -1.0, 2.0]])
    # a (1, n) row is a stack of one point, not the point itself
    v, g = expr.value(row), expr.subgrad(row)
    assert v.shape == (1,) and g.shape == (1, 3)
    assert v[0] == expr.value(row[0]) and np.array_equal(g[0], expr.subgrad(row[0]))
    # an (n, 1) column is a stack of n points of dimension 1
    with pytest.raises(ModelError, match="point has dimension 1"):
        expr.value(row.T)
    # any other shape is flattened into one point
    assert expr.value(row.reshape(1, 1, 3)) == expr.value(row[0])


def test_weighted_sum_rejects_negative_weights():
    with pytest.raises(ModelError):
        WeightedSum([Affine([1.0])], [-1.0])


def test_separable_blocks_detection():
    psi = Softplus([1.0, 0.0, 0.0])
    phi = SquaredNorm([[0.0, 1.0, 1.0]])
    assert separable_blocks(WeightedSum([psi, phi]), [0], [1, 2])
    mixer = Softplus([1.0, 1.0, 0.0])
    assert not separable_blocks(mixer, [0], [1, 2])


_LEAVES = ("affine", "softplus", "logsumexp", "power", "squared_norm", "norm")


def _leaf(kind, rng, n, x_kink):
    """A leaf of ``kind``; with an integer point ``x_kink`` its data are
    integers too, and the inner map vanishes exactly at ``x_kink``."""
    if x_kink is None:
        a, b, A, r = rng.normal(size=n), rng.normal(), rng.normal(size=(2, n)), rng.normal(size=2)
    else:
        a, A = rng.integers(-3, 4, n).astype(float), rng.integers(-3, 4, (2, n)).astype(float)
        b, r = -(a @ x_kink), -(A @ x_kink)
    return {
        "affine": lambda: Affine(a, b),
        "softplus": lambda: Softplus(a, b),
        "logsumexp": lambda: LogSumExp(A, r),
        "power": lambda: PowerAffine(a, b, float(rng.choice([1.0, 1.5, 2.0, 3.5]))),
        "squared_norm": lambda: SquaredNorm(A, r),
        "norm": lambda: NormAffine(A, r),
    }[kind]()


def _tree(rng, n, depth, x_kink):
    """A ``WeightedSum`` of up to three subtrees (zero weights included), or a leaf."""
    if depth == 0 or rng.random() < 0.3:
        return _leaf(str(rng.choice(_LEAVES)), rng, n, x_kink)
    k = int(rng.integers(1, 4))
    weights = rng.uniform(0.0, 2.0, k) * (rng.random(k) < 0.8)
    return WeightedSum([_tree(rng, n, depth - 1, x_kink) for _ in range(k)], weights, rng.normal())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 6),
       kind=st.sampled_from(_LEAVES + ("sum",)), kink=st.booleans())
def test_a_stack_of_points_matches_the_per_point_calls(seed, n, m, kind, kink):
    rng = np.random.default_rng(seed)
    if kink:
        # integer data and points, one of them on the kink: every inner map is exact
        x_kink = rng.integers(-2, 3, n).astype(float)
        X = rng.integers(-2, 3, (m, n)).astype(float)
        X[rng.integers(m)] = x_kink
    else:
        x_kink = None
        X = 2.0 * rng.normal(size=(m, n))
    expr = _tree(rng, n, 2, x_kink) if kind == "sum" else _leaf(kind, rng, n, x_kink)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, subgrads = expr.value(X), expr.subgrad(X)
        rows = [(expr.value(x), expr.subgrad(x)) for x in X]
    assert values.shape == (m,) and subgrads.shape == (m, n)
    for v, g, (want_v, want_g) in zip(values, subgrads, rows):
        assert type(want_v) is float
        assert want_g.shape == (n,)
        assert abs(v - want_v) <= 1e-12 * (1.0 + abs(want_v))
        assert np.all(np.abs(g - want_g) <= 1e-12 * (1.0 + np.abs(want_g)))
    if kink and kind in ("norm", "power"):
        # at the kink a stacked row is the element the per-point call returns
        for x, v, g, (_, want_g) in zip(X, values, subgrads, rows):
            if np.array_equal(x, x_kink):
                assert v == 0.0 and not g.any()
                assert np.array_equal(g, want_g)
