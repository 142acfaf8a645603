"""Seeded random instance generators, planted-point feasible by construction."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ModelError
from .expr import Affine, LogSumExp, NormAffine, PowerAffine, Softplus, SquaredNorm, WeightedSum
from .model import LinearObjective, ModelInstance, VariableSpec
from .twostage import AmbiguitySet, Scenario, TwoStageInstance

PROFILES = ("micp-smooth", "micp-separable", "twostage-small")


def _shifted(atom, point, slack):
    """atom(x) - atom(point) - slack <= 0 keeps ``point`` strictly feasible."""
    return WeightedSum([atom, Affine(np.zeros(atom.dim), -atom.value(point) - slack)])


def _smooth_atom(rng, n, support=None):
    kind = int(rng.integers(0, 3))
    sup = np.arange(n) if support is None else np.asarray(support)
    if kind == 0:
        v = np.zeros(n)
        v[sup] = rng.normal(size=sup.size)
        return Softplus(v, float(rng.normal()) * 0.5)
    if kind == 1:
        A = np.zeros((2, n))
        A[:, sup] = rng.normal(size=(2, sup.size)) * 0.7
        return LogSumExp(A, rng.normal(size=2) * 0.3)
    A = np.zeros((2, n))
    A[:, sup] = rng.normal(size=(2, sup.size)) * 0.6
    return SquaredNorm(A, rng.normal(size=2) * 0.3)


def generate_micp(seed, separable=False):
    """Random bounded mixed-integer convex model around a planted point."""
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 5))
    ni = int(rng.integers(0, 4))
    nc = int(rng.integers(1, 3)) if rng.random() < 0.7 else 0
    variables = []
    planted = []
    for k in range(nb):
        variables.append(VariableSpec(f"b{k}", "binary", 0, 1))
        planted.append(float(rng.integers(0, 2)))
    for k in range(ni):
        lo = int(rng.integers(-2, 1))
        hi = lo + int(rng.integers(1, 6))
        variables.append(VariableSpec(f"i{k}", "integer", lo, hi))
        planted.append(float(rng.integers(lo, hi + 1)))
    for k in range(nc):
        lo = float(rng.uniform(-2, 0))
        hi = lo + float(rng.uniform(1, 3))
        variables.append(VariableSpec(f"c{k}", "continuous", lo, hi))
        planted.append(float(rng.uniform(lo, hi)))
    n = len(variables)
    planted = np.asarray(planted)

    binaries = list(range(nb))
    rest = list(range(nb, n))
    convex = []
    for _ in range(int(rng.integers(1, 4))):
        slack = float(rng.uniform(0.3, 1.5))
        if separable and rest:
            ga = _smooth_atom(rng, n, support=np.asarray(binaries))
            gb = (
                _smooth_atom(rng, n, support=np.asarray(rest))
                if rng.random() < 0.75
                else NormAffine(_mask_rows(rng, n, rest), None)
            )
            atom = WeightedSum([ga, gb], [1.0, 1.0])
        else:
            atom = _smooth_atom(rng, n)
        convex.append(_shifted(atom, planted, slack))

    m = int(rng.integers(0, 3))
    A = rng.normal(size=(m, n)) if m else None
    b = (A @ planted + rng.uniform(0.2, 1.5, size=m)) if m else None

    if not separable and rng.random() < 0.25:
        objective = _shifted(_smooth_atom(rng, n), planted, 0.0)
    else:
        objective = LinearObjective(rng.normal(size=n).round(3))
    return ModelInstance(
        variables=variables, objective=objective, A_ub=A, b_ub=b, convex=convex,
        param_block=binaries if separable else None,
    )


def _mask_rows(rng, n, support):
    A = np.zeros((2, n))
    A[:, support] = rng.normal(size=(2, len(support))) * 0.5
    return A


def generate_twostage(seed):
    """Random two-stage instance with relatively complete recourse by design."""
    rng = np.random.default_rng(seed)
    l1 = int(rng.integers(2, 5))
    n_sc = int(rng.integers(2, 5))
    c = rng.uniform(0.2, 2.0, size=l1).round(3)
    x_names = [f"x{k}" for k in range(l1)]
    # one covering row keeps the first stage nonempty
    A = -np.ones((1, l1))
    b = np.array([-1.0])

    scenarios = []
    for w in range(n_sc):
        ny_i = int(rng.integers(1, 3))
        ny_c = 1 if rng.random() < 0.3 else 0
        y_vars = [VariableSpec(f"s{w}y{k}", "integer", 0, int(rng.integers(2, 4)))
                  for k in range(ny_i)]
        y_vars += [VariableSpec(f"s{w}c{k}", "continuous", 0.0, 3.0) for k in range(ny_c)]
        ny = len(y_vars)
        q = rng.uniform(0.2, 2.0, size=ny).round(3)
        planted_y = np.array([v.ub for v in y_vars], dtype=float)
        constraints = []
        for _ in range(int(rng.integers(1, 3))):
            s_j = rng.uniform(0.3, 1.5, size=ny).round(3)
            t_j = rng.uniform(-1.0, 1.0, size=l1).round(3)
            r_j = float(rng.uniform(-0.5, 0.5))
            coeffs = np.concatenate([t_j, s_j])
            outer = int(rng.integers(0, 2))
            if outer == 0:
                atom = Softplus(coeffs, r_j)
            else:
                atom = PowerAffine(coeffs, r_j, 2.0)
            # an upper bound whose slack covers every binary x at the planted y
            worst = -np.inf
            for bits in itertools.product((0.0, 1.0), repeat=l1):
                pt = np.concatenate([bits, planted_y])
                worst = max(worst, atom.value(pt))
            constraints.append(WeightedSum(
                [atom, Affine(np.zeros(l1 + ny), -worst + float(rng.uniform(-1.2, -0.1)))]
            ))
        # at least one binding coupling row so the recourse depends on x
        s_j = rng.uniform(0.5, 1.5, size=ny).round(3)
        t_j = rng.uniform(0.2, 1.0, size=l1).round(3)
        need = float(s_j @ planted_y) * rng.uniform(0.3, 0.8)
        constraints.append(WeightedSum(
            [Softplus(np.concatenate([t_j, -s_j]), 0.0),
             Affine(np.zeros(l1 + ny), -float(np.log1p(np.exp(t_j.sum() - need))))]
        ))
        scenarios.append(Scenario(f"w{w}", q, y_vars, constraints))

    style = int(rng.integers(0, 3))
    if style == 0:
        p = rng.uniform(0.5, 1.5, size=n_sc)
        p /= p.sum()
        ambiguity = AmbiguitySet.singleton(p.round(6) / p.round(6).sum())
    elif style == 1:
        ambiguity = AmbiguitySet(n_sc)
    else:
        center = np.full(n_sc, 1.0 / n_sc)
        radius = float(rng.uniform(0.05, 0.3))
        Aub = np.vstack([np.eye(n_sc), -np.eye(n_sc)])
        bub = np.concatenate([np.minimum(center + radius, 1.0), -np.maximum(center - radius, 0.0)])
        ambiguity = AmbiguitySet(n_sc, Aub, bub)
    return TwoStageInstance(
        c=c, x_names=x_names, scenarios=scenarios, ambiguity=ambiguity,
        A_ub=A, b_ub=b, first_convex=[],
    )


def generate_instance(seed, profile):
    if profile == "micp-smooth":
        return generate_micp(seed, separable=False)
    if profile == "micp-separable":
        return generate_micp(seed, separable=True)
    if profile == "twostage-small":
        return generate_twostage(seed)
    raise ModelError(f"unknown profile {profile!r}; choose from {PROFILES}")
