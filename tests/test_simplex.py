import itertools

import numpy as np
import pytest

from micpkit.errors import ModelError
from micpkit.simplex import LpProblem, lp_dual_certificate, lp_solve


def _random_lp(rng, n=None, m=None, with_eq=True):
    n = n or int(rng.integers(1, 9))
    m = m if m is not None else int(rng.integers(0, 11))
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    lb = x0 - rng.uniform(0.5, 3.0, size=n)
    ub = x0 + rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    meq = int(rng.integers(0, 3)) if with_eq else 0
    Ae = rng.normal(size=(meq, n))
    be = Ae @ x0
    return LpProblem.build(c, A, b, Ae if meq else None, be if meq else None, lb, ub)


def test_master_relaxation_fractional_point():
    # min x1 + 2 x2 + eta s.t. 3 x1 + x2 >= 2, x in [0,1]^2, eta >= 0
    prob = LpProblem.build([1, 2, 1], [[-3, -1, 0]], [-2], lb=[0, 0, 0], ub=[1, 1, 20])
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x[:2], [2.0 / 3.0, 0.0], atol=1e-9)


def test_infeasible_pair():
    prob = LpProblem.build([1.0], [[1.0], [-1.0]], [0.0, -1.0], lb=[-5], ub=[5])
    assert lp_solve(prob).status == "infeasible"


def test_single_row_duality():
    prob = LpProblem.build([-1.0], [[1.0]], [5.0], lb=[-10], ub=[10])
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0)
    assert sol.dual_ub[0] == pytest.approx(1.0, abs=1e-9)


def test_terminal_scenario_lp_dual():
    # min 0.5 y1 + y2 s.t. y1 + y2 >= 1, y >= 0: unique dual 0.5 on the row
    prob = LpProblem.build([0.5, 1.0], [[-1.0, -1.0]], [-1.0], lb=[0, 0], ub=[10, 10])
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(0.5)
    assert sol.dual_ub[0] == pytest.approx(0.5, abs=1e-9)


def test_strong_duality_random_battery():
    rng = np.random.default_rng(0)
    for _ in range(500):
        prob = _random_lp(rng)
        sol = lp_solve(prob)
        assert sol.status == "optimal"
        scale = 1.0 + abs(sol.obj)
        assert sol.duality_gap() <= 1e-8 * scale
        report = lp_dual_certificate(sol, prob)
        assert report.ok


def test_dual_certificate_flags_perturbed_duals():
    prob = LpProblem.build([-1.0], [[1.0]], [5.0], lb=[-10], ub=[10])
    sol = lp_solve(prob)
    sol.dual_ub = sol.dual_ub + 0.5
    report = lp_dual_certificate(sol, prob)
    assert not report.ok


def _enumerate_vertices(prob):
    """Optimal value via exhaustive active-set enumeration (independent oracle)."""
    n = prob.n
    rows = [(prob.A_ub[i], prob.b_ub[i]) for i in range(prob.A_ub.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append((e, -prob.lb[j]))
        e2 = np.zeros(n)
        e2[j] = 1.0
        rows.append((e2, prob.ub[j]))
    best = np.inf
    k_eq = prob.A_eq.shape[0]
    need = n - k_eq
    for combo in itertools.combinations(range(len(rows)), need):
        A = np.vstack([rows[i][0] for i in combo] + ([prob.A_eq] if k_eq else []))
        b = np.concatenate([[rows[i][1] for i in combo], prob.b_eq if k_eq else np.zeros(0)])
        if np.linalg.matrix_rank(A) < n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        ok = (
            np.all(prob.A_ub @ x <= prob.b_ub + 1e-9)
            and np.all(x >= prob.lb - 1e-9)
            and np.all(x <= prob.ub + 1e-9)
        )
        if k_eq:
            ok = ok and np.all(np.abs(prob.A_eq @ x - prob.b_eq) <= 1e-9)
        if ok:
            best = min(best, float(prob.c @ x))
    return best


def test_agreement_with_vertex_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        prob = _random_lp(rng, n=n, m=m, with_eq=False)
        sol = lp_solve(prob)
        assert sol.status == "optimal"
        ref = _enumerate_vertices(prob)
        assert abs(sol.obj - ref) <= 1e-7 * (1.0 + abs(ref))


def test_agreement_with_vertex_enumeration_eight_vars():
    rng = np.random.default_rng(6)
    for _ in range(2):
        prob = _random_lp(rng, n=8, m=3, with_eq=False)
        sol = lp_solve(prob)
        ref = _enumerate_vertices(prob)
        assert abs(sol.obj - ref) <= 1e-7 * (1.0 + abs(ref))


def test_bounds_must_be_finite():
    with pytest.raises(ModelError):
        LpProblem.build([1.0], None, None, lb=[0.0], ub=[np.inf])
