import itertools

import numpy as np
import pytest

from micpkit.errors import ModelError
from micpkit.simplex import LpProblem, _dual_cleanup, _pivot, lp_dual_certificate, lp_solve


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


def _pivot_row_loop(T, basis, row, col):
    # reference: one row at a time
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def test_pivot_is_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m, k = int(rng.integers(1, 12)), int(rng.integers(2, 15))
        T = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.6)
        row, col = int(rng.integers(m)), int(rng.integers(k - 1))
        T[row, col] = rng.uniform(0.1, 2.0)
        basis = np.arange(m)
        T_ref, basis_ref = T.copy(), basis.copy()
        _pivot(T, basis, row, col)
        _pivot_row_loop(T_ref, basis_ref, row, col)
        assert T.tobytes() == T_ref.tobytes()
        assert np.array_equal(basis, basis_ref)


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


def _battery():
    rng = np.random.default_rng(0)
    return [_random_lp(rng) for _ in range(500)]


def _beale_lp():
    # Beale's example, on which Dantzig pricing can cycle, boxed
    return LpProblem.build(
        [-0.75, 150.0, -1.0 / 50.0, 6.0],
        [[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0], lb=[0.0] * 4, ub=[10.0] * 4,
    )


def _redundant_row_lp():
    # the second equality row is twice the first
    return LpProblem.build(
        [1.0, 2.0, -1.0], [[1.0, 1.0, 1.0]], [4.0],
        [[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]], [1.0, 2.0], lb=[0.0] * 3, ub=[5.0] * 3,
    )


def test_strong_duality_random_battery():
    pivots = 0
    for prob in _battery():
        sol = lp_solve(prob)
        assert sol.status == "optimal"
        scale = 1.0 + abs(sol.obj)
        assert sol.duality_gap() <= 1e-8 * scale
        report = lp_dual_certificate(sol, prob)
        assert report.ok
        pivots += sol.pivots
    # pins the pivot path: a kernel change that pivots differently shows here
    assert pivots == 3011


def test_beale_cycling_lp_terminates_through_bland():
    sol = lp_solve(_beale_lp())
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-1.0 / 20.0, abs=1e-12)
    # Dantzig stalls on the degenerate vertex and Bland's rule finishes
    assert sol.pivots == 60


def test_redundant_equality_row_is_dropped():
    prob = _redundant_row_lp()
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-2.0, abs=1e-12)
    # the artificial of the dependent row stays basic, so the row is dropped
    # and carries no dual
    assert sol.dual_eq[1] == 0.0
    assert lp_dual_certificate(sol, prob).ok


def test_agreement_with_highs():
    optimize = pytest.importorskip("scipy.optimize")
    for prob in _battery() + [_beale_lp(), _redundant_row_lp()]:
        sol = lp_solve(prob)
        ref = optimize.linprog(
            prob.c, A_ub=prob.A_ub if prob.A_ub.size else None, b_ub=prob.b_ub if prob.A_ub.size else None,
            A_eq=prob.A_eq if prob.A_eq.size else None, b_eq=prob.b_eq if prob.A_eq.size else None,
            bounds=list(zip(prob.lb, prob.ub)), method="highs",
        )
        assert sol.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        if ref.status == 0:
            assert abs(sol.obj - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


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


def test_dual_cleanup_restores_a_slightly_negative_basic_value():
    # basic slack s = -1e-6 + z1 + z2 at optimal reduced costs (1, 2): one
    # dual pivot brings z1 in at 1e-6 and keeps the reduced costs optimal
    T = np.array([[-1.0, -1.0, 1.0, -1e-6],
                  [1.0, 2.0, 0.0, 0.0]])
    basis = np.array([2])
    ok, pivots = _dual_cleanup(T, basis, 1e-9, 10)
    assert ok and pivots == 1 and basis.tolist() == [0]
    assert T[0, -1] == pytest.approx(1e-6, abs=1e-15)
    assert np.all(T[-1, :-1] >= 0.0)
    # a row no nonbasic column can raise cannot be cleaned up
    T = np.array([[1.0, 1.0, 1.0, -1e-6], [1.0, 2.0, 0.0, 0.0]])
    assert _dual_cleanup(T, np.array([2]), 1e-9, 10) == (False, 0)
