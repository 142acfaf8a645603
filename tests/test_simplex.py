import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micpkit.barrier import ConvexProgram, convex_solve
from micpkit.bruteforce import brute_force_two_stage
from micpkit.errors import ModelError
from micpkit.model import LinearObjective, ModelInstance, VariableSpec
from micpkit.section6 import build_instance
from micpkit.simplex import LpProblem, LpSolution, _pivot, _Tableau, lp_dual_certificate, lp_solve
from micpkit.twostage import AmbiguitySet, TwoStageInstance


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


def test_rows_without_columns():
    # every variable fixed by the caller: the rows alone decide, 0 <= b_ub
    A = np.zeros((2, 0))
    sol = lp_solve(LpProblem.build(np.zeros(0), A, [1.0, 0.5], lb=np.zeros(0), ub=np.zeros(0)))
    assert sol.status == "optimal"
    assert sol.obj == 0.0 and sol.x.size == 0
    assert sol.dual_ub.shape == (2,)
    sol = lp_solve(LpProblem.build(np.zeros(0), A, [1.0, -1.0], lb=np.zeros(0), ub=np.zeros(0)))
    assert sol.status == "infeasible"
    # any empty matrix keeps one row per right-hand side there, in both
    # containers that allow no columns; None is no rows, whatever b says
    for empty in (np.zeros((0, 0)), np.zeros((3, 0)), []):
        prob = LpProblem.build(np.zeros(0), empty, [1.0, 2.0, 3.0], lb=np.zeros(0), ub=np.zeros(0))
        prog = ConvexProgram(n=0, A_ub=empty, b_ub=[1.0, 2.0, 3.0], lb=np.zeros(0), ub=np.zeros(0))
        assert prob.A_ub.shape == prog.A_ub.shape == (3, 0)
    with pytest.raises(ModelError):
        LpProblem.build(np.zeros(0), None, [1.0], lb=np.zeros(0), ub=np.zeros(0))


def _two_stage(A, b):
    inst = build_instance()
    return TwoStageInstance(c=inst.c, x_names=inst.x_names, scenarios=inst.scenarios,
                            ambiguity=inst.ambiguity, A_ub=A, b_ub=b)


_BOX = {"lb": np.zeros(2), "ub": np.ones(2)}
_VARS = [VariableSpec("x", "binary", 0, 1), VariableSpec("y", "continuous", 0, 1)]

# each container of linear rows over two columns, built from one row block
# (A, b), and the name of that block's attributes
_CONTAINERS = {
    "LpProblem.ub": (lambda A, b: LpProblem.build(np.zeros(2), A, b, **_BOX), "ub"),
    "LpProblem.eq": (lambda A, b: LpProblem.build(np.zeros(2), None, None, A, b, **_BOX), "eq"),
    "ConvexProgram.ub": (lambda A, b: ConvexProgram(n=2, A_ub=A, b_ub=b, **_BOX), "ub"),
    "ConvexProgram.eq": (lambda A, b: ConvexProgram(n=2, A_eq=A, b_eq=b, **_BOX), "eq"),
    "ModelInstance.ub": (lambda A, b: ModelInstance(_VARS, LinearObjective(np.zeros(2)),
                                                    A_ub=A, b_ub=b), "ub"),
    "ModelInstance.eq": (lambda A, b: ModelInstance(_VARS, LinearObjective(np.zeros(2)),
                                                    A_eq=A, b_eq=b), "eq"),
    "TwoStageInstance": (_two_stage, "ub"),
    "AmbiguitySet": (lambda A, b: AmbiguitySet(2, A, b), "ub"),
}


@pytest.mark.parametrize("container", sorted(_CONTAINERS))
def test_every_container_builds_its_rows_by_one_rule(container):
    build, kind = _CONTAINERS[container]

    def block(A, b):
        obj = build(A, b)
        return getattr(obj, f"A_{kind}"), getattr(obj, f"b_{kind}")

    A, b = block(None, None)
    assert A.shape == (0, 2) and b.shape == (0,)
    A, b = block([[1.0, 1.0]], [1.0])
    assert A.shape == (1, 2) and b.tolist() == [1.0]
    for bad_A, bad_b in [(None, [1.0]),                    # a right-hand side but no matrix
                         ([[1.0, 1.0]], None),             # a matrix but no right-hand side
                         ([[1.0, 1.0]], [1.0, 1.0]),       # one row, two right-hand sides
                         (np.ones((2, 2)), [1.0]),         # two rows, one right-hand side
                         ([[1.0, 1.0, 1.0]], [1.0]),       # three columns over two
                         (np.zeros((2, 0)), [1.0, 1.0])]:  # no columns over two
        with pytest.raises(ModelError):
            build(bad_A, bad_b)


def test_mismatched_rows_raise_a_typed_error_where_they_used_to_solve():
    # one first-stage row with two right-hand sides: the oracle answered
    # "optimal" on it while dr_solve raised
    with pytest.raises(ModelError):
        brute_force_two_stage(_two_stage([[-3.0, -1.0]], [-2.0, 5.0]))
    # a right-hand side with no matrix was dropped, and the solve said "optimal"
    with pytest.raises(ModelError):
        convex_solve(ConvexProgram(n=1, c=[1.0], b_ub=[-0.5], lb=[0.0], ub=[1.0]))
    # two rows, one right-hand side: a raw numpy error from inside the solve
    with pytest.raises(ModelError):
        convex_solve(ConvexProgram(n=1, c=[1.0], A_ub=np.ones((2, 1)), b_ub=[-0.5],
                                   lb=[0.0], ub=[1.0]))


def test_dual_certificate_prices_rows_without_columns():
    # the 0-column LP decompose_solve reaches: the row 0 <= 1 has slack 1,
    # so a multiplier of 1 on it breaks complementarity
    prob = LpProblem.build(np.zeros(0), np.zeros((1, 0)), [1.0], lb=np.zeros(0), ub=np.zeros(0))
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    sol.dual_ub = np.array([1.0])
    report = lp_dual_certificate(sol, prob)
    assert report.res_compl == 1.0
    assert report.ok is False


def test_dual_certificate_rejects_multipliers_of_the_wrong_sign():
    # min x s.t. -x <= 0, 0 <= x <= 2, at x = 0: both pairs below leave every
    # stationarity, feasibility and complementarity residual at 0, but each
    # has a negative multiplier on an inequality
    prob = LpProblem.build([1.0], [[-1.0]], [0.0], lb=[0.0], ub=[2.0])
    for dual_ub, dual_lb in ((2.0, -1.0), (-1.0, 2.0)):
        sol = LpSolution(status="optimal", x=np.zeros(1), obj=0.0, dual_ub=np.array([dual_ub]),
                         dual_eq=np.zeros(0), dual_lb=np.array([dual_lb]),
                         dual_ubound=np.zeros(1), dual_obj=0.0)
        report = lp_dual_certificate(sol, prob)
        assert report.res_dual == 1.0
        assert report.ok is False


def _block_report(sol, prob):
    """``lp_dual_certificate``'s residuals block by block: the reference for
    its stacked slacks and multipliers."""
    x, lam, nu, mu_l, mu_u = sol.x, sol.dual_ub, sol.dual_eq, sol.dual_lb, sol.dual_ubound
    stat = prob.c + prob.A_ub.T @ lam
    s = prob.b_ub - prob.A_ub @ x
    res_primal = float(np.max(-s, initial=0.0))
    if prob.b_eq.size:
        stat += prob.A_eq.T @ nu
        res_primal = max(res_primal, float(np.max(np.abs(prob.A_eq @ x - prob.b_eq))))
    stat += mu_u - mu_l
    res_primal = max(res_primal, float(np.max(prob.lb - x, initial=0.0)),
                     float(np.max(x - prob.ub, initial=0.0)))
    res_dual = max(float(np.max(np.abs(stat), initial=0.0)),
                   *(float(np.max(-d, initial=0.0)) for d in (lam, mu_l, mu_u)))
    res_compl = max(float(np.max(np.abs(lam * s), initial=0.0)),
                    float(np.max(np.abs(mu_l * (x - prob.lb)), initial=0.0)),
                    float(np.max(np.abs(mu_u * (prob.ub - x)), initial=0.0)))
    return res_primal, res_dual, res_compl


def _lp_with_fixed_columns(rng):
    prob = _random_lp(rng)
    fixed = rng.random(prob.n) < 0.3
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[fixed] = ub[fixed] = 0.5 * (lb + ub)[fixed]
    return LpProblem.build(prob.c, prob.A_ub, prob.b_ub, prob.A_eq, prob.b_eq, lb, ub)


def test_stacked_dual_certificate_equals_the_block_formulas():
    rng = np.random.default_rng(3)
    zero_columns = LpProblem.build(np.zeros(0), np.zeros((1, 0)), [1.0], lb=np.zeros(0), ub=np.zeros(0))
    probs = [zero_columns] + [_random_lp(rng) for _ in range(100)] + [_lp_with_fixed_columns(rng)
                                                                     for _ in range(100)]
    assert any(p.b_eq.size for p in probs) and any((p.lb == p.ub).any() for p in probs)
    checked = 0
    for prob in probs:
        entries = np.concatenate([prob.c, prob.A_ub.ravel(), prob.b_ub, prob.A_eq.ravel(),
                                  prob.b_eq, prob.lb, prob.ub])
        assert prob.scale() == max(1.0, float(np.abs(entries).max(initial=0.0)))
        sol = lp_solve(prob)
        if sol.status != "optimal":
            continue
        # the solve's duals, then duals of either sign and off every bound
        for _ in range(2):
            report = lp_dual_certificate(sol, prob)
            assert (report.res_primal, report.res_dual, report.res_compl) == _block_report(sol, prob)
            sol.dual_ub, sol.dual_eq, sol.dual_lb, sol.dual_ubound = (
                rng.normal(size=d.size) for d in (sol.dual_ub, sol.dual_eq, sol.dual_lb, sol.dual_ubound))
        checked += 1
    assert checked > 150


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
    # Beale's example, on which Dantzig pricing in the primal can cycle, boxed
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
    assert pivots == 1267


def test_final_basis_places_every_nonbasic_column_at_a_bound():
    for prob in itertools.islice(_battery(), 100):
        sol = lp_solve(prob)
        n, m_ub = prob.n, prob.b_ub.size
        m = m_ub + prob.b_eq.size
        assert sol.basic.shape == (m,) and np.unique(sol.basic).size == m
        nonbasic = np.ones(n + m, dtype=bool)
        nonbasic[sol.basic] = False
        assert not sol.at_upper[~nonbasic].any()
        cols = nonbasic[:n].nonzero()[0]
        at = np.where(sol.at_upper[cols], prob.ub[cols], prob.lb[cols])
        assert np.array_equal(sol.x[cols], at)
        # a nonbasic slack is at zero, so its row is tight; an inequality's
        # slack has no upper bound to sit at
        slack = np.concatenate([prob.b_ub - prob.A_ub @ sol.x, prob.b_eq - prob.A_eq @ sol.x])
        assert np.abs(slack[nonbasic[n:]]).max(initial=0.0) <= 1e-9 * (1.0 + prob.scale())
        assert not sol.at_upper[n:n + m_ub].any()


def test_beale_cycling_lp_terminates():
    sol = lp_solve(_beale_lp())
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-1.0 / 20.0, abs=1e-12)
    # the dual simplex starts away from the degenerate vertex and terminates
    assert sol.pivots == 2


def test_blands_rule_reaches_the_same_optimum():
    # Bland's rule takes over after a run of degenerate pivots; forced from
    # the first pivot it reaches the optimum the default pricing reaches
    for prob in _battery()[:100] + [_beale_lp(), _redundant_row_lp()]:
        tab = _Tableau(prob)
        tab.stall_limit = -1
        status, pivots, _ = tab.run()
        assert status == "optimal"
        sol = tab.solution(prob, pivots)
        ref = lp_solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.obj - ref.obj) <= 1e-9 * (1.0 + abs(ref.obj))


def test_redundant_equality_row_is_dropped():
    prob = _redundant_row_lp()
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-2.0, abs=1e-12)
    # the slack of the dependent row stays basic at zero, so the row carries
    # no dual
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


def test_row_violated_by_a_millionth_at_the_start():
    # min z1 + 2 z2 s.t. z1 + z2 >= 1e-6: the slack basis leaves the row's
    # slack at -1e-6 under optimal reduced costs (1, 2), and one dual pivot
    # brings z1 in at 1e-6
    prob = LpProblem.build([1.0, 2.0], [[-1.0, -1.0]], [-1e-6], lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = lp_solve(prob)
    assert sol.status == "optimal" and sol.pivots == 1
    assert sol.x == pytest.approx([1e-6, 0.0], abs=1e-15)
    assert sol.dual_ub == pytest.approx([1.0], abs=1e-12)
    assert lp_dual_certificate(sol, prob).ok
    # z1 + z2 <= -1e-6: no column can raise the slack, and the row's gap is
    # the reported violation
    prob = LpProblem.build([1.0, 2.0], [[1.0, 1.0]], [-1e-6], lb=[0.0, 0.0], ub=[1.0, 1.0])
    sol = lp_solve(prob)
    assert sol.status == "infeasible" and sol.pivots == 0
    assert sol.max_violation == pytest.approx(1e-6, abs=1e-15)


def test_infeasible_verdict_waits_for_a_refactored_row(monkeypatch):
    # drift that only the recompute after the last pivot shows: row 0 reads
    # infeasible there, and its stale tableau row has no pivot candidate.
    # The verdict must rest on the row recomputed from the basis matrix,
    # which finds the LP feasible.
    rng = np.random.default_rng(5)
    prob = _random_lp(rng, n=4, m=6, with_eq=False)
    cold = lp_solve(prob)
    assert cold.status == "optimal" and cold.pivots
    refactor = _Tableau.refactor
    drifted = []

    def refactor_with_drift(self, full, *args):
        ok = refactor(self, full, *args)
        if not full and not drifted:
            drifted.append(int(self.basic[0]))
            self.T[0, :-1] = 0.0
            self.T[0, self.basic[0]] = 1.0
            self.T[0, -1] = self.lo[self.basic[0]] - 1.0
        return ok

    monkeypatch.setattr(_Tableau, "refactor", refactor_with_drift)
    sol = lp_solve(prob)
    assert drifted
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(cold.obj, abs=1e-9)


# ---------------------------------------------------------------------------
# hard LPs against HiGHS
# ---------------------------------------------------------------------------

_KINDS = ("degenerate", "near-parallel", "tiny-norm", "redundant-equality", "pinned", "capped",
          "infeasible")


def _hard_lp(seed, kind, n, m):
    """A bounded LP with one structural difficulty; feasible unless ``kind``
    is ``infeasible``."""
    rng = np.random.default_rng(seed)
    lb, ub = -rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n)
    c = rng.normal(size=n)
    A_eq = b_eq = None
    if kind == "degenerate":
        # integer data, every row tight at an integer point on the box
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        lb, ub = -np.ones(n) * 2.0, np.ones(n) * 2.0
        x0 = rng.integers(-2, 3, size=n).astype(float)
        b = A @ x0
        c = rng.integers(-2, 3, size=n).astype(float)
    else:
        A = rng.normal(size=(m, n))
        x0 = lb + (ub - lb) * rng.uniform(0.2, 0.8, n)
        b = A @ x0 + rng.uniform(0.0, 1.0, m)
    if kind == "near-parallel" and m >= 2:
        A[1] = A[0] + 1e-9 * rng.normal(size=n)
        b[1] = A[1] @ x0 + 1e-9 * rng.uniform()
    elif kind == "tiny-norm":
        scale = 10.0 ** -rng.uniform(5, 9)
        A[-1] *= scale
        b[-1] = A[-1] @ x0
    elif kind == "redundant-equality":
        E = rng.normal(size=(2, n))
        E = np.vstack([E, E[0] + 2.0 * E[1]])
        A_eq, b_eq = E, E @ x0
    elif kind == "pinned":
        pins = rng.choice(n, size=max(1, n // 2), replace=False)
        lb[pins] = ub[pins] = x0[pins]
    elif kind == "capped":
        # CGLP-like columns: multipliers in [0, 1e6], one free-ish column
        lb[:] = 0.0
        ub[:] = 1e6
        lb[0] = -1e6
        x0 = np.abs(x0)
        b = A @ x0 + rng.uniform(0.0, 1.0, m)
    elif kind == "infeasible":
        # a row no point of the box meets: a.x <= min over the box - 0.5
        a = rng.normal(size=n)
        A = np.vstack([A, a])
        b = np.append(b, float(np.minimum(a * lb, a * ub).sum()) - 0.5)
    return LpProblem.build(c, A, b, A_eq, b_eq, lb, ub)


def _highs(prob):
    """HiGHS on the same LP with every row divided by its infinity norm.

    HiGHS's feasibility tolerance is absolute (1e-7), so it would accept any
    point on a row whose norm is below that; the scaled rows describe the
    same feasible set at a scale it resolves."""
    optimize = pytest.importorskip("scipy.optimize")

    def unit(A, b):
        if not A.size:
            return None, None
        norm = np.abs(A).max(axis=1)
        norm[norm == 0.0] = 1.0
        return A / norm[:, None], b / norm

    A_ub, b_ub = unit(prob.A_ub, prob.b_ub)
    A_eq, b_eq = unit(prob.A_eq, prob.b_eq)
    return optimize.linprog(prob.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=list(zip(prob.lb, prob.ub)), method="highs")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS),
       n=st.integers(1, 8), m=st.integers(1, 10))
def test_hard_lps_agree_with_highs(seed, kind, n, m):
    pytest.importorskip("scipy")
    prob = _hard_lp(seed, kind, n, m)
    sol = lp_solve(prob)
    ref = _highs(prob)
    assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
    if sol.status == "optimal":
        assert abs(sol.obj - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
        assert lp_dual_certificate(sol, prob).ok
    else:
        assert sol.max_violation > 0.0
