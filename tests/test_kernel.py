"""The lowered barrier kernel against the atom trees it is lowered from."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atom_derivatives import grad, hess
from first_stage import full_first_stage
from micpkit import barrier
from micpkit.barrier import ConvexProgram, convex_solve
from micpkit.errors import NumericalFailure
from micpkit.expr import (
    Affine,
    ConvexExpr,
    LogSumExp,
    LoweredRows,
    NormAffine,
    PowerAffine,
    Softplus,
    SquaredNorm,
    WeightedSum,
)
from micpkit.generate import generate_instance


def _close(got, ref, rel=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rel * max(1.0, np.max(np.abs(ref), initial=0.0))


def _check_rows(exprs, x, A=None, b=None, rows=None):
    """Lowered values, Jacobian and weighted curvature against the trees.

    ``rows`` defaults to ``LoweredRows(exprs, A, b)``."""
    n = x.size
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    rows = LoweredRows(exprs, A, b) if rows is None else rows
    y = np.linspace(0.5, 2.0, len(exprs) + A.shape[0])
    _close(rows.values(x)[0], np.concatenate([[g.value(x) for g in exprs], A @ x + b]))
    J, curv = rows.derivatives(x, y)
    _close(J, np.vstack([grad(g, x) for g in exprs] + [A]))
    _close(curv, sum((yi * hess(g, x) for yi, g in zip(y, exprs)), np.zeros((n, n))))


def _restricted(work):
    """A solve's rows over its unpinned coordinates, rebuilt from the atom trees:
    the restricted trees, and the linear rows ``A v <= b`` with the pins moved
    into ``b``.  The reference the lowered rows are checked against."""
    prog, keep, pins, vals = work.prog, work.keep, work.pin_idx, work.pin_val
    return ([g.restrict(keep, pins, vals) for g in prog.convex],
            prog.A_ub[:, keep], prog.b_ub - prog.A_ub[:, pins] @ vals)


def _tree_slack(work, v):
    """Slacks ``-c(v)`` of a solve's rows, evaluated on the atom trees."""
    trees, A, b = _restricted(work)
    return np.concatenate([[-g.value(v) for g in trees], b - A @ v, v - work.lb, work.ub - v])


def _every_kind(n, rng):
    return [
        Affine(rng.normal(size=n), 0.3),
        Softplus(rng.normal(size=n), -0.2),
        LogSumExp(rng.normal(size=(3, n)), rng.normal(size=3)),
        PowerAffine(rng.normal(size=n), 0.1, 2.5),
        SquaredNorm(rng.normal(size=(2, n)), rng.normal(size=2)),
        NormAffine(rng.normal(size=(2, n)), rng.normal(size=2)),
    ]


def test_every_atom_kind_alone_and_stacked():
    rng = np.random.default_rng(5)
    n = 4
    x = rng.normal(size=n)
    atoms = _every_kind(n, rng)
    for atom in atoms:
        _check_rows([atom], x)
    # several leaves of one kind on several rows, plus affine rows
    _check_rows(atoms + _every_kind(n, rng), x, A=rng.normal(size=(3, n)), b=rng.normal(size=3))


def test_nested_weighted_sums_with_zero_weights():
    rng = np.random.default_rng(6)
    n = 3
    x = rng.normal(size=n)
    a, c, d, e, f, g = _every_kind(n, rng)
    inner = WeightedSum([c, e, a], [0.7, 0.0, 2.0], const=-0.4)
    zeroed = WeightedSum([f, d], [1.0, 3.0], const=5.0)
    outer = WeightedSum([inner, zeroed, g, Softplus(rng.normal(size=n))], [1.5, 0.0, 0.25, 1.0], const=0.1)
    _check_rows([outer, inner, WeightedSum([outer, e], [0.5, 0.0])], x)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_power_at_its_kink(p):
    a = np.array([1.0, -2.0, 0.5])
    x = np.array([0.3, 0.4, 1.0])
    atom = PowerAffine(a, -float(a @ x), p)
    assert atom._u(x) == 0.0
    _check_rows([atom, WeightedSum([atom, Affine(np.zeros(3), -1.0)], [2.0, 1.0])], x)


def test_norm_at_zero():
    A = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]])
    x = np.array([0.2, -0.1, 0.7])
    atom = NormAffine(A, -A @ x)
    assert atom.value(x) == 0.0
    _check_rows([atom, WeightedSum([atom, SquaredNorm(A)], [3.0, 1.0])], x)


def test_rows_of_a_program_restricted_with_pins():
    rng = np.random.default_rng(7)
    n = 5
    atoms = _every_kind(n, rng)
    exprs = [WeightedSum([atoms[1], atoms[2], atoms[5]], [1.0, 0.5, 2.0], -3.0),
             WeightedSum([atoms[3], atoms[4], atoms[0]]), atoms[5]]
    A = rng.normal(size=(2, n))
    prog = ConvexProgram(n=n, c=rng.normal(size=n), convex=exprs, A_ub=A, b_ub=rng.normal(size=2),
                         pins={1: 0.25, 3: -0.5}, lb=-np.ones(n), ub=np.ones(n))
    work = barrier._Work(prog)
    assert work.nr == 3
    v = rng.uniform(-0.9, 0.9, size=3)
    eye = np.eye(3)
    trees, A, b = _restricted(work)
    A, b = np.vstack([A, -eye, eye]), np.concatenate([-b, work.lb, -work.ub])
    _check_rows(trees, v, A=A, b=b)
    # the solve's own rows, lowered in full space with the pins folded in
    _check_rows(trees, v, A=A, b=b, rows=work.rows)
    _close(-work.rows.values(v)[0], _tree_slack(work, v))


def test_pinned_solve_calls_no_restrict(monkeypatch):
    # _Work folds the pins into the lowered rows by slicing columns; only the
    # test's reference rebuilds the restricted trees
    rng = np.random.default_rng(8)
    n = 5
    a, c, d, e, f, g = _every_kind(n, rng)
    exprs = [WeightedSum([atom], const=-atom.value(np.zeros(n)) - 0.5) for atom in (a, c, d, e, f, g)]
    exprs.append(WeightedSum([c, d, e, f, g], [0.2, 0.3, 0.4, 0.5, 0.6], -3.0))
    prog = ConvexProgram(n=n, c=rng.normal(size=n), convex=exprs, pins={0: 0.1, 3: -0.2},
                         lb=-np.ones(n), ub=np.ones(n))
    work = barrier._Work(prog)
    v = rng.uniform(-0.5, 0.5, size=work.nr)
    trees, A, b = _restricted(work)
    eye = np.eye(work.nr)

    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__}.restrict called")

    for cls in (ConvexExpr, Affine, Softplus, LogSumExp, PowerAffine, SquaredNorm, NormAffine, WeightedSum):
        monkeypatch.setattr(cls, "restrict", refuse)
    _check_rows(trees, v, A=np.vstack([A, -eye, eye]), b=np.concatenate([-b, work.lb, -work.ub]),
                rows=barrier._Work(prog).rows)
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def _tree_rows(work, v):
    """(gradient, Hessian) of every lowered row at v, from the atom trees."""
    zero, eye = np.zeros((work.nr, work.nr)), np.eye(work.nr)
    trees, A, _ = _restricted(work)
    return ([(grad(g, v), hess(g, v)) for g in trees] + [(a, zero) for a in np.vstack([A, -eye, eye])])


def _loop_newton_matrix(hess_f, rows, s, y):
    """hess f + sum_i y_i hess c_i + (y_i / s_i) grad c_i grad c_i^T, one np.outer per row."""
    K = np.array(hess_f, dtype=float)
    for (grad, hess), si, yi in zip(rows, s, y):
        K = K + yi * hess + yi / si * np.outer(grad, grad)
    return K


def test_newton_matrix_of_both_phases_matches_row_loops():
    x0 = np.array([0.1, -0.2, 0.3])
    exprs = [WeightedSum([SquaredNorm(np.eye(3), -x0), Affine(np.zeros(3), -1.0)]),
             WeightedSum([Softplus([1.0, 1.0, 0.0]), LogSumExp(np.eye(3)[:2], [0.0, 0.1]),
                          Affine(np.zeros(3), -3.0)])]
    prog = ConvexProgram(n=3, c=[1.0, 0.0, 0.0], convex=exprs, A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.5],
                         lb=-2 * np.ones(3), ub=2 * np.ones(3))
    work = barrier._Work(prog)
    v = x0 + 0.05
    s = _tree_slack(work, v)
    assert np.all(s > 0)
    y = np.linspace(0.5, 2.0, s.size)
    rows = _tree_rows(work, v)
    J, K = barrier._newton_matrix(work, v, y, y / s)
    _close(J, np.vstack([grad for grad, _ in rows]))
    _close(K, _loop_newton_matrix(np.zeros((3, 3)), rows, s, y))
    # phase 1 at (v, alpha): the same rows less alpha, each gradient extended by -1
    alpha = 0.7
    rows1 = [(np.append(grad, -1.0), np.pad(hess, (0, 1))) for grad, hess in rows]
    J1, K1 = barrier._newton_matrix(barrier._Phase1(work), np.append(v, alpha), y, y / (s + alpha))
    _close(J1, np.vstack([grad for grad, _ in rows1]))
    _close(K1, _loop_newton_matrix(np.zeros((4, 4)), rows1, s + alpha, y))
    # a projection adds the identity
    proj = barrier._Work(ConvexProgram(n=3, proj_point=x0, convex=exprs, A_ub=[[1.0, 1.0, 1.0]],
                                       b_ub=[1.5], lb=-2 * np.ones(3), ub=2 * np.ones(3)))
    _close(barrier._newton_matrix(proj, v, y, y / s)[1], _loop_newton_matrix(np.eye(3), rows, s, y))


def _plane_and_ball():
    # min x0 on the unit-half ball around (1, 1, -1), inside the plane
    # sum(x) = 1 through its center: the box center moved onto the plane,
    # (1/3, 1/3, 1/3), lies outside the ball, so phase 1 runs
    center = np.array([1.0, 1.0, -1.0])
    ball = WeightedSum([SquaredNorm(np.eye(3), -center), Affine(np.zeros(3), -0.25)])
    prog = ConvexProgram(n=3, c=[1.0, 0.0, 0.0], convex=[ball], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                         lb=-2 * np.ones(3), ub=2 * np.ones(3))
    x_star = center + 0.5 * np.array([-2.0, 1.0, 1.0]) / np.sqrt(6.0)
    return prog, x_star


def test_phase1_on_equality_constrained_program(monkeypatch):
    prog, x_star = _plane_and_ball()
    work = barrier._Work(prog)
    assert np.max(work.rows.values(np.full(3, 1 / 3))[0]) > 0
    ends = []
    pd_solve = barrier._pd_solve

    def recording_pd_solve(prob, z):
        z, status = pd_solve(prob, z)
        ends.append((prob.phase, z, status))
        return z, status

    monkeypatch.setattr(barrier, "_pd_solve", recording_pd_solve)
    cert = convex_solve(prog)
    (phase, z, status), (main, _, _) = ends
    assert (phase, status, main) == ("phase1", "interior", "main")
    v = z[:3]
    assert np.all(_tree_slack(work, v) > 0)
    assert np.max(np.abs(work.E @ v - work.e)) <= 1e-10
    assert cert.status == "optimal"
    assert cert.x == pytest.approx(x_star, abs=1e-8)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_newton_steps_count_every_phase():
    # the non-interior box center sends the solve through phase 1 and the
    # main loop, and an infeasible solve keeps its phase-1 count
    prog, _ = _plane_and_ball()
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert tuple(cert.newton_by_phase) == barrier.NEWTON_PHASES
    assert all(cert.newton_by_phase[k] > 0 for k in barrier.NEWTON_PHASES)
    assert cert.newton_steps == sum(cert.newton_by_phase.values())
    # a ball of radius 0.5 around (1, 1, -1) misses the plane sum(x) = 2 by 1/sqrt(3) - 0.5
    far = ConvexProgram(n=3, c=[1.0, 0.0, 0.0], convex=prog.convex, A_eq=[[1.0, 1.0, 1.0]],
                        b_eq=[2.0], lb=-2 * np.ones(3), ub=2 * np.ones(3))
    cert = convex_solve(far)
    assert cert.status == "infeasible"
    assert 0.0 < cert.violation <= 1 / 3 - 0.25
    assert cert.newton_steps == cert.newton_by_phase["phase1"] > 0
    assert tuple(cert.newton_by_phase) == barrier.NEWTON_PHASES
    assert cert.newton_by_phase["main"] == 0


@pytest.mark.parametrize("fault", ["values", "jacobian", "curvature"])
def test_faulty_kernel_never_certifies_a_wrong_point(monkeypatch, fault):
    # the primal-dual loop reads the lowered rows, and only the certificate
    # reads the atom trees: a broken lowered kernel ends in NumericalFailure
    # or in the true optimum, never in a misplaced point
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    prog = ConvexProgram(n=2, c=[1.0, 0.5], convex=[disk], lb=[-3, -3], ub=[3, 3])
    x_star = -np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    values, derivatives = LoweredRows.values, LoweredRows.derivatives

    def bad_values(self, x):
        c, inner = values(self, x)
        c[: self.k] -= 0.5
        return c, inner

    def bad_derivatives(self, x, y, inner=None):
        J, curv = derivatives(self, x, y, inner)
        if fault == "jacobian":
            J[: self.k] *= -1.0
        return J, (0.0 if fault == "curvature" else 1.0) * curv

    monkeypatch.setattr(LoweredRows, "values", bad_values if fault == "values" else values)
    monkeypatch.setattr(LoweredRows, "derivatives", bad_derivatives)
    try:
        cert = convex_solve(prog)
    except NumericalFailure:
        return
    assert fault != "values"
    assert cert.status == "optimal"
    assert cert.x == pytest.approx(x_star, abs=1e-7)
    assert max(cert.res_stat, cert.res_feas) <= 1e-6


@pytest.mark.parametrize("pinned", [False, True])
def test_solve_needs_no_tree_derivatives(pinned):
    # the primal-dual loop and phase 1 read the lowered rows only; the
    # certificate reads the trees' values and subgradients, and the trees
    # have no smooth derivatives to read
    for cls in (ConvexExpr, Affine, Softplus, LogSumExp, PowerAffine, SquaredNorm, NormAffine, WeightedSum):
        assert not hasattr(cls, "grad") and not hasattr(cls, "hess")
    rng = np.random.default_rng(11)
    n = 4
    a, c, d, e, f, g = _every_kind(n, rng)
    nested = WeightedSum([WeightedSum([c, e], [1.0, 0.5]), g], [1.0, 0.5])
    # every row sits 0.5 below zero at the origin, which is therefore feasible
    exprs = [WeightedSum([atom], const=-atom.value(np.zeros(n)) - 0.5) for atom in (a, c, d, e, f, g, nested)]
    kw = dict(pins={3: 0.2}, A_eq=[[1.0, 1.0, -1.0, 0.5]], b_eq=[0.1]) if pinned else {}
    prog = ConvexProgram(n=n, c=rng.normal(size=n), convex=exprs, lb=-np.ones(n), ub=np.ones(n), **kw)
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert any(cert.active_convex)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


# --- globalization battery: programs a plain residual-norm line search stalled on


@pytest.mark.parametrize("seed", [2020, 2022])
def test_brute_force_two_stage_programs_certify(monkeypatch, seed):
    # these seeds' oracle meets 1-variable programs with x in [0, 3], power and
    # softplus rows and 3 or 6 pins
    from micpkit import bruteforce

    certs = []

    def recording_convex_solve(prog):
        cert = convex_solve(prog)
        certs.append((prog, cert))
        return cert

    monkeypatch.setattr(bruteforce, "convex_solve", recording_convex_solve)
    # every feasible first-stage point, not only those the oracle's bounded walk solves
    _, _, table = full_first_stage(generate_instance(seed, "twostage-small"))
    assert table
    assert any(prog.n - len(prog.pins) == 1 and cert.status == "optimal" for prog, cert in certs)
    for prog, cert in certs:
        assert cert.newton_steps == sum(cert.newton_by_phase.values())
        if cert.status == "optimal":
            assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-7


def test_optimum_at_a_norm_kink():
    # min x0 + x1 - z s.t. ||(x0, x1)|| + z^2 <= 1 on x >= 0: the optimum
    # (0, 0, 1) sits at the norm's kink, where its lowered curvature blows up,
    # and on the lower faces of x, whose multipliers carry the certificate
    row = WeightedSum([NormAffine(np.eye(3)[:2]), PowerAffine([0.0, 0.0, 1.0], 0.0, 2.0),
                       Affine(np.zeros(3), -1.0)])
    prog = ConvexProgram(n=3, c=[1.0, 1.0, -1.0], convex=[row], lb=[0, 0, -2], ub=[2, 2, 2])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)
    assert cert.value == pytest.approx(-1.0, abs=1e-10)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def _random_feasible_program(seed, n, n_rows, pins, equality, projection):
    """Rows of every atom kind, each strictly negative at a point x0 of the box."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.5, 0.5, n)
    exprs = []
    for _ in range(n_rows):
        picks = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
        atoms = _every_kind(n, rng)
        tree = WeightedSum([atoms[i] for i in picks], rng.uniform(0.2, 2.0, picks.size))
        exprs.append(WeightedSum([tree], const=-tree.value(x0) - rng.uniform(0.05, 0.5)))
    A = rng.normal(size=(2, n))
    kw = dict(A_ub=A, b_ub=A @ x0 + rng.uniform(0.0, 0.5, 2))
    if equality:
        E = rng.normal(size=(1, n))
        kw.update(A_eq=E, b_eq=E @ x0)
    if projection:
        kw["proj_point"] = x0 + rng.normal(scale=2.0, size=n)
    else:
        kw["c"] = rng.normal(size=n)
    pinned = {int(i): float(x0[i]) for i in rng.choice(n, size=min(pins, n), replace=False)}
    lb, ub = x0 - rng.uniform(0.3, 2.0, n), x0 + rng.uniform(0.3, 2.0, n)
    return ConvexProgram(n=n, convex=exprs, pins=pinned, lb=lb, ub=ub, **kw), x0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), n_rows=st.integers(1, 4),
       pins=st.integers(0, 2), equality=st.booleans(), projection=st.booleans())
def test_random_feasible_programs_certify(seed, n, n_rows, pins, equality, projection):
    prog, x0 = _random_feasible_program(seed, n, n_rows, pins, equality, projection)
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.newton_steps == sum(cert.newton_by_phase.values())
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-7
    assert cert.value <= prog.objective_value(x0) + 1e-9 * (1.0 + abs(cert.value))


def _loop_columns(prog, x):
    """The certificate's cone block built one column at a time, with each
    column's tag: active convex rows, active linear rows, then active lower
    and upper faces of unpinned coordinates."""
    n, tol = prog.n, barrier.ACTIVE_TOL
    eye = np.eye(n)
    cols, tags = [], []
    for i, g in enumerate(prog.convex):
        if g.value(x) >= -tol:
            cols.append(g.subgrad(x))
            tags.append(("convex", i))
    for j, row in enumerate(prog.A_ub):
        if prog.b_ub[j] - row @ x <= tol:
            cols.append(row)
            tags.append(("ub", j))
    for kind, sign, slack in (("lb", -1.0, x - prog.lb), ("ubound", 1.0, prog.ub - x)):
        for i in range(n):
            if i not in prog.pins and slack[i] <= tol:
                cols.append(sign * eye[i])
                tags.append((kind, i))
    return (np.column_stack(cols) if cols else np.zeros((n, 0))), tags


def _loop_multipliers(prog, x):
    """The certificate's multipliers with the fit's columns built one at a time.

    The fit runs over the unpinned coordinates, with the equality rows as
    free columns, and each pin's multiplier is minus the stationarity
    residual at its coordinate.
    """
    n = prog.n
    N, tags = _loop_columns(prog, x)
    free = [i for i in range(n) if i not in prog.pins]
    grad_f = x - prog.proj_point if prog.is_projection else prog.c
    w, v, _ = barrier.nnls_with_free(N[free], prog.A_eq[:, free].T, -grad_f[free])
    stat = grad_f + N @ w + prog.A_eq.T @ v
    mult = {"convex": np.zeros(len(prog.convex)), "ub": np.zeros(prog.A_ub.shape[0]),
            "lb": np.zeros(n), "ubound": np.zeros(n)}
    for wi, (kind, i) in zip(w, tags):
        mult[kind][i] = wi
    mult["eq"] = v
    mult["pins"] = {i: float(-stat[i]) for i in sorted(prog.pins)}
    return mult


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), n_rows=st.integers(1, 4),
       pins=st.integers(0, 2), equality=st.booleans(), projection=st.booleans())
def test_certificate_multipliers_equal_a_column_loop(seed, n, n_rows, pins, equality, projection):
    prog, _ = _random_feasible_program(seed, n, n_rows, pins, equality, projection)
    cert = convex_solve(prog)
    ref = _loop_multipliers(prog, cert.x)
    for kind in ("convex", "ub", "eq", "lb", "ubound"):
        assert getattr(cert, f"mult_{kind}").tobytes() == ref[kind].tobytes(), kind
    assert cert.mult_pins == ref["pins"]


def _random_small_program(seed, free, pins, interior):
    """1-3 free coordinates, rows of every atom kind, a random box and pins.

    With ``interior`` every row is strictly negative at a point x0 of the
    box; otherwise each row's offset is drawn at random, so many draws are
    infeasible.
    """
    rng = np.random.default_rng(seed)
    n = free + pins
    x0 = rng.uniform(-0.5, 0.5, n)
    exprs = []
    for kind in rng.permutation(6)[: int(rng.integers(1, 5))]:
        atom = _every_kind(n, rng)[kind]
        slack = rng.uniform(0.05, 0.5) if interior else rng.uniform(-0.5, 1.0)
        exprs.append(WeightedSum([atom], const=-atom.value(x0) - slack))
    A = rng.normal(size=(2, n))
    b = A @ x0 + (rng.uniform(0.05, 0.5, 2) if interior else rng.uniform(-1.0, 0.5, 2))
    pinned = {int(i): float(x0[i]) for i in rng.choice(n, size=pins, replace=False)}
    lb, ub = x0 - rng.uniform(0.1, 1.0, n), x0 + rng.uniform(0.1, 1.0, n)
    return ConvexProgram(n=n, c=rng.normal(size=n), convex=exprs, A_ub=A, b_ub=b, pins=pinned,
                         lb=lb, ub=ub)


@pytest.mark.parametrize("prog", [
    *(_random_feasible_program(seed, 4, 3, pins, True, projection)[0]
      for seed, pins, projection in itertools.product(range(4), (1, 2), (False, True))),
    *(_random_small_program(seed, free, pins, True)
      for seed, free, pins in itertools.product(range(4), (1, 3), (1, 2))),
])
def test_sliced_fit_equals_the_unit_column_fit(prog):
    """Dropping the pinned rows from the fit gives the multipliers of the fit
    with a unit column per pin, and leaves no stationarity residual at a pin."""
    cert = convex_solve(prog)
    x, pins = cert.x, sorted(prog.pins)
    N, tags = _loop_columns(prog, x)
    grad_f = x - prog.proj_point if prog.is_projection else prog.c
    F = np.column_stack([prog.A_eq.T, np.eye(prog.n)[:, pins]])
    w_ref, v_ref, _ = barrier.nnls_with_free(N, F, -grad_f)
    w = np.array([getattr(cert, f"mult_{kind}")[i] for kind, i in tags])
    mult_pins = np.array([cert.mult_pins[i] for i in pins])
    _close(np.concatenate([w, cert.mult_eq, mult_pins]), np.concatenate([w_ref, v_ref]))
    stat = grad_f + N @ w + prog.A_eq.T @ cert.mult_eq
    assert np.all(stat[pins] + mult_pins == 0.0)


def _worst_violation(prog, x):
    """The largest violation of a row or a box face at x, on the atom trees."""
    return max([g.value(x) for g in prog.convex] + list(prog.A_ub @ x - prog.b_ub)
               + list(prog.lb - x) + list(x - prog.ub))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free=st.integers(1, 3), pins=st.integers(0, 2),
       interior=st.booleans())
# a norm row whose minimal violation sits at its kink: phase 1 stalls there,
# and only the bound over the norm's subdifferential proves infeasibility
@example(seed=1552719, free=2, pins=2, interior=False)
def test_phase1_bound_never_exceeds_the_minimal_violation(seed, free, pins, interior):
    optimize = pytest.importorskip("scipy.optimize")
    prog = _random_small_program(seed, free, pins, interior)
    bounds = []
    lower_bound = barrier._Phase1._lower_bound

    def recording_lower_bound(self, *args):
        bounds.append(lower_bound(self, *args))
        return bounds[-1]

    with mock.patch.object(barrier._Phase1, "_lower_bound", recording_lower_bound):
        cert = convex_solve(prog)
    if interior:
        assert cert.status == "optimal"
    if cert.status == "infeasible":
        assert cert.violation == max(bounds[-1], 0.0)
        assert cert.newton_by_phase["main"] == 0
    if not bounds:
        return
    # every phase-1 iterate's bound against an independent minimizer of the
    # worst violation over the free coordinates (SLSQP on the atom trees):
    # the violation at any point bounds the minimum from above
    keep = [i for i in range(prog.n) if i not in prog.pins]

    def point(w):
        x = np.array([prog.pins.get(i, 0.0) for i in range(prog.n)])
        x[keep] = w[:-1]
        return x

    def slack(w):
        x = point(w)
        return w[-1] - np.concatenate([[g.value(x) for g in prog.convex], prog.A_ub @ x - prog.b_ub,
                                       prog.lb - x, x - prog.ub])

    start = point(np.append(0.5 * (prog.lb + prog.ub)[keep], 0.0))
    w0 = np.append(start[keep], _worst_violation(prog, start) + 1.0)
    res = optimize.minimize(lambda w: w[-1], w0, method="SLSQP",
                            constraints=[{"type": "ineq", "fun": slack}],
                            options={"ftol": 1e-12, "maxiter": 500})
    upper = min(_worst_violation(prog, start), _worst_violation(prog, point(res.x)))
    assert max(bounds) <= upper + 1e-9 * (1.0 + abs(upper))
    if cert.status == "infeasible":
        # a point whose rows are all below -1e-6 would have ended phase 1 as interior
        assert upper >= -1e-6


def _both_phase_programs():
    """Random programs of every atom kind, with and without pins, equalities
    and a projection objective, whose solves run phase 1, the main phase or both."""
    progs = [_random_feasible_program(seed, 4, 3, pins, equality, projection)[0]
             for seed, (pins, equality, projection)
             in enumerate(itertools.product((0, 1, 2), (False, True), (False, True)))]
    progs += [_random_small_program(seed, 2, pins, False) for seed in range(12) for pins in (0, 2)]
    return progs + [_plane_and_ball()[0]]


def test_carried_inner_evaluation_equals_a_fresh_one(monkeypatch):
    # each Newton matrix reads the inner evaluation that the line search's
    # accepted values call returned (phase 1 slices z[:-1] before it
    # evaluates); the rows' derivatives evaluated afresh at the same point
    # are the same bits
    newton_matrix = barrier._newton_matrix
    seen = set()

    def checked(prob, z, y, ys, inner=None):
        work = getattr(prob, "work", prob)
        assert inner is not None or not work.rows.kinds
        J, curv = (a.copy() for a in prob.derivatives(z, y, inner))
        J_fresh, curv_fresh = prob.derivatives(z, y, None)
        assert J.tobytes() == J_fresh.tobytes()
        assert curv.tobytes() == curv_fresh.tobytes()
        seen.add((prob.phase, work.pin_idx.size > 0, work.E.shape[0] > 0, inner is not None))
        return newton_matrix(prob, z, y, ys, inner)

    monkeypatch.setattr(barrier, "_newton_matrix", checked)
    for prog in _both_phase_programs():
        try:
            convex_solve(prog)
        except NumericalFailure:
            pass
    for phase in barrier.NEWTON_PHASES:
        assert {(phase, True, False, True), (phase, False, True, True)} <= seen


def test_boundary_step_agrees_with_the_masked_ratio():
    rng = np.random.default_rng(29)
    tau, full = barrier._TAU, 0
    for _ in range(3000):
        m = int(rng.integers(1, 20))
        s, y, ds, dy = (rng.normal(size=m) * 10.0 ** rng.uniform(-8, 2, m) for _ in range(4))
        s, y = np.abs(s), np.abs(y)
        if rng.random() < 0.2:   # no component decreases
            ds, dy = np.abs(ds), np.where(rng.random(m) < 0.5, 0.0, np.abs(dy))
        u, du = np.concatenate((s, y)), np.concatenate((ds, dy))
        neg = du < 0
        ref = min(1.0, tau * float((-u[neg] / du[neg]).min(initial=np.inf)))
        step = barrier._boundary_step(s, ds, y, dy)
        assert abs(step - ref) <= 2 * np.spacing(ref)
        if not neg.any():
            assert step == 1.0
            full += 1
    assert full > 100


def test_predictor_right_hand_side_is_the_old_one(monkeypatch):
    # with s*y as the complementarity residual, J.T (s*y/s) - rd, the
    # right-hand side the predictor used to solve with, is -(g + E.T nu)
    newton_matrix, solve = barrier._newton_matrix, np.linalg.solve
    lower_bound = barrier._Phase1._lower_bound
    steps = []

    def recording_newton_matrix(prob, z, y, ys, inner=None):
        J, K = newton_matrix(prob, z, y, ys, inner)
        steps.append({"prob": prob, "z": z, "y": y, "J": J.copy()})
        return J, K

    def recording_lower_bound(self, z, y, sy, rd, nu, re):
        steps[-1]["rd"] = rd.copy()
        return lower_bound(self, z, y, sy, rd, nu, re)

    def recording_solve(K, rhs):
        if steps and "rhs" not in steps[-1]:
            steps[-1]["rhs"] = np.array(rhs)
        return solve(K, rhs)

    monkeypatch.setattr(barrier, "_newton_matrix", recording_newton_matrix)
    monkeypatch.setattr(barrier._Phase1, "_lower_bound", recording_lower_bound)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    for prog in _both_phase_programs():
        try:
            convex_solve(prog)
        except NumericalFailure:
            pass
    checked = set()
    for step in steps:
        prob, z, y, J = step["prob"], step["z"], step["y"], step["J"]
        k = prob.E.shape[0]
        if "rhs" not in step or ("rd" not in step and k):
            continue   # no step taken, or a main-phase equality multiplier the test cannot see
        s = -prob.values(z)[0]
        rd = step.get("rd", prob.f_grad(z) + J.T @ y)
        _close(step["rhs"][: z.size], J.T @ (s * y / s) - rd, rel=1e-13)
        if k:
            assert step["rhs"][z.size :].tobytes() == (-(prob.E @ z - prob.e)).tobytes()
        checked.add((prob.phase, k > 0))
    assert checked == {("phase1", False), ("phase1", True), ("main", False)}
