"""The lowered barrier kernel against the atom trees it is lowered from."""

import numpy as np
import pytest

from micpkit import barrier
from micpkit.barrier import ConvexProgram, convex_solve
from micpkit.errors import NumericalFailure
from micpkit.expr import (
    Affine,
    LogSumExp,
    LoweredRows,
    NormAffine,
    PowerAffine,
    Softplus,
    SquaredNorm,
    WeightedSum,
)


def _close(got, ref, rel=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rel * max(1.0, np.max(np.abs(ref), initial=0.0))


def _check_rows(exprs, x, A=None, b=None):
    """Lowered values, Jacobian and weighted curvature against the trees."""
    n = x.size
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    rows = LoweredRows(exprs, A, b)
    y = np.linspace(0.5, 2.0, len(exprs) + A.shape[0])
    _close(rows.values(x), np.concatenate([[g.value(x) for g in exprs], A @ x + b]))
    J, curv = rows.derivatives(x, y)
    _close(J, np.vstack([g.grad(x) for g in exprs] + [A]))
    _close(curv, sum((yi * g.hess(x) for yi, g in zip(y, exprs)), np.zeros((n, n))))


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
    _check_rows(work.exprs, v, A=np.vstack([work.A, -eye, eye]),
                b=np.concatenate([-work.b, work.lb, -work.ub]))
    _close(-work.rows.values(v), work.tree_slack(v))


def _loop_barrier(work, v, s):
    """The per-row barrier gradient and Hessian, one np.outer per row."""
    nr, nexpr = work.nr, len(work.exprs)
    g, H = np.zeros(nr), np.zeros((nr, nr))
    for i, ge in enumerate(work.exprs):
        gg = ge.grad(v)
        g += gg / s[i]
        H += ge.hess(v) / s[i] + np.outer(gg, gg) / s[i] ** 2
    for j in range(work.A.shape[0]):
        g += work.A[j] / s[nexpr + j]
        H += np.outer(work.A[j], work.A[j]) / s[nexpr + j] ** 2
    off = nexpr + work.A.shape[0]
    g += -1.0 / s[off: off + nr] + 1.0 / s[off + nr:]
    H[np.diag_indices(nr)] += 1.0 / s[off: off + nr] ** 2 + 1.0 / s[off + nr:] ** 2
    return g, H


def test_barrier_derivatives_of_both_phases_match_row_loops():
    x0 = np.array([0.1, -0.2, 0.3])
    exprs = [WeightedSum([SquaredNorm(np.eye(3), -x0), Affine(np.zeros(3), -1.0)]),
             WeightedSum([Softplus([1.0, 1.0, 0.0]), LogSumExp(np.eye(3)[:2], [0.0, 0.1]),
                          Affine(np.zeros(3), -3.0)])]
    prog = ConvexProgram(n=3, c=[1.0, 0.0, 0.0], convex=exprs, A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.5],
                         lb=-2 * np.ones(3), ub=2 * np.ones(3))
    work = barrier._Work(prog)
    v = x0 + 0.05
    s = work.tree_slack(v)
    assert np.all(s > 0)
    g_ref, H_ref = _loop_barrier(work, v, s)
    g, H = barrier._Centering(work, phase1=False).barrier(v, s)
    _close(g, g_ref)
    _close(H, H_ref)
    # phase 1 at (v, alpha): the same rows, each gradient extended by -1
    alpha = 0.7
    s1 = alpha + work.tree_slack(v)
    g_ref, H_ref = _loop_barrier(work, v, s1)
    rows = np.vstack([np.hstack([J_row, -1.0]) for J_row in work.rows.derivatives(v, 1.0 / s1)[0]])
    g1, H1 = barrier._Centering(work, phase1=True).barrier(np.append(v, alpha), s1)
    _close(g1[:3], g_ref)
    _close(g1[3], -np.sum(1.0 / s1))
    _close(H1[:3, :3], H_ref)
    _close(H1[3], (rows / s1[:, None] ** 2).T @ rows[:, 3])


def _plane_and_ball():
    # min x0 on the unit-half ball around (1, 1, -1), inside the plane sum(x) = 1
    # through its center: the box center is not interior, so phase 1 runs
    center = np.array([1.0, 1.0, -1.0])
    ball = WeightedSum([SquaredNorm(np.eye(3), -center), Affine(np.zeros(3), -0.25)])
    prog = ConvexProgram(n=3, c=[1.0, 0.0, 0.0], convex=[ball], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                         lb=-2 * np.ones(3), ub=2 * np.ones(3))
    x_star = center + 0.5 * np.array([-2.0, 1.0, 1.0]) / np.sqrt(6.0)
    return prog, x_star


def test_phase1_on_equality_constrained_program():
    prog, x_star = _plane_and_ball()
    work = barrier._Work(prog)
    assert barrier._quick_interior(work) is None
    v, viol = barrier._phase1(work)
    assert viol is None
    assert np.all(work.tree_slack(v) > 0)
    assert np.max(np.abs(work.E @ v - work.e)) <= 1e-10
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx(x_star, abs=1e-8)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_start_is_checked_before_use(monkeypatch):
    prog, x_star = _plane_and_ball()
    calls = []
    phase1 = barrier._phase1
    monkeypatch.setattr(barrier, "_phase1", lambda work: calls.append(1) or phase1(work))
    first = convex_solve(prog)
    assert len(calls) == 1
    again = convex_solve(prog, start=first.start)
    assert len(calls) == 1
    assert again.x == pytest.approx(x_star, abs=1e-8)
    for bad in ([1.0, 1.0, -1.0 + 1e-3], [1 / 3, 1 / 3, 1 / 3], [1.0, 2.2, -2.2]):
        # off the plane, outside the ball, outside the box
        cert = convex_solve(prog, start=np.array(bad))
        assert cert.status == "optimal"
        assert cert.x == pytest.approx(x_star, abs=1e-8)
    assert len(calls) == 4


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("fault", ["values", "jacobian", "curvature"])
def test_faulty_kernel_never_certifies_a_wrong_point(monkeypatch, fault, refine):
    # the refinement and the certificate read the atom trees, so a broken
    # lowered kernel ends in NumericalFailure or in the true optimum, also
    # when the refinement leaves the barrier's point as it is
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    prog = ConvexProgram(n=2, c=[1.0, 0.5], convex=[disk], lb=[-3, -3], ub=[3, 3])
    x_star = -np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    values, derivatives = LoweredRows.values, LoweredRows.derivatives

    def bad_values(self, x):
        c = values(self, x)
        c[: self.k] -= 0.5
        return c

    def bad_derivatives(self, x, y):
        J, curv = derivatives(self, x, y)
        if fault == "jacobian":
            J[: self.k] *= -1.0
        return J, (0.0 if fault == "curvature" else 1.0) * curv

    monkeypatch.setattr(LoweredRows, "values", bad_values if fault == "values" else values)
    monkeypatch.setattr(LoweredRows, "derivatives", bad_derivatives)
    if not refine:
        monkeypatch.setattr(barrier, "_kkt_refine", lambda work, v: v)
    try:
        cert = convex_solve(prog)
    except NumericalFailure:
        return
    assert (fault, refine) != ("values", False)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx(x_star, abs=1e-7)
    assert max(cert.res_stat, cert.res_feas) <= 1e-6
