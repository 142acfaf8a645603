import numpy as np
import pytest

from micpkit import barrier
from micpkit.barrier import (
    ConvexProgram,
    convex_solve,
    decompose_normal_cone,
    lp_equivalence_check,
    nnls,
    nnls_with_free,
    project,
    supporting_inequalities,
)
from micpkit.benders import parametric_solve
from micpkit.bruteforce import brute_force
from micpkit.errors import AssumptionViolation, DecompositionFailure, ModelError, NumericalFailure
from micpkit.expr import Affine, NormAffine, PowerAffine, Softplus, SquaredNorm, WeightedSum
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions
from micpkit.model import LinearObjective, ModelInstance, VariableSpec, epigraph_reformulate
from micpkit.simplex import LpProblem, lp_solve

LOG1PE = float(np.log1p(np.e))


def _unit_disk(n=2, cols=None):
    cols = cols if cols is not None else np.eye(n)
    return WeightedSum([SquaredNorm(cols), Affine(np.zeros(n), -1.0)])


def _scenario1_relaxed(rhs=0.0):
    # -2 y1 - log(1+e) y2 + log(1+exp(y1+y2)) <= rhs
    return WeightedSum([Softplus([1.0, 1.0]), Affine([-2.0, -LOG1PE], -rhs)])


# --- convex_solve -----------------------------------------------------------

def test_kkt_example_square():
    g = WeightedSum([PowerAffine([1.0], 0.0, 2.0), Affine([0.0], -1.0)])
    cert = convex_solve(ConvexProgram(n=1, c=[1.0], convex=[g], lb=[-5], ub=[5]))
    assert cert.status == "optimal"
    assert cert.x[0] == pytest.approx(-1.0, abs=1e-8)
    assert cert.mult_convex[0] == pytest.approx(0.5, abs=1e-6)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_scenario_relaxation_optimum():
    # the argmin sits on the axis: root of log(1+e^t) = 2t, objective half that
    cert = convex_solve(ConvexProgram(n=2, c=[0.5, 1.0], convex=[_scenario1_relaxed()],
                                      lb=[0, 0], ub=[10, 10]))
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.log1p(np.exp(mid)) - 2 * mid > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx([root, 0.0], abs=1e-7)
    assert cert.value == pytest.approx(0.5 * root, abs=1e-8)


def test_pinned_ball():
    ball = WeightedSum([SquaredNorm([[0, 0, 1.0]]), Affine([0, 0, 0], -1.0)])
    cert = convex_solve(ConvexProgram(n=3, c=[0, 0, 1.0], convex=[ball],
                                      pins={0: 1.0, 1: 0.0}, lb=[0, 0, -2], ub=[1, 1, 2]))
    assert cert.status == "optimal"
    assert cert.x == pytest.approx([1.0, 0.0, -1.0], abs=1e-7)


@pytest.mark.parametrize("pins,rows", [
    ({-1: 0.5}, {}),                                   # was optimal at (0, 0.5), x2 kept free
    ({-1: 0.5}, {"A_ub": [[0.0, -1.0]], "b_ub": [-0.9]}),  # was NumericalFailure
    ({2: 0.5}, {}),                                    # was a raw IndexError
], ids=["negative", "negative-with-row", "past-the-end"])
def test_pin_outside_the_variables_raises_model_error(pins, rows):
    with pytest.raises(ModelError, match="pin index"):
        convex_solve(ConvexProgram(n=2, c=[1.0, 1.0], pins=pins, lb=[0, 0], ub=[1, 1], **rows))


def test_infeasible_reports_minimized_violation():
    # x^2 + 1 <= 0 is violated by at least 1: phase 1 stops at its first dual
    # proof, and the violation it reports is that proof's positive lower bound
    g = WeightedSum([PowerAffine([1.0], 0.0, 2.0), Affine([0.0], 1.0)])
    cert = convex_solve(ConvexProgram(n=1, c=[1.0], convex=[g], lb=[-2], ub=[2]))
    assert cert.status == "infeasible"
    assert 0.0 < cert.violation <= 1.0
    assert cert.newton_steps == cert.newton_by_phase["phase1"] > 0
    assert cert.newton_by_phase["main"] == 0


@pytest.mark.parametrize("width", [0.0, 1e-12, 1e-9, 1e-8, 1e-6])
def test_thin_box_coordinate_is_solved(width):
    # min x0 on the unit disk with x1 in [0.5, 0.5 + width]: phase 1 cannot
    # see a violation below -width/2, so a box this thin ends it at a violation
    # of zero, and the box face it proves tight becomes a pin
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    prog = ConvexProgram(n=2, c=[1.0, 0.0], convex=[disk], lb=[-2.0, 0.5], ub=[2.0, 0.5 + width])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.value == pytest.approx(-np.sqrt(0.75), abs=1e-7)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8
    assert prog.pins == {}


@pytest.mark.parametrize("width", [0.0, 1e-9, 3e-9, 5e-9, 1e-8, 1e-7])
def test_thin_slab_of_linear_rows_is_solved(width):
    # the same disk with 0.5 <= x1 <= 0.5 + width as linear rows on the wide box:
    # phase 1 runs to the program's stop, so a minimal violation of about
    # -width/2 is reached and not mistaken for an empty set; at width 0 the
    # two rows become one equality
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    prog = ConvexProgram(n=2, c=[1.0, 0.0], A_ub=[[0.0, -1.0], [0.0, 1.0]], b_ub=[-0.5, 0.5 + width],
                         convex=[disk], lb=[-2.0, -2.0], ub=[2.0, 2.0])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.value == pytest.approx(-np.sqrt(0.75), abs=1e-7)


@pytest.mark.parametrize("form", ["row", "face"])
def test_no_interior_with_only_a_convex_row_tight_raises(form):
    # min x1 on the unit disk with x0 >= 1, as a linear row or as the box face:
    # the set is the single point (1, 0), so it has no interior; once x0 = 1 is
    # an equality or a pin the disk alone is tight, and a convex row cannot
    # become an equality, so the solve raises instead of calling the set empty
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    if form == "row":
        prog = ConvexProgram(n=2, c=[0.0, 1.0], A_ub=[[-1.0, 0.0]], b_ub=[-1.0], convex=[disk],
                             lb=[-2.0, -2.0], ub=[2.0, 2.0])
    else:
        prog = ConvexProgram(n=2, c=[0.0, 1.0], convex=[disk], lb=[1.0, -2.0], ub=[2.0, 2.0])
    with pytest.raises(NumericalFailure, match="no interior"):
        convex_solve(prog)


def test_no_interior_lattice_point_stops_the_oracle():
    # the same set behind a binary coordinate: the oracle stops on the point
    # instead of dropping it as infeasible
    disk = WeightedSum([SquaredNorm(np.eye(3)[:2]), Affine(np.zeros(3), -1.0)])
    m = ModelInstance(
        variables=[VariableSpec("u", "continuous", -2, 2), VariableSpec("v", "continuous", -2, 2),
                   VariableSpec("b", "binary", 0, 1)],
        objective=LinearObjective([0.0, 1.0, 0.0]), A_ub=[[-1.0, 0.0, 0.0]], b_ub=[-1.0],
        convex=[disk],
    )
    with pytest.raises(NumericalFailure, match="no interior"):
        brute_force(m)


def test_tight_convex_row_on_pinned_coordinates_leaves_the_program():
    # softplus(x0) <= log(1 + e) with x0 pinned at 1 is the constant 0: the
    # feasible set is the whole box in x1, which has an interior
    row = WeightedSum([Softplus([1.0, 0.0], 0.0), Affine([0.0, 0.0], -LOG1PE)])
    prog = ConvexProgram(n=2, c=[0.0, 1.0], convex=[row], pins={0: 1.0}, lb=[0.0, 0.0],
                         ub=[1.0, 1.0])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx([1.0, 0.0], abs=1e-7)
    assert cert.value == pytest.approx(0.0, abs=1e-7)


def test_convex_row_made_constant_by_a_lattice_point_keeps_the_oracle_going():
    # x0 + x1 <= 1 as a convex row is tight and constant at the lattice point
    # (1, 0); the oracle gives the answer of the same model with a linear row
    variables = [VariableSpec("x0", "binary", 0, 1), VariableSpec("x1", "binary", 0, 1),
                 VariableSpec("y", "continuous", -2, 2)]
    objective = LinearObjective([-1.0, -1.0, -0.5])
    coupling = WeightedSum([Softplus([-1.0, 0.0, 1.0], 0.0), Affine(np.zeros(3), -1.0)])
    convex_row = ModelInstance(variables, objective,
                               convex=[Affine([1.0, 1.0, 0.0], -1.0), coupling])
    linear_row = ModelInstance(variables, objective, A_ub=[[1.0, 1.0, 0.0]], b_ub=[1.0],
                               convex=[coupling])
    got, ref = brute_force(convex_row), brute_force(linear_row)
    assert got.status == ref.status == "optimal"
    assert got.value == pytest.approx(ref.value, abs=1e-9)
    assert ref.value == pytest.approx(-1.7706624273, abs=1e-9)


def test_step_failure_recenters_the_duals(monkeypatch):
    # min 3 u0 - 3 u1 on the slice x0 = -2 of the ball ||x - center|| <= radius,
    # plus one linear row.  The main phase's first line search sees a row at 0
    # on all 50 backtracks, so the loop puts the duals back on the central
    # path and steps on from there; the solve still certifies the optimum
    center = np.array([-0.5335303265762478, 1.2244157088864047, 1.4296659071506945])
    radius = 1.5373126189791284
    ball = WeightedSum([SquaredNorm(np.eye(3)), Affine(-2.0 * center, center @ center - radius**2)])
    values, calls = barrier._Work.values, []

    def blocked_first_line_search(work, v):
        c, inner = values(work, v)
        calls.append(v)
        if 2 <= len(calls) <= 51:     # call 1 is the starting point, 2-51 its trial points
            c = c.copy()
            c[0] = 0.0
        return c, inner

    monkeypatch.setattr(barrier._Work, "values", blocked_first_line_search)
    cert = convex_solve(ConvexProgram(n=3, c=[0.0, 3.0, -3.0], A_ub=[[2.0, 1.0, 1.0]],
                                      b_ub=[0.8504634930953243], convex=[ball], pins={0: -2.0},
                                      lb=[-2.0] * 3, ub=[2.0] * 3))
    # the blocked trial points halve the step 50 times from one start
    steps = [np.linalg.norm(b - calls[0]) for b in calls[1:51]]
    assert all(b == pytest.approx(a / 2.0) for a, b in zip(steps, steps[1:]))
    assert len(calls) > 52
    # the row and the box are slack: the optimum is on the slice's circle
    rho = np.sqrt(radius**2 - (-2.0 - center[0]) ** 2)
    want = 3.0 * (center[1] - center[2]) - 3.0 * np.sqrt(2.0) * rho
    assert cert.status == "optimal"
    assert cert.value == pytest.approx(want, abs=1e-7)
    assert want == pytest.approx(-2.5729, abs=1e-4)


def test_random_certificates_pass_invariants():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        x0 = rng.uniform(-0.5, 0.5, n)
        atoms = []
        for _ in range(int(rng.integers(1, 4))):
            v = rng.normal(size=n)
            atoms.append(WeightedSum([Softplus(v, -float(v @ x0)),
                                      Affine(np.zeros(n), -rng.uniform(0.5, 1.5))]))
        m = int(rng.integers(0, 3))
        A = rng.normal(size=(m, n)) if m else None
        b = (A @ x0 + rng.uniform(0.3, 1.0, m)) if m else None
        cert = convex_solve(ConvexProgram(n=n, c=rng.normal(size=n), convex=atoms,
                                          A_ub=A, b_ub=b, lb=x0 - 2, ub=x0 + 2))
        assert cert.status == "optimal"
        assert cert.res_stat <= 1e-7
        assert cert.res_feas <= 1e-8
        assert cert.res_compl <= 1e-7
        # multipliers on inactive convex rows vanish
        for lam, g in zip(cert.mult_convex, atoms):
            if g.value(cert.x) < -1e-5:
                assert lam <= 1e-7


# --- project ----------------------------------------------------------------

def test_project_disk_examples():
    disk = _unit_disk()
    z, d, _ = project([2, 0], [disk], lb=[-3, -3], ub=[3, 3])
    assert z == pytest.approx([1.0, 0.0], abs=1e-7)
    assert d == pytest.approx(1.0, abs=1e-7)
    z, d, _ = project([1, 1], [disk], lb=[-3, -3], ub=[3, 3])
    assert z == pytest.approx([np.sqrt(2) / 2] * 2, abs=1e-7)
    z, d, _ = project([0.3, -0.2], [disk], lb=[-3, -3], ub=[3, 3])
    assert z == pytest.approx([0.3, -0.2], abs=1e-6)
    assert d <= 1e-6


def test_project_idempotent_and_variational():
    rng = np.random.default_rng(4)
    disk = _unit_disk()
    for _ in range(10):
        p = rng.normal(size=2) * 2
        z, d, _ = project(p, [disk], lb=[-3, -3], ub=[3, 3])
        z2, d2, _ = project(z, [disk], lb=[-3, -3], ub=[3, 3])
        assert np.allclose(z, z2, atol=1e-7)
        # variational inequality at sampled feasible points
        for _ in range(50):
            w = rng.normal(size=2)
            w = w / max(1.0, np.linalg.norm(w) + 1e-9) * rng.uniform(0, 1)
            assert (p - z) @ (w - z) <= 1e-6


def test_project_empty_set_reports_infeasible():
    g = WeightedSum([PowerAffine([1.0, 0.0], 0.0, 2.0), Affine([0, 0], 1.0)])
    z, d, cert = project([0, 0], [g], lb=[-1, -1], ub=[1, 1])
    assert z is None and cert.status == "infeasible"


# --- cuts -------------------------------------------------------------------

def test_supporting_inequalities_gradient_row():
    disk = _unit_disk()
    A, b = supporting_inequalities([disk], [1.0, 0.0])
    assert len(A) == 1
    a, rhs = A[0], b[0]
    assert a[1] == pytest.approx(0.0, abs=1e-9)
    assert rhs / a[0] == pytest.approx(1.0)


def test_parametric_solve_rejects_a_coupled_objective_before_any_solve(monkeypatch):
    from micpkit import barrier, micp, milp
    calls = []

    def counting(solve):
        def wrapped(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return wrapped

    for module in (barrier, micp, milp):
        for name in ("lp_solve", "convex_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    model = ModelInstance(
        variables=[VariableSpec("x", "binary", 0, 1), VariableSpec("y", "continuous", -1, 1)],
        objective=NormAffine([[1.0, 1.0], [0.0, 1.0]]),   # ||(x + y, y)||
        param_block=[0],
    )
    with pytest.raises(AssumptionViolation) as err:
        parametric_solve(model, {0: 1.0}, MicpOptions())
    assert "['objective']" in str(err.value)
    assert calls == []


def test_supporting_separable_parametric_ok():
    psi = Softplus([1.0, 0.0])
    phi = PowerAffine([0.0, 1.0], 0.0, 2.0)
    g = WeightedSum([psi, phi, Affine([0, 0], -np.log(2.0) - 1.0)])
    x = np.array([0.0, 1.0])
    assert abs(g.value(x)) < 1e-12
    A, _ = supporting_inequalities([g], x)
    assert np.allclose(A[0], [0.5, 2.0], atol=1e-12)


# --- normal cone decomposition ---------------------------------------------

def test_decompose_axes():
    dec = decompose_normal_cone([1.0, 1.0], [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])])
    assert np.allclose(dec.components[0], [1, 0], atol=1e-9)
    assert np.allclose(dec.components[1], [0, 1], atol=1e-9)
    assert dec.residual <= 1e-10


def test_decompose_single_set():
    c = np.array([0.3, -0.7])
    dec = decompose_normal_cone(c, [np.column_stack([c])])
    assert np.allclose(dec.components[0], c, atol=1e-9)


def test_decompose_ball_objective():
    # min x1 over the unit disk: -c sits in the cone of the active gradient
    disk = _unit_disk()
    xbar = np.array([-1.0, 0.0])
    grad = disk.subgrad(xbar)
    dec = decompose_normal_cone(np.array([-1.0, 0.0]), [np.column_stack([grad])])
    assert np.allclose(dec.components[0], [-1.0, 0.0], atol=1e-9)


def test_decompose_failure_flagged():
    with pytest.raises(DecompositionFailure):
        decompose_normal_cone([1.0, 0.0], [np.array([[0.0], [1.0]])])


def test_resum_property():
    rng = np.random.default_rng(1)
    for _ in range(20):
        G1 = rng.normal(size=(3, 2))
        G2 = rng.normal(size=(3, 2))
        w = rng.uniform(0, 1, size=4)
        target = G1 @ w[:2] + G2 @ w[2:]
        dec = decompose_normal_cone(target, [G1, G2])
        assert np.allclose(sum(dec.components), target, atol=1e-8)


# --- lp equivalence ---------------------------------------------------------

def test_lp_equivalence_unit_disk():
    disk = _unit_disk()
    prog = ConvexProgram(n=2, c=[1.0, 0.0], convex=[disk], lb=[-2, -2], ub=[2, 2])
    cert = convex_solve(prog)
    A, b = supporting_inequalities([disk], cert.x)
    assert lp_equivalence_check(prog, A, b, cert.value)


def test_lp_equivalence_random_suite():
    rng = np.random.default_rng(17)
    passed = 0
    for _ in range(15):
        n = int(rng.integers(2, 5))
        x0 = rng.uniform(-0.3, 0.3, n)
        v = rng.normal(size=n)
        g = WeightedSum([SquaredNorm(np.eye(n), -x0), Affine(np.zeros(n), -rng.uniform(0.5, 1.5))])
        prog = ConvexProgram(n=n, c=v, convex=[g], lb=x0 - 3, ub=x0 + 3)
        cert = convex_solve(prog)
        assert cert.status == "optimal"
        if any(gc.value(cert.x) >= -1e-6 for gc in [g]):
            A, b = supporting_inequalities([g], cert.x)
            assert lp_equivalence_check(prog, A, b, cert.value)
            passed += 1
    assert passed >= 10


# --- pure-linear programs: the primal-dual loop against the simplex ---------

def _random_lp(seed):
    """A small LP with or without equality rows and pins; more than half are infeasible.

    Every fourth one also holds a.x = a.x0 as two opposite rows, so when it
    is feasible it has no interior.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    lb, ub = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    x0 = rng.uniform(lb, ub)
    A = rng.normal(size=(int(rng.integers(1, 5)), n))
    # a negative margin cuts x0 off and may leave the box empty of feasible points
    b = A @ x0 + rng.uniform(-1.5, 0.5, A.shape[0])
    kw = {}
    if seed % 2:
        E = rng.normal(size=(1, n))
        kw = dict(A_eq=E, b_eq=E @ x0)
    pins = {int(i): float(x0[i]) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
    if seed % 4 == 3:
        a = rng.normal(size=n)
        A, b = np.vstack([A, a, -a]), np.append(b, [a @ x0, -(a @ x0)])
    return ConvexProgram(n=n, c=rng.normal(size=n), A_ub=A, b_ub=b, pins=pins, lb=lb, ub=ub, **kw)


def _simplex(prog):
    lb, ub = prog.lb.copy(), prog.ub.copy()
    for i, v in prog.pins.items():
        lb[i] = ub[i] = v
    eq = (prog.A_eq, prog.b_eq) if prog.A_eq.size else (None, None)
    return lp_solve(LpProblem.build(prog.c, prog.A_ub, prog.b_ub, *eq, lb, ub))


_UNIT_SQUARE = dict(lb=[0.0, 0.0], ub=[1.0, 1.0])
# hand-written programs, each with the simplex's status
_FIXED_LPS = {
    # min x0 + 2 x1 on the segment x0 + x1 = 1 of the unit square
    "equality-row": (dict(c=[1.0, 2.0], A_ub=[[1.0, -1.0]], b_ub=[0.5], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                          **_UNIT_SQUARE), "optimal"),
    "pins": (dict(c=[-1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.2], pins={1: 0.5}, **_UNIT_SQUARE), "optimal"),
    "infeasible-row": (dict(c=[1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-2.5], **_UNIT_SQUARE), "infeasible"),
    "infeasible-pins": (dict(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[0.5], pins={0: 0.75},
                             **_UNIT_SQUARE), "infeasible"),
    # y - x <= 0 with y pinned to 1 leaves the single point x = 1 of its box
    "zero-width-pin": (dict(c=[-1.0, -1.0], A_ub=[[-1.0, 1.0]], b_ub=[0.0], pins={1: 1.0},
                            **_UNIT_SQUARE), "optimal"),
    # x0 + x1 <= 1 and x0 + x1 >= 1: the diagonal segment
    "zero-width-rows": (dict(c=[1.0, -0.5], A_ub=[[1.0, 1.0], [-1.0, -1.0]], b_ub=[1.0, -1.0],
                             **_UNIT_SQUARE), "optimal"),
    # x0 - x1 = 0 and x0 + x1 <= 0 leave only the corner (0, 0)
    "zero-width-corner": (dict(c=[1.0, -3.0], A_ub=[[1.0, 1.0]], b_ub=[0.0], A_eq=[[1.0, -1.0]],
                               b_eq=[0.0], **_UNIT_SQUARE), "optimal"),
}


@pytest.mark.parametrize("case", [*range(40), *sorted(_FIXED_LPS)])
def test_pure_linear_programs_match_the_simplex(case):
    if isinstance(case, int):
        prog = _random_lp(case)
    else:
        kwargs, status = _FIXED_LPS[case]
        prog = ConvexProgram(n=2, **kwargs)
        assert _simplex(prog).status == status
    cert, ref = convex_solve(prog), _simplex(prog)
    assert cert.status == ref.status
    if ref.status == "optimal":
        assert cert.value == pytest.approx(ref.obj, rel=1e-9, abs=1e-9)
        assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_pure_linear_program_on_a_degenerate_face():
    # min -x0 - x1 on x0 + x1 <= 1 (twice, once scaled) in the unit box: every
    # point of the edge from (1, 0) to (0, 1) is optimal, and the vertices
    # (1, 0) and (0, 1) are degenerate
    prog = ConvexProgram(n=2, c=[-1.0, -1.0], A_ub=[[1.0, 1.0], [2.0, 2.0]], b_ub=[1.0, 2.0],
                         lb=[0.0, 0.0], ub=[1.0, 1.0])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.value == pytest.approx(_simplex(prog).obj, abs=1e-9)
    assert cert.x.sum() == pytest.approx(1.0, abs=1e-9)
    assert cert.mult_ub @ [1.0, 2.0] == pytest.approx(1.0, abs=1e-9)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_all_pinned_optimum_carries_fitted_multipliers():
    # every coordinate pinned and the disk row inactive: the pins alone carry
    # the gradient of the linear objective
    c = np.array([1.5, -2.0])
    prog = ConvexProgram(n=2, c=c, convex=[_unit_disk()], A_ub=[[1.0, 1.0]], b_ub=[3.0],
                         pins={0: 0.25, 1: -0.5}, lb=[-1, -1], ub=[1, 1])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.value == pytest.approx(1.375)
    assert cert.mult_pins == {0: -1.5, 1: 2.0}
    assert cert.res_stat == 0.0
    assert cert.active_convex == [False]
    assert not cert.mult_convex.any() and not cert.mult_ub.any()


@pytest.mark.parametrize("point,violation", [((0.25, -0.5), None), ((1.0, 1.0), 1.0), ((0.5, 0.0), 0.5)])
def test_all_pinned_program_lowers_no_rows(monkeypatch, point, violation):
    # the only point is decided on the atom trees before any row is lowered:
    # inside the disk and on the equality it is certified by the one fit; at
    # (1, 1) it breaks the disk by 1, at (0.5, 0) the equality by 0.5
    prog = ConvexProgram(n=2, c=[1.5, -2.0], convex=[_unit_disk()], A_ub=[[1.0, 1.0]], b_ub=[3.0],
                         A_eq=[[0.0, 1.0]], b_eq=[point[1] if violation != 0.5 else -0.5],
                         pins=dict(enumerate(point)), lb=[-1, -1], ub=[1, 1])

    def refuse(*args):
        raise AssertionError("rows lowered for an all-pinned program")

    monkeypatch.setattr(barrier, "LoweredRows", refuse)
    cert = convex_solve(prog)
    assert cert.x.tolist() == list(point)
    if violation is None:
        ref = barrier._assemble_certificate(prog, np.array(point))
        for name in ("status", "value", "res_stat", "res_feas", "res_compl", "active_convex", "mult_pins"):
            assert getattr(cert, name) == getattr(ref, name), name
        for name in ("mult_convex", "mult_ub", "mult_eq", "mult_lb", "mult_ubound"):
            assert getattr(cert, name).tobytes() == getattr(ref, name).tobytes(), name
        assert cert.newton_steps == 0
    else:
        assert (cert.status, cert.violation, cert.newton_steps) == ("infeasible", violation, 0)


def test_equality_on_a_pinned_coordinate_leaves_the_fit_its_faces():
    # the equality touches only the pinned x0, so its column over the free
    # block is zero: it must add no direction to the fit, and x1's lower face
    # carries the objective's gradient alone
    prog = ConvexProgram(n=2, c=[0, 1], A_eq=[[1, 0]], b_eq=[0.5], pins={0: 0.5},
                         lb=[0, 0], ub=[1, 1])
    cert = convex_solve(prog)
    assert cert.status == "optimal"
    assert cert.x == pytest.approx([0.5, 0.0], abs=1e-8)
    assert cert.mult_lb == pytest.approx([0.0, 1.0], abs=1e-8)
    assert max(cert.res_stat, cert.res_feas, cert.res_compl) <= 1e-8


def test_empty_program_certifies_its_only_point():
    cert = convex_solve(ConvexProgram(n=0, lb=[], ub=[]))
    assert (cert.status, cert.value, cert.x.size) == ("optimal", 0.0, 0)
    assert (cert.res_stat, cert.res_feas, cert.res_compl) == (0.0, 0.0, 0.0)


# --- nnls helpers ------------------------------------------------------------

def test_nnls_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(50):
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        w, r = nnls(A, b)
        assert np.all(w >= 0)
        grad = A.T @ (A @ w - b)
        assert np.all(grad >= -1e-7)            # KKT: no descent within the cone
        assert np.all(np.abs(grad * w) <= 1e-6)


def _lawson_hanson(A, b, tol=1e-11):
    """Lawson-Hanson from w = 0, the active-set loop nnls falls back to."""
    n = A.shape[1]
    w, passive, resid = np.zeros(n), np.zeros(n, dtype=bool), b.copy()
    for _ in range(6 * n + 30):
        grad = A.T @ resid
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol * (1.0 + np.linalg.norm(b)):
            break
        passive[j] = True
        while True:
            idx = np.nonzero(passive)[0]
            s = np.linalg.lstsq(A[:, idx], b, rcond=None)[0]
            if np.all(s > tol):
                w[:] = 0.0
                w[idx] = s
                break
            cur = w[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = float(np.min(np.where(s <= tol, cur / (cur - s), np.inf)))
            w[idx] = cur + alpha * (s - cur)
            passive[idx] = w[idx] > tol
            w[~passive] = 0.0
            if not passive.any():
                return np.zeros(n), float(np.linalg.norm(b))
        resid = b - A @ w
    return w, float(np.linalg.norm(b - A @ w))


def test_nnls_least_squares_exit_and_active_set_agree_with_lawson_hanson():
    # a positive least-squares solution is returned at once; any other goes
    # through the active set.  With full column rank the optimum is unique,
    # and both give Lawson-Hanson's weights and residual to the bit; a wide
    # matrix has many optima, and both reach the least residual
    rng = np.random.default_rng(13)
    branches = {True: 0, False: 0}
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = n + int(rng.integers(-2, 5))
        A = rng.normal(size=(max(m, 1), n))
        m = A.shape[0]
        if rng.random() < 0.5:
            b = A @ rng.uniform(0.1, 2.0, n) + rng.normal(scale=0.1, size=m)
        else:
            b = rng.normal(size=m)
        positive = bool(np.all(np.linalg.lstsq(A, b, rcond=None)[0] > barrier.NNLS_TOL))
        branches[positive] += 1
        w, r = nnls(A, b)
        w_ref, r_ref = _lawson_hanson(A, b)
        assert np.all(w >= 0.0)
        if m >= n:
            assert w.tobytes() == w_ref.tobytes() and r == r_ref
        else:
            assert r <= r_ref + 1e-12 * (1.0 + np.linalg.norm(b))
    assert min(branches.values()) >= 50


def test_nnls_with_free_block():
    rng = np.random.default_rng(8)
    N = rng.normal(size=(5, 3))
    F = rng.normal(size=(5, 2))
    w0 = np.abs(rng.normal(size=3))
    v0 = rng.normal(size=2)
    b = N @ w0 + F @ v0
    w, v, resid = nnls_with_free(N, F, b)
    assert resid <= 1e-8
    assert np.allclose(N @ w + F @ v, b, atol=1e-8)


@pytest.mark.parametrize("N,F,b", [
    ([[1.0]], [[0.0]], [1.0]),                                   # a zero free column
    ([[0.0], [1.0]], [[1.0, 2.0], [0.0, 0.0]], [0.0, 1.0]),      # a dependent one
])
def test_nnls_with_free_rank_deficient_block(N, F, b):
    # the free block spans less than its column count: only its range is
    # projected out, so b = N w with w = 1 is still fitted exactly
    w, v, resid = nnls_with_free(np.array(N), np.array(F), b)
    assert w == pytest.approx([1.0])
    assert resid <= 1e-12


def test_pinned_remainders_agree_with_slsqp():
    # an independent reference for convex_solve, which the brute-force oracle
    # shares with the solver: SLSQP on every continuous remainder of the
    # acceptance suite's micp instances, integers pinned at the oracle argmin
    optimize = pytest.importorskip("scipy.optimize")
    remainders = 0
    for seed in range(1000, 1050):
        model = epigraph_reformulate(generate_instance(seed, "micp-smooth" if seed % 2 else "micp-separable"))
        ints = model.integer_indices()
        free = np.array([i for i in range(model.n) if i not in ints], dtype=int)
        if not free.size:
            continue
        assert not model.A_eq.size
        argmin = brute_force(model).argmins[0]
        pins = {i: float(argmin[i]) for i in ints}
        cert = convex_solve(ConvexProgram(n=model.n, c=model.objective.c, A_ub=model.A_ub, b_ub=model.b_ub,
                                          convex=list(model.convex), pins=pins, lb=model.lb, ub=model.ub))
        assert cert.status == "optimal"

        def full(v):
            x = np.array([pins.get(i, 0.0) for i in range(model.n)])
            x[free] = v
            return x

        cons = [{"type": "ineq", "fun": lambda v, g=g: -g.value(full(v)),
                 "jac": lambda v, g=g: -g.subgrad(full(v))[free]} for g in model.convex]
        if model.A_ub.size:
            cons.append({"type": "ineq", "fun": lambda v: model.b_ub - model.A_ub @ full(v),
                         "jac": lambda v: -model.A_ub[:, free]})
        c = model.objective.c
        ref = optimize.minimize(lambda v: c @ full(v), 0.5 * (model.lb + model.ub)[free], jac=lambda v: c[free],
                                method="SLSQP", bounds=list(zip(model.lb[free], model.ub[free])),
                                constraints=cons, options={"ftol": 1e-14, "maxiter": 1000})
        assert abs(ref.fun - cert.value) <= 1e-9 * (1.0 + abs(cert.value)), seed
        remainders += 1
    assert remainders == 39
