import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from terminal_lp import lp_at

from micpkit import benders, milp, twostage
from micpkit.benders import benders_cut_from_terminal_lp
from micpkit.errors import ModelError
from micpkit.milp import (
    MilpProblem,
    MilpRow,
    chvatal_gomory_round,
    milp_solve,
    value_function_row,
)
from micpkit.simplex import LpProblem, lp_solve
from micpkit.twostage import ScenarioDual

LOG1PE = float(np.log1p(np.e))


def _enumerate_reference(prob):
    grids = []
    for i in range(prob.n):
        if prob.integer[i]:
            grids.append(np.arange(prob.lb[i], prob.ub[i] + 0.5))
        else:
            grids.append(None)
    best = np.inf
    A = np.vstack([r.cy for r in prob.rows]) if prob.rows else None
    b = np.array([r.at_param(prob.x_param) for r in prob.rows]) if prob.rows else None
    for combo in itertools.product(*[g if g is not None else [None] for g in grids]):
        lb, ub = prob.lb.copy(), prob.ub.copy()
        for i, v in enumerate(combo):
            if v is not None:
                lb[i] = ub[i] = v
        sol = lp_solve(LpProblem.build(prob.c, A, b, None, None, lb, ub))
        if sol.status == "optimal":
            best = min(best, sol.obj)
    return best


def test_master_with_bound_cut_appended():
    prob = MilpProblem(
        c=[1, 2, 1],
        rows=[MilpRow(cx=[], cy=[-3, -1, 0], rhs=-2), MilpRow(cx=[], cy=[-1, 0, 0], rhs=-1)],
        integer=[True, True, False], lb=[0, 0, 0], ub=[1, 1, 20],
    )
    res = milp_solve(prob, "bb")
    assert res.status == "optimal"
    assert np.allclose(res.y[:2], [1, 0])


def test_cutting_plane_reproduces_walkthrough_master():
    prob = MilpProblem(
        c=[1, 2, 1], rows=[MilpRow(cx=[], cy=[-3, -1, 0], rhs=-2)],
        integer=[True, True, False], lb=[0, 0, 0], ub=[1, 1, 20],
    )
    res = milp_solve(prob, "cp")
    assert res.status == "optimal"
    assert np.allclose(res.y, [1, 0, 0], atol=1e-9)
    # rounding 3 x1 + x2 >= 2 gives x1 + x2 >= 1, which makes the next LP integral
    assert res.cuts and res.cuts[0].provenance == "gomory"
    assert np.allclose(res.cuts[0].row.cy, [-1, -1, 0])
    assert res.cuts[0].row.rhs == pytest.approx(-1.0)
    assert res.lp_calls == 2
    # every cut holds at each integer point of the master's feasible set
    # (the rows are linear, so eta's two bounds stand for its whole range)
    for x1, x2 in itertools.product((0.0, 1.0), repeat=2):
        for eta in (0.0, 20.0):
            v = np.array([x1, x2, eta])
            if all(r.cy @ v <= r.rhs + 1e-9 for r in prob.rows):
                for rec in res.cuts:
                    assert rec.row.cy @ v <= rec.row.rhs + 1e-9, (v, rec.provenance)


@pytest.mark.parametrize("mode", ["cp", "bb"])
@pytest.mark.parametrize("case", ["2y=1", "2y=x at x=1"])
def test_feasible_relaxation_without_integer_point_is_infeasible(mode, case):
    # the LP relaxation has y = 1/2; no integer y satisfies the equation
    if case == "2y=1":
        prob = MilpProblem(c=[1.0], rows=[MilpRow(cx=[], cy=[2.0], rhs=1.0),
                                          MilpRow(cx=[], cy=[-2.0], rhs=-1.0)],
                           integer=[True], lb=[0], ub=[1])
    else:
        prob = MilpProblem(c=[1.0], rows=[MilpRow(cx=[-1.0], cy=[2.0], rhs=0.0),
                                          MilpRow(cx=[1.0], cy=[-2.0], rhs=0.0)],
                           integer=[True], lb=[0], ub=[1], l1=1, x_param=[1.0])
    assert milp_solve(prob, mode).status == "infeasible"


def _tangent_problem():
    # joint tangent row anchored at the fractional first stage
    tangent = MilpRow(cx=[-1.0, -1.0], cy=[-1.2725823685, -0.5858440560],
                      rhs=-(0.9191437724 + 2.0 / 3.0))
    return MilpProblem(
        c=[0.5, 1.0], rows=[tangent], integer=[True, True], lb=[0, 0], ub=[10, 10],
        l1=2, x_param=[1.0, 0.0],
    )


def test_scenario_rounding_cut_and_terminal_lp():
    prob = _tangent_problem()
    res = milp_solve(prob, "cp")
    assert res.status == "optimal"
    assert np.allclose(res.y, [1, 0])
    assert res.obj == pytest.approx(0.5)
    cg = [c for c in res.cuts if c.provenance == "gomory"]
    assert cg and np.allclose(cg[0].row.cx, [-1, -1]) and np.allclose(cg[0].row.cy, [-1, -1])
    assert cg[0].row.rhs == pytest.approx(-2.0)

    terminal = res.terminal
    rows = {tuple(np.round(np.concatenate([r.cx, r.cy, [r.rhs]]), 6)) for r in terminal.rows}
    assert (-1.0, -1.0, -1.0, -1.0, -2.0) in rows
    assert terminal.anchor[1].obj == pytest.approx(0.5)
    # fidelity across the other binary parameter values: still a lower bound
    for bits in itertools.product((0.0, 1.0), repeat=2):
        sol = lp_solve(lp_at(terminal, np.array(bits)))
        assert sol.status == "optimal"


def test_integral_relaxation_returns_no_cuts():
    prob = MilpProblem(
        c=[1.0, 1.0], rows=[MilpRow(cx=[], cy=[-1.0, 0.0], rhs=-1.0)],
        integer=[True, True], lb=[0, 0], ub=[3, 3],
    )
    res = milp_solve(prob, "cp")
    assert res.status == "optimal"
    assert not res.cuts
    terminal = res.terminal
    # terminal LP equals the original relaxation
    assert len(terminal.rows) == 1
    assert terminal.anchor[1].obj == pytest.approx(res.obj)


def test_branch_and_bound_carries_no_terminal_lp():
    prob = MilpProblem(c=[1.0], rows=[], integer=[True], lb=[0], ub=[3])
    res = milp_solve(prob, "bb")
    assert res.status == "optimal" and res.terminal is None


def test_integral_exit_terminal_is_the_final_relaxation(monkeypatch):
    solved = []

    def counting_lp_solve(problem, *args, **kwargs):
        solved.append(problem)
        return lp_solve(problem, *args, **kwargs)

    for module in (milp, benders, twostage):
        monkeypatch.setattr(module, "lp_solve", counting_lp_solve)
    prob = _tangent_problem()
    res = milp_solve(prob, "cp")
    assert res.status == "optimal" and not res.used_fallback and res.cuts
    terminal = res.terminal
    final = prob.rows + [rec.row for rec in res.cuts]
    assert len(terminal.rows) == len(final)
    assert all(a is b for a, b in zip(terminal.rows, final))
    # the anchor is the loop's last LP, kept with its solution
    lpp, sol = terminal.anchor
    assert lpp is solved[-1]
    assert sol.obj == pytest.approx(res.obj, abs=1e-9)
    # the Benders cut and the scenario duals solve no further LP
    n = len(solved)
    benders_cut_from_terminal_lp(terminal)
    ScenarioDual.from_terminal(0, terminal, res.obj)
    assert len(solved) == n


def test_integral_exit_takes_the_lp_value():
    # the LP vertex y = 1/1.0000005 passes as integral; the optimum is the
    # LP's value, not the rounded point's, in both modes
    prob = MilpProblem(c=[1.0], rows=[MilpRow(cx=[], cy=[-1.0000005], rhs=-1.0)],
                       integer=[True], lb=[0], ub=[3])
    res = milp_solve(prob, "cp")
    assert res.status == "optimal" and not res.cuts and res.y.tolist() == [1.0]
    assert res.obj == pytest.approx(1.0 / 1.0000005, abs=1e-12)
    assert res.lp_calls == 1
    terminal = res.terminal
    assert terminal.rows == prob.rows
    assert terminal.anchor[1].obj == res.obj
    assert milp_solve(prob, "bb").obj == res.obj


def test_cutting_plane_rounds_each_row_once(monkeypatch):
    rounded = []

    def recording_round(row, problem):
        rounded.append(row)
        return chvatal_gomory_round(row, problem)

    monkeypatch.setattr(milp, "chvatal_gomory_round", recording_round)
    prob = MilpProblem(c=[1, 1], rows=[MilpRow(cx=[], cy=[-4, -1], rhs=-2),
                                       MilpRow(cx=[], cy=[-1, -4], rhs=-2)],
                       integer=[True, True], lb=[0, 0], ub=[5, 5])
    res = milp_solve(prob, "cp")
    # four fractional steps, each trying the rounding of every row
    assert res.status == "optimal" and len(res.cuts) == 4
    assert len({id(r) for r in rounded}) == len(rounded)
    assert {id(r) for r in rounded} <= {id(r) for r in prob.rows + [c.row for c in res.cuts]}


def test_fallback_terminal_carries_the_value_function_row(monkeypatch):
    monkeypatch.setattr(milp, "MAX_CUTS", 0)
    prob = _tangent_problem()
    res = milp_solve(prob, "cp")
    bb = milp_solve(prob, "bb")
    assert res.status == "optimal" and res.used_fallback
    assert res.cuts[-1].provenance == "no-good"
    terminal = res.terminal
    assert terminal.rows[-1] is res.cuts[-1].row
    assert len(terminal.rows) == len(prob.rows) + len(res.cuts)
    # the terminal LP is solved once, after branch and bound
    assert res.lp_calls == bb.lp_calls + 1
    assert terminal.anchor[1].obj == pytest.approx(bb.obj, abs=1e-7)
    cut = benders_cut_from_terminal_lp(terminal)
    for bits in itertools.product((0.0, 1.0), repeat=prob.l1):
        at = MilpProblem(c=prob.c, rows=prob.rows, integer=prob.integer, lb=prob.lb,
                         ub=prob.ub, l1=prob.l1, x_param=bits)
        ref = milp_solve(at, "bb")
        if ref.status == "optimal":
            assert cut.value(bits) <= ref.obj + 1e-7, bits


def test_exactness_battery_matches_enumeration():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(2, 5)) if trial % 3 else int(rng.integers(4, 7))
        nint = int(rng.integers(1, n + 1))
        integer = np.zeros(n, bool)
        integer[:nint] = True
        span = 10 if n <= 3 else 4
        lb = np.where(integer, rng.integers(-3, 1, n), np.floor(rng.uniform(-3, 0, n)))
        ub = lb + np.where(integer, rng.integers(1, span + 1, n), rng.uniform(1, 4, n))
        lb = lb.astype(float)
        ub = np.where(integer, np.round(ub), ub).astype(float)
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        x0 = (lb + ub) / 2
        b = A @ x0 + rng.uniform(0.2, 2.0, m)
        prob = MilpProblem(
            c=rng.normal(size=n),
            rows=[MilpRow(cx=[], cy=A[i], rhs=b[i]) for i in range(m)],
            integer=integer, lb=lb, ub=ub,
        )
        res = milp_solve(prob, "cp" if trial % 2 == 0 else "bb")
        ref = _enumerate_reference(prob)
        if res.status == "infeasible":
            assert ref == np.inf
        else:
            assert abs(res.obj - ref) <= 1e-6 * (1.0 + abs(ref))


def test_parametric_cut_validity_enumerated():
    rng = np.random.default_rng(5)
    for _ in range(10):
        l1, n = 2, 2
        W = rng.normal(size=(2, l1))
        T = rng.uniform(0.4, 1.5, size=(2, n))
        r = T @ np.array([1.0, 1.0]) * rng.uniform(0.2, 0.8, size=2)
        # make every binary parameter feasible by relaxing with the worst case
        rows = [MilpRow(cx=W[i], cy=-T[i], rhs=float(np.maximum(W[i], 0).sum()) - r[i])
                for i in range(2)]
        prob = MilpProblem(
            c=rng.uniform(0.1, 1.0, n), rows=rows, integer=[True, True],
            lb=[0, 0], ub=[3, 3], l1=l1, x_param=rng.integers(0, 2, l1).astype(float),
        )
        res = milp_solve(prob, "cp")
        if res.status != "optimal":
            continue
        for bits in itertools.product((0.0, 1.0), repeat=l1):
            x = np.array(bits)
            for combo in itertools.product(range(4), repeat=n):
                y = np.array(combo, dtype=float)
                if all(row.cx @ x + row.cy @ y <= row.rhs + 1e-9 for row in rows):
                    for rec in res.cuts:
                        assert rec.row.cx @ x + rec.row.cy @ y <= rec.row.rhs + 1e-8


def _joint_vertices(prob):
    """``(x, y)`` for every binary x, every integer y block in its box and
    every vertex of the continuous block's polytope there: a linear cut holds
    on the joint set when it holds at these."""
    ints, conts = np.flatnonzero(prob.integer), np.flatnonzero(~prob.integer)
    grids = [np.arange(prob.lb[i], prob.ub[i] + 0.5) for i in ints]
    k = conts.size
    G = np.vstack([[r.cy[conts] for r in prob.rows], np.eye(k), -np.eye(k)])
    for bits in itertools.product((0.0, 1.0), repeat=prob.l1):
        x = np.array(bits)
        for combo in itertools.product(*grids):
            h = np.concatenate([[r.rhs - r.cx @ x - r.cy[ints] @ combo for r in prob.rows],
                                prob.ub[conts], -prob.lb[conts]])
            for act in itertools.combinations(range(h.size), k):
                act = list(act)
                try:
                    yc = np.linalg.solve(G[act], h[act]) if k else np.zeros(0)
                except np.linalg.LinAlgError:
                    continue
                if np.all(G @ yc <= h + 1e-9):
                    y = np.zeros(prob.n)
                    y[ints], y[conts] = combo, yc
                    yield x, y


def _gmi_battery_case(seed, l1, n_int, n_cont, m):
    """One random parametric MILP: check every GMI cut of its cp solve at the
    enumerated joint points and the cp optimum against enumeration; returns
    the number of GMI cuts."""
    rng = np.random.default_rng(seed)
    n = n_int + n_cont
    integer = np.arange(n) < n_int
    lb = np.where(integer, rng.integers(-2, 1, n), rng.uniform(-2.0, 0.0, n))
    ub = lb + np.where(integer, rng.integers(1, 4, n), rng.uniform(0.5, 3.0, n))
    A, W = rng.normal(size=(m, n)), rng.normal(size=(m, l1))
    rhs = A @ rng.uniform(lb, ub) + W @ rng.integers(0, 2, l1) + rng.uniform(0.0, 1.0, m)
    prob = MilpProblem(c=rng.normal(size=n),
                       rows=[MilpRow(cx=W[i], cy=A[i], rhs=rhs[i]) for i in range(m)],
                       integer=integer, lb=lb, ub=ub, l1=l1,
                       x_param=rng.integers(0, 2, l1).astype(float))
    gmi_cut = milp._gmi_cut
    cuts = []

    def recording(*args):
        row = gmi_cut(*args)
        if row is not None:
            cuts.append(row)
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(milp, "_gmi_cut", recording)
        res = milp_solve(prob, "cp")
    ref = np.inf
    for x, y in _joint_vertices(prob):
        for cut in cuts:
            assert cut.cx @ x + cut.cy @ y <= cut.rhs + 1e-8, (x, y)
        if np.array_equal(x, prob.x_param):
            ref = min(ref, float(prob.c @ y))
    if res.status == "infeasible":
        assert ref == np.inf
    else:
        assert abs(res.obj - ref) <= 1e-6 * (1.0 + abs(ref))
    return len(cuts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l1=st.integers(0, 2), n_int=st.integers(1, 2),
       n_cont=st.integers(0, 2), m=st.integers(1, 3))
def test_gmi_cuts_hold_at_every_enumerated_joint_point(seed, l1, n_int, n_cont, m):
    _gmi_battery_case(seed, l1, n_int, n_cont, m)


def test_gmi_battery_reaches_the_tableau_cut():
    # the battery above checks something: its generator yields GMI cuts
    assert sum(_gmi_battery_case(seed, seed % 3, 2, 1, 3) for seed in range(20)) > 0


@pytest.mark.parametrize("cx", [[], [1.0, 1.0]], ids=["empty", "too-long"])
def test_row_with_the_wrong_parameter_count_raises_model_error(cx):
    # an empty cx was read as zeros and solved; a long one raised a raw numpy error
    with pytest.raises(ModelError, match="milp row 0 has"):
        MilpProblem(c=[1.0], rows=[MilpRow(cx=cx, cy=[-1.0], rhs=0.0)],
                    integer=[True], lb=[0], ub=[2], l1=1, x_param=[1.0])


@pytest.mark.parametrize("x_param", [0.0, 1.0])
def test_gmi_cut_cuts_off_its_vertex(x_param):
    # min -y s.t. 2y + 2x <= 3: the tableau row is y + x + s/2 = 3/2 - x at
    # its bound, so f0 = 1/2 at either x; the binary x's coefficient is
    # integral and drops, the slack's gives s >= 1, i.e. y + x <= 1
    prob = MilpProblem(c=[-1.0], rows=[MilpRow(cx=[2.0], cy=[2.0], rhs=3.0)],
                       integer=[True], lb=[0], ub=[5], l1=1, x_param=[x_param])
    lpp = milp._lp_at_param(prob.c, prob.rows, prob.x_param, prob.lb, prob.ub)
    sol = lp_solve(lpp)
    assert sol.x == pytest.approx([1.5 - x_param])
    cut = milp._gmi_cut(prob, prob.rows, lpp, sol, 0)
    assert np.allclose(cut.cx, [1.0]) and np.allclose(cut.cy, [1.0])
    assert cut.rhs == pytest.approx(1.0)
    assert cut.cx @ prob.x_param + cut.cy @ sol.x > cut.rhs + milp._VIOL_TOL
    res = milp_solve(prob, "cp")
    assert res.status == "optimal" and res.obj == pytest.approx(-1.0 + x_param)
    assert [c.provenance for c in res.cuts] == ["gomory"]


def test_gmi_rejects_a_nearly_integral_row_for_the_cglp(monkeypatch):
    # 1000 y + z <= 2001 with z continuous: no rounding cut, and the LP's
    # y = 2.001 has f0 = 0.001 < 0.005, so the CGLP takes the same variable
    calls = []
    cglp = milp.cglp_split_cut

    def recording(problem, rows, v_hat, var_j, k):
        calls.append((var_j, k))
        return cglp(problem, rows, v_hat, var_j, k)

    monkeypatch.setattr(milp, "cglp_split_cut", recording)
    prob = MilpProblem(c=[-1.0, 0.0], rows=[MilpRow(cx=[], cy=[1000.0, 1.0], rhs=2001.0)],
                       integer=[True, False], lb=[0, 0], ub=[5, 1])
    lpp = milp._lp_at_param(prob.c, prob.rows, prob.x_param, prob.lb, prob.ub)
    sol = lp_solve(lpp)
    assert sol.x[0] == pytest.approx(2.001)
    assert milp._gmi_cut(prob, prob.rows, lpp, sol, 0) is None
    res = milp_solve(prob, "cp")
    assert calls[0] == (0, 2)
    assert res.cuts[0].provenance == "disjunctive-cglp"
    assert res.status == "optimal" and res.obj == pytest.approx(-2.0)


def test_chvatal_gomory_shift_awareness():
    # negative integer lower bounds shift before rounding
    prob = MilpProblem(c=[1.0, 1.0], rows=[], integer=[True, True], lb=[-2, -2], ub=[3, 3])
    row = MilpRow(cx=[], cy=[-1.5, -0.7], rhs=-1.1)   # 1.5a + 0.7b >= 1.1
    cut = chvatal_gomory_round(row, prob)
    assert cut is not None
    for a in range(-2, 4):
        for b in range(-2, 4):
            if 1.5 * a + 0.7 * b >= 1.1 - 1e-9:
                assert cut.cy @ np.array([a, b], dtype=float) <= cut.rhs + 1e-9


def test_chvatal_gomory_rejects_continuous_support():
    prob = MilpProblem(c=[1.0, 1.0], rows=[], integer=[True, False], lb=[0, 0], ub=[3, 3])
    row = MilpRow(cx=[], cy=[-1.0, -0.5], rhs=-1.0)
    assert chvatal_gomory_round(row, prob) is None


def test_value_function_row_validity():
    prob = MilpProblem(c=[1.0, 2.0], rows=[], integer=[True, True], lb=[0, 0], ub=[2, 2],
                       l1=2, x_param=[1.0, 0.0])
    row = value_function_row(prob, 3.0)
    # tight at the anchor
    assert row.cx @ prob.x_param + row.cy @ np.array([1.0, 1.0]) == pytest.approx(
        row.rhs - (3.0 - float(prob.c @ np.array([1.0, 1.0]))), abs=1e-9)
    # at the anchor the row reads q.y >= value
    assert row.at_param(prob.x_param) == pytest.approx(-3.0)
    # one parameter flip relaxes the bound below the objective range
    flipped = np.array([0.0, 0.0])
    assert row.at_param(flipped) >= -(3.0 - (abs(prob.c) @ (prob.ub - prob.lb) + 1.0 + 3.0)) - 1e-9


def test_masters_agree_with_highs(monkeypatch):
    # every master MILP of one micp and one dr workload pass, re-solved by
    # HiGHS: the first MILP check that shares no code with ``simplex``
    optimize = pytest.importorskip("scipy.optimize")
    from micpkit import micp
    from micpkit.generate import generate_instance
    from micpkit.micp import MicpOptions, micp_solve
    from micpkit.twostage import DrOptions, dr_solve

    masters, label = [], []
    real = micp.milp_solve

    def capture(problem, mode="bb"):
        A, b = milp._rows_at_param(problem.rows, problem.x_param)
        snapshot = (problem.c.copy(), A, b, problem.lb.copy(), problem.ub.copy(),
                    problem.integer.copy())
        res = real(problem, mode)
        masters.append((label[-1], len(masters), snapshot, res.status, res.obj))
        return res

    monkeypatch.setattr(micp, "milp_solve", capture)
    for seed in range(1000, 1050):
        label.append(f"micp {seed}")
        micp_solve(generate_instance(seed, "micp-smooth" if seed % 2 else "micp-separable"),
                   MicpOptions(milp_mode="cp" if seed % 3 == 0 else "bb"))
    for seed in range(2000, 2030):
        label.append(f"dr {seed}")
        opts = DrOptions()
        opts.scenario_opts.milp_mode = "cp"
        dr_solve(generate_instance(seed, "twostage-small"), opts)
    assert len(masters) > 80

    disagree = []
    for name, k, (c, A, b, lb, ub, integer), status, obj in masters:
        rows = () if A is None else optimize.LinearConstraint(A, -np.inf, b)
        ref = optimize.milp(c, constraints=rows, integrality=integer.astype(int),
                            bounds=optimize.Bounds(lb, ub), options={"mip_rel_gap": 0.0})
        ref_status = {0: "optimal", 2: "infeasible"}.get(ref.status, ref.message)
        if ref_status != status:
            disagree.append((name, k, status, ref_status))
        elif status == "optimal" and abs(obj - ref.fun) > 1e-6 * (1.0 + abs(ref.fun)):
            disagree.append((name, k, obj, ref.fun))
    assert disagree == []


def _joint_system_loop(problem, rows):
    """The joint system face by face: the reference ``milp._joint_system`` keeps."""
    l1, n = problem.l1, problem.n
    p = l1 + n
    G, g = [], []
    for r in rows:
        G.append(np.concatenate([-r.cx, -r.cy]))
        g.append(-r.rhs)
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        G += [e.copy(), -e]
        g += [0.0, -1.0] if j < l1 else [problem.lb[j - l1], -problem.ub[j - l1]]
    return np.vstack(G), np.asarray(g)


@pytest.mark.parametrize("l1,n,m", [(0, 2, 1), (2, 3, 4), (3, 1, 0)])
def test_joint_system_equals_the_face_loop(l1, n, m):
    # the CGLP reads this system, so its bits fix the cut sequence
    rng = np.random.default_rng(l1 * 100 + n * 10 + m)
    prob = MilpProblem(c=rng.normal(size=n), rows=[], integer=np.ones(n, dtype=bool),
                       lb=-rng.integers(0, 3, n), ub=rng.integers(1, 4, n), l1=l1,
                       x_param=rng.integers(0, 2, l1))
    rows = [MilpRow(cx=rng.normal(size=l1), cy=rng.normal(size=n), rhs=rng.normal())
            for _ in range(m)]
    G, g = milp._joint_system(prob, rows)
    G_ref, g_ref = _joint_system_loop(prob, rows)
    assert G.tobytes() == G_ref.tobytes() and G.shape == G_ref.shape
    assert g.tobytes() == g_ref.tobytes() and g.shape == g_ref.shape


def test_duplicate_cut_exits_to_the_fallback(monkeypatch, caplog):
    # a ladder step that returns a row already in the LP cannot cut off its
    # point: the loop suppresses it and takes the branch-and-bound fallback
    prob = MilpProblem(c=[1, 1], rows=[MilpRow(cx=[], cy=[-4, -1], rhs=-2),
                                       MilpRow(cx=[], cy=[-1, -4], rhs=-2)],
                       integer=[True, True], lb=[0, 0], ub=[5, 5])
    monkeypatch.setattr(milp, "chvatal_gomory_round", lambda row, problem: None)
    monkeypatch.setattr(milp, "_gmi_cut", lambda problem, rows, lpp, sol, j: rows[0])
    with caplog.at_level(logging.WARNING, logger="micpkit.milp"):
        res = milp_solve(prob, "cp")
    assert "duplicate cut suppressed at iteration 1" in caplog.text
    bb = milp.branch_and_bound(prob)
    assert res.status == bb.status == "optimal" and res.used_fallback
    assert res.obj == bb.obj
    # the fallback's value-function row is the only cut
    assert [rec.provenance for rec in res.cuts] == ["no-good"]
