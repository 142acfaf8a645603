import dataclasses

import numpy as np
import pytest

from micpkit.benders import parametric_solve
from micpkit.bruteforce import brute_force
from micpkit.expr import Affine, Softplus, SquaredNorm, WeightedSum
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions, _Split, build_master, micp_solve, polish_step
from micpkit.milp import CutRecord, MilpRow
from micpkit.model import LinearObjective, ModelInstance, VariableSpec
from micpkit.section6 import build_instance
from micpkit.twostage import DrOptions, dr_solve

LOG1PE = float(np.log1p(np.e))


def _scenario1_standalone():
    g = WeightedSum([Softplus([1.0, 1.0]), Affine([-2.0, -LOG1PE], 0.0)])
    return ModelInstance(
        variables=[VariableSpec("y11", "integer", 0, 10), VariableSpec("y12", "integer", 0, 10)],
        objective=LinearObjective([0.5, 1.0]),
        convex=[g],
    )


# every exit reports these; "terminal" joins them only on a pinned optimal solve
UNPINNED_EXTRAS = {"master_points", "pool_records", "carried_cuts", "equivalence_events"}


def _assert_exit(cert, status, branch, iterations, solved):
    assert (cert.status, cert.branch_exits, cert.iterations) == (status, [branch], iterations)
    assert (cert.x is not None, cert.objective is not None) == (solved, solved)
    assert set(cert.extras) == UNPINNED_EXTRAS


def test_walkthrough_subproblem_standalone():
    cert = micp_solve(_scenario1_standalone(), MicpOptions(milp_mode="cp"))
    assert cert.status == "optimal"
    assert np.allclose(cert.x, [1, 0])
    assert cert.objective == pytest.approx(0.5)


def test_membership_exit_at_first_iteration():
    # relaxation vertex is integral and inside the convex set
    ball = WeightedSum([SquaredNorm(np.eye(2)), Affine([0, 0], -9.0)])
    m = ModelInstance(
        variables=[VariableSpec("a", "integer", 0, 2), VariableSpec("b", "integer", 0, 2)],
        objective=LinearObjective([1.0, 1.0]),
        convex=[ball],
    )
    cert = micp_solve(m, MicpOptions())
    _assert_exit(cert, "optimal", "membership", 1, solved=True)
    assert np.allclose(cert.x, [0, 0])


def test_membership_and_bounds_exits_on_generated_models():
    _assert_exit(micp_solve(generate_instance(1001, "micp-smooth")),
                 "optimal", "membership", 3, solved=True)
    _assert_exit(micp_solve(generate_instance(1000, "micp-separable")),
                 "optimal", "bounds", 2, solved=True)


def test_budget_exhaustion_reported():
    cert = micp_solve(_scenario1_standalone(), MicpOptions(max_iter=1))
    assert cert.status == "budget-exhausted"
    model = generate_instance(1001, "micp-smooth")
    # one iteration leaves the polish incumbent; none leaves nothing
    _assert_exit(micp_solve(model, MicpOptions(max_iter=1)), "budget-exhausted", "budget", 1,
                 solved=True)
    _assert_exit(micp_solve(model, MicpOptions(max_iter=0)), "budget-exhausted", "budget", 0,
                 solved=False)
    # a convex objective: the budget exit drops the epigraph coordinate, as the optimal exit does
    model = generate_instance(1003, "micp-smooth")
    assert not model.has_linear_objective()
    cert = micp_solve(model, MicpOptions(max_iter=1))
    _assert_exit(cert, "budget-exhausted", "budget", 1, solved=True)
    assert cert.x.shape == (model.n,)
    assert cert.objective == model.objective_value(cert.x)


def test_trace_holds_only_its_own_solve():
    # two solves with one options object: each certificate holds its own rows, numbered from 1
    opts = MicpOptions()
    first = micp_solve(generate_instance(1001, "micp-smooth"), opts)
    second = micp_solve(generate_instance(1001, "micp-smooth"), opts)
    assert [r["n"] for r in second.trace] == list(range(1, second.iterations + 1))
    assert second.trace == first.trace


def test_random_suite_matches_brute_force():
    for seed in range(500, 512):
        inst = generate_instance(seed, "micp-smooth")
        ref = brute_force(inst)
        got = micp_solve(inst, MicpOptions())
        assert ref.status == got.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))


def test_trace_invariants_on_suite():
    for seed in (520, 521, 522, 523):
        inst = generate_instance(seed, "micp-separable")
        cert = micp_solve(inst, MicpOptions(milp_mode="cp"))
        trace = cert.trace
        assert cert.status == "optimal"
        Ls = [row["L"] for row in trace if row["L"] is not None]
        assert all(b >= a - 1e-9 for a, b in zip(Ls, Ls[1:]))
        Us = [row["U"] for row in trace if row["U"] is not None]
        assert all(b <= a + 1e-9 for a, b in zip(Us, Us[1:]))
        for row in trace:
            if row["L"] is not None and row["U"] is not None:
                assert row["L"] <= row["U"] + 1e-8


def test_pooled_cuts_valid_at_feasible_points():
    for seed in (530, 531, 532):
        inst = generate_instance(seed, "micp-smooth")
        cert = micp_solve(inst, MicpOptions())
        if cert.status != "optimal":
            continue
        ref = brute_force(inst, prune_objective=False)
        records = cert.extras["pool_records"]
        for point, _ in ref.feasible_points:
            for rec in records:
                row = rec.row
                val = float(row.cy @ point) if row.cx.size == 0 else float(
                    row.cx @ point[: row.cx.size] + row.cy @ point[row.cx.size :]
                )
                assert val <= row.rhs + 1e-8, rec.provenance


def test_integer_block_stabilizes_before_termination():
    # stabilization is asymptotic; these pinned long runs exhibit it, and on
    # membership exits the final master block always matches the optimum
    for seed in (566, 575, 587, 597):
        inst = generate_instance(seed, "micp-smooth")
        cert = micp_solve(inst, MicpOptions())
        assert cert.status == "optimal" and cert.iterations >= 5
        pts = cert.extras["master_points"]
        ints = [i for i, v in enumerate(inst.variables) if v.is_integer]
        tail = [tuple(np.round(np.asarray(p)[ints], 6)) for p in pts[-2:]]
        assert tail[0] == tail[1]
    for seed in (540, 543):
        inst = generate_instance(seed, "micp-smooth")
        cert = micp_solve(inst, MicpOptions())
        if cert.branch_exits == ["membership"]:
            ints = [i for i, v in enumerate(inst.variables) if v.is_integer]
            last = np.asarray(cert.extras["master_points"][-1])
            got = np.asarray(cert.x)
            assert np.allclose(np.round(last[ints]), np.round(got[ints]), atol=1e-6)


def test_no_master_point_repeats_on_traces():
    for seed in (544, 545, 546):
        inst = generate_instance(seed, "micp-separable")
        cert = micp_solve(inst, MicpOptions(milp_mode="cp"))
        if cert.status != "optimal":
            continue
        pts = [tuple(np.round(p, 9)) for p in cert.extras["master_points"]]
        # a repeated master point is only ever the terminal one
        assert len(set(pts[:-1])) == len(pts[:-1])


def test_build_master_assembles_pool():
    m = _scenario1_standalone()
    split = _Split(m, None)
    pool = [CutRecord(row=MilpRow(cx=[], cy=[1.0, 0.0], rhs=1.0),
                      provenance="separation", iteration=1)]
    master = build_master(m, split, pool)
    assert len(master.rows) == 1 and master.rows[0] is pool[0].row
    assert master.c == pytest.approx([0.5, 1.0])
    # first iteration with empty pool is the plain linear relaxation
    master0 = build_master(m, split, [])
    assert not master0.rows


def test_polish_cases():
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine([0, 0], -1.0)])
    m = ModelInstance(
        variables=[VariableSpec("u", "continuous", -2, 2), VariableSpec("v", "continuous", -2, 2)],
        objective=LinearObjective([1.0, 0.0]),
        convex=[disk],
    )
    split = _Split(m, None)
    out = polish_step(m, split, np.array([0.0, 0.0]))
    assert out.case == "boundary"
    assert out.value == pytest.approx(-1.0, abs=1e-7)
    (row,) = out.cuts
    # supporting row at (-1, 0): -2 x1 <= 2
    assert row.cy[0] < 0 and abs(row.cy[1]) < 1e-6
    assert row.rhs / row.cy[0] == pytest.approx(-1.0, abs=1e-6)
    assert out.equivalence_ok

    # infeasible pinned pattern
    m2 = ModelInstance(
        variables=[VariableSpec("b", "binary", 0, 1), VariableSpec("w", "continuous", -2, 2)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[WeightedSum([SquaredNorm([[1.0, 0.0], [0.0, 1.0]], [-3.0, 0.0]),
                             Affine([0.0, 0.0], -1.0)])],
    )
    split2 = _Split(m2, None)
    out2 = polish_step(m2, split2, np.array([0.0, 0.0]))
    assert out2.case == "infeasible"

    # interior case
    m3 = ModelInstance(
        variables=[VariableSpec("b", "binary", 0, 1), VariableSpec("w", "continuous", -0.1, 0.1)],
        objective=LinearObjective([0.0, 1.0]),
        convex=[disk.embed(2, [0, 1])],
    )
    out3 = polish_step(m3, _Split(m3, None), np.array([0.0, 0.0]))
    assert out3.case == "interior"


def test_walkthrough_polish_closes_bounds():
    m = _scenario1_standalone()
    split = _Split(m, None)
    out = polish_step(m, split, np.array([1.0, 0.0]))
    assert out.case in ("interior", "boundary")
    assert out.value == pytest.approx(0.5)


def test_infeasible_master_detected():
    g = WeightedSum([SquaredNorm(np.eye(1)), Affine([0.0], -0.25)])  # x^2 <= 0.25
    m = ModelInstance(
        variables=[VariableSpec("x", "integer", 1, 3)],
        objective=LinearObjective([1.0]),
        convex=[g],
    )
    # the master point x = 1 is outside and the slice at x = 1 is empty
    _assert_exit(micp_solve(m, MicpOptions()), "infeasible", "convex-set-empty", 1, solved=False)
    m = ModelInstance(
        variables=[VariableSpec("x", "integer", 0, 3)],
        objective=LinearObjective([1.0]),
        A_ub=[[1.0]], b_ub=[-1.0],
    )
    _assert_exit(micp_solve(m, MicpOptions()), "infeasible", "master-infeasible", 1, solved=False)


def test_membership_reports_the_polish_when_the_master_point_breaks_a_row(monkeypatch):
    # the master point x = 2 + 5e-7 is integral within INT_TOL but breaks
    # x <= 2, so the membership exit reports the polish at x = 2 instead
    from micpkit import micp

    real = micp.milp_solve

    def nearly_integral(problem, mode="bb"):
        res = real(problem, mode)
        return dataclasses.replace(res, y=res.y + 5e-7)

    monkeypatch.setattr(micp, "milp_solve", nearly_integral)
    m = ModelInstance(
        variables=[VariableSpec("x", "integer", 0, 3)],
        objective=LinearObjective([-1.0]),
        A_ub=[[1.0]], b_ub=[2.0],
    )
    cert = micp_solve(m, MicpOptions())
    _assert_exit(cert, "optimal", "membership", 1, solved=True)
    assert cert.extras["master_points"][0].tolist() == [2.0 + 5e-7]
    assert cert.x.tolist() == [2.0] and cert.objective == -2.0
    assert cert.oracle_counts["convex"] == 1


def test_projections_count_every_newton_iteration(monkeypatch):
    # each projection's certificate counts phase 1 and the main loop, and the
    # solve still gives the brute-force answer
    from micpkit import micp

    project, certs = micp.project, []

    def recording_project(*args, **kwargs):
        z, dist, cert = project(*args, **kwargs)
        certs.append(cert)
        return z, dist, cert

    monkeypatch.setattr(micp, "project", recording_project)
    model = generate_instance(1013, "micp-smooth")
    cert = micp_solve(model)
    assert len(certs) == cert.oracle_counts["projections"] > 0
    for pcert in certs:
        assert pcert.newton_steps == sum(pcert.newton_by_phase.values()) > 0
        assert pcert.newton_by_phase["main"] > 0
    ref = brute_force(model)
    assert cert.status == ref.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6)


def test_option_surface():
    # a new knob needs an edit here and a line in CHANGES.md
    assert [f.name for f in dataclasses.fields(MicpOptions)] == [
        "tol", "max_iter", "milp_mode"]
    assert [f.name for f in dataclasses.fields(DrOptions)] == [
        "tol", "max_iter", "milp_mode", "scenario_opts"]


def test_pinned_parameter_block_yields_the_terminal_lp():
    # pinning the parameter block alone switches on cp masters and terminal
    # extraction, so default options give what parametric_solve gives
    model = build_instance(y_upper=6).scenario_model(0)
    param = {0: 1.0, 1: 0.0}
    cert = micp_solve(model, MicpOptions(), param_value=param)
    ref = parametric_solve(model, param)
    assert cert.status == ref.status == "optimal"
    terminal = cert.extras["terminal"]
    assert terminal.anchor[1].obj == pytest.approx(cert.objective, abs=1e-9)
    assert cert.cut_pool == ref.cut_pool
    assert cert.objective == ref.objective
    # a pinned solve that stops short has no terminal LP to give
    short = micp_solve(model, MicpOptions(max_iter=1), param_value=param)
    _assert_exit(short, "budget-exhausted", "budget", 1, solved=False)


def test_carried_pool_gives_the_empty_pool_answer():
    for seed in (2000, 2001, 2002):
        inst = generate_instance(seed, "twostage-small")
        for w in range(min(2, len(inst.scenarios))):
            model = inst.scenario_model(w)
            at = [{i: float(v) for i, v in enumerate(bits)}
                  for bits in ([0] * inst.l1, [1] * inst.l1)]
            earlier = micp_solve(model, param_value=at[0])
            pool = earlier.extras["pool_records"]
            fresh = micp_solve(model, param_value=at[1])
            # a repeated record is deduplicated like any cut
            seeded = micp_solve(model, param_value=at[1], pool=pool + pool)
            assert seeded.status == fresh.status == "optimal"
            assert seeded.objective == pytest.approx(
                fresh.objective, abs=1e-6 * (1 + abs(fresh.objective)))
            assert seeded.extras["carried_cuts"] == len(pool)
            records = seeded.extras["pool_records"]
            assert records[: len(pool)] == pool
            # cut_pool lists only the cuts this solve added
            assert seeded.cut_pool == [rec.to_dict() for rec in records[len(pool):]]


def _non_member_iterations(cert):
    return [row["n"] for row in cert.trace if row["branch"] != "membership"]


def test_boundary_polish_spares_the_projection():
    # the supporting cuts of a boundary polish cut the master point off, so
    # those iterations project nowhere, and the answer is the oracle's
    model = generate_instance(1001, "micp-smooth")
    cert = micp_solve(model)
    outside = _non_member_iterations(cert)
    assert [cert.trace[n - 1]["branch"] for n in outside] == ["boundary", "boundary"]
    assert cert.oracle_counts["projections"] < len(outside)
    ref = brute_force(model)
    assert cert.status == ref.status == "optimal"
    assert cert.objective == pytest.approx(ref.value, abs=1e-6 * (1 + abs(ref.value)))


def test_boundary_polish_whose_cut_holds_at_the_master_point_still_projects():
    # min v on the unit disk with v >= -1: the master point (-2, -1) ties the
    # polish (0, -1), so the pooled supporting cut v >= -1 does not cut it
    # off, and the iteration projects as well
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine([0, 0], -1.0)])
    model = ModelInstance(
        variables=[VariableSpec("u", "continuous", -2, 2), VariableSpec("v", "continuous", -2, 2)],
        objective=LinearObjective([0.0, 1.0]),
        A_ub=[[0.0, -1.0]], b_ub=[1.0],
        convex=[disk],
    )
    cert = micp_solve(model)
    _assert_exit(cert, "optimal", "bounds", 1, solved=True)
    assert cert.trace[0]["branch"] == "boundary"
    assert cert.oracle_counts["projections"] == 1
    assert [cut["provenance"] for cut in cert.cut_pool] == ["supporting", "separation"]
    assert cert.x == pytest.approx([0.0, -1.0], abs=1e-6)


def test_infeasible_polishes_all_project():
    # every coordinate is integer, so a polish at a master point outside the
    # ball pins it there and is infeasible: each such iteration projects
    ball = WeightedSum([SquaredNorm(np.eye(2)), Affine([-1.0, -6.6], 0.5**2 + 3.3**2 - 5.0)])
    model = ModelInstance(
        variables=[VariableSpec("a", "integer", 0, 6), VariableSpec("b", "integer", 0, 6)],
        objective=LinearObjective([-1.0, -2.0]),
        convex=[ball],
    )
    for mode in ("bb", "cp"):
        cert = micp_solve(model, MicpOptions(milp_mode=mode))
        outside = _non_member_iterations(cert)
        assert [cert.trace[n - 1]["branch"] for n in outside] == ["infeasible"] * 3
        assert cert.oracle_counts["projections"] == len(outside)
        kinds = [rec.provenance for rec in cert.extras["pool_records"]]
        assert kinds.count("separation") == 3 and "supporting" not in kinds
        assert cert.objective == brute_force(model).value == -11.0


def test_every_non_member_iteration_pools_a_cut_its_master_point_breaks(monkeypatch):
    # over the micp workload's solves and the pinned scenario solves of dr
    # seeds 2000-2009: each iteration outside the convex set pools a
    # separation or supporting cut that its master point breaks by > 1e-10
    from micpkit import benders

    solves = []     # (certificate, parameter block)
    for seed in range(1000, 1050):
        model = generate_instance(seed, "micp-smooth" if seed % 2 else "micp-separable")
        solves.append((micp_solve(model, MicpOptions(milp_mode="cp" if seed % 3 == 0 else "bb")),
                       []))
    real = benders.micp_solve

    def recording(model, opts=None, param_value=None, pool=None):
        cert = real(model, opts, param_value=param_value, pool=pool)
        solves.append((cert, list(param_value)))
        return cert

    monkeypatch.setattr(benders, "micp_solve", recording)
    for seed in range(2000, 2010):
        dr_solve(generate_instance(seed, "twostage-small"))
    assert len(solves) > 50
    checked = projected = 0
    for cert, params in solves:
        records = cert.extras["pool_records"][cert.extras["carried_cuts"]:]
        for n in _non_member_iterations(cert):
            x = cert.extras["master_points"][n - 1]
            breaks = [rec.row.cx @ x[params] + rec.row.cy @ np.delete(x, params) - rec.row.rhs
                      for rec in records
                      if rec.iteration == n and rec.provenance in ("separation", "supporting")]
            assert max(breaks, default=0.0) > 1e-10, (cert.trace, n)
            checked += 1
        projected += cert.oracle_counts["projections"]
    assert projected < checked
