"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line.  The heavy random suites run once
in module-scoped fixtures and are shared by the downstream criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from first_stage import full_first_stage

from micpkit.bruteforce import brute_force, brute_force_two_stage, extensive_form
from micpkit.generate import generate_instance
from micpkit.micp import MicpOptions, micp_solve
from micpkit.section6 import build_instance, replay
from micpkit.simplex import LpProblem, lp_dual_certificate, lp_solve
from micpkit.twostage import DrOptions, dr_solve

MICP_SEEDS = list(range(1000, 1050))          # 50 instances
DR_SEEDS = list(range(2000, 2030))            # 30 instances


@contextmanager
def _report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def replay_run():
    t0 = time.time()
    trace, artifacts = replay()
    return trace, artifacts, time.time() - t0


@pytest.fixture(scope="module")
def micp_suite():
    runs = []
    t0 = time.time()
    for seed in MICP_SEEDS:
        inst = generate_instance(seed, "micp-smooth" if seed % 2 else "micp-separable")
        ref = brute_force(inst)
        cert = micp_solve(inst, MicpOptions(milp_mode="cp" if seed % 3 == 0 else "bb"))
        runs.append({"seed": seed, "instance": inst, "ref": ref, "cert": cert, "trace": cert.trace})
    return runs, time.time() - t0


@pytest.fixture(scope="module")
def dr_suite():
    runs = []
    t0 = time.time()
    for seed in DR_SEEDS:
        inst = generate_instance(seed, "twostage-small")
        ref = brute_force_two_stage(inst)
        opts = DrOptions()
        opts.scenario_opts.milp_mode = "cp"
        cert = dr_solve(inst, opts)
        runs.append({"seed": seed, "instance": inst, "ref": ref, "cert": cert, "trace": cert.trace})
    return runs, time.time() - t0


# --------------------------------------------------------------------------
# 1. walkthrough replay
# --------------------------------------------------------------------------

def test_criterion_1_walkthrough_replay(replay_run):
    trace, art, elapsed = replay_run
    with _report(1, "walkthrough replay"):
        assert elapsed < 5.0
        order = [r["step"] for r in trace]

        def pos(step):
            return order.index(step)

        assert pos("master-relaxation") < pos("first-stage") < pos("scenario1-fractional")
        assert pos("scenario1-fractional") < pos("scenario1-tangent-cut")
        assert pos("scenario1-tangent-cut") < pos("scenario1-integrality-cut")
        assert pos("scenario1-benders-cut") < pos("aggregated-cut") < pos("terminate")

        assert art["master_relaxation"] == pytest.approx([2.0 / 3.0, 0.0], abs=1e-6)
        assert art["first_stage"] == pytest.approx([1.0, 0.0])
        assert art["scenario1_fractional"] == pytest.approx([0.5, 0.48], abs=1e-2)
        assert art["tangent_cut"]["coeffs"] == pytest.approx([1.272, 0.586], abs=1e-2)
        assert art["tangent_cut"]["rhs"] == pytest.approx(0.918, abs=1e-2)
        assert art["integrality_cut"]["coeffs"] == pytest.approx([1.0, 1.0], abs=1e-9)
        assert art["integrality_cut"]["rhs"] == pytest.approx(1.0, abs=1e-9)
        assert art["benders1"]["a"] == pytest.approx([-0.5, -0.5], abs=1e-6)
        assert art["benders1"]["b"] == pytest.approx(1.0, abs=1e-6)
        assert art["benders2"]["a"] == pytest.approx([-1.0, -1.0], abs=1e-6)
        assert art["benders2"]["b"] == pytest.approx(2.0, abs=1e-6)
        assert art["repeat_detected"]
        assert art["x_star"] == pytest.approx([1.0, 0.0])
        assert art["aggregated"]["b"] == pytest.approx(1.5, abs=1e-6)
        assert art["aggregated"]["a"][0] == pytest.approx(-0.75, abs=1e-6)
        # the fixture's recorded aggregated inequality carries -1 on the
        # second first-stage coordinate; the probability-weighted combination
        # of the two scenario inequalities required above fixes it at -0.75,
        # so the two requirements cannot hold together
        assert art["aggregated"]["a"][1] == pytest.approx(-1.0, abs=1e-6), (
            "aggregated cut x2 coefficient: computed "
            f"{art['aggregated']['a'][1]} from 0.5*(-0.5) + 0.5*(-1.0); the "
            "recorded value -1.0 contradicts the required scenario cuts"
        )


# --------------------------------------------------------------------------
# 2. oracle equivalence on mixed-integer convex instances
# --------------------------------------------------------------------------

def test_criterion_2_micp_oracle_equivalence(micp_suite):
    runs, elapsed = micp_suite
    with _report(2, "oracle equivalence, mixed-integer convex suite"):
        assert len(runs) == 50
        for run in runs:
            ref, cert = run["ref"], run["cert"]
            assert ref.status == cert.status, run["seed"]
            if ref.status == "optimal":
                assert cert.objective == pytest.approx(
                    ref.value, abs=1e-6 * (1 + abs(ref.value))), run["seed"]
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 3. oracle equivalence on the robust two-stage suite
# --------------------------------------------------------------------------

def test_criterion_3_dr_oracle_equivalence(dr_suite):
    runs, elapsed = dr_suite
    with _report(3, "oracle equivalence, robust two-stage suite"):
        assert len(runs) == 30
        singleton_checked = 0
        for run in runs:
            ref, cert, inst = run["ref"], run["cert"], run["instance"]
            assert ref.status == cert.status, run["seed"]
            if ref.status == "optimal":
                assert cert.objective == pytest.approx(
                    ref.value, abs=1e-6 * (1 + abs(ref.value))), run["seed"]
            if inst.ambiguity.is_singleton() and singleton_checked < 6:
                direct = micp_solve(extensive_form(inst), MicpOptions())
                assert cert.objective == pytest.approx(
                    direct.objective, abs=1e-6 * (1 + abs(direct.objective))), run["seed"]
                singleton_checked += 1
        assert singleton_checked >= 1
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 4. validity of every emitted cut at brute-force-enumerated points
# --------------------------------------------------------------------------

def _check_joint_rows(records, points, l1, tol=1e-8):
    for rec in records:
        row = rec.row if hasattr(rec, "row") else rec
        cx = np.asarray(row.cx if hasattr(row, "cx") else row["cx"])
        cy = np.asarray(row.cy if hasattr(row, "cy") else row["cy"])
        rhs = float(row.rhs if hasattr(row, "rhs") else row["rhs"])
        for pt in points:
            val = float(cx @ pt[:l1] + cy @ pt[l1:]) if cx.size else float(cy @ pt)
            assert val <= rhs + tol


def test_criterion_4_cut_validity(replay_run, micp_suite, dr_suite):
    trace, art, _ = replay_run
    micp_runs, _ = micp_suite
    dr_runs, _ = dr_suite
    with _report(4, "cut validity at enumerated feasible points"):
        # mixed-integer convex runs: pooled cuts against optimal completions
        for run in micp_runs:
            if run["cert"].status != "optimal":
                continue
            # every feasible point, not only those the oracle's pruned walk solved
            bf = brute_force(run["instance"], prune_objective=False)
            pts = [p for p, _ in bf.feasible_points]
            _check_joint_rows(run["cert"].extras["pool_records"], pts, 0)

        # robust runs: scenario pools against joint scenario enumerations,
        # value-function cuts against the recourse at every feasible first-stage
        # point, not only those the oracle's bounded walk solved
        for run in dr_runs[:10]:
            inst = run["instance"]
            _, _, table = full_first_stage(inst)
            scen_points = {}
            for w in range(len(inst.scenarios)):
                bf = brute_force(inst.scenario_model(w), prune_objective=False)
                scen_points[w] = [p for p, _ in bf.feasible_points]
            for rec in run["cert"].cut_pool:
                if "scenario" in rec and "cx" in rec:
                    _check_joint_rows([rec], scen_points[rec["scenario"]], inst.l1)
            for it in run["cert"].trace:
                for w, cd in enumerate(it["scenario_cuts"]):
                    for bits, info in table.items():
                        val = float(np.asarray(cd["a"]) @ np.asarray(bits)) + cd["b"]
                        assert val <= info["recourse"][w] + 1e-8
                for bits, info in table.items():
                    val = float(np.asarray(it["aggregated"]["a"]) @ np.asarray(bits)) + it["aggregated"]["b"]
                    assert val <= info["G"] + 1e-8

        # walkthrough cuts against the fixture's enumeration
        _, _, table = full_first_stage(build_instance(y_upper=6))
        for name, w in (("benders1", 0), ("benders2", 1)):
            for bits, info in table.items():
                val = float(np.asarray(art[name]["a"]) @ np.asarray(bits)) + art[name]["b"]
                assert val <= info["recourse"][w] + 1e-8
        for bits, info in table.items():
            val = float(np.asarray(art["aggregated"]["a"]) @ np.asarray(bits)) + art["aggregated"]["b"]
            assert val <= info["G"] + 1e-8


# --------------------------------------------------------------------------
# 5. linear-reduction equality at boundary polishes
# --------------------------------------------------------------------------

def test_criterion_5_polish_equivalence_events(micp_suite):
    runs, _ = micp_suite
    with _report(5, "boundary-polish linear-reduction equality"):
        events = []
        for run in runs:
            events.extend(run["cert"].extras.get("equivalence_events", []))
        seed = 9000
        while len(events) < 100 and seed < 9400:
            inst = generate_instance(seed, "micp-smooth")
            cert = micp_solve(inst, MicpOptions())
            events.extend(cert.extras.get("equivalence_events", []))
            seed += 1
        assert len(events) >= 100, f"only {len(events)} boundary polishes observed"
        assert all(events[:100]), "a boundary polish failed its linear reduction"
        assert all(events), "a boundary polish failed its linear reduction"


# --------------------------------------------------------------------------
# 6. bound monotonicity and finite termination
# --------------------------------------------------------------------------

def test_criterion_6_bounds_and_termination(replay_run, micp_suite, dr_suite):
    micp_runs, _ = micp_suite
    dr_runs, _ = dr_suite
    with _report(6, "bound monotonicity and finite termination"):
        for run in micp_runs:
            cert = run["cert"]
            assert cert.status in ("optimal", "infeasible")
            assert cert.iterations <= 500
            Ls = [r["L"] for r in run["trace"] if r["L"] is not None]
            Us = [r["U"] for r in run["trace"] if r["U"] is not None]
            assert all(b >= a - 1e-9 for a, b in zip(Ls, Ls[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(Us, Us[1:]))
            for r in run["trace"]:
                if r["L"] is not None and r["U"] is not None:
                    assert r["L"] <= r["U"] + 1e-8
        for run in dr_runs:
            cert = run["cert"]
            assert cert.status in ("optimal", "infeasible")
            assert cert.iterations <= 500
            Ls = [r["L"] for r in run["trace"]]
            Us = [r["U"] for r in run["trace"]]
            assert all(b >= a - 1e-9 for a, b in zip(Ls, Ls[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(Us, Us[1:]))
            assert all(l <= u + 1e-8 for l, u in zip(Ls, Us))


# --------------------------------------------------------------------------
# 7. value-function cut tightness at its anchor
# --------------------------------------------------------------------------

def test_criterion_7_benders_tightness(replay_run, dr_suite):
    trace, art, _ = replay_run
    dr_runs, _ = dr_suite
    with _report(7, "value-function cut tightness at the anchor"):
        # walkthrough: per-scenario and aggregated cuts anchored at [1, 0]
        x_hat = np.array([1.0, 0.0])
        assert float(np.asarray(art["benders1"]["a"]) @ x_hat) + art["benders1"]["b"] == pytest.approx(0.5, abs=1e-6)
        assert float(np.asarray(art["benders2"]["a"]) @ x_hat) + art["benders2"]["b"] == pytest.approx(1.0, abs=1e-6)
        assert float(np.asarray(art["aggregated"]["a"]) @ x_hat) + art["aggregated"]["b"] == pytest.approx(0.75, abs=1e-6)
        for run in dr_runs:
            for it in run["cert"].trace:
                anchor = np.asarray(it["x"])
                expect = float(np.asarray(it["p"]) @ np.asarray(it["recourse"]))
                got = float(np.asarray(it["aggregated"]["a"]) @ anchor) + it["aggregated"]["b"]
                assert got == pytest.approx(expect, abs=1e-6 * (1 + abs(expect)))
                for w, cd in enumerate(it["scenario_cuts"]):
                    got_w = float(np.asarray(cd["a"]) @ anchor) + cd["b"]
                    assert got_w == pytest.approx(it["recourse"][w], abs=1e-6 * (1 + abs(it["recourse"][w])))


# --------------------------------------------------------------------------
# 8. numerical kernel properties
# --------------------------------------------------------------------------

def test_criterion_8_numerical_kernels():
    with _report(8, "numerical kernel properties"):
        # strong duality on 500 random linear programs
        rng = np.random.default_rng(88)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, 11))
            A = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
            prob = LpProblem.build(rng.normal(size=n), A, b, None, None,
                                   x0 - rng.uniform(0.5, 3.0, n), x0 + rng.uniform(0.5, 3.0, n))
            sol = lp_solve(prob)
            assert sol.status == "optimal"
            assert sol.duality_gap() <= 1e-8 * (1.0 + abs(sol.obj))
            assert lp_dual_certificate(sol, prob).ok

        # subgradient inequality, 1000 pairs per atom kind
        from micpkit.expr import (Affine, LogSumExp, NormAffine, PowerAffine,
                                  Softplus, SquaredNorm, WeightedSum)
        n = 4
        atoms = [
            Affine(rng.normal(size=n), rng.normal()),
            Softplus(rng.normal(size=n), rng.normal()),
            LogSumExp(rng.normal(size=(3, n)), rng.normal(size=3)),
            PowerAffine(rng.normal(size=n), rng.normal(), 2.0),
            PowerAffine(rng.normal(size=n), rng.normal(), 1.0),
            SquaredNorm(rng.normal(size=(2, n)), rng.normal(size=2)),
            NormAffine(rng.normal(size=(2, n)), rng.normal(size=2)),
            WeightedSum([Softplus(rng.normal(size=n)), SquaredNorm(rng.normal(size=(2, n)))],
                        rng.uniform(0.1, 1.5, 2)),
        ]
        for expr in atoms:
            X = rng.normal(size=(1000, n)) * 2
            Z = rng.normal(size=(1000, n)) * 2
            for x, z in zip(X, Z):
                vx = expr.value(x)
                g = expr.subgrad(x)
                assert expr.value(z) >= vx + g @ (z - x) - 1e-9

        # normal-cone decomposition residual on 200 certified points
        from micpkit.barrier import ConvexProgram, convex_solve, decompose_normal_cone
        count = 0
        seed = 0
        while count < 200:
            seed += 1
            rng2 = np.random.default_rng(10_000 + seed)
            nv = int(rng2.integers(2, 5))
            x0 = rng2.uniform(-0.5, 0.5, nv)
            gs = []
            for _ in range(int(rng2.integers(1, 4))):
                v = rng2.normal(size=nv)
                gs.append(WeightedSum([Softplus(v, -float(v @ x0)),
                                       Affine(np.zeros(nv), -rng2.uniform(0.4, 1.2))]))
            c = rng2.normal(size=nv)
            prog = ConvexProgram(n=nv, c=c, convex=gs, lb=x0 - 2, ub=x0 + 2)
            cert = convex_solve(prog)
            if cert.status != "optimal":
                continue
            cones = []
            for i, g in enumerate(gs):
                if cert.active_convex[i]:
                    cones.append(np.column_stack([g.subgrad(cert.x)]))
            for j in range(nv):
                if cert.x[j] <= prog.lb[j] + 1e-6:
                    e = np.zeros(nv)
                    e[j] = -1.0
                    cones.append(np.column_stack([e]))
                if cert.x[j] >= prog.ub[j] - 1e-6:
                    e = np.zeros(nv)
                    e[j] = 1.0
                    cones.append(np.column_stack([e]))
            if not cones:
                continue
            dec = decompose_normal_cone(-c, cones, tol=1e-8)
            assert dec.residual <= 1e-8 * (1.0 + np.linalg.norm(c))
            count += 1
