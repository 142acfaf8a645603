"""Checks of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import logging
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402

sys.path.insert(0, bootstrap.SRC)

import micpkit  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# bindings named in the benchmark's design; the recorder must find more than these
KNOWN_BINDINGS = {
    "simplex.lp_solve": ("simplex", "barrier", "milp", "benders", "twostage", None),
    "barrier.convex_solve": ("barrier", "micp", "bruteforce", None),
    "micp.micp_solve": ("micp", "benders", "twostage", None),
    "benders.parametric_solve": ("benders", "twostage", None),
}


def _module(short):
    return micpkit if short is None else importlib.import_module(f"micpkit.{short}")


@pytest.fixture
def recorder():
    rec = spans.Recorder().install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_every_binding_is_wrapped(recorder):
    assert spans.unwrapped_aliases(recorder) == []
    originals = recorder._originals
    for layer, modules in KNOWN_BINDINGS.items():
        name = layer.split(".")[1]
        for short in modules:
            bound = getattr(_module(short), name)
            assert bound is not originals[layer], f"{layer} unwrapped in {short}"
            assert bound.__wrapped__ is originals[layer]
    sd = micpkit.twostage.ScenarioDual
    assert sd.from_terminal.__wrapped__ is originals["twostage.scenario_dual"]


def test_uninstall_restores_originals():
    rec = spans.Recorder().install()
    originals = dict(rec._originals)
    rec.uninstall()
    for layer, modules in KNOWN_BINDINGS.items():
        for short in modules:
            assert getattr(_module(short), layer.split(".")[1]) is originals[layer]
    raw = vars(micpkit.twostage.ScenarioDual)["from_terminal"]
    assert isinstance(raw, staticmethod) and raw.__func__ is originals["twostage.scenario_dual"]


def test_alias_in_new_module_is_wrapped():
    probe = types.ModuleType("micpkit._alias_probe")
    probe.lp_solve = micpkit.simplex.lp_solve      # as ``from .simplex import lp_solve`` would
    sys.modules[probe.__name__] = probe
    rec = spans.Recorder()
    try:
        rec.install()
        assert probe.lp_solve.__wrapped__ is rec._originals["simplex.lp_solve"]
        assert spans.unwrapped_aliases(rec) == []
    finally:
        rec.uninstall()
        del sys.modules[probe.__name__]
    assert probe.lp_solve is micpkit.simplex.lp_solve


def test_missed_alias_is_reported(recorder):
    original = recorder._originals["simplex.lp_solve"]
    late = types.ModuleType("micpkit._late_probe")
    sys.modules[late.__name__] = late
    try:
        late.lp_solve = original                        # bound after install
        held = [recorder._originals["barrier.convex_solve"]]   # e.g. a registry list

        def uses_default(solver=recorder._originals["milp.milp_solve"]):
            return solver

        missed = spans.unwrapped_aliases(recorder)
        assert any(m.startswith("simplex.lp_solve: bound as micpkit._late_probe") for m in missed)
        assert "barrier.convex_solve: referenced by a list" in missed
        assert "milp.milp_solve: referenced by a tuple" in missed
        del held, uses_default
    finally:
        del sys.modules[late.__name__]


def _traced_pass(rec, counter, seeds):
    cases = [c for c in workloads.CASES["micp"] if c.seed in seeds]
    solve = workloads.solver(micpkit, "micp")
    counter.attach()
    try:
        for case in cases:
            solve(case, micpkit.generate_instance(case.seed, case.profile))
    finally:
        counter.detach()
    return rec.take(), counter.take()


def test_self_times_add_up_and_counts_repeat(recorder):
    counter = spans.DuplicateCounter()
    first, dups = _traced_pass(recorder, counter, (1000, 1002, 1003))
    own = layers.self_times(first)
    assert sum(own) == pytest.approx(layers.top_level_s(first), rel=1e-9)
    assert all(t >= -1e-9 for t in own)
    assert all(rec[1] < i for i, rec in enumerate(first))
    assert {rec[0] for rec in first if rec[1] < 0} == {"micp.micp_solve"}
    a = layers.compute(first, dups)
    second, dups2 = _traced_pass(recorder, counter, (1000, 1002, 1003))
    b = layers.compute(second, dups2)
    assert a["simplex.lp_solve.calls"] > 0 and a["barrier.project.calls"] > 0
    assert {k: v for k, v in a.items() if layers.is_count(k)} == \
        {k: v for k, v in b.items() if layers.is_count(k)}
    both = layers.concat([first, second])
    assert layers.top_level_s(both) == pytest.approx(layers.top_level_s(first) + layers.top_level_s(second))
    ab = layers.compute(both, dups + dups2)
    for k in ("simplex.lp_solve.pivots", "barrier.project.newton_steps", "milp.milp_solve.nodes",
              "micp.micp_solve.cuts.supporting", "micp.micp_solve.duplicates_suppressed"):
        assert ab[k] == 2 * a[k], k


def test_duplicate_counter():
    counter = spans.DuplicateCounter().attach()
    try:
        logging.getLogger("micpkit.micp").warning("duplicate %s cut at iteration %d suppressed",
                                                  "supporting", 2)
        logging.getLogger("micpkit.milp").warning("duplicate cut suppressed at iteration %d", 4)
        logging.getLogger("micpkit.milp").warning("cutting-plane ladder stalled; falling back")
    finally:
        counter.detach()
    assert counter.take() == {"micpkit.micp": 1, "micpkit.milp": 1}


def test_tail_percentile():
    value, pct, n = run.tail(list(range(50)))
    assert (value, pct, n) == (39, 80.0, 50)
    assert sum(v > value for v in range(50)) == run.TAIL_BEYOND


def test_resolve_cheapest_never_starts_what_cannot_finish():
    solved = []

    def solve(i):
        solved.append(i)
        time.sleep(0.005)

    run.resolve_cheapest({0: 0.001, 1: 0.002, 2: 10.0}, solve, time.perf_counter() + 0.05)
    assert 2 not in solved and solved[:2] == [0, 1] and len(solved) > 4
    solved.clear()
    run.resolve_cheapest({0: 1.0}, solve, time.perf_counter() + 0.05)
    assert solved == []


def test_speed_scales_follow_the_local_probes():
    ref = speed.REF_S
    probes = [ref] * 20 + [2 * ref] * 21           # the machine halves its speed after solve 19
    f = speed.scales(probes, 40)
    assert f[:10] == [1.0] * 10 and f[-10:] == [0.5] * 10
    assert all(a >= b for a, b in zip(f, f[1:]))


def test_refs_cover_every_case():
    with open(run.REFS_PATH) as fh:
        refs = json.load(fh)
    for group in (workloads.CASES, workloads.WARMUP):
        for cases in group.values():
            assert all(c.key in refs for c in cases)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CASES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, layers.unit(name), layers.better(name)) for name in layers.PER_LAYER]
