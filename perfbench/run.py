"""micpkit benchmark: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload micp|dr|oracle --seed N --seconds S --trace 0|1

The workload's instances are solved one after another, in whole passes over
the workload's instance list, until the next pass would end after three
quarters of ``S`` seconds (at least one pass); the rest of ``S``, and at
least a quarter of it, goes to partial passes, cheapest instances first.
``--seed`` fixes the order of the instances in each pass.  Every answer is
checked against the brute-force oracle's status and objective in
refs.json.  Solve times are reported at one reference machine speed
(speed.py); the detail line also holds them as measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves every
instance of a pass twice, untraced and under the span recorder (spans.py),
and reports the per-layer metrics (layers.py).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a JSON object with the environment and the details
behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import bootstrap

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")
SETUP_PROBES = 3     # fresh interpreters before the timed region, and again after it
TAIL_BEYOND = 10     # solve_tail_ms: highest percentile with this many solves beyond it
# share of --seconds kept for cheapest-first re-solves after the whole passes, and
# given to them even when the passes overran, so a workload whose pass outlasts
# --seconds still takes several samples of most instances
MIN_RESOLVE = 0.25

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("micp", "dr", "oracle"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload):
    """Child-process body: time ``import micpkit`` plus instance generation."""
    t0 = time.perf_counter()
    import micpkit
    import workloads
    workloads.generate(micpkit, workloads.CASES[workload])
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload):
    """Import plus instance generation, timed in SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, cwd=bootstrap.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def load_refs(cases):
    with open(REFS_PATH) as fh:
        refs = json.load(fh)
    missing = [c.key for c in cases if c.key not in refs]
    if missing:
        raise KeyError(f"refs.json has no reference for {missing[:5]}; run perfbench/make_refs.py")
    return {c.key: tuple(refs[c.key]) for c in cases}


def environment(micpkit, numpy):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    pkg = os.path.dirname(micpkit.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "micpkit": os.path.relpath(pkg, bootstrap.ROOT),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Solves instances in order, timing each solve, probing the machine's
    speed just before it, and checking its answer."""

    def __init__(self, cases, instances, solve, refs, agrees):
        import speed   # loads numpy, so only after bootstrap.prepare()
        self.speed = speed
        self.cases, self.instances = cases, instances
        self.solve, self.refs, self.agrees = solve, refs, agrees
        self.attempted = 0
        self.failures = []
        self.times = []     # every solve's time, in order
        self.probes = []    # speed.probe() just before each solve

    def one(self, i):
        case = self.cases[i]
        self.probes.append(self.speed.probe())
        t0 = time.perf_counter()
        try:
            status, value = self.solve(case, self.instances[i])
            error = None
        except Exception as exc:   # a raised solve is a failed instance, not a crash
            status, value, error = "raised", None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        self.attempted += 1
        if error is None and not self.agrees(self.refs[case.key], status, value):
            error = f"got {status} {value!r}, oracle reference {self.refs[case.key]}"
        if error is not None:
            self.failures.append(f"{case.key}: {error}")
        return elapsed

    def at_reference_speed(self):
        """Every solve's time so far, scaled to the reference speed.  Probes
        once more, as the last solve's closing probe."""
        probes = self.probes + [self.speed.probe()]
        return [t * f for t, f in zip(self.times, self.speed.scales(probes, len(self.times)))]


def tail(values):
    """(value, percentile, n): highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def resolve_cheapest(cost, solve, end):
    """Partial passes, cheapest instances first, each stopping at the first
    instance that would end after ``end``, until not even the cheapest fits."""
    order = sorted(cost, key=cost.get)
    while order and time.perf_counter() + cost[order[0]] <= end:
        for i in order:
            if time.perf_counter() + cost[i] > end:
                break
            solve(i)


def run_untraced(runner, orders, seconds):
    """Whole passes while the next one ends within (1 - MIN_RESOLVE) of
    ``seconds`` (at least one); then cheapest-first partial passes until
    ``seconds``, or for MIN_RESOLVE of ``seconds`` if the passes overran.

    Returns the pass wall times and, per instance, the positions of its
    solves in ``runner.times``, where the whole passes come first."""
    walls, solves = [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i in next(orders):
            solves.setdefault(int(i), []).append(len(runner.times))
            runner.one(int(i))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(walls) > (1 - MIN_RESOLVE) * seconds:
            break
    end = max(start + seconds, time.perf_counter() + MIN_RESOLVE * seconds)
    cost = {i: statistics.median(runner.times[k] for k in ks) for i, ks in solves.items()}

    def again(i):
        solves[i].append(len(runner.times))
        runner.one(i)

    resolve_cheapest(cost, again, end)
    return walls, solves


def end_to_end(times, solves, whole):
    """solve_p50_ms, solve_tail_ms and instances_per_s from solve times
    (seconds, in solve order), and tail details.  ``whole`` is the number of
    solves in whole passes."""
    solve_ms = [1000.0 * statistics.median(times[k] for k in ks) for ks in solves.values()]
    tail_ms, tail_pct, tail_n = tail(solve_ms)
    metrics = {
        "solve_p50_ms": statistics.median(solve_ms),
        "solve_tail_ms": tail_ms,
        "instances_per_s": whole / sum(times[:whole]),
    }
    return metrics, {"solve_tail_pct": tail_pct, "solve_tail_n": tail_n}


def run_traced(runner, orders, seconds):
    """Per-layer metrics from passes in which every instance is solved twice,
    once untraced and once under the span recorder, alternating which goes
    first.  Pairing solves seconds apart keeps drift in machine speed out of
    ``trace.coverage`` and ``trace.overhead_pct``.

    Passes and closing partial passes share ``seconds`` as in
    :func:`run_untraced`.  Counts are kept per instance and must repeat
    exactly whenever an instance is traced again: in a later pass, and in
    the partial passes, which re-trace the cheapest instances, so a run of
    one pass still checks."""
    import layers
    import spans

    recorder = spans.Recorder()
    duplicates = spans.DuplicateCounter()
    recorder.install()
    missed = spans.unwrapped_aliases(recorder)
    recorder.uninstall()

    def traced(i):
        recorder.install()
        duplicates.attach()
        try:
            elapsed = runner.one(i)
        finally:
            duplicates.detach()
            recorder.uninstall()
        recorded, dups = recorder.take(), duplicates.take()
        counts = {k: v for k, v in layers.compute(recorded, dups).items() if layers.is_count(k)}
        return elapsed, recorded, dups, counts

    first_counts = {}    # instance index -> counts of its first traced solve
    traced_s = {}        # instance index -> time of its first traced solve
    unstable = set()

    def check(i, counts):
        ref = first_counts.setdefault(i, counts)
        unstable.update(f"{runner.cases[i].key}: {k}" for k in ref if counts[k] != ref[k])

    passes = []      # (untraced solve times, traced solve times, layer metrics, top-level span s, spans)
    start = time.perf_counter()
    while True:
        plain, under, recorded, dups = [], [], [], Counter()
        for k, i in enumerate(next(orders)):
            i = int(i)
            if k % 2 == 0:
                plain.append(runner.one(i))
                t, rec, dup, counts = traced(i)
            else:
                t, rec, dup, counts = traced(i)
                plain.append(runner.one(i))
            under.append(t)
            traced_s.setdefault(i, t)
            recorded.append(rec)
            dups.update(dup)
            check(i, counts)
        recorded = layers.concat(recorded)
        passes.append((plain, under, layers.compute(recorded, dups),
                       layers.top_level_s(recorded), len(recorded)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > (1 - MIN_RESOLVE) * seconds:
            break
    repeated = []

    def retrace(i):
        check(i, traced(i)[3])
        repeated.append(i)

    resolve_cheapest(traced_s, retrace,
                     max(start + seconds, time.perf_counter() + MIN_RESOLVE * seconds))

    first = passes[0][2]
    metrics = {}
    for name in first:
        if layers.is_count(name):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(m[name] for _, _, m, _, _ in passes)
    # coverage: span time against untraced time (the definition); attributed: against
    # the traced solves themselves, which drift in machine speed between the two
    # solves of a long instance cannot move; overhead: per instance, for the same reason
    metrics["trace.coverage"] = statistics.median(top / sum(p) for p, _, _, top, _ in passes)
    metrics["trace.attributed"] = statistics.median(top / sum(u) for _, u, _, top, _ in passes)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
        b / a for p, u, _, _, _ in passes for a, b in zip(p, u)) - 1.0)
    metrics["trace.spans"] = passes[0][4]
    details = {"passes": len(passes), "untraced_solve_s": [sum(p[0]) for p in passes],
               "traced_solve_s": [sum(p[1]) for p in passes], "unwrapped_aliases": missed,
               "counts_repeated_solves": (len(passes) - 1) * len(traced_s) + len(repeated),
               "counts_not_repeated": sorted(unstable)}
    ok = not missed and not unstable
    return {name: (metrics[name], layers.unit(name)) for name in layers.PER_LAYER}, details, ok


def main(argv=None):
    args = parse_args(argv)
    bootstrap.prepare()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import numpy
    import micpkit
    import workloads

    cases = workloads.CASES[args.workload]
    refs = load_refs(cases)
    instances = workloads.generate(micpkit, cases)
    solve = workloads.solver(micpkit, args.workload)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "instances": len(cases),
            "env": environment(micpkit, numpy)}

    setup_samples = measure_setup(args.workload) if args.trace == 0 else []

    # untimed warm-up: the first solves of a cold process pay one-off costs
    warm_cases = workloads.WARMUP[args.workload]
    warm = Runner(warm_cases, workloads.generate(micpkit, warm_cases), solve,
                  load_refs(warm_cases), workloads.agrees)
    for i in range(len(warm_cases)):
        warm.one(i)
    info["warmup_s"] = sum(warm.times)

    runner = Runner(cases, instances, solve, refs, workloads.agrees)
    orders = workloads.pass_orders(args.seed, len(cases))
    ok = True
    if args.trace == 0:
        walls, solves = run_untraced(runner, orders, args.seconds)
        whole = len(walls) * len(solves)
        values, details = end_to_end(runner.at_reference_speed(), solves, whole)
        measured, _ = end_to_end(runner.times, solves, whole)
        setup_samples += measure_setup(args.workload)
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        details.update(passes=len(walls), pass_wall_s=walls, measured=measured,
                       probe_ms=1000.0 * statistics.median(runner.probes),
                       setup_samples_s=setup_samples,
                       solve_ms={cases[i].key: [1000.0 * runner.times[k] for k in ks]
                                 for i, ks in sorted(solves.items())})
    else:
        metrics, details, ok = run_traced(runner, orders, args.seconds)

    # warm-up solves are checked too, and count as attempted like any other
    failures = warm.failures + runner.failures
    attempted = warm.attempted + runner.attempted
    info.update(details)
    info["fail_rate"] = len(failures) / attempted
    info["failures"] = failures[:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
