"""Recompute perfbench/refs.json: brute-force oracle status and objective per case.

Run from the repository root:  python3 perfbench/make_refs.py
Takes about a minute on one core.  run.py only reads the file; the
``oracle`` workload re-derives every reference it covers on each run.
"""

from __future__ import annotations

import json
import os
import time

import bootstrap

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def main():
    bootstrap.prepare()
    import micpkit
    import workloads

    oracle = workloads.solver(micpkit, "oracle")
    cases = {c.key: c for w in ("micp", "dr") for c in workloads.CASES[w]}
    refs = {}
    for key, case in cases.items():
        t0 = time.perf_counter()
        status, value = oracle(case, micpkit.generate_instance(case.seed, case.profile))
        refs[key] = [status, value]
        print(f"{key} {status} {value!r} {time.perf_counter() - t0:.2f}s", flush=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
    with open(REFS_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
