"""Stall scan of the convex kernel (a script; pytest does not collect it).

Run from the repository root:

    PYTHONPATH=src python tests/scan_kernel.py --draws 10000 --seed 0

It draws the arguments of ``_random_feasible_program`` and
``_random_small_program`` (``tests/test_kernel.py``) uniformly over the
ranges their Hypothesis tests draw from, solves each program once with
``convex_solve`` and counts the draws that raise ``NumericalFailure``, with
their arguments, by kind of failure (``KINDS``): a stall of the main
phase, a stall of phase 1, a certificate residual above tolerance, or a
feasible set with no interior.  So a change that swaps one kind for another
shows even when the total holds.  Then it solves the known reproducers, 19
main-phase stalls of the first generator (17 with n = 4, 2 with n = 3) and
2 phase-1 stalls of the second, and reports each one's outcome: the status, or the kind and message
of the error it raises.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json

import numpy as np
from test_kernel import _random_feasible_program, _random_small_program

from micpkit.barrier import convex_solve
from micpkit.errors import NumericalFailure

# (seed, n, n_rows, pins, equality, projection)
MAIN_PHASE = (
    (13002, 4, 3, 1, False, False),
    (4212248220, 4, 2, 0, False, True), (2271342945, 4, 1, 0, False, False),
    (4254514585, 4, 1, 0, False, False), (590563822, 4, 4, 0, False, False),
    (460903774, 4, 4, 0, False, False), (3270144979, 4, 1, 0, False, False),
    (3480985114, 4, 2, 0, False, True), (1238466427, 4, 2, 0, False, True),
    (3820554629, 4, 3, 0, True, False), (822189526, 4, 3, 1, False, True),
    (2232815066, 4, 2, 0, True, False), (2834472400, 4, 3, 0, False, False),
    (1499434313, 4, 2, 0, False, False), (1680732682, 4, 2, 0, True, True),
    (2943846137, 4, 3, 0, False, False), (3127644801, 4, 3, 0, False, True),
    (3788748685, 3, 1, 0, False, False), (3, 3, 1, 0, False, True),
)
# (seed, free, pins, interior)
PHASE1 = ((3148586583, 3, 2, False), (959682, 3, 0, False))


# each kind of NumericalFailure that convex_solve raises, by a phrase of its message
KINDS = (("phase1_stall", "stalled in phase 1"), ("main_stall", "loop stalled"),
         ("residual", "above tolerance"), ("no_interior", "no interior"))


def _kind(exc):
    return next((kind for kind, phrase in KINDS if phrase in str(exc)), "other")


def _outcome(prog):
    """The solve's status, or the kind and message of the NumericalFailure it raises."""
    try:
        return convex_solve(prog).status
    except NumericalFailure as exc:
        return f"NumericalFailure ({_kind(exc)}): {exc}"


def _feasible_args(rng):
    return (int(rng.integers(2**32)), int(rng.integers(1, 5)), int(rng.integers(1, 5)),
            int(rng.integers(0, 3)), bool(rng.integers(2)), bool(rng.integers(2)))


def _small_args(rng):
    return (int(rng.integers(2**32)), int(rng.integers(1, 4)), int(rng.integers(0, 3)),
            bool(rng.integers(2)))


def scan(draws, seed):
    rng = np.random.default_rng(seed)
    report = {"draws": draws, "seed": seed}
    for name, args_of, build in (("random_feasible_program", _feasible_args,
                                  lambda a: _random_feasible_program(*a)[0]),
                                 ("random_small_program", _small_args, lambda a: _random_small_program(*a))):
        raised = []
        for args in (args_of(rng) for _ in range(draws)):
            try:
                convex_solve(build(args))
            except NumericalFailure as exc:
                raised.append([*args, _kind(exc)])
        by_kind = dict.fromkeys([*dict(KINDS), "other"], 0)
        for r in raised:
            by_kind[r[-1]] += 1
        report[name] = {"numerical_failures": len(raised), "by_kind": by_kind,
                        "draws_that_raised": raised}
    report["main_phase_reproducers"] = {str(a): _outcome(_random_feasible_program(*a)[0]) for a in MAIN_PHASE}
    report["phase1_reproducers"] = {str(a): _outcome(_random_small_program(*a)) for a in PHASE1}
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--draws", type=int, default=1000, help="draws of each generator")
    ap.add_argument("--seed", type=int, default=0, help="seed of the draws")
    args = ap.parse_args(argv)
    print(json.dumps(scan(args.draws, args.seed)))


if __name__ == "__main__":
    main()
