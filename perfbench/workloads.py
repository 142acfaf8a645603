"""Workload definitions: the fixed instance universes and how each is solved.

Every workload solves a fixed list of generator seeds, the same lists the
acceptance suites use.  ``--seed`` only fixes the order in which the
instances are solved in each pass (see README.md for why the instance set
itself does not depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MICP_SEEDS = tuple(range(1000, 1050))   # 50 instances, as tests/test_acceptance.py
DR_SEEDS = tuple(range(2000, 2030))     # 30 instances, as tests/test_acceptance.py
# brute_force_two_stage costs about 1 s per instance (2004 alone 3-4 s); five keep
# the oracle pass short enough that a run re-samples most of its instances
ORACLE_DR_SEEDS = DR_SEEDS[:5]

REL_TOL = 1e-6                          # agreement with the oracle: 1e-6 * (1 + |ref|)


@dataclass(frozen=True)
class Case:
    kind: str          # "micp" (single-stage model) | "dr" (two-stage instance)
    seed: int
    profile: str
    milp_mode: str     # master MILP mode: micp alternates bb/cp, dr scenario masters use cp

    @property
    def key(self):
        return f"{self.kind}:{self.seed}"


def _micp_case(seed):
    return Case("micp", seed, "micp-smooth" if seed % 2 else "micp-separable",
                "cp" if seed % 3 == 0 else "bb")


def _dr_case(seed):
    return Case("dr", seed, "twostage-small", "cp")


CASES = {
    "micp": tuple(_micp_case(s) for s in MICP_SEEDS),
    "dr": tuple(_dr_case(s) for s in DR_SEEDS),
    "oracle": tuple(_micp_case(s) for s in MICP_SEEDS) + tuple(_dr_case(s) for s in ORACLE_DR_SEEDS),
}

# untimed warm-up set: cheap instances that touch every code path of the workload
WARMUP = {
    "micp": (_micp_case(1000), _micp_case(1001), _micp_case(1002)),
    "dr": (_dr_case(2000),),
    "oracle": (_micp_case(1000), _micp_case(1001), _dr_case(2000)),
}


def generate(micpkit, cases):
    return [micpkit.generate_instance(c.seed, c.profile) for c in cases]


def solver(micpkit, workload):
    """Return ``solve(case, instance) -> (status, objective)`` for the workload.

    Entry points are looked up on the package at call time, so a span
    recorder installed on ``micpkit`` sees every call.
    """
    if workload == "oracle":
        def solve(case, inst):
            if case.kind == "micp":
                res = micpkit.brute_force(inst)
            else:
                res = micpkit.brute_force_two_stage(inst)
            return res.status, res.value
        return solve

    def solve(case, inst):
        if case.kind == "micp":
            cert = micpkit.micp_solve(inst, micpkit.MicpOptions(milp_mode=case.milp_mode))
        else:
            opts = micpkit.DrOptions()
            opts.scenario_opts.milp_mode = case.milp_mode
            cert = micpkit.dr_solve(inst, opts)
        return cert.status, cert.objective
    return solve


def agrees(ref, status, value):
    """Status equal and, when optimal, objective within REL_TOL*(1+|ref|)."""
    ref_status, ref_value = ref
    if status != ref_status:
        return False
    if ref_status != "optimal":
        return True
    return value is not None and abs(value - ref_value) <= REL_TOL * (1.0 + abs(ref_value))


def pass_orders(seed, n):
    """Endless solve orders over ``n`` instances, fixed by ``seed``: one per pass."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.permutation(n)
