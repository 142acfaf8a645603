"""Every feasible first-stage point of a two-stage instance, each one solved.

``brute_force_two_stage`` stops its first-stage walk at the first bound
above the incumbent, so its ``table`` holds only the points it solved.  The
checks that need every feasible first-stage point build them here, from
``scenario_recourse`` and ``worst_case_distribution``: one row per point
with every scenario's recourse finite, in lattice order.
"""

import itertools

import numpy as np

from micpkit.bruteforce import scenario_recourse
from micpkit.twostage import worst_case_distribution


def full_first_stage(instance):
    """``(value, argmins, table)`` over every feasible first-stage point.

    ``table`` maps each point's bit tuple to the row ``brute_force_two_stage``
    keeps (``G``, ``recourse``, ``p``, ``total``), and the argmins follow the
    same 1e-9 tie rule in lattice order; ``value`` is inf and ``table`` empty
    when no point is feasible.
    """
    first = instance.first_stage()
    models = [instance.scenario_model(w) for w in range(len(instance.scenarios))]
    best, argmins, table = np.inf, [], {}
    for bits in itertools.product((0.0, 1.0), repeat=instance.l1):
        x = np.asarray(bits)
        if not first.feasible(x):
            continue
        qs = []
        for w, model in enumerate(models):
            qs.append(scenario_recourse(instance, w, x, model=model)[0])
            if not np.isfinite(qs[-1]):
                break   # no completion in scenario w: x is infeasible
        if not np.isfinite(qs[-1]):
            continue
        p = worst_case_distribution(np.asarray(qs), instance.ambiguity)
        G = float(p @ np.asarray(qs))
        total = float(instance.c @ x) + G
        table[tuple(int(b) for b in bits)] = {"G": G, "recourse": qs, "p": [float(v) for v in p],
                                              "total": total}
        if total < best - 1e-9:
            best, argmins = total, [x]
        elif total <= best + 1e-9:
            argmins.append(x)
    return best, argmins, table
