"""Golden walkthrough fixture: the two-scenario robust design exercise.

Builds the small two-binary / two-scenario instance, then replays its
published solution narrative step by step with the real kernels: master
relaxation, first-stage integrality cut, per-scenario tangent and rounding
cuts, terminal-LP value-function cuts, aggregation, and the repeat-detection
finish.  Every number in the emitted trace is computed by the toolkit; the
only fixture datum is the walkthrough's reported fractional iterate for
scenario one, which enters as the query point of a projection (its published
value is not the argmin of the stated relaxation, so it cannot be recomputed;
see the repository notes).
"""

from __future__ import annotations

import numpy as np

from .barrier import project
from .benders import benders_cut_from_terminal_lp
from .errors import NumericalFailure
from .expr import Affine, Softplus, WeightedSum
from .milp import MilpProblem, MilpRow, chvatal_gomory_round, milp_solve
from .model import VariableSpec
from .simplex import LpProblem, lp_solve
from .twostage import (AmbiguitySet, DrOptions, Scenario, TwoStageInstance,
                       aggregate_benders, dr_solve, worst_case_distribution)

LOG1PE = float(np.log1p(np.e))

# reported fractional iterate for scenario one (walkthrough fixture datum)
REPORTED_SCENARIO1_POINT = np.array([0.5, 0.48])
# the first-stage master's upper bound on its value variable eta
_ETA_UB = 20.0


def build_instance(y_upper=10) -> TwoStageInstance:
    """min x1 + 2 x2 + E[recourse], 3 x1 + x2 >= 2, binary x, two scenarios."""
    g1 = WeightedSum([
        Softplus([0.0, 0.0, 1.0, 1.0]),
        Affine([-1.0, -1.0, -2.0, -LOG1PE], 1.0),
    ])
    g2 = WeightedSum([
        Softplus([0.0, 0.0, 1.0, 1.0]),
        Affine([-1.0, -1.0, -LOG1PE, -LOG1PE], 1.0),
    ])
    return TwoStageInstance(
        c=[1.0, 2.0], x_names=["x1", "x2"],
        A_ub=[[-3.0, -1.0]], b_ub=[-2.0],
        scenarios=[
            Scenario("scenario1", [0.5, 1.0],
                     [VariableSpec("y11", "integer", 0, y_upper),
                      VariableSpec("y12", "integer", 0, y_upper)], [g1]),
            Scenario("scenario2", [1.0, 1.0],
                     [VariableSpec("y21", "integer", 0, y_upper),
                      VariableSpec("y22", "integer", 0, y_upper)], [g2]),
        ],
        ambiguity=AmbiguitySet.singleton([0.5, 0.5]),
    )


def _first_stage_master(instance, benders_cuts):
    rows = [MilpRow(cx=[], cy=[-3.0, -1.0, 0.0], rhs=-2.0)]
    for cut in benders_cuts:
        rows.append(MilpRow(cx=[], cy=np.concatenate([cut.a, [-1.0]]), rhs=-cut.b))
    return MilpProblem(
        c=np.array([instance.c[0], instance.c[1], 1.0]),
        rows=rows,
        integer=np.array([True, True, False]),
        lb=np.array([0.0, 0.0, 0.0]),
        ub=np.array([1.0, 1.0, _ETA_UB]),
    )


def _scenario_replay(instance, w, x_hat, anchor_x, query_point, trace, prefix):
    """Replay one scenario: projection query -> tangent cut -> rounding cut ->
    integral resolve -> terminal LP -> value-function cut."""
    model = instance.scenario_model(w)
    l1 = instance.l1
    dec = list(range(l1, model.n))
    g_joint = model.convex[0]

    # project the query iterate onto the scenario curve, the first stage pinned at the anchor
    zfull, dist, _ = project(np.concatenate([anchor_x, query_point]), model.convex,
                             lb=model.lb, ub=model.ub, pins=dict(enumerate(anchor_x)))
    if zfull is None:
        raise NumericalFailure(f"scenario {w} projection infeasible")
    z = zfull[l1:]
    trace.append({"step": f"{prefix}-fractional", "y": [float(v) for v in z],
                  "distance": float(dist)})

    # supporting tangent cut at the boundary point, in raw subgradient scale;
    # recorded in >= form (coeffs . y >= rhs) like the walkthrough prints it
    sub = g_joint.subgrad(zfull)
    a_y = sub[l1:]
    a_x = sub[:l1]
    ge_coeffs = -a_y
    ge_rhs = float(-a_y @ z)
    norm = float(np.max(np.abs(ge_coeffs)))
    trace.append({
        "step": f"{prefix}-tangent-cut",
        "coeffs": [float(v) for v in ge_coeffs],
        "rhs": ge_rhs,
        "normalized": [float(v / norm) for v in ge_coeffs] + [ge_rhs / norm],
    })
    joint_rhs = float(a_x @ anchor_x + a_y @ z)
    tangent_row = MilpRow(cx=a_x, cy=a_y, rhs=joint_rhs)

    # integer rounding of the tangent row; the rounded row is pooled in its place
    problem = MilpProblem(
        c=instance.scenarios[w].q, rows=[], integer=np.array([True] * len(dec)),
        lb=model.lb[dec], ub=model.ub[dec], l1=l1, x_param=np.asarray(x_hat, dtype=float),
    )
    rounded = chvatal_gomory_round(tangent_row, problem)
    problem.rows.append(rounded)

    # mixed-integer resolve at the first-stage point; its own cuts, if any,
    # are integrality cuts too
    res = milp_solve(problem, "cp")
    for row, provenance in [(rounded, "gomory")] + [(rec.row, rec.provenance) for rec in res.cuts]:
        trace.append({
            "step": f"{prefix}-integrality-cut",
            "coeffs": [float(-v) for v in row.cy],
            "rhs": float(-row.at_param(problem.x_param)),
            "provenance": provenance,
        })
    trace.append({"step": f"{prefix}-integral", "y": [float(v) for v in res.y],
                  "objective": float(res.obj)})

    cut = benders_cut_from_terminal_lp(res.terminal)
    trace.append({
        "step": f"{prefix}-benders-cut",
        "x_coeffs": [float(v) for v in cut.a],
        "rhs_const": float(cut.b),
    })
    return cut, res


def replay():
    """Execute the walkthrough; returns (trace rows, artifact dict)."""
    trace = []
    instance = build_instance()

    # first-stage master: root relaxation then cutting-plane resolve
    master = _first_stage_master(instance, [])
    root = lp_solve(LpProblem.build(master.c, np.vstack([r.cy for r in master.rows]),
                                    [r.rhs for r in master.rows], None, None, master.lb, master.ub))
    frac = root.x[:2]
    trace.append({"step": "master-relaxation", "x": [float(v) for v in frac],
                  "objective": float(root.obj)})
    res = milp_solve(master, "cp")
    for rec in res.cuts:
        trace.append({"step": "master-cut", "coeffs": [float(-v) for v in rec.row.cy[:2]],
                      "rhs": float(-rec.row.rhs), "provenance": rec.provenance})
    x_hat = np.round(res.y[:2])
    trace.append({"step": "first-stage", "x": [float(v) for v in x_hat]})

    # scenario one replays the reported iterate, anchored at the pre-cut
    # relaxation value of the first stage; scenario two queries the plain
    # integer master point
    cut1, res1 = _scenario_replay(
        instance, 0, x_hat, anchor_x=frac.copy(),
        query_point=REPORTED_SCENARIO1_POINT.copy(), trace=trace, prefix="scenario1",
    )
    cut2, res2 = _scenario_replay(
        instance, 1, x_hat, anchor_x=x_hat.astype(float),
        query_point=np.zeros(2), trace=trace, prefix="scenario2",
    )

    q_vals = np.array([res1.obj, res2.obj])
    p = worst_case_distribution(q_vals, instance.ambiguity)
    trace.append({"step": "worst-case-distribution", "p": [float(v) for v in p]})
    agg = aggregate_benders(p, [cut1, cut2])
    trace.append({"step": "aggregated-cut", "x_coeffs": [float(v) for v in agg.a],
                  "rhs_const": float(agg.b)})

    # master resolve with the aggregated row; repeat detection terminates
    master2 = _first_stage_master(instance, [agg])
    res2m = milp_solve(master2, "cp")
    x_next = np.round(res2m.y[:2])
    trace.append({"step": "master-resolve", "x": [float(v) for v in x_next],
                  "objective": float(res2m.obj)})
    repeated = bool(np.array_equal(x_next, x_hat))
    total = float(instance.c @ x_next) + float(p @ q_vals)
    trace.append({
        "step": "terminate",
        "reason": "master repeated the first-stage point" if repeated else "gap closed",
        "x_star": [float(v) for v in x_next],
        "objective": total,
    })

    # independent cross-check through the full solver
    cert = dr_solve(instance, DrOptions())
    trace.append({
        "step": "cross-check",
        "status": cert.status,
        "x": [float(v) for v in cert.x],
        "objective": float(cert.objective),
    })

    artifacts = {
        "master_relaxation": [float(v) for v in frac],
        "first_stage": [float(v) for v in x_hat],
        "scenario1_fractional": next(
            r["y"] for r in trace if r["step"] == "scenario1-fractional"),
        "tangent_cut": next(
            r for r in trace if r["step"] == "scenario1-tangent-cut"),
        "integrality_cut": next(
            r for r in trace if r["step"] == "scenario1-integrality-cut"),
        "benders1": cut1.to_dict(),
        "benders2": cut2.to_dict(),
        "aggregated": agg.to_dict(),
        "x_star": [float(v) for v in x_next],
        "objective": total,
        "repeat_detected": repeated,
        "cross_check": {"x": [float(v) for v in cert.x], "objective": float(cert.objective)},
    }
    return trace, artifacts
