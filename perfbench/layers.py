"""Per-layer metrics computed from the spans of one traced pass.

A layer is a wrapped function, named ``<module>.<function>``.  Its self time
is the duration of its spans minus the time of their direct child spans, so
the self times of all layers add up to the time spent inside top-level spans.
``PER_LAYER`` lists the metrics the benchmark reports (the ``per_layer``
section of BENCHMARK.json); every other layer still counts towards
``trace.coverage``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from spans import RAISED

PROVENANCES = ("separation", "supporting", "gomory", "disjunctive-cglp", "no-good")
# parents of the oracle's own convex_solve calls
ORACLE_CALLERS = ("bruteforce.brute_force", "bruteforce.scenario_recourse")
# layers reported with just calls and self time
TIMED_ONLY = (
    "micp.build_master", "barrier.supporting_inequalities",
    "milp.branch_and_bound", "milp.cutting_plane_solve", "milp.cglp_split_cut",
    "milp.chvatal_gomory_round", "milp.extract_terminal_lp",
    "benders.parametric_solve", "benders.benders_cut_from_terminal_lp",
    "simplex.lp_dual_certificate", "twostage.scenario_dual",
    "twostage.worst_case_distribution",
    "bruteforce.brute_force", "bruteforce.brute_force_two_stage", "bruteforce.scenario_recourse",
)
CONVEX_STATS = ("newton_steps", "newton_per_call", "infeasible", "raised")

PER_LAYER = (
    [f"simplex.lp_solve.{k}" for k in ("calls", "self_s", "pivots", "pivots_per_call", "infeasible", "failed")]
    + [f"barrier.convex_solve.{k}" for k in ("calls", "self_s") + CONVEX_STATS]
    + [f"barrier.project.{k}" for k in ("calls", "self_s", "convex_s") + CONVEX_STATS]
    + [f"micp.polish_step.{k}" for k in ("calls", "self_s", "convex_s") + CONVEX_STATS
       + ("boundary", "interior")]
    + [f"barrier.lp_equivalence_check.{k}" for k in ("calls", "self_s", "mismatch")]
    + [f"bruteforce.convex_solve.{k}" for k in ("calls", "self_s") + CONVEX_STATS]
    + [f"milp.milp_solve.{k}" for k in ("calls", "self_s", "nodes", "lp_calls", "cuts", "fallbacks",
                                        "fallback_rate")]
    + ["milp.duplicates_suppressed"]
    + [f"micp.micp_solve.{k}" for k in ("calls", "self_s", "iterations", "duplicates_suppressed")]
    + [f"micp.micp_solve.cuts.{p}" for p in PROVENANCES]
    + [f"twostage.dr_solve.{k}" for k in ("calls", "self_s", "outer_iterations")]
    + ["bruteforce.enumerated"]
    + [f"{layer}.{k}" for layer in TIMED_ONLY for k in ("calls", "self_s")]
    + ["trace.coverage", "trace.attributed", "trace.overhead_pct", "trace.spans"]
)


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_call"):
        return "1/call"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_rate", ".coverage", ".attributed")):
        return "ratio"
    return "count"


def better(name):
    return "higher" if name in ("trace.coverage", "trace.attributed") else "lower"


def is_count(name):
    """Counts must repeat exactly from pass to pass; times and ratios of times need not."""
    return unit(name) != "s" and not name.startswith("trace.")


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time of each span: its duration minus its direct children's durations."""
    own = [rec[3] - rec[2] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            own[rec[1]] -= rec[3] - rec[2]
    return own


def concat(solves):
    """One span list from the span lists of several solves, parents re-indexed."""
    out = []
    for spans in solves:
        base = len(out)
        out.extend([layer, parent + base if parent >= 0 else -1, start, end, summary]
                   for layer, parent, start, end, summary in spans)
    return out


def top_level_s(spans):
    return sum(rec[3] - rec[2] for rec in spans if rec[1] < 0)


def compute(spans, duplicates):
    """Every ``PER_LAYER`` metric except the ``trace.*`` ones, from one pass.

    ``duplicates`` maps logger name to the number of ``duplicate ...
    suppressed`` warnings it emitted during the pass.
    """
    own = self_times(spans)
    calls = Counter()
    self_s = defaultdict(float)
    raised = Counter()
    n = Counter()   # work counts, keyed by metric name
    for i, (layer, parent, _, _, summary) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += own[i]
        if summary == RAISED:
            raised[layer] += 1
            if layer == "simplex.lp_solve":
                n["simplex.lp_solve.failed"] += 1
            summary = None
        caller = spans[parent][0] if parent >= 0 else None
        if layer == "simplex.lp_solve" and summary:
            n["simplex.lp_solve.pivots"] += summary[1]
            n["simplex.lp_solve.infeasible"] += summary[0] == "infeasible"
            n["simplex.lp_solve.failed"] += summary[0] == "numerical-failure"
        elif layer == "barrier.convex_solve":
            steps = summary[1] if summary else 0
            infeasible = bool(summary) and summary[0] == "infeasible"
            n["barrier.convex_solve.newton_steps"] += steps
            n["barrier.convex_solve.infeasible"] += infeasible
            if caller in ("barrier.project", "micp.polish_step"):
                n[f"{caller}.convex_s"] += own[i]
                n[f"{caller}.newton_steps"] += steps
            elif caller in ORACLE_CALLERS:
                g = "bruteforce.convex_solve"
                n[f"{g}.calls"] += 1
                n[f"{g}.self_s"] += own[i]
                n[f"{g}.newton_steps"] += steps
                n[f"{g}.infeasible"] += infeasible
                n[f"{g}.raised"] += summary is None
        elif layer == "micp.polish_step" and summary:
            n[f"micp.polish_step.{summary[0]}"] += 1
        elif layer == "barrier.project" and summary:
            n["barrier.project.infeasible"] += summary[0] == "infeasible"
        elif layer == "barrier.lp_equivalence_check" and summary:
            n["barrier.lp_equivalence_check.mismatch"] += not summary[0]
        elif layer == "milp.milp_solve" and summary:
            _, mode, lp_calls, cuts, fallback = summary
            n["milp.milp_solve.lp_calls"] += lp_calls
            n["milp.milp_solve.cuts"] += cuts
            n["milp.milp_solve.fallbacks"] += fallback
            n["milp.cp_calls"] += mode == "cp"
        elif layer == "milp.branch_and_bound" and summary:
            n["milp.milp_solve.nodes"] += summary[1]
        elif layer == "micp.micp_solve" and summary:
            n["micp.micp_solve.iterations"] += summary[1]
            for prov, k in summary[2].items():
                n[f"micp.micp_solve.cuts.{prov}"] += k
        elif layer == "twostage.dr_solve" and summary:
            n["twostage.dr_solve.outer_iterations"] += summary[1]
        elif layer.startswith("bruteforce.brute_force") and summary and caller != layer:
            # brute_force re-enters itself once on an epigraph reformulation
            n["bruteforce.enumerated"] += summary[1]

    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, _, key = name.rpartition(".")
        if name in n:
            out[name] = n[name]
        elif key == "calls":
            out[name] = calls[layer]
        elif key == "self_s":
            out[name] = self_s[layer]
        elif key == "raised":
            out[name] = raised[layer]
        else:
            out[name] = 0
    for g in ("barrier.convex_solve", "barrier.project", "micp.polish_step", "bruteforce.convex_solve"):
        out[f"{g}.newton_per_call"] = _ratio(out[f"{g}.newton_steps"], out[f"{g}.calls"])
    out["simplex.lp_solve.pivots_per_call"] = _ratio(out["simplex.lp_solve.pivots"],
                                                     out["simplex.lp_solve.calls"])
    out["milp.milp_solve.fallback_rate"] = _ratio(out["milp.milp_solve.fallbacks"], n["milp.cp_calls"])
    out["micp.micp_solve.duplicates_suppressed"] = duplicates.get("micpkit.micp", 0)
    out["milp.duplicates_suppressed"] = duplicates.get("micpkit.milp", 0)
    return out
