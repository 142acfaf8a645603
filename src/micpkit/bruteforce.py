"""Brute-force verification oracle and the extensive-form cross-check.

One loop, ``_enumerate``, walks an integer lattice (at most ``ENUM_CAP``
free points) and does at each point only the work the point needs.  A
lattice with no continuous coordinate decides each point itself with
``model.feasible`` and ``model.objective_value``; a convex objective stays in
place there, and each point gets f(x) as a last, epigraph coordinate.
Otherwise a convex objective moves into an epigraph row, and each point
gets a cheap objective bound: its pinned costs plus the least cost of the
continuous box.  With ``prune_objective`` the walk visits the points by
ascending bound and stops at the first bound above the incumbent, since no
later point can attain the optimum.  A visited point meets a cheap
infeasibility certificate (``_screen``) before the convex oracle solves its
continuous remainder.  With ``prune_objective`` it also meets a Lagrangian
bound (``_dual_bound``): the screen's affine minorants of its rows, priced
with the row multipliers of the incumbent's solve (clipped at 0), over the
continuous box; first the minorants anchored at the box center, then those
anchored at the incumbent's continuous coordinates.  By weak duality that
bound holds for any multipliers >= 0 and any anchor in the box, so a point
whose bound is above the incumbent is skipped, and a wrong multiplier only
costs solves.  Neither the stop, the certificate nor the skip drops a point
that could attain the optimum, so the value, the argmins (in lattice order)
and ``enumerated`` are those of the unpruned walk; with ``prune_objective``,
``feasible_points`` holds only the points the walk solved, in lattice
order.  ``brute_force`` runs the loop over a model, ``scenario_recourse``
over one scenario's lattice with the first stage fixed.  This is the
independent reference the solver suites are checked against, so it shares
no logic with the cutting-plane path beyond the continuous kernel; the
multipliers it reads from the kernel can cost solves, never change an answer.

The walk screens the points ``BLOCK`` at a time, in visit order.  One array
pass over a block builds its points with ``np.unravel_index`` and decides
the whole block: ``model.feasible`` on a stack of points without a
continuous coordinate, and ``_screen``'s certificate (one matrix product for
the linear rows, the atoms' stacked values and subgradients for the convex
rows) otherwise.  Only the points that pass get per-point work: the stop
test, the pricing with ``model.objective_value``, or the Lagrangian bound,
the pins dict, the ``ConvexProgram`` and the convex solve.  Memory stays at
a block of points beside the lattice-long bound and order arrays.

``brute_force_two_stage`` walks the binary first stage the same way.  Each
scenario's recourse is at least l_w, its objective constant plus the least
cost of its decision box, so every first-stage point's worst-case total is
at least c.x + K with K = max_{p in P} p.l, one ambiguity LP (the constant
lower bound of the integer L-shaped method, Laporte & Louveaux 1993, taken
through the ambiguity set).  The walk visits the points by ascending c.x + K
and stops at the first bound above the incumbent; each visited feasible
point gets every scenario's ``scenario_recourse`` and its worst-case
distribution.  The value and the argmins (in lattice order) are those of
the full walk, and ``table`` holds, in lattice order, only the points the
walk solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barrier import ConvexProgram, convex_solve
from .errors import ModelError
from .model import FEAS_TOL, LinearObjective, ModelInstance, VariableSpec, epigraph_reformulate
from .twostage import TwoStageInstance, worst_case_distribution

ENUM_CAP = 1 << 20
BLOCK = 1024   # lattice points screened together by one array pass


@dataclass
class BruteForceResult:
    status: str
    value: float | None = None
    argmins: list = field(default_factory=list)
    # (point, objective) in lattice order: every feasible point, or with
    # prune_objective only the feasible points the walk solved
    feasible_points: list = field(default_factory=list)
    enumerated: int = 0


def _integer_grid(model: ModelInstance, free):
    """Value ranges of the ``free`` integer coordinates and their point count."""
    count = 1
    for i in free:
        count *= int(round(model.variables[i].ub - model.variables[i].lb)) + 1
        if count > ENUM_CAP:
            raise ModelError(f"integer lattice too large for brute force ({count}+ points)")
    ranges = [
        np.arange(model.variables[i].lb, model.variables[i].ub + 0.5) for i in free
    ]
    return ranges, count


def _cont_min(coeffs, lb, ub, cont):
    """min over the continuous box of coeffs restricted to those coordinates."""
    c = coeffs[cont]
    return float(np.minimum(c * lb[cont], c * ub[cont]).sum())


def _screen(model, X, cont):
    """One bool per anchor row of X: False where a cheap certificate proves that
    no feasible continuous completion of that lattice point exists.

    Each row of X is a lattice point with its continuous coordinates ``cont``
    at the box center.  Linear rows are bounded below coordinatewise over the
    continuous box; convex rows through a subgradient minorant anchored at X.
    Also returns those affine minorants, each row's as ``row(x) <= 0``: its
    value V at the anchors (points x rows, the linear rows first) and its
    gradient G in the continuous coordinates (points x rows x cont).
    """
    lb, ub = model.lb[cont], model.ub[cont]
    center = 0.5 * (lb + ub)
    lo_off, hi_off = lb - center, ub - center   # the box around every anchor
    A = model.A_ub[:, cont]
    AX = X @ model.A_ub.T
    lo = AX + np.minimum(A * lo_off, A * hi_off).sum(axis=1)
    keep = ~np.any(lo > model.b_ub + FEAS_TOL, axis=1)
    V, G = [AX - model.b_ub], [np.broadcast_to(A, (len(X), *A.shape))]
    for g in model.convex:
        v, S = g.value(X), g.subgrad(X)[:, cont]
        keep &= ~(v + np.minimum(S * lo_off, S * hi_off).sum(axis=1) > FEAS_TOL)
        V.append(v[:, None])
        G.append(S[:, None, :])
    return keep, np.hstack(V), np.concatenate(G, axis=1)


def _dual_bound(model, cont, lam, x, V, G):
    """Weak-duality bound on the value of every feasible completion of x's lattice point.

    (V, G) are the rows' affine minorants anchored at x (``_screen``), and
    lam >= 0 their multipliers.  Every row is <= FEAS_TOL at a counted point,
    so c.x' + const + lam.(minorants at x' - FEAS_TOL), minimized over the
    continuous box, is at most its value; the anchor can be any point of the
    lattice point's box.
    """
    c = model.objective.c
    d = c[cont] + lam @ G
    return (x @ c + model.objective.const + lam @ V - FEAS_TOL * lam.sum()
            + np.minimum(d * (model.lb[cont] - x[cont]), d * (model.ub[cont] - x[cont])).sum())


def _enumerate(model: ModelInstance, fixed: dict, prune_objective: bool):
    """Every assignment of the integer coordinates not in ``fixed`` ({index: value}).

    Returns ``(best, argmins, feasible_points, enumerated)`` as
    ``BruteForceResult`` reports them; ``best`` is inf when no point is
    feasible.  A convex objective is allowed only when every coordinate is
    integer or fixed.  With a continuous coordinate and ``prune_objective``
    the walk visits the points by ascending objective bound and stops at the
    first bound above the incumbent, and skips a point whose Lagrangian bound
    is above it; the feasible points it solved, and the argmins among them,
    come out in lattice order either way.  The points
    are screened ``BLOCK`` at a time, in visit order, and only those that
    pass the screen get per-point work.
    """
    free = [i for i in model.integer_indices() if i not in fixed]
    ranges, count = _integer_grid(model, free)
    shape = [len(r) for r in ranges]
    cont = [i for i in range(model.n) if i not in fixed and i not in free]
    lb, ub = model.lb, model.ub
    epigraph = not model.has_linear_objective()
    # the anchor of every point: pins from fixed and the lattice, the rest at the box center
    anchor = 0.5 * (lb + ub)
    for i, v in fixed.items():
        anchor[i] = v
    bound = order = None
    if cont:
        c = model.objective.c
        if prune_objective:
            # the objective bound of every lattice point, in lattice order
            bound = np.asarray(sum(c[i] * v for i, v in fixed.items()), dtype=float)
            for i, r in zip(free, ranges):
                bound = np.add.outer(bound, c[i] * r)
            bound = bound.ravel()
            bound += _cont_min(c, lb, ub, cont)
            bound += model.objective.const
            order = np.argsort(bound, kind="stable")
    best = np.inf
    lam = None   # the incumbent's row multipliers, clipped at 0, when finite
    x_inc = None   # the incumbent's point
    feas = []   # (lattice index, point, objective)
    for start in range(0, count, BLOCK):
        ks = np.arange(start, min(start + BLOCK, count)) if order is None else order[start : start + BLOCK]
        if bound is not None and bound[ks[0]] > best + 1e-9:
            break   # every later point's bound is at least as high
        coords = np.unravel_index(ks, shape) if free else ()
        X = np.tile(anchor, (ks.size, 1))
        for i, r, j in zip(free, ranges, coords):
            X[:, i] = r[j]
        passed, V, G = _screen(model, X, cont) if cont else (model.feasible(X), None, None)
        Xa = None   # the block anchored at the incumbent's continuous coordinates, when priced
        for b in np.flatnonzero(passed):
            k = ks[b]
            if bound is not None and bound[k] > best + 1e-9:
                break
            if not cont:
                x = X[b].copy()
                val = model.objective_value(x)
                point = np.append(x, val) if epigraph else x
            else:
                if lam is not None:
                    # weak duality, with the minorants anchored at the box center,
                    # then with those anchored at the incumbent's continuous coordinates
                    if _dual_bound(model, cont, lam, X[b], V[b], G[b]) > best + 1e-9:
                        continue
                    if Xa is None:
                        Xa = X.copy()
                        Xa[:, cont] = x_inc[cont]
                        _, Va, Ga = _screen(model, Xa, cont)
                    if _dual_bound(model, cont, lam, Xa[b], Va[b], Ga[b]) > best + 1e-9:
                        continue
                pins = dict(fixed)
                pins.update((i, float(r[j[b]])) for i, r, j in zip(free, ranges, coords))
                prog = ConvexProgram(
                    n=model.n, c=c, A_ub=model.A_ub, b_ub=model.b_ub, A_eq=model.A_eq,
                    b_eq=model.b_eq, convex=list(model.convex), pins=pins, lb=lb, ub=ub,
                )
                cert = convex_solve(prog)
                if cert.status != "optimal":
                    continue
                val = cert.value + model.objective.const
                point = cert.x
                if bound is not None and val < best:
                    lam = np.maximum(0.0, np.concatenate([cert.mult_ub, cert.mult_convex]))
                    lam = lam if np.all(np.isfinite(lam)) else None
                    x_inc, Xa = point, None
            feas.append((int(k), point, val))
            best = min(best, val)
    best, argmins = _lattice_min(feas)
    return best, argmins, [(p, v) for _, p, v in feas], count


def _lattice_min(feas):
    """Sort ``feas``, (lattice index, point, value) triples, into lattice order
    and return its value and argmins: a value more than 1e-9 below the
    incumbent's replaces it, one within 1e-9 of it joins the argmins."""
    feas.sort(key=lambda kpv: kpv[0])
    best = np.inf
    argmins = []
    for _, point, val in feas:
        if val < best - 1e-9:
            best = val
            argmins = [point]
        elif val <= best + 1e-9:
            argmins.append(point)
    return best, argmins


def brute_force(model: ModelInstance, prune_objective=True) -> BruteForceResult:
    """Enumerate integer assignments; price each point or solve its continuous remainder."""
    if len(model.integer_indices()) < model.n:
        model = epigraph_reformulate(model)
    best, argmins, feas, count = _enumerate(model, {}, prune_objective)
    if not feas:
        return BruteForceResult(status="infeasible", enumerated=count)
    return BruteForceResult(status="optimal", value=best, argmins=argmins,
                            feasible_points=feas, enumerated=count)


@dataclass
class DrBruteForceResult:
    status: str
    value: float | None = None
    argmins: list = field(default_factory=list)
    # x tuple -> {G, recourse, p, total}, in lattice order, for the feasible
    # first-stage points the bounded walk solved (not every feasible point)
    table: dict = field(default_factory=dict)


def scenario_recourse(instance: TwoStageInstance, w, x, *, model: ModelInstance | None = None):
    """Q(x, scenario w) and its minimizer, by enumeration over the scenario's
    integer grid with x held fixed; ``(inf, None)`` when no completion exists.

    ``model`` is ``instance.scenario_model(w)``, for a caller that has built it.
    """
    if model is None:
        model = instance.scenario_model(w)
    _, _, feas, _ = _enumerate(model, {i: float(x[i]) for i in range(instance.l1)}, True)
    if not feas:
        return np.inf, None
    point, val = min(feas, key=lambda pv: pv[1])
    return val, point


def brute_force_two_stage(instance: TwoStageInstance) -> DrBruteForceResult:
    """Worst-case two-stage optimum by enumerating the binary first stage, by
    ascending bound c.x + K up to the incumbent (see the module docstring)."""
    l1 = instance.l1
    if 2 ** l1 > ENUM_CAP:
        raise ModelError("first-stage lattice too large for brute force")
    first = instance.first_stage()
    models = [instance.scenario_model(w) for w in range(len(instance.scenarios))]
    low = np.array([m.objective.const + _cont_min(m.objective.c, m.lb, m.ub, slice(l1, None))
                    for m in models])
    bound = np.zeros(())
    for ci in instance.c:
        bound = np.add.outer(bound, (0.0, ci))
    bound = bound.ravel() + float(worst_case_distribution(low, instance.ambiguity) @ low)
    best = np.inf
    feas = []   # (lattice index, x, total)
    rows = {}   # lattice index -> table row
    for k in np.argsort(bound, kind="stable"):
        if bound[k] > best + 1e-9:
            break   # every later point's bound is at least as high
        x = np.asarray(np.unravel_index(k, (2,) * l1), dtype=float)
        if not first.feasible(x):
            continue
        qs = []
        for w, model in enumerate(models):
            val, _ = scenario_recourse(instance, w, x, model=model)
            if not np.isfinite(val):
                break
            qs.append(val)
        else:
            p = worst_case_distribution(np.asarray(qs), instance.ambiguity)
            G = float(p @ np.asarray(qs))
            total = float(instance.c @ x) + G
            feas.append((int(k), x, total))
            rows[int(k)] = {"G": G, "recourse": qs, "p": [float(v) for v in p], "total": total}
            best = min(best, total)
    if not feas:
        return DrBruteForceResult(status="infeasible")
    best, argmins = _lattice_min(feas)
    table = {tuple(int(b) for b in x): rows[k] for k, x, _ in feas}
    return DrBruteForceResult(status="optimal", value=best, argmins=argmins, table=table)


def extensive_form(instance: TwoStageInstance) -> ModelInstance:
    """Deterministic-equivalent model for a singleton ambiguity set."""
    if not instance.ambiguity.is_singleton():
        raise ModelError("extensive form requires a singleton ambiguity set")
    p = worst_case_distribution(np.zeros(len(instance.scenarios)), instance.ambiguity)
    l1 = instance.l1
    total = l1 + sum(len(sc.y_vars) for sc in instance.scenarios)
    variables = [VariableSpec(nm, "binary", 0.0, 1.0) for nm in instance.x_names]
    c = np.zeros(total)
    c[:l1] = instance.c
    convex = [g.embed(total, list(range(l1))) for g in instance.first_convex]
    off = l1
    for w, sc in enumerate(instance.scenarios):
        ny = len(sc.y_vars)
        variables.extend(sc.y_vars)
        c[off : off + ny] = p[w] * sc.q
        positions = list(range(l1)) + list(range(off, off + ny))
        convex.extend(g.embed(total, positions) for g in sc.constraints)
        off += ny
    return ModelInstance(
        variables=variables,
        objective=LinearObjective(c),
        A_ub=np.hstack([instance.A_ub, np.zeros((instance.b_ub.size, total - l1))]),
        b_ub=instance.b_ub,
        convex=convex,
        param_block=list(range(l1)),
    )
