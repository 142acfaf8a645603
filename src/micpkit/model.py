"""Problem representation and validation of structural preconditions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, ModelError
from .expr import Affine, ConvexExpr, WeightedSum, separable_blocks
from .simplex import _is_index, _row_block

KINDS = ("binary", "integer", "continuous")
FEAS_TOL = 1e-6  # row or bound violation still counted as feasible


@dataclass
class VariableSpec:
    name: str
    kind: str
    lb: float
    ub: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown variable kind {self.kind!r}")
        self.lb = float(self.lb)
        self.ub = float(self.ub)
        if not (np.isfinite(self.lb) and np.isfinite(self.ub)):
            raise ModelError(f"variable {self.name}: bounds must be finite")
        if self.lb > self.ub:
            raise ModelError(f"variable {self.name}: lb > ub")
        if self.kind == "binary":
            if not (self.lb == 0.0 and self.ub == 1.0):
                raise ModelError(f"binary variable {self.name} must have bounds [0, 1]")
        if self.kind == "integer":
            if self.lb != round(self.lb) or self.ub != round(self.ub):
                raise ModelError(f"integer variable {self.name} needs integer bounds")

    @property
    def is_integer(self):
        return self.kind in ("binary", "integer")


@dataclass
class LinearObjective:
    c: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.const = float(self.const)

    def value(self, x):
        return float(self.c @ np.asarray(x, dtype=float)) + self.const


@dataclass
class ModelInstance:
    """Variables, linear rows (<= and =), convex rows (expr <= 0), objective.

    Both linear row blocks follow ``simplex._row_block``.

    ``param_block`` optionally marks the indices of a binary parameter block
    for joint two-block problems; it is what the decomposition machinery
    fixes, lifts cuts over, and generates value-function cuts in.
    """

    variables: list
    objective: LinearObjective | ConvexExpr
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    convex: list = field(default_factory=list)
    param_block: list | None = None

    def __post_init__(self):
        n = len(self.variables)
        if n == 0:
            raise ModelError("model needs at least one variable")
        self.A_ub, self.b_ub = _row_block(self.A_ub, self.b_ub, n, "linear rows")
        self.A_eq, self.b_eq = _row_block(self.A_eq, self.b_eq, n, "equality rows")
        for g in self.convex:
            if g.dim != n:
                raise ModelError("convex row dimension mismatch")
        if isinstance(self.objective, LinearObjective):
            if self.objective.c.size != n:
                raise ModelError("objective dimension mismatch")
        elif self.objective.dim != n:
            raise ModelError("objective dimension mismatch")
        if self.param_block is not None:
            block = self.param_block
            if len(set(block)) != len(block) or not all(_is_index(i, n) for i in block):
                raise ModelError("parameter block must list distinct variable indices 0..n-1")
            for i in block:
                if self.variables[i].kind != "binary":
                    raise ModelError("parameter block must consist of binary variables")

    @property
    def n(self):
        return len(self.variables)

    @property
    def lb(self):
        return np.array([v.lb for v in self.variables])

    @property
    def ub(self):
        return np.array([v.ub for v in self.variables])

    def integer_indices(self):
        return [i for i, v in enumerate(self.variables) if v.is_integer]

    def has_linear_objective(self):
        return isinstance(self.objective, LinearObjective)

    def objective_value(self, x):
        return self.objective.value(np.asarray(x, dtype=float))

    def feasible(self, x):
        """Whether x meets every bound and row within ``FEAS_TOL``.

        x is one point, or a stack of points (a 2-D array, one point per row)
        for which one bool per point comes back.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return bool(self.feasible(x[None, :])[0])
        ok = ~np.any((x < self.lb - FEAS_TOL) | (x > self.ub + FEAS_TOL), axis=1)
        ok &= ~np.any(x @ self.A_ub.T > self.b_ub + FEAS_TOL, axis=1)
        ok &= ~np.any(np.abs(x @ self.A_eq.T - self.b_eq) > FEAS_TOL, axis=1)
        for g in self.convex:
            ok &= g.value(x) <= FEAS_TOL
        return ok


def _box_corners(lb, ub, support, cap=1 << 18):
    idx = list(np.nonzero(support)[0])
    if 2 ** len(idx) > cap:
        raise ModelError("cannot bound epigraph variable: corner enumeration too large")
    for bits in itertools.product((0, 1), repeat=len(idx)):
        corner = lb.copy()
        for b, i in zip(bits, idx):
            corner[i] = ub[i] if b else lb[i]
        yield corner


def epigraph_bounds(expr: ConvexExpr, lb, ub):
    """Finite [lo, hi] enclosure of a convex expression over the box.

    The maximum of a convex function over a box is attained at a corner;
    the minimum is bounded below through a subgradient minorant anchored at
    the box center.
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    support = expr.touched()
    hi = -np.inf
    for corner in _box_corners(lb, ub, support):
        hi = max(hi, expr.value(corner))
    center = 0.5 * (lb + ub)
    v0 = expr.value(center)
    s = expr.subgrad(center)
    lo = v0 + float(np.sum(np.minimum(s * (lb - center), s * (ub - center))))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ModelError("cannot bound epigraph variable")
    return float(lo), float(hi)


def epigraph_reformulate(model: ModelInstance) -> ModelInstance:
    """Move a convex objective into a constraint behind a fresh epigraph variable.

    Already-linear objectives are returned unchanged.
    """
    if model.has_linear_objective():
        return model
    g0 = model.objective
    lo, hi = epigraph_bounds(g0, model.lb, model.ub)
    # pad so the epigraph slice keeps an interior even at the box argmax
    pad = 1.0 + 0.01 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    n = model.n
    variables = list(model.variables) + [VariableSpec("_epi", "continuous", lo, hi)]
    positions = list(range(n))
    convex = [g.embed(n + 1, positions) for g in model.convex]
    # g0(x) - eta <= 0
    convex.append(WeightedSum([g0.embed(n + 1, positions), Affine(np.eye(n + 1)[n] * -1.0, 0.0)]))
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ModelInstance(
        variables=variables,
        objective=LinearObjective(c),
        A_ub=np.hstack([model.A_ub, np.zeros((model.b_ub.size, 1))]), b_ub=model.b_ub,
        A_eq=np.hstack([model.A_eq, np.zeros((model.b_eq.size, 1))]), b_eq=model.b_eq,
        convex=convex,
        param_block=model.param_block,
    )


def check_assumptions(model: ModelInstance):
    """Raise ``AssumptionViolation`` unless every convex row, and a convex
    objective, has a subdifferential that factors across ``param_block``.

    A parametric cut is valid at every first-stage point only under that
    factoring, and it holds when the function is differentiable or splits
    as f(x_block) + g(x_rest).  The error names each failing row by its
    index and a failing objective as ``"objective"``.  Checking the
    objective g0 is checking its epigraph row g0 - eta, as eta lies outside
    the block.  A model without a parameter block passes.
    """
    if not model.param_block:
        return
    rest = [i for i in range(model.n) if i not in set(model.param_block)]
    exprs = list(enumerate(model.convex))
    if not model.has_linear_objective():
        exprs.append(("objective", model.objective))
    bad = [name for name, g in exprs
           if not (g.smooth_everywhere or separable_blocks(g, model.param_block, rest))]
    if bad:
        raise AssumptionViolation(
            f"convex rows {bad} are nonsmooth and couple the parameter block; "
            "parametric cuts would be invalid"
        )
