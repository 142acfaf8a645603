"""Problem representation and validation of structural preconditions."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .expr import Affine, ConvexExpr, WeightedSum, separable_blocks

log = logging.getLogger(__name__)

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
        self.A_ub = np.zeros((0, n)) if self.A_ub is None or not np.size(self.A_ub) else np.atleast_2d(np.asarray(self.A_ub, dtype=float))
        self.b_ub = np.zeros(0) if self.b_ub is None else np.asarray(self.b_ub, dtype=float).ravel()
        self.A_eq = np.zeros((0, n)) if self.A_eq is None or not np.size(self.A_eq) else np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        self.b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        if self.A_ub.shape[0] != self.b_ub.size or (self.A_ub.size and self.A_ub.shape[1] != n):
            raise ModelError("linear row dimensions inconsistent")
        if self.A_eq.shape[0] != self.b_eq.size or (self.A_eq.size and self.A_eq.shape[1] != n):
            raise ModelError("equality row dimensions inconsistent")
        for g in self.convex:
            if g.dim != n:
                raise ModelError("convex row dimension mismatch")
        if isinstance(self.objective, LinearObjective):
            if self.objective.c.size != n:
                raise ModelError("objective dimension mismatch")
        elif self.objective.dim != n:
            raise ModelError("objective dimension mismatch")
        if self.param_block is not None:
            for i in self.param_block:
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
        if self.has_linear_objective():
            return self.objective.value(x)
        return self.objective.value(np.asarray(x, dtype=float))

    def feasible(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lb - FEAS_TOL) or np.any(x > self.ub + FEAS_TOL):
            return False
        if self.A_ub.size and np.any(self.A_ub @ x > self.b_ub + FEAS_TOL):
            return False
        if self.A_eq.size and np.any(np.abs(self.A_eq @ x - self.b_eq) > FEAS_TOL):
            return False
        return all(g.value(x) <= FEAS_TOL for g in self.convex)


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
    if not np.any(support):
        hi = expr.value(lb)
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
    A_ub = np.hstack([model.A_ub, np.zeros((model.A_ub.shape[0], 1))]) if model.A_ub.size else None
    A_eq = np.hstack([model.A_eq, np.zeros((model.A_eq.shape[0], 1))]) if model.A_eq.size else None
    return ModelInstance(
        variables=variables,
        objective=LinearObjective(c),
        A_ub=A_ub, b_ub=model.b_ub if model.A_ub.size else None,
        A_eq=A_eq, b_eq=model.b_eq if model.A_eq.size else None,
        convex=convex,
        param_block=model.param_block,
    )


@dataclass
class StructureReport:
    """Per-constraint structural flags used before parametric cut lifting."""

    differentiable: list
    separable: list
    product_form: list  # differentiable or separable across the block split


def check_assumptions(model: ModelInstance):
    """Flag each convex row as differentiable / separable across the block split.

    A subdifferential factors into the product of its block marginals when the
    function is differentiable or block-separable; anything else gets a logged
    warning and a cleared flag.
    """
    block_a = model.param_block if model.param_block is not None else [
        i for i, v in enumerate(model.variables) if v.kind == "binary"
    ]
    block_b = [i for i in range(model.n) if i not in set(block_a)]
    diff, sep, prod = [], [], []
    for i, g in enumerate(model.convex):
        d = g.smooth_everywhere
        s = separable_blocks(g, block_a, block_b) if block_a and block_b else True
        diff.append(bool(d))
        sep.append(bool(s))
        prod.append(bool(d or s))
        if not (d or s):
            log.warning(
                "convex row %d is nonsmooth and couples the blocks; "
                "its subdifferential may not factor; parametric cuts disabled for it", i
            )
    return StructureReport(diff, sep, prod)
