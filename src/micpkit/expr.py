"""Convex expression atoms with value and subgradient oracles, and their lowering.

The atom library is closed: every expression is built from a fixed set of
convex atoms over affine inner maps, so exact subgradient formulas and JSON
serialization are available for all of them.  Each atom provides

* ``value(x)``        exact function value,
* ``subgrad(x)``      one exact element of the subdifferential,
* ``restrict(...)``   partial evaluation with some coordinates pinned,
* ``embed(...)``      re-indexing into a larger variable space.

Every leaf atom is a convex function of one affine inner map, and two private
bases own that map: ``_VectorAtom`` holds ``u = a.x + b`` (``Affine``,
``Softplus``, ``PowerAffine``) and ``_MatrixAtom`` holds ``r = A x + b``
(``LogSumExp``, ``SquaredNorm``, ``NormAffine``).  They give the inner
evaluation, ``touched``, ``restrict``, ``embed`` and ``to_dict``; an atom
adds only its ``_value`` and ``_subgrad``.

``value`` and ``subgrad`` take one point or a stack of points.  A 2-D array
is always a stack, one point per row, even a (1, n) row or an (n, 1)
column; any other shape is flattened into one point.  A point gives a float
and a 1-D subgradient; a stack gives one value, or one subgradient row, per
point.  Each atom has one formula for both shapes, written over the last
axis, and for one point it is the arithmetic the solvers have always used:
their cut sequences depend on its last bits.  A stacked row agrees with the
per-point call within rounding, and at a kink it is the same element: 0 for
a norm at r = 0 and for a power at u = 0.

``LoweredRows`` stacks the leaves of many rows, of every kind, in one inner
map ordered by kind, and gives the interior-point solver values, the
Jacobian and the curvature of all rows at once, in the same few array
products whatever the mix of kinds; ``fold_pins`` substitutes pinned
coordinates by slicing its columns.  Its derivatives are smooth surrogates:
equal to the subgradient where an atom is differentiable, and regularized at
kinks so the solver always has curvature to work with.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

# Curvature regularization for kinked atoms (norm at zero, powers p < 2).
_KINK_EPS = 1e-12


def _check_dim(expr, x):
    """x as one point or as a stack of points.

    A 2-D array is always a stack, one point per row, even with one row or
    one column; any other shape is flattened into one point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        x = x.ravel()
    if x.shape[-1] != expr.dim:
        raise ModelError(f"point has dimension {x.shape[-1]}, expression expects {expr.dim}")
    return x


def _logistic(u):
    """1 / (1 + exp(-u)) elementwise, with exp taken of -|u| only."""
    z = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _sqnorm(r):
    """||r||^2 over the last axis, as the dot product of each row with itself."""
    return (r[..., None, :] @ r[..., :, None])[..., 0, 0]


class ConvexExpr:
    """Base class; concrete atoms implement ``_value`` and ``_subgrad``.

    Both take a checked point or stack and are written over the last axis, so
    one formula serves both shapes.
    """

    kind = "abstract"
    dim = 0

    def value(self, x):
        """f at x: a float for one point, one value per row for a stack."""
        v = self._value(_check_dim(self, x))
        return float(v) if np.ndim(v) == 0 else v

    def subgrad(self, x):
        """One subgradient at x: 1-D for one point, one row per point for a stack."""
        return self._subgrad(_check_dim(self, x))

    def _value(self, x):
        raise NotImplementedError

    def _subgrad(self, x):
        raise NotImplementedError

    @property
    def smooth_everywhere(self):
        return True

    def touched(self):
        """Boolean mask of variables the expression actually depends on."""
        raise NotImplementedError

    def restrict(self, keep, pinned, pinned_values):
        raise NotImplementedError

    def embed(self, new_dim, positions):
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError


class _VectorAtom(ConvexExpr):
    """Leaf atom over the scalar inner map ``u = a.x + b``."""

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = float(b)
        self.dim = self.a.size

    def _u(self, x):
        return self.a @ x.T + self.b

    def _inner(self):
        """The inner map as a (1, n) matrix and a length-1 offset."""
        return self.a[None, :], np.array([self.b])

    def _like(self, a, b):
        """The same atom over another inner map."""
        return type(self)(a, b)

    def touched(self):
        return self.a != 0.0

    def restrict(self, keep, pinned, pinned_values):
        # the pinned part as a (1, n) matrix product, the same arithmetic as a matrix atom's
        A = self.a[None, :]
        b = self.b + (A[:, pinned] @ np.asarray(pinned_values, dtype=float))[0]
        return self._like(A[:, keep][0], b)

    def embed(self, new_dim, positions):
        a = np.zeros(new_dim)
        a[positions] = self.a
        return self._like(a, self.b)

    def to_dict(self):
        return {"kind": self.kind, "a": self.a.tolist(), "b": self.b}


class _MatrixAtom(ConvexExpr):
    """Leaf atom over the vector inner map ``r = A x + b`` (``b`` defaults to zeros)."""

    def __init__(self, A, b=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=float).ravel()
        if self.b.size != self.A.shape[0]:
            raise ModelError(f"{self.kind} offset length mismatch")
        self.dim = self.A.shape[1]

    def _r(self, x):
        return (self.A @ x.T).T + self.b

    def _inner(self):
        return self.A, self.b

    def touched(self):
        return np.any(self.A != 0.0, axis=0)

    def restrict(self, keep, pinned, pinned_values):
        b = self.b + self.A[:, pinned] @ np.asarray(pinned_values, dtype=float)
        return type(self)(self.A[:, keep], b)

    def embed(self, new_dim, positions):
        A = np.zeros((self.A.shape[0], new_dim))
        A[:, positions] = self.A
        return type(self)(A, self.b)

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}


class Affine(_VectorAtom):
    """a.x + b"""

    kind = "affine"

    def _value(self, x):
        return self._u(x)

    def _subgrad(self, x):
        return np.broadcast_to(self.a, x.shape).copy()


class Softplus(_VectorAtom):
    """log(1 + exp(a.x + b))"""

    kind = "softplus"

    def _value(self, x):
        return np.logaddexp(0.0, self._u(x))

    def _subgrad(self, x):
        return np.multiply.outer(_logistic(self._u(x)), self.a)


class LogSumExp(_MatrixAtom):
    """log sum_i exp((A x + b)_i)"""

    kind = "logsumexp"

    def __init__(self, A, b):   # the offset is required here
        super().__init__(A, b)

    def _value(self, x):
        z = self._r(x)
        m = np.max(z, axis=-1, keepdims=True)
        return (m + np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True)))[..., 0]

    def _subgrad(self, x):
        z = self._r(x)
        w = np.exp(z - np.max(z, axis=-1, keepdims=True))
        return (self.A.T @ (w / np.sum(w, axis=-1, keepdims=True)).T).T


class PowerAffine(_VectorAtom):
    """|a.x + b| ** p with p >= 1 (convex for every such p)."""

    kind = "power"

    def __init__(self, a, b=0.0, p=2.0):
        if p < 1.0:
            raise ModelError("power atom requires exponent p >= 1")
        super().__init__(a, b)
        self.p = float(p)

    def _like(self, a, b):
        return PowerAffine(a, b, self.p)

    def _value(self, x):
        return abs(self._u(x)) ** self.p

    def _subgrad(self, x):
        u = self._u(x)
        g = np.multiply.outer(self.p * abs(u) ** (self.p - 1.0) * np.sign(u), self.a)
        # 0 is a valid subgradient at the kink (p = 1) and the gradient for p > 1
        g[u == 0.0] = 0.0
        return g

    @property
    def smooth_everywhere(self):
        return self.p > 1.0

    def to_dict(self):
        return {**super().to_dict(), "p": self.p}


class SquaredNorm(_MatrixAtom):
    """||A x + b||_2^2"""

    kind = "squared_norm"

    def _value(self, x):
        return _sqnorm(self._r(x))

    def _subgrad(self, x):
        return (2.0 * self.A.T @ self._r(x).T).T


class NormAffine(_MatrixAtom):
    """||A x + b||_2 (nonsmooth where A x + b = 0)."""

    kind = "norm"

    def _value(self, x):
        return np.sqrt(_sqnorm(self._r(x)))

    def _subgrad(self, x):
        r = self._r(x)
        nrm = np.sqrt(_sqnorm(r))[..., None]
        # 0 lies in the subdifferential of ||.|| at the kink
        unit = np.divide(r, nrm, out=np.zeros_like(r), where=nrm > 0.0)
        return (self.A.T @ unit.T).T

    @property
    def smooth_everywhere(self):
        return False


class WeightedSum(ConvexExpr):
    """sum_i w_i f_i(x) + const with w_i >= 0 and convex f_i."""

    kind = "sum"

    def __init__(self, terms, weights=None, const=0.0):
        self.terms = list(terms)
        if not self.terms:
            raise ModelError("weighted sum needs at least one term")
        self.weights = (
            np.ones(len(self.terms)) if weights is None else np.asarray(weights, dtype=float).ravel()
        )
        if self.weights.size != len(self.terms):
            raise ModelError("weight/term count mismatch")
        if np.any(self.weights < 0):
            raise ModelError("weighted sum requires nonnegative weights")
        self.const = float(const)
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise ModelError("weighted sum terms must share one dimension")
        self.dim = dims.pop()

    def _value(self, x):
        return sum(w * t._value(x) for w, t in zip(self.weights, self.terms)) + self.const

    def _subgrad(self, x):
        g = np.zeros(x.shape)
        for w, t in zip(self.weights, self.terms):
            if w != 0.0:
                g += w * t._subgrad(x)
        return g

    @property
    def smooth_everywhere(self):
        return all(t.smooth_everywhere for w, t in zip(self.weights, self.terms) if w != 0.0)

    def touched(self):
        mask = np.zeros(self.dim, dtype=bool)
        for w, t in zip(self.weights, self.terms):
            if w != 0.0:
                mask |= t.touched()
        return mask

    def restrict(self, keep, pinned, pinned_values):
        return WeightedSum(
            [t.restrict(keep, pinned, pinned_values) for t in self.terms],
            self.weights,
            self.const,
        )

    def embed(self, new_dim, positions):
        return WeightedSum([t.embed(new_dim, positions) for t in self.terms], self.weights, self.const)

    def to_dict(self):
        return {
            "kind": self.kind,
            "weights": self.weights.tolist(),
            "const": self.const,
            "terms": [t.to_dict() for t in self.terms],
        }


_ATOMS = {
    "affine": lambda d: Affine(d["a"], d.get("b", 0.0)),
    "softplus": lambda d: Softplus(d["a"], d.get("b", 0.0)),
    "logsumexp": lambda d: LogSumExp(d["A"], d["b"]),
    "power": lambda d: PowerAffine(d["a"], d.get("b", 0.0), d.get("p", 2.0)),
    "squared_norm": lambda d: SquaredNorm(d["A"], d.get("b")),
    "norm": lambda d: NormAffine(d["A"], d.get("b")),
}


def expr_from_dict(d):
    """Rebuild an expression from its serialized form."""
    kind = d.get("kind")
    if kind == "sum":
        return WeightedSum([expr_from_dict(t) for t in d["terms"]], d.get("weights"), d.get("const", 0.0))
    if kind not in _ATOMS:
        raise ModelError(f"unknown atom kind {kind!r}")
    return _ATOMS[kind](d)


def separable_blocks(expr, block_a, block_b):
    """True when ``expr`` splits as f(x_a) + g(x_b) across the two index blocks.

    A sum is separable when every leaf term touches at most one of the blocks;
    a plain atom qualifies when its own support avoids one of them.
    """
    block_a = np.asarray(block_a, dtype=int)
    block_b = np.asarray(block_b, dtype=int)

    def leaf_ok(t):
        mask = t.touched()
        return not (mask[block_a].any() and mask[block_b].any())

    if isinstance(expr, WeightedSum):
        return all(
            leaf_ok(t) if not isinstance(t, WeightedSum) else separable_blocks(t, block_a, block_b)
            for w, t in zip(expr.weights, expr.terms)
            if w != 0.0
        )
    return leaf_ok(expr)


# ---------------------------------------------------------------------------
# lowered rows: every non-affine leaf in one stacked inner map
# ---------------------------------------------------------------------------

# The order of the kinds in the stack: the one-row kinds first, so their leaf
# and inner-row slices coincide, and the two kinds with a rank term last, so
# their leaves are one slice.
_KINDS = ("softplus", "power", "squared_norm", "logsumexp", "norm")


def _joined(parts):
    """The per-kind parts as one array, without a copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class LoweredRows:
    """Rows ``c(x) = [g_1(x), ..., g_k(x), A x + b]`` lowered once for evaluation.

    Each ``WeightedSum`` tree is flattened into weighted leaves; ``Affine``
    leaves and constants fold into one affine part per row (``J0``, ``c0``).
    Every other leaf sits in one inner map ``M x + q``, ordered by kind, with
    one leaf slice and one inner-row slice per kind (``kinds``): ``seg`` names
    the leaf of each inner row, ``S`` (leaves x inner rows, 0/1) sums inner
    rows back to their leaf, and ``W`` (rows x leaves) carries each leaf's
    weight to its row.  ``values`` is one product for all residuals (``JM``
    and ``cq`` stack the affine part over the inner map), each kind's formula
    on its slice and one ``W`` product, and it returns the inner residuals
    ``M x + q`` and per-leaf sums with the values, so ``derivatives`` at the
    same point computes neither again; ``derivatives`` takes per inner row
    the gradient coefficient ``coef`` and curvature weight ``dd``, per
    log-sum-exp and norm leaf the rank weight ``ee``, and then
    ``G = S @ (coef * M)``, ``J = J0 + W @ G`` and
    ``M.T @ (dd * M) - G.T @ (ee * G)``.  The derivatives are the smooth
    surrogates of the module docstring: the norm is regularized to
    ``sqrt(||r||^2 + _KINK_EPS^2)``, and a power with ``1 < p < 2`` takes its
    curvature at ``|u|`` floored at ``_KINK_EPS``.
    """

    def __init__(self, exprs, A, b):
        k, dim = len(exprs), A.shape[1]
        lin = np.zeros((k, dim))
        off = np.zeros(k)
        leaves = {kind: [] for kind in _KINDS}

        def walk(e, w, i):
            if isinstance(e, WeightedSum):
                off[i] += w * e.const
                for wt, t in zip(e.weights, e.terms):
                    if wt != 0.0:
                        walk(t, w * wt, i)
            elif isinstance(e, Affine):
                lin[i] += w * e.a
                off[i] += w * e.b
            elif e.kind in leaves:
                leaves[e.kind].append((e, w, i))
            else:
                raise ModelError(f"cannot lower atom kind {e.kind!r}")

        for i, e in enumerate(exprs):
            walk(e, 1.0, i)
        items = [item for kind in _KINDS for item in leaves[kind]]
        inner = [leaf._inner() for leaf, _, _ in items]
        sizes = [Ai.shape[0] for Ai, _ in inner]
        self.k, self.m = k, k + A.shape[0]
        self.JM = np.vstack([lin, A, *(Ai for Ai, _ in inner)])
        self.cq = np.concatenate([off, b, *(bi for _, bi in inner)])
        self._views()
        self.seg = np.repeat(np.arange(len(items)), sizes)
        self.S = (self.seg == np.arange(len(items))[:, None]).astype(float)
        self.W = np.zeros((k, len(items)))
        for j, (_, w, i) in enumerate(items):
            self.W[i, j] += w
        self.kinds = {}   # kind -> (leaf slice, inner-row slice), for the kinds present
        leaf = row = 0
        for kind in _KINDS:
            count = len(leaves[kind])
            if count:
                rows = sum(sizes[leaf : leaf + count])
                self.kinds[kind] = (slice(leaf, leaf + count), slice(row, row + rows))
                leaf, row = leaf + count, row + rows
        self.p = np.array([atom.p for atom, _, _ in leaves["power"]])
        self.one = len(leaves["softplus"]) + len(leaves["power"])   # rows of the one-row kinds
        self.summed = len(items) > self.one
        if "logsumexp" in self.kinds:
            lf, sl = self.kinds["logsumexp"]
            self.lse_seg = self.seg[sl] - lf.start
            self.lse_starts = np.cumsum([0, *sizes[lf][:-1]])
        rank = [self.kinds[kind][0].start for kind in ("logsumexp", "norm") if kind in self.kinds]
        self.rank = slice(rank[0], len(items)) if rank else None

    def _views(self):
        self.J0, self.M = self.JM[: self.m], self.JM[self.m :]
        self.c0, self.q = self.cq[: self.m], self.cq[self.m :]

    def fold_pins(self, keep, pinned, values):
        """Make the rows functions of x[keep], with x[pinned] = values.

        ``keep`` and ``pinned`` split the columns.  The pinned columns of the
        affine part and of the inner map move into their offsets; the atom
        trees are not touched.
        """
        if len(pinned):
            self.cq = self.cq + self.JM[:, pinned] @ values
            self.JM = self.JM[:, keep]
            self._views()

    def _sums(self, r):
        """Per leaf, the sum over its inner rows of r^2, or of exp(r - max) on
        log-sum-exp leaves (0 on the one-row kinds); with the log-sum-exp
        maxima (None without such leaves) and the summed terms."""
        t = r * r
        if self.one:
            t[: self.one] = 0.0
        mx = None
        if "logsumexp" in self.kinds:
            sl = self.kinds["logsumexp"][1]
            mx = np.maximum.reduceat(r[sl], self.lse_starts)
            t[sl] = np.exp(r[sl] - mx[self.lse_seg])
        return self.S @ t, mx, t

    def values(self, x):
        """``c(x)``, and the inner evaluation ``derivatives`` takes at the same x.

        The inner evaluation is ``(r, sums, t)``: the residuals ``r = M x + q``
        and, when a leaf has more than one inner row, the per-leaf sums and
        summed terms of ``_sums`` (else None); it is None when every leaf is
        affine.
        """
        out = self.JM @ x + self.cq
        c = out[: self.m]
        if not self.kinds:
            return c, None
        r = out[self.m :]
        sums, mx, t = self._sums(r) if self.summed else (None, None, None)
        v = []   # the leaf values, kind by kind in leaf order
        for kind, (lf, sl) in self.kinds.items():
            if kind == "softplus":
                v.append(np.logaddexp(0.0, r[sl]))
            elif kind == "power":
                v.append(np.abs(r[sl]) ** self.p)
            elif kind == "squared_norm":
                v.append(sums[lf])
            elif kind == "logsumexp":
                v.append(mx + np.log(sums[lf]))
            else:
                v.append(np.sqrt(sums[lf]))
        c[: self.k] += self.W @ _joined(v)
        return c, (r, sums, t)

    def norm_leaves(self, x, y):
        """The norm leaves at x, or None: their inner residuals r = M x + q, the
        surrogate gradients g in r-space that ``derivatives`` uses, the leaf
        ``seg`` of each inner row, and each leaf's weight w in sum_i y_i c_i."""
        if "norm" not in self.kinds:
            return None
        lf, sl = self.kinds["norm"]
        M, seg = self.M[sl], self.seg[sl] - lf.start
        r = M @ x + self.q[sl]
        g = r / np.sqrt(self.S[lf, sl] @ (r * r) + _KINK_EPS**2)[seg]
        return M, r, g, seg, self.W[:, lf].T @ y[: self.k]

    def derivatives(self, x, y, inner=None):
        """Jacobian of ``c`` at x and the curvature ``sum_i y_i hess c_i(x)``.

        ``inner`` is the inner evaluation ``values`` returned at the same x;
        without it, it is evaluated here.
        """
        J = self.J0.copy()
        if not self.kinds:
            return J, np.zeros((x.size, x.size))
        r, sums, t = self.values(x)[1] if inner is None else inner
        yl = self.W.T @ y[: self.k]
        yr = yl[self.seg] if self.summed else yl
        if self.rank is not None:   # log-sum-exp and norm leaves read their sums
            sr = sums[self.seg]
        coef, dd, ee = [], [], []   # kind by kind: per inner row, and per rank leaf
        for kind, (lf, sl) in self.kinds.items():
            if kind == "softplus":
                sig = _logistic(r[sl])
                coef.append(sig)
                dd.append(yr[sl] * sig * (1.0 - sig))
            elif kind == "power":
                p, u = self.p, r[sl]
                au = np.abs(u)
                coef.append(p * au ** (p - 1.0) * np.sign(u))
                # the atom's kink regularization: |u| floored for p < 2 (p = 1 has no curvature)
                mag = np.where(p < 2.0, np.maximum(au, _KINK_EPS), au)
                dd.append(yr[sl] * (p * (p - 1.0) * mag ** (p - 2.0)))
            elif kind == "squared_norm":
                coef.append(2.0 * r[sl])
                dd.append(2.0 * yr[sl])
            elif kind == "logsumexp":
                w = t[sl] / sr[sl]
                coef.append(w)
                dd.append(w * yr[sl])
                ee.append(yl[lf])
            else:
                # smooth surrogate: ||r|| regularized to sqrt(||r||^2 + _KINK_EPS^2)
                nrm = np.sqrt(sr[sl] + _KINK_EPS**2)
                coef.append(r[sl] / nrm)
                dd.append(yr[sl] / nrm)
                ee.append(yl[lf] / np.sqrt(sums[lf] + _KINK_EPS**2))
        G = _joined(coef)[:, None] * self.M
        if self.summed:   # otherwise every leaf has one inner row, and S is the identity
            G = self.S @ G
        J[: self.k] += self.W @ G
        curv = self.M.T @ (_joined(dd)[:, None] * self.M)
        if ee:
            R = G[self.rank]
            curv -= R.T @ (_joined(ee)[:, None] * R)
        return J, curv
