"""Convex expression atoms with value, subgradient and curvature oracles.

The atom library is closed: every expression is built from a fixed set of
convex atoms over affine inner maps, so exact subgradient formulas and JSON
serialization are available for all of them.  Each atom provides

* ``value(x)``        exact function value,
* ``subgrad(x)``      one exact element of the subdifferential,
* ``grad(x)``         a smooth surrogate gradient (equal to ``subgrad`` at
                      differentiability points; regularized at kinks so the
                      barrier solver always has curvature to work with),
* ``hess(x)``         the matching surrogate Hessian,
* ``restrict(...)``   partial evaluation with some coordinates pinned,
* ``embed(...)``      re-indexing into a larger variable space.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

# Curvature regularization for kinked atoms (norm at zero, powers p < 2).
_KINK_EPS = 1e-12


def _as_matrix(A, n=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if n is not None and A.shape[1] != n:
        raise ModelError(f"inner map has {A.shape[1]} columns, expected {n}")
    return A


def _check_dim(expr, x):
    x = np.asarray(x, dtype=float).ravel()
    if x.size != expr.dim:
        raise ModelError(f"point has dimension {x.size}, expression expects {expr.dim}")
    return x


class ConvexExpr:
    """Base class; concrete atoms implement the oracle methods."""

    kind = "abstract"
    dim = 0

    def value(self, x):
        raise NotImplementedError

    def subgrad(self, x):
        raise NotImplementedError

    def grad(self, x):
        return self.subgrad(x)

    def hess(self, x):
        return np.zeros((self.dim, self.dim))

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

    def __call__(self, x):
        return self.value(x)


def _restrict_inner(A, b, keep, pinned, pinned_values):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    newb = b + A[:, pinned] @ np.asarray(pinned_values, dtype=float)
    return A[:, keep], newb


def _embed_inner(A, new_dim, positions):
    A = np.asarray(A, dtype=float)
    out = np.zeros((A.shape[0], new_dim))
    out[:, positions] = A
    return out


class Affine(ConvexExpr):
    """a.x + b"""

    kind = "affine"

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = float(b)
        self.dim = self.a.size

    def value(self, x):
        x = _check_dim(self, x)
        return float(self.a @ x + self.b)

    def subgrad(self, x):
        _check_dim(self, x)
        return self.a.copy()

    def touched(self):
        return self.a != 0.0

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.a[None, :], [self.b], keep, pinned, pinned_values)
        return Affine(A[0], b[0])

    def embed(self, new_dim, positions):
        return Affine(_embed_inner(self.a[None, :], new_dim, positions)[0], self.b)

    def to_dict(self):
        return {"kind": self.kind, "a": self.a.tolist(), "b": self.b}


class Softplus(ConvexExpr):
    """log(1 + exp(a.x + b))"""

    kind = "softplus"

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = float(b)
        self.dim = self.a.size

    def _u(self, x):
        return float(self.a @ x + self.b)

    def value(self, x):
        x = _check_dim(self, x)
        u = self._u(x)
        # stable softplus
        return float(np.logaddexp(0.0, u))

    def _sigma(self, u):
        if u >= 0:
            z = np.exp(-u)
            return 1.0 / (1.0 + z)
        z = np.exp(u)
        return z / (1.0 + z)

    def subgrad(self, x):
        x = _check_dim(self, x)
        return self._sigma(self._u(x)) * self.a

    def hess(self, x):
        x = _check_dim(self, x)
        s = self._sigma(self._u(x))
        return s * (1.0 - s) * np.outer(self.a, self.a)

    def touched(self):
        return self.a != 0.0

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.a[None, :], [self.b], keep, pinned, pinned_values)
        return Softplus(A[0], b[0])

    def embed(self, new_dim, positions):
        return Softplus(_embed_inner(self.a[None, :], new_dim, positions)[0], self.b)

    def to_dict(self):
        return {"kind": self.kind, "a": self.a.tolist(), "b": self.b}


class LogSumExp(ConvexExpr):
    """log sum_i exp((A x + b)_i)"""

    kind = "logsumexp"

    def __init__(self, A, b):
        self.A = _as_matrix(A)
        self.b = np.asarray(b, dtype=float).ravel()
        if self.b.size != self.A.shape[0]:
            raise ModelError("logsumexp offset length mismatch")
        self.dim = self.A.shape[1]

    def _z(self, x):
        return self.A @ x + self.b

    def value(self, x):
        x = _check_dim(self, x)
        z = self._z(x)
        m = float(np.max(z))
        return m + float(np.log(np.sum(np.exp(z - m))))

    def _weights(self, x):
        z = self._z(x)
        z = z - np.max(z)
        w = np.exp(z)
        return w / np.sum(w)

    def subgrad(self, x):
        x = _check_dim(self, x)
        return self.A.T @ self._weights(x)

    def hess(self, x):
        x = _check_dim(self, x)
        w = self._weights(x)
        M = np.diag(w) - np.outer(w, w)
        return self.A.T @ M @ self.A

    def touched(self):
        return np.any(self.A != 0.0, axis=0)

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.A, self.b, keep, pinned, pinned_values)
        return LogSumExp(A, b)

    def embed(self, new_dim, positions):
        return LogSumExp(_embed_inner(self.A, new_dim, positions), self.b)

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}


class PowerAffine(ConvexExpr):
    """|a.x + b| ** p with p >= 1 (convex for every such p)."""

    kind = "power"

    def __init__(self, a, b=0.0, p=2.0):
        if p < 1.0:
            raise ModelError("power atom requires exponent p >= 1")
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = float(b)
        self.p = float(p)
        self.dim = self.a.size

    def _u(self, x):
        return float(self.a @ x + self.b)

    def value(self, x):
        x = _check_dim(self, x)
        return abs(self._u(x)) ** self.p

    def subgrad(self, x):
        x = _check_dim(self, x)
        u = self._u(x)
        if u == 0.0:
            # 0 is a valid subgradient at the kink (p = 1) and the gradient for p > 1
            return np.zeros(self.dim)
        return self.p * abs(u) ** (self.p - 1.0) * np.sign(u) * self.a

    def grad(self, x):
        return self.subgrad(x)

    def hess(self, x):
        x = _check_dim(self, x)
        u = self._u(x)
        if self.p == 1.0:
            return np.zeros((self.dim, self.dim))
        mag = max(abs(u), _KINK_EPS) if self.p < 2.0 else abs(u)
        h = self.p * (self.p - 1.0) * mag ** (self.p - 2.0)
        return h * np.outer(self.a, self.a)

    @property
    def smooth_everywhere(self):
        return self.p > 1.0

    def touched(self):
        return self.a != 0.0

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.a[None, :], [self.b], keep, pinned, pinned_values)
        return PowerAffine(A[0], b[0], self.p)

    def embed(self, new_dim, positions):
        return PowerAffine(_embed_inner(self.a[None, :], new_dim, positions)[0], self.b, self.p)

    def to_dict(self):
        return {"kind": self.kind, "a": self.a.tolist(), "b": self.b, "p": self.p}


class SquaredNorm(ConvexExpr):
    """||A x + b||_2^2"""

    kind = "squared_norm"

    def __init__(self, A, b=None):
        self.A = _as_matrix(A)
        self.b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=float).ravel()
        if self.b.size != self.A.shape[0]:
            raise ModelError("squared_norm offset length mismatch")
        self.dim = self.A.shape[1]

    def value(self, x):
        x = _check_dim(self, x)
        r = self.A @ x + self.b
        return float(r @ r)

    def subgrad(self, x):
        x = _check_dim(self, x)
        return 2.0 * self.A.T @ (self.A @ x + self.b)

    def hess(self, x):
        return 2.0 * self.A.T @ self.A

    def touched(self):
        return np.any(self.A != 0.0, axis=0)

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.A, self.b, keep, pinned, pinned_values)
        return SquaredNorm(A, b)

    def embed(self, new_dim, positions):
        return SquaredNorm(_embed_inner(self.A, new_dim, positions), self.b)

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}


class NormAffine(ConvexExpr):
    """||A x + b||_2 (nonsmooth where A x + b = 0)."""

    kind = "norm"

    def __init__(self, A, b=None):
        self.A = _as_matrix(A)
        self.b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=float).ravel()
        if self.b.size != self.A.shape[0]:
            raise ModelError("norm offset length mismatch")
        self.dim = self.A.shape[1]

    def _r(self, x):
        return self.A @ x + self.b

    def value(self, x):
        x = _check_dim(self, x)
        return float(np.linalg.norm(self._r(x)))

    def subgrad(self, x):
        x = _check_dim(self, x)
        r = self._r(x)
        nrm = np.linalg.norm(r)
        if nrm == 0.0:
            # 0 lies in the subdifferential of ||.|| at the kink
            return np.zeros(self.dim)
        return self.A.T @ (r / nrm)

    def grad(self, x):
        x = _check_dim(self, x)
        r = self._r(x)
        nrm = np.sqrt(float(r @ r) + _KINK_EPS**2)
        return self.A.T @ (r / nrm)

    def hess(self, x):
        x = _check_dim(self, x)
        r = self._r(x)
        nrm = np.sqrt(float(r @ r) + _KINK_EPS**2)
        M = np.eye(r.size) / nrm - np.outer(r, r) / nrm**3
        return self.A.T @ M @ self.A

    @property
    def smooth_everywhere(self):
        return False

    def touched(self):
        return np.any(self.A != 0.0, axis=0)

    def restrict(self, keep, pinned, pinned_values):
        A, b = _restrict_inner(self.A, self.b, keep, pinned, pinned_values)
        return NormAffine(A, b)

    def embed(self, new_dim, positions):
        return NormAffine(_embed_inner(self.A, new_dim, positions), self.b)

    def to_dict(self):
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}


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

    def value(self, x):
        x = _check_dim(self, x)
        return float(sum(w * t.value(x) for w, t in zip(self.weights, self.terms)) + self.const)

    def subgrad(self, x):
        x = _check_dim(self, x)
        g = np.zeros(self.dim)
        for w, t in zip(self.weights, self.terms):
            if w != 0.0:
                g += w * t.subgrad(x)
        return g

    def grad(self, x):
        x = _check_dim(self, x)
        g = np.zeros(self.dim)
        for w, t in zip(self.weights, self.terms):
            if w != 0.0:
                g += w * t.grad(x)
        return g

    def hess(self, x):
        x = _check_dim(self, x)
        H = np.zeros((self.dim, self.dim))
        for w, t in zip(self.weights, self.terms):
            if w != 0.0:
                H += w * t.hess(x)
        return H

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
# lowered rows: the same expressions as stacked per-kind blocks
# ---------------------------------------------------------------------------

def _inner(leaf):
    """Inner affine map (A, b) of a leaf atom, as a matrix and a vector."""
    if hasattr(leaf, "A"):
        return leaf.A, leaf.b
    return leaf.a[None, :], np.array([leaf.b])


class _Block:
    """Every leaf of one atom kind, stacked.

    ``M x + q`` stacks the leaves' inner maps; ``seg`` names the leaf of each
    inner row and ``S`` (leaves x inner rows, 0/1) sums inner rows back to
    their leaf; ``W`` (rows x leaves) carries each leaf's flattened weight to
    the row it belongs to.  Subclasses give the leaf values ``value(r)`` and
    ``derivs(r, y)``: the leaf gradients and ``sum_l y_l hess_l``.
    """

    def __init__(self, items, k):
        inner = [_inner(leaf) for leaf, _, _ in items]
        self.M = np.vstack([A for A, _ in inner])
        self.q = np.concatenate([b for _, b in inner])
        sizes = [A.shape[0] for A, _ in inner]
        self.seg = np.repeat(np.arange(len(items)), sizes)
        self.S = (self.seg == np.arange(len(items))[:, None]).astype(float)
        self.W = np.zeros((k, len(items)))
        for j, (_, w, i) in enumerate(items):
            self.W[i, j] += w


class _SoftplusBlock(_Block):
    def value(self, u):
        return np.logaddexp(0.0, u)

    def derivs(self, u, y):
        z = np.exp(-np.abs(u))
        sig = np.where(u >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return sig[:, None] * self.M, self.M.T @ ((y * sig * (1.0 - sig))[:, None] * self.M)


class _PowerBlock(_Block):
    def __init__(self, items, k):
        super().__init__(items, k)
        self.p = np.array([leaf.p for leaf, _, _ in items])

    def value(self, u):
        return np.abs(u) ** self.p

    def derivs(self, u, y):
        p, au = self.p, np.abs(u)
        d1 = p * au ** (p - 1.0) * np.sign(u)
        # the atom's kink regularization: |u| floored for p < 2 (p = 1 has no curvature)
        mag = np.where(p < 2.0, np.maximum(au, _KINK_EPS), au)
        d2 = p * (p - 1.0) * mag ** (p - 2.0)
        return d1[:, None] * self.M, self.M.T @ ((y * d2)[:, None] * self.M)


class _LogSumExpBlock(_Block):
    def __init__(self, items, k):
        super().__init__(items, k)
        self.starts = np.flatnonzero(np.diff(self.seg, prepend=-1))

    def value(self, z):
        mx = np.maximum.reduceat(z, self.starts)
        return mx + np.log(self.S @ np.exp(z - mx[self.seg]))

    def derivs(self, z, y):
        e = np.exp(z - np.maximum.reduceat(z, self.starts)[self.seg])
        w = e / (self.S @ e)[self.seg]
        G = (self.S * w) @ self.M
        return G, self.M.T @ ((w * y[self.seg])[:, None] * self.M) - G.T @ (y[:, None] * G)


class _SquaredNormBlock(_Block):
    def value(self, r):
        return self.S @ (r * r)

    def derivs(self, r, y):
        return 2.0 * (self.S * r) @ self.M, 2.0 * self.M.T @ ((y[self.seg])[:, None] * self.M)


class _NormBlock(_Block):
    def value(self, r):
        return np.sqrt(self.S @ (r * r))

    def derivs(self, r, y):
        # the smooth surrogate of NormAffine.grad/hess
        nrm = np.sqrt(self.S @ (r * r) + _KINK_EPS**2)
        Gr = (self.S * r) @ self.M
        curv = self.M.T @ ((y / nrm)[self.seg][:, None] * self.M) - Gr.T @ ((y / nrm**3)[:, None] * Gr)
        return Gr / nrm[:, None], curv


_BLOCKS = {
    "softplus": _SoftplusBlock,
    "power": _PowerBlock,
    "logsumexp": _LogSumExpBlock,
    "squared_norm": _SquaredNormBlock,
    "norm": _NormBlock,
}


class LoweredRows:
    """Rows ``c(x) = [g_1(x), ..., g_k(x), A x + b]`` lowered once for evaluation.

    Each ``WeightedSum`` tree is flattened into weighted leaves; ``Affine``
    leaves and constants fold into one affine part per row, and the other
    leaves are stacked by kind.  Values, the Jacobian and the weighted
    curvature of all rows then cost a few numpy calls per block, with the
    same smooth surrogates as the atoms' ``grad``/``hess``.
    """

    def __init__(self, exprs, A, b):
        k, dim = len(exprs), A.shape[1]
        lin = np.zeros((k, dim))
        off = np.zeros(k)
        leaves = {}

        def walk(e, w, i):
            if isinstance(e, WeightedSum):
                off[i] += w * e.const
                for wt, t in zip(e.weights, e.terms):
                    if wt != 0.0:
                        walk(t, w * wt, i)
            elif isinstance(e, Affine):
                lin[i] += w * e.a
                off[i] += w * e.b
            elif e.kind in _BLOCKS:
                leaves.setdefault(e.kind, []).append((e, w, i))
            else:
                raise ModelError(f"cannot lower atom kind {e.kind!r}")

        for i, e in enumerate(exprs):
            walk(e, 1.0, i)
        self.k = k
        self.J0 = np.vstack([lin, A])
        self.c0 = np.concatenate([off, b])
        self.blocks = [_BLOCKS[kind](items, k) for kind, items in leaves.items()]

    def values(self, x):
        c = self.J0 @ x + self.c0
        for blk in self.blocks:
            c[: self.k] += blk.W @ blk.value(blk.M @ x + blk.q)
        return c

    def derivatives(self, x, y):
        """Jacobian of ``c`` at x and the curvature ``sum_i y_i hess c_i(x)``."""
        J = self.J0.copy()
        curv = np.zeros((x.size, x.size))
        for blk in self.blocks:
            G, C = blk.derivs(blk.M @ x + blk.q, blk.W.T @ y[: self.k])
            J[: self.k] += blk.W @ G
            curv += C
        return J, curv
