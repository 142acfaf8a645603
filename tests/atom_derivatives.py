"""Reference smooth gradients and Hessians of the convex atoms, one tree at a time.

``expr.LoweredRows`` evaluates the same smooth surrogates in one stacked
block ordered by atom kind: the subgradient wherever the atom is differentiable, the norm
regularized by ``_KINK_EPS`` under its square root, and ``|u|`` floored at
``_KINK_EPS`` in the curvature of a power 1 < p < 2.  The kernel tests
compare the lowered rows against these per-tree formulas.
"""

import numpy as np

from micpkit.expr import (
    _KINK_EPS,
    Affine,
    LogSumExp,
    NormAffine,
    PowerAffine,
    Softplus,
    SquaredNorm,
    WeightedSum,
    _logistic,
)


def grad(expr, x):
    """Smooth surrogate gradient of ``expr`` at x."""
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(expr, WeightedSum):
        g = np.zeros(expr.dim)
        for w, t in zip(expr.weights, expr.terms):
            if w != 0.0:
                g += w * grad(t, x)
        return g
    if isinstance(expr, NormAffine):
        r = expr.A @ x + expr.b
        return expr.A.T @ (r / np.sqrt(float(r @ r) + _KINK_EPS**2))
    return expr.subgrad(x)


def hess(expr, x):
    """Smooth surrogate Hessian of ``expr`` at x."""
    x = np.asarray(x, dtype=float).ravel()
    n = expr.dim
    if isinstance(expr, WeightedSum):
        H = np.zeros((n, n))
        for w, t in zip(expr.weights, expr.terms):
            if w != 0.0:
                H += w * hess(t, x)
        return H
    if isinstance(expr, Affine):
        return np.zeros((n, n))
    if isinstance(expr, Softplus):
        s = _logistic(expr._u(x))
        return s * (1.0 - s) * np.outer(expr.a, expr.a)
    if isinstance(expr, LogSumExp):
        z = expr.A @ x + expr.b
        w = np.exp(z - np.max(z))
        w /= np.sum(w)
        return expr.A.T @ (np.diag(w) - np.outer(w, w)) @ expr.A
    if isinstance(expr, PowerAffine):
        if expr.p == 1.0:
            return np.zeros((n, n))
        u = abs(expr._u(x))
        mag = max(u, _KINK_EPS) if expr.p < 2.0 else u
        return expr.p * (expr.p - 1.0) * mag ** (expr.p - 2.0) * np.outer(expr.a, expr.a)
    if isinstance(expr, SquaredNorm):
        return 2.0 * expr.A.T @ expr.A
    if isinstance(expr, NormAffine):
        r = expr.A @ x + expr.b
        nrm = np.sqrt(float(r @ r) + _KINK_EPS**2)
        return expr.A.T @ (np.eye(r.size) / nrm - np.outer(r, r) / nrm**3) @ expr.A
    raise TypeError(f"no reference Hessian for {type(expr).__name__}")
