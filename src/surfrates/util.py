"""Small shared numerical helpers."""
from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["rel_residual"]


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def _scaled_norm(x, *refs, nb: int = 0, fro: bool = True):
    """Norm of x over max(1, norm of each ref), one value per point.

    Each norm is taken over the component axes of its array, which are all
    axes but the trailing ``nb`` (broadcast) axes: the Frobenius norm, or
    with ``fro=False`` the largest absolute entry.
    """

    def norm(a):
        a = np.asarray(a, dtype=float)
        axes = tuple(range(a.ndim - nb))
        return np.sqrt((a * a).sum(axis=axes)) if fro else np.abs(a).max(axis=axes)

    return norm(x) / reduce(np.maximum, map(norm, refs), 1.0)


def rel_residual(a, b) -> float:
    """Difference of two values scaled by max(1, |a|, |b|).

    This is the tolerance convention used by the dual-path checks: absolute
    for small values, relative for large ones.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(_scaled_norm(a - b, a, b))


def _mm(a, b):
    """Matrix product of two stacked matrices (component axes first)."""
    return np.einsum("ik...,kj...->ij...", a, b)


def det2(m):
    """Determinant of a (2,2,...) stacked matrix (component axes first)."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m):
    """Inverse of a (2,2,...) stacked matrix (component axes first)."""
    d = det2(m)
    out = np.empty_like(m)
    out[0, 0] = m[1, 1] / d
    out[1, 1] = m[0, 0] / d
    out[0, 1] = -m[0, 1] / d
    out[1, 0] = -m[1, 0] / d
    return out
