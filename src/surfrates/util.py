"""Small shared numerical helpers."""
from __future__ import annotations

import numpy as np

__all__ = ["rel_residual", "inv2", "det2", "frobenius"]


def frobenius(a) -> float:
    """Frobenius norm of an arbitrary array (0.0 for scalars equal to zero)."""
    return float(np.sqrt(np.sum(np.asarray(a, dtype=float) ** 2)))


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def _worst(a, b) -> float:
    """max(a, b) that keeps a NaN, which the builtin drops when it comes second."""
    return float(np.maximum(a, b))


def rel_residual(a, b) -> float:
    """Difference of two values scaled by max(1, |a|, |b|).

    This is the tolerance convention used by the dual-path checks: absolute
    for small values, relative for large ones.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, frobenius(a), frobenius(b))
    return frobenius(a - b) / scale


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
