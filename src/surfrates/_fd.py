"""Central finite-difference stencils used by the evaluation backends.

All helpers take a callable of a single real argument and differentiate it
at ``x``.  The callable may return any numpy-broadcastable array; stencil
arithmetic is elementwise.
"""
from __future__ import annotations

__all__ = ["c2_d1", "c4_d1", "c4_grad", "c4_d2", "c4_d1_nested"]


def c2_d1(f, x, h):
    """Second-order central first derivative."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def c4_d1(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def c4_grad(f2, y1, y2, h):
    """Both fourth-order central partials (d/dy1, d/dy2) of a callable of two
    real arguments at (y1, y2)."""
    return c4_d1(lambda a: f2(a, y2), y1, h), c4_d1(lambda b: f2(y1, b), y2, h)


def c4_d2(f, x, h):
    """Fourth-order central second derivative (five-point)."""
    return (
        -f(x + 2 * h)
        + 16.0 * f(x + h)
        - 30.0 * f(x)
        + 16.0 * f(x - h)
        - f(x - 2 * h)
    ) / (12.0 * h * h)


def c4_d1_nested(f2, x, hx, y, hy):
    """Mixed second derivative d^2/dxdy by nested fourth-order stencils.

    ``f2`` is a callable of two real arguments.
    """
    return c4_d1(lambda a: c4_d1(lambda b: f2(a, b), y, hy), x, hx)
