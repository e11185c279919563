"""Central finite-difference stencils used by the evaluation backends.

The time stencils ``c2_d1`` and ``c4_d1`` take a callable of a single real
argument and differentiate it at ``x``.

The spatial stencils ``c4_grad`` and ``c4_hess`` take a callable ``f2(a, b)``
of two chart coordinates and call it once for all their points: ``a`` and
``b`` are arrays of the coordinate shape with the stencil offsets on one
extra trailing axis (component axes first, broadcast axes last).  The
callable must either broadcast over that axis, returning its component axes
followed by exactly those coordinate axes, or fail loudly: raise, or return
an array whose trailing axes are not the coordinate shape.  Such a
pointwise-only callable is then evaluated offset by offset, which is the
only per-offset path.  Stencil arithmetic is elementwise and combines the
offsets in the order of the one-dimensional formulas.
"""
from __future__ import annotations

import numpy as np

__all__ = ["c2_d1", "c4_d1", "c4_grad", "c4_hess"]


def c2_d1(f, x, h):
    """Second-order central first derivative."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def c4_d1(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def _at_offsets(f2, y1, y2, d1, d2):
    """``f2(y1 + d1[k], y2 + d2[k])`` for every k, with k on a trailing axis."""
    a, b = np.broadcast_arrays(
        np.asarray(y1, dtype=float)[..., None] + d1,
        np.asarray(y2, dtype=float)[..., None] + d2,
    )
    try:
        out = np.asarray(f2(a, b))
    except (ValueError, TypeError, IndexError):
        out = None
    if out is None or out.shape[max(out.ndim - a.ndim, 0) :] != a.shape:
        return _per_offset(f2, a, b)
    return out


def _per_offset(f2, a, b):
    """The fallback for a callable that does not broadcast: one call per
    offset (``[()]`` hands a scalar, not a 0-d array, to pointwise code)."""
    return np.stack(
        [np.asarray(f2(a[..., k][()], b[..., k][()])) for k in range(a.shape[-1])], axis=-1
    )


def _d1(F, h):
    """Fourth-order first derivative from values at x+2h, x+h, x-h, x-2h (last axis)."""
    return (-F[..., 0] + 8.0 * F[..., 1] - 8.0 * F[..., 2] + F[..., 3]) / (12.0 * h)


def _steps(h):
    return np.array([2 * h, h, -h, -2 * h])


def c4_grad(f2, y1, y2, h):
    """Both fourth-order central partials (d/dy1, d/dy2) of a callable of two
    real arguments at (y1, y2), from one call on the 8 axis offsets."""
    s, z = _steps(h), np.zeros(4)
    F = _at_offsets(f2, y1, y2, np.concatenate([s, z]), np.concatenate([z, s]))
    return _d1(F[..., :4], h), _d1(F[..., 4:], h)


def c4_hess(f2, y1, y2, h):
    """Value, both partials and the three second partials of a callable of
    two real arguments at (y1, y2), from one call on 25 points.

    The points are the centre, the offsets +-h and +-2h on each axis, and the
    4x4 grid of both axis offsets.  Returns ``(f, f1, f2, f11, f12, f22)``:
    f11 and f22 by the five-point fourth-order stencil, f12 by the fourth-order
    first-derivative stencil in y1 of the one in y2.
    """
    s, z = _steps(h), np.zeros(4)
    d1 = np.concatenate([[0.0], s, z, np.repeat(s, 4)])
    d2 = np.concatenate([[0.0], z, s, np.tile(s, 4)])
    F = _at_offsets(f2, y1, y2, d1, d2)
    # a copy, so a returned value does not keep all 25 points alive
    f0, a, b = F[..., 0].copy(), F[..., 1:5], F[..., 5:9]
    mixed = F[..., 9:].reshape(F.shape[:-1] + (4, 4))

    def d2_axis(G):
        return (
            -G[..., 0] + 16.0 * G[..., 1] - 30.0 * f0 + 16.0 * G[..., 2] - G[..., 3]
        ) / (12.0 * h * h)

    return f0, _d1(a, h), _d1(b, h), d2_axis(a), _d1(_d1(mixed, h), h), d2_axis(b)
