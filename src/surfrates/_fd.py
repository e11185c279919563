"""Central finite-difference stencils used by the evaluation backends.

The time stencil ``c4_d1`` takes a callable of a single real argument and
differentiates it at ``x``.

The other stencils call their callable once for all their points: every
argument is an array of the broadcast coordinate shape with the stencil
offsets on one extra trailing axis (component axes first, broadcast axes
last).  ``c4_grad`` and ``c4_hess`` take ``f2(a, b)`` of two chart
coordinates; ``c2_c4_dt_grad`` takes ``f3(t, a, b)``, and ``t`` carries the
same trailing stencil axis as the coordinates, so the value, the time
derivative and both partials come from one call on 11 points.  The callable
must either broadcast over that axis, returning its component axes followed
by exactly those coordinate axes, or fail loudly: raise, or return an array
whose trailing axes are not the coordinate shape.  Such a pointwise-only
callable is then evaluated offset by offset, which is the only per-offset
path.  Stencil arithmetic is elementwise and combines the offsets in the
order of the one-dimensional formulas.
"""
from __future__ import annotations

import numpy as np

__all__ = ["c4_d1", "c4_grad", "c4_hess", "c2_c4_dt_grad"]


def _at_time(fn, t):
    """fn(t, a, b) as a closure of the chart coordinates.  An array t gains a
    unit axis for each axis that the broadcast coordinates carry after the
    event's own axes (the stencil axes)."""

    def at(a, b):
        if np.ndim(t) == 0:
            return fn(t, a, b)
        extra = max(np.ndim(a), np.ndim(b)) - np.ndim(t)
        return fn(np.reshape(t, np.shape(t) + (1,) * extra), a, b)

    return at


def c4_d1(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def _at_offsets(f, coords, offsets):
    """``f(*(c + d[k] for c, d in zip(coords, offsets)))`` for every k, with k
    on a trailing axis."""
    args = np.broadcast_arrays(
        *(np.asarray(c, dtype=float)[..., None] + d for c, d in zip(coords, offsets))
    )
    shape = args[0].shape
    try:
        out = np.asarray(f(*args))
    except (ValueError, TypeError, IndexError):
        out = None
    if out is None or out.shape[max(out.ndim - len(shape), 0) :] != shape:
        return _per_offset(f, *args)
    return out


def _per_offset(f, *args):
    """The fallback for a callable that does not broadcast: one call per
    offset (``[()]`` hands a scalar, not a 0-d array, to pointwise code)."""
    return np.stack(
        [np.asarray(f(*(x[..., k][()] for x in args))) for k in range(args[0].shape[-1])],
        axis=-1,
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
    F = _at_offsets(f2, (y1, y2), (np.concatenate([s, z]), np.concatenate([z, s])))
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
    F = _at_offsets(f2, (y1, y2), (d1, d2))
    # a copy, so a returned value does not keep all 25 points alive
    f0, a, b = F[..., 0].copy(), F[..., 1:5], F[..., 5:9]
    mixed = F[..., 9:].reshape(F.shape[:-1] + (4, 4))

    def d2_axis(G):
        return (
            -G[..., 0] + 16.0 * G[..., 1] - 30.0 * f0 + 16.0 * G[..., 2] - G[..., 3]
        ) / (12.0 * h * h)

    return f0, _d1(a, h), _d1(b, h), d2_axis(a), _d1(_d1(mixed, h), h), d2_axis(b)


def c2_c4_dt_grad(f3, t, y1, y2, ht, h):
    """Value, second-order central time derivative (step ``ht``) and both
    fourth-order central partials (step ``h``) of a callable of time and two
    chart coordinates at (t, y1, y2), from one call on 11 points.

    The points are the centre, t +- ht, and the 8 axis offsets of
    ``c4_grad``.  Returns ``(f, ft, f1, f2)``.
    """
    s, z = _steps(h), np.zeros(4)
    F = _at_offsets(
        f3,
        (t, y1, y2),
        (
            np.array([0.0, ht, -ht, *z, *z]),
            np.concatenate([[0.0, 0.0, 0.0], s, z]),
            np.concatenate([[0.0, 0.0, 0.0], z, s]),
        ),
    )
    # a copy, so the returned value does not keep all 11 points alive
    ft = (F[..., 1] - F[..., 2]) / (2.0 * ht)
    return F[..., 0].copy(), ft, _d1(F[..., 3:7], h), _d1(F[..., 7:], h)
