"""Central finite-difference stencils used by the evaluation backends.

Every stencil takes ``f3(t, y1, y2)`` of time and two chart coordinates and
calls it once for all its points: each argument is an array of the
broadcast coordinate shape with the stencil offsets on one extra trailing
axis (component axes first, broadcast axes last), and a coordinate that the
stencil does not difference carries zero offsets.  ``c4_dt`` differences t
(4 points), ``c4_grad`` both chart coordinates (8 points), ``c4_hess``
takes their second partials too (25 points), and ``c2_c4_dt_grad`` takes
the value, the time derivative and both partials (11 points).  Stencils
nest: a closure may itself call a stencil on the coordinates it is given,
and the innermost call then sees the offsets of both on two trailing axes.
The callable must either broadcast over that axis, returning its component
axes followed by exactly those coordinate axes, or fail loudly: raise, or
return an array whose trailing axes are not the coordinate shape.  Such a
pointwise-only callable is then evaluated offset by offset, which is the
only per-offset path.  Stencil arithmetic is elementwise and combines the
offsets in the order of the one-dimensional formulas.  ``_each`` puts
several arrays through one stencil call, holding each array to that
contract.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["c4_dt", "c4_grad", "c4_hess", "c2_c4_dt_grad"]


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


def _each(stencil, f3, t, y1, y2, *steps):
    """``stencil`` of each array in the list that ``f3(t, y1, y2)`` returns,
    from one call of ``f3`` on the stencil's points; each output comes back
    as a list in ``f3``'s order.  An array's component shape is its axes in
    front of the coordinate shape; one whose trailing axes are not the
    coordinate shape raises ValueError, so the stencil evaluates ``f3``
    offset by offset, as it does for a single array."""
    comps = []

    def packed(s, a, b):
        shape = np.shape(s)
        vals = [np.asarray(x) for x in f3(s, a, b)]
        if any(x.shape[max(x.ndim - len(shape), 0) :] != shape for x in vals):
            raise ValueError("an array's trailing axes are not the coordinate shape")
        comps[:] = [x.shape[: x.ndim - len(shape)] for x in vals]
        return np.concatenate([x.reshape((math.prod(c),) + shape) for x, c in zip(vals, comps)])

    def unpack(F):
        bounds = np.cumsum([math.prod(c) for c in comps])[:-1]
        return [x.reshape(c + x.shape[1:]) for x, c in zip(np.split(F, bounds), comps)]

    out = stencil(packed, t, y1, y2, *steps)
    return tuple(map(unpack, out)) if isinstance(out, tuple) else unpack(out)


def _d1(F, h):
    """Fourth-order first derivative from values at x+2h, x+h, x-h, x-2h (last axis)."""
    return (-F[..., 0] + 8.0 * F[..., 1] - 8.0 * F[..., 2] + F[..., 3]) / (12.0 * h)


def _steps(h):
    return np.array([2 * h, h, -h, -2 * h])


def c4_dt(f3, t, y1, y2, ht):
    """Fourth-order central time derivative (step ``ht``) at (t, y1, y2), from
    one call on t +- ht and t +- 2 ht."""
    z = np.zeros(4)
    return _d1(_at_offsets(f3, (t, y1, y2), (_steps(ht), z, z)), ht)


def c4_grad(f3, t, y1, y2, h):
    """Both fourth-order central partials (d/dy1, d/dy2) at (t, y1, y2), from
    one call on the 8 axis offsets."""
    s, z = _steps(h), np.zeros(4)
    F = _at_offsets(f3, (t, y1, y2), (np.zeros(8), np.concatenate([s, z]), np.concatenate([z, s])))
    return _d1(F[..., :4], h), _d1(F[..., 4:], h)


def c4_hess(f3, t, y1, y2, h):
    """Value, both partials and the three second partials in the chart
    coordinates at (t, y1, y2), from one call on 25 points.

    The points are the centre, the offsets +-h and +-2h on each axis, and the
    4x4 grid of both axis offsets.  Returns ``(f, f1, f2, f11, f12, f22)``:
    f11 and f22 by the five-point fourth-order stencil, f12 by the fourth-order
    first-derivative stencil in y1 of the one in y2.
    """
    s, z = _steps(h), np.zeros(4)
    d1 = np.concatenate([[0.0], s, z, np.repeat(s, 4)])
    d2 = np.concatenate([[0.0], z, s, np.tile(s, 4)])
    F = _at_offsets(f3, (t, y1, y2), (np.zeros(25), d1, d2))
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
    fourth-order central partials (step ``h``) at (t, y1, y2), from one call
    on 11 points.

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
