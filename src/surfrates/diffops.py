"""Surface differential operators: gradients and Laplacians at events and
on periodic grids.

Laplacians at an event (or at a batch of events, whose results stack on the
event's trailing axes) come in two independent flavors:

* ``Beltrami`` (and the conforming ``Projected``): apply the scalar
  Laplace-Beltrami stencil (``c4_hess``, 25 points) to every Cartesian proxy
  component, read from ``eval``;
* ``Decomposed`` (and the conforming ``ClosedForm``): assemble the same
  object from the split blocks and curvature couplings.  Like the time
  derivatives, this is "compute parts, then apply the formula": the value,
  covariant derivative and Bochner Laplacian of every block, scalar blocks
  included, come from two covariant sweeps (``_sweep_parts``) of one
  ``split_eval`` call at the sweep's points and one on their 8 axis
  offsets, packed by ``_fd._each``.  Both sweeps and the Beltrami
  stencil take their covariant derivatives from
  ``geometry._covariant_derivative``.

The grid Laplacian uses the divergence form with matched central differences,
which makes it exactly self-adjoint against the quadrature weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fd import _each, c4_grad, c4_hess
from .chart_kernel import Event, MovingSurface
from .errors import ConfigError, RankError, StencilError, _require_counts
from .fields import (
    _Q_BLOCKS,
    _SPLIT_BLOCKS,
    QSplit,
    TensorSplit,
    _conforming_blocks,
    _require_conforming,
    reconstruct,
)
from .geometry import (
    GeometrySample,
    _contract_metric,
    _covariant_derivative,
    geometry_at,
    geometry_from_jet,
)
from .timederiv import FieldClosure
from .util import _scaled_norm

__all__ = [
    "scalar_laplace",
    "surface_laplace",
    "conforming_laplace",
    "GridGeometry",
    "make_grid",
    "grid_gradient",
    "grid_laplace",
    "FourierInterpolant",
]

# the fewest grid nodes per axis that the wide stencils of the grid operators take
_MIN_NODES = 16


# ---------------------------------------------------------------------------
# operators at events


def scalar_laplace(
    surface: MovingSurface, f: Callable, event: Event, geom: GeometrySample | None = None
):
    """Laplace-Beltrami g^{kl} (d_k d_l f - Gamma^m_{kl} d_m f) of a chart
    closure; elementwise on array values."""
    if geom is None:
        geom = geometry_at(surface, event)
    _, f1, f2, f11, f12, f22 = c4_hess(f, event.t, event.y1, event.y2, surface.space_step)
    hess = np.stack([np.stack([f11, f12]), np.stack([f12, f22])])
    full = _covariant_derivative(geom, np.stack([f1, f2]), hess, 0, 1)
    return np.einsum("kl...,kl...->...", geom.ginv, full)


def _sweep_parts(
    surface: MovingSurface, closure: FieldClosure, blocks: dict, event: Event, geom: GeometrySample
) -> dict[str, tuple]:
    """(value, covariant derivative T, Bochner Laplacian g^{kl} T_{|kl}) by
    name of each block of the closure's split, whose layout the route reads
    as ``blocks`` (name: tangential rank; ``closure.require_split``), at an
    event, from two covariant sweeps: the blocks, then their T, each
    differenced by one ``c4_grad`` call (``_fd._each``).  T carries its new
    lower index after the block's own indices.  ``split_eval`` is called 4
    times in all."""
    fn = closure.require_split(blocks)
    h = surface.space_step

    def arrays(s, a, b):
        split = fn(s, a, b)
        return [getattr(split, n) for n in blocks]

    def covariant(vals, s, a, b, g):
        d1, d2 = _each(c4_grad, arrays, s, a, b, h)
        return [
            _covariant_derivative(g, v, np.stack([x, y], axis=k), k)
            for k, v, x, y in zip(blocks.values(), vals, d1, d2)
        ]

    def T_of(s, a, b):
        return covariant(arrays(s, a, b), s, a, b, geometry_from_jet(surface.jet(s, a, b)))

    t, y1, y2 = event.t, event.y1, event.y2
    vals = arrays(t, y1, y2)
    Ts = covariant(vals, t, y1, y2, geom)
    d1, d2 = _each(c4_grad, T_of, t, y1, y2, h)
    out = {}
    for (n, k), v, T, x, y in zip(blocks.items(), vals, Ts, d1, d2):
        c = "ij"[:k]
        full = _covariant_derivative(geom, T, np.stack([x, y], axis=k + 1), k, 1)
        out[n] = (v, T, np.einsum(f"kl...,{c}kl...->{c}...", geom.ginv, full))
    return out


def _curvature_squares(geom: GeometrySample):
    """B^2 (mixed), tr B^2, B^2 g^-1 (contravariant) and g B^2 (covariant)
    of the shape operator B."""
    B2 = np.einsum("ik...,kj...->ij...", geom.B_mixed, geom.B_mixed)
    trB2 = np.einsum("ii...->...", B2)
    B2c = np.einsum("ik...,kj...->ij...", B2, geom.ginv)
    return B2, trB2, B2c, np.einsum("ik...,kj...->ij...", geom.g, B2)


def _grad_H_cov(surface: MovingSurface, event: Event) -> np.ndarray:
    def H_of(s, a, b):
        return geometry_from_jet(surface.jet(s, a, b)).H

    return np.stack(c4_grad(H_of, event.t, event.y1, event.y2, surface.space_step))


def surface_laplace(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    path: str = "Beltrami",
    geom: GeometrySample | None = None,
) -> np.ndarray:
    """Componentwise surface Laplacian of a field proxy, as its Cartesian proxy.

    Beltrami applies the scalar operator to each Cartesian component;
    Decomposed rebuilds it from split blocks and curvature terms (rank 2).
    """
    if geom is None:
        geom = geometry_at(surface, event)
    if path == "Beltrami":
        return scalar_laplace(surface, closure.eval, event, geom)
    if path != "Decomposed":
        raise ConfigError(f"unknown surface_laplace path {path!r}")
    if closure.rank != 2:
        raise RankError("the Decomposed Laplacian path applies to rank-2 fields")

    p = _sweep_parts(surface, closure, _SPLIT_BLOCKS[2], event, geom)
    (r, Dr, lap_r), (eL, DeL, lap_eL) = p["r2"], p["etaL2"]
    (eR, DeR, lap_eR), (phi, dphi_cov, lap_phi) = p["etaR2"], p["phi"]
    dH_cov = _grad_H_cov(surface, event)
    gradH_up = _contract_metric(geom.ginv, dH_cov, 1)
    gradphi_up = _contract_metric(geom.ginv, dphi_cov, 1)

    B = geom.B_mixed
    B2, trB2, B2c, B2_cov = _curvature_squares(geom)
    IIupup = _contract_metric(geom.ginv, geom.II, 2)

    tangential = (
        lap_r
        - (np.einsum("ik...,kj...->ij...", B2, r) + np.einsum("ik...,jk...->ij...", r, B2))
        - 2.0
        * (
            np.einsum("ik...,kj...->ij...", DeL, IIupup)
            + np.einsum("ik...,jk...->ij...", IIupup, DeR)
        )
        - (np.einsum("k...,l...->kl...", eL, gradH_up) + np.einsum("k...,l...->kl...", gradH_up, eR))
        + 2.0 * phi * B2c
    )
    left = (
        2.0 * np.einsum("lmj...,jm...->l...", Dr, B)
        + np.einsum("lm...,m...->l...", r, dH_cov)
        + lap_eL
        - trB2 * eL
        - np.einsum("lm...,m...->l...", B2, eL + 2.0 * eR)
        - 2.0 * np.einsum("lm...,m...->l...", B, gradphi_up)
        - phi * gradH_up
    )
    right = (
        2.0 * np.einsum("lmj...,jl...->m...", Dr, B)
        + np.einsum("l...,lm...->m...", dH_cov, r)
        + lap_eR
        - trB2 * eR
        - np.einsum("lm...,m...->l...", B2, eR + 2.0 * eL)
        - 2.0 * np.einsum("lm...,m...->l...", B, gradphi_up)
        - phi * gradH_up
    )
    nunu = (
        2.0 * np.einsum("ij...,ij...->...", B2_cov, r)
        + 2.0 * (np.einsum("ij...,ji...->...", DeL, B) + np.einsum("ij...,ji...->...", DeR, B))
        + np.einsum("i...,i...->...", eL + eR, dH_cov)
        + lap_phi
        - 2.0 * phi * trB2
    )

    split = TensorSplit(rank=2, r2=tangential, phi=nunu, etaL2=left, etaR2=right)
    return reconstruct(geom, split)


def conforming_laplace(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    path: str = "ClosedForm",
    geom: GeometrySample | None = None,
) -> QSplit:
    """Conforming Laplacian of a conforming Q-tensor field (``q_field``).

    ClosedForm uses the curvature-coupled expression in the (q, beta) blocks;
    Projected applies the mixed-block-killing projection to the full
    componentwise Laplacian, with the projection code the conforming flow
    uses (``fields._conforming_blocks``).  Both return the result's Q-split.
    """
    if geom is None:
        geom = geometry_at(surface, event)
    _require_conforming(closure.require_split(_Q_BLOCKS)(event.t, event.y1, event.y2))

    if path == "ClosedForm":
        p = _sweep_parts(surface, closure, _Q_BLOCKS, event, geom)
        (q, _, lap_q), (beta, _, lap_beta) = p["q2"], p["beta"]
        _, trB2, B2c, B2_cov = _curvature_squares(geom)
        piQ_B2 = B2c - 0.5 * trB2 * geom.ginv
        qblock = lap_q - trB2 * q + 3.0 * beta * piQ_B2
        bblock = lap_beta + 2.0 * np.einsum("ij...,ij...->...", B2_cov, q) - 3.0 * beta * trB2
    elif path == "Projected":
        full = scalar_laplace(surface, closure.eval, event, geom)
        qblock, bblock = _conforming_blocks(geom, full)
    else:
        raise ConfigError(f"unknown conforming_laplace path {path!r}")
    return QSplit(q2=qblock, eta2=np.zeros_like(qblock[0]), beta=bblock)


def _conforming_route_residual(
    surface: MovingSurface, closure: FieldClosure, event: Event, geom: GeometrySample | None = None
) -> np.ndarray:
    """Residual max(|dq2|, |dbeta|) / max(1, |q2|, |beta|) between the
    ClosedForm and Projected conforming Laplacians, with |.| the largest
    component, at each point of the event: an array of the event's shape."""
    if geom is None:
        geom = geometry_at(surface, event)
    cf = conforming_laplace(surface, closure, event, "ClosedForm", geom)
    cp = conforming_laplace(surface, closure, event, "Projected", geom)
    nb = np.ndim(cf.beta)
    return np.maximum(
        _scaled_norm(cf.q2 - cp.q2, cf.q2, cf.beta, nb=nb, fro=False),
        _scaled_norm(cf.beta - cp.beta, cf.q2, cf.beta, nb=nb, fro=False),
    )


# ---------------------------------------------------------------------------
# periodic grids


@dataclass
class GridGeometry:
    """A periodic grid at time t: its points are the cell-centred axes y1 and
    y2, which consumers broadcast as y1[:, None] and y2[None, :]."""
    surface: MovingSurface
    t: float
    n1: int
    n2: int
    y1: np.ndarray
    y2: np.ndarray
    h1: float
    h2: float
    geom: GeometrySample
    weights: np.ndarray


def make_grid(surface: MovingSurface, t: float, n1: int, n2: int | None = None) -> GridGeometry:
    """The n1 x n2 cell-centred grid at time t (n2 = n1 if None).  The chart
    jet gets the axes y1[:, None] and y2[None, :], so per-axis closures (the
    torus jets) take their factors on n1 + n2 values."""
    if n2 is None:
        n2 = n1
    _require_counts(n1=n1, n2=n2)
    dom = surface.domain
    if not (dom.periodic1 and dom.periodic2):
        raise ConfigError("grids require a doubly periodic chart domain")
    if min(n1, n2) < _MIN_NODES:
        raise StencilError(f"grid resolution below {_MIN_NODES} nodes per axis")
    a1, b1 = dom.y1_range
    a2, b2 = dom.y2_range
    h1 = (b1 - a1) / n1
    h2 = (b2 - a2) / n2
    y1 = a1 + (np.arange(n1) + 0.5) * h1
    y2 = a2 + (np.arange(n2) + 0.5) * h2
    geom = geometry_from_jet(surface.jet(t, y1[:, None], y2[None, :]))
    weights = geom.sqrtdetg * h1 * h2
    return GridGeometry(
        surface=surface, t=t, n1=n1, n2=n2, y1=y1, y2=y2, h1=h1, h2=h2, geom=geom, weights=weights,
    )


def _central_d(F: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(F[i+1] - F[i-1]) / 2h along the periodic axis -2 or -1, with the
    bits of the two-roll form, into ``out`` (a new array if None; a given
    one must be C-ordered).  The interior is one subtraction on the flat
    C-ordered buffer, shifted by the axis stride (n2 or 1); then the two
    periodic ends overwrite the values that crossed a row or component
    boundary.  The input is read as a C-ordered array, which copies only a
    non-contiguous one."""
    F = np.ascontiguousarray(F)
    if out is None:
        out = np.empty(F.shape, np.result_type(F, 1.0))
    # a reshape of a non-contiguous out would copy, and the writes be lost
    assert out.flags.c_contiguous and out.shape == F.shape
    s = F.shape[-1] if axis == -2 else 1
    f, d = F.reshape(-1), out.reshape(-1)
    np.subtract(f[2 * s:], f[: -2 * s], out=d[s:-s])
    # index tuples, not moveaxis, whose cost counts on small planes
    tail = (slice(None),) * (-1 - axis)
    np.subtract(F[(..., 1) + tail], F[(..., -1) + tail], out=out[(..., 0) + tail])
    np.subtract(F[(..., 0) + tail], F[(..., -2) + tail], out=out[(..., -1) + tail])
    out /= 2.0 * h
    return out


def grid_gradient(gg: GridGeometry, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart partial derivatives (central, periodic) along both grid axes."""
    return _central_d(F, -2, gg.h1), _central_d(F, -1, gg.h2)


def grid_laplace(gg: GridGeometry, F: np.ndarray, grad=None) -> np.ndarray:
    """Divergence-form Laplace-Beltrami on the periodic grid, elementwise in
    any leading component axes.  Exactly self-adjoint and negative
    semidefinite against the sqrt(det g) cell weights.  ``grad`` is
    ``grid_gradient(gg, F)`` if the caller has already taken it; it reads
    only ``ginv`` and ``sqrtdetg`` of the grid's geometry.

    The chain sq (g^{i1} d1 + g^{i2} d2), its two central differences, their
    sum and the division by sq runs one component plane at a time, in four
    plane-sized scratch buffers that stay in cache, and writes each plane of
    the result once; every operation is that of the whole-array form, so the
    values keep its bits."""
    d1, d2 = grid_gradient(gg, F) if grad is None else grad
    ginv = gg.geom.ginv
    sq = gg.geom.sqrtdetg
    (g11, g12), (g21, g22) = ginv
    dtype = np.result_type(d1, d2, ginv, sq)
    out = np.empty(d1.shape, dtype)
    F1, F2, D1, D2 = (np.empty(d1.shape[-2:], dtype) for _ in range(4))
    for c in np.ndindex(d1.shape[:-2]):
        np.multiply(g11, d1[c], out=F1)
        np.add(F1, np.multiply(g12, d2[c], out=D1), out=F1)
        np.multiply(sq, F1, out=F1)
        np.multiply(g21, d1[c], out=F2)
        np.add(F2, np.multiply(g22, d2[c], out=D2), out=F2)
        np.multiply(sq, F2, out=F2)
        plane = out[c]
        np.add(_central_d(F1, -2, gg.h1, D1), _central_d(F2, -1, gg.h2, D2), out=plane)
        plane /= sq
    return out


class FourierInterpolant:
    """Trigonometric interpolant of periodic grid data.

    Nyquist modes are zeroed, which leaves one real interpolant off the grid;
    for smooth fields those coefficients are negligible anyway.  A call
    broadcasts over coordinate arrays: the result has the component axes of
    the grid data first, then the broadcast shape of ``y1`` and ``y2``.
    """

    def __init__(self, gg: GridGeometry, F: np.ndarray):
        F = np.asarray(F, dtype=float)
        self.coef = np.fft.fft2(F, axes=(-2, -1)) / (gg.n1 * gg.n2)
        self.k1 = np.fft.fftfreq(gg.n1, d=1.0 / gg.n1)
        self.k2 = np.fft.fftfreq(gg.n2, d=1.0 / gg.n2)
        if gg.n1 % 2 == 0:
            self.coef[..., gg.n1 // 2, :] = 0.0
        if gg.n2 % 2 == 0:
            self.coef[..., :, gg.n2 // 2] = 0.0
        dom = gg.surface.domain
        self.x0 = gg.y1[0]
        self.y0 = gg.y2[0]
        self.kap1 = 2.0 * np.pi / dom.spans[0]
        self.kap2 = 2.0 * np.pi / dom.spans[1]

    def __call__(self, y1, y2):
        w1 = np.exp(1j * self.k1 * self.kap1 * (np.asarray(y1, float)[..., None] - self.x0))
        w2 = np.exp(1j * self.k2 * self.kap2 * (np.asarray(y2, float)[..., None] - self.y0))
        coef = self.coef.reshape((-1,) + self.coef.shape[-2:])
        out = np.real(np.einsum("ckl,...k,...l->c...", coef, w1, w2))
        return out.reshape(self.coef.shape[:-2] + out.shape[1:])
