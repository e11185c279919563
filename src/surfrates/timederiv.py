"""Observer-invariant time derivatives of fields on a moving surface.

Every derivative is available through at least two independent computation
routes so results can be cross-checked:

* ``CartesianProxy`` / ``ViaMaterial``: advect the Cartesian proxy
  componentwise, then add the velocity-gradient coupling terms as plain
  3x3 matrix products.
* ``Decomposed``: work on the tangential/normal split components with
  chart-level stencils; the lower-convected route differences the covariant
  proxy directly so it never reuses the upper-convected algebra.

Tangential component operators use contravariant matrices M = (r^{ij}) and
mixed velocity-gradient matrices G = (G^i_j); in that pairing the convected
forms read M' - G M - M G^T (upper) and M' + adj(G) M + M adj(G)^T (lower),
with adj(G) = g^{-1} G^T g.

Every covariant derivative is ``geometry._covariant_derivative``, for upper
and lower indices alike.  Every formula broadcasts over trailing axes, so the
flows apply them to whole grids, and every route takes an ``Event`` whose
coordinates are arrays of one shape: the result carries that shape after its
component axes, as the pointwise results stacked on trailing axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from ._fd import _each, c2_c4_dt_grad
from .chart_kernel import Event, MovingSurface, _require_event_inside
from .errors import ConfigError, MissingSplitError, RankError
from .fields import (
    _Q_BLOCKS,
    _SPLIT_BLOCKS,
    QSplit,
    TensorSplit,
    _require_conforming,
    pi_q_components,
    q_to_cart,
    reconstruct,
)
from .geometry import (
    GeometrySample,
    MotionSample,
    _contract_metric,
    _covariant_derivative,
    _frame,
    _metric,
    geometry_from_jet,
)

__all__ = [
    "DerivKind",
    "FieldClosure",
    "q_field",
    "scalar_dot",
    "tangential_dt",
    "material_dt",
    "convected_dt",
    "q_dt",
]

DT_TIME_STEP = 1e-4


class DerivKind(str, Enum):
    Material = "Material"
    Upper = "Upper"
    Lower = "Lower"
    Jaumann = "Jaumann"
    ConformingMaterial = "ConformingMaterial"


@dataclass
class FieldClosure:
    """A field given by its Cartesian proxy ``eval`` and its blocks
    ``split_eval``, closures (t, y1, y2) -> array and -> split.

    rank 0: scalar; rank 1: shape (3,); rank 2: shape (3, 3); component axes
    are followed by the broadcast shape of the coordinates.  ``layout`` is
    the ``fields`` table of the blocks (name: tangential rank) that
    split_eval returns: by default the TensorSplit of the rank
    (``_SPLIT_BLOCKS``); a Q-tensor field (``q_field``) has the QSplit's
    ``_Q_BLOCKS``, a tangential field ``{"r2": rank}``.  Stencils call the
    closures once with arrays that carry a trailing stencil axis, on t as on
    y1 and y2 (the space-time stencil: one call on 11 points): a closure
    broadcasts over it or fails loudly (raises, or returns other trailing
    axes), and a closure that fails is evaluated offset by offset instead,
    so pointwise-only closures still work.  split_eval, if given, must agree
    with eval to 1e-8 after reconstruction.  The proxy routes read eval and
    the Decomposed routes split_eval; no value computed from one is shared
    with the other.
    """

    rank: int
    eval: Callable
    split_eval: Callable | None = None
    layout: dict | None = None

    def __post_init__(self):
        if self.layout is None:
            self.layout = _SPLIT_BLOCKS.get(self.rank)

    def require_split(self, layout: dict) -> Callable:
        """split_eval, for a route that reads the blocks of ``layout``."""
        if self.split_eval is None or self.layout != layout:
            raise MissingSplitError(
                f"this computation path needs split_eval with the blocks {list(layout)}"
            )
        return self.split_eval


def _from_blocks(surface: MovingSurface, rank: int, split_eval, layout, to_proxy=reconstruct):
    """The closure of the blocks ``split_eval`` returns in ``layout``, whose
    proxy is ``to_proxy`` of them at one chart jet."""

    def _eval(t, y1, y2):
        return to_proxy(geometry_from_jet(surface.jet(t, y1, y2)), split_eval(t, y1, y2))

    return FieldClosure(rank, _eval, split_eval, layout)


def q_field(surface: MovingSurface, q_eval: Callable) -> FieldClosure:
    """The Q-tensor field of the QSplit closure ``q_eval(t, y1, y2)``; its
    proxy is the QSplit's ``q_to_cart`` at one chart jet."""
    return _from_blocks(surface, 2, q_eval, _Q_BLOCKS, q_to_cart)


# ---------------------------------------------------------------------------
# parts: value, time partial and spatial partials from one stencil call
#
# Each route below is "compute parts, then apply the formula".  A proxy-side
# part comes from the Cartesian closure ``eval``, a Decomposed-side part from
# ``split_eval``, block by block as the closure's ``fields`` layout lays them
# out; no value ever passes between the two sides, so every comparison of a
# proxy route with a Decomposed route compares two independent computations.


class _Parts(NamedTuple):
    """Value, time partial and spatial partials of one array; the partial
    index of ``dv`` follows the component axes, before any broadcast axes."""

    v: np.ndarray
    vt: np.ndarray
    dv: np.ndarray


class _Block(NamedTuple):
    """Parts of one split block of the given rank in contravariant components
    and, if asked for, of its covariant proxy g r (rank 1) or g r g (rank 2)."""

    rank: int
    p: _Parts
    w: _Parts | None = None


def _split_parts(
    surface: MovingSurface, closure: FieldClosure, blocks: dict, event: Event, lowered: bool = False
) -> dict[str, _Block]:
    """_Block of every block of the closure's split, by name, from one
    space-time stencil call on 11 points (``_fd._each``).  ``blocks`` is the
    layout from ``fields`` that the route reads (``closure.require_split``):
    ``_SPLIT_BLOCKS[rank]``, ``_Q_BLOCKS`` or ``{"r2": rank}``.  With
    ``lowered``, each tangential block's covariant proxy is formed at those
    points from one chart jet and differenced in the same call."""
    fn = closure.require_split(blocks)
    ranks = list(blocks.values())
    every = ranks + [k for k in ranks if k and lowered]

    def arrays(s, a, b):
        split = fn(s, a, b)
        vals = [getattr(split, n) for n in blocks]
        if lowered:
            g = _metric(surface.jet(s, a, b).dX)
            vals += [_contract_metric(g, x, k) for x, k in zip(vals, ranks) if k]
        return vals

    F = _each(c2_c4_dt_grad, arrays, event.t, event.y1, event.y2, DT_TIME_STEP, surface.space_step)
    parts = [_Parts(v, vt, np.stack([d1, d2], axis=k)) for k, v, vt, d1, d2 in zip(every, *F)]
    covs = iter(parts[len(ranks) :])
    out = [_Block(k, p, next(covs) if lowered and k else None) for k, p in zip(ranks, parts)]
    return dict(zip(blocks, out))


def _advected_parts(surface: MovingSurface, fun: Callable, event: Event):
    """Value and material rate d/dt + u^k d_k of a chart-function proxy, at
    an event inside the domain."""
    _require_event_inside(surface, event)
    t, y1, y2 = event.t, event.y1, event.y2
    v, dt, d1, d2 = c2_c4_dt_grad(fun, t, y1, y2, DT_TIME_STEP, surface.space_step)
    u = surface.u(t, y1, y2)
    return v, dt + u[0] * d1 + u[1] * d2


def _along(u2, rank: int, dv):
    """u^k d_k: partials dv (index k at axis ``rank``) contracted with u2."""
    c = "ij"[:rank]
    return np.einsum(f"k...,{c}k...->{c}...", u2, dv)


def _advected(p: _Parts, u2, rank: int = 0):
    """Material rate v_t + u^k d_k v of each component of a block."""
    return p.vt + _along(u2, rank, p.dv)


# ---------------------------------------------------------------------------
# scalar material rate


def scalar_dot(surface: MovingSurface, f: Callable, event: Event):
    """Material time derivative of a scalar field given as a chart closure."""
    return _advected_parts(surface, f, event)[1]


# ---------------------------------------------------------------------------
# tangential component operators


def _couple(op, x, M, v, rank: int):
    """op(x, M v) for a vector block v, op(op(x, M v), v M^T) for a matrix."""
    x = op(x, np.einsum("ik...,k...->i..." if rank == 1 else "ik...,kj...->ij...", M, v))
    return op(x, np.einsum("ik...,jk...->ij...", v, M)) if rank == 2 else x


def _transported(geom, mot, rank: int, p: _Parts, M):
    """v_t + u^k v_{|k} + M v (+ v M^T) in contravariant components: the
    tangential material derivative for M = G_obs, the upper-convected one for
    M = -Du."""
    cov = _covariant_derivative(geom, p.v, p.dv, rank)
    return _couple(np.add, p.vt + _along(mot.u2, rank, cov), M, p.v, rank)


def _lower_covariant(geom, mot, rank: int, w: _Parts):
    """Lower-convected derivative w_t + u^k w_{..|k} + Du^T w (+ w Du) of the
    covariant proxy w, raised at the end.

    Independent route: differences g r g (or g r) in time directly and uses
    covariant-component covariant derivatives in space.
    """
    cov = _covariant_derivative(geom, w.v, w.dv, 0, rank)
    DuT = np.einsum("ij...->ji...", mot.Du)
    L = _couple(np.add, w.vt + _along(mot.u2, rank, cov), DuT, w.v, rank)
    return _contract_metric(geom.ginv, L, rank)


def _tangential(geom, mot, block: _Block, kind: DerivKind, path: str = "Decomposed"):
    """tangential_dt's formula for one block; Lower and Average read block.w."""
    rank, p = block.rank, block.p
    if kind == DerivKind.Material:
        return _transported(geom, mot, rank, p, mot.G_obs)
    if path == "Average":
        up = _tangential(geom, mot, block, DerivKind.Upper)
        lo = _tangential(geom, mot, block, DerivKind.Lower)
        return 0.5 * (up + lo)
    if kind == DerivKind.Upper:
        # direct form: raw rates plus advection minus relative-velocity gradient;
        # never touches the material velocity gradient G, which the Jaumann
        # branch below and convected_dt's ViaMaterial path use
        return _transported(geom, mot, rank, p, -mot.Du)
    if kind == DerivKind.Lower:
        return _lower_covariant(geom, mot, rank, block.w)
    return _couple(np.subtract, _transported(geom, mot, rank, p, mot.G_obs), mot.A, p.v, rank)


def _check_path(kind: DerivKind, path: str, func: str) -> bool:
    """ConfigError for a path that ``kind`` lacks; whether the route reads
    the covariant proxy (Lower, and the Jaumann Average)."""
    if path == "Average" and kind != DerivKind.Jaumann:
        raise ConfigError("path 'Average' exists only for the Jaumann derivative")
    if path not in ("Decomposed", "Average"):
        raise ConfigError(f"unknown {func} path {path!r}")
    return kind == DerivKind.Lower or path == "Average"


def tangential_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    kind: DerivKind,
    path: str = "Decomposed",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> np.ndarray:
    """Tangential time derivative of a tangential field (layout
    ``{"r2": rank}``), returned in contravariant components."""
    kind = DerivKind(kind)
    if closure.rank not in (1, 2):
        raise RankError("tangential_dt supports rank 1 and 2")
    if kind == DerivKind.ConformingMaterial:
        raise ConfigError("ConformingMaterial applies to Q-tensor fields; use q_dt")
    geom, mot = _frame(surface, event, geom, mot)
    lowered = kind != DerivKind.Material and _check_path(kind, path, "tangential_dt")
    parts = _split_parts(surface, closure, {"r2": closure.rank}, event, lowered)
    return _tangential(geom, mot, parts["r2"], kind, path)


# ---------------------------------------------------------------------------
# full-field derivatives


def _material_decomposed(geom, mot, rank: int, parts: dict[str, _Block]):
    """material_dt's Decomposed formula: the derivative's split blocks, then
    ``reconstruct``.  With b# = g^-1 b: r' = r_dot - phi b#, phi' = phi_dot
    + r.b (rank 1); r' = r_dot - eL (x) b# - b# (x) eR, eL' = eL_dot + r b -
    phi b#, eR' = eR_dot + b r - phi b#, phi' = phi_dot + (eL + eR).b (rank 2)."""
    b = mot.b_cov
    bup = _contract_metric(geom.ginv, b, 1)
    r, phi = parts["r2"].p.v, parts["phi"].p.v
    rdot = _tangential(geom, mot, parts["r2"], DerivKind.Material)
    phidot = _advected(parts["phi"].p, mot.u2)
    if rank == 1:
        split = TensorSplit(
            rank=1, r2=rdot - phi * bup, phi=phidot + np.einsum("i...,i...->...", r, b)
        )
        return reconstruct(geom, split)

    eL, eR = parts["etaL2"].p.v, parts["etaR2"].p.v
    eLdot = _tangential(geom, mot, parts["etaL2"], DerivKind.Material)
    eRdot = _tangential(geom, mot, parts["etaR2"], DerivKind.Material)
    split = TensorSplit(
        rank=2,
        r2=rdot - np.einsum("i...,j...->ij...", eL, bup) - np.einsum("i...,j...->ij...", bup, eR),
        phi=phidot + np.einsum("i...,i...->...", eL + eR, b),
        etaL2=eLdot + np.einsum("ij...,j...->i...", r, b) - phi * bup,
        etaR2=eRdot + np.einsum("i...,ij...->j...", b, r) - phi * bup,
    )
    return reconstruct(geom, split)


def _via_material(mot, rank: int, kind: DerivKind, R, Dm):
    """convected_dt's ViaMaterial formula from the proxy value R and its
    material rate Dm: Dm - M R (- R M^T) with M = Gcal (Upper), -Gcal^T
    (Lower) or Acal (Jaumann; Acal^T = -Acal), and Dm itself for Material."""
    if kind == DerivKind.Material:
        return Dm
    if kind == DerivKind.Jaumann:
        M = mot.Acal
    else:
        M = mot.Gcal if kind == DerivKind.Upper else -np.einsum("ab...->ba...", mot.Gcal)
    return _couple(np.subtract, Dm, M, R, rank)


def _convected_decomposed(geom, mot, rank: int, parts, kind: DerivKind, path: str):
    """convected_dt's Decomposed and Average formulas: each tangential block
    by the matching tangential operator, the normal block advected."""
    blocks = {
        n: _tangential(geom, mot, b, kind, path) if b.rank else np.asarray(_advected(b.p, mot.u2))
        for n, b in parts.items()
    }
    return reconstruct(geom, TensorSplit(rank=rank, **blocks))


def material_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    path: str = "CartesianProxy",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> np.ndarray:
    """Material time derivative of a (rank 1 or 2) field, as its Cartesian proxy."""
    if closure.rank not in (1, 2):
        raise RankError("material_dt supports rank 1 and 2; use scalar_dot for scalars")
    if path == "CartesianProxy":
        return _advected_parts(surface, closure.eval, event)[1]

    if path != "Decomposed":
        raise ConfigError(f"unknown material_dt path {path!r}")

    geom, mot = _frame(surface, event, geom, mot)
    parts = _split_parts(surface, closure, _SPLIT_BLOCKS[closure.rank], event)
    return _material_decomposed(geom, mot, closure.rank, parts)


def convected_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    kind: DerivKind,
    path: str = "ViaMaterial",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> np.ndarray:
    """Upper-/lower-convected or Jaumann derivative of a tangential field, as
    its Cartesian proxy.

    Paths: ViaMaterial (proxy advection plus velocity-gradient products),
    Decomposed (split components, each block transported by the matching
    tangential operator), and for Jaumann also Average (the same blocks, each
    transported by the mean of the tangential upper and lower operators).
    """
    kind = DerivKind(kind)
    if kind == DerivKind.Material:
        mpath = "CartesianProxy" if path == "ViaMaterial" else path
        return material_dt(surface, closure, event, mpath, geom, mot)
    if kind == DerivKind.ConformingMaterial:
        raise ConfigError("ConformingMaterial applies to Q-tensor fields; use q_dt")
    if closure.rank not in (1, 2):
        raise RankError("convected_dt supports rank 1 and 2")
    geom, mot = _frame(surface, event, geom, mot)

    if path == "ViaMaterial":
        R, Dm = _advected_parts(surface, closure.eval, event)
        return _via_material(mot, closure.rank, kind, R, Dm)

    lowered = _check_path(kind, path, "convected_dt")
    parts = _split_parts(surface, closure, _SPLIT_BLOCKS[closure.rank], event, lowered)
    return _convected_decomposed(geom, mot, closure.rank, parts, kind, path)


# ---------------------------------------------------------------------------
# Q-tensor derivatives


def _q_formula(geom, mot, parts: dict[str, _Block], kind: DerivKind) -> QSplit:
    """q_dt's formula from the parts of the q2, eta2 and beta blocks."""
    qb, eb, bb = parts["q2"], parts["eta2"], parts["beta"]
    betadot = _advected(bb.p, mot.u2)
    if kind == DerivKind.Jaumann:
        return QSplit(
            q2=_tangential(geom, mot, qb, kind), eta2=_tangential(geom, mot, eb, kind), beta=betadot
        )
    q, eta, beta = qb.p.v, eb.p.v, bb.p.v
    qdot = _tangential(geom, mot, qb, DerivKind.Material)
    if kind == DerivKind.ConformingMaterial:
        # the conforming derivative's coupling rate is zero, so the coupling
        # block's own rate is not taken
        _require_conforming(QSplit(q2=q, eta2=eta, beta=beta))
        return QSplit(q2=qdot, eta2=np.zeros_like(eta), beta=betadot)

    etadot = _tangential(geom, mot, eb, DerivKind.Material)
    b = mot.b_cov
    bup = _contract_metric(geom.ginv, b, 1)
    qblock = qdot - 2.0 * pi_q_components(geom, np.einsum("i...,j...->ij...", eta, bup))
    eblock = etadot + np.einsum("ij...,j...->i...", q, b) - 1.5 * beta * bup
    bblock = betadot + 2.0 * np.einsum("i...,i...->...", eta, b)
    return QSplit(q2=qblock, eta2=eblock, beta=bblock)


def q_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    kind: DerivKind,
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> QSplit:
    """Material, Jaumann, or conforming-material derivative of a Q-tensor
    field (``q_field``).

    Returns the derivative's own Q-split blocks.  The upper and lower
    convected derivatives do not preserve Q-tensor structure; take them
    through convected_dt on the full proxy instead.
    """
    kind = DerivKind(kind)
    if kind in (DerivKind.Upper, DerivKind.Lower):
        raise ConfigError(
            "upper/lower convected derivatives leave the Q-tensor bundle; use convected_dt"
        )
    geom, mot = _frame(surface, event, geom, mot)
    return _q_formula(geom, mot, _split_parts(surface, closure, _Q_BLOCKS, event), kind)
