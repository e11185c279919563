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
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._fd import c2_d1, c4_grad
from .chart_kernel import Event, MovingSurface
from .errors import ConfigError, MissingSplitError, NotTangentialError, RankError
from .fields import (
    QSplit,
    TensorSplit,
    TensorValue,
    _STRUCTURE_TOL,
    _require_conforming,
    pi_q_components,
    q_split_to_split,
    q_to_cart,
    reconstruct,
    split_tensor,
)
from .geometry import (
    GeometrySample,
    MotionSample,
    _metric,
    geometry_at,
    geometry_from_jet,
    motion_at,
)

__all__ = [
    "DT_TIME_STEP",
    "DerivKind",
    "FieldClosure",
    "TangentialFieldClosure",
    "QFieldClosure",
    "scalar_dot",
    "advected_rate",
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
    """A field given by its Cartesian proxy closure (t, y1, y2) -> array.

    rank 0: scalar; rank 1: shape (3,); rank 2: shape (3, 3); component axes
    are followed by the broadcast shape of the coordinates.  Spatial stencils
    call the closures once with coordinate arrays that carry a trailing
    stencil axis: a closure broadcasts over it or fails loudly (raises, or
    returns other trailing axes), and a closure that fails is evaluated
    offset by offset instead, so pointwise-only closures still work.
    split_eval, if given, must return the matching TensorSplit and agree with
    eval to 1e-8 after reconstruction.
    """

    rank: int
    eval: Callable
    split_eval: Callable | None = None

    def require_split(self) -> Callable:
        if self.split_eval is None:
            raise MissingSplitError(
                "this computation path needs split_eval on the field closure"
            )
        return self.split_eval


@dataclass
class TangentialFieldClosure:
    """A tangential field by contravariant components: (t,y1,y2) -> (2,) or (2,2)."""

    rank: int
    comp_eval: Callable

    @staticmethod
    def from_cart(surface: MovingSurface, closure: FieldClosure) -> "TangentialFieldClosure":
        if closure.rank not in (1, 2):
            raise RankError("tangential closures have rank 1 or 2")

        def comp_eval(t, y1, y2):
            geom = geometry_from_jet(surface.jet(t, y1, y2))
            split = split_tensor(geom, closure.eval(t, y1, y2), closure.rank)
            scale = max(1.0, float(np.max(np.abs(split.r2))))
            off = [np.abs(split.phi)]
            if closure.rank == 2:
                off += [np.abs(split.etaL2), np.abs(split.etaR2)]
            if max(float(np.max(o)) for o in off) > _STRUCTURE_TOL * scale:
                raise NotTangentialError("field has a normal component")
            return split.r2

        return TangentialFieldClosure(rank=closure.rank, comp_eval=comp_eval)


@dataclass
class QFieldClosure:
    """A Q-tensor field by its split closure (t, y1, y2) -> QSplit.

    Every block carries the broadcast shape of the coordinates after its
    component axes, as for FieldClosure: stencils call ``q_eval`` with a
    trailing stencil axis, and a closure that fails loudly on it is evaluated
    offset by offset.
    """

    q_eval: Callable

    def as_field_closure(self, surface: MovingSurface) -> FieldClosure:
        def _eval(t, y1, y2):
            geom = geometry_from_jet(surface.jet(t, y1, y2))
            return q_to_cart(geom, self.q_eval(t, y1, y2))

        def _split(t, y1, y2):
            geom = geometry_from_jet(surface.jet(t, y1, y2))
            return q_split_to_split(geom, self.q_eval(t, y1, y2))

        return FieldClosure(rank=2, eval=_eval, split_eval=_split)


# ---------------------------------------------------------------------------
# scalar material rate


def advected_rate(surface: MovingSurface, fun: Callable, event: Event):
    """d/dt along material trajectories of an arbitrary chart-function proxy.

    Works elementwise, so fun may return any array shape.
    """
    t, y1, y2 = event.t, event.y1, event.y2
    h = surface.space_step
    dt = c2_d1(lambda s: fun(s, y1, y2), t, DT_TIME_STEP)
    d1, d2 = c4_grad(lambda a, b: fun(t, a, b), y1, y2, h)
    u = surface.u(t, y1, y2)
    return dt + u[0] * d1 + u[1] * d2


def scalar_dot(surface: MovingSurface, f: Callable, event: Event) -> float:
    """Material time derivative of a scalar field given as a chart closure."""
    return float(advected_rate(surface, f, event))


# ---------------------------------------------------------------------------
# tangential component operators


def _comp_parts(surface: MovingSurface, comp_eval: Callable, event: Event):
    """Value, time partial, and spatial partials (last axis) of a component closure."""
    t, y1, y2 = event.t, event.y1, event.y2
    h = surface.space_step
    v = np.asarray(comp_eval(t, y1, y2), dtype=float)
    vt = c2_d1(lambda s: comp_eval(s, y1, y2), t, DT_TIME_STEP)
    dv = np.stack(c4_grad(lambda a, b: comp_eval(t, a, b), y1, y2, h), axis=-1)
    return v, np.asarray(vt, dtype=float), dv


def _covariant_derivative(geom: GeometrySample, rank: int, v, dv):
    """r^{i..}_{|k} from value and partial derivatives (partial index at axis
    ``rank``, broadcast axes last)."""
    if rank == 1:
        return dv + np.einsum("ikl...,l...->ik...", geom.Gamma, v)
    return (
        dv
        + np.einsum("ikl...,lj...->ijk...", geom.Gamma, v)
        + np.einsum("jkl...,il...->ijk...", geom.Gamma, v)
    )


def _material_tangential(surface, closure, event, geom, mot, M=None):
    """v_t + u^k v_{|k} + M v (+ v M^T) in contravariant components: the
    tangential material derivative for M = G_obs (the default), the
    upper-convected one for M = -Du."""
    if M is None:
        M = mot.G_obs
    v, vt, dv = _comp_parts(surface, closure.comp_eval, event)
    cov = _covariant_derivative(geom, closure.rank, v, dv)
    adv = np.einsum("k,...k->...", mot.u2, cov)
    if closure.rank == 1:
        return vt + adv + M @ v
    return vt + adv + M @ v + v @ M.T


def _lower_tangential_covariant(surface, closure, event, geom, mot):
    """Lower-convected derivative via the covariant proxy, raised at the end.

    Independent route: differences g r g (or g r) in time directly and uses
    covariant-component covariant derivatives in space.
    """
    t, y1, y2 = event.t, event.y1, event.y2

    def g_of(s, a, b):
        return _metric(surface.jet(s, a, b).dX)

    if closure.rank == 1:
        def cov_eval(s, a, b):
            r = np.asarray(closure.comp_eval(s, a, b), dtype=float)
            return np.einsum("ij...,j...->i...", g_of(s, a, b), r)
    else:
        def cov_eval(s, a, b):
            gs = g_of(s, a, b)
            r = np.asarray(closure.comp_eval(s, a, b), dtype=float)
            gr = np.einsum("ij...,jk...->ik...", gs, r)
            return np.einsum("ik...,kl...->il...", gr, gs)

    w, wt, dw = _comp_parts(surface, cov_eval, event)
    if closure.rank == 1:
        # w_{k|l} = d_l w_k - Gamma^m_{lk} w_m
        cov = dw - np.einsum("mlk,m->kl", geom.Gamma, w)
        L = wt + np.einsum("l,kl->k", mot.u2, cov) + w @ mot.Du
        return geom.ginv @ L
    cov = (
        dw
        - np.einsum("mli,mj->ijl", geom.Gamma, w)
        - np.einsum("mlj,im->ijl", geom.Gamma, w)
    )
    L = wt + np.einsum("l,ijl->ij", mot.u2, cov) + mot.Du.T @ w + w @ mot.Du
    return geom.ginv @ L @ geom.ginv


def tangential_dt(
    surface: MovingSurface,
    closure: TangentialFieldClosure,
    event: Event,
    kind: DerivKind,
    path: str = "Decomposed",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> np.ndarray:
    """Tangential time derivative, returned in contravariant components."""
    kind = DerivKind(kind)
    if geom is None:
        geom = geometry_at(surface, event)
    if mot is None:
        mot = motion_at(surface, event, geom)
    if closure.rank not in (1, 2):
        raise RankError("tangential_dt supports rank 1 and 2")
    if kind == DerivKind.ConformingMaterial:
        raise ConfigError("ConformingMaterial applies to Q-tensor fields; use q_dt")

    if kind == DerivKind.Material:
        return _material_tangential(surface, closure, event, geom, mot)

    if path == "Average":
        if kind != DerivKind.Jaumann:
            raise ConfigError("path 'Average' exists only for the Jaumann derivative")
        up = tangential_dt(surface, closure, event, DerivKind.Upper, "Decomposed", geom, mot)
        lo = tangential_dt(surface, closure, event, DerivKind.Lower, "Decomposed", geom, mot)
        return 0.5 * (up + lo)

    if path != "Decomposed":
        raise ConfigError(f"unknown tangential_dt path {path!r}")

    if kind == DerivKind.Upper:
        # direct form: raw rates plus advection minus relative-velocity gradient;
        # never touches the material velocity gradient G, which the Jaumann
        # branch below and convected_dt's ViaMaterial path use
        return _material_tangential(surface, closure, event, geom, mot, -mot.Du)
    if kind == DerivKind.Lower:
        return _lower_tangential_covariant(surface, closure, event, geom, mot)
    if kind == DerivKind.Jaumann:
        mdot = _material_tangential(surface, closure, event, geom, mot)
        v = np.asarray(closure.comp_eval(event.t, event.y1, event.y2), dtype=float)
        if closure.rank == 1:
            return mdot - mot.A @ v
        return mdot - mot.A @ v - v @ mot.A.T
    raise ConfigError(f"unsupported kind {kind}")


# ---------------------------------------------------------------------------
# full-field derivatives


def _split_closures(closure: FieldClosure):
    """Per-block closures (r, etaL, etaR, phi); the couplings are None for rank 1."""
    split_eval = closure.require_split()

    def block(name):
        return lambda t, a, b: getattr(split_eval(t, a, b), name)

    if closure.rank == 1:
        return block("r2"), None, None, block("phi")
    return block("r2"), block("etaL2"), block("etaR2"), block("phi")


def material_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    path: str = "CartesianProxy",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> TensorValue:
    """Material time derivative of a (rank 1 or 2) field, as a Cartesian tensor."""
    if closure.rank not in (1, 2):
        raise RankError("material_dt supports rank 1 and 2; use scalar_dot for scalars")
    if geom is None:
        geom = geometry_at(surface, event)
    if mot is None:
        mot = motion_at(surface, event, geom)

    if path == "CartesianProxy":
        cart = advected_rate(surface, closure.eval, event)
        return TensorValue(rank=closure.rank, cart=cart)

    if path != "Decomposed":
        raise ConfigError(f"unknown material_dt path {path!r}")

    rcl, eLcl, eRcl, phicl = _split_closures(closure)
    t, y1, y2 = event.t, event.y1, event.y2
    nu = geom.nu
    b = mot.b_cov
    b3 = mot.b3
    phi = np.asarray(phicl(t, y1, y2), dtype=float)
    phidot = advected_rate(surface, phicl, event)
    rdot = _material_tangential(
        surface, TangentialFieldClosure(closure.rank, rcl), event, geom, mot
    )
    r = np.asarray(rcl(t, y1, y2), dtype=float)

    if closure.rank == 1:
        cart = geom.embed_vec(rdot) - phi * b3 + (phidot + r @ b) * nu
        return TensorValue(rank=1, cart=cart)

    eL = np.asarray(eLcl(t, y1, y2), dtype=float)
    eR = np.asarray(eRcl(t, y1, y2), dtype=float)
    eLdot = _material_tangential(
        surface, TangentialFieldClosure(1, eLcl), event, geom, mot
    )
    eRdot = _material_tangential(
        surface, TangentialFieldClosure(1, eRcl), event, geom, mot
    )
    left = geom.embed_vec(eLdot + r @ b) - phi * b3
    right = geom.embed_vec(eRdot + b @ r) - phi * b3
    cart = (
        geom.embed_contra(rdot)
        - np.einsum("a,b->ab", geom.embed_vec(eL), b3)
        - np.einsum("a,b->ab", b3, geom.embed_vec(eR))
        + np.einsum("a,b->ab", left, nu)
        + np.einsum("a,b->ab", nu, right)
        + (phidot + (eL + eR) @ b) * np.einsum("a,b->ab", nu, nu)
    )
    return TensorValue(rank=2, cart=cart)


def convected_dt(
    surface: MovingSurface,
    closure: FieldClosure,
    event: Event,
    kind: DerivKind,
    path: str = "ViaMaterial",
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> TensorValue:
    """Upper-/lower-convected or Jaumann derivative of a tangential field.

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
    if geom is None:
        geom = geometry_at(surface, event)
    if mot is None:
        mot = motion_at(surface, event, geom)

    if path == "ViaMaterial":
        R = np.asarray(closure.eval(event.t, event.y1, event.y2), dtype=float)
        Dm = advected_rate(surface, closure.eval, event)
        # D R - M R (- R M^T) with M = Gcal, -Gcal^T or Acal (Acal^T = -Acal)
        M = {
            DerivKind.Upper: mot.Gcal,
            DerivKind.Lower: -mot.Gcal.T,
            DerivKind.Jaumann: mot.Acal,
        }[kind]
        cart = Dm - M @ R
        if closure.rank == 2:
            cart = cart - R @ M.T
        return TensorValue(rank=closure.rank, cart=cart)

    if path not in ("Decomposed", "Average"):
        raise ConfigError(f"unknown convected_dt path {path!r}")

    rcl, eLcl, eRcl, phicl = _split_closures(closure)

    def block(rank, comp_eval):
        return tangential_dt(
            surface, TangentialFieldClosure(rank, comp_eval), event, kind, path, geom, mot
        )

    split = TensorSplit(
        rank=closure.rank,
        r2=block(closure.rank, rcl),
        phi=np.asarray(advected_rate(surface, phicl, event)),
    )
    if closure.rank == 2:
        split.etaL2, split.etaR2 = block(1, eLcl), block(1, eRcl)
    return TensorValue(rank=closure.rank, cart=reconstruct(geom, split))


# ---------------------------------------------------------------------------
# Q-tensor derivatives


def q_dt(
    surface: MovingSurface,
    closure: QFieldClosure,
    event: Event,
    kind: DerivKind,
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> QSplit:
    """Material, Jaumann, or conforming-material derivative of a Q-tensor field.

    Returns the derivative's own Q-split blocks.  The upper and lower
    convected derivatives do not preserve Q-tensor structure; take them
    through convected_dt on the full proxy instead.
    """
    kind = DerivKind(kind)
    if kind in (DerivKind.Upper, DerivKind.Lower):
        raise ConfigError(
            "upper/lower convected derivatives leave the Q-tensor bundle; use convected_dt"
        )
    if geom is None:
        geom = geometry_at(surface, event)
    if mot is None:
        mot = motion_at(surface, event, geom)
    t, y1, y2 = event.t, event.y1, event.y2

    qcl = lambda s, a, b: closure.q_eval(s, a, b).q2
    ecl = lambda s, a, b: closure.q_eval(s, a, b).eta2
    bcl = lambda s, a, b: closure.q_eval(s, a, b).beta

    qs = closure.q_eval(t, y1, y2)
    q = np.asarray(qs.q2, dtype=float)
    eta = np.asarray(qs.eta2, dtype=float)
    beta = float(qs.beta)

    betadot = advected_rate(surface, bcl, event)
    qdot = _material_tangential(
        surface, TangentialFieldClosure(2, qcl), event, geom, mot
    )
    etadot = _material_tangential(
        surface, TangentialFieldClosure(1, ecl), event, geom, mot
    )

    if kind == DerivKind.ConformingMaterial:
        _require_conforming(qs)
        return QSplit(q2=qdot, eta2=np.zeros(2), beta=betadot)

    b = mot.b_cov
    bup = geom.ginv @ b
    if kind == DerivKind.Material:
        qblock = qdot - 2.0 * pi_q_components(geom, np.einsum("i,j->ij", eta, bup))
        eblock = etadot + q @ b - 1.5 * beta * bup
        bblock = betadot + 2.0 * (eta @ b)
        return QSplit(q2=qblock, eta2=eblock, beta=bblock)

    # Jaumann
    qblock = qdot - mot.A @ q - q @ mot.A.T
    eblock = etadot - mot.A @ eta
    return QSplit(q2=qblock, eta2=eblock, beta=betadot)
