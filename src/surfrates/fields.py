"""Tensor values on a surface: Cartesian proxies, tangential/normal splits,
Q-tensor structure, and the associated projections.

Rank-1 split: R = r^i d_i X + phi nu.
Rank-2 split: R = r^{ij} d_i X otimes d_j X
                + etaL^i d_i X otimes nu + nu otimes etaR^j d_j X
                + phi nu otimes nu.
Chart components are stored contravariant, component axes first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotConformingError, NotQTensorError, RankError
from .geometry import GeometrySample
from .util import _scaled_norm

__all__ = [
    "TensorSplit",
    "QSplit",
    "split_tensor",
    "reconstruct",
    "project",
    "pi_q_components",
    "tangential_projector",
    "q_from_cart",
    "q_to_cart",
    "g_inner_rank2",
]

# Tolerance of the tangential, Q-tensor and conforming checks, times max(1, |field|).
_STRUCTURE_TOL = 1e-8

# The block layouts: each block's name and tangential rank (0 for a scalar),
# of a TensorSplit by its rank and of a QSplit, in the order of the formulas.
_SPLIT_BLOCKS = {1: {"r2": 1, "phi": 0}, 2: {"r2": 2, "etaL2": 1, "etaR2": 1, "phi": 0}}
_Q_BLOCKS = {"q2": 2, "eta2": 1, "beta": 0}


def _off_structure(x, *refs, nb: int) -> bool:
    """Whether the largest component of x exceeds _STRUCTURE_TOL * max(1,
    largest component of each ref) at some point; each point (the trailing
    ``nb`` axes) is scaled by its own values."""
    return bool(np.any(_scaled_norm(x, *refs, nb=nb, fro=False) > _STRUCTURE_TOL))


@dataclass
class TensorSplit:
    rank: int
    r2: np.ndarray
    phi: np.ndarray
    etaL2: np.ndarray | None = None
    etaR2: np.ndarray | None = None


def _check_rank(rank: int):
    if rank not in (1, 2):
        raise RankError(f"rank must be 1 or 2, got {rank}")


def split_tensor(geom: GeometrySample, cart: np.ndarray, rank: int) -> TensorSplit:
    _check_rank(rank)
    dX, ginv, nu = geom.dX, geom.ginv, geom.nu
    if rank == 1:
        cov = np.einsum("a...,ai...->i...", cart, dX)
        r2 = np.einsum("ij...,j...->i...", ginv, cov)
        phi = np.einsum("a...,a...->...", cart, nu)
        return TensorSplit(rank=1, r2=r2, phi=phi)
    low = np.einsum("ai...,ab...,bj...->ij...", dX, cart, dX)
    r2 = np.einsum("ik...,kl...,lj...->ij...", ginv, low, ginv)
    etaL_cov = np.einsum("ai...,ab...,b...->i...", dX, cart, nu)
    etaR_cov = np.einsum("a...,ab...,bj...->j...", nu, cart, dX)
    etaL2 = np.einsum("ij...,j...->i...", ginv, etaL_cov)
    etaR2 = np.einsum("ij...,j...->i...", ginv, etaR_cov)
    phi = np.einsum("a...,ab...,b...->...", nu, cart, nu)
    return TensorSplit(rank=2, r2=r2, phi=phi, etaL2=etaL2, etaR2=etaR2)


def reconstruct(geom: GeometrySample, split: TensorSplit) -> np.ndarray:
    """The Cartesian proxy of a split.  A rank-2 split whose coupling blocks
    are both all zero (a conforming Q-tensor; a zero block may be broadcast,
    as (2, 1, 1)) skips their products: adding an exact zero keeps every
    nonzero entry's bits, so only the sign of an exact zero can differ."""
    _check_rank(split.rank)
    nu = geom.nu
    if split.rank == 1:
        return geom.embed_vec(split.r2) + split.phi * nu
    # the sums go in place, so the proxy allocates no array per sum
    out = geom.embed_contra(split.r2)
    if np.any(split.etaL2) or np.any(split.etaR2):
        out += np.einsum("a...,b...->ab...", geom.embed_vec(split.etaL2), nu)
        out += np.einsum("a...,b...->ab...", nu, geom.embed_vec(split.etaR2))
    out += split.phi * np.einsum("a...,b...->ab...", nu, nu)
    return out


def tangential_projector(geom: GeometrySample) -> np.ndarray:
    """Pi_S = Id - nu otimes nu as a 3x3 Cartesian matrix."""
    eye = np.eye(3).reshape((3, 3) + (1,) * (geom.nu.ndim - 1))
    return eye - np.einsum("a...,b...->ab...", geom.nu, geom.nu)


def project(geom: GeometrySample, cart: np.ndarray, which: str) -> np.ndarray:
    """Project a Cartesian proxy onto {Tangential, Q, CQ} structure; the
    proxy's shape gives its rank.

    Tangential: rank 1 removes the normal part, rank 2 projects both slots.
    Q: symmetric, surface-traceless, tangential part (rank 2 only).
    CQ: removes the mixed tangent-normal blocks (rank 2 only).
    """
    if cart.shape == geom.nu.shape:
        rank = 1
    elif cart.shape == (3,) + geom.nu.shape:
        rank = 2
    else:
        raise RankError(f"cannot infer rank from proxy shape {cart.shape}")
    nu = geom.nu
    if which == "Tangential":
        if rank == 1:
            return cart - np.einsum("a...,a...->...", cart, nu) * nu
        Pi = tangential_projector(geom)
        return np.einsum("ac...,cd...,db...->ab...", Pi, cart, Pi)
    if which not in ("Q", "CQ"):
        raise ConfigError(f"unknown projection {which!r}")
    if rank != 2:
        raise RankError(f"projection {which!r} requires rank 2")
    if which == "Q":
        Pi = tangential_projector(geom)
        T = np.einsum("ac...,cd...,db...->ab...", Pi, cart, Pi)
        Tsym = 0.5 * (T + np.einsum("ab...->ba...", T))
        tr = np.einsum("aa...->...", Tsym)
        return Tsym - 0.5 * tr * Pi
    etaL = np.einsum("ab...,b...->a...", cart, nu)
    etaL = etaL - np.einsum("a...,a...->...", etaL, nu) * nu
    etaR = np.einsum("a...,ab...->b...", nu, cart)
    etaR = etaR - np.einsum("a...,a...->...", etaR, nu) * nu
    return (
        cart
        - np.einsum("a...,b...->ab...", etaL, nu)
        - np.einsum("a...,b...->ab...", nu, etaR)
    )


def _conforming_blocks(geom: GeometrySample, F: np.ndarray):
    """The (q, beta) blocks of the conforming projection of a full proxy F:
    beta = nu F nu and q = sym(g^-1 dX^T F dX g^-1) + beta g^-1 / 2."""
    beta = np.einsum("a...,ab...,b...->...", geom.nu, F, geom.nu)
    low = np.einsum("ai...,ab...,bj...->ij...", geom.dX, F, geom.dX)
    r2 = np.einsum("ik...,kl...,lj...->ij...", geom.ginv, low, geom.ginv)
    r2 = 0.5 * (r2 + np.einsum("ij...->ji...", r2))
    return r2 + 0.5 * beta * geom.ginv, beta


def pi_q_components(geom: GeometrySample, r2: np.ndarray) -> np.ndarray:
    """Q-projection in contravariant components:
    Pi_Q(r)^{ij} = (r^{ij} + r^{ji} - (g_kl r^{kl}) g^{ij}) / 2."""
    tr = np.einsum("kl...,kl...->...", geom.g, r2)
    return 0.5 * (r2 + np.einsum("ij...->ji...", r2) - tr * geom.ginv)


# ---------------------------------------------------------------------------
# Q-tensor structure


@dataclass
class QSplit:
    """Conforming-friendly parameterization of a surface Q-tensor.

    q2: contravariant symmetric g-traceless tangential part,
    eta2: contravariant tangential coupling vector (left = right),
    beta: normal-normal scalar.
    Full proxy: Q = embed(q2) + eta (x) nu + nu (x) eta + beta (nu nu - Pi_S/2).
    """

    q2: np.ndarray
    eta2: np.ndarray
    beta: np.ndarray


def _require_conforming(qs: QSplit) -> None:
    """NotConformingError if the coupling block eta2 exceeds
    _STRUCTURE_TOL * max(1, |q2|, |beta|) at some point."""
    if _off_structure(qs.eta2, qs.q2, qs.beta, nb=np.ndim(qs.q2) - 2):
        raise NotConformingError("field has a tangent-normal coupling component")


def q_split_to_split(geom: GeometrySample, qs: QSplit) -> TensorSplit:
    r2 = qs.q2 - 0.5 * qs.beta * geom.ginv
    return TensorSplit(rank=2, r2=r2, phi=qs.beta, etaL2=qs.eta2, etaR2=qs.eta2)


def q_split_from_split(geom: GeometrySample, split: TensorSplit) -> QSplit:
    if split.rank != 2:
        raise RankError("QSplit requires a rank-2 split")
    refs, nb = (split.r2, split.phi), np.ndim(split.r2) - 2
    if _off_structure(split.etaL2 - split.etaR2, *refs, nb=nb):
        raise NotQTensorError("left and right coupling vectors differ")
    if _off_structure(split.r2 - np.einsum("ij...->ji...", split.r2), *refs, nb=nb):
        raise NotQTensorError("tangential part is not symmetric")
    beta = split.phi
    q2 = split.r2 + 0.5 * beta * geom.ginv
    if _off_structure(np.einsum("ij...,ij...->...", geom.g, q2), *refs, nb=nb):
        raise NotQTensorError("tangential part violates the trace relation")
    return QSplit(q2=q2, eta2=split.etaL2, beta=beta)


def q_from_cart(geom: GeometrySample, cart: np.ndarray) -> QSplit:
    nb = np.ndim(cart) - 2
    if _off_structure(cart - np.einsum("ab...->ba...", cart), cart, nb=nb):
        raise NotQTensorError("proxy is not symmetric")
    if _off_structure(np.einsum("aa...->...", cart), cart, nb=nb):
        raise NotQTensorError("proxy is not traceless")
    return q_split_from_split(geom, split_tensor(geom, cart, 2))


def q_to_cart(geom: GeometrySample, qs: QSplit) -> np.ndarray:
    return reconstruct(geom, q_split_to_split(geom, qs))


def g_inner_rank2(geom: GeometrySample, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    return np.einsum("ik...,jl...,ij...,kl...->...", geom.g, geom.g, a2, b2)
