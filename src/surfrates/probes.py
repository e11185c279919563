"""Deterministic smooth probe fields used by the verification drivers.

All chart dependence is through sin/cos of the coordinates (periodic on
periodic charts) and low-degree polynomials in t, which the time stencils
differentiate exactly.  Full-field closures are built split-first, so the
Cartesian proxy and the split agree to machine precision by construction.
"""
from __future__ import annotations

import numpy as np

from .chart_kernel import MovingSurface
from .fields import QSplit, TensorSplit, pi_q_components, reconstruct
from .geometry import geometry_from_jet
from .timederiv import FieldClosure, QFieldClosure, TangentialFieldClosure

__all__ = [
    "probe_scalar",
    "probe_field",
    "probe_tangential",
    "probe_q_field",
    "probe_conforming_q_field",
]


def probe_scalar(t, a, b):
    return np.sin(a) * np.cos(b) + 0.2 * t + 0.1 * t * t


def probe_scalar_b(t, a, b):
    return np.cos(a) + 0.4 * np.sin(b) * np.sin(a) - 0.3 * t


def _stack(*comps):
    """Components stacked on a new first axis, after broadcasting them
    against each other, so scalar and array coordinates may mix."""
    return np.array(np.broadcast_arrays(*comps))


def _matrix(m11, m12, m21, m22):
    m = _stack(m11, m12, m21, m22)
    return m.reshape((2, 2) + m.shape[1:])


def probe_vector_comps(t, a, b):
    return _stack(0.5 * np.sin(a) + 0.2 * t, 0.4 * np.cos(b) + 0.1 * t * t)


def probe_vector_comps_b(t, a, b):
    return _stack(0.3 * np.cos(a + b) - 0.1 * t, 0.5 * np.sin(b) + 0.2 * t)


def probe_matrix_comps(t, a, b):
    m11 = 0.5 * np.sin(a) + 0.1 * t
    m12 = 0.3 * np.cos(b) + 0.2 * t * t
    m21 = 0.2 * np.sin(a + b)
    m22 = 0.4 * np.cos(a) * np.cos(b) - 0.1 * t
    return _matrix(m11, m12, m21, m22)


def _matrix_comps_b(t, a, b):
    m11 = 0.4 * np.cos(b) - 0.2 * t
    m12 = 0.2 * np.sin(a) + 0.1 * t
    m21 = 0.3 * np.cos(a + b) + 0.1 * t * t
    m22 = 0.5 * np.sin(b)
    return _matrix(m11, m12, m21, m22)


def _split_rank1(t, a, b):
    return TensorSplit(rank=1, r2=probe_vector_comps(t, a, b), phi=probe_scalar(t, a, b))


def _split_rank1_b(t, a, b):
    return TensorSplit(
        rank=1, r2=probe_vector_comps_b(t, a, b), phi=probe_scalar_b(t, a, b)
    )


def _split_rank2(t, a, b):
    return TensorSplit(
        rank=2,
        r2=probe_matrix_comps(t, a, b),
        phi=probe_scalar(t, a, b),
        etaL2=probe_vector_comps(t, a, b),
        etaR2=probe_vector_comps_b(t, a, b),
    )


def _split_rank2_b(t, a, b):
    return TensorSplit(
        rank=2,
        r2=_matrix_comps_b(t, a, b),
        phi=probe_scalar_b(t, a, b),
        etaL2=probe_vector_comps_b(t, a, b),
        etaR2=probe_vector_comps(t, a, b),
    )


def _closure_from_split(surface: MovingSurface, rank: int, split_fn) -> FieldClosure:
    def _eval(t, a, b):
        geom = geometry_from_jet(surface.jet(t, a, b))
        return reconstruct(geom, split_fn(t, a, b))

    return FieldClosure(rank=rank, eval=_eval, split_eval=split_fn)


def probe_field(surface: MovingSurface, rank: int) -> FieldClosure:
    """General full-field probe (tangential, mixed and normal parts all active)."""
    return _closure_from_split(
        surface, rank, _split_rank1 if rank == 1 else _split_rank2
    )


def probe_field_b(surface: MovingSurface, rank: int) -> FieldClosure:
    """A second, independent probe for product-rule checks."""
    return _closure_from_split(
        surface, rank, _split_rank1_b if rank == 1 else _split_rank2_b
    )


def probe_tangential(rank: int) -> TangentialFieldClosure:
    if rank == 1:
        return TangentialFieldClosure(rank=1, comp_eval=probe_vector_comps)
    return TangentialFieldClosure(rank=2, comp_eval=probe_matrix_comps)


def _sym_probe(t, a, b):
    m = probe_matrix_comps(t, a, b)
    return 0.5 * (m + np.einsum("ij...->ji...", m))


def probe_q_field(surface: MovingSurface) -> QFieldClosure:
    """Q-tensor probe with all three blocks active."""

    def q_eval(t, a, b):
        geom = geometry_from_jet(surface.jet(t, a, b))
        q2 = pi_q_components(geom, _sym_probe(t, a, b))
        return QSplit(q2=q2, eta2=probe_vector_comps_b(t, a, b), beta=probe_scalar(t, a, b))

    return QFieldClosure(q_eval=q_eval)


def probe_conforming_q_field(surface: MovingSurface) -> QFieldClosure:
    """Conforming probe: no tangent-normal coupling block."""

    def q_eval(t, a, b):
        geom = geometry_from_jet(surface.jet(t, a, b))
        q2 = pi_q_components(geom, _sym_probe(t, a, b))
        eta2 = np.zeros((2,) + q2.shape[2:])
        return QSplit(q2=q2, eta2=eta2, beta=probe_scalar_b(t, a, b))

    return QFieldClosure(q_eval=q_eval)
