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


def _probe(surface: MovingSurface, rank: int, scalar, vector, matrix, other) -> FieldClosure:
    """Full-field probe split-first from its component functions: rank 1 is
    (vector, scalar), rank 2 is (matrix, scalar) with coupling vectors
    vector on the left and other on the right."""

    def split_eval(t, a, b):
        phi, eta = scalar(t, a, b), vector(t, a, b)
        if rank == 1:
            return TensorSplit(rank=1, r2=eta, phi=phi)
        return TensorSplit(rank=2, r2=matrix(t, a, b), phi=phi, etaL2=eta, etaR2=other(t, a, b))

    def _eval(t, a, b):
        geom = geometry_from_jet(surface.jet(t, a, b))
        return reconstruct(geom, split_eval(t, a, b))

    return FieldClosure(rank=rank, eval=_eval, split_eval=split_eval)


def probe_field(surface: MovingSurface, rank: int) -> FieldClosure:
    """General full-field probe (tangential, mixed and normal parts all active)."""
    return _probe(
        surface, rank, probe_scalar, probe_vector_comps, probe_matrix_comps, probe_vector_comps_b
    )


def probe_field_b(surface: MovingSurface, rank: int) -> FieldClosure:
    """A second, independent probe for product-rule checks; its coupling
    vectors are the first probe's, swapped."""
    return _probe(
        surface, rank, probe_scalar_b, probe_vector_comps_b, _matrix_comps_b, probe_vector_comps
    )


def probe_tangential(rank: int) -> TangentialFieldClosure:
    if rank == 1:
        return TangentialFieldClosure(rank=1, comp_eval=probe_vector_comps)
    return TangentialFieldClosure(rank=2, comp_eval=probe_matrix_comps)


def _sym_probe(t, a, b):
    m = probe_matrix_comps(t, a, b)
    return 0.5 * (m + np.einsum("ij...->ji...", m))


def _q_probe(surface: MovingSurface, coupling, normal) -> QFieldClosure:
    """Q-tensor probe: the Q-projection of _sym_probe, the coupling block
    ``coupling(t, a, b)`` and the normal block ``normal(t, a, b)``.  Without
    a coupling function the block is zero, at the full shape, since
    ``_q_parts`` packs every block into one stencil."""

    def q_eval(t, a, b):
        geom = geometry_from_jet(surface.jet(t, a, b))
        q2 = pi_q_components(geom, _sym_probe(t, a, b))
        eta2 = np.zeros((2,) + q2.shape[2:]) if coupling is None else coupling(t, a, b)
        return QSplit(q2=q2, eta2=eta2, beta=normal(t, a, b))

    return QFieldClosure(q_eval=q_eval)


def probe_q_field(surface: MovingSurface) -> QFieldClosure:
    """Q-tensor probe with all three blocks active."""
    return _q_probe(surface, probe_vector_comps_b, probe_scalar)


def probe_conforming_q_field(surface: MovingSurface) -> QFieldClosure:
    """Conforming probe: no tangent-normal coupling block."""
    return _q_probe(surface, None, probe_scalar_b)
