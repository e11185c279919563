"""Thin-film consistency: a moving surface thickened along its normal.

The shell chart is chi(t, y, xi) = X(t, y) + xi nu(t, y), with fields and
motion extended constant in xi.  Bulk (3D) time derivatives of the extended
fields, evaluated at offset xi, converge to the corresponding surface
derivatives at rate O(xi); the Jaumann rate agrees identically, which is
reported as infinite fitted order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fd import _at_time, c4_grad
from .chart_kernel import Event, MovingSurface
from .errors import ConfigError, ShellDegenerateError
from .geometry import _metric, geometry_at, motion_at
from .probes import _stack
from .timederiv import DerivKind, _advected_parts, _via_material
from .util import _mm, _scaled_norm, inv2

__all__ = [
    "shell_velocity",
    "shell_velocity_gradient",
    "ConvergenceReport",
    "limit_study",
    "LIMIT_QUANTITIES",
]

LIMIT_QUANTITIES = (
    "UpperDt",
    "LowerDt",
    "JaumannDt",
    "Deformation",
)

ORDER_FLOOR = 1e-10

# Shell offsets xi of a limit study, halving towards the surface.
_XI_SEQUENCE = (0.1, 0.05, 0.025, 0.0125)


def shell_velocity(surface: MovingSurface, event: Event, xi: float) -> np.ndarray:
    """Material velocity of the shell point (constant-xi extension).

    V = V_chart + xi d_t nu + u^k d_k chi, with d_t nu = -(lift of the chart
    normal-coupling covector), all analytic from the jet.
    """
    geom = geometry_at(surface, event)
    mot = motion_at(surface, event, geom)
    jet = geom.jet
    dnu_t = -mot.b_obs3
    dchi = jet.dX + xi * geom.dnu
    return jet.Vt + xi * dnu_t + np.einsum("k...,ak...->a...", mot.u2, dchi)


def shell_velocity_gradient(surface: MovingSurface, event: Event, xi: float) -> np.ndarray:
    """Cartesian 3x3 gradient of the extended material velocity at offset xi.

    Chart partials of the shell velocity are taken by stencils in y; the
    xi-partial is analytic because the extension is affine in xi.  The frame
    F = (d chi, nu) is inverted from its structure: nu is normal to
    d chi = dX (Id - xi B), so F^-1 has rows g_chi^-1 d chi^T and nu^T.

    Raises ShellDegenerateError when the offset reaches a focal point at any
    point of the event, i.e. det(Id - xi B) = 1 - xi H + xi^2 K is not
    positive.
    """
    geom = geometry_at(surface, event)
    if np.any(1.0 - xi * geom.H + xi * xi * geom.K <= 1e-12):
        raise ShellDegenerateError(
            f"offset xi={xi:g} degenerates the shell chart (focal point)"
        )
    mot = motion_at(surface, event, geom)
    dchi = geom.dX + xi * geom.dnu
    velocity = _at_time(lambda s, a, b: shell_velocity(surface, Event(s, a, b), xi), event.t)
    dV = np.stack(c4_grad(velocity, event.y1, event.y2, surface.space_step), axis=1)
    # d_xi V = d_t nu + u^k d_k nu = -(lift of b[V_m])
    dxi = -mot.b3
    # (dV, d_xi V) F^-1: the chart partials against the rows g_chi^-1 d chi^T,
    # the xi-partial against nu^T
    tangential = np.einsum("ai...,ij...,bj...->ab...", dV, inv2(_metric(dchi)), dchi)
    return tangential + np.einsum("a...,b...->ab...", dxi, geom.nu)


# ---------------------------------------------------------------------------
# limit study


@dataclass
class ConvergenceReport:
    quantity: str
    rows: list
    fitted_order: float

    def to_json_obj(self) -> dict:
        return {
            "fitted_order": _order_json(self.fitted_order),
            "quantity": self.quantity,
            "rows": [{"error": e, "xi": x} for (x, e) in self.rows],
        }


def _order_json(order: float):
    """A fitted order for a JSON report: the string "inf" for an exactly
    satisfied limit, since JSON has no infinity."""
    return "inf" if math.isinf(order) else order


def fit_order(rows, scale: float = 1.0) -> float:
    """Least-squares slope of log error against log step; infinite when every
    error sits below the exactness floor."""
    floor = ORDER_FLOOR * max(1.0, scale)
    errs = np.array([e for (_, e) in rows], dtype=float)
    if np.all(errs < floor):
        return math.inf
    xs = np.log(np.array([x for (x, _) in rows], dtype=float))
    ys = np.log(np.maximum(errs, 1e-300))
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    slope, _ = np.linalg.lstsq(A, ys, rcond=None)[0]
    return float(slope)


def _probe_rank2(t, a, b):
    w = _stack(np.sin(a), np.cos(b), np.sin(a + b) + 0.5 * t)
    v = _stack(np.cos(2.0 * a) + 0.3 * t, np.sin(b - a), np.cos(b))
    return np.einsum("i...,j...->ij...", w, v) + 0.2 * np.einsum("i...,j...->ij...", v, v)


def _worst_norm(a) -> float:
    """Largest Frobenius norm of the 3x3 matrices of a, one per event."""
    return float(np.max(_scaled_norm(a, nb=np.ndim(a) - 2)))


def limit_study(
    surface: MovingSurface,
    quantity: str,
    event: Event,
) -> ConvergenceReport:
    """Compare bulk shell derivatives at offsets xi with the surface-side
    derivative, and fit the convergence order.  On a batch of events each
    row holds the largest error over the batch."""
    if quantity not in LIMIT_QUANTITIES:
        raise ConfigError(
            f"unknown limit quantity {quantity!r}; pick one of {LIMIT_QUANTITIES}"
        )
    mot = motion_at(surface, event)
    rows = []
    if quantity == "Deformation":
        S_surf = 0.5 * (mot.Gcal + np.einsum("ab...->ba...", mot.Gcal))
        scale = max(1.0, _worst_norm(S_surf))
        for xi in _XI_SEQUENCE:
            gradv = shell_velocity_gradient(surface, event, xi)
            S_shell = 0.5 * (gradv + np.einsum("ab...->ba...", gradv))
            rows.append((xi, _worst_norm(S_shell - S_surf)))
        return ConvergenceReport(quantity, rows, fit_order(rows, scale))

    kind = {
        "UpperDt": DerivKind.Upper,
        "LowerDt": DerivKind.Lower,
        "JaumannDt": DerivKind.Jaumann,
    }[quantity]
    # the proxy and its material rate from one stencil call; the surface
    # value is convected_dt's ViaMaterial formula applied to them
    R, Dm = _advected_parts(surface, _probe_rank2, event)
    surf_val = _via_material(mot, 2, kind, R, Dm)
    scale = max(1.0, _worst_norm(surf_val))
    for xi in _XI_SEQUENCE:
        gradv = shell_velocity_gradient(surface, event, xi)
        gradvT = np.einsum("ab...->ba...", gradv)
        if kind == DerivKind.Upper:
            shell_val = Dm - _mm(gradv, R) - _mm(R, gradvT)
        elif kind == DerivKind.Lower:
            shell_val = Dm + _mm(gradvT, R) + _mm(R, gradv)
        else:
            W = 0.5 * (gradv - gradvT)
            shell_val = Dm - _mm(W, R) + _mm(R, W)
        rows.append((xi, _worst_norm(shell_val - surf_val)))
    return ConvergenceReport(quantity, rows, fit_order(rows, scale))
