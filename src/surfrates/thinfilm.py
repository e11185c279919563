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

from ._fd import c4_grad
from .chart_kernel import Event, MovingSurface
from .errors import ConfigError, ShellDegenerateError
from .geometry import geometry_at, motion_at
from .probes import _stack
from .timederiv import DerivKind, _advected_parts, _via_material
from .util import det2, frobenius

__all__ = [
    "ShellEvent",
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


@dataclass(frozen=True)
class ShellEvent:
    t: float
    y1: float
    y2: float
    xi: float


def _shell_frame(geom, xi):
    """Frame columns (d1 chi, d2 chi, nu) of the shell at offset xi.

    Raises ShellDegenerateError when the offset reaches a focal point,
    i.e. det(Id - xi B) is not positive.
    """
    if det2(np.eye(2) - xi * geom.B_mixed) <= 1e-12:
        raise ShellDegenerateError(
            f"offset xi={xi:g} degenerates the shell chart (focal point)"
        )
    dchi = geom.dX + xi * geom.dnu
    return np.column_stack([dchi[:, 0], dchi[:, 1], geom.nu])


def shell_velocity(surface: MovingSurface, sev: ShellEvent) -> np.ndarray:
    """Material velocity of the shell point (constant-xi extension).

    V = V_chart + xi d_t nu + u^k d_k chi, with d_t nu = -(lift of the chart
    normal-coupling covector), all analytic from the jet.
    """
    event = Event(sev.t, sev.y1, sev.y2)
    geom = geometry_at(surface, event)
    mot = motion_at(surface, event, geom)
    jet = geom.jet
    dnu_t = -mot.b_obs3
    dchi = jet.dX + sev.xi * geom.dnu
    return jet.Vt + sev.xi * dnu_t + np.einsum("k...,ak...->a...", mot.u2, dchi)


def shell_velocity_gradient(surface: MovingSurface, sev: ShellEvent) -> np.ndarray:
    """Cartesian 3x3 gradient of the extended material velocity at offset xi.

    Chart partials of the shell velocity are taken by stencils in y; the
    xi-partial is analytic because the extension is affine in xi.
    """
    t, y1, y2, xi = sev.t, sev.y1, sev.y2, sev.xi
    event = Event(t, y1, y2)
    geom = geometry_at(surface, event)
    mot = motion_at(surface, event, geom)
    frame = _shell_frame(geom, xi)
    velocity = lambda a, b: shell_velocity(surface, ShellEvent(t, a, b, xi))
    d1, d2 = c4_grad(velocity, y1, y2, surface.space_step)
    # d_xi V = d_t nu + u^k d_k nu = -(lift of b[V_m])
    dxi = -mot.b3
    dV = np.column_stack([d1, d2, dxi])
    return dV @ np.linalg.inv(frame)


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


def limit_study(
    surface: MovingSurface,
    quantity: str,
    event: Event,
) -> ConvergenceReport:
    """Compare bulk shell derivatives at offsets xi with the surface-side
    derivative, and fit the convergence order."""
    if quantity not in LIMIT_QUANTITIES:
        raise ConfigError(
            f"unknown limit quantity {quantity!r}; pick one of {LIMIT_QUANTITIES}"
        )
    t, y1, y2 = event.t, event.y1, event.y2
    mot = motion_at(surface, event)
    rows = []
    if quantity == "Deformation":
        S_surf = 0.5 * (mot.Gcal + mot.Gcal.T)
        scale = max(1.0, frobenius(S_surf))
        for xi in _XI_SEQUENCE:
            gradv = shell_velocity_gradient(surface, ShellEvent(t, y1, y2, xi))
            S_shell = 0.5 * (gradv + gradv.T)
            rows.append((xi, frobenius(S_shell - S_surf)))
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
    scale = max(1.0, frobenius(surf_val))
    for xi in _XI_SEQUENCE:
        gradv = shell_velocity_gradient(surface, ShellEvent(t, y1, y2, xi))
        if kind == DerivKind.Upper:
            shell_val = Dm - gradv @ R - R @ gradv.T
        elif kind == DerivKind.Lower:
            shell_val = Dm + gradv.T @ R + R @ gradv
        else:
            W = 0.5 * (gradv - gradv.T)
            shell_val = Dm - W @ R + R @ W
        rows.append((xi, frobenius(shell_val - surf_val)))
    return ConvergenceReport(quantity, rows, fit_order(rows, scale))
