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
from types import SimpleNamespace

import numpy as np

from ._fd import c4_grad
from .chart_kernel import Event, MovingSurface
from .errors import ShellDegenerateError
from .geometry import _metric, geometry_at, motion_at
from .probes import _stack
from .timederiv import DerivKind, _advected_parts, _via_material
from .util import _scaled_norm, inv2

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

# the convected rates of the first three quantities
_LIMIT_KINDS = (DerivKind.Upper, DerivKind.Lower, DerivKind.Jaumann)

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
    velocity = lambda s, a, b: shell_velocity(surface, Event(s, a, b), xi)
    dV = np.stack(c4_grad(velocity, event.t, event.y1, event.y2, surface.space_step), axis=1)
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


def limit_study(surface: MovingSurface, event: Event) -> list[ConvergenceReport]:
    """Compare bulk shell quantities at offsets xi with their surface values
    and fit each convergence order; one report per entry of
    ``LIMIT_QUANTITIES``, in that order.

    Each side applies the same formulas to its velocity gradient: the
    upper, lower and Jaumann rates of a probe are convected_dt's ViaMaterial
    formula, and the deformation is the symmetric part.  The shell side
    takes one shell gradient per offset.  On a batch of events each row
    holds the largest error over the batch.
    """
    # the proxy and its material rate from one stencil call, shared by both sides
    R, Dm = _advected_parts(surface, _probe_rank2, event)

    def quantities(grad):
        """The LIMIT_QUANTITIES values of a gradient with Gcal and Acal."""
        rates = [_via_material(grad, 2, kind, R, Dm) for kind in _LIMIT_KINDS]
        return rates + [0.5 * (grad.Gcal + np.einsum("ab...->ba...", grad.Gcal))]

    surface_vals = quantities(motion_at(surface, event))
    shell_vals = []
    for xi in _XI_SEQUENCE:
        G = shell_velocity_gradient(surface, event, xi)
        spin = 0.5 * (G - np.einsum("ab...->ba...", G))
        shell_vals.append(quantities(SimpleNamespace(Gcal=G, Acal=spin)))
    reports = []
    for quantity, value, *shell in zip(LIMIT_QUANTITIES, surface_vals, *shell_vals):
        rows = [(xi, _worst_norm(v - value)) for xi, v in zip(_XI_SEQUENCE, shell)]
        scale = max(1.0, _worst_norm(value))
        reports.append(ConvergenceReport(quantity, rows, fit_order(rows, scale)))
    return reports
