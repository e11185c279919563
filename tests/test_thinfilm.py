import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates import thinfilm
from surfrates.chart_kernel import get_scenario, sample_events
from surfrates.errors import ShellDegenerateError
from surfrates.geometry import motion_at
from surfrates.thinfilm import (
    LIMIT_QUANTITIES,
    ShellEvent,
    fit_order,
    limit_study,
    shell_velocity,
    shell_velocity_gradient,
)


def test_shell_velocity_reduces_to_material(torus_drift, torus_events):
    ev = torus_events[1]
    mot = motion_at(torus_drift, ev)
    sev = ShellEvent(ev.t, ev.y1, ev.y2, 0.0)
    assert_allclose(shell_velocity(torus_drift, sev), mot.V_m, atol=1e-12)


def test_shell_gradient_limits_to_surface_gradient(torus_drift, torus_events):
    ev = torus_events[2]
    mot = motion_at(torus_drift, ev)
    sev = ShellEvent(ev.t, ev.y1, ev.y2, 0.0)
    grad = shell_velocity_gradient(torus_drift, sev)
    assert np.max(np.abs(grad - mot.Gcal)) < 1e-8


def test_shell_degenerate_offset(torus_static):
    # the (R0=2, r=1) torus has principal curvature 1/r: offset xi = 1 folds
    with pytest.raises(ShellDegenerateError):
        shell_velocity_gradient(torus_static, ShellEvent(0.0, 0.3, 0.4, 1.0))


@pytest.mark.parametrize("quantity", LIMIT_QUANTITIES)
def test_limit_orders_torus_drift(torus_drift, quantity):
    ev = sample_events(torus_drift, 1, 7)[0]
    rep = limit_study(torus_drift, quantity, ev)
    assert rep.fitted_order >= 0.9
    assert len(rep.rows) == 4


def test_exact_limits_report_inf(torus_drift):
    ev = sample_events(torus_drift, 1, 9)[0]
    rep = limit_study(torus_drift, "JaumannDt", ev)
    assert math.isinf(rep.fitted_order)
    assert rep.to_json_obj()["fitted_order"] == "inf"


@pytest.mark.parametrize("quantity", LIMIT_QUANTITIES)
def test_limit_study_detects_biased_shell_gradient(torus_drift, quantity, monkeypatch):
    # a constant 1e-2 error in the bulk velocity gradient does not vanish as
    # xi -> 0, so every limit must lose its order
    exact = thinfilm.shell_velocity_gradient

    def biased(surface, sev):
        gradv = exact(surface, sev).copy()
        gradv[0, 1] += 1e-2
        return gradv

    monkeypatch.setattr(thinfilm, "shell_velocity_gradient", biased)
    ev = sample_events(torus_drift, 1, 7)[0]
    assert limit_study(torus_drift, quantity, ev).fitted_order < 0.9


def test_fit_order_recovers_slope():
    rows = [(h, 0.7 * h**1.8) for h in (0.1, 0.05, 0.025, 0.0125)]
    assert_allclose(fit_order(rows), 1.8, atol=1e-10)
    zero_rows = [(h, 0.0) for h in (0.1, 0.05)]
    assert math.isinf(fit_order(zero_rows))


def test_convergence_report_json_shape(torus_drift):
    ev = sample_events(torus_drift, 1, 7)[0]
    rep = limit_study(torus_drift, "UpperDt", ev)
    obj = rep.to_json_obj()
    assert obj["quantity"] == "UpperDt"
    assert isinstance(obj["fitted_order"], float)
    assert [r["xi"] for r in obj["rows"]] == [0.1, 0.05, 0.025, 0.0125]


def test_shell_closures_broadcast(torus_drift, torus_events):
    ev = torus_events[2]
    a = ev.y1 + np.array([-0.01, 0.0, 0.02])
    b = ev.y2 + np.array([0.01, -0.02, 0.0])

    def velocity(xi):
        return lambda a, b: shell_velocity(torus_drift, ShellEvent(ev.t, a, b, xi))

    for name, closure in (
        ("shell_velocity xi=0", velocity(0.0)),
        ("shell_velocity xi=0.05", velocity(0.05)),
        ("_probe_rank2", lambda a, b: thinfilm._probe_rank2(ev.t, a, b)),
    ):
        batched = closure(a, b)
        want = np.stack([closure(ai, bi) for ai, bi in zip(a, b)], axis=-1)
        assert batched.shape == want.shape, name
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(batched - want)) <= 4 * np.finfo(float).eps * scale, name

