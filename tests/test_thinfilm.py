import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates import thinfilm
from surfrates.chart_kernel import Event, get_scenario, sample_events
from surfrates.errors import ShellDegenerateError
from surfrates.geometry import motion_at
from surfrates.thinfilm import (
    LIMIT_QUANTITIES,
    fit_order,
    limit_study,
    shell_velocity,
    shell_velocity_gradient,
)


def _report(surface, quantity, event):
    """The limit study's report of one quantity."""
    return limit_study(surface, event)[LIMIT_QUANTITIES.index(quantity)]


def test_shell_velocity_reduces_to_material(torus_drift, torus_events):
    ev = torus_events[1]
    mot = motion_at(torus_drift, ev)
    assert_allclose(shell_velocity(torus_drift, ev, 0.0), mot.V_m, atol=1e-12)


def test_shell_gradient_limits_to_surface_gradient(torus_drift, torus_events):
    ev = torus_events[2]
    mot = motion_at(torus_drift, ev)
    grad = shell_velocity_gradient(torus_drift, ev, 0.0)
    assert np.max(np.abs(grad - mot.Gcal)) < 1e-8


def test_shell_degenerate_offset(torus_static):
    # the (R0=2, r=1) torus has principal curvature 1/r: offset xi = 1 folds
    with pytest.raises(ShellDegenerateError):
        shell_velocity_gradient(torus_static, Event(0.0, 0.3, 0.4), 1.0)


@pytest.mark.parametrize("quantity", LIMIT_QUANTITIES)
def test_limit_orders_torus_drift(torus_drift, quantity):
    ev = sample_events(torus_drift, 1, 7)[0]
    rep = _report(torus_drift, quantity, ev)
    assert rep.fitted_order >= 0.9
    assert len(rep.rows) == 4


def test_exact_limits_report_inf(torus_drift):
    ev = sample_events(torus_drift, 1, 9)[0]
    rep = _report(torus_drift, "JaumannDt", ev)
    assert math.isinf(rep.fitted_order)
    assert rep.to_json_obj()["fitted_order"] == "inf"


@pytest.mark.parametrize("quantity", LIMIT_QUANTITIES)
def test_limit_study_detects_biased_shell_gradient(torus_drift, quantity, monkeypatch):
    # a constant 1e-2 error in the bulk velocity gradient does not vanish as
    # xi -> 0, so every limit must lose its order
    exact = thinfilm.shell_velocity_gradient

    def biased(surface, event, xi):
        gradv = exact(surface, event, xi).copy()
        gradv[0, 1] += 1e-2
        return gradv

    monkeypatch.setattr(thinfilm, "shell_velocity_gradient", biased)
    ev = sample_events(torus_drift, 1, 7)[0]
    assert _report(torus_drift, quantity, ev).fitted_order < 0.9


def test_limit_study_takes_one_shell_gradient_per_offset(monkeypatch):
    from surfrates.cli import run_converge_thinfilm

    calls = []
    exact = thinfilm.shell_velocity_gradient

    def counted(surface, event, xi):
        calls.append(xi)
        return exact(surface, event, xi)

    monkeypatch.setattr(thinfilm, "shell_velocity_gradient", counted)
    report = run_converge_thinfilm("torus-breathing-drift")
    assert [r["quantity"] for r in report["reports"]] == list(LIMIT_QUANTITIES)
    assert calls == [0.1, 0.05, 0.025, 0.0125]


def test_fit_order_recovers_slope():
    rows = [(h, 0.7 * h**1.8) for h in (0.1, 0.05, 0.025, 0.0125)]
    assert_allclose(fit_order(rows), 1.8, atol=1e-10)
    zero_rows = [(h, 0.0) for h in (0.1, 0.05)]
    assert math.isinf(fit_order(zero_rows))


def test_convergence_report_json_shape(torus_drift):
    ev = sample_events(torus_drift, 1, 7)[0]
    rep = _report(torus_drift, "UpperDt", ev)
    obj = rep.to_json_obj()
    assert obj["quantity"] == "UpperDt"
    assert isinstance(obj["fitted_order"], float)
    assert [r["xi"] for r in obj["rows"]] == [0.1, 0.05, 0.025, 0.0125]


def test_shell_closures_broadcast(torus_drift, torus_events):
    ev = torus_events[2]
    a = ev.y1 + np.array([-0.01, 0.0, 0.02])
    b = ev.y2 + np.array([0.01, -0.02, 0.0])

    def velocity(xi):
        return lambda a, b: shell_velocity(torus_drift, Event(ev.t, a, b), xi)

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



def _as_batch(events):
    return Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events])))


@pytest.mark.parametrize("name", ["torus-breathing-drift", "sphere-expanding", "plane-shear"])
@pytest.mark.parametrize("xi", [0.0, 0.05])
def test_batch_shell_gradient_equals_stacked_events(name, xi):
    surface = get_scenario(name)
    events = sample_events(surface, 5, 11)
    batched = shell_velocity_gradient(surface, _as_batch(events), xi)
    want = np.stack([shell_velocity_gradient(surface, ev, xi) for ev in events], axis=-1)
    assert batched.shape == want.shape == (3, 3, 5)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(batched - want)) <= 4 * np.finfo(float).eps * scale


def test_batch_with_one_focal_point_raises(torus_static):
    # at xi = -1 the inner equator y1 = pi of the (R0=2, r=1) torus reaches
    # the axis; the other points of the batch are regular
    y1 = np.array([0.3, 2.0, np.pi])
    y2 = np.array([0.4, 1.0, 2.5])
    shell_velocity_gradient(torus_static, Event(0.0, y1[:2], y2[:2]), -1.0)
    with pytest.raises(ShellDegenerateError):
        shell_velocity_gradient(torus_static, Event(0.0, y1, y2), -1.0)


@pytest.mark.parametrize("quantity", LIMIT_QUANTITIES)
def test_batch_limit_rows_are_the_worst_event(torus_drift, quantity):
    events = sample_events(torus_drift, 3, 7)
    rep = _report(torus_drift, quantity, _as_batch(events))
    singles = [_report(torus_drift, quantity, ev).rows for ev in events]
    exact = math.isinf(rep.fitted_order)
    assert exact == (quantity == "JaumannDt")
    for k, (xi, err) in enumerate(rep.rows):
        assert xi == singles[0][k][0]
        worst = max(rows[k][1] for rows in singles)
        # an exact limit's errors are round-off (about 2e-11), so they are
        # compared on the absolute scale max(1, |value|)
        assert abs(err - worst) <= 1e-12 * (1.0 if exact else worst)
