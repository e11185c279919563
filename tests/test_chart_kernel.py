import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from surfrates import _fd
from surfrates.chart_kernel import (
    _T_RANGE,
    Domain,
    Event,
    fd_variant,
    get_scenario,
    list_scenarios,
    sample_events,
)
from surfrates.errors import ConfigError, DomainError

ALL_SCENARIOS = (
    "plane-static",
    "plane-shear",
    "sphere-static",
    "sphere-expanding",
    "sphere-rigid-rotation",
    "torus-static",
    "torus-breathing",
    "torus-breathing-drift",
    "flat-torus",
)


def test_scenario_registry_complete():
    names = list_scenarios()
    for name in ALL_SCENARIOS:
        assert name in names


def test_get_scenario_unknown_name():
    with pytest.raises(ConfigError):
        get_scenario("does-not-exist")


def test_domain_wrap_periodic():
    dom = Domain((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), True, True)
    y1, y2 = dom.wrap(2.0 * np.pi + 0.3, -0.2)
    assert_allclose(y1, 0.3)
    assert_allclose(y2, 2.0 * np.pi - 0.2)


def test_domain_contains_nonperiodic():
    dom = Domain((0.0, 1.0), (0.0, 1.0), False, False)
    assert dom.contains(0.5, 0.5)
    assert not dom.contains(1.5, 0.5)


def test_out_of_domain_event_raises(sphere_static):
    from surfrates.geometry import geometry_at

    with pytest.raises(DomainError):
        geometry_at(sphere_static, Event(0.2, 0.01, 1.0))


def test_sample_events_deterministic(torus_drift):
    a = sample_events(torus_drift, 10, 99)
    b = sample_events(torus_drift, 10, 99)
    assert a == b
    t0, t1 = _T_RANGE
    for ev in a:
        assert t0 <= ev.t <= t1
        assert torus_drift.domain.contains(ev.y1, ev.y2)


@pytest.mark.parametrize("name", ["sphere-expanding", "torus-breathing-drift"])
def test_fd_jets_fourth_order(name):
    surface = get_scenario(name)
    ev = sample_events(surface, 1, 3)[0]
    exact = surface.jet(ev.t, ev.y1, ev.y2)
    errs = []
    for h in (0.02, 0.01, 0.005):
        fd = fd_variant(surface, h).jet(ev.t, ev.y1, ev.y2)
        errs.append(
            max(
                np.max(np.abs(fd.dX - exact.dX)),
                np.max(np.abs(fd.ddX - exact.ddX)),
                np.max(np.abs(fd.Vt - exact.Vt)),
                np.max(np.abs(fd.dVt - exact.dVt)),
            )
        )
    for e0, e1 in zip(errs, errs[1:]):
        assert 14.0 < e0 / e1 < 18.0


@pytest.mark.parametrize("name", ["sphere-expanding", "torus-breathing-drift"])
def test_fd_jets_broadcast_array_time(name, monkeypatch):
    # t takes the stencils' trailing offset axis as y1 and y2 do, so a jet at
    # array t makes no per-offset call and equals the pointwise jets
    calls = []
    orig = _fd._per_offset

    def spy(f, *args):
        calls.append(args[0].shape)
        return orig(f, *args)

    monkeypatch.setattr(_fd, "_per_offset", spy)
    surface = fd_variant(get_scenario(name))
    events = sample_events(surface, 3, 8)
    t, y1, y2 = (np.array(v) for v in zip(*((e.t, e.y1, e.y2) for e in events)))
    batched = surface.jet(t, y1, y2)
    assert calls == []
    for k, ev in enumerate(events):
        point = surface.jet(ev.t, ev.y1, ev.y2)
        for key in ("X", "dX", "ddX", "Vt", "dVt"):
            assert_array_equal(getattr(batched, key)[..., k], getattr(point, key))


def test_fd_u_jets_match_analytic(torus_drift):
    ev = sample_events(torus_drift, 1, 5)[0]
    du_a = torus_drift.u_jet(ev.t, ev.y1, ev.y2)
    fd = fd_variant(torus_drift, 0.005)
    du_f = fd.u_jet(ev.t, ev.y1, ev.y2)
    assert_allclose(du_f, du_a, atol=1e-9)


def test_static_scenarios_have_zero_chart_velocity():
    for name in ("sphere-static", "torus-static", "plane-static"):
        surface = get_scenario(name)
        ev = sample_events(surface, 1, 7)[0]
        jet = surface.jet(ev.t, ev.y1, ev.y2)
        assert_allclose(jet.Vt, 0.0, atol=1e-15)
        assert_allclose(jet.dVt, 0.0, atol=1e-15)
