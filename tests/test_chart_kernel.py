from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from surfrates import _fd
from surfrates.chart_kernel import (
    _BREATHING,
    _GROWING,
    _T_RANGE,
    _UNIT,
    ChartJet,
    Domain,
    Event,
    _memo_jets,
    fd_variant,
    get_scenario,
    list_scenarios,
    make_observer_pair,
    rotating_chart_motion,
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
    "torus-breathing-swirl",
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


def _periodic_axes():
    """(scenario, axis, lo, hi) of every periodic axis of a registered domain."""
    out = []
    for name in list_scenarios():
        dom = get_scenario(name).domain
        for axis, (rng, periodic) in enumerate(
            ((dom.y1_range, dom.periodic1), (dom.y2_range, dom.periodic2))
        ):
            if periodic:
                out.append(pytest.param(name, axis, *rng, id=f"{name}-y{axis + 1}"))
    return out


def _wrapped(dom, axis, y):
    other = np.full(np.shape(y), 0.5 * sum((dom.y1_range, dom.y2_range)[1 - axis]))
    return dom.wrap(*((y, other) if axis == 0 else (other, y)))[axis]


def _reduced(lo, hi, y):
    return lo + np.mod(np.asarray(y, float) - lo, hi - lo)


@pytest.mark.parametrize("name, axis, lo, hi", _periodic_axes())
def test_wrap_keeps_in_cell_values_bit_for_bit(name, axis, lo, hi):
    # grid nodes and random values strictly inside the cell, and the nearest
    # floats to its ends, come back as the reduction gives them, in arrays
    # of a few values and of many
    dom = get_scenario(name).domain
    nodes = lo + (np.arange(128) + 0.5) * (hi - lo) / 128
    grid = np.meshgrid(nodes, nodes)[0]
    inside = np.random.default_rng(7).uniform(lo, hi, 300)
    ends = np.array([np.nextafter(lo, hi), 1e-300 + lo, np.nextafter(hi, lo)])
    for y in (nodes, grid, inside[inside > lo], ends, np.resize(ends, 300)):
        got = _wrapped(dom, axis, y)
        assert got.tobytes() == _reduced(lo, hi, y).tobytes()


@pytest.mark.parametrize("name, axis, lo, hi", _periodic_axes())
def test_wrap_reduces_values_outside_the_cell(name, axis, lo, hi):
    # one value at lo, below lo, exactly at hi or far outside sends the whole
    # array through the reduction, -0.0 included
    dom = get_scenario(name).domain
    span = hi - lo
    for bad in (lo, -0.0, lo - 0.2, hi, hi + 1e-9, lo - 50.0 * span, lo + 1e3 * span):
        for size in (3, 300):
            y = np.linspace(lo + 0.25 * span, lo + 0.75 * span, size)
            y[size // 2] = bad
            got = _wrapped(dom, axis, y)
            assert got.tobytes() == _reduced(lo, hi, y).tobytes()
            assert np.all((got >= lo) & (got <= hi))
    assert _wrapped(dom, axis, np.array([hi]))[0] == lo


def test_wrap_reduces_every_array_on_a_cell_off_zero():
    # on (-pi, pi) the reduction rounds some in-cell values, so a point gets
    # the reduction's bits alike in a stencil of 3 values and in a batch of 300
    dom = Domain((-np.pi, np.pi), (0.0, 1.0), True, False)
    y = np.random.default_rng(3).uniform(-1.0, 1.0, 300)
    want = _reduced(-np.pi, np.pi, y)
    assert np.count_nonzero(want != y) > 100
    assert _wrapped(dom, 0, y).tobytes() == want.tobytes()
    for i in range(0, 300, 3):
        assert _wrapped(dom, 0, y[i : i + 3]).tobytes() == want[i : i + 3].tobytes()


def test_wrap_takes_scalars_mixed_shapes_and_empty_arrays():
    dom = get_scenario("sphere-static").domain
    y1, y2 = dom.wrap(1.0, 2.0 * np.pi + 0.5)
    assert np.shape(y1) == np.shape(y2) == ()
    assert y1 == 1.0 and y2 == pytest.approx(0.5, abs=1e-15)
    y1, y2 = dom.wrap(np.asarray(1.0), np.asarray(0.5))
    assert np.shape(y1) == np.shape(y2) == () and float(y2) == 0.5
    # each coordinate keeps its own shape, and a scalar on the non-periodic
    # axis comes back as given
    y1, y2 = dom.wrap(1.0, np.array([0.5, 7.0, -1.0]))
    assert y1 == 1.0 and np.shape(y1) == () and y2.shape == (3,)
    assert_allclose(y2, [0.5, 7.0 - 2.0 * np.pi, 2.0 * np.pi - 1.0], rtol=0, atol=1e-15)
    y1, y2 = dom.wrap(np.full((4, 1), 1.0), np.linspace(0.0, 7.0, 5)[None, :])
    assert y1.shape == (4, 1) and y2.shape == (1, 5)
    # an empty array, which has no minimum, is reduced like any other
    with pytest.raises(ValueError):
        np.empty(0).min()
    for y1 in (np.empty(0), 1.0):
        got = dom.wrap(y1, np.empty(0))
        assert np.shape(got[0]) == np.shape(y1) and got[1].shape == (0,)
    assert dom.wrap(np.empty((0, 3)), np.empty((0, 3)))[1].shape == (0, 3)


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


def test_memo_jets_keep_one_read_only_jet_per_point_set():
    # equal points, in new arrays, give the one kept jet, bit-equal to the
    # surface's own; a t one ulp off is another point set; no array of a kept
    # jet can be written
    surface = get_scenario("torus-breathing-drift")
    memo = _memo_jets(surface)
    y1, y2 = np.array([0.4, 1.3]), np.array([2.0, 5.1])
    jet = memo.jet(0.3, y1, y2)
    assert memo.jet(np.float64(0.3), y1.copy(), y2.copy()) is jet
    own = surface.jet(0.3, y1, y2)
    for key in ("X", "dX", "ddX", "Vt", "dVt"):
        assert_array_equal(getattr(jet, key), getattr(own, key))
        assert not getattr(jet, key).flags.writeable
    with pytest.raises(ValueError):
        jet.dX[0, 0] = 1.0
    off = memo.jet(np.nextafter(0.3, 1.0), y1, y2)
    assert off is not jet
    assert memo.jet(np.nextafter(0.3, 1.0), y1, y2) is off
    # the same values on another shape are another point set
    assert memo.jet(0.3, y1[:, None], y2[:, None]) is not jet
    assert own.dX.flags.writeable


def test_memo_jets_leave_fd_twins_and_the_surface_alone():
    surface = get_scenario("sphere-expanding")
    twin = fd_variant(surface)
    assert _memo_jets(twin) is twin
    jets = surface.jets
    assert _memo_jets(surface).jets is not jets
    assert surface.jets is jets


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fd_jet_takes_three_chart_calls(name):
    # one chart call per stencil: X and its partials (25 points), Vt (4) and
    # dVt, the time stencil nested in the spatial one (8 x 4)
    surface = fd_variant(get_scenario(name))
    points = []

    def chart(t, y1, y2):
        points.append(np.broadcast(t, y1, y2).size)
        return surface.chart(t, y1, y2)

    ev = sample_events(surface, 1, 3)[0]
    replace(surface, chart=chart).jet(ev.t, ev.y1, ev.y2)
    assert points == [25, 4, 32]


def test_fd_u_jets_match_analytic(torus_drift):
    # a constant u on torus-breathing-drift, and a u that varies in space on
    # torus-breathing-swirl, whose closed-form jets are not zero
    for surface in (torus_drift, get_scenario("torus-breathing-swirl")):
        ev = sample_events(surface, 1, 5)[0]
        du_a = surface.u_jet(ev.t, ev.y1, ev.y2)
        fd = fd_variant(surface, 0.005)
        du_f = fd.u_jet(ev.t, ev.y1, ev.y2)
        assert_allclose(du_f, du_a, atol=1e-9)


def test_static_scenarios_have_zero_chart_velocity():
    for name in ("sphere-static", "torus-static", "plane-static"):
        surface = get_scenario(name)
        ev = sample_events(surface, 1, 7)[0]
        jet = surface.jet(ev.t, ev.y1, ev.y2)
        assert_allclose(jet.Vt, 0.0, atol=1e-15)
        assert_allclose(jet.dVt, 0.0, atol=1e-15)


JET_BLOCKS = ("X", "dX", "ddX", "Vt", "dVt")
# (tube radius, its rate) of each registered torus, about a circle of radius 2
TORI = {"torus-static": _UNIT, "torus-breathing": _BREATHING, "torus-breathing-drift": _BREATHING}


def _stacked_torus_jet(name, t, y1, y2):
    """The torus jet as np.stack of its componentwise formulas on full
    coordinate arrays: the bits and the memory layout that the per-axis
    torus jets keep."""
    r_of_t, rd_of_t = TORI[name]
    y1 = np.asarray(y1, float)
    y2 = np.asarray(y2, float)
    st, ct = np.sin(y1), np.cos(y1)
    sp, cp = np.sin(y2), np.cos(y2)
    zero = np.zeros_like(st)
    r, rd = r_of_t(t), rd_of_t(t)
    w = 2.0 + r * ct
    d_aa = np.stack([-r * ct * cp, -r * ct * sp, -r * st])
    d_ab = np.stack([r * st * sp, -r * st * cp, zero])
    d_bb = np.stack([-w * cp, -w * sp, zero])
    return ChartJet(
        X=np.stack([w * cp, w * sp, r * st]),
        dX=np.stack(
            [np.stack([-r * st * cp, -r * st * sp, r * ct]), np.stack([-w * sp, w * cp, zero])],
            axis=1,
        ),
        ddX=np.stack(
            [np.stack([d_aa, d_ab], axis=1), np.stack([d_ab, d_bb], axis=1)], axis=1
        ),
        Vt=rd * np.stack([ct * cp, ct * sp, st]),
        dVt=np.stack(
            [
                rd * np.stack([-st * cp, -st * sp, ct]),
                rd * np.stack([-ct * sp, ct * cp, zero]),
            ],
            axis=1,
        ),
    )


# (radius, its rate) of each registered sphere
SPHERES = {"sphere-static": _UNIT, "sphere-expanding": _GROWING, "sphere-rigid-rotation": _UNIT}


def _stacked_sphere_jet(name, t, y1, y2):
    """The sphere jet as R(t) times np.stack of the unit sphere's
    componentwise formulas on full coordinate arrays."""
    R_of_t, Rd_of_t = SPHERES[name]
    y1 = np.asarray(y1, float)
    y2 = np.asarray(y2, float)
    st, ct = np.sin(y1), np.cos(y1)
    sp, cp = np.sin(y2), np.cos(y2)
    zero = np.zeros_like(st)
    R, Rd = R_of_t(t), Rd_of_t(t)
    s = np.stack([st * cp, st * sp, ct])
    s_a = np.stack([ct * cp, ct * sp, -st])
    s_b = np.stack([-st * sp, st * cp, zero])
    s_ab = np.stack([-ct * sp, ct * cp, zero])
    s_bb = np.stack([-st * cp, -st * sp, zero])
    return ChartJet(
        X=R * s,
        dX=np.stack([R * s_a, R * s_b], axis=1),
        ddX=np.stack(
            [np.stack([R * -s, R * s_ab], axis=1), np.stack([R * s_ab, R * s_bb], axis=1)],
            axis=1,
        ),
        Vt=Rd * s,
        dVt=np.stack([Rd * s_a, Rd * s_b], axis=1),
    )


def _assert_same_jet(got, want, maxulp=0):
    """Equal shapes and C-ordered strides, and equal bytes, or with maxulp
    equal within maxulp units in the last place."""
    for key in JET_BLOCKS:
        a, b = getattr(got, key), getattr(want, key)
        assert a.shape == b.shape, key
        assert a.flags.c_contiguous, key
        assert a.strides == b.strides, key
        if maxulp:
            np.testing.assert_array_max_ulp(a, b, maxulp)
        else:
            assert a.tobytes() == b.tobytes(), key


def _assert_stacked_jet(name, got, t, y1, y2):
    """got is the stacked jet of the sphere or torus name: to the bit, except
    on a sphere of radius R(t) != 1, where the jets take (R sin y1) cos y2
    for R (sin y1 cos y2) and may differ in the last places."""
    if name in TORI:
        _assert_same_jet(got, _stacked_torus_jet(name, t, y1, y2))
    else:
        maxulp = 0 if SPHERES[name] is _UNIT else 4
        _assert_same_jet(got, _stacked_sphere_jet(name, t, y1, y2), maxulp)


def _grid_axes(surface, n1=24, n2=20):
    (a1, b1), (a2, b2) = surface.domain.y1_range, surface.domain.y2_range
    return (
        a1 + (np.arange(n1) + 0.5) * (b1 - a1) / n1,
        a2 + (np.arange(n2) + 0.5) * (b2 - a2) / n2,
    )


@pytest.mark.parametrize("name", list(TORI) + list(SPHERES))
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_torus_jets_on_grid_axes_equal_the_stacked_formulas(name, t):
    # the jets of every surface of revolution on the grid axes, (n1, 1) and
    # (1, n2) arrays that the jets broadcast, and on the full meshgrid both
    # have the C-ordered strides of the stacked formulas and their bits
    # (within 4 ulp on the expanding sphere); a transposed layout would pass
    # into every einsum of the flow state
    surface = get_scenario(name)
    y1, y2 = _grid_axes(surface)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    _assert_stacked_jet(name, surface.jet(t, y1[:, None], y2[None, :]), t, Y1, Y2)
    _assert_stacked_jet(name, surface.jet(t, Y1, Y2), t, Y1, Y2)


@pytest.mark.parametrize("name", list(TORI) + list(SPHERES))
@pytest.mark.parametrize("kind", ["scalar", "0-d", "batch"])
def test_torus_jets_at_points_equal_the_stacked_formulas(name, kind):
    surface = get_scenario(name)
    events = sample_events(surface, 5, 31)
    if kind == "batch":
        t, y1, y2 = (np.array(v) for v in zip(*((e.t, e.y1, e.y2) for e in events)))
    else:
        cast = float if kind == "scalar" else np.array
        t, y1, y2 = (cast(v) for v in (events[0].t, events[0].y1, events[0].y2))
    _assert_stacked_jet(name, surface.jet(t, y1, y2), t, y1, y2)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda n=n: get_scenario(n), id=n) for n in list_scenarios()]
    + [
        pytest.param(lambda: fd_variant(get_scenario("plane-shear")), id="plane-shear+fd"),
        pytest.param(
            lambda: make_observer_pair(
                get_scenario("torus-breathing-drift"), rotating_chart_motion(0.35)
            )[1],
            id="torus-breathing-drift+observer",
        ),
    ],
)
def test_closures_on_grid_axes_equal_their_values_on_the_meshgrid(make):
    # make_grid and the grid checks hand the chart its axes as (n1, 1) and
    # (1, n2) arrays, and Domain.wrap passes them on as they are; every
    # closure, whether closed-form (the plane jets, the zero and the
    # constant relative velocity, the chart motion of an observer) or a
    # stencil, broadcasts them and gives the shape and bytes it gives on the
    # meshgrid
    surface = make()
    y1, y2 = _grid_axes(surface)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    for t in (0.0, 0.37, 1.0):
        axes, grid = surface.jet(t, y1[:, None], y2[None, :]), surface.jet(t, Y1, Y2)
        for key in JET_BLOCKS:
            _assert_same_bytes(getattr(axes, key), getattr(grid, key))
        for closure in (surface.u, surface.u_jet):
            _assert_same_bytes(closure(t, y1[:, None], y2[None, :]), closure(t, Y1, Y2))
