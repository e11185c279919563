from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from surfrates.chart_kernel import (
    ChartJet,
    Event,
    MovingSurface,
    fd_variant,
    get_scenario,
    make_observer_pair,
    rotating_chart_motion,
    sample_events,
)
from surfrates.errors import InversionError
from surfrates.fields import q_to_cart
from surfrates.geometry import geometry_at, motion_at
from surfrates.probes import probe_field, probe_q_field, probe_scalar
from surfrates.timederiv import DerivKind, convected_dt, material_dt, q_dt, scalar_dot
from surfrates.util import rel_residual

KINDS = (DerivKind.Upper, DerivKind.Lower, DerivKind.Jaumann)


def sheared_motion(t, z1, z2):
    """The jets of phi_t(z) = (z1, z2 + 0.3 sin z1 + 0.35 t): a periodic
    drift whose Jacobian is not symmetric, so it tells (d phi)^-1 from its
    transpose."""
    t, z1, z2 = np.broadcast_arrays(*(np.asarray(x, float) for x in (t, z1, z2)))
    s = np.shape(z1)
    dX = np.zeros((2, 2) + s)
    dX[0, 0] = dX[1, 1] = 1.0
    dX[1, 0] = 0.3 * np.cos(z1)
    ddX = np.zeros((2, 2, 2) + s)
    ddX[1, 0, 0] = -0.3 * np.sin(z1)
    Vt = np.zeros((2,) + s)
    Vt[1] = 0.35
    return ChartJet(
        X=np.stack([z1, z2 + 0.3 * np.sin(z1) + 0.35 * t]),
        dX=dX,
        ddX=ddX,
        Vt=Vt,
        dVt=np.zeros((2, 2) + s),
    )


MOTIONS = {"rotating": rotating_chart_motion(0.35), "sheared": sheared_motion}


def _pair(name):
    motion = MOTIONS[name]
    base, observed, point_map = make_observer_pair(get_scenario("torus-breathing-drift"), motion)
    return base, observed, point_map, motion


@pytest.fixture(scope="module", params=sorted(MOTIONS))
def pair(request):
    return _pair(request.param)


def test_geometry_agrees_at_mapped_events(pair):
    base, observed, point_map, _ = pair
    for ev_b in sample_events(observed, 5, 3):
        ev_a = point_map(ev_b)
        ga = geometry_at(base, ev_a)
        gb = geometry_at(observed, ev_b)
        assert_allclose(gb.jet.X, ga.jet.X, atol=1e-12)
        assert_allclose(gb.nu, ga.nu, atol=1e-12)
        assert_allclose(gb.H, ga.H, atol=1e-10)
        assert_allclose(gb.K, ga.K, atol=1e-10)


def test_material_velocity_invariant(pair):
    base, observed, point_map, _ = pair
    for ev_b in sample_events(observed, 5, 3):
        ev_a = point_map(ev_b)
        ma = motion_at(base, ev_a)
        mb = motion_at(observed, ev_b)
        assert_allclose(mb.V_m, ma.V_m, atol=1e-10)
        assert_allclose(mb.Gcal, ma.Gcal, atol=1e-10)
        assert_allclose(mb.Acal, ma.Acal, atol=1e-10)
        # the observer velocities themselves differ
        assert np.max(np.abs(mb.V_o - ma.V_o)) > 1e-3


def test_scalar_rate_invariant(pair):
    base, observed, point_map, motion = pair

    def f_b(t, z1, z2):
        y = motion(t, z1, z2).X
        return probe_scalar(t, y[0], y[1])

    for ev_b in sample_events(observed, 4, 9):
        ev_a = point_map(ev_b)
        da = scalar_dot(base, probe_scalar, ev_a)
        db = scalar_dot(observed, f_b, ev_b)
        assert abs(da - db) / max(1.0, abs(da)) < 1e-8


@pytest.mark.parametrize("rank", [1, 2])
def test_derivative_invariance(pair, pull_back, rank):
    # the proxy routes read the composed eval, the Decomposed routes the
    # pulled-back blocks
    base, observed, point_map, motion = pair
    PA = probe_field(base, rank)
    PB = pull_back(PA, motion)
    for ev_b in sample_events(observed, 3, 13):
        ev_a = point_map(ev_b)
        for path in ("CartesianProxy", "Decomposed"):
            da = material_dt(base, PA, ev_a, path)
            db = material_dt(observed, PB, ev_b, path)
            assert rel_residual(da, db) < 1e-6, path
        for kind in KINDS:
            for path in ("ViaMaterial", "Decomposed"):
                da = convected_dt(base, PA, ev_a, kind, path)
                db = convected_dt(observed, PB, ev_b, kind, path)
                assert rel_residual(da, db) < 1e-6, (kind, path)


def _q_rate_residual(pair, q_b, kind):
    """Largest relative residual between the proxies of q_dt of the Q probe
    and of ``q_b``, its observed field, at mapped events."""
    base, observed, point_map, _ = pair
    q_a = probe_q_field(base)
    worst = 0.0
    for ev_b in sample_events(observed, 3, 17):
        ev_a = point_map(ev_b)
        qa = q_to_cart(geometry_at(base, ev_a), q_dt(base, q_a, ev_a, kind))
        qb = q_to_cart(geometry_at(observed, ev_b), q_dt(observed, q_b, ev_b, kind))
        worst = max(worst, rel_residual(qa, qb))
    return worst


@pytest.mark.parametrize("kind", [DerivKind.Material, DerivKind.Jaumann])
def test_q_derivative_invariance(pair, pull_back, kind):
    q_b = pull_back(probe_q_field(pair[0]), pair[3])
    assert _q_rate_residual(pair, q_b, kind) < 1e-6


@pytest.mark.parametrize("kind", [DerivKind.Material, DerivKind.Jaumann])
def test_a_composed_q_split_is_not_the_observed_field(pull_back, kind):
    # composing the blocks with phi leaves out (d phi)^-1 on their chart
    # indices, which only a Jacobian other than the identity shows (0.47 to
    # 0.51 measured on the sheared map)
    pair = _pair("sheared")
    q_a, motion = probe_q_field(pair[0]), pair[3]

    def composed(t, z1, z2):
        y = motion(t, z1, z2).X
        return q_a.split_eval(t, y[0], y[1])

    q_b = replace(pull_back(q_a, motion), split_eval=composed)
    assert _q_rate_residual(pair, q_b, kind) > 1e-2


def test_observed_surface_passes_identity_suite(pair):
    from surfrates.geometry import check_identities

    _, observed, _, _ = pair
    for ev in sample_events(observed, 3, 15):
        report = check_identities(observed, ev)
        assert report.all_pass, report.to_json_obj()


def test_point_map_on_a_batch_equals_each_event(pair):
    _, observed, point_map, _ = pair
    events = sample_events(observed, 5, 3)
    batch = point_map(Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events]))))
    for k, ev_b in enumerate(events):
        ev_a = point_map(ev_b)
        assert (batch.t[k], batch.y1[k], batch.y2[k]) == (ev_a.t, ev_a.y1, ev_a.y2)


def test_fd_twin_of_observed_surface_matches_its_jets(pair):
    # the observed chart is the point X of the observed jets, so the
    # finite-difference twin differentiates the same map that the jets do
    _, observed, _, _ = pair
    fd = fd_variant(observed)
    for ev in sample_events(observed, 4, 21):
        exact = observed.jet(ev.t, ev.y1, ev.y2)
        approx = fd.jet(ev.t, ev.y1, ev.y2)
        assert_array_equal(approx.X, exact.X)
        for key in ("dX", "ddX", "Vt", "dVt"):
            assert_allclose(getattr(approx, key), getattr(exact, key), atol=1e-6)


def test_map_jets_match_fd_jets_of_its_point(pair):
    # a chart map is a two-component ChartJet, so the finite-difference jets
    # of its point X are the jets of any user map phi
    base, _, _, motion = pair
    fd = MovingSurface("map", chart=lambda t, a, b: motion(t, a, b).X, domain=base.domain)
    for ev in sample_events(base, 4, 5):
        exact = motion(ev.t, ev.y1, ev.y2)
        approx = fd.jet(ev.t, ev.y1, ev.y2)
        for key in ("X", "dX", "ddX", "Vt", "dVt"):
            assert_allclose(getattr(approx, key), getattr(exact, key), atol=1e-6)


def test_singular_map_raises_inversion_error():
    surface = get_scenario("torus-breathing-drift")

    def collapse(t, z1, z2):
        # phi_t(z) = (z1, 0.3): the second column of its Jacobian vanishes
        z1 = np.asarray(z1, float)
        s = np.shape(z1)
        dX = np.zeros((2, 2) + s)
        dX[0, 0] = 1.0
        return ChartJet(
            X=np.stack([z1, np.full(s, 0.3)]),
            dX=dX,
            ddX=np.zeros((2, 2, 2) + s),
            Vt=np.zeros((2,) + s),
            dVt=np.zeros((2, 2) + s),
        )

    _, observed, _ = make_observer_pair(surface, collapse)
    with pytest.raises(InversionError, match="singular"):
        observed.u(0.4, 1.0, 2.0)
