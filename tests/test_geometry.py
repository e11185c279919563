from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from surfrates import landau
from surfrates.chart_kernel import (
    ChartJet,
    Domain,
    Event,
    MovingSurface,
    fd_variant,
    get_scenario,
    list_scenarios,
    sample_events,
)
from surfrates.diffops import scalar_laplace
from surfrates.errors import NonEmbeddingError
from surfrates.geometry import (
    _covariant_derivative,
    _metric,
    _unit_normal,
    check_identities,
    geometry_at,
    geometry_from_jet,
    motion_at,
    motion_grid,
)
from surfrates.landau import FlowConfig, LdGParams, run_flow
from surfrates.probes import probe_scalar, probe_scalar_b
from surfrates.util import det2, inv2

MOTION_FIELDS = (
    "V_o", "V_m", "dV_o", "dV_m", "u2", "Du", "vperp", "G",
    "b_cov", "b3", "G_obs", "b_obs_cov", "b_obs3", "A", "Gcal", "Acal",
)


def test_torus_geometry_literals(torus_static):
    # closed forms for the (R0=2, r=1) torus at (theta, phi) = (0.7, 1.1)
    geom = geometry_at(torus_static, Event(0.0, 0.7, 1.1))
    assert_allclose(geom.g, np.diag([1.0, 7.644352320588075]), atol=1e-12)
    assert_allclose(geom.Gamma[0, 1, 1], 1.7811602394696122, atol=1e-12)
    assert_allclose(geom.Gamma[1, 0, 1], -0.2330034206655442, atol=1e-12)
    assert_allclose(
        geom.nu,
        [-0.34692944965489897, -0.681632986593423, -0.644217687237691],
        atol=1e-12,
    )
    assert_allclose(geom.II, np.diag([1.0, 2.1146679460190976]), atol=1e-12)
    assert_allclose(geom.B_mixed, np.diag([1.0, 0.2766314080427441]), atol=1e-12)
    assert_allclose(geom.H, 1.276631408042744, atol=1e-12)
    assert_allclose(geom.K, 0.2766314080427441, atol=1e-12)


def test_expanding_sphere_motion_literals():
    surface = get_scenario("sphere-expanding")
    ev = Event(0.3, 1.1, 0.6)
    geom = geometry_at(surface, ev)
    mot = motion_at(surface, ev, geom)
    assert_allclose(mot.vperp, 0.25, atol=1e-12)
    assert_allclose(mot.G, 0.23255813953488372 * np.eye(2), atol=1e-12)
    assert_allclose(mot.b_cov, 0.0, atol=1e-12)
    assert_allclose(geom.H, -1.8604651162790697, atol=1e-12)
    assert_allclose(geom.K, 0.8653326122228232, atol=1e-12)


def test_rigid_rotation_material_velocity(sphere_rot):
    mot = motion_at(sphere_rot, Event(0.0, 1.0, 0.5))
    assert_allclose(
        mot.V_m, [-0.2823958760779344, 0.5169221838228901, 0.0], atol=1e-12
    )
    # rigid motion: symmetric part of the full velocity gradient vanishes
    assert_allclose(mot.Gcal + mot.Gcal.T, 0.0, atol=1e-12)


def test_unit_sphere_orientation(sphere_static):
    geom = geometry_at(sphere_static, Event(0.0, 1.2, 2.0))
    # outward normal: shape operator is minus the identity, H = -2, K = 1
    assert_allclose(geom.nu, geom.jet.X, atol=1e-12)
    assert_allclose(geom.B_mixed, -np.eye(2), atol=1e-12)
    assert_allclose(geom.H, -2.0, atol=1e-12)
    assert_allclose(geom.K, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "name",
    [
        "plane-shear",
        "sphere-expanding",
        "sphere-rigid-rotation",
        "torus-breathing",
        "torus-breathing-drift",
        "flat-torus",
    ],
)
def test_identity_suite_analytic(name):
    surface = get_scenario(name)
    for ev in sample_events(surface, 5, 17):
        report = check_identities(surface, ev)
        assert report.all_pass, report.to_json_obj()


def test_check_identities_on_a_given_frame_matches_its_own(torus_drift):
    # the frame verify passes in gives the rows check_identities builds alone
    ev = Event(np.array([0.2, 0.7]), np.array([0.4, 2.5]), np.array([1.1, 5.0]))
    geom = geometry_at(torus_drift, ev)
    given = check_identities(torus_drift, ev, geom, motion_at(torus_drift, ev, geom))
    alone = check_identities(torus_drift, ev)
    assert given.to_json_obj() == alone.to_json_obj()
    assert len(alone.rows) == 15


def test_check_identities_builds_no_material_velocity(torus_drift, torus_events):
    # the velocity-split rows read the velocity gradients only, so the
    # material velocity V_m (one embed per event) is never built
    ev = torus_events[0]
    geom = geometry_at(torus_drift, ev)
    mot = motion_at(torus_drift, ev, geom)
    check_identities(torus_drift, ev, geom, mot)
    assert "dV_m" in vars(mot) and "V_m" not in vars(mot)


def test_identity_report_shape(torus_drift, torus_events):
    report = check_identities(torus_drift, torus_events[0])
    obj = report.to_json_obj()
    assert len(obj) == 15
    for row in obj:
        assert set(row) == {"identity_name", "residual", "tol", "pass"}


def test_degenerate_chart_raises():
    def chart(t, a, b):
        z = np.zeros_like(np.asarray(a, float))
        return np.stack([a + 0.0 * b, a + 0.0 * b, z])

    bad = MovingSurface(
        name="bad",
        chart=chart,
        domain=Domain((0.0, 1.0), (0.0, 1.0), False, False),
        u_field=None,
    )
    with pytest.raises(NonEmbeddingError):
        geometry_at(bad, Event(0.0, 0.5, 0.5))


def _eager_geometry(jet):
    """Every GeometrySample field by the formulas, in the order, of the
    eager geometry_from_jet that computed them all at construction."""
    g = _metric(jet.dX)
    detg = det2(g)
    ginv = inv2(g)
    Gamma_low = np.einsum("aij...,ak...->ijk...", jet.ddX, jet.dX)
    Gamma = np.einsum("kl...,ijl...->kij...", ginv, Gamma_low)
    nu = _unit_normal(jet.dX)
    II = np.einsum("aij...,a...->ij...", jet.ddX, nu)
    B_mixed = np.einsum("ik...,kj...->ij...", ginv, II)
    H = np.einsum("ii...->...", B_mixed)
    K = det2(B_mixed)
    dnu = -np.einsum("aj...,ji...->ai...", jet.dX, B_mixed)
    return {
        "g": g, "ginv": ginv, "sqrtdetg": np.sqrt(detg), "Gamma_low": Gamma_low,
        "Gamma": Gamma, "nu": nu, "dnu": dnu, "II": II, "B_mixed": B_mixed,
        "H": H, "K": K,
    }


def _grid_and_batch(surface):
    """A 32x32 grid inside the surface's domain, and a batch of 5 events."""
    (a1, b1), (a2, b2) = surface.domain.y1_range, surface.domain.y2_range
    frac = np.linspace(0.05, 0.95, 32)
    Y1, Y2 = np.meshgrid(a1 + frac * (b1 - a1), a2 + frac * (b2 - a2), indexing="ij")
    events = sample_events(surface, 5, 77)
    batch = Event(*(np.array([getattr(e, k) for e in events]) for k in ("t", "y1", "y2")))
    return Event(0.45, Y1, Y2), batch


@pytest.mark.parametrize("name", list_scenarios())
@pytest.mark.parametrize("where", ["grid", "batch"])
def test_geometry_fields_on_first_read_equal_the_eager_formulas(name, where):
    # fields computed on first read, in reverse order of their dependencies,
    # have the bits and the memory layout of the eager formulas
    surface = get_scenario(name)
    ev = _grid_and_batch(surface)[where == "batch"]
    jet = surface.jet(ev.t, ev.y1, ev.y2)
    want = _eager_geometry(jet)
    geom = geometry_from_jet(jet)
    assert set(vars(geom)) == {"jet", "g", "ginv", "sqrtdetg"}
    for field in reversed(list(want)):
        got = getattr(geom, field)
        assert got.shape == want[field].shape, field
        assert got.strides == want[field].strides, field
        assert got.tobytes() == want[field].tobytes(), field
        assert getattr(geom, field) is got, field


@pytest.mark.parametrize("mode", ["FullQ_Material", "FullQ_Jaumann"])
def test_full_tensor_flow_frames_compute_no_curvature(monkeypatch, torus_drift, mode):
    # a full-tensor frame and its motion read the metric, its inverse, the
    # area element and (through the motion) the normal; every other geometry
    # field of the frame's GeometrySample is never computed
    geoms = []
    make_grid = landau.make_grid

    def recorded(*args):
        gg = make_grid(*args)
        geoms.append(gg.geom)
        return gg

    monkeypatch.setattr(landau, "make_grid", recorded)
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=2, method="rk4")
    run_flow(torus_drift, LdGParams(), cfg)
    assert len(geoms) == 1 + 2 * cfg.steps
    for geom in geoms:
        assert not {"Gamma_low", "Gamma", "II", "B_mixed", "H", "K", "dnu"} & set(vars(geom))


def test_degenerate_jet_raises_at_construction():
    # d_2 X parallel to d_1 X at one of three points: det g = 0 there
    dX = np.zeros((3, 2, 3))
    dX[0, 0] = dX[1, 1] = 1.0
    dX[:, 1, 2] = dX[:, 0, 2]
    zeros = np.zeros((3, 3))
    jet = ChartJet(X=zeros, dX=dX, ddX=np.zeros((3, 2, 2, 3)), Vt=zeros, dVt=np.zeros((3, 2, 3)))
    with pytest.raises(NonEmbeddingError):
        geometry_from_jet(jet)


@settings(deadline=None, max_examples=40)
@given(
    y1=st.floats(0.2, 6.0),
    y2=st.floats(0.2, 6.0),
    t=st.floats(0.0, 1.0),
)
def test_cayley_hamilton_property(y1, y2, t):
    surface = get_scenario("torus-breathing")
    geom = geometry_at(surface, Event(t, y1, y2))
    B = geom.B_mixed
    assert_allclose(B @ B, geom.H * B - geom.K * np.eye(2), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(y1=st.floats(0.3, 2.8), y2=st.floats(0.1, 6.0))
def test_gradient_additivity_property(y1, y2):
    surface = get_scenario("sphere-rigid-rotation")
    ev = Event(0.4, y1, y2)
    geom = geometry_at(surface, ev)
    mot = motion_at(surface, ev, geom)
    assert_allclose(mot.G, mot.G_obs + mot.Du, atol=1e-10)
    assert_allclose(mot.b_cov, mot.b_obs_cov + geom.II @ mot.u2, atol=1e-10)


def test_gcal_antisymmetric_block_structure(torus_drift, torus_events):
    ev = torus_events[0]
    geom = geometry_at(torus_drift, ev)
    mot = motion_at(torus_drift, ev, geom)
    # normal-normal component of the full gradient proxy vanishes
    assert_allclose(geom.nu @ mot.Gcal @ geom.nu, 0.0, atol=1e-12)
    # Acal is antisymmetric
    assert_allclose(mot.Acal + mot.Acal.T, 0.0, atol=1e-12)


@pytest.mark.parametrize("name", list_scenarios())
def test_acal_closed_form_is_the_antisymmetric_part_of_gcal(name):
    # the cross-product matrix of b3 x nu - omega sqrt(det g) nu equals
    # (Gcal - Gcal^T)/2 at round-off, is exactly antisymmetric, and has the
    # memory layout of that difference; it is built without Gcal and A
    surface = get_scenario(name)
    grid, batch = _grid_and_batch(surface)
    ev = grid if surface.domain.periodic1 and surface.domain.periodic2 else batch
    mot = motion_at(surface, ev)
    Acal = mot.Acal
    assert not {"Gcal", "A"} & set(vars(mot))
    want = 0.5 * (mot.Gcal - np.einsum("ab...->ba...", mot.Gcal))
    assert np.max(np.abs(Acal - want)) <= 1e-13 * max(1.0, np.max(np.abs(mot.Gcal)))
    assert not np.any(Acal + np.einsum("ab...->ba...", Acal))
    assert not np.any(np.einsum("aa...->a...", Acal))
    assert Acal.flags.c_contiguous
    assert Acal.shape == want.shape
    assert Acal.strides == want.strides


@pytest.mark.parametrize(
    "name", [name for name in list_scenarios() if get_scenario(name).static]
)
def test_static_scenario_motion_is_time_independent(name):
    # a flow on a static surface builds its motion once, at t0
    surface = get_scenario(name)
    dom = surface.domain
    frac = np.array([0.2, 0.5, 0.8])
    Y1, Y2 = np.meshgrid(
        dom.y1_range[0] + frac * dom.spans[0],
        dom.y2_range[0] + frac * dom.spans[1],
        indexing="ij",
    )
    m0 = motion_grid(surface, 0.0, Y1, Y2)
    m1 = motion_grid(surface, 0.7, Y1, Y2)
    for name in MOTION_FIELDS:
        assert np.array_equal(getattr(m0, name), getattr(m1, name)), name


@pytest.mark.parametrize("shape", [(), (7, 5)])
def test_embed_mixed_matches_four_operand_contraction(torus_drift, shape):
    # the pairwise contractions dX (M g^-1) dX^T equal the one four-operand
    # einsum on a grid and at a single point
    rng = np.random.default_rng(11)
    Y1 = rng.uniform(0.0, 2.0 * np.pi, shape)
    Y2 = rng.uniform(0.0, 2.0 * np.pi, shape)
    geom = geometry_from_jet(torus_drift.jet(0.3, Y1, Y2))
    M = rng.normal(size=(2, 2) + shape)
    ref = np.einsum("ai...,ij...,jk...,bk...->ab...", geom.dX, M, geom.ginv, geom.dX)
    got = geom.embed_mixed(M)
    assert got.shape == (3, 3) + shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("conforming", [False, True])
def test_motion_fields_do_not_depend_on_read_order(torus_drift, conforming):
    # a flow frame reads only the arrays its state rate takes, so those blocks
    # are computed first; they agree bit for bit with a sample on which every
    # field was read, in the order of MOTION_FIELDS
    t = 0.37
    Y1, Y2 = np.meshgrid(np.linspace(0.0, 6.0, 24), np.linspace(0.1, 6.1, 24), indexing="ij")
    geom = geometry_from_jet(torus_drift.jet(t, Y1, Y2))
    full = motion_grid(torus_drift, t, Y1, Y2, geom)
    for name in MOTION_FIELDS:
        getattr(full, name)
    names = ("u2", "G_obs", "A") if conforming else ("u2", "Acal")
    mot = motion_grid(torus_drift, t, Y1, Y2, geom)
    for name in names:
        assert np.array_equal(getattr(mot, name), getattr(full, name)), name


_DOUBLY_PERIODIC = [
    pytest.param(get_scenario(name), id=name)
    for name in list_scenarios()
    if get_scenario(name).domain.periodic1 and get_scenario(name).domain.periodic2
] + [pytest.param(fd_variant(get_scenario("torus-breathing-drift")), id="fd-torus-breathing-drift")]


@pytest.mark.parametrize("surface", _DOUBLY_PERIODIC)
def test_motion_on_grid_axes_equals_motion_on_the_meshgrid(surface):
    # a grid's points are its axes, which the flow's motion and the grid
    # checks of verify and converge broadcast; every array they read keeps
    # the bits of the meshgrid's point set, finite-difference u-jets included
    gg = landau.make_grid(surface, 0.37, 16, 20)
    A1, A2 = gg.y1[:, None], gg.y2[None, :]
    Y1, Y2 = np.meshgrid(gg.y1, gg.y2, indexing="ij")

    def same_bits(got, want, name):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    axes = motion_grid(surface, gg.t, A1, A2, gg.geom)
    grid = motion_grid(surface, gg.t, Y1, Y2, gg.geom)
    for name in ("u2", "du", "G_obs", "A", "Acal"):
        same_bits(getattr(axes, name), getattr(grid, name), name)
    for probe in (probe_scalar, probe_scalar_b):
        same_bits(probe(0.3, A1, A2), probe(0.3, Y1, Y2), probe.__name__)
    same_bits(
        scalar_laplace(surface, probe_scalar, Event(gg.t, A1, A2), gg.geom),
        scalar_laplace(surface, probe_scalar, Event(gg.t, Y1, Y2), gg.geom),
        "scalar_laplace",
    )


# Covariant derivatives written out index by index, the partial index l last
# in dv and in the result: + Gamma^a_{lm} v^{..m..} for each upper index a,
# - Gamma^m_{lb} v_{..m..} for each lower index b.  (1, 1) and (2, 1) are the
# second covariant sweep of a rank-0 and a rank-1 block's T in the
# Decomposed Laplacians, and (0, 1) with a symmetric Gamma is the Hessian of
# the scalar Laplace-Beltrami operator.
_WRITTEN_OUT = {
    (1, 0): lambda G, v, dv: dv + np.einsum("ilm,m->il", G, v),
    (2, 0): lambda G, v, dv: (
        dv + np.einsum("ilm,mj->ijl", G, v) + np.einsum("jlm,im->ijl", G, v)
    ),
    (0, 1): lambda G, v, dv: dv - np.einsum("mlk,m->kl", G, v),
    (0, 2): lambda G, v, dv: (
        dv - np.einsum("mli,mj->ijl", G, v) - np.einsum("mlj,im->ijl", G, v)
    ),
    (1, 1): lambda G, v, dv: (
        dv + np.einsum("ilm,mk->ikl", G, v) - np.einsum("mlk,im->ikl", G, v)
    ),
    (2, 1): lambda G, v, dv: (
        dv
        + np.einsum("ilm,mjk->ijkl", G, v)
        + np.einsum("jlm,imk->ijkl", G, v)
        - np.einsum("mlk,ijm->ijkl", G, v)
    ),
}


@pytest.mark.parametrize("up, low", list(_WRITTEN_OUT))
def test_covariant_derivative_is_the_written_out_formula(up, low):
    # a generic Gamma, not symmetric in its lower indices, pins every index
    # placement; a batch of 3 points on a trailing axis checks that Gamma's
    # broadcast axes line up with those of v
    rng = np.random.default_rng(10 * up + low)
    rank = up + low
    Gamma = rng.normal(size=(2, 2, 2, 3))
    v = rng.normal(size=(2,) * rank + (3,))
    dv = rng.normal(size=(2,) * (rank + 1) + (3,))
    got = _covariant_derivative(SimpleNamespace(Gamma=Gamma), v, dv, up, low)
    for n in range(3):
        want = _WRITTEN_OUT[up, low](Gamma[..., n], v[..., n], dv[..., n])
        assert_allclose(got[..., n], want, rtol=1e-13)
