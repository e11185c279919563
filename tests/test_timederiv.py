import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates.chart_kernel import Event, get_scenario, sample_events
from surfrates.diffops import conforming_laplace, scalar_laplace, surface_laplace
from surfrates.errors import (
    ConfigError,
    DomainError,
    MissingSplitError,
    NotConformingError,
)
from surfrates.fields import QSplit, pi_q_components, q_to_cart, project
from surfrates.geometry import geometry_at, geometry_from_jet, motion_at, motion_grid
from surfrates.probes import (
    probe_conforming_q_field,
    probe_field,
    probe_q_field,
    probe_scalar,
    probe_tangential,
)
from surfrates.timederiv import (
    DerivKind,
    FieldClosure,
    QFieldClosure,
    TangentialFieldClosure,
    _advected,
    _Block,
    _material_decomposed,
    _Parts,
    _tangential,
    _via_material,
    convected_dt,
    material_dt,
    q_dt,
    scalar_dot,
    tangential_dt,
)
from surfrates.util import rel_residual

CONVECTED = (DerivKind.Upper, DerivKind.Lower, DerivKind.Jaumann)


def test_scalar_dot_literal(torus_drift):
    def f(t, y1, y2):
        return np.sin(y1) * np.cos(y2) + t * t * y1

    got = scalar_dot(torus_drift, f, Event(0.4, 0.7, 1.1))
    assert_allclose(got, 0.5972525260268724, atol=1e-9)


@pytest.mark.parametrize("name", ["sphere-expanding", "torus-breathing-drift"])
@pytest.mark.parametrize("rank", [1, 2])
def test_material_dual_path(name, rank):
    surface = get_scenario(name)
    closure = probe_field(surface, rank)
    for ev in sample_events(surface, 4, 11):
        a = material_dt(surface, closure, ev, "CartesianProxy")
        b = material_dt(surface, closure, ev, "Decomposed")
        assert rel_residual(a, b) < 1e-6


@pytest.mark.parametrize("name", ["sphere-rigid-rotation", "torus-breathing-drift"])
@pytest.mark.parametrize("kind", CONVECTED)
@pytest.mark.parametrize("rank", [1, 2])
def test_convected_dual_path(name, kind, rank):
    surface = get_scenario(name)
    closure = probe_field(surface, rank)
    for ev in sample_events(surface, 4, 11):
        a = convected_dt(surface, closure, ev, kind, "ViaMaterial")
        b = convected_dt(surface, closure, ev, kind, "Decomposed")
        assert rel_residual(a, b) < 1e-6


@pytest.mark.parametrize("rank", [1, 2])
def test_jaumann_half_sum(torus_drift, torus_events, rank):
    closure = probe_field(torus_drift, rank)
    for ev in torus_events:
        up = convected_dt(torus_drift, closure, ev, DerivKind.Upper, "ViaMaterial")
        lo = convected_dt(torus_drift, closure, ev, DerivKind.Lower, "ViaMaterial")
        ja = convected_dt(
            torus_drift, closure, ev, DerivKind.Jaumann, "ViaMaterial"
        )
        assert rel_residual(ja, 0.5 * (up + lo)) < 1e-10


def test_jaumann_average_path(torus_drift, torus_events):
    closure = probe_field(torus_drift, 2)
    ev = torus_events[0]
    a = convected_dt(torus_drift, closure, ev, DerivKind.Jaumann, "Average")
    b = convected_dt(torus_drift, closure, ev, DerivKind.Jaumann, "ViaMaterial")
    assert rel_residual(a, b) < 1e-6
    for kind in (DerivKind.Upper, DerivKind.Lower):
        with pytest.raises(ConfigError):
            convected_dt(torus_drift, closure, ev, kind, "Average")


def test_tangential_jaumann_alt_form(torus_drift, torus_events):
    # for tangential 2-tensors: A M + M A^T = 2 A Pi_Q(M)
    closure = probe_tangential(2)
    for ev in torus_events:
        geom = geometry_at(torus_drift, ev)
        mot = motion_at(torus_drift, ev, geom)
        M = closure.comp_eval(ev.t, ev.y1, ev.y2)
        lhs = mot.A @ M + M @ mot.A.T
        rhs = 2.0 * mot.A @ pi_q_components(geom, M)
        assert_allclose(lhs, rhs, atol=1e-8)
        # the Jaumann rate computed both ways agrees
        dj = tangential_dt(torus_drift, closure, ev, DerivKind.Jaumann, "Decomposed")
        dm = tangential_dt(torus_drift, closure, ev, DerivKind.Material)
        alt = dm - 2.0 * mot.A @ pi_q_components(geom, M)
        assert_allclose(dj, alt, atol=1e-8)


def test_q_dt_material_closure(torus_drift, torus_events):
    qcl = probe_q_field(torus_drift)
    fcl = qcl.as_field_closure(torus_drift)
    for ev in torus_events[:3]:
        geom = geometry_at(torus_drift, ev)
        dq = q_dt(torus_drift, qcl, ev, DerivKind.Material)
        full = material_dt(torus_drift, fcl, ev, "CartesianProxy")
        assert rel_residual(q_to_cart(geom, dq), full) < 1e-8


def test_q_dt_jaumann_closure(torus_drift, torus_events):
    qcl = probe_q_field(torus_drift)
    fcl = qcl.as_field_closure(torus_drift)
    for ev in torus_events[:3]:
        geom = geometry_at(torus_drift, ev)
        dq = q_dt(torus_drift, qcl, ev, DerivKind.Jaumann)
        full = convected_dt(torus_drift, fcl, ev, DerivKind.Jaumann, "ViaMaterial")
        assert rel_residual(q_to_cart(geom, dq), full) < 1e-8


def test_conforming_q_dt_takes_no_coupling_rate(torus_drift, torus_events, monkeypatch):
    # the conforming derivative's coupling rate is zero, so only the q2
    # block's tangential rate is taken
    import surfrates.timederiv as timederiv

    calls = []
    tangential = timederiv._tangential

    def counted(*args, **kwargs):
        calls.append(args[2])
        return tangential(*args, **kwargs)

    monkeypatch.setattr(timederiv, "_tangential", counted)
    qcl = probe_conforming_q_field(torus_drift)
    dq = q_dt(torus_drift, qcl, torus_events[0], DerivKind.ConformingMaterial)
    assert len(calls) == 1 and calls[0].rank == 2
    assert np.array_equal(dq.eta2, np.zeros((2,)))


def test_q_dt_rejects_upper_lower(torus_drift, torus_events):
    qcl = probe_q_field(torus_drift)
    with pytest.raises(ConfigError):
        q_dt(torus_drift, qcl, torus_events[0], DerivKind.Upper)


def test_conforming_material_requires_conforming(torus_drift, torus_events):
    qcl = probe_q_field(torus_drift)  # has a nonzero normal coupling
    with pytest.raises(NotConformingError):
        q_dt(torus_drift, qcl, torus_events[0], DerivKind.ConformingMaterial)


def test_conforming_material_matches_projected_material(torus_drift, torus_events):
    ccl = probe_conforming_q_field(torus_drift)
    fcl = ccl.as_field_closure(torus_drift)
    for ev in torus_events[:3]:
        geom = geometry_at(torus_drift, ev)
        dq = q_dt(torus_drift, ccl, ev, DerivKind.ConformingMaterial)
        full = material_dt(torus_drift, fcl, ev, "CartesianProxy")
        assert rel_residual(q_to_cart(geom, dq), project(geom, full, "CQ")) < 1e-8


def test_missing_split_raises(torus_drift, torus_events):
    closure = FieldClosure(2, lambda t, a, b: np.zeros((3, 3)))
    with pytest.raises(MissingSplitError):
        material_dt(torus_drift, closure, torus_events[0], "Decomposed")


def test_corotating_field_has_zero_jaumann_rate(sphere_rot):
    # rigid rotation: chart components frozen along the flow are corotating,
    # so the Jaumann rate vanishes
    omega = 0.7

    def comp_eval(t, y1, y2):
        return np.array(
            [0.3 * np.sin(y1) + 0.1 * np.cos(y2 - omega * t), 0.2 + 0.05 * np.sin(y2 - omega * t)]
        )

    closure = TangentialFieldClosure(1, comp_eval)
    for ev in sample_events(sphere_rot, 3, 21):
        dj = tangential_dt(sphere_rot, closure, ev, DerivKind.Jaumann)
        assert np.max(np.abs(dj)) < 1e-8


def test_corotating_q_field_has_zero_jaumann_rate(sphere_rot):
    omega = 0.7

    def q_eval(t, y1, y2):
        from surfrates.fields import QSplit

        geom = geometry_at(sphere_rot, Event(t, y1, y2))
        m = np.array(
            [
                [0.2 + 0.1 * np.cos(y2 - omega * t), 0.05],
                [0.05, -0.1 + 0.02 * np.sin(y1)],
            ]
        )
        q2 = pi_q_components(geom, m)
        eta = np.array([0.04 * np.sin(y1), 0.03 * np.cos(y2 - omega * t)])
        beta = 0.2 + 0.05 * np.sin(y2 - omega * t)
        return QSplit(q2=q2, eta2=eta, beta=beta)

    qcl = QFieldClosure(q_eval)
    for ev in sample_events(sphere_rot, 2, 23):
        dq = q_dt(sphere_rot, qcl, ev, DerivKind.Jaumann)
        assert np.max(np.abs(dq.q2)) < 1e-7
        assert np.max(np.abs(dq.eta2)) < 1e-7
        assert abs(dq.beta) < 1e-7


def test_product_rule_with_defect(torus_drift, torus_events):
    P = probe_field(torus_drift, 2)
    R = probe_field(torus_drift, 1)

    ev = torus_events[0]
    geom = geometry_at(torus_drift, ev)
    mot = motion_at(torus_drift, ev, geom)
    Pv = P.eval(ev.t, ev.y1, ev.y2)
    Rv = R.eval(ev.t, ev.y1, ev.y2)

    # tensor-vector contraction: D(R p) picks up +/- R (Gcal + Gcal^T) p
    def contracted(t, a, b):
        return P.eval(t, a, b) @ R.eval(t, a, b)

    DP_up = convected_dt(torus_drift, P, ev, DerivKind.Upper, "ViaMaterial")
    Dp_up = convected_dt(torus_drift, R, ev, DerivKind.Upper, "ViaMaterial")
    D_up = convected_dt(
        torus_drift, FieldClosure(1, contracted), ev, DerivKind.Upper, "ViaMaterial"
    )
    defect = Pv @ (mot.Gcal + mot.Gcal.T) @ Rv
    assert_allclose(D_up, DP_up @ Rv + Pv @ Dp_up + defect, atol=1e-7)

    DP_lo = convected_dt(torus_drift, P, ev, DerivKind.Lower, "ViaMaterial")
    Dp_lo = convected_dt(torus_drift, R, ev, DerivKind.Lower, "ViaMaterial")
    D_lo = convected_dt(
        torus_drift, FieldClosure(1, contracted), ev, DerivKind.Lower, "ViaMaterial"
    )
    assert_allclose(D_lo, DP_lo @ Rv + Pv @ Dp_lo - defect, atol=1e-7)

    # material and Jaumann obey the plain rule
    DP_m = material_dt(torus_drift, P, ev)
    Dp_m = material_dt(torus_drift, R, ev)
    D_m = material_dt(torus_drift, FieldClosure(1, contracted), ev)
    assert_allclose(D_m, DP_m @ Rv + Pv @ Dp_m, atol=1e-7)


def _at_node(x, i, j):
    """The grid node (i, j) of every array in nested parts and blocks."""
    if isinstance(x, np.ndarray):
        return x[..., i, j]
    if isinstance(x, dict):
        return {k: _at_node(v, i, j) for k, v in x.items()}
    if isinstance(x, tuple):
        return type(x)(*(_at_node(v, i, j) for v in x))
    return x


def test_formulas_broadcast_over_grid_axes(torus_drift):
    # the flows apply these formulas to whole grids (component axes first,
    # then the grid axes); at every node each must equal the pointwise result
    t = 0.4
    Y1, Y2 = np.meshgrid(np.linspace(0.3, 5.9, 5), np.linspace(0.2, 6.0, 4), indexing="ij")
    grid = geometry_from_jet(torus_drift.jet(t, Y1, Y2))
    grid_mot = motion_grid(torus_drift, t, Y1, Y2, grid)
    rng = np.random.default_rng(11)

    def parts(comp, rank):
        # value, time partial and partials, the partial index at axis rank
        dv = comp[:rank] + (2,) + comp[rank:]
        return _Parts(*(rng.normal(size=s + Y1.shape) for s in (comp, comp, dv)))

    def block(rank):
        # with the parts w of a covariant proxy, which Lower and Average read
        return _Block(rank, parts((2,) * rank, rank), parts((2,) * rank, rank) if rank else None)

    def tangential(kind, path="Decomposed"):
        return lambda geom, mot, b: _tangential(geom, mot, b, kind, path)

    def material_decomposed(rank):
        return lambda geom, mot, blocks: _material_decomposed(geom, mot, rank, blocks)

    def via_material(kind):
        return lambda geom, mot, p: _via_material(mot, 2, kind, p.v, p.vt)

    R = parts((3, 3), 2)
    cases = [
        (tangential(kind), block(rank))
        for rank in (1, 2)
        for kind in (DerivKind.Material, *CONVECTED)
    ]
    cases += [(tangential(DerivKind.Jaumann, "Average"), block(rank)) for rank in (1, 2)]
    cases += [
        (material_decomposed(1), {"r2": block(1), "phi": block(0)}),
        (
            material_decomposed(2),
            {"r2": block(2), "etaL2": block(1), "etaR2": block(1), "phi": block(0)},
        ),
    ]
    cases += [(via_material(kind), R) for kind in CONVECTED]
    cases += [
        (lambda geom, mot, p: _advected(p, mot.u2), parts((), 0)),
        (lambda geom, mot, p: _advected(p, mot.u2, 2), R),
    ]

    for formula, p in cases:
        batched = formula(grid, grid_mot, p)
        for i, j in np.ndindex(Y1.shape):
            ev = Event(t, Y1[i, j], Y2[i, j])
            geom = geometry_at(torus_drift, ev)
            want = formula(geom, motion_at(torus_drift, ev, geom), _at_node(p, i, j))
            assert_allclose(batched[..., i, j], want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def _route_calls():
    """Every public route call by name: (surface, event) -> result."""
    calls = {}
    for rank in (1, 2):
        for path in ("CartesianProxy", "Decomposed"):
            calls[f"material_dt-{path}-rank{rank}"] = (
                lambda s, ev, rank=rank, path=path: material_dt(s, probe_field(s, rank), ev, path)
            )
        for kind in CONVECTED:
            paths = ("ViaMaterial", "Decomposed") + (("Average",) if kind == "Jaumann" else ())
            for path in paths:
                calls[f"convected_dt-{kind.value}-{path}-rank{rank}"] = (
                    lambda s, ev, rank=rank, kind=kind, path=path: convected_dt(
                        s, probe_field(s, rank), ev, kind, path
                    )
                )
        for kind, path in [(k, "Decomposed") for k in (DerivKind.Material, *CONVECTED)] + [
            (DerivKind.Jaumann, "Average")
        ]:
            calls[f"tangential_dt-{kind.value}-{path}-rank{rank}"] = (
                lambda s, ev, rank=rank, kind=kind, path=path: tangential_dt(
                    s, probe_tangential(rank), ev, kind, path
                )
            )
    for kind in ("Material", "Jaumann"):
        calls[f"q_dt-{kind}"] = lambda s, ev, kind=kind: q_dt(s, probe_q_field(s), ev, kind)
    calls["q_dt-ConformingMaterial"] = lambda s, ev: q_dt(
        s, probe_conforming_q_field(s), ev, DerivKind.ConformingMaterial
    )
    for path in ("Beltrami", "Decomposed"):
        calls[f"surface_laplace-{path}"] = (
            lambda s, ev, path=path: surface_laplace(s, probe_field(s, 2), ev, path)
        )
    for path in ("ClosedForm", "Projected"):
        calls[f"conforming_laplace-{path}"] = (
            lambda s, ev, path=path: conforming_laplace(s, probe_conforming_q_field(s), ev, path)
        )
    calls["scalar_laplace"] = lambda s, ev: scalar_laplace(s, probe_scalar, ev)
    calls["scalar_dot"] = lambda s, ev: scalar_dot(s, probe_scalar, ev)
    return calls


ROUTE_CALLS = _route_calls()


def _stacked(value):
    """A route result as one array, Q-split blocks flattened and joined."""
    if isinstance(value, QSplit):
        blocks = (value.q2, value.eta2, value.beta)
        return np.concatenate([np.reshape(b, (-1,) + np.shape(value.beta)) for b in blocks])
    return np.asarray(value)


@pytest.mark.parametrize(
    "t, y1",
    [
        (0.4, np.array([0.3, 1.2, 2.5])),
        (np.array([0.4, 0.45, 0.5]), np.array([0.3, 1.2, 2.5])),
        (0.4, 0.3),
        (np.array([0.4, 0.45, 0.5]), 0.3),
    ],
    ids=["scalar-t", "array-t", "scalar-y1", "array-t-scalar-y1"],
)
@pytest.mark.parametrize("route", list(ROUTE_CALLS))
def test_routes_take_a_batch_of_events(torus_drift, route, t, y1):
    # an Event whose coordinates are arrays gives the pointwise results
    # stacked on its trailing axis; a scalar t or y1 is shared by the batch
    y2 = np.array([0.7, 4.0, 5.5])
    ts, y1s = np.broadcast_to(t, y2.shape), np.broadcast_to(y1, y2.shape)
    call = ROUTE_CALLS[route]
    batched = _stacked(call(torus_drift, Event(t, y1, y2)))
    want = np.stack(
        [_stacked(call(torus_drift, Event(float(ts[n]), float(y1s[n]), y2[n]))) for n in range(3)],
        axis=-1,
    )
    assert batched.shape == want.shape
    assert_allclose(batched, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def test_laplacian_stencils_keep_each_event_time(torus_drift):
    # 25 events with their own times: the 25-point stencil must not pair the
    # event axis of t with its own offset axis
    t, y1, y2 = np.linspace(0.3, 0.6, 25), np.linspace(0.2, 6.0, 25), np.linspace(0.1, 5.0, 25)
    batched = scalar_laplace(torus_drift, probe_scalar, Event(t, y1, y2))
    want = [scalar_laplace(torus_drift, probe_scalar, Event(t[n], y1[n], y2[n])) for n in range(25)]
    assert_allclose(batched, want, rtol=1e-13)


@pytest.mark.parametrize("route", ["material_dt", "convected_dt"])
def test_material_proxy_route_builds_no_frame(monkeypatch, route):
    # the CartesianProxy path reads only the proxy's parts: the probe's own
    # chart jet, and no geometry or motion of the event
    surface = get_scenario("torus-breathing-drift")
    calls = {"jet": 0, "u_jet": 0}
    for name in calls:
        method = getattr(surface, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(surface, name, counted)
    closure = probe_field(surface, 2)
    ev = sample_events(surface, 1, 7)[0]
    if route == "material_dt":
        material_dt(surface, closure, ev)
    else:
        convected_dt(surface, closure, ev, DerivKind.Material)
    assert calls == {"jet": 1, "u_jet": 0}


@pytest.mark.parametrize(
    "scenario, ev",
    [
        ("sphere-expanding", Event(0.3, np.array([1.0, 0.01]), np.array([1.0, 1.0]))),
        ("sphere-expanding", Event(0.3, 1.0, np.nan)),
        ("torus-breathing-drift", Event(0.3, np.nan, 1.0)),
        ("torus-breathing-drift", Event(np.nan, 1.0, 1.0)),
        ("torus-breathing-drift", Event(0.3, np.inf, 1.0)),
        ("torus-breathing-drift", Event(0.3, np.array([1.0, 2.0]), np.array([1.0, -np.inf]))),
    ],
    ids=[
        "pole-band",
        "sphere-y2-nan",
        "torus-y1-nan",
        "torus-t-nan",
        "torus-y1-inf",
        "torus-batch-y2-minus-inf",
    ],
)
@pytest.mark.parametrize("route", ["scalar_dot", "material_dt"])
def test_proxy_routes_reject_events_outside_the_domain(route, scenario, ev):
    # y1 = 0.01 lies in the sphere's excluded pole band; a non-finite
    # coordinate, on a periodic axis too, lies in no domain
    surface = get_scenario(scenario)
    with pytest.raises(DomainError):
        if route == "scalar_dot":
            scalar_dot(surface, probe_scalar, ev)
        else:
            material_dt(surface, probe_field(surface, 2), ev)
