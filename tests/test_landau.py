import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates import diffops, landau
from surfrates.chart_kernel import _trig_u, get_scenario
from surfrates.diffops import make_grid
from surfrates.geometry import geometry_from_jet
from surfrates.errors import ConfigError, StabilityError
from surfrates.fields import QSplit, q_to_cart
from surfrates.landau import (
    FlowConfig,
    LdGParams,
    bulk_density,
    bulk_gradient,
    conforming_to_proxy,
    energy,
    initial_state,
    rhs_full,
    run_flow,
    stability_bound,
)
from surfrates.thinfilm import fit_order


def _constant_beta_proxy(gg, beta0):
    q = np.zeros((2, 2, gg.n1, gg.n2))
    beta = beta0 * np.ones((gg.n1, gg.n2))
    return conforming_to_proxy(gg, q, beta)


@pytest.mark.parametrize("b", [0.0, 2.0])
def test_bulk_gradient_is_traceless_symmetric_gradient_of_density(b):
    # the central difference of bulk_density along a traceless symmetric H
    # equals the pairing of bulk_gradient with H; the gradient is itself
    # traceless and symmetric, with the cubic term (b = 2) and without it
    rng = np.random.default_rng(3)

    def traceless_sym(m):
        s = 0.5 * (m + m.T)
        return s - np.trace(s) / 3.0 * np.eye(3)

    Q = traceless_sym(rng.normal(size=(3, 3)))
    H = traceless_sym(rng.normal(size=(3, 3)))
    params = LdGParams(a=-1.0, b=b, c=1.5)
    eps = 1e-6
    fd = (bulk_density(params, Q + eps * H) - bulk_density(params, Q - eps * H)) / (2 * eps)
    grad = bulk_gradient(params, Q)
    assert_allclose(fd, np.sum(grad * H), rtol=1e-8)
    assert abs(np.trace(grad)) < 1e-12
    assert np.max(np.abs(grad - grad.T)) < 1e-12


def _unguarded_bulk(params, Q):
    """bulk_density and bulk_gradient with every term formed, b = 0 or not."""
    tr2 = np.einsum("ab...,ab...->...", Q, Q)
    Q2 = np.einsum("ac...,cb...->ab...", Q, Q)
    tr3 = np.einsum("ab...,bc...,ca...->...", Q, Q, Q)
    tr4 = np.einsum("ab...,ab...->...", Q2, Q2)
    eye = np.eye(3).reshape((3, 3) + (1,) * (Q.ndim - 2))
    density = params.a * tr2 + (2.0 * params.b / 3.0) * tr3 + params.c * tr4
    gradient = 2.0 * (
        params.a * Q + params.b * (Q2 - (tr2 / 3.0) * eye) + params.c * tr2 * Q
    )
    return density, gradient


@pytest.mark.parametrize("shape", [(), (128, 128)])
@pytest.mark.parametrize("b", [0.0, 2.0])
def test_bulk_terms_equal_the_unguarded_formula(shape, b):
    # the cubic term is formed only when b != 0; on a random symmetric Q
    # both functions keep the bits of the formula that forms every term
    rng = np.random.default_rng(29)
    M = rng.normal(size=(3, 3) + shape)
    Q = M + np.einsum("ab...->ba...", M)
    params = LdGParams(a=-0.7, b=b, c=1.3)
    density, gradient = _unguarded_bulk(params, Q)
    assert bulk_density(params, Q).tobytes() == density.tobytes()
    got = bulk_gradient(params, Q)
    assert got.strides == gradient.strides
    assert got.tobytes() == gradient.tobytes()


def test_bulk_trace_literals(torus_static):
    # Q = beta0 (nu nu - Id_S/2) with beta0 = 0.3: eigenvalues (b, -b/2, -b/2)
    gg = make_grid(torus_static, 0.0, 16)
    Q = _constant_beta_proxy(gg, 0.3)
    tr2 = np.einsum("ab...,ab...->...", Q, Q)
    tr3 = np.einsum("ab...,bc...,ca...->...", Q, Q, Q)
    Q2 = np.einsum("ab...,bc...->ac...", Q, Q)
    tr4 = np.einsum("ab...,ab...->...", Q2, Q2)
    assert_allclose(tr2, 0.135, atol=1e-12)
    assert_allclose(tr3, 0.020249999999999997, atol=1e-12)
    assert_allclose(tr4, 0.009112499999999999, atol=1e-12)
    dens = bulk_density(LdGParams(a=1.0, b=0.0, c=0.0), Q)
    assert_allclose(dens, 0.135, atol=1e-12)


def test_elastic_energy_torus_richardson(torus_static):
    # closed form: E = 12 sqrt(3) pi^2 beta0^2 for Q = beta0 (nu nu - Id_S/2)
    params = LdGParams(L=1.0)
    vals = {}
    for n in (48, 96):
        gg = make_grid(torus_static, 0.0, n)
        Q = _constant_beta_proxy(gg, 0.3)
        el, bulk, tot = energy(gg, params, Q)
        vals[n] = el
    extrapolated = vals[96] + (vals[96] - vals[48]) / 3.0
    assert_allclose(extrapolated, 18.46222877515554, rtol=5e-4)
    # second-order convergence toward the closed form
    assert abs(vals[96] - 18.46222877515554) < 0.3 * abs(vals[48] - 18.46222877515554)


def test_stability_bound_and_guard(torus_static):
    gg = make_grid(torus_static, 0.0, 48)
    bound = stability_bound(gg, LdGParams(L=1.0))
    assert 1e-4 < bound < 1e-2
    with pytest.raises(StabilityError):
        run_flow(torus_static, LdGParams(), FlowConfig(n=48, dt=10.0 * bound, steps=2))


def test_stability_bound_rechecked_along_moving_run():
    # the breathing torus thickens, so the bound falls below this dt near t = 0.23
    surface = get_scenario("torus-breathing")
    params = LdGParams()
    dt = 0.95 * stability_bound(make_grid(surface, 0.0, 24), params)
    with pytest.raises(StabilityError, match="stability bound"):
        run_flow(surface, params, FlowConfig(n=24, dt=dt, steps=40))


def test_non_finite_state_stops_static_run(monkeypatch, torus_static):
    # FlowConfig rejects a non-finite beta0, so the NaN comes from the
    # initial condition itself
    def nan_beta(gg, config):
        q, beta = landau.IC_REGISTRY["constant-beta"](gg, config)
        return q, np.full_like(beta, np.nan)

    monkeypatch.setitem(landau.IC_REGISTRY, "nan-beta", nan_beta)
    cfg = FlowConfig(n=16, steps=3, ic="nan-beta")
    with pytest.raises(StabilityError, match="not finite at step 0"):
        run_flow(torus_static, LdGParams(), cfg)


def test_symmetry_residual_equals_the_full_formula():
    # the upper-triangle residual is the largest entry of |Q - Q^T|
    Q = np.random.default_rng(31).normal(size=(3, 3, 20, 24))
    tr, sym = landau._state_residuals(Q)
    assert tr == float(np.max(np.abs(np.einsum("aa...->...", Q))))
    assert sym == float(np.max(np.abs(Q - np.einsum("ab...->ba...", Q))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [(0, 0), (2, 2), (0, 1), (2, 1)])
def test_non_finite_entry_gives_a_non_finite_residual(monkeypatch, torus_static, slot, bad):
    # a non-finite entry on the diagonal or in one off-diagonal slot makes a
    # residual non-finite, and that alone stops the run: the energies are
    # replaced by finite values
    M = np.random.default_rng(32).normal(size=(3, 3, 16, 16))
    Q = M + np.einsum("ab...->ba...", M)
    Q[slot + (3, 5)] = bad
    assert not all(map(np.isfinite, landau._state_residuals(Q)))

    original = landau.conforming_to_proxy

    def poisoned(gg, q, beta):
        P = original(gg, q, beta)
        P[slot + (3, 5)] = bad
        return P

    monkeypatch.setattr(landau, "conforming_to_proxy", poisoned)
    monkeypatch.setattr(landau, "energy", lambda *args: (0.0, 0.0, 0.0))
    cfg = FlowConfig(mode="FullQ_Material", n=16, steps=1)
    with pytest.raises(StabilityError, match="not finite at step 0"):
        run_flow(torus_static, LdGParams(), cfg)


def _as_bytes(result):
    """The bytes of an array, or of each array or float of a tuple."""
    if isinstance(result, tuple):
        return tuple(map(_as_bytes, result))
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_kernels_write_no_argument(torus_drift, b):
    # with every input array read-only, an in-place write into an argument
    # raises; each kernel returns the bytes it gives on writable inputs
    gg = make_grid(torus_drift, 0.4, 24)
    q, beta = initial_state(gg, FlowConfig(n=24, seed=6))
    Q = conforming_to_proxy(gg, q, beta) + 0.01 * np.random.default_rng(7).normal(size=(3, 3, 24, 24))
    dQ = diffops.grid_gradient(gg, Q)
    params = LdGParams(b=b)
    kernels = {
        "grid_gradient": lambda: diffops.grid_gradient(gg, Q),
        "grid_laplace": lambda: diffops.grid_laplace(gg, Q),
        "grid_laplace_of_grad": lambda: diffops.grid_laplace(gg, Q, dQ),
        "bulk_gradient": lambda: bulk_gradient(params, Q),
        "rhs_full": lambda: rhs_full(gg, params, Q),
        "rhs_full_of_grad": lambda: rhs_full(gg, params, Q, dQ),
        "energy": lambda: energy(gg, params, Q, dQ),
        "conforming_to_proxy": lambda: conforming_to_proxy(gg, q, beta),
    }
    want = {name: _as_bytes(kernel()) for name, kernel in kernels.items()}
    geometry = [getattr(gg.geom, name) for name in ("ginv", "sqrtdetg", "dX", "nu")]
    for arr in [Q, *dQ, q, beta, gg.weights, *geometry]:
        arr.flags.writeable = False
    for name, kernel in kernels.items():
        assert _as_bytes(kernel()) == want[name], name


def _record_frame_builds(monkeypatch):
    """Times passed to landau.make_grid and landau.motion_grid, by name."""
    times = {"make_grid": [], "motion_grid": []}
    for name, log in times.items():
        original = getattr(landau, name)

        def recorded(surface, t, *args, _original=original, _log=log):
            _log.append(t)
            return _original(surface, t, *args)

        monkeypatch.setattr(landau, name, recorded)
    return times


@pytest.mark.parametrize(
    "mode, dt, steps",
    [
        pytest.param("FullQ_Jaumann", 1e-3, 6, id="FullQ_Jaumann"),
        pytest.param("Conforming_Jaumann", 1e-3, 6, id="Conforming_Jaumann"),
        # t + dt differs from (step + 1) * dt by one ulp at step 6
        pytest.param("FullQ_Material", 1e-4, 8, id="FullQ_Material-ulp"),
    ],
)
def test_moving_flow_builds_each_stage_time_once(monkeypatch, torus_drift, mode, dt, steps):
    # t0, then t + h/2 and (step + 1) * dt per step: k4 runs at the next
    # step's time, so an RK4 run builds exactly 2 * steps + 1 frames
    times = _record_frame_builds(monkeypatch)
    run_flow(torus_drift, LdGParams(), FlowConfig(mode=mode, n=16, dt=dt, steps=steps, method="rk4"))
    want = [0.0]
    for step in range(steps):
        want += [step * dt + 0.5 * dt, (step + 1) * dt]
    assert len(want) == 2 * steps + 1
    assert times == {"make_grid": want, "motion_grid": want}


@pytest.mark.parametrize("mode", landau.FLOW_MODES)
def test_rk4_is_fourth_order_in_dt_on_a_moving_surface(torus_drift, mode):
    # the final state at dt = T/4, T/8 and T/16 against dt = T/64: a stage
    # on the wrong frame time, or with the wrong input, leaves first order
    T, ref = 0.04, 64
    final = {
        m: run_flow(
            torus_drift, LdGParams(), FlowConfig(mode=mode, n=16, dt=T / m, steps=m, method="rk4")
        ).final_Q
        for m in (4, 8, 16, ref)
    }
    rows = [(T / m, float(np.max(np.abs(final[m] - final[ref])))) for m in (4, 8, 16)]
    assert fit_order(rows) >= 3.5


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_static_flow_builds_one_frame(monkeypatch, torus_static, method):
    times = _record_frame_builds(monkeypatch)
    run_flow(torus_static, LdGParams(), FlowConfig(n=16, steps=5, method=method))
    assert times == {"make_grid": [0.0], "motion_grid": [0.0]}


@pytest.mark.parametrize(
    "mode, unread",
    [
        ("FullQ_Jaumann", ("G_obs", "Du", "vperp", "V_m", "b_obs3", "Gcal")),
        ("Conforming_Jaumann", ("Gcal", "Acal")),
    ],
)
def test_flow_frames_compute_only_the_motion_they_read(monkeypatch, torus_drift, mode, unread):
    # every frame takes its motion from motion_grid, and a MotionSample
    # computes a block only when it is read
    samples = []
    original = landau.motion_grid

    def recorded(*args):
        samples.append(original(*args))
        return samples[-1]

    monkeypatch.setattr(landau, "motion_grid", recorded)
    run_flow(torus_drift, LdGParams(), FlowConfig(mode=mode, n=16, dt=1e-3, steps=2, method="rk4"))
    assert len(samples) == 1 + 2 * 2
    for sample in samples:
        assert not set(unread) & set(vars(sample))


@pytest.mark.parametrize("mode", landau.FLOW_MODES)
def test_flow_frames_keep_only_the_geometry_they_read(monkeypatch, torus_drift, mode):
    # a frame keeps the geometry arrays its step reads, so each grid's
    # GeometrySample and the chart jet's other blocks are gone by the time
    # any energy is taken; every mode runs here on its lean frames, so a
    # step that reads a dropped array fails
    unread = ("X", "ddX", "Vt", "dVt") + (() if mode.startswith("Conforming") else ("dX",))
    refs = []
    make_grid, energy = landau.make_grid, landau.energy

    def recorded(*args):
        gg = make_grid(*args)
        jet = gg.geom.jet
        refs.extend([weakref.ref(gg.geom)] + [weakref.ref(getattr(jet, b)) for b in unread])
        return gg

    alive = []

    def checked(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return energy(*args)

    monkeypatch.setattr(landau, "make_grid", recorded)
    monkeypatch.setattr(landau, "energy", checked)
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=3, method="rk4")
    run_flow(torus_drift, LdGParams(), cfg)
    assert len(refs) == (1 + len(unread)) * (1 + 2 * cfg.steps)
    assert alive == [0] * (cfg.steps + 1)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("mode", ["FullQ_Material", "Conforming_Jaumann"])
def test_one_frame_is_alive_at_each_energy(monkeypatch, torus_drift, mode, method):
    # a step holds one frame, so when it takes the energy the frames of the
    # earlier stage times are gone; a frame is seen by the u2 it keeps
    refs = []
    motion_grid, energy = landau.motion_grid, landau.energy

    def recorded(*args):
        mot = motion_grid(*args)
        refs.append(weakref.ref(mot.u2))
        return mot

    alive = []

    def checked(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return energy(*args)

    monkeypatch.setattr(landau, "motion_grid", recorded)
    monkeypatch.setattr(landau, "energy", checked)
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=4, method=method)
    run_flow(torus_drift, LdGParams(), cfg)
    assert len(refs) == 1 + (2 if method == "rk4" else 1) * cfg.steps
    assert alive == [1] * (cfg.steps + 1)


@pytest.mark.parametrize("method, per_step", [("euler", 1), ("rk4", 4)])
def test_conforming_flow_builds_one_proxy_per_stage(monkeypatch, torus_static, method, per_step):
    # the step-start proxy serves the energy and the first stage, and the
    # last one is the final state; only RK4's k2 to k4 build their own
    calls = []
    original = landau.conforming_to_proxy

    def counted(*args):
        calls.append(args[0].t)
        return original(*args)

    monkeypatch.setattr(landau, "conforming_to_proxy", counted)
    steps = 3
    run_flow(torus_static, LdGParams(), FlowConfig(n=16, steps=steps, method=method))
    assert len(calls) == per_step * steps + 1


def test_rhs_full_and_energy_of_a_given_gradient_have_the_same_bits(torus_drift):
    gg = make_grid(torus_drift, 0.4, 24)
    Q = conforming_to_proxy(gg, *initial_state(gg, FlowConfig(n=24, seed=3)))
    Q = Q + 0.01 * np.random.default_rng(4).normal(size=Q.shape)
    params = LdGParams(b=0.5)
    dQ = diffops.grid_gradient(gg, Q)
    assert rhs_full(gg, params, Q, dQ).tobytes() == rhs_full(gg, params, Q).tobytes()
    assert energy(gg, params, Q, dQ) == energy(gg, params, Q)


@pytest.mark.parametrize(
    "mode, method, scenario, per_step",
    [
        ("FullQ_Jaumann", "rk4", "torus_drift", 4),
        ("FullQ_Material", "euler", "torus_drift", 1),
        ("Conforming_Material", "euler", "torus_static", 1),
        ("Conforming_Material", "euler", "torus_drift", 3),
        ("Conforming_Jaumann", "rk4", "torus_drift", 12),
    ],
)
def test_flow_takes_one_gradient_per_stage(monkeypatch, request, mode, method, scenario, per_step):
    # the step-start proxy's gradient serves the energy and the first stage,
    # and each stage's proxy gradient serves the Laplacian and, in the
    # full-tensor modes, the advection; conforming stages add q and beta,
    # except on a frame at rest, which takes no transport term
    calls = []
    original = diffops.grid_gradient

    def counted(gg, F):
        calls.append(F.shape)
        return original(gg, F)

    for module in (diffops, landau):
        monkeypatch.setattr(module, "grid_gradient", counted)
    steps = 3
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=steps, method=method)
    run_flow(request.getfixturevalue(scenario), LdGParams(), cfg)
    assert len(calls) == per_step * steps + 1


def _flow_bytes(result):
    """The energy rows and the bytes of the final state of a flow."""
    state = (result.final_Q, result.final_q, result.final_beta)
    return result.energy_rows, [None if a is None else a.tobytes() for a in state]


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("mode", landau.FLOW_MODES)
@pytest.mark.parametrize("scenario", ["torus_static", "flat_torus"])
def test_frames_at_rest_keep_the_bits_of_the_formulas(monkeypatch, request, scenario, mode, method):
    # every motion array of these frames is zero, so the driving force alone
    # gives the rate that the transport formulas give
    rest = []
    at_rest = landau._at_rest
    monkeypatch.setattr(landau, "_at_rest", lambda mot: rest.append(at_rest(mot)) or rest[-1])
    surface = request.getfixturevalue(scenario)
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=5, method=method)
    shortcut = _flow_bytes(run_flow(surface, LdGParams(b=0.5), cfg))
    assert rest == [True]
    monkeypatch.setattr(landau, "_at_rest", lambda mot: False)
    assert shortcut == _flow_bytes(run_flow(surface, LdGParams(b=0.5), cfg))


@pytest.mark.parametrize("mode", landau.FLOW_MODES)
def test_a_static_surface_with_a_relative_velocity_is_not_at_rest(torus_static, mode):
    # static=True, and u = (0.3, 0.2) moves the material over the fixed torus,
    # so the transport terms are not zero and the flow differs
    drifting = replace(torus_static, **_trig_u(0.3, 0.2))
    assert drifting.static
    cfg = FlowConfig(mode=mode, n=16, dt=1e-3, steps=5)
    still = run_flow(torus_static, LdGParams(), cfg)
    moved = run_flow(drifting, LdGParams(), cfg)
    assert still.energies[0] == moved.energies[0]
    change = np.max(np.abs(moved.final_Q - still.final_Q)) / np.max(np.abs(still.final_Q))
    assert change > 1e-4


@pytest.mark.parametrize("scenario", ["torus_static", "torus_drift"])
def test_conforming_proxy_equals_q_to_cart(request, scenario):
    # the conforming assembly skips the zero coupling blocks of q_to_cart and
    # keeps its order of sums, so the two agree elementwise
    surface = request.getfixturevalue(scenario)
    gg = make_grid(surface, 0.3, 24)
    q, beta = initial_state(gg, FlowConfig(n=24, seed=5))
    eta = np.zeros((2, 24, 24))
    want = q_to_cart(gg.geom, QSplit(q2=q, eta2=eta, beta=beta))
    assert np.array_equal(conforming_to_proxy(gg, q, beta), want)


@pytest.mark.parametrize("shape", [(48, 48), (32, 48)])
def test_band_limited_matches_the_direct_cosine_sum(torus_static, shape):
    # the separable sum equals the 49 full-grid cosines, drawn mode by mode
    # in the same order, and leaves the generator where the direct sum does
    gg = make_grid(torus_static, 0.0, *shape)
    dom = torus_static.domain
    x1 = 2.0 * np.pi / dom.spans[0] * (gg.y1[:, None] - dom.y1_range[0])
    x2 = 2.0 * np.pi / dom.spans[1] * (gg.y2[None, :] - dom.y2_range[0])
    direct, want = np.random.default_rng(21), np.zeros(shape)
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            A = direct.normal() * 0.1 * np.exp(-(k1 * k1 + k2 * k2) / 3.0)
            want += A * np.cos(k1 * x1 + k2 * x2 + direct.uniform(0.0, 2.0 * np.pi))
    rng = np.random.default_rng(21)
    got = landau._band_limited(rng, gg, 0.1)
    assert got.shape == shape and got.flags.c_contiguous
    assert_allclose(got, want, rtol=0, atol=1e-14)
    assert rng.normal() == direct.normal()


def test_grid_arrays_are_c_ordered(torus_drift):
    # the unit normal fixes the layout that every einsum downstream keeps, so
    # the normal, the conforming proxy and the stepped state are C-ordered
    n = 32
    gg = make_grid(torus_drift, 0.0, n)
    Y1, Y2 = np.meshgrid(gg.y1, gg.y2, indexing="ij")
    assert geometry_from_jet(torus_drift.jet(0.0, Y1, Y2)).nu.flags.c_contiguous
    q, beta = initial_state(gg, FlowConfig(n=n))
    assert conforming_to_proxy(gg, q, beta).flags.c_contiguous
    dt = 0.5 * stability_bound(gg, LdGParams())
    for mode in landau.FLOW_MODES:
        res = run_flow(torus_drift, LdGParams(), FlowConfig(mode=mode, n=n, dt=dt, steps=1))
        state = [res.final_Q, res.final_q, res.final_beta]
        for arr in state[: 3 if mode.startswith("Conforming") else 1]:
            assert arr.flags.c_contiguous, mode


def test_params_validation():
    with pytest.raises(ConfigError):
        LdGParams(L=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(mode="NotAMode")
    with pytest.raises(ConfigError):
        FlowConfig(method="leapfrog")
    with pytest.raises(ConfigError):
        FlowConfig(ic="unknown-ic")
    for bad in ({"snapshot_every": -1}, {"crosscheck_every": -1}):
        with pytest.raises(ConfigError):
            FlowConfig(**bad)


@pytest.mark.parametrize(
    "mode",
    ["FullQ_Material", "FullQ_Jaumann", "Conforming_Material", "Conforming_Jaumann"],
)
def test_flow_energy_monotone_short(torus_static, mode):
    cfg = FlowConfig(mode=mode, n=24, dt=1e-4, steps=60, seed=4)
    res = run_flow(torus_static, LdGParams(), cfg)
    E = res.energies
    assert np.all(np.diff(E) <= 1e-10)
    assert E[-1] < E[0]
    assert max(r[5] for r in res.energy_rows) < 1e-10  # trace residual
    assert max(r[6] for r in res.energy_rows) < 1e-10  # symmetry residual


@pytest.mark.parametrize("mode", landau.FLOW_MODES)
def test_moving_flow_keeps_structure(torus_drift, mode):
    # the transport terms come from the shared timederiv formulas, so a wrong
    # spin or coupling term there shows as a non-symmetric Q along the run.
    # Conforming flows leave the g-traceless subspace at O(h^2) when u != 0,
    # so only the full-tensor modes bound the trace here.
    cfg = FlowConfig(mode=mode, n=24, dt=1e-3, steps=10, method="rk4")
    rows = run_flow(torus_drift, LdGParams(), cfg).energy_rows
    assert max(r[6] for r in rows) < 1e-10  # symmetry residual
    if mode.startswith("FullQ"):
        assert max(r[5] for r in rows) < 1e-10  # trace residual


def test_flow_matches_ode_oracle_quick(flat_torus):
    from scipy.integrate import solve_ivp

    params = LdGParams(L=1.0, a=-1.0, b=0.8, c=1.0)
    cfg = FlowConfig(
        mode="Conforming_Material",
        n=16,
        dt=1e-3,
        steps=200,
        method="rk4",
        ic="constant-mixed",
        beta0=0.3,
        amplitude=0.2,
    )
    res = run_flow(flat_torus, params, cfg)
    a, b, c = params.a, params.b, params.c

    def rhs(t, y):
        q11, q12, beta = y
        trq2 = 2.0 * (q11 * q11 + q12 * q12)
        fq = -(2 * a - 2 * b * beta + 3 * c * beta * beta + 2 * c * trq2)
        fb = -(2 * a + b * beta + 3 * c * beta * beta + 2 * c * trq2)
        return [fq * q11, fq * q12, fb * beta + (2.0 / 3.0) * b * trq2]

    T = cfg.dt * cfg.steps
    sol = solve_ivp(rhs, (0.0, T), [0.2, 0.12, 0.3], rtol=1e-12, atol=1e-14)
    ref = sol.y[:, -1]
    got = np.array(
        [res.final_q[0, 0, 0, 0], res.final_q[0, 1, 0, 0], res.final_beta[0, 0]]
    )
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-6
    # state stays spatially constant
    assert np.ptp(res.final_beta) < 1e-12


def test_flat_torus_fixed_point(flat_torus):
    # a=-1, b=0, c=1, q=0: beta* = sqrt(2/3)
    params = LdGParams(L=1.0, a=-1.0, b=0.0, c=1.0)
    cfg = FlowConfig(
        mode="Conforming_Material",
        n=16,
        dt=5e-3,
        steps=3000,
        ic="constant-beta",
        beta0=0.3,
    )
    res = run_flow(flat_torus, params, cfg)
    assert_allclose(res.final_beta[0, 0], np.sqrt(2.0 / 3.0), atol=1e-6)


def test_flow_snapshots_written(torus_static, tmp_path):
    cfg = FlowConfig(n=24, dt=1e-4, steps=10, snapshot_every=5, seed=2)
    run_flow(torus_static, LdGParams(), cfg, out_dir=str(tmp_path))
    assert (tmp_path / "energy.csv").exists()
    assert (tmp_path / "snap_000000.json").exists()
    assert (tmp_path / "snap_000010.json").exists()
    header = (tmp_path / "energy.csv").read_text().splitlines()[0]
    assert header == "step,t,energy_elastic,energy_bulk,energy_total,max_trace_residual,max_sym_residual"


@pytest.mark.parametrize(
    "scenario, mode",
    [("torus-static", "Conforming_Material"), ("torus-breathing-drift", "FullQ_Jaumann")],
)
def test_last_snapshot_reads_back_as_the_final_state(tmp_path, scenario, mode):
    # the last header names each state array with its file, shape and dtype,
    # and each file holds that array bit for bit
    cfg = FlowConfig(n=16, dt=1e-4, steps=10, snapshot_every=5, seed=2, mode=mode)
    res = run_flow(get_scenario(scenario), LdGParams(), cfg, out_dir=str(tmp_path))
    if mode.startswith("Conforming"):
        final = {"q": res.final_q, "beta": res.final_beta}
    else:
        final = {"Q": res.final_Q}
    last = sorted(tmp_path.glob("snap_*.json"))[-1]
    assert last.name == "snap_000010.json"
    header = json.loads(last.read_text())
    assert (header["step"], header["t"], header["mode"]) == (10, 10 * cfg.dt, mode)
    assert sorted(header["arrays"]) == sorted(final)
    for name, arr in final.items():
        entry = header["arrays"][name]
        assert entry == {"dtype": "<f8", "file": f"snap_000010_{name}.bin", "shape": list(arr.shape)}
        back = np.fromfile(tmp_path / entry["file"], dtype="<f8").reshape(entry["shape"])
        assert back.tobytes() == arr.astype("<f8").tobytes()


def test_flow_crosschecks_small(torus_static):
    cfg = FlowConfig(n=24, dt=1e-4, steps=20, crosscheck_every=10, seed=6)
    res = run_flow(torus_static, LdGParams(), cfg)
    assert len(res.crosschecks) == 3
    assert max(r[2] for r in res.crosschecks) < 1e-5


def test_initial_state_registry(torus_static):
    gg = make_grid(torus_static, 0.0, 16)
    for ic in ("zero", "constant-beta", "constant-mixed", "random-smooth"):
        q, beta = initial_state(gg, FlowConfig(n=16, ic=ic, seed=1))
        assert q.shape == (2, 2, 16, 16)
        assert beta.shape == (16, 16)
    qa, _ = initial_state(gg, FlowConfig(n=16, ic="random-smooth", seed=1))
    qb, _ = initial_state(gg, FlowConfig(n=16, ic="random-smooth", seed=1))
    assert_allclose(qa, qb, atol=0.0)
