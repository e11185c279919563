"""Acceptance suite: eleven criteria, one pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also a hard assertion so plain pytest reports the same result.
"""
import json
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from surfrates.chart_kernel import (
    Event,
    fd_variant,
    get_scenario,
    make_observer_pair,
    rotating_chart_motion,
    sample_events,
)
from surfrates.cli import run_converge_laplace, run_verify
from surfrates.diffops import (
    conforming_laplace,
    grid_gradient,
    grid_laplace,
    make_grid,
    surface_laplace,
)
from surfrates.fields import QSplit, pi_q_components, q_to_cart
from surfrates.geometry import check_identities, geometry_at, motion_at
from surfrates.landau import FlowConfig, LdGParams, run_flow
from surfrates.probes import (
    probe_conforming_q_field,
    probe_field,
    probe_q_field,
    probe_scalar,
    probe_tangential,
)
from surfrates.thinfilm import LIMIT_QUANTITIES, limit_study
from surfrates.timederiv import (
    DerivKind,
    FieldClosure,
    QFieldClosure,
    convected_dt,
    material_dt,
    q_dt,
    scalar_dot,
    tangential_dt,
)
from surfrates.util import rel_residual

SEED = 20240
N_EVENTS = 20
IDENTITY_SCENARIOS = (
    "plane-shear",
    "sphere-expanding",
    "sphere-rigid-rotation",
    "torus-breathing",
)
DERIV_SCENARIOS = (
    "sphere-expanding",
    "sphere-rigid-rotation",
    "torus-breathing",
    "torus-breathing-drift",
)

_deriv_reports_cache = {}


def _record(num, ok, desc):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


def _deriv_reports():
    if not _deriv_reports_cache:
        for name in DERIV_SCENARIOS:
            _deriv_reports_cache[name] = run_verify(
                name, "derivatives", n_events=N_EVENTS, seed=SEED
            )
    return _deriv_reports_cache


def _rows(report, prefix):
    return [r for r in report["identities"] if r["identity_name"].startswith(prefix)]


def test_criterion_01_identity_suite():
    t0 = time.monotonic()
    worst_analytic = 0.0
    worst_fd = 0.0
    for name in IDENTITY_SCENARIOS:
        surface = get_scenario(name)
        for ev in sample_events(surface, N_EVENTS, SEED):
            worst_analytic = max(
                worst_analytic, check_identities(surface, ev).max_residual
            )
        fd = fd_variant(surface)
        for ev in sample_events(fd, N_EVENTS, SEED):
            worst_fd = max(worst_fd, check_identities(fd, ev).max_residual)
    elapsed = time.monotonic() - t0
    ok = worst_analytic < 1e-8 and worst_fd < 1e-6 and elapsed < 10.0
    _record(
        1,
        ok,
        f"identity suite on {len(IDENTITY_SCENARIOS)} scenarios x {N_EVENTS} events: "
        f"analytic {worst_analytic:.2e} (<1e-8), fd {worst_fd:.2e} (<1e-6), "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_02_dual_path_equivalence():
    t0 = time.monotonic()
    reports = _deriv_reports()
    worst = 0.0
    n_rows = 0
    for rep in reports.values():
        for row in rep["identities"]:
            if "dual-path" in row["identity_name"]:
                worst = max(worst, row["residual"])
                n_rows += 1
                assert row["pass"], row
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and n_rows == len(DERIV_SCENARIOS) * 8 and elapsed < 30.0
    _record(
        2,
        ok,
        f"dual-path equivalence, 4 kinds x 2 ranks x {len(DERIV_SCENARIOS)} scenarios "
        f"x {N_EVENTS} events: worst rel {worst:.2e} (<1e-6), {elapsed:.1f}s (<30s)",
    )


def test_criterion_03_product_rules():
    reports = _deriv_reports()
    worst = 0.0
    for rep in reports.values():
        for row in rep["identities"]:
            if "product-rule" in row["identity_name"]:
                worst = max(worst, row["residual"])
                assert row["pass"], row

    # tensor-vector contraction rule with the +/- defect R(Gcal+Gcal^T)p
    surface = get_scenario("torus-breathing-drift")
    P = probe_field(surface, 2)
    p = probe_field(surface, 1)

    def contracted(t, a, b):
        return P.eval(t, a, b) @ p.eval(t, a, b)

    cl = FieldClosure(1, contracted)
    worst_tv = 0.0
    for ev in sample_events(surface, N_EVENTS, SEED):
        geom = geometry_at(surface, ev)
        mot = motion_at(surface, ev, geom)
        Pv = P.eval(ev.t, ev.y1, ev.y2)
        pv = p.eval(ev.t, ev.y1, ev.y2)
        defect = Pv @ (mot.Gcal + mot.Gcal.T) @ pv
        for kind, sgn in ((DerivKind.Upper, 1.0), (DerivKind.Lower, -1.0)):
            DP = convected_dt(surface, P, ev, kind, "ViaMaterial", geom, mot)
            Dp = convected_dt(surface, p, ev, kind, "ViaMaterial", geom, mot)
            Dc = convected_dt(surface, cl, ev, kind, "ViaMaterial", geom, mot)
            resid = np.max(np.abs(Dc - (DP @ pv + Pv @ Dp + sgn * defect)))
            worst_tv = max(worst_tv, resid / max(1.0, np.max(np.abs(Dc))))
        DmP = material_dt(surface, P, ev, "CartesianProxy", geom, mot)
        Dmp = material_dt(surface, p, ev, "CartesianProxy", geom, mot)
        Dmc = material_dt(surface, cl, ev, "CartesianProxy", geom, mot)
        resid = np.max(np.abs(Dmc - (DmP @ pv + Pv @ Dmp)))
        worst_tv = max(worst_tv, resid / max(1.0, np.max(np.abs(Dmc))))
    ok = worst < 1e-6 and worst_tv < 1e-6
    _record(
        3,
        ok,
        f"product rules: scalar-pairing worst {worst:.2e}, tensor-vector worst "
        f"{worst_tv:.2e} (both <1e-6, defects +/- <Gcal+Gcal^T,.>)",
    )


def test_criterion_04_observer_invariance():
    surface = get_scenario("torus-breathing-drift")
    motion = rotating_chart_motion(0.35)
    base, observed, point_map = make_observer_pair(surface, motion)

    scalar_a = probe_scalar
    rank1_a = probe_field(base, 1)
    rank2_a = probe_field(base, 2)
    q_a = probe_q_field(base)

    def through_motion(f):
        def g(t, z1, z2):
            y = motion(t, z1, z2).X
            return f(t, y[0], y[1])

        return g

    scalar_b = through_motion(scalar_a)
    rank1_b = FieldClosure(1, through_motion(rank1_a.eval))
    rank2_b = FieldClosure(2, through_motion(rank2_a.eval))

    def q_eval_b(t, z1, z2):
        y = motion(t, z1, z2).X
        return q_a.q_eval(t, y[0], y[1])

    q_b = QFieldClosure(q_eval_b)

    worst = 0.0
    n_fields = 0
    for ev_b in sample_events(observed, 6, SEED):
        ev_a = point_map(ev_b)
        da = scalar_dot(base, scalar_a, ev_a)
        db = scalar_dot(observed, scalar_b, ev_b)
        worst = max(worst, abs(da - db) / max(1.0, abs(da)))
        for closure_a, closure_b in ((rank1_a, rank1_b), (rank2_a, rank2_b)):
            va = material_dt(base, closure_a, ev_a)
            vb = material_dt(observed, closure_b, ev_b)
            worst = max(worst, rel_residual(va, vb))
            for kind in (DerivKind.Upper, DerivKind.Lower, DerivKind.Jaumann):
                va = convected_dt(base, closure_a, ev_a, kind)
                vb = convected_dt(observed, closure_b, ev_b, kind)
                worst = max(worst, rel_residual(va, vb))
        ga = geometry_at(base, ev_a)
        gb = geometry_at(observed, ev_b)
        for kind in (DerivKind.Material, DerivKind.Jaumann):
            qa = q_to_cart(ga, q_dt(base, q_a, ev_a, kind))
            qb = q_to_cart(gb, q_dt(observed, q_b, ev_b, kind))
            worst = max(worst, rel_residual(qa, qb))
    n_fields = 4
    ok = worst < 1e-6 and n_fields >= 3
    _record(
        4,
        ok,
        f"observer invariance on {n_fields} fields (scalar, rank1, rank2, Q) at "
        f"mapped events: worst rel {worst:.2e} (<1e-6)",
    )


def test_criterion_05_jaumann_identities():
    reports = _deriv_reports()
    worst_half = 0.0
    for rep in reports.values():
        for row in rep["identities"]:
            if row["identity_name"].startswith("jaumann-halfsum"):
                worst_half = max(worst_half, row["residual"])
                assert row["pass"], row

    # Table-5 alternative tangential rank-2 forms agree mutually
    surface = get_scenario("torus-breathing-drift")
    closure = probe_tangential(2)
    worst_alt = 0.0
    for ev in sample_events(surface, N_EVENTS, SEED):
        geom = geometry_at(surface, ev)
        mot = motion_at(surface, ev, geom)
        M = closure.comp_eval(ev.t, ev.y1, ev.y2)
        forms = [
            tangential_dt(surface, closure, ev, DerivKind.Jaumann, "Decomposed"),
            tangential_dt(surface, closure, ev, DerivKind.Jaumann, "Average"),
            tangential_dt(surface, closure, ev, DerivKind.Material)
            - 2.0 * mot.A @ pi_q_components(geom, M),
        ]
        scale = max(1.0, np.max(np.abs(forms[0])))
        for other in forms[1:]:
            worst_alt = max(worst_alt, np.max(np.abs(forms[0] - other)) / scale)
    ok = worst_half < 1e-10 and worst_alt < 1e-8
    _record(
        5,
        ok,
        f"Jaumann: half-sum of upper/lower worst {worst_half:.2e} (<1e-10), "
        f"alternative tangential forms worst {worst_alt:.2e} (<1e-8)",
    )


def test_criterion_06_qtensor_structure():
    surface = get_scenario("torus-breathing-drift")
    qcl = probe_q_field(surface)
    fcl = qcl.as_field_closure(surface)
    worst_closure = 0.0
    worst_trace = 0.0
    for ev in sample_events(surface, N_EVENTS, SEED):
        geom = geometry_at(surface, ev)
        mot = motion_at(surface, ev, geom)
        for kind, full in (
            (
                DerivKind.Material,
                material_dt(surface, fcl, ev, "CartesianProxy", geom, mot),
            ),
            (
                DerivKind.Jaumann,
                convected_dt(
                    surface, fcl, ev, DerivKind.Jaumann, "ViaMaterial", geom, mot
                ),
            ),
        ):
            # closure of the Q bundle: result symmetric, trace-free, and equal
            # to the split computation
            worst_closure = max(
                worst_closure,
                np.max(np.abs(full - full.T)),
                abs(float(np.trace(full))),
                rel_residual(q_to_cart(geom, q_dt(surface, qcl, ev, kind)), full),
            )
        qs = qcl.q_eval(ev.t, ev.y1, ev.y2)
        pred = float(qs.beta) * float(np.trace(mot.G)) - 2.0 * float(
            np.sum((geom.g @ mot.G) * qs.q2)
        )
        dup = convected_dt(surface, fcl, ev, DerivKind.Upper, "ViaMaterial", geom, mot)
        dlo = convected_dt(surface, fcl, ev, DerivKind.Lower, "ViaMaterial", geom, mot)
        scale = max(1.0, abs(pred))
        worst_trace = max(
            worst_trace,
            abs(float(np.trace(dup)) - pred) / scale,
            abs(float(np.trace(dlo)) + pred) / scale,
        )

    # Lemma ssq on 100 random pairs
    rng = np.random.default_rng(SEED)
    events = sample_events(surface, 10, SEED + 1)
    worst_ssq = 0.0
    for i in range(100):
        ev = events[i % len(events)]
        geom = geometry_at(surface, ev)
        s2 = rng.normal(size=(2, 2))
        s2 = 0.5 * (s2 + s2.T)
        q2 = pi_q_components(geom, rng.normal(size=(2, 2)))
        s_op = s2 @ geom.g
        lhs = pi_q_components(geom, s_op @ s_op @ q2)
        rhs = 0.5 * np.trace(s_op @ s_op) * q2
        worst_ssq = max(
            worst_ssq, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))
        )
    ok = worst_closure < 1e-8 and worst_trace < 1e-6 and worst_ssq < 1e-10
    _record(
        6,
        ok,
        f"Q-tensor structure: closure {worst_closure:.2e} (<1e-8), trace formula "
        f"{worst_trace:.2e} (<1e-6), ssq lemma on 100 pairs {worst_ssq:.2e} (<1e-10)",
    )


def test_criterion_07_laplacian_equivalence():
    worst_dual = 0.0
    for name in ("sphere-rigid-rotation", "torus-breathing-drift"):
        surface = get_scenario(name)
        closure = probe_field(surface, 2)
        for ev in sample_events(surface, N_EVENTS, SEED):
            a = surface_laplace(surface, closure, ev, "Beltrami")
            b = surface_laplace(surface, closure, ev, "Decomposed")
            worst_dual = max(worst_dual, rel_residual(a, b))

    surface = get_scenario("torus-breathing-drift")
    ccl = probe_conforming_q_field(surface)
    worst_conf = 0.0
    for ev in sample_events(surface, N_EVENTS, SEED):
        a = conforming_laplace(surface, ccl, ev, "ClosedForm")
        b = conforming_laplace(surface, ccl, ev, "Projected")
        scale = max(1.0, np.max(np.abs(a.q2)), abs(float(a.beta)))
        worst_conf = max(
            worst_conf,
            np.max(np.abs(a.q2 - b.q2)) / scale,
            abs(float(a.beta) - float(b.beta)) / scale,
        )

    # discrete Bochner identity for rank-2 Cartesian proxies on the torus grid
    tor = get_scenario("torus-static")
    gg = make_grid(tor, 0.0, 64)
    rng = np.random.default_rng(SEED)

    def smooth_field():
        F = np.zeros((3, 3, 64, 64))
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                amp = rng.normal(size=(3, 3)) * np.exp(-(k1 * k1 + k2 * k2))
                ph = rng.uniform(0, 2 * np.pi)
                F += amp[..., None, None] * np.cos(
                    k1 * gg.y1[:, None] + k2 * gg.y2[None, :] + ph
                )
        return F

    R = smooth_field()
    Psi = smooth_field()
    lhs = 0.0
    rhs = 0.0
    for A in range(3):
        for B in range(3):
            lhs += np.sum(grid_laplace(gg, R[A, B]) * Psi[A, B] * gg.weights)
            dR = grid_gradient(gg, R[A, B])
            dP = grid_gradient(gg, Psi[A, B])
            for i in range(2):
                for j in range(2):
                    rhs -= np.sum(gg.geom.ginv[i, j] * dR[i] * dP[j] * gg.weights)
    bochner = abs(lhs - rhs) / max(1.0, abs(rhs))

    conv = run_converge_laplace("torus-static")
    errs = [row["error"] for row in conv["rows"]]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)
    ok = worst_dual < 1e-5 and worst_conf < 1e-5 and bochner < 1e-3 and ratios_ok
    _record(
        7,
        ok,
        f"Laplacians: dual-path {worst_dual:.2e} (<1e-5), conforming {worst_conf:.2e} "
        f"(<1e-5), Bochner n=64 {bochner:.2e} (<1e-3), grid ratios "
        f"{[f'{r:.2f}' for r in ratios]} in [3.5,4.5]",
    )


def _random_conforming_closure(surface, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=8) * 0.3
    ph = rng.uniform(0, 2 * np.pi, size=4)

    def q_eval(t, y1, y2):
        geom = geometry_at(surface, Event(t, y1, y2))
        m = np.array(
            [
                [c[0] + c[1] * np.sin(y1 + ph[0]), c[2] * np.cos(y2 + ph[1])],
                [c[2] * np.cos(y2 + ph[1]), c[3] - c[1] * np.sin(y1 + ph[0])],
            ]
        )
        q2 = pi_q_components(geom, m)
        beta = c[4] + c[5] * np.cos(y1 + ph[2]) + c[6] * np.sin(y2 + ph[3])
        return QSplit(q2=q2, eta2=np.zeros(2), beta=beta)

    return QFieldClosure(q_eval)


def test_criterion_08_decomposition_live_check():
    surface = get_scenario("torus-breathing")
    worst_random = 0.0
    for seed in range(4):
        qcl = _random_conforming_closure(surface, 100 + seed)
        for ev in sample_events(surface, 5, SEED + seed):
            a = conforming_laplace(surface, qcl, ev, "ClosedForm")
            b = conforming_laplace(surface, qcl, ev, "Projected")
            scale = max(1.0, np.max(np.abs(a.q2)), abs(float(a.beta)))
            worst_random = max(
                worst_random,
                np.max(np.abs(a.q2 - b.q2)) / scale,
                abs(float(a.beta) - float(b.beta)) / scale,
            )

    tor = get_scenario("torus-static")
    cfg = FlowConfig(
        mode="Conforming_Material",
        n=32,
        dt=1e-4,
        steps=300,
        seed=8,
        crosscheck_every=100,
    )
    res = run_flow(tor, LdGParams(), cfg)
    worst_flow = max(r[2] for r in res.crosschecks)
    ok = worst_random < 1e-5 and worst_flow < 1e-5
    _record(
        8,
        ok,
        f"conforming decomposition: random fields {worst_random:.2e}, along-flow "
        f"checks {worst_flow:.2e} (both <1e-5)",
    )


def test_criterion_09_gradient_flow():
    t0 = time.monotonic()
    tor = get_scenario("torus-static")
    params = LdGParams(L=1.0, a=-1.0, b=0.0, c=1.0)
    cfg = FlowConfig(
        mode="Conforming_Material", n=48, dt=1e-4, steps=2000, ic="random-smooth", seed=11
    )
    res = run_flow(tor, params, cfg)
    rises = np.diff(res.energies)
    monotone = bool(np.all(rises <= 1e-10))

    # spatially constant run against a high-accuracy 0-D oracle
    flat = get_scenario("flat-torus")
    p2 = LdGParams(L=1.0, a=-1.0, b=0.8, c=1.0)
    cfg2 = FlowConfig(
        mode="Conforming_Material",
        n=16,
        dt=1e-3,
        steps=400,
        method="rk4",
        ic="constant-mixed",
        beta0=0.3,
        amplitude=0.2,
    )
    res2 = run_flow(flat, p2, cfg2)

    def rhs(t, y):
        q11, q12, beta = y
        trq2 = 2.0 * (q11 * q11 + q12 * q12)
        fq = -(2 * p2.a - 2 * p2.b * beta + 3 * p2.c * beta**2 + 2 * p2.c * trq2)
        fb = -(2 * p2.a + p2.b * beta + 3 * p2.c * beta**2 + 2 * p2.c * trq2)
        return [fq * q11, fq * q12, fb * beta + (2.0 / 3.0) * p2.b * trq2]

    T = cfg2.dt * cfg2.steps
    sol = solve_ivp(rhs, (0.0, T), [0.2, 0.12, 0.3], rtol=1e-12, atol=1e-14)
    ref = sol.y[:, -1]
    got = np.array(
        [res2.final_q[0, 0, 0, 0], res2.final_q[0, 1, 0, 0], res2.final_beta[0, 0]]
    )
    ode_err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))

    # convex potential: energy collapses to a tiny fraction of its start
    p3 = LdGParams(L=1.0, a=1.0, b=0.0, c=1.0)
    cfg3 = FlowConfig(
        mode="FullQ_Material", n=16, dt=2e-2, steps=2000, ic="random-smooth", seed=13
    )
    res3 = run_flow(flat, p3, cfg3)
    decay = res3.energies[-1] / max(res3.energies[0], 1e-300)
    elapsed = time.monotonic() - t0
    ok = monotone and ode_err < 1e-4 and decay < 1e-6 and elapsed < 120.0
    _record(
        9,
        ok,
        f"gradient flow: monotone over 2000 steps (max rise {rises.max():.2e}), "
        f"ODE oracle rel {ode_err:.2e} (<1e-4), convex decay {decay:.2e} (<1e-6), "
        f"{elapsed:.0f}s (<120s)",
    )


def test_criterion_10_thin_film_limits():
    worst_finite = None
    all_ok = True
    details = []
    for name in DERIV_SCENARIOS:
        surface = get_scenario(name)
        ev = sample_events(surface, 1, SEED)[0]
        for rep in limit_study(surface, ev):
            all_ok = all_ok and rep.fitted_order >= 0.9
            if np.isfinite(rep.fitted_order):
                worst_finite = (
                    rep.fitted_order
                    if worst_finite is None
                    else min(worst_finite, rep.fitted_order)
                )
            if rep.fitted_order < 0.9:
                details.append(f"{name}:{rep.quantity}={rep.fitted_order:.2f}")
    ok = all_ok
    _record(
        10,
        ok,
        f"thin-film limits on {len(DERIV_SCENARIOS)} curved scenarios x "
        f"{len(LIMIT_QUANTITIES)} quantities: min finite order {worst_finite:.2f} "
        f"(>=0.9; exact limits report inf)" + (f"; failures: {details}" if details else ""),
    )


def test_criterion_11_reproducibility(tmp_path):
    rep_a = run_verify("torus-breathing", "qtensor", n_events=5, seed=SEED)
    rep_b = run_verify("torus-breathing", "qtensor", n_events=5, seed=SEED)
    bytes_a = json.dumps(rep_a, sort_keys=True).encode()
    bytes_b = json.dumps(rep_b, sort_keys=True).encode()

    tor = get_scenario("torus-static")
    cfg = FlowConfig(n=24, dt=1e-4, steps=20, seed=3)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    run_flow(tor, LdGParams(), cfg, out_dir=str(out_a))
    run_flow(tor, LdGParams(), cfg, out_dir=str(out_b))
    same_energy = (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
    ok = bytes_a == bytes_b and same_energy
    _record(
        11,
        ok,
        "byte-identical reports for identical seed+config (verify JSON and flow "
        "energy trace)",
    )
