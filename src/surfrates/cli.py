"""Command line interface: verification suites, gradient flows, and
convergence studies.

Exit codes: 0 success / all checks pass, 1 failed checks or stability
problems, 2 configuration errors.  Reports are JSON with sorted keys and no
timestamps, so repeated runs with the same arguments are byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from ._fd import c4_grad
from .chart_kernel import (
    _T_RANGE,
    Event,
    _memo_jets,
    fd_variant,
    get_scenario,
    list_scenarios,
    sample_events,
)
from .diffops import (
    _conforming_route_residual,
    grid_laplace,
    make_grid,
    scalar_laplace,
    surface_laplace,
)
from .errors import ConfigError, StabilityError, SurfratesError
from .fields import QSplit, g_inner_rank2, pi_q_components, project, q_from_cart, q_to_cart
from .geometry import IdentityReport, check_identities, geometry_at, motion_at
from .landau import ENERGY_RISE_TOL, FlowConfig, LdGParams, run_flow
from .probes import (
    probe_conforming_q_field,
    probe_field,
    probe_field_b,
    probe_matrix_comps,
    probe_q_field,
    probe_scalar,
    probe_scalar_b,
)
from .thinfilm import _order_json, fit_order, limit_study
from .timederiv import (
    DerivKind,
    _advected_parts,
    _couple,
    _convected_decomposed,
    _material_decomposed,
    _q_formula,
    _q_parts,
    _split_parts,
    _via_material,
    material_dt,
    q_dt,
    scalar_dot,
)
from .util import _maxabs, _mm, _scaled_norm

__all__ = [
    "run_verify",
    "run_converge_fd",
    "run_converge_thinfilm",
    "run_converge_laplace",
    "main",
]

# Largest conforming-Laplacian cross-route residual a flow may report
# (acceptance criterion 08).
CROSSCHECK_TOL = 1e-5


def _outdir(arg_out: str | None) -> str:
    """The output directory: ``--out``, or $SURFRATES_OUTDIR, or the current
    directory.  It is not created here, so a command that fails on its
    settings writes nothing; a path whose nearest existing ancestor (the
    path itself, if it exists) is not a directory is a ConfigError."""
    out = arg_out or os.environ.get("SURFRATES_OUTDIR", ".")
    near = out
    while near and not os.path.lexists(near):
        near = os.path.dirname(near)
    if not os.path.isdir(near or "."):
        raise ConfigError(f"output path {out!r}: {near!r} exists and is not a directory")
    return out


# ---------------------------------------------------------------------------
# verify suites
#
# Each suite takes the sampled events as one batch Event, on one trailing
# axis, with the geometry and motion at them, and calls every route once.
# A row's residual is a per-event array; IdentityReport keeps its largest
# entry.


def _rel(a, b):
    """rel_residual of each event."""
    return _scaled_norm(a - b, a, b, nb=1)


def _scaled(x, *refs):
    """Largest |component| of x over max(1, largest |component| of each
    ref), for each event."""
    return _scaled_norm(x, *refs, nb=1, fro=False)


def _trace(a):
    return np.einsum("ii...->...", a)


def _suite_geometry(surface, ev, geom, mot, report: IdentityReport):
    report.rows.update(check_identities(surface, ev, geom, mot).rows)


def _suite_derivatives(surface, ev, geom, mot, report: IdentityReport):
    kinds = (
        (DerivKind.Upper, "upper", 1.0),
        (DerivKind.Lower, "lower", -1.0),
        (DerivKind.Jaumann, "jaumann", 0.0),
    )
    for rank in (1, 2):
        P = probe_field(surface, rank)
        R = probe_field_b(surface, rank)
        comps = tuple(range(rank))

        def dot(x, y):
            return np.sum(x * y, axis=comps)

        def fprod(s, a, b):
            return dot(P.eval(s, a, b), R.eval(s, a, b))

        # each side's parts once: the proxy routes read Pv, da (and Rv, DmR),
        # the Decomposed routes read split
        Pv, da = _advected_parts(surface, P.eval, ev)
        Rv, DmR = _advected_parts(surface, R.eval, ev)
        split = _split_parts(surface, P, ev, lowered=True)
        db = _material_decomposed(geom, mot, rank, split)
        report.add(f"material-rank{rank}-dual-path", _rel(da, db), 1e-6)
        vals = {}
        for kind, label, _ in kinds:
            va = _via_material(mot, rank, kind, Pv, da)
            vb = _convected_decomposed(geom, mot, rank, split, kind, "Decomposed")
            vals[label] = va
            report.add(f"{label}-rank{rank}-dual-path", _rel(va, vb), 1e-6)
        javg = _convected_decomposed(geom, mot, rank, split, DerivKind.Jaumann, "Average")
        report.add(f"jaumann-average-rank{rank}", _rel(javg, vals["jaumann"]), 1e-6)
        halfsum = 0.5 * (vals["upper"] + vals["lower"])
        report.add(f"jaumann-halfsum-rank{rank}", _rel(vals["jaumann"], halfsum), 1e-10)

        # product rules against the scalar material rate
        fdot = scalar_dot(surface, fprod, ev)
        dm_sum = dot(da, Rv) + dot(Pv, DmR)
        report.add(f"material-product-rule-rank{rank}", _scaled(fdot - dm_sum, fdot), 1e-6)
        GcP, GcR = (_couple(np.add, 0, mot.Gcal, v, rank) for v in (Pv, Rv))
        defect = dot(GcP, Rv) + dot(GcR, Pv)
        for kind, label, sgn in kinds:
            DR = _via_material(mot, rank, kind, Rv, DmR)
            total = dot(vals[label], Rv) + dot(Pv, DR) + sgn * defect
            report.add(f"{label}-product-rule-rank{rank}", _scaled(fdot - total, fdot), 1e-6)


def _suite_qtensor(surface, ev, geom, mot, report: IdentityReport):
    qcl = probe_q_field(surface)
    fcl = qcl.as_field_closure(surface)
    ccl = probe_conforming_q_field(surface)
    cfl = ccl.as_field_closure(surface)
    t, y1, y2 = ev.t, ev.y1, ev.y2
    # each side's parts once: q_eval's blocks for the Q-split routes and the
    # pointwise algebra, the full proxy and its material rate for the others
    qparts = _q_parts(surface, qcl, ev)
    Fv, dm_full = _advected_parts(surface, fcl.eval, ev)

    dmq = _q_formula(geom, mot, qparts, DerivKind.Material)
    report.add("qtensor-material-closure", _rel(q_to_cart(geom, dmq), dm_full), 1e-8)
    djq = _q_formula(geom, mot, qparts, DerivKind.Jaumann)
    dj_full = _via_material(mot, 2, DerivKind.Jaumann, Fv, dm_full)
    report.add("qtensor-jaumann-closure", _rel(q_to_cart(geom, djq), dj_full), 1e-8)
    dcq = q_dt(surface, ccl, ev, DerivKind.ConformingMaterial, geom, mot)
    dmc_full = material_dt(surface, cfl, ev, "CartesianProxy", geom, mot)
    report.add(
        "qtensor-conforming-projection",
        _rel(q_to_cart(geom, dcq), project(geom, dmc_full, "CQ")),
        1e-8,
    )

    dup = _via_material(mot, 2, DerivKind.Upper, Fv, dm_full)
    dlo = _via_material(mot, 2, DerivKind.Lower, Fv, dm_full)
    qs = QSplit(*(b.p.v for b in qparts))
    q2 = qs.q2
    pred = qs.beta * _trace(mot.G) - 2.0 * np.sum(_mm(geom.g, mot.G) * q2, axis=(0, 1))
    report.add("qtensor-upper-trace", _scaled(_trace(dup) - pred, pred), 1e-6)
    report.add("qtensor-lower-trace", _scaled(_trace(dlo) + pred, pred), 1e-6)

    # pointwise algebra of tangential Q-parts
    m = probe_matrix_comps(t, y1, y2)
    s_op = _mm(0.5 * (m + np.einsum("ij...->ji...", m)), geom.g)
    ss = _mm(s_op, s_op)
    lhs = pi_q_components(geom, _mm(ss, q2))
    rhs = 0.5 * _trace(ss) * q2
    report.add("qtensor-pi-ssq", _scaled(lhs - rhs, rhs), 1e-10)
    q_op = _mm(q2, geom.g)
    rhs2 = np.einsum("ij,...->ij...", np.eye(2), 0.5 * g_inner_rank2(geom, q2, q2))
    report.add("qtensor-q-squared", _scaled(_mm(q_op, q_op) - rhs2, rhs2), 1e-10)
    Qc = q_to_cart(geom, qs)
    rt = q_from_cart(geom, Qc)
    report.add(
        "qtensor-split-roundtrip",
        [_scaled(rt.q2 - q2), _scaled(rt.eta2 - qs.eta2), _scaled(rt.beta - qs.beta)],
        1e-10,
    )
    pred2 = (
        g_inner_rank2(geom, q2, q2)
        + 2.0 * np.einsum("i...,ij...,j...->...", qs.eta2, geom.g, qs.eta2)
        + 1.5 * qs.beta**2
    )
    report.add(
        "qtensor-trace-relation", _scaled(np.sum(Qc * Qc, axis=(0, 1)) - pred2, pred2), 1e-10
    )


def _suite_laplace(surface, ev, geom, mot, report: IdentityReport):
    fcl = probe_field(surface, 2)
    ccl = probe_conforming_q_field(surface)
    la = surface_laplace(surface, fcl, ev, "Beltrami", geom)
    lb = surface_laplace(surface, fcl, ev, "Decomposed", geom)
    report.add("laplace-rank2-dual-path", _rel(la, lb), 1e-5)
    conforming = _conforming_route_residual(surface, ccl, ev, geom)
    report.add("laplace-conforming-dual-path", conforming, 1e-5)

    # scalar Leibniz rule with the metric pairing of the gradients
    t, y1, y2 = ev.t, ev.y1, ev.y2
    h = surface.space_step
    prod = lambda s, a, b: probe_scalar(s, a, b) * probe_scalar_b(s, a, b)
    lap_f = scalar_laplace(surface, probe_scalar, ev, geom)
    lap_g = scalar_laplace(surface, probe_scalar_b, ev, geom)
    lap_p = scalar_laplace(surface, prod, ev, geom)
    df = np.stack(c4_grad(probe_scalar, t, y1, y2, h))
    dg = np.stack(c4_grad(probe_scalar_b, t, y1, y2, h))
    rhs = (
        probe_scalar(t, y1, y2) * lap_g
        + probe_scalar_b(t, y1, y2) * lap_f
        + 2.0 * np.einsum("k...,kl...,l...->...", df, geom.ginv, dg)
    )
    report.add("laplace-scalar-leibniz", _scaled(lap_p - rhs, lap_p), 1e-6)

    dom = surface.domain
    if dom.periodic1 and dom.periodic2:
        gg = make_grid(surface, _T_RANGE[0], 32)
        F = probe_scalar(0.3, gg.y1[:, None], gg.y2[None, :])
        G = probe_scalar_b(0.3, gg.y1[:, None], gg.y2[None, :])
        LF = grid_laplace(gg, F)
        LG = grid_laplace(gg, G)
        ip1 = float(np.sum(LF * G * gg.weights))
        ip2 = float(np.sum(F * LG * gg.weights))
        report.add("laplace-grid-self-adjoint", abs(ip1 - ip2) / max(1.0, abs(ip1)), 1e-12)
        report.add("laplace-grid-negativity", max(0.0, float(np.sum(LF * F * gg.weights))), 1e-12)


_SUITE_FUNCS = {
    "geometry": _suite_geometry,
    "derivatives": _suite_derivatives,
    "qtensor": _suite_qtensor,
    "laplace": _suite_laplace,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_verify(
    scenario: str, suite: str = "all", n_events: int = 20, seed: int = 20240
) -> dict:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick one of {SUITES}")
    if n_events < 1:
        raise ConfigError(f"verify needs at least one event, got {n_events}")
    # every route, probe and stencil of the call asks for the same few chart
    # point sets; each is evaluated once
    surface = _memo_jets(get_scenario(scenario))
    events = sample_events(surface, n_events, seed)
    ev = Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events])))
    geom = geometry_at(surface, ev)
    mot = motion_at(surface, ev, geom)
    report = IdentityReport()
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    for name in names:
        _SUITE_FUNCS[name](surface, ev, geom, mot, report)
    identities = report.to_json_obj()
    return {
        "all_pass": report.all_pass,
        "identities": identities,
        "max_residual": report.max_residual,
        "n_events": n_events,
        "n_identities": len(identities),
        "scenario": scenario,
        "seed": seed,
        "suite": suite,
    }


# ---------------------------------------------------------------------------
# convergence studies


def _study(rows) -> dict:
    """The fitted order and the rows of a study's (step, error) pairs."""
    return {
        "fitted_order": _order_json(fit_order(rows)),
        "rows": [{"error": e, "step": h} for (h, e) in rows],
    }


def run_converge_fd(scenario: str, seed: int = 7) -> dict:
    surface = get_scenario(scenario)
    if surface.jets is None:
        raise ConfigError("the fd study needs a scenario with analytic jets")
    ev = sample_events(surface, 1, seed)[0]
    ja = surface.jet(ev.t, ev.y1, ev.y2)
    rows = []
    for h in (0.02, 0.01, 0.005):
        jf = fd_variant(surface, h).jet(ev.t, ev.y1, ev.y2)
        err = max(_maxabs(getattr(jf, k) - getattr(ja, k)) for k in ("dX", "ddX", "Vt", "dVt"))
        rows.append((h, err))
    return {**_study(rows), "kind": "fd", "scenario": scenario, "seed": seed}


def run_converge_thinfilm(scenario: str, seed: int = 7) -> dict:
    surface = get_scenario(scenario)
    ev = sample_events(surface, 1, seed)[0]
    reports = limit_study(surface, ev)
    return {
        "kind": "thinfilm",
        "reports": [r.to_json_obj() for r in reports],
        "scenario": scenario,
        "seed": seed,
    }


def run_converge_laplace(scenario: str) -> dict:
    surface = get_scenario(scenario)
    t0 = _T_RANGE[0]

    def f(t, a, b):
        return np.sin(a) * np.cos(b) + 0.3 * np.cos(2.0 * b)

    rows = []
    for n in (16, 32, 64, 128):
        gg = make_grid(surface, t0, n)
        F = f(t0, gg.y1[:, None], gg.y2[None, :])
        ref = scalar_laplace(surface, f, Event(t0, gg.y1[:, None], gg.y2[None, :]), gg.geom)
        err = _maxabs(grid_laplace(gg, F) - ref)
        rows.append((gg.h1, err))
    return {**_study(rows), "kind": "laplace", "scenario": scenario}


# ---------------------------------------------------------------------------
# commands


def _dump_json(obj: dict, path: str):
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise SurfratesError(f"non-finite value in report {path}; nothing written") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def cmd_verify(args) -> int:
    out = _outdir(args.out)
    report = run_verify(args.scenario, args.suite, args.events, args.seed)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"verify_{args.scenario}_{args.suite}.json")
    _dump_json(report, path)
    for row in report["identities"]:
        flag = "PASS" if row["pass"] else "FAIL"
        print(
            f"{flag} {row['identity_name']}: residual={row['residual']:.3e} "
            f"tol={row['tol']:.1e}"
        )
    n_fail = sum(1 for r in report["identities"] if not r["pass"])
    print(
        f"{report['n_identities']} identities checked on {report['n_events']} events; "
        f"{n_fail} failed; report: {path}"
    )
    return 0 if report["all_pass"] else 1


def _from_args(cls, args):
    """A dataclass cls built from the parsed arguments named as its fields."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)})


def cmd_flow(args) -> int:
    surface = get_scenario(args.scenario)
    params, config = (_from_args(cls, args) for cls in (LdGParams, FlowConfig))
    # run_flow creates out once its first grid passes the stability check
    out = _outdir(args.out)
    path = os.path.join(out, "flow_report.json")
    run = {
        "config": dataclasses.asdict(config),
        "params": dataclasses.asdict(params),
        "scenario": args.scenario,
    }
    try:
        result = run_flow(surface, params, config, out_dir=out)
    except StabilityError as exc:
        # a failure on the first grid comes before out exists, and has no step
        if exc.step is not None:
            failure = {"reason": str(exc), "step": exc.step, "t": exc.t}
            _dump_json({**run, "failure": failure}, path)
            print(f"failure report: {path}", file=sys.stderr)
        raise
    first = result.energy_rows[0]
    last = result.energy_rows[-1]
    monotone = bool(np.all(np.diff(result.energies) <= ENERGY_RISE_TOL))
    report = {
        **run,
        "crosscheck_max_residual": (
            float(np.max([r[2] for r in result.crosschecks])) if result.crosschecks else None
        ),
        "energy_final": last[4],
        "energy_initial": first[4],
        "monotone": monotone,
        "stability_bound": result.bound,
    }
    _dump_json(report, path)
    print(
        f"flow {config.mode} on {args.scenario}: {config.steps} steps, "
        f"energy {first[4]:.6g} -> {last[4]:.6g}, monotone={monotone}"
    )
    print(f"energy trace: {os.path.join(out, 'energy.csv')}; report: {path}")
    worst = report["crosscheck_max_residual"]
    if worst is not None and worst > CROSSCHECK_TOL:
        print(f"crosscheck FAIL: worst residual {worst:.3e} > {CROSSCHECK_TOL:g}", file=sys.stderr)
        return 1
    return 0


_CONVERGE_DEFAULT_SCENARIO = {
    "fd": "torus-breathing",
    "thinfilm": "torus-breathing-drift",
    "laplace": "torus-static",
}


def cmd_converge(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    scenario = args.scenario or _CONVERGE_DEFAULT_SCENARIO[args.kind]
    out = _outdir(args.out)
    if args.kind == "fd":
        report = run_converge_fd(scenario, args.seed)
    elif args.kind == "laplace":
        report = run_converge_laplace(scenario)
    else:
        report = run_converge_thinfilm(scenario, args.seed)
    os.makedirs(out, exist_ok=True)
    # a thin-film study holds one report per quantity, each with its own CSV
    for study in report.get("reports", [report]):
        suffix = f"_{study['quantity']}" if "quantity" in study else ""
        path = os.path.join(out, f"converge_{args.kind}{suffix}.csv")
        order = study["fitted_order"]
        with open(path, "w") as fh:
            fh.write("step,error,fitted_order\n")
            for row in study["rows"]:
                step = row.get("step", row.get("xi"))
                fh.write(f"{step:.6g},{row['error']:.6e},{order}\n")
        print(f"wrote {path} (fitted_order={order})")
    _dump_json(report, os.path.join(out, f"converge_{args.kind}.json"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfrates",
        description="Verification and simulation tools for time derivatives on moving surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run identity and dual-path checks")
    pv.add_argument("--scenario", required=True, help=f"one of {', '.join(list_scenarios())}")
    pv.add_argument("--suite", default="all", choices=SUITES)
    pv.add_argument("--events", type=int, default=20)
    pv.add_argument("--seed", type=int, default=20240)
    pv.add_argument("--out", default=None)

    pf = sub.add_parser("flow", help="integrate a surface Landau-de Gennes flow")
    pf.add_argument("--scenario", default="torus-static")
    # one flag per setting; the dataclasses check the values
    for f in dataclasses.fields(LdGParams) + dataclasses.fields(FlowConfig):
        pf.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    pf.add_argument("--out", default=None)

    pc = sub.add_parser("converge", help="convergence studies")
    pc.add_argument("--kind", required=True, choices=("fd", "thinfilm", "laplace"))
    pc.add_argument("--scenario", default=None)
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "flow":
            return cmd_flow(args)
        return cmd_converge(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return 1
    except SurfratesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
