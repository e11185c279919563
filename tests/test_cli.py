import gc
import json
import math
import os
import weakref
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from surfrates import _fd, cli
from surfrates.chart_kernel import (
    Event,
    MovingSurface,
    _memo_jets,
    fd_variant,
    get_scenario,
    list_scenarios,
    sample_events,
)
from surfrates.cli import main, run_converge_fd, run_converge_thinfilm, run_verify
from surfrates.errors import ConfigError, StabilityError
from surfrates.geometry import IdentityReport, MotionSample, check_identities
from surfrates.landau import FLOW_MODES, FlowConfig, LdGParams, run_flow
from surfrates.thinfilm import LIMIT_QUANTITIES
from surfrates.timederiv import q_field


def test_verify_exit_zero_and_report(tmp_path):
    rc = main(
        [
            "verify",
            "--scenario",
            "torus-breathing",
            "--suite",
            "geometry",
            "--events",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    path = tmp_path / "verify_torus-breathing_geometry.json"
    assert path.exists()
    report = json.loads(path.read_text())
    assert report["all_pass"] is True
    assert report["suite"] == "geometry"
    assert report["n_identities"] == 16


def test_verify_reports_are_byte_identical(tmp_path):
    args = [
        "verify",
        "--scenario",
        "torus-breathing",
        "--suite",
        "qtensor",
        "--events",
        "3",
        "--seed",
        "77",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    fname = "verify_torus-breathing_qtensor.json"
    assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_unknown_scenario_is_config_error(capsys):
    rc = main(["flow", "--scenario", "no-such-scenario", "--steps", "1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_verify_without_events_is_config_error(tmp_path, capsys):
    # zero events would leave only the grid rows of a torus and pass
    rc = main(["verify", "--scenario", "torus-static", "--events", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_verify_all_covers_forty_identities(tmp_path):
    report = run_verify("torus-breathing", "all", n_events=2, seed=5)
    assert report["n_identities"] >= 40
    assert report["all_pass"] is True


@pytest.mark.parametrize("scenario", ["torus-breathing-drift", "sphere-rigid-rotation"])
@pytest.mark.parametrize(
    "field, factor, row",
    [("A", 2.0, "jaumann-rank2-dual-path"), ("Acal", 0.999, "jaumann-halfsum-rank2")],
)
def test_jaumann_routes_read_independent_spins(monkeypatch, scenario, field, factor, row):
    # the Decomposed Jaumann route reads the spin A, the ViaMaterial route
    # Acal, and the half-sum of Upper and Lower Gcal; a fault in one spin
    # fails the row that compares its route with another
    def passes():
        report = run_verify(scenario, "all", 3, 7)
        return {r["identity_name"]: r["pass"] for r in report["identities"]}[row]

    assert passes()
    formula = MotionSample.__dict__[field].func
    monkeypatch.setattr(MotionSample, field, property(lambda mot: factor * formula(mot)))
    assert not passes()


def test_converge_fd_csv(tmp_path):
    rc = main(["converge", "--kind", "fd", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "converge_fd.csv").read_text().splitlines()
    assert lines[0] == "step,error,fitted_order"
    assert len(lines) == 4
    order = float(lines[1].split(",")[2])
    assert 3.5 < order < 4.5


def test_converge_laplace_csv(tmp_path):
    rc = main(["converge", "--kind", "laplace", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "converge_laplace.json").read_text())
    assert 1.7 < report["fitted_order"] < 2.3


def test_converge_thinfilm_outputs(tmp_path):
    rc = main(["converge", "--kind", "thinfilm", "--out", str(tmp_path)])
    assert rc == 0
    for qty in ("JaumannDt", "UpperDt", "Deformation"):
        path = tmp_path / f"converge_thinfilm_{qty}.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "step,error,fitted_order"
    report = json.loads((tmp_path / "converge_thinfilm.json").read_text())
    assert len(report["reports"]) == len(LIMIT_QUANTITIES)


def test_converge_reports_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["converge", "--kind", "fd", "--out", str(out_a)]) == 0
    assert main(["converge", "--kind", "fd", "--out", str(out_b)]) == 0
    assert (out_a / "converge_fd.csv").read_bytes() == (out_b / "converge_fd.csv").read_bytes()
    assert (out_a / "converge_fd.json").read_bytes() == (out_b / "converge_fd.json").read_bytes()


def test_flow_command_outputs(tmp_path):
    rc = main(
        [
            "flow",
            "--scenario",
            "torus-static",
            "--n",
            "24",
            "--dt",
            "1e-4",
            "--steps",
            "25",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "energy.csv").exists()
    report = json.loads((tmp_path / "flow_report.json").read_text())
    assert report["monotone"] is True
    assert report["energy_final"] < report["energy_initial"]


def test_flow_unstable_dt_exit_one(tmp_path, capsys):
    rc = main(
        [
            "flow",
            "--scenario",
            "torus-static",
            "--n",
            "24",
            "--dt",
            "1.0",
            "--steps",
            "2",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "stability error" in capsys.readouterr().err
    # the first grid fails its bound check before the run writes anything
    assert list(tmp_path.iterdir()) == []


def test_energy_rise_stops_a_static_flow(tmp_path, monkeypatch, capsys):
    # the flow run against its driving force raises the energy, which the
    # static-surface watchdog must catch
    import surfrates.landau as landau

    rhs_full = landau.rhs_full
    monkeypatch.setattr(landau, "rhs_full", lambda *args: -rhs_full(*args))
    with pytest.raises(StabilityError, match=r"energy rose by 0\.193266 at step 1"):
        run_flow(get_scenario("torus-static"), LdGParams(), FlowConfig(n=16, steps=3))
    assert main(["flow", "--n", "16", "--steps", "3", "--out", str(tmp_path)]) == 1
    assert "energy rose" in capsys.readouterr().err
    failure = _strict_json(tmp_path / "flow_report.json")["failure"]
    assert failure["reason"].startswith("energy rose by 0.193266 at step 1;")
    assert (failure["step"], failure["t"]) == (1, 1e-4)


def test_flow_failing_mid_run_reports_its_step(tmp_path, capsys):
    # dt passes the bound of the t = 0 grid (0.0130); the breathing tube
    # thickens, and the grid at the start of step 28 has a lower one
    out = tmp_path / "out"
    args = ["--scenario", "torus-breathing", "--n", "24", "--dt", "0.0126", "--steps", "40"]
    assert main(["flow", *args, "--out", str(out)]) == 1
    assert "bound 0.0125587 at t=0.3528" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["energy.csv", "flow_report.json"]
    # the rows of steps 0 to 27, computed before the failure, are kept
    lines = (out / "energy.csv").read_text().splitlines()
    assert len(lines) == 1 + 28
    assert lines[-1].startswith("27,0.3402,")
    report = _strict_json(out / "flow_report.json")
    assert sorted(report) == ["config", "failure", "params", "scenario"]
    assert report["scenario"] == "torus-breathing"
    assert report["config"]["dt"] == 0.0126
    failure = report["failure"]
    assert (failure["step"], failure["t"]) == (28, 0.3528)
    assert failure["reason"] == (
        "dt=0.0126 exceeds the explicit stability bound 0.0125587 at t=0.3528"
    )


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SURFRATES_OUTDIR", str(tmp_path / "envout"))
    rc = main(
        ["verify", "--scenario", "flat-torus", "--suite", "geometry", "--events", "2"]
    )
    assert rc == 0
    assert (tmp_path / "envout" / "verify_flat-torus_geometry.json").exists()


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{constant} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_flow_non_finite_exit_one_without_nan_json(tmp_path, capsys):
    # the cubic bulk term blows this run up within a few steps
    rc = main(
        [
            "flow",
            "--scenario",
            "torus-breathing",
            "--n",
            "24",
            "--steps",
            "50",
            "--amplitude",
            "300",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "not finite at step" in err
    for path in tmp_path.rglob("*.json"):
        _strict_json(path)


def _crosscheck_flow_args(out):
    return [
        "flow",
        "--scenario",
        "torus-static",
        "--n",
        "16",
        "--steps",
        "2",
        "--crosscheck-every",
        "1",
        "--out",
        str(out),
    ]


def test_flow_crosscheck_failure_exit_one(tmp_path, monkeypatch, capsys):
    import surfrates.landau as landau

    monkeypatch.setattr(landau, "_crosscheck_residual", lambda *args: 2.5e-5)
    assert main(_crosscheck_flow_args(tmp_path)) == 1
    assert "2.500e-05" in capsys.readouterr().err
    report = _strict_json(tmp_path / "flow_report.json")
    assert report["crosscheck_max_residual"] == 2.5e-5


def test_flow_nan_crosscheck_exit_one(tmp_path, monkeypatch, capsys):
    import surfrates.landau as landau

    monkeypatch.setattr(landau, "_conforming_route_residual", lambda *args: float("nan"))
    assert main(_crosscheck_flow_args(tmp_path)) == 1
    assert "non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "flow_report.json").exists()


def test_rows_keep_a_nan_worst_residual():
    # max(finite, nan) is the finite value; the NaN event must decide the row
    report = IdentityReport()
    report.add("x", np.array([1e-9, float("nan"), 1e-8]), 1e-6)
    (row,) = report.to_json_obj()
    assert math.isnan(row["residual"])
    assert not row["pass"]
    assert not report.all_pass


def test_flow_crosscheck_pass_exit_zero(tmp_path):
    assert main(_crosscheck_flow_args(tmp_path)) == 0
    report = _strict_json(tmp_path / "flow_report.json")
    assert report["crosscheck_max_residual"] < 1e-5


@pytest.mark.parametrize("mode", ["FullQ_Material", "FullQ_Jaumann"])
def test_flow_crosscheck_in_a_full_tensor_mode_is_a_config_error(tmp_path, capsys, mode):
    # the cross-check compares two conforming routes; a full-tensor flow
    # would skip it and report null
    with pytest.raises(ConfigError):
        FlowConfig(mode=mode, crosscheck_every=1)
    assert main(_crosscheck_flow_args(tmp_path) + ["--mode", mode]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "flow_report.json").exists()


def test_flow_report_config_records_the_amplitude(tmp_path):
    configs = []
    for k, extra in enumerate(([], ["--amplitude", "0.05"])):
        out = tmp_path / str(k)
        assert main(["flow", "--n", "16", "--steps", "2", "--out", str(out), *extra]) == 0
        configs.append(_strict_json(out / "flow_report.json")["config"])
    assert [c["amplitude"] for c in configs] == [0.1, 0.05]


def test_flow_report_records_every_config_and_params_field(tmp_path):
    assert main(["flow", "--n", "16", "--steps", "2", "--out", str(tmp_path)]) == 0
    report = _strict_json(tmp_path / "flow_report.json")
    assert report["config"] == asdict(FlowConfig(n=16, steps=2))
    assert report["params"] == asdict(LdGParams())


def test_flow_flag_defaults_are_the_dataclass_defaults():
    args = cli.build_parser().parse_args(["flow"])
    assert cli._from_args(FlowConfig, args) == FlowConfig()
    assert cli._from_args(LdGParams, args) == LdGParams()


@pytest.mark.parametrize(
    "flag, value, names",
    [("--mode", "Bogus", FLOW_MODES), ("--method", "leapfrog", ("euler", "rk4"))],
)
def test_flow_bad_choice_is_a_config_error_naming_the_choices(
    tmp_path, capsys, flag, value, names
):
    rc = main(["flow", "--n", "16", "--steps", "2", "--out", str(tmp_path), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(name in err for name in names)


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "FullQ_Material", "--crosscheck-every", "-1"],
        ["--crosscheck-every", "-2"],
        ["--snapshot-every", "-1"],
    ],
)
def test_flow_negative_every_is_a_config_error(tmp_path, capsys, extra):
    rc = main(["flow", "--n", "16", "--steps", "2", "--out", str(tmp_path), *extra])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra",
    [
        ["--n", "8"],
        ["--dt", "nan"],
        ["--dt", "inf"],
        ["--a", "nan"],
        ["--L", "inf"],
        ["--b=-inf"],
        ["--seed=-1"],
        ["--amplitude", "nan"],
        ["--beta0", "inf"],
        ["--scenario", "plane-shear"],
    ],
    ids=[
        "n-below-16",
        "dt-nan",
        "dt-inf",
        "a-nan",
        "L-inf",
        "b-minus-inf",
        "seed-minus-1",
        "amplitude-nan",
        "beta0-inf",
        "plane-not-periodic",
    ],
)
def test_flow_settings_that_cannot_run_are_config_errors(tmp_path, capsys, extra):
    # a grid too coarse for the stencils, a non-finite step, parameter or
    # initial value, a negative seed and a scenario without a periodic grid
    # are rejected with the settings (exit 2), before a run could fail on
    # them (exit 1), and the output directory is not created
    rc = main(["flow", "--n", "16", "--steps", "2", "--out", str(tmp_path / "out"), *extra])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--scenario", "torus-static"],
        ["converge", "--kind", "fd"],
        ["converge", "--kind", "thinfilm"],
        ["converge", "--kind", "laplace"],
    ],
    ids=["verify", "converge-fd", "converge-thinfilm", "converge-laplace"],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # numpy's generators reject a negative seed; the command does so first,
    # with exit 2, and writes nothing, not even the output directory
    rc = main([*command, "--seed=-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "via_env, below",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["flag", "env", "flag-below", "env-below"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--scenario", "torus-static"],
        ["converge", "--kind", "fd"],
        ["flow", "--n", "16", "--steps", "2"],
    ],
    ids=["verify", "converge", "flow"],
)
def test_out_naming_an_existing_file_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, via_env, below
):
    # the output path is checked before any work: a file there, or a file
    # above a path that does not exist yet, is rejected with exit 2 and left
    # as it was, and nothing else is written
    for name in ("run_verify", "run_converge_fd", "run_flow"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran before --out was checked"))
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = str(taken / "sub" if below else taken)
    if via_env:
        monkeypatch.setenv("SURFRATES_OUTDIR", out)
    else:
        command = [*command, "--out", out]
    assert main(command) == 2
    assert "config error" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("n_events", [1, 3])
def test_verify_and_converge_take_batched_path(monkeypatch, n_events):
    # every closure behind `verify`, `converge --kind thinfilm` and the flow
    # cross-check broadcasts over the stencil axis, so no stencil falls back
    # to per-offset calls
    def no_fallback(f, *args):
        raise AssertionError(f"per-offset stencil fallback for {f!r}")

    monkeypatch.setattr(_fd, "_per_offset", no_fallback)
    for scenario in list_scenarios():
        assert run_verify(scenario, "all", n_events=n_events, seed=5)["all_pass"]
    run_converge_thinfilm("torus-breathing-drift")
    config = FlowConfig(n=16, steps=1, crosscheck_every=1)
    result = run_flow(get_scenario("torus-static"), LdGParams(), config)
    assert [row[0] for row in result.crosschecks] == [0, 1]
    assert max(row[2] for row in result.crosschecks) < 1e-5


def test_fd_twins_take_batched_path(monkeypatch):
    # an FD twin's time stencil nests inside its spatial ones on one
    # convention, so its identities and `converge --kind fd` make no
    # per-offset call
    def no_fallback(f, *args):
        raise AssertionError(f"per-offset stencil fallback for {f!r}")

    monkeypatch.setattr(_fd, "_per_offset", no_fallback)
    for scenario in list_scenarios():
        surface = fd_variant(get_scenario(scenario))
        events = sample_events(surface, 3, 5)
        batch = Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events])))
        assert check_identities(surface, batch).all_pass
    assert run_converge_fd("torus-breathing")["fitted_order"] > 3.5


def _counting_probes(monkeypatch):
    """Patches the probes of `verify` so that each closure call is counted
    under (probe, attribute)."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def field(name):
        orig = getattr(cli, name)

        def probe(surface, rank):
            f = orig(surface, rank)
            key = f"{name}-{rank}"
            return replace(
                f,
                eval=counted((key, "eval"), f.eval),
                split_eval=counted((key, "split_eval"), f.split_eval),
            )

        monkeypatch.setattr(cli, name, probe)

    def qfield(name):
        orig = getattr(cli, name)

        def probe(surface):
            # rebuilt on the counted blocks, so the calls that the proxy
            # makes to read them count too
            f = q_field(surface, counted((name, "split_eval"), orig(surface).split_eval))
            return replace(f, eval=counted((name, "eval"), f.eval))

        monkeypatch.setattr(cli, name, probe)

    for name in ("probe_field", "probe_field_b"):
        field(name)
    for name in ("probe_q_field", "probe_conforming_q_field"):
        qfield(name)
    return calls


@pytest.mark.parametrize("n_events", [1, 3])
def test_verify_evaluates_each_closure_once_per_side(monkeypatch, n_events):
    # for the whole batch of events, each probe's split_eval is called once
    # (all Decomposed routes share its parts) and eval once for the proxy
    # routes plus once inside the product closure of the scalar rate; a Q
    # probe's split_eval serves its own parts, which the pointwise algebra
    # reads too, and its proxy, which reads the blocks
    calls = _counting_probes(monkeypatch)
    assert run_verify("torus-breathing-drift", "derivatives", n_events=n_events, seed=5)[
        "all_pass"
    ]
    want = {}
    for rank in (1, 2):
        want[(f"probe_field-{rank}", "eval")] = 2
        want[(f"probe_field-{rank}", "split_eval")] = 1
        want[(f"probe_field_b-{rank}", "eval")] = 2
    assert dict(calls) == want

    calls.clear()
    assert run_verify("torus-breathing-drift", "qtensor", n_events=n_events, seed=5)["all_pass"]
    assert dict(calls) == {
        ("probe_q_field", "split_eval"): 2,
        ("probe_q_field", "eval"): 1,
        ("probe_conforming_q_field", "split_eval"): 2,
        ("probe_conforming_q_field", "eval"): 1,
    }

    # the split routes of the Laplacian take every block from one packed
    # closure per sweep point set (4 calls); ClosedForm keeps its centre
    # split_eval for the conforming check, Projected its own, and the full
    # proxy of the Beltrami route makes one more
    calls.clear()
    assert run_verify("torus-breathing-drift", "laplace", n_events=n_events, seed=5)["all_pass"]
    assert dict(calls) == {
        ("probe_field-2", "eval"): 1,
        ("probe_field-2", "split_eval"): 4,
        ("probe_conforming_q_field", "split_eval"): 7,
        ("probe_conforming_q_field", "eval"): 1,
    }


@pytest.mark.parametrize("n_events", [1, 3])
def test_geometry_identities_take_three_chart_jets(monkeypatch, n_events):
    # for the whole batch of events: one for their geometry, one for the spatial stencil of all
    # partials and one for the time stencil of all time derivatives
    jets = Counter()
    orig = MovingSurface.jet

    def jet(self, *args):
        jets["jet"] += 1
        return orig(self, *args)

    monkeypatch.setattr(MovingSurface, "jet", jet)
    assert run_verify("torus-breathing-drift", "geometry", n_events=n_events, seed=5)["all_pass"]
    assert jets["jet"] == 3


@pytest.mark.parametrize(
    "scenario, evaluations",
    [
        ("torus-breathing-drift", 8),
        ("sphere-expanding", 7),
        ("sphere-rigid-rotation", 7),
        ("plane-shear", 7),
    ],
)
def test_verify_evaluates_each_chart_point_set_once(monkeypatch, scenario, evaluations):
    # every route, probe and stencil of one call asks for a few point sets
    # only (33 and 32 chart jets without the memo); the torus adds the grid
    # of the periodic Laplacian checks
    calls = Counter()

    def counted(name):
        surface = get_scenario(name)
        jets = surface.jets

        def counting(*args):
            calls[name] += 1
            return jets(*args)

        return replace(surface, jets=counting)

    monkeypatch.setattr(cli, "get_scenario", counted)
    assert run_verify(scenario, "all", n_events=1, seed=5)["all_pass"]
    assert calls == {scenario: evaluations}


@pytest.mark.parametrize("n_events", [1, 3])
def test_verify_memo_changes_no_report(monkeypatch, n_events):
    def reports():
        return [
            json.dumps(run_verify(s, "all", n_events=n_events, seed=5), sort_keys=True)
            for s in list_scenarios()
        ]

    memoized = reports()
    monkeypatch.setattr(cli, "_memo_jets", lambda surface: surface)
    assert reports() == memoized


def test_verify_memo_dies_with_the_call(monkeypatch):
    # the suites see a memoized copy of the scenario, whose closure is gone
    # once the call returns; the scenario keeps the registry's own jets
    seen = []
    orig_get, orig_sample = cli.get_scenario, cli.sample_events

    def get(name):
        surface = orig_get(name)
        seen.append((surface, surface.jets))
        return surface

    def sample(surface, n, seed):
        seen.append(weakref.ref(surface.jets))
        return orig_sample(surface, n, seed)

    monkeypatch.setattr(cli, "get_scenario", get)
    monkeypatch.setattr(cli, "sample_events", sample)
    assert run_verify("torus-breathing-drift", "all", n_events=2, seed=5)["all_pass"]
    (scenario, jets), memo = seen
    gc.collect()
    assert memo() is None
    assert scenario.jets is jets


def test_memoized_fd_twins_keep_the_fd_tolerance():
    # an FD twin has no closed-form jets to memoize, so its identities keep
    # the FD tolerance
    surface = fd_variant(get_scenario("torus-breathing-drift"))
    events = sample_events(surface, 2, 5)
    batch = Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events])))
    report = check_identities(_memo_jets(surface), batch)
    assert report.all_pass
    assert {tol for _, tol in report.rows.values()} == {1e-6}


@pytest.mark.parametrize("suite", ["geometry", "all"])
def test_verify_geometry_suite_calls_check_identities_once(monkeypatch, suite):
    # the geometry suite runs the public battery on the shared frame
    calls = []
    orig = cli.check_identities

    def counted(surface, event, geom=None, mot=None):
        calls.append((geom, mot))
        return orig(surface, event, geom, mot)

    monkeypatch.setattr(cli, "check_identities", counted)
    assert run_verify("torus-breathing-drift", suite, n_events=2, seed=5)["all_pass"]
    assert len(calls) == 1
    assert all(x is not None for x in calls[0])


@pytest.mark.parametrize("scenario", list_scenarios())
def test_verify_rows_are_the_worst_single_event_rows(monkeypatch, scenario):
    # a batch row is the largest of the rows of its events verified alone
    batch = run_verify(scenario, "all", n_events=3, seed=11)
    events = cli.sample_events(get_scenario(scenario), 3, 11)
    singles = []
    for ev in events:
        monkeypatch.setattr(cli, "sample_events", lambda surface, n, seed, ev=ev: [ev])
        report = run_verify(scenario, "all", n_events=1, seed=11)
        singles.append({r["identity_name"]: r["residual"] for r in report["identities"]})
    assert all(set(rows) == {r["identity_name"] for r in batch["identities"]} for rows in singles)
    for row in batch["identities"]:
        worst = max(rows[row["identity_name"]] for rows in singles)
        assert abs(row["residual"] - worst) <= 1e-12, row["identity_name"]


def test_verify_fails_a_wrong_du_term_where_u_varies(monkeypatch):
    # dV_m's du term multiplies zeros wherever u is constant; on
    # torus-breathing-swirl u varies in space, so that term transposed and
    # tripled fails the rows that read the material velocity gradient
    def mutant(self):
        jet = self.geom.jet
        return (
            self.dV_o
            + 3.0 * np.einsum("jk...,ak...->aj...", self.du, jet.dX)
            + np.einsum("k...,akj...->aj...", self.u2, jet.ddX)
        )

    monkeypatch.setattr(MotionSample, "dV_m", property(mutant))
    report = run_verify("torus-breathing-swirl", "all", n_events=2, seed=5)
    failed = {r["identity_name"] for r in report["identities"] if not r["pass"]}
    assert "velocity-gradient-additivity" in failed
