import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import run
import tracing
from workloads import check_flow, check_verify

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(residual, passed=True):
    row = {"identity_name": "gauss-formula", "pass": passed, "residual": residual, "tol": 1e-8}
    return {"all_pass": passed, "identities": [row]}


def test_check_verify_needs_all_pass_and_finite_residuals():
    assert check_verify(_report(1e-12)) is None
    assert "identity failed" in check_verify(_report(1e-3, passed=False))
    assert "non-finite" in check_verify(_report(float("nan")))


def _flow(energies, residual=0.0):
    rows = [(k, 0.1 * k, 0.0, 0.0, e, residual, residual) for k, e in enumerate(energies)]
    return SimpleNamespace(energy_rows=rows, final_Q=np.zeros((3, 3, 4, 4)))


def test_check_flow_conditions():
    assert check_flow(_flow([3.0, 2.0, 1.0]), 2, static=True) is None
    assert "rose" in check_flow(_flow([3.0, 2.0, 2.5]), 2, static=True)
    assert check_flow(_flow([3.0, 2.0, 2.5]), 2, static=False) is None
    assert "non-finite" in check_flow(_flow([3.0, np.nan, np.nan]), 2, static=True)
    assert "residual" in check_flow(_flow([3.0, 2.0, 1.0], residual=1e-9), 2, static=True)
    assert "rows" in check_flow(_flow([3.0, 2.0]), 2, static=True)


class _NanFlow:
    """The run that ends with NaN energy and exit 0 from the `flow` command."""

    items = 50

    def calls(self, i):
        return [self._flow]

    def _flow(self):
        from surfrates import get_scenario
        from surfrates.landau import FlowConfig, LdGParams, run_flow

        config = FlowConfig(n=24, steps=self.items, amplitude=300.0)
        with np.errstate(all="ignore"):
            result = run_flow(get_scenario("torus-breathing"), LdGParams(), config)
        return check_flow(result, self.items, static=False)


def test_nan_flow_counts_as_failed():
    tally = run.Tally()
    assert not tally.serve(_NanFlow(), 0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "non-finite" in tally.first_failure or "StabilityError" in tally.first_failure


class _Alternating:
    """Odd requests raise; even ones pass."""

    items = 2
    reference = "pointwise"

    def calls(self, i):
        return [self._call, self._call] if i % 2 == 0 else [self._call, self._raise]

    @staticmethod
    def _call():
        return None

    @staticmethod
    def _raise():
        raise ValueError("odd request")


def test_measure_counts_failures_and_only_passed_items():
    tally = run.Tally()
    by_kernel, wall, samples = run.measure(_Alternating(), 0.05, tally)
    assert tally.attempted == samples + 1
    assert tally.failed == (samples + 1) // 2
    assert tally.first_failure.startswith("request 1: ValueError")
    assert sorted(by_kernel) == ["grid", "pointwise"]
    assert all(m["items_per_s"][0] > 0 for m in (*by_kernel.values(), wall))


def _run_cli(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_command_prints_every_end_to_end_metric():
    proc = _run_cli(["--workload", "flow-static", "--seed", "1", "--seconds", "0.5", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_prints_every_per_layer_metric():
    proc = _run_cli(["--workload", "flow-moving", "--seed", "1", "--seconds", "0", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCHMARK["per_layer"])
    assert [m[0] for m in tracing.LAYER_METRICS] + ["trace.overhead_ratio"] == list(got)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(["--workload", "flow-static", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
