"""Benchmark workloads: deterministic request streams and their output checks.

A workload is built from its seed alone and serves request ``i`` the same
inputs on every run.  Each request covers ``items`` items (verify events or
flow steps).  ``calls(i)`` lists the request's calls into the package; each
returns a failure reason, or None when its output passes the checks.
``reference`` names the kernel of reference.py, of the same profile as the
workload, that scales the call times of the gated metrics.

The package is called through module attributes (``cli.run_verify``,
``landau.run_flow``) so that a traced run sees the patched entry points.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from surfrates import cli, diffops, landau
from surfrates.chart_kernel import get_scenario

MOVING_SCENARIOS = (
    "torus-breathing-drift",
    "sphere-expanding",
    "sphere-rigid-rotation",
    "plane-shear",
)

# Largest allowed trace / symmetry residual of a flow state, and the energy
# rise tolerated on a static surface (the CLI's `monotone` test).
STRUCTURE_TOL = 1e-10
MONOTONE_TOL = 1e-10


def request_seed(seed: int, i: int) -> int:
    """The ``i``-th request seed, derived from the workload seed only."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def check_verify(report: dict) -> str | None:
    """Failure reason for a `run_verify` report, or None if it passed."""
    bad = [r["identity_name"] for r in report["identities"] if not math.isfinite(r["residual"])]
    if bad:
        return f"non-finite residual in {bad[0]}"
    if not report["all_pass"]:
        failed = [r["identity_name"] for r in report["identities"] if not r["pass"]]
        return f"identity failed: {failed[0] if failed else 'all_pass is false'}"
    return None


def check_flow(result, steps: int, static: bool) -> str | None:
    """Failure reason for a `run_flow` result, or None if it passed."""
    rows = np.array(result.energy_rows, dtype=float)
    if rows.shape != (steps + 1, len(landau.ENERGY_COLUMNS)):
        return f"expected {steps + 1} energy rows, got {rows.shape[0]}"
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(result.final_Q))):
        return "non-finite energy, residual or final state"
    if np.max(rows[:, 5:7]) > STRUCTURE_TOL:
        return f"trace/symmetry residual {np.max(rows[:, 5:7]):.3e} above {STRUCTURE_TOL:g}"
    if static and np.any(np.diff(rows[:, 4]) > MONOTONE_TOL):
        return "energy rose on a static surface"
    return None


class VerifyWorkload:
    """One `run_verify(scenario, "all", 1, seed)` per moving scenario in a request.

    A request covers every scenario once: their per-event times form separate
    clusters, and a median over single-scenario requests jumps between them.
    """

    item = "event"
    items = len(MOVING_SCENARIOS)
    reference = "pointwise"

    def __init__(self, seed: int):
        for name in MOVING_SCENARIOS:
            get_scenario(name)
        self.seed = seed

    def calls(self, i: int):
        return [
            partial(self._verify, scenario, request_seed(self.seed, i * self.items + k))
            for k, scenario in enumerate(MOVING_SCENARIOS)
        ]

    @staticmethod
    def _verify(scenario: str, seed: int):
        failure = check_verify(cli.run_verify(scenario, "all", 1, seed))
        return failure and f"{scenario}: {failure}"


class FlowWorkload:
    """One `run_flow` call per request, at half the explicit stability bound.

    The request time includes the call's set-up (grid, initial state, step-0
    energy, final state), as a `flow` user pays it.  The `flow` command runs
    200 steps by default, where that set-up is under 1% of the time.  A
    request here runs fewer steps, so that a run holds enough requests for a
    percentile, and the set-up is about 8% of it (see FLOW_STEPS).
    """

    item = "step"
    n = 128
    reference = "grid"

    def __init__(self, seed: int, scenario: str, mode: str, method: str, steps: int):
        self.seed = seed
        self.surface = get_scenario(scenario)
        self.params = landau.LdGParams()
        grid = diffops.make_grid(self.surface, 0.0, self.n)
        self.dt = 0.5 * landau.stability_bound(grid, self.params)
        self.mode, self.method, self.items = mode, method, steps

    def calls(self, i: int):
        return [partial(self._flow, request_seed(self.seed, i))]

    def _flow(self, seed: int):
        config = landau.FlowConfig(
            mode=self.mode,
            n=self.n,
            dt=self.dt,
            steps=self.items,
            method=self.method,
            seed=seed,
        )
        result = landau.run_flow(self.surface, self.params, config)
        return check_flow(result, self.items, self.surface.static)


# Steps per flow request.  On a 2-core Intel Xeon VM a call's set-up took
# 113 ms (flow-static) and 129 ms (flow-moving), and a step 81 ms and 141 ms,
# so the set-up is 8% of a request, and a 30-s run makes 15 to 28 requests
# of each.  Twice the steps halve the set-up share, but the p90 of 11
# requests spread 0.16 between runs.
FLOW_STEPS = {"flow-static": 16, "flow-moving": 10}

WORKLOADS = {
    "verify-moving": VerifyWorkload,
    "flow-static": lambda seed: FlowWorkload(
        seed, "torus-static", "Conforming_Material", "euler", FLOW_STEPS["flow-static"]
    ),
    "flow-moving": lambda seed: FlowWorkload(
        seed, "torus-breathing-drift", "FullQ_Jaumann", "rk4", FLOW_STEPS["flow-moving"]
    ),
}
