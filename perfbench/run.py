"""surfrates benchmark: closed-loop `verify` and gradient-flow workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-moving --seed 1 --seconds 30 --trace 0

One client in one process sends each request after the previous one ends.
With ``--trace 0`` it prints the end-to-end metrics, with request times at
the reference speed of reference.py; with ``--trace 1`` it alternates
untraced and traced passes over one fixed request and prints the per-layer
metrics, writing the spans under ``.bench_out/``.  Every output is checked;
the last line of standard output is the result object.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process; must happen before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9


class Tally:
    """Requests attempted and failed, with the first failure reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def serve(self, workload, i: int, on_call=None) -> bool:
        """Make request ``i``; ``on_call`` receives each call's wall time."""
        self.attempted += 1
        failure = None
        try:
            for call in workload.calls(i):
                t0 = perf_counter()
                failure = call()
                if on_call is not None:
                    on_call(perf_counter() - t0)
                if failure is not None:
                    break
        except Exception as exc:  # a failed request must not end the run
            traceback.print_exc(file=sys.stderr)
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            self.failed += 1
            self.first_failure = self.first_failure or f"request {i}: {failure}"
        return failure is None


def measure(workload, seconds: float, tally: Tally) -> tuple[dict, dict, int]:
    """Closed loop for ``seconds``.

    Returns the end-to-end metrics at the speed of each reference kernel
    (see reference.py), keyed by kernel name, the same metrics in wall-clock
    time, and the sample count.  Request 0 is the untimed warm-up.  Per-item
    times cover every request; throughput counts the items of requests that
    passed their checks.
    """
    from reference import ScaledClock

    tally.serve(workload, 0)
    clock = ScaledClock()
    wall, scaled, ok = [], {name: [] for name in clock.scaled}, []
    start = perf_counter()
    while not wall or perf_counter() - start < seconds:
        wall0, scaled0 = clock.wall, dict(clock.scaled)
        ok.append(tally.serve(workload, len(wall) + 1, clock.add))
        wall.append(clock.wall - wall0)
        for name, times in scaled.items():
            times.append(clock.scaled[name] - scaled0[name])
    by_kernel = {name: _summary(workload.items, times, ok) for name, times in scaled.items()}
    return by_kernel, _summary(workload.items, wall, ok), len(wall)


def _summary(items: int, times: list[float], ok: list[bool]) -> dict:
    per_item = [t / items for t in times]
    p90 = statistics.quantiles(per_item, n=10)[8] if len(per_item) > 1 else per_item[0]
    return {
        "items_per_s": (items * sum(ok) / sum(times), "1/s"),
        "item_ms.p50": (1e3 * statistics.median(per_item), "ms"),
        "item_ms.p90": (1e3 * p90, "ms"),
    }


def measure_traced(workload, seconds: float, tally: Tally):
    """Alternate untraced and traced runs of request 1 for ``seconds``.

    Returns the per-layer metrics, the recorded spans and the number of
    traced passes.  Counts are exact for a seed because every traced pass
    serves the same request.  Self times are scaled to the reference speed
    by the median of the kernel runs that follow the passes.
    """
    from reference import KERNELS, NOMINAL_S, kernel_seconds
    from tracing import Tracer, layer_metrics, patched

    tally.serve(workload, 0)
    tracer = Tracer()
    untraced, traced, kernel = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        t0 = perf_counter()
        tally.serve(workload, 1)
        untraced.append(perf_counter() - t0)
        with patched(tracer):
            tracer.request += 1
            t0 = perf_counter()
            tally.serve(workload, 1)
            traced.append(perf_counter() - t0)
        kernel.append(kernel_seconds(KERNELS[workload.reference]))
    n_items = workload.items * len(traced)
    time_scale = NOMINAL_S / statistics.median(kernel)
    metrics = layer_metrics(tracer.spans, n_items, time_scale)
    metrics["trace.overhead_ratio"] = (
        statistics.median(untraced) / statistics.median(traced),
        "ratio",
    )
    return metrics, tracer.spans, len(traced)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter that imports surfrates and builds
    the workload's inputs, stopping before the first request.

    Returns the median at the reference speed, scaled by the median of the
    reference start-ups timed before each sample (see reference.py), and
    the median wall time.
    """
    from reference import NOMINAL_START_S, START_COMMAND

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    ref, samples = [], []
    for _ in range(SETUP_REPEATS):
        ref.append(_wall_time(START_COMMAND))
        samples.append(_wall_time(cmd))
    wall = statistics.median(samples)
    return wall * NOMINAL_START_S / statistics.median(ref), wall


def _wall_time(cmd: list[str]) -> float:
    """Wall time of a child process, which must exit with code 0.

    The wait blocks until the child exits: a wait with a timeout polls, and
    its polling interval (up to 50 ms) would round every sample.  A timer
    kills a child that hangs instead.
    """
    t0 = perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    guard = threading.Timer(120, child.kill)
    guard.start()
    code = child.wait()
    seconds = perf_counter() - t0
    guard.cancel()
    guard.join()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def provenance() -> dict:
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# Name of each end-to-end metric for the kind of item a workload serves.
NAMED = {
    "event": {"items_per_s": "verify_events_per_s",
              "item_ms.p50": "verify_event_ms.p50",
              "item_ms.p90": "verify_event_ms.p90"},
    "step": {"items_per_s": "flow_steps_per_s",
             "item_ms.p50": "flow_step_ms.p50",
             "item_ms.p90": "flow_step_ms.p90"},
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (times set-up)")
    args = p.parse_args(argv)

    if not (SRC / "surfrates" / "__init__.py").is_file():
        print(f"error: no surfrates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import surfrates
    import workloads

    if not Path(surfrates.__file__).resolve().is_relative_to(SRC):
        print(f"error: surfrates imported from {surfrates.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "item": workload.item, "provenance": provenance()}
    if args.trace:
        metrics, spans, passes = measure_traced(workload, args.seconds, tally)
        from tracing import write_spans

        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        write_spans(spans, path)
        detail["spans_file"] = str(path.relative_to(ROOT))
        detail["samples"] = {"spans": len(spans), "traced_passes": passes}
    else:
        setup_s, setup_wall = time_setup(args.workload, args.seed)
        by_kernel, wall, n = measure(workload, args.seconds, tally)
        metrics = dict(by_kernel[workload.reference])
        named = NAMED[workload.item]
        detail["samples"] = {"item_ms": n, "setup_s": SETUP_REPEATS}
        detail["kernel"] = workload.reference
        detail["reference_speed"] = {
            kernel: {named[k]: v for k, (v, _) in summary.items()}
            for kernel, summary in by_kernel.items()
        }
        detail["wall_clock"] = {named[k]: v for k, (v, _) in wall.items()}
        detail["wall_clock"]["setup_s"] = setup_wall
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    detail["fail_ratio"] = tally.failed / tally.attempted
    detail["first_failure"] = tally.first_failure
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
