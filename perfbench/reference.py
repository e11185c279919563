"""Reference kernels that put request times on a steady scale.

The speed of a shared virtual machine drifts: on a 2-core Intel Xeon VM
(Python 3.11.7, numpy 2.4.6) the same flow request took 67 ms per step in one
run and 117 ms in another a few minutes later.  The benchmark therefore times
a fixed reference kernel after every call into the package and reports each
call's time at the reference speed: ``duration * NOMINAL_S / kernel time``,
with the kernel time averaged over the runs before and after the call.

Each workload uses the kernel that matches its own profile, because the
drift slows interpreter-bound work on tiny arrays and bandwidth-bound work
on large arrays by different factors.  Over six runs in a drifting period,
scaling brought the run-to-run spread of the per-event median from 0.16 to
0.02 (verify) and of the per-step median from 0.26 to 0.02 (flow); a kernel
of the other profile left 0.08 to 0.15.

So the scaling holds only while a workload keeps the profile of its kernel.
A change that turns many tiny calls into whole-array calls (batching the
verify routes, say) moves a workload towards the other profile.  Every call
is therefore also scaled by the other kernel, and the runner reports both
and the wall-clock time: a gain between two versions is sound when the
ratios under both kernels and in wall-clock time agree.

Set-up time is scaled the same way by a reference start-up: a fresh
interpreter that imports numpy, timed before every set-up sample.  Over six
series of seven set-ups the median set-up moved between 0.25 and 0.35 s,
and its ratio to the reference start-up between 1.61 and 1.74.

The kernels and constants define the unit of every scaled time: changing
them breaks comparison with earlier results.
"""
from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

# Kernel duration at the reference speed (its typical time on the VM above).
NOMINAL_S = 0.009

# Reference start-up and its duration at the reference speed.
START_COMMAND = [sys.executable, "-c", "import numpy"]
NOMINAL_START_S = 0.19

_VECTORS = np.random.default_rng(0).normal(size=(3, 2))
_FIELD = np.random.default_rng(1).normal(size=(3, 3, 64, 64))


def pointwise_kernel():
    """Many tiny numpy calls from the interpreter, like the verify routes."""
    for _ in range(600):
        g = np.einsum("ai,aj->ij", _VECTORS, _VECTORS)
        np.stack([g, g])
        np.linalg.det(g)


def grid_kernel():
    """Stencil and contraction passes over a grid field, like the flow step."""
    for _ in range(40):
        d = 0.5 * (np.roll(_FIELD, 1, axis=-1) - np.roll(_FIELD, -1, axis=-1))
        np.einsum("ab...,bc...->ac...", d, _FIELD)


KERNELS = {"pointwise": pointwise_kernel, "grid": grid_kernel}


def kernel_seconds(kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class ScaledClock:
    """Sums call times in wall-clock seconds and at the speed of each kernel.

    ``add`` runs every kernel after each call and scales the call by the
    mean of each kernel's times before and after it.
    """

    def __init__(self):
        self.last = {name: kernel_seconds(k) for name, k in KERNELS.items()}
        self.wall = 0.0
        self.scaled = dict.fromkeys(KERNELS, 0.0)

    def add(self, seconds: float) -> None:
        self.wall += seconds
        for name, kernel in KERNELS.items():
            now = kernel_seconds(kernel)
            self.scaled[name] += seconds * NOMINAL_S / (0.5 * (self.last[name] + now))
            self.last[name] = now
