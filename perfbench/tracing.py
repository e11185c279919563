"""Span tracing of surfrates at its module boundaries, from outside the package.

For the duration of a traced run, every public function of a measured module
is replaced by a recording wrapper in each ``surfrates`` module namespace that
holds it, and ``MovingSurface.jet`` / ``MovingSurface.u_jet`` are replaced on
the class.  Leaving the ``patched`` context puts every original object back,
so untraced runs call the package exactly as users do.

A span is ``[name, start, end, parent, request, info]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top), ``request`` the id of the request being served and ``info`` an exact
count taken from the call's arguments or result (points, an input key or
bytes), or None.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Modules measured as layers.  thinfilm, util and errors are left out on
# purpose: `converge` runs in under 0.1 s and no user waits on them.
LAYERS = (
    "chart_kernel",
    "_fd",
    "geometry",
    "fields",
    "probes",
    "timederiv",
    "diffops",
    "landau",
    "cli",
)


def _jet_points(args, kwargs, result):
    _self, t, y1, y2 = args[:4]
    return int(np.broadcast(t, y1, y2).size)


def _geometry_points(args, kwargs, result):
    return int(np.size(result.sqrtdetg))


def _grid_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if "n1" in a:
            shape = (a["n1"], a["n2"] if a["n2"] is not None else a["n1"])
        else:
            shape = np.shape(a["Y1"])
        # a static surface gives the same grid at every t
        t = None if a["surface"].static else float(a["t"])
        return (a["surface"].name, t, shape)

    return key


def _field_bytes(args, kwargs, result):
    outputs = result if isinstance(result, tuple) else (result,)
    return int(np.asarray(args[1]).nbytes + sum(np.asarray(r).nbytes for r in outputs))


# Exact counts recorded in a span's info, by span name.
def _info_functions():
    from surfrates import diffops, geometry

    return {
        "chart_kernel.jet": _jet_points,
        "geometry.geometry_from_jet": _geometry_points,
        "diffops.make_grid": _grid_key(diffops.make_grid),
        "geometry.motion_grid": _grid_key(geometry.motion_grid),
        "diffops.grid_laplace": _field_bytes,
        "diffops.grid_gradient": _field_bytes,
    }


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced


def _surfrates_namespaces():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "surfrates" or name.startswith("surfrates.")
    ]


def _measured_functions() -> dict:
    """Span name -> original function, for every public function of a layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"surfrates.{layer}")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                out[f"{layer}.{attr}"] = obj
    return out


@contextmanager
def patched(tracer: Tracer):
    """Route every measured call through ``tracer`` inside the block."""
    from surfrates.chart_kernel import MovingSurface

    infos = _info_functions()
    wrappers = {
        fn: tracer.wrap(name, fn, infos.get(name))
        for name, fn in _measured_functions().items()
    }
    restore = []
    try:
        for ns in _surfrates_namespaces():
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for attr in ("jet", "u_jet"):
            orig = vars(MovingSurface)[attr]
            restore.append((MovingSurface, attr, orig))
            setattr(
                MovingSurface,
                attr,
                tracer.wrap(f"chart_kernel.{attr}", orig, infos.get(f"chart_kernel.{attr}")),
            )
        yield tracer
    finally:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, selector, statistic).  A selector picks spans by exact name or by
# module prefix; each statistic is normalised per item (verify event or flow
# step) except the per-call ratios.
LAYER_METRICS = (
    ("chart_kernel.jet.calls", "chart_kernel.jet", "calls"),
    ("chart_kernel.jet.points_per_call", "chart_kernel.jet", "points_per_call"),
    ("chart_kernel.jet.self_ms", "chart_kernel.jet", "self_ms"),
    ("chart_kernel.u_jet.calls", "chart_kernel.u_jet", "calls"),
    ("chart_kernel.u_jet.self_ms", "chart_kernel.u_jet", "self_ms"),
    ("fd.stencil.calls", "_fd", "calls"),
    ("fd.stencil.self_ms", "_fd", "self_ms"),
    ("probes.calls", "probes", "calls"),
    ("probes.self_ms", "probes", "self_ms"),
    ("timederiv.calls", "timederiv", "calls"),
    ("timederiv.material_dt.self_ms", "timederiv.material_dt", "self_ms"),
    ("timederiv.convected_dt.self_ms", "timederiv.convected_dt", "self_ms"),
    ("timederiv.q_dt.self_ms", "timederiv.q_dt", "self_ms"),
    ("timederiv.scalar_dot.self_ms", "timederiv.scalar_dot", "self_ms"),
    ("diffops.surface_laplace.self_ms", "diffops.surface_laplace", "self_ms"),
    ("diffops.conforming_laplace.self_ms", "diffops.conforming_laplace", "self_ms"),
    ("diffops.scalar_laplace.self_ms", "diffops.scalar_laplace", "self_ms"),
    ("geometry.geometry_from_jet.calls", "geometry.geometry_from_jet", "calls"),
    ("geometry.geometry_from_jet.points_per_call", "geometry.geometry_from_jet", "points_per_call"),
    ("geometry.geometry_from_jet.self_ms", "geometry.geometry_from_jet", "self_ms"),
    ("geometry.motion_from_jet.calls", "geometry.motion_from_jet", "calls"),
    ("geometry.motion_from_jet.self_ms", "geometry.motion_from_jet", "self_ms"),
    ("geometry.check_identities.self_ms", "geometry.check_identities", "self_ms"),
    ("geometry.motion_grid.distinct_ratio", "geometry.motion_grid", "distinct_ratio"),
    ("diffops.make_grid.calls", "diffops.make_grid", "calls"),
    ("diffops.make_grid.distinct_ratio", "diffops.make_grid", "distinct_ratio"),
    ("diffops.make_grid.self_ms", "diffops.make_grid", "self_ms"),
    ("diffops.grid_laplace.calls", "diffops.grid_laplace", "calls"),
    ("diffops.grid_laplace.self_ms", "diffops.grid_laplace", "self_ms"),
    ("diffops.grid_laplace.bytes_computed", "diffops.grid_laplace", "bytes_computed"),
    ("diffops.grid_gradient.calls", "diffops.grid_gradient", "calls"),
    ("diffops.grid_gradient.self_ms", "diffops.grid_gradient", "self_ms"),
    ("diffops.grid_gradient.bytes_computed", "diffops.grid_gradient", "bytes_computed"),
    ("landau.rhs_full.self_ms", "landau.rhs_full", "self_ms"),
    ("landau.rhs_conforming.self_ms", "landau.rhs_conforming", "self_ms"),
    ("landau.bulk_gradient.self_ms", "landau.bulk_gradient", "self_ms"),
    ("landau.energy.self_ms", "landau.energy", "self_ms"),
    ("landau.run_flow.self_ms", "landau.run_flow", "self_ms"),
    ("fields.calls", "fields", "calls"),
    ("fields.self_ms", "fields", "self_ms"),
    ("cli.run_verify.self_ms", "cli.run_verify", "self_ms"),
)

UNITS = {
    "calls": "calls/item",
    "points_per_call": "points/call",
    "self_ms": "ms/item",
    "distinct_ratio": "ratio",
    "bytes_computed": "bytes/item",
}

# Statistics that are exact counts and must repeat exactly for one seed.
EXACT_STATISTICS = ("calls", "points_per_call", "distinct_ratio", "bytes_computed")


def _selects(selector: str, name: str) -> bool:
    return name == selector or name.startswith(selector + ".")


def layer_metrics(spans, n_items: int, time_scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from the spans of a run.

    Self times are multiplied by ``time_scale``.
    """
    by_name = defaultdict(lambda: [0, 0.0, []])  # calls, self seconds, infos
    for span, self_s in zip(spans, self_times(spans)):
        agg = by_name[span[0]]
        agg[0] += 1
        agg[1] += self_s
        if span[5] is not None:
            agg[2].append((span[4], span[5]))
    out = {}
    for metric, selector, stat in LAYER_METRICS:
        picked = [agg for name, agg in by_name.items() if _selects(selector, name)]
        calls = sum(agg[0] for agg in picked)
        infos = [info for agg in picked for info in agg[2]]
        if stat == "calls":
            value = calls / n_items
        elif stat == "self_ms":
            value = 1e3 * time_scale * sum(agg[1] for agg in picked) / n_items
        elif stat == "bytes_computed":
            value = sum(info for _, info in infos) / n_items
        elif stat == "points_per_call":
            value = sum(info for _, info in infos) / calls if calls else 0.0
        else:  # distinct (request, input) pairs over calls; 0 when never called
            value = len(set(infos)) / calls if calls else 0.0
        out[metric] = (value, UNITS[stat])
    return out


def write_spans(spans, path) -> None:
    """Write spans as tab-separated lines: name, start, end, parent, request."""
    with open(path, "w") as fh:
        fh.write("name\tstart_s\tend_s\tparent\trequest\n")
        for name, start, end, parent, request, _info in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{request}\n")
