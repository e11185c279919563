import inspect
import sys

import pytest

import run
import tracing
import workloads


def _span(name, start, end, parent, request=0, info=None):
    return [name, start, end, parent, request, info]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        _span("c", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
        _span("other", 20.0, 21.5, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.5])


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        _span("cli.run_verify", 0.0, 10.0, -1, request=0),
        _span("chart_kernel.jet", 1.0, 2.0, 0, request=0, info=1),
        _span("chart_kernel.jet", 2.0, 4.0, 0, request=0, info=16),
        _span("diffops.make_grid", 4.0, 5.0, 0, request=0, info=("s", 0.0, (32, 32))),
        _span("diffops.make_grid", 5.0, 6.0, 0, request=0, info=("s", 0.0, (32, 32))),
        _span("diffops.make_grid", 6.0, 7.0, -1, request=1, info=("s", 0.0, (32, 32))),
        _span("_fd.c4_d1", 7.0, 8.0, -1, request=1),
        _span("_fd.c4_d1_nested", 8.0, 9.0, -1, request=1),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, n_items=2, time_scale=1.0).items()}
    assert m["chart_kernel.jet.calls"] == 1.0
    assert m["chart_kernel.jet.points_per_call"] == 8.5
    assert m["chart_kernel.jet.self_ms"] == pytest.approx(1500.0)
    assert m["cli.run_verify.self_ms"] == pytest.approx(2500.0)
    assert m["diffops.make_grid.distinct_ratio"] == pytest.approx(2 / 3)
    assert m["fd.stencil.calls"] == 1.0
    assert m["geometry.motion_grid.distinct_ratio"] == 0.0


def _function_bindings():
    """Every function object reachable by name in a surfrates namespace."""
    from surfrates.chart_kernel import MovingSurface

    out = {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "surfrates" or name.startswith("surfrates.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    out[("MovingSurface", "jet")] = vars(MovingSurface)["jet"]
    out[("MovingSurface", "u_jet")] = vars(MovingSurface)["u_jet"]
    return out


def test_traced_run_restores_every_patched_name():
    from surfrates import landau
    from surfrates.chart_kernel import MovingSurface

    before = _function_bindings()
    workload = workloads.WORKLOADS["flow-moving"](3)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer):
            assert landau.grid_laplace is not before[("surfrates.landau", "grid_laplace")]
            assert vars(MovingSurface)["jet"] is not before[("MovingSurface", "jet")]
            assert run.Tally().serve(workload, 1)
            raise RuntimeError("leave the block by an exception")
    assert {"landau.run_flow", "chart_kernel.jet", "diffops.grid_laplace"} <= {
        span[0] for span in tracer.spans
    }
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(name):
    def exact_counts():
        tally = run.Tally()
        metrics, _, _ = run.measure_traced(workloads.WORKLOADS[name](5), 0.0, tally)
        assert tally.failed == 0, tally.first_failure
        return {
            k: v
            for k, (v, _) in metrics.items()
            if k.rsplit(".", 1)[-1] in tracing.EXACT_STATISTICS
        }

    first = exact_counts()
    assert first == exact_counts()
    assert len(first) == 17
