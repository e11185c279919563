import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from surfrates.chart_kernel import ChartJet, fd_variant, get_scenario, sample_events
from surfrates.fields import QSplit, TensorSplit
from surfrates.probes import (
    probe_conforming_q_field,
    probe_field,
    probe_field_b,
    probe_q_field,
    probe_tangential,
)


@pytest.mark.parametrize("probe", [probe_field, probe_field_b])
@pytest.mark.parametrize("rank", [1, 2])
def test_probe_broadcasts_mixed_scalar_and_array_coordinates(probe, rank):
    field = probe(get_scenario("torus-static"), rank)
    a = np.arange(4.0)
    batched = field.eval(0.3, a, 1.1)
    assert batched.shape == (3,) * rank + (4,)
    for i, ai in enumerate(a):
        assert_allclose(batched[..., i], field.eval(0.3, ai, 1.1), rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# batched evaluation equals stacked pointwise evaluation

SCENARIOS = (
    "torus-breathing-drift",
    "torus-static",
    "sphere-expanding",
    "sphere-rigid-rotation",
    "plane-shear",
    "sphere-expanding+fd",
)
ULPS = 4 * np.finfo(float).eps


def _surface(name):
    """A registered scenario, or its finite-difference twin for a "+fd" name."""
    base, fd, _ = name.partition("+fd")
    surface = get_scenario(base)
    return fd_variant(surface) if fd else surface


def _closures(surface):
    out = {"surface.jet": surface.jet, "surface.u": surface.u, "surface.u_jet": surface.u_jet}
    for rank in (1, 2):
        for name, probe in (("probe_field", probe_field), ("probe_field_b", probe_field_b)):
            field = probe(surface, rank)
            out[f"{name}-{rank}.eval"] = field.eval
            out[f"{name}-{rank}.split_eval"] = field.split_eval
        out[f"probe_tangential-{rank}"] = probe_tangential(rank).comp_eval
    for name, probe in (
        ("probe_q_field", probe_q_field),
        ("probe_conforming_q_field", probe_conforming_q_field),
    ):
        qfield = probe(surface)
        out[f"{name}.q_eval"] = qfield.q_eval
        full = qfield.as_field_closure(surface)
        out[f"{name}.as_field_closure.eval"] = full.eval
        out[f"{name}.as_field_closure.split_eval"] = full.split_eval
    return out


def _leaves(value):
    if isinstance(value, (TensorSplit, QSplit, ChartJet)):
        return {
            k: np.asarray(v, float)
            for k, v in vars(value).items()
            if k != "rank" and v is not None
        }
    return {"value": np.asarray(value, float)}


@settings(max_examples=15, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    seed=st.integers(0, 2**16),
    offsets=st.lists(
        st.tuples(
            st.floats(-0.02, 0.02), st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)
        ),
        min_size=1,
        max_size=5,
    ),
    scalar_t=st.booleans(),
    scalar_y2=st.booleans(),
)
@example(
    scenario="sphere-expanding+fd",
    seed=3,
    offsets=[(0.01, -0.01, 0.005), (-0.02, 0.0, 0.01)],
    scalar_t=False,
    scalar_y2=False,
)
def test_batched_closures_equal_stacked_pointwise(
    scenario, seed, offsets, scalar_t, scalar_y2
):
    # t carries offsets on the same trailing axis as the coordinates, as in
    # the space-time stencil, unless scalar_t holds
    surface = _surface(scenario)
    ev = sample_events(surface, 1, seed)[0]
    t = ev.t if scalar_t else ev.t + np.array([d[0] for d in offsets])
    a = ev.y1 + np.array([d[1] for d in offsets])
    b = ev.y2 if scalar_y2 else ev.y2 + np.array([d[2] for d in offsets])
    for name, closure in _closures(surface).items():
        batched = _leaves(closure(t, a, b))
        points = [
            _leaves(closure(ti, ai, bi))
            for ti, ai, bi in zip(*np.broadcast_arrays(t, a, b))
        ]
        for key, value in batched.items():
            want = np.stack([p[key] for p in points], axis=-1)
            assert value.shape == want.shape, (name, key)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(value - want)) <= ULPS * scale, (name, key)
