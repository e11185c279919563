"""Time, spatial and space-time stencils: one closure call per stencil,
nested or not, the per-offset formulas, and the per-offset fallback for
closures that do not broadcast."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from surfrates import _fd
from surfrates._fd import c2_c4_dt_grad, c4_dt, c4_grad, c4_hess
from surfrates.chart_kernel import get_scenario, sample_events
from surfrates.probes import probe_field


# Reference formulas with one closure call per stencil offset.
def _ref_d1(f, x, h):
    return (-f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def _ref_d2(f, x, h):
    return (
        -f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x) + 16.0 * f(x - h) - f(x - 2 * h)
    ) / (12.0 * h * h)


def _ref_dt(f, t, y1, y2, ht):
    return _ref_d1(lambda s: f(s, y1, y2), t, ht)


def _ref_grad(f, t, y1, y2, h):
    return _ref_d1(lambda a: f(t, a, y2), y1, h), _ref_d1(lambda b: f(t, y1, b), y2, h)


def _ref_hess(f, t, y1, y2, h):
    return (
        f(t, y1, y2),
        *_ref_grad(f, t, y1, y2, h),
        _ref_d2(lambda a: f(t, a, y2), y1, h),
        _ref_d1(lambda a: _ref_d1(lambda b: f(t, a, b), y2, h), y1, h),
        _ref_d2(lambda b: f(t, y1, b), y2, h),
    )


def _ref_c2_d1(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _ref_dt_grad(f, t, y1, y2, ht, h):
    return (
        f(t, y1, y2),
        _ref_c2_d1(lambda s: f(s, y1, y2), t, ht),
        *_ref_grad(f, t, y1, y2, h),
    )


def _ref_dVt(f, t, y1, y2, ht, h):
    """Both partials of the time derivative: the FD jet's dVt."""
    return _ref_grad(lambda s, a, b: _ref_dt(f, s, a, b, ht), t, y1, y2, h)


def _poly(t, a, b):
    """Broadcasting closure with only + and *, so a batched call gives the
    same bits as pointwise calls."""
    t, a, b = np.broadcast_arrays(t, a, b)
    return np.stack([a * a * b + 0.3 * b, a - b * b * b, 2.0 * a * b * b - 0.7])


def _tpoly(t, a, b):
    """_poly with time terms, for the stencils that difference t."""
    t, a, b = np.broadcast_arrays(t, a, b)
    return _poly(t, a, b) + np.stack([t * t * a, 0.5 * t, t * b - t * t * t])


def _outputs(out):
    """A stencil's outputs as a tuple (``c4_dt`` returns one array)."""
    return out if isinstance(out, tuple) else (out,)


class _Counting:
    """Counts the calls of a closure and the points of each."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = []

    def __call__(self, *args):
        self.calls += 1
        self.points.append(np.broadcast(*args).size)
        return self.f(*args)


@pytest.fixture
def per_offset_calls(monkeypatch):
    """Counts entries into the per-offset fallback."""
    calls = []
    orig = _fd._per_offset

    def spy(f, *args):
        calls.append(args[0].shape)
        return orig(f, *args)

    monkeypatch.setattr(_fd, "_per_offset", spy)
    return calls


coord = st.floats(-3.0, 3.0, allow_nan=False)
step = st.sampled_from([1e-3, 3.7e-3, 1e-2, 0.05])
time_step = st.sampled_from([1e-4, 1e-3])


@settings(max_examples=60, deadline=None)
@given(y1=coord, y2=coord, h=step)
def test_stencils_match_per_offset_formulas(y1, y2, h):
    t = 0.3
    for got, want in zip(c4_grad(_poly, t, y1, y2, h), _ref_grad(_poly, t, y1, y2, h)):
        assert_array_equal(got, want)
    for got, want in zip(c4_hess(_poly, t, y1, y2, h), _ref_hess(_poly, t, y1, y2, h)):
        assert_array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(y1=st.lists(coord, min_size=6, max_size=6), y2=coord, h=step)
def test_stencils_on_array_coordinates(y1, y2, h):
    t = 0.3
    Y1 = np.reshape(y1, (2, 3))
    hess = c4_hess(_poly, t, Y1, y2, h)
    grad = c4_grad(_poly, t, Y1, y2, h)
    for i, j in np.ndindex(2, 3):
        want = _ref_hess(_poly, t, Y1[i, j], y2, h)
        for got, w in zip(hess, want):
            assert got.shape == (3, 2, 3)
            assert_array_equal(got[:, i, j], w)
        for got, w in zip(grad, want[1:3]):
            assert_array_equal(got[:, i, j], w)


@settings(max_examples=60, deadline=None)
@given(t=coord, y1=coord, y2=coord, ht=time_step)
def test_time_stencil_matches_per_offset_formula(t, y1, y2, ht):
    counting = _Counting(_tpoly)
    assert_array_equal(c4_dt(counting, t, y1, y2, ht), _ref_dt(_tpoly, t, y1, y2, ht))
    assert counting.points == [4]


@settings(max_examples=20, deadline=None)
@given(t=st.lists(coord, min_size=3, max_size=3), y1=coord, y2=coord, ht=time_step)
def test_time_stencil_on_array_time(t, y1, y2, ht):
    T = np.array(t)
    got = c4_dt(_tpoly, T, y1, y2, ht)
    assert got.shape == (3, 3)
    assert_array_equal(got, _ref_dt(_tpoly, T, y1, y2, ht))
    for k in range(3):
        assert_array_equal(got[:, k], _ref_dt(_tpoly, T[k], y1, y2, ht))


@settings(max_examples=60, deadline=None)
@given(t=coord, y1=coord, y2=coord, ht=time_step, h=step)
def test_nested_time_stencil_matches_per_offset_formulas(t, y1, y2, ht, h):
    # the FD jet's dVt: the time stencil inside the spatial one, one call on
    # the 8 x 4 points
    counting = _Counting(_tpoly)
    got = c4_grad(lambda s, a, b: c4_dt(counting, s, a, b, ht), t, y1, y2, h)
    assert counting.points == [32]
    for g, w in zip(got, _ref_dVt(_tpoly, t, y1, y2, ht, h)):
        assert_array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(t=coord, y1=coord, y2=coord, ht=time_step, h=step)
def test_space_time_stencil_matches_per_offset_formulas(t, y1, y2, ht, h):
    got = c2_c4_dt_grad(_tpoly, t, y1, y2, ht, h)
    for g, w in zip(got, _ref_dt_grad(_tpoly, t, y1, y2, ht, h)):
        assert_array_equal(g, w)


@settings(max_examples=20, deadline=None)
@given(t=st.lists(coord, min_size=3, max_size=3), y1=coord, y2=coord, h=step)
def test_space_time_stencil_on_array_coordinates(t, y1, y2, h):
    # t carries the coordinate shape, y1 and y2 are scalars
    T = np.array(t)
    got = c2_c4_dt_grad(_tpoly, T, y1, y2, 1e-4, h)
    for k in range(3):
        want = _ref_dt_grad(_tpoly, T[k], y1, y2, 1e-4, h)
        for g, w in zip(got, want):
            assert g.shape == (3, 3)
            assert_array_equal(g[:, k], w)


def test_space_time_broadcasting_closure_is_called_once(per_offset_calls):
    surface = get_scenario("torus-breathing-drift")
    ev = sample_events(surface, 1, 3)[0]
    field = probe_field(surface, 2)
    for f3, t in ((_tpoly, 0.3), (_tpoly, np.linspace(0.0, 1.0, 5)), (field.eval, ev.t)):
        counting = _Counting(f3)
        c2_c4_dt_grad(counting, t, ev.y1, ev.y2, 1e-4, 1e-3)
        assert counting.calls == 1
    assert per_offset_calls == []


def test_space_time_pointwise_closures_take_fallback(per_offset_calls):
    surface = get_scenario("torus-breathing-drift")
    ev = sample_events(surface, 1, 11)[0]
    P = probe_field(surface, 2)
    p = probe_field(surface, 1)

    def contracted(t, a, b):
        return P.eval(t, a, b) @ p.eval(t, a, b)

    h = surface.space_step
    for f3, shape in ((lambda t, a, b: np.zeros((3, 3)), (3, 3)), (contracted, (3,))):
        counting = _Counting(f3)
        got = c2_c4_dt_grad(counting, ev.t, ev.y1, ev.y2, 1e-4, h)
        assert per_offset_calls == [(11,)]
        assert counting.calls == 12
        for g, w in zip(got, _ref_dt_grad(f3, ev.t, ev.y1, ev.y2, 1e-4, h)):
            assert g.shape == shape
            assert_array_equal(g, w)
        per_offset_calls.clear()


@pytest.mark.parametrize("stencil", [c4_dt, c4_grad, c4_hess])
def test_broadcasting_closure_is_called_once(stencil, per_offset_calls):
    surface = get_scenario("torus-breathing-drift")
    ev = sample_events(surface, 1, 3)[0]
    field = probe_field(surface, 2)
    for f3, t, y1, y2 in (
        (_tpoly, 0.3, 0.4, -0.2),
        (_tpoly, 0.3, np.linspace(0.0, 1.0, 5), 0.3),
        (_tpoly, np.linspace(0.0, 1.0, 5), 0.4, 0.3),
        (field.eval, ev.t, ev.y1, ev.y2),
    ):
        counting = _Counting(f3)
        stencil(counting, t, y1, y2, 1e-3)
        assert counting.calls == 1
    assert per_offset_calls == []


@pytest.mark.parametrize("stencil, points", [(c4_dt, 4), (c4_grad, 8), (c4_hess, 25)])
def test_constant_closure_takes_fallback(stencil, points, per_offset_calls):
    counting = _Counting(lambda t, a, b: np.zeros((3, 3)))
    out = stencil(counting, 0.3, 0.4, 1.2, 1e-3)
    assert per_offset_calls == [(points,)]
    assert counting.calls == 1 + points
    for value in _outputs(out):
        assert_array_equal(value, np.zeros((3, 3)))


@pytest.mark.parametrize(
    "stencil, ref", [(c4_dt, _ref_dt), (c4_grad, _ref_grad), (c4_hess, _ref_hess)]
)
def test_matmul_contraction_takes_fallback(stencil, ref, per_offset_calls):
    # the tensor-vector closure of acceptance criterion 03: `@` does not
    # broadcast over trailing axes
    surface = get_scenario("torus-breathing-drift")
    ev = sample_events(surface, 1, 11)[0]
    P = probe_field(surface, 2)
    p = probe_field(surface, 1)

    def contracted(t, a, b):
        return P.eval(t, a, b) @ p.eval(t, a, b)

    h = surface.space_step
    got = stencil(contracted, ev.t, ev.y1, ev.y2, h)
    assert len(per_offset_calls) == 1
    for g, w in zip(_outputs(got), _outputs(ref(contracted, ev.t, ev.y1, ev.y2, h))):
        assert g.shape == (3,)
        assert_array_equal(g, w)


def test_pointwise_failure_is_raised():
    def scalar_only(t, a, b):
        if np.ndim(a):
            raise TypeError("scalar coordinates only")
        raise ArithmeticError("bad point")

    with pytest.raises(ArithmeticError, match="bad point"):
        c4_grad(scalar_only, 0.3, 0.1, 0.2, 1e-3)


@pytest.mark.parametrize(
    "stencil, steps, points",
    [
        (c4_dt, (1e-3,), 4),
        (c4_grad, (1e-3,), 8),
        (c4_hess, (1e-3,), 25),
        (c2_c4_dt_grad, (1e-4, 1e-3), 11),
    ],
)
def test_each_puts_a_list_through_one_stencil_call(stencil, steps, points, per_offset_calls):
    def pair(t, a, b):
        return [_tpoly(t, a, b), np.einsum("i...,j...->ij...", _poly(t, a, b), _tpoly(t, a, b))]

    # the arrays of one call give the bits of one stencil call each
    t, y1, y2 = 0.3, np.linspace(0.0, 1.0, 5), 0.4
    counting = _Counting(pair)
    got = _outputs(_fd._each(stencil, counting, t, y1, y2, *steps))
    assert counting.calls == 1
    assert per_offset_calls == []
    for i in range(2):
        want = _outputs(stencil(lambda s, a, b: pair(s, a, b)[i], t, y1, y2, *steps))
        for g, w in zip(got, want):
            assert_array_equal(g[i], w)

    # an array without the coordinate axes fails the contract, and the whole
    # list takes the per-offset path once
    counting = _Counting(lambda t, a, b: [_tpoly(t, a, b), np.zeros(3)])
    got = _outputs(_fd._each(stencil, counting, 0.3, 0.4, 1.2, *steps))
    assert per_offset_calls == [(points,)]
    assert counting.calls == 1 + points
    for (value, zero), want in zip(got, _outputs(stencil(_tpoly, 0.3, 0.4, 1.2, *steps))):
        assert_array_equal(value, want)
        assert_array_equal(zero, np.zeros(3))


@pytest.mark.parametrize(
    "stencil, steps, points",
    [
        (c4_dt, (1e-3,), 4),
        (c4_grad, (1e-3,), 8),
        (c4_hess, (1e-3,), 25),
        (c2_c4_dt_grad, (1e-4, 1e-3), 11),
    ],
)
def test_each_sends_a_flat_block_of_the_coordinate_size_offset_by_offset(
    stencil, steps, points, per_offset_calls
):
    # at a batch of events the stencil's coordinates are 2-D, and a block
    # flattened in Fortran order has their size, so it would reshape without
    # error into the wrong points; the trailing-axes check sends the list
    # offset by offset instead, where the coordinates are 1-D and the flat
    # block is the scalar itself
    def scalar(t, a, b):
        return _tpoly(t, a, b)[0]

    def with_flat(t, a, b):
        return [_tpoly(t, a, b), np.ravel(scalar(t, a, b), order="F")]

    t, y1, y2 = 0.3, np.linspace(0.0, 1.0, 5), 0.4
    got = _outputs(_fd._each(stencil, with_flat, t, y1, y2, *steps))
    assert per_offset_calls == [(5, points)]
    full = _outputs(stencil(_tpoly, t, y1, y2, *steps))
    flat = _outputs(stencil(scalar, t, y1, y2, *steps))
    for (value, block), want, want_block in zip(got, full, flat):
        assert_array_equal(value, want)
        assert_array_equal(block, want_block)
