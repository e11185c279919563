import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates.chart_kernel import Event, get_scenario, sample_events
from surfrates.diffops import (
    FourierInterpolant,
    _central_d,
    conforming_laplace,
    grid_gradient,
    grid_laplace,
    make_grid,
    scalar_laplace,
    surface_laplace,
)
from surfrates.errors import ConfigError, NotConformingError, StencilError
from surfrates.fields import QSplit, TensorSplit, pi_q_components
from surfrates.geometry import geometry_at
from surfrates.probes import probe_conforming_q_field, probe_field
from surfrates.timederiv import FieldClosure, QFieldClosure
from surfrates.util import rel_residual


def test_scalar_laplace_sphere_eigenfunction(sphere_static):
    # f = cos(theta) = z restricted to the unit sphere: Delta f = -2 f
    def f(t, y1, y2):
        return np.cos(y1)

    for ev in sample_events(sphere_static, 3, 2):
        lap = scalar_laplace(sphere_static, f, ev)
        assert_allclose(lap, -2.0 * np.cos(ev.y1), atol=1e-8)


def test_scalar_laplace_flat_torus(flat_torus):
    def f(t, y1, y2):
        return np.sin(y1) + 0.5 * np.cos(y2)

    ev = Event(0.0, 1.3, 2.1)
    lap = scalar_laplace(flat_torus, f, ev)
    assert_allclose(lap, -(np.sin(1.3) + 0.5 * np.cos(2.1)), atol=1e-9)


def test_surface_laplace_constant_field_is_zero(torus_drift, torus_events):
    closure = probe_field(torus_drift, 2)
    const = FieldClosure(
        2,
        lambda t, a, b: np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.0, 0.4, 0.5]]),
    )
    ev = torus_events[0]
    la = surface_laplace(torus_drift, const, ev, "Beltrami")
    assert_allclose(la, 0.0, atol=1e-8)


def test_surface_laplace_nunu_sphere(sphere_static):
    # R = nu nu on the unit sphere: B = -Id_S so the decomposed form gives
    # 2 B^2 (tangential) - 2 Tr(B^2) nu nu = 2 Pi_S - 4 nu nu
    def eval_nunu(t, a, b):
        geom = geometry_at(sphere_static, Event(t, a, b))
        return np.outer(geom.nu, geom.nu)

    def split_nunu(t, a, b):
        return TensorSplit(
            rank=2,
            r2=np.zeros((2, 2)),
            phi=np.float64(1.0),
            etaL2=np.zeros(2),
            etaR2=np.zeros(2),
        )

    closure = FieldClosure(2, eval_nunu, split_nunu)
    ev = Event(0.0, 1.2, 0.8)
    geom = geometry_at(sphere_static, ev)
    Pi = np.eye(3) - np.outer(geom.nu, geom.nu)
    expected = 2.0 * Pi - 4.0 * np.outer(geom.nu, geom.nu)
    for path in ("Beltrami", "Decomposed"):
        la = surface_laplace(sphere_static, closure, ev, path)
        assert_allclose(la, expected, atol=1e-7)


@pytest.mark.parametrize("name", ["sphere-rigid-rotation", "torus-breathing-drift"])
def test_surface_laplace_dual_path(name):
    surface = get_scenario(name)
    closure = probe_field(surface, 2)
    for ev in sample_events(surface, 4, 31):
        a = surface_laplace(surface, closure, ev, "Beltrami")
        b = surface_laplace(surface, closure, ev, "Decomposed")
        assert rel_residual(a, b) < 1e-5


def test_conforming_laplace_sphere_constant_beta(sphere_static):
    # q = 0, beta const: q-part vanishes (B^2 isotropic), beta-part = -3 beta Tr B^2
    beta0 = 0.4

    def q_eval(t, a, b):
        return QSplit(q2=np.zeros((2, 2)), eta2=np.zeros(2), beta=beta0)

    qcl = QFieldClosure(q_eval)
    ev = Event(0.0, 1.3, 2.2)
    out = conforming_laplace(sphere_static, qcl, ev, "ClosedForm")
    assert_allclose(out.q2, 0.0, atol=1e-8)
    assert_allclose(out.beta, -3.0 * beta0 * 2.0, atol=1e-8)
    prj = conforming_laplace(sphere_static, qcl, ev, "Projected")
    assert_allclose(prj.beta, out.beta, atol=1e-6)


def test_conforming_laplace_dual_path(torus_drift):
    qcl = probe_conforming_q_field(torus_drift)
    for ev in sample_events(torus_drift, 4, 41):
        a = conforming_laplace(torus_drift, qcl, ev, "ClosedForm")
        b = conforming_laplace(torus_drift, qcl, ev, "Projected")
        scale = max(1.0, np.max(np.abs(a.q2)), abs(float(a.beta)))
        assert np.max(np.abs(a.q2 - b.q2)) / scale < 1e-5
        assert abs(float(a.beta) - float(b.beta)) / scale < 1e-5


def test_conforming_laplace_rejects_nonconforming(torus_drift, torus_events):
    from surfrates.probes import probe_q_field

    qcl = probe_q_field(torus_drift)
    with pytest.raises(NotConformingError):
        conforming_laplace(torus_drift, qcl, torus_events[0], "ClosedForm")


def test_make_grid_validation(sphere_static, torus_static):
    with pytest.raises(ConfigError):
        make_grid(sphere_static, 0.0, 32)
    with pytest.raises(StencilError):
        make_grid(torus_static, 0.0, 8)


def test_grid_weights_integrate_area(torus_static):
    # torus area = 4 pi^2 R0 r = 8 pi^2 for R0=2, r=1
    gg = make_grid(torus_static, 0.0, 64)
    assert_allclose(np.sum(gg.weights), 8.0 * np.pi**2, rtol=1e-4)


def test_grid_laplace_flat_torus_symbol(flat_torus):
    # wide central stencil: eigenvalue of sin(k y) is -(sin(k h)/h)^2 exactly
    gg = make_grid(flat_torus, 0.0, 32)
    k = 3.0
    Y1, _ = np.meshgrid(gg.y1, gg.y2, indexing="ij")
    F = np.sin(k * Y1)
    lam = -((np.sin(k * gg.h1) / gg.h1) ** 2)
    assert_allclose(grid_laplace(gg, F), lam * F, atol=1e-10)


def test_grid_laplace_self_adjoint_negative(torus_static):
    gg = make_grid(torus_static, 0.0, 32)
    rng = np.random.default_rng(5)
    F = rng.normal(size=(32, 32))
    G = rng.normal(size=(32, 32))
    LF = grid_laplace(gg, F)
    LG = grid_laplace(gg, G)
    ip1 = np.sum(LF * G * gg.weights)
    ip2 = np.sum(F * LG * gg.weights)
    assert_allclose(ip1, ip2, rtol=1e-12, atol=1e-10)
    assert np.sum(LF * F * gg.weights) <= 1e-12


@pytest.mark.parametrize("shape", [(24, 24), (3, 3, 24, 24)])
def test_grid_laplace_of_a_given_gradient_has_the_same_bits(torus_drift, shape):
    gg = make_grid(torus_drift, 0.4, 24)
    F = np.random.default_rng(9).normal(size=shape)
    want = grid_laplace(gg, F)
    assert grid_laplace(gg, F, grid_gradient(gg, F)).tobytes() == want.tobytes()


def test_grid_gradient_matches_symbol(flat_torus):
    gg = make_grid(flat_torus, 0.0, 32)
    k = 2.0
    _, Y2 = np.meshgrid(gg.y1, gg.y2, indexing="ij")
    F = np.sin(k * Y2)
    d1, d2 = grid_gradient(gg, F)
    assert_allclose(d1, 0.0, atol=1e-12)
    assert_allclose(d2, (np.sin(k * gg.h2) / gg.h2) * np.cos(k * Y2), atol=1e-12)


@pytest.mark.parametrize("shape", [(20, 24), (3, 2, 20, 24)])
def test_central_d_slices_equal_the_roll_form(shape):
    # the flat stencil gives the bits of the two-roll difference on either
    # axis, as a C-ordered array
    F = np.random.default_rng(8).normal(size=shape)
    for axis, h in ((-2, 0.3), (-1, 0.07)):
        got = _central_d(F, axis, h)
        want = (np.roll(F, -1, axis=axis) - np.roll(F, 1, axis=axis)) / (2.0 * h)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def _whole_array_central_d(F, axis, h):
    """The whole-array periodic difference that _central_d replaced: slices
    of F along the axis into one new C-ordered output."""
    out = np.empty(F.shape, np.result_type(F, 1.0))
    f, d = np.moveaxis(F, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=d[1:-1])
    np.subtract(f[1], f[-1], out=d[0])
    np.subtract(f[0], f[-2], out=d[-1])
    out /= 2.0 * h
    return out


def _whole_array_laplace(gg, F):
    """The whole-array grid Laplacian that the plane-by-plane one replaced."""
    d1, d2 = _whole_array_central_d(F, -2, gg.h1), _whole_array_central_d(F, -1, gg.h2)
    ginv = gg.geom.ginv
    sq = gg.geom.sqrtdetg
    F1 = sq * (ginv[0, 0] * d1 + ginv[0, 1] * d2)
    F2 = sq * (ginv[1, 0] * d1 + ginv[1, 1] * d2)
    return (_whole_array_central_d(F1, -2, gg.h1) + _whole_array_central_d(F2, -1, gg.h2)) / sq


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["float", "transposed", "int"])
@pytest.mark.parametrize("comps", [(), (2, 2), (3, 3)])
@pytest.mark.parametrize("n1, n2", [(24, 24), (16, 20)])
def test_grid_kernels_keep_the_bits_of_the_whole_array_form(torus_drift, n1, n2, comps, kind):
    # the flat subtraction with its two end fixes and the plane-by-plane
    # Laplacian give the bits of the whole-array forms, on square and
    # non-square grids, for C-ordered, transposed and integer inputs
    gg = make_grid(torus_drift, 0.4, n1, n2)
    rng = np.random.default_rng(12)
    if kind == "transposed":
        F = rng.normal(size=comps + (n2, n1)).swapaxes(-1, -2)
        assert not F.flags.c_contiguous
    elif kind == "int":
        F = rng.integers(-50, 50, size=comps + (n1, n2))
    else:
        F = rng.normal(size=comps + (n1, n2))
    want = _whole_array_central_d(F, -2, gg.h1), _whole_array_central_d(F, -1, gg.h2)
    grad = grid_gradient(gg, F)
    for got, ref in zip(grad, want):
        _assert_same_bits(got, ref)
    lap = _whole_array_laplace(gg, F)
    _assert_same_bits(grid_laplace(gg, F), lap)
    _assert_same_bits(grid_laplace(gg, F, grad), lap)


def test_fourier_interpolant_reproduces_band_limited(torus_static):
    gg = make_grid(torus_static, 0.0, 32)
    Y1, Y2 = gg.y1[:, None], gg.y2[None, :]
    F = np.sin(2.0 * Y1) + 0.3 * np.cos(3.0 * Y2) + 0.1 * np.sin(Y1 + Y2)
    itp = FourierInterpolant(gg, F)
    # exact at a sample of nodes (query points are scalars)
    for i, j in ((0, 0), (3, 7), (17, 30), (31, 1)):
        assert_allclose(itp(gg.y1[i], gg.y2[j]), F[i, j], atol=1e-12)
    # exact off the grid for trig polynomials
    y1, y2 = 1.234, 4.321
    expected = np.sin(2.0 * y1) + 0.3 * np.cos(3.0 * y2) + 0.1 * np.sin(y1 + y2)
    assert_allclose(itp(y1, y2), expected, atol=1e-12)
    # array query points broadcast: component axes first, then the
    # coordinate shape, equal to a loop of scalar queries
    itp2 = FourierInterpolant(gg, np.stack([F, F * F]))
    a = np.linspace(0.1, 6.0, 6).reshape(2, 3)
    b = np.array([0.7, 2.2, 5.1])
    got = itp2(a, b)
    assert got.shape == (2, 2, 3)
    for i, j in np.ndindex(2, 3):
        assert_allclose(got[:, i, j], itp2(a[i, j], b[j]), rtol=0, atol=1e-12)


def test_laplace_q_part_stays_q_tensor(torus_drift, torus_events):
    # the componentwise Laplacian of a Q-tensor field is symmetric trace-free
    from surfrates.probes import probe_q_field

    qcl = probe_q_field(torus_drift)
    fcl = qcl.as_field_closure(torus_drift)
    ev = torus_events[0]
    la = surface_laplace(torus_drift, fcl, ev, "Beltrami")
    assert np.max(np.abs(la - la.T)) < 1e-8
    assert abs(np.trace(la)) < 1e-8
