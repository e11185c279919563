import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from surfrates.chart_kernel import Event, sample_events
from surfrates.diffops import make_grid
from surfrates.errors import NotConformingError, NotQTensorError, RankError
from surfrates.fields import (
    QSplit,
    TensorSplit,
    _conforming_blocks,
    _require_conforming,
    g_inner_rank2,
    pi_q_components,
    project,
    q_from_cart,
    q_to_cart,
    reconstruct,
    split_tensor,
    tangential_projector,
)
from surfrates.geometry import geometry_at

mat3 = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3)
)
vec3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)
mat2 = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2)
)


@pytest.fixture(scope="module")
def geom(torus_drift, torus_events):
    return geometry_at(torus_drift, torus_events[0])


def test_split_example_sphere(sphere_static):
    # e1 x e2 outer product at the equator point (pi/2, 0): pure right-normal part
    geom = geometry_at(sphere_static, Event(0.0, np.pi / 2.0, 0.0))
    R = np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    split = split_tensor(geom, R, 2)
    assert_allclose(split.r2, 0.0, atol=1e-12)
    assert_allclose(split.etaL2, 0.0, atol=1e-12)
    assert_allclose(split.etaR2, [0.0, 1.0], atol=1e-12)
    assert_allclose(split.phi, 0.0, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(R=mat3)
def test_split_reconstruct_roundtrip_rank2(torus_drift, torus_events, R):
    geom = geometry_at(torus_drift, torus_events[0])
    split = split_tensor(geom, R, 2)
    assert_allclose(reconstruct(geom, split), R, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(p=vec3)
def test_split_reconstruct_roundtrip_rank1(torus_drift, torus_events, p):
    geom = geometry_at(torus_drift, torus_events[0])
    split = split_tensor(geom, p, 1)
    assert_allclose(reconstruct(geom, split), p, atol=1e-12)


def test_tangential_projector_idempotent(geom):
    P = tangential_projector(geom)
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(P, P.T, atol=1e-12)
    assert_allclose(P @ geom.nu, 0.0, atol=1e-12)
    assert_allclose(np.trace(P), 2.0, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(R=mat3, S=mat3, p=vec3, q=vec3)
def test_projection_self_adjoint_pythagoras(torus_drift, torus_events, R, S, p, q):
    # rank 2 (R, S) and rank 1 (p, q) proxies, each rank inferred from its shape
    geom = geometry_at(torus_drift, torus_events[1])
    for A, B in ((R, S), (p, q)):
        PA = project(geom, A, "Tangential")
        PB = project(geom, B, "Tangential")
        assert_allclose(np.sum(PA * B), np.sum(A * PB), atol=1e-10)
        # idempotence and Pythagoras
        assert_allclose(project(geom, PA, "Tangential"), PA, atol=1e-10)
        assert_allclose(
            np.sum(A * A), np.sum(PA * PA) + np.sum((A - PA) * (A - PA)), atol=1e-9
        )
    assert_allclose(project(geom, p, "Tangential") @ geom.nu, 0.0, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(R=mat3)
def test_q_projection_output_is_q_tensor(torus_drift, torus_events, R):
    geom = geometry_at(torus_drift, torus_events[2])
    Q = project(geom, R, "Q")
    assert_allclose(Q, Q.T, atol=1e-10)
    assert_allclose(np.trace(Q), 0.0, atol=1e-10)
    assert_allclose(project(geom, Q, "Q"), Q, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(R=mat3)
def test_cq_projection_kills_mixed_blocks(torus_drift, torus_events, R):
    geom = geometry_at(torus_drift, torus_events[3])
    C = project(geom, R, "CQ")
    P = tangential_projector(geom)
    nunu = np.outer(geom.nu, geom.nu)
    # mixed blocks vanish, the tangential and normal-normal blocks survive
    assert_allclose(P @ C @ geom.nu, 0.0, atol=1e-10)
    assert_allclose(P @ C.T @ geom.nu, 0.0, atol=1e-10)
    assert_allclose(P @ C @ P, P @ R @ P, atol=1e-10)
    assert_allclose(geom.nu @ C @ geom.nu, geom.nu @ R @ geom.nu, atol=1e-10)
    assert_allclose(project(geom, C, "CQ"), C, atol=1e-10)
    # stripping the coupling of a Q-tensor leaves its conforming part
    Q = project(geom, R, "Q") + 0.7 * (nunu - 0.5 * P)
    eta = P @ R[0]
    coupled = Q + np.outer(eta, geom.nu) + np.outer(geom.nu, eta)
    CQ = project(geom, coupled, "CQ")
    assert_allclose(CQ, Q, atol=1e-10)
    assert_allclose(np.trace(CQ), 0.0, atol=1e-10)


def test_project_rank_inference_rejects_bad_shape(geom):
    with pytest.raises(RankError):
        project(geom, np.zeros((4, 4)), "Tangential")


@settings(deadline=None, max_examples=40)
@given(m=mat2)
def test_pi_q_components_properties(torus_drift, torus_events, m):
    geom = geometry_at(torus_drift, torus_events[0])
    q = pi_q_components(geom, m)
    # symmetric, metric-traceless, idempotent
    assert_allclose(q, q.T, atol=1e-12)
    assert_allclose(np.einsum("ij,ij->", geom.g, q), 0.0, atol=1e-10)
    assert_allclose(pi_q_components(geom, q), q, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(m=mat2, s=mat2)
def test_ssq_lemma_property(torus_drift, torus_events, m, s):
    # Pi_Q(s^2 q) = (Tr s^2 / 2) q for symmetric s and metric traceless q
    geom = geometry_at(torus_drift, torus_events[1])
    q = pi_q_components(geom, m)
    s2 = 0.5 * (s + s.T)
    s_op = s2 @ geom.g
    lhs = pi_q_components(geom, s_op @ s_op @ q)
    rhs = 0.5 * np.trace(s_op @ s_op) * q
    assert_allclose(lhs, rhs, atol=1e-10)


def test_q_split_roundtrip(geom):
    q2 = pi_q_components(geom, np.array([[0.4, -0.1], [0.2, 0.3]]))
    qs = QSplit(q2=q2, eta2=np.array([0.25, -0.15]), beta=0.4)
    Q = q_to_cart(geom, qs)
    assert_allclose(Q, Q.T, atol=1e-12)
    assert_allclose(np.trace(Q), 0.0, atol=1e-12)
    back = q_from_cart(geom, Q)
    assert_allclose(back.q2, qs.q2, atol=1e-10)
    assert_allclose(back.eta2, qs.eta2, atol=1e-10)
    assert_allclose(back.beta, qs.beta, atol=1e-10)


def test_q_from_cart_rejects_non_q(geom):
    with pytest.raises(NotQTensorError):
        q_from_cart(geom, np.eye(3))
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    asym[1, 0] = -1.0
    with pytest.raises(NotQTensorError):
        q_from_cart(geom, asym)


def test_trace_relation(geom):
    q2 = pi_q_components(geom, np.array([[0.4, -0.1], [0.2, 0.3]]))
    eta = np.array([0.25, -0.15])
    beta = 0.4
    Q = q_to_cart(geom, QSplit(q2=q2, eta2=eta, beta=beta))
    expected = (
        g_inner_rank2(geom, q2, q2) + 2.0 * eta @ geom.g @ eta + 1.5 * beta**2
    )
    assert_allclose(np.sum(Q * Q), expected, atol=1e-12)


def test_conforming_blocks_reassemble_to_cq_projection(torus_drift):
    # the (q, beta) blocks of a symmetric traceless proxy, reassembled with
    # eta = 0, give its CQ projection, which is computed independently
    gg = make_grid(torus_drift, 0.4, 16)
    rng = np.random.default_rng(11)
    F = rng.normal(size=(3, 3, 16, 16))
    F = 0.5 * (F + F.transpose(1, 0, 2, 3))
    F = F - np.einsum("aa...->...", F) / 3.0 * np.eye(3)[:, :, None, None]
    q, beta = _conforming_blocks(gg.geom, F)
    assert q.shape == (2, 2, 16, 16) and beta.shape == (16, 16)
    rebuilt = q_to_cart(gg.geom, QSplit(q2=q, eta2=np.zeros((2, 16, 16)), beta=beta))
    assert_allclose(rebuilt, project(gg.geom, F, "CQ"), rtol=0, atol=1e-12)


def test_conforming_check_scales_each_point():
    # |eta2| = 1e-6 breaks the 1e-8 tolerance where |q2| is of order 1; a
    # second point with |q2| = 500 must not lend the first its scale
    q2 = np.zeros((2, 2, 2))
    q2[0, 0], q2[1, 1] = [1.0, 500.0], [-1.0, -500.0]
    eta2 = np.zeros((2, 2))
    eta2[0, 0] = 1e-6
    beta = np.array([0.5, 0.5])
    with pytest.raises(NotConformingError):
        _require_conforming(QSplit(q2=q2[..., 0], eta2=eta2[..., 0], beta=beta[0]))
    with pytest.raises(NotConformingError):
        _require_conforming(QSplit(q2=q2, eta2=eta2, beta=beta))


def _summed_block_by_block(geom, split):
    """The rank-2 proxy of a split with every product added, the coupling
    products included."""
    nu = geom.nu
    out = geom.embed_contra(split.r2)
    out = out + np.einsum("a...,b...->ab...", geom.embed_vec(split.etaL2), nu)
    out = out + np.einsum("a...,b...->ab...", nu, geom.embed_vec(split.etaR2))
    return out + split.phi * np.einsum("a...,b...->ab...", nu, nu)


def _frames(torus_drift):
    """The geometry on a 16x16 grid and at a batch of 5 events, with a
    random rank-2 split of each one's shape."""
    rng = np.random.default_rng(5)
    events = sample_events(torus_drift, 5, 31)
    batch = Event(*map(np.array, zip(*[(e.t, e.y1, e.y2) for e in events])))
    for geom in (make_grid(torus_drift, 0.3, 16).geom, geometry_at(torus_drift, batch)):
        shape = geom.nu.shape[1:]
        r2, eta = rng.normal(size=(2, 2) + shape), rng.normal(size=(2,) + shape)
        yield geom, r2, eta, rng.normal(size=shape)


def test_reconstruct_skips_zero_coupling_blocks_with_the_same_bits(torus_drift):
    # adding the two zero coupling products changes no nonzero entry, and an
    # exact zero of either sign compares equal; a zero block given broadcast
    # is skipped the same way
    for geom, r2, _, phi in _frames(torus_drift):
        zero = np.zeros((2,) + phi.shape)
        want = _summed_block_by_block(geom, TensorSplit(2, r2, phi, zero, zero))
        for blk in (zero, np.zeros((2,) + (1,) * phi.ndim)):
            got = reconstruct(geom, TensorSplit(2, r2, phi, blk, blk))
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous


def test_reconstruct_keeps_a_one_sided_coupling_block(torus_drift):
    # a split with only its left, or only its right, coupling block nonzero
    # still gets that block's product
    for geom, r2, eta, phi in _frames(torus_drift):
        zero = np.zeros_like(eta)
        for left, right in ((eta, zero), (zero, eta)):
            split = TensorSplit(2, r2, phi, left, right)
            want = _summed_block_by_block(geom, split)
            assert np.array_equal(reconstruct(geom, split), want)
            without = reconstruct(geom, TensorSplit(2, r2, phi, zero, zero))
            assert np.max(np.abs(want - without)) > 0.1
