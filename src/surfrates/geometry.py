"""Pointwise geometric and kinematic quantities of a moving surface.

All tensor fields are stored in chart components with component axes first
and broadcast (grid) axes last.  Grid arrays are C-ordered in that layout.
``np.einsum`` keeps the memory order of its inputs, so one operand with its
component axes innermost passes that layout on to everything computed from
it, the flow state included.  The order is therefore fixed at its source,
``_unit_normal``; no einsum forces ``order='C'``, because forcing C-ordered
outputs made the flows slower.  Index conventions:

* metric ``g[i, j]`` covariant, ``ginv`` contravariant;
* ``Gamma_low[i, j, k] = <dd_ij X, d_k X>`` (first kind), ``Gamma[k, i, j]``
  second kind, symmetric in (i, j);
* shape operator ``B_mixed[i, j] = B^i_j`` with the sign fixed by
  ``B = -grad nu`` (so ``d_i nu = -B^j_i d_j X``);
* velocity blocks: ``G[i, j] = G^i_j`` the tangential gradient (mixed) and
  ``b_cov[i]`` the normal-coupling covector, for both the material and the
  chart (observer) velocity.

``GeometrySample`` computes its metric at construction and every other field
on first read; ``MotionSample`` computes each kinematic block on first read.
Both keep what they computed.  A flow frame keeps only the arrays its rate
reads, not the samples, whose cached intermediate blocks would raise the
flow's peak memory.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._fd import c4_dt, c4_grad
from .chart_kernel import _FD_TIME_STEP, ChartJet, Event, MovingSurface, _require_event_inside
from .errors import NonEmbeddingError
from .util import _maxabs, _pack, _unpack, det2, inv2

__all__ = [
    "GeometrySample",
    "MotionSample",
    "geometry_at",
    "motion_at",
    "motion_grid",
    "IdentityReport",
    "check_identities",
]


class GeometrySample:
    """The geometry of a chart at the points of its jet.

    The metric ``g``, its inverse ``ginv`` and ``sqrtdetg`` are computed at
    construction, which raises NonEmbeddingError where det g < 1e-12.  The
    other fields (``nu``, ``Gamma_low``, ``Gamma``, ``II``, ``B_mixed``,
    ``H``, ``K``, ``dnu``) are computed on first read and kept, so a caller
    pays only for what it reads.
    """

    def __init__(self, jet: ChartJet):
        self.jet = jet
        self.g = _metric(jet.dX)
        detg = det2(self.g)
        if np.any(detg < 1e-12):
            raise NonEmbeddingError("det g below 1e-12: chart is not an embedding here")
        self.ginv = inv2(self.g)
        self.sqrtdetg = np.sqrt(detg)

    @property
    def dX(self) -> np.ndarray:
        return self.jet.dX

    @cached_property
    def nu(self) -> np.ndarray:
        return _unit_normal(self.jet.dX)

    @cached_property
    def Gamma_low(self) -> np.ndarray:
        return np.einsum("aij...,ak...->ijk...", self.jet.ddX, self.jet.dX)

    @cached_property
    def Gamma(self) -> np.ndarray:
        return np.einsum("kl...,ijl...->kij...", self.ginv, self.Gamma_low)

    @cached_property
    def II(self) -> np.ndarray:
        return np.einsum("aij...,a...->ij...", self.jet.ddX, self.nu)

    @cached_property
    def B_mixed(self) -> np.ndarray:
        return np.einsum("ik...,kj...->ij...", self.ginv, self.II)

    @cached_property
    def H(self) -> np.ndarray:
        return np.einsum("ii...->...", self.B_mixed)

    @cached_property
    def K(self) -> np.ndarray:
        return det2(self.B_mixed)

    @cached_property
    def dnu(self) -> np.ndarray:
        return -np.einsum("aj...,ji...->ai...", self.jet.dX, self.B_mixed)

    def embed_mixed(self, M: np.ndarray) -> np.ndarray:
        """Push a mixed tangential operator M^i_j to its 3x3 Cartesian proxy
        dX M g^-1 dX^T, as three pairwise contractions."""
        Mg = np.einsum("ij...,jk...->ik...", M, self.ginv)
        dXMg = np.einsum("ai...,ik...->ak...", self.dX, Mg)
        return np.einsum("ak...,bk...->ab...", dXMg, self.dX)

    def embed_contra(self, r2: np.ndarray) -> np.ndarray:
        """Push contravariant components r^\\{ij\\} to the 3x3 Cartesian proxy."""
        return np.einsum("ai...,ij...,bj...->ab...", self.dX, r2, self.dX)

    def embed_vec(self, w2: np.ndarray) -> np.ndarray:
        """Push contravariant vector components to R^3."""
        return np.einsum("ai...,i...->a...", self.dX, w2)

    def lift_cov(self, w_cov: np.ndarray) -> np.ndarray:
        """Raise a covector and push it to R^3."""
        return self.embed_vec(np.einsum("ij...,j...->i...", self.ginv, w_cov))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of vectors with their component axis first.

    The product is stacked from its components, so the product of grid
    vectors is C-ordered with its component axis first; ``np.cross(...,
    axis=0)`` returns a transposed view, whose layout the einsums would carry
    into every array made from it.
    """
    (a1, a2, a3), (b1, b2, b3) = a, b
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def _unit_normal(dX: np.ndarray) -> np.ndarray:
    """Unit normal d_1 X x d_2 X / |d_1 X x d_2 X| from the chart tangents."""
    cross = _cross(dX[:, 0], dX[:, 1])
    return cross / np.sqrt(np.einsum("a...,a...->...", cross, cross))


def _metric(dX: np.ndarray) -> np.ndarray:
    """Metric g_ij = <d_i X, d_j X> from the chart tangents."""
    return np.einsum("ai...,aj...->ij...", dX, dX)


def _contract_metric(m, r, rank: int):
    """m r (rank 1) or m r m (rank 2): the metric m contracted into every
    index, which lowers contravariant components for m = g and raises
    covariant ones for m = g^-1."""
    if rank == 1:
        return np.einsum("ij...,j...->i...", m, r)
    mr = np.einsum("ij...,jk...->ik...", m, r)
    return np.einsum("ik...,kl...->il...", mr, m)


def _covariant_derivative(geom: GeometrySample, v, dv, up: int, low: int = 0):
    """Covariant derivative v^{a..}_{b..|l} of a tensor with ``up`` upper and
    then ``low`` lower component axes (broadcast axes last), from its value
    and its partials dv (partial index l at axis up + low): dv plus
    Gamma^a_{lm} v^{..m..} for each upper index a, minus Gamma^m_{lb}
    v_{..m..} for each lower index b.  The gradient dv itself for a scalar."""
    idx = "abcd"[: up + low]
    for n, x in enumerate(idx):
        terms = f"{idx[:n]}m{idx[n + 1:]}...->{idx}l..."
        if n < up:
            dv = dv + np.einsum(f"{x}lm...,{terms}", geom.Gamma, v)
        else:
            dv = dv - np.einsum(f"ml{x}...,{terms}", geom.Gamma, v)
    return dv


def geometry_from_jet(jet: ChartJet) -> GeometrySample:
    return GeometrySample(jet)


def geometry_at(surface: MovingSurface, event: Event) -> GeometrySample:
    _require_event_inside(surface, event)
    return geometry_from_jet(surface.jet(event.t, event.y1, event.y2))


class MotionSample:
    """Kinematic blocks of the observer (chart) velocity V_o and the material
    velocity V_m = V_o + u^k d_k X at the points of ``geom``, from ``u2`` and
    ``du[k, j] = d_j u^k``; each is computed on first read and kept."""

    def __init__(self, geom: GeometrySample, u2, du):
        self.geom = geom
        self.u2 = u2
        self.du = du

    def _tangential(self, dV: np.ndarray) -> np.ndarray:
        """Tangential gradient (mixed) of a velocity from its chart derivative.

        Exact from jets: G^i_j = g^{ik}<d_k X, d_j V> equals the covariant form
        v^i_{|j} - vperp B^i_j because d_j V already differentiates the normal
        direction.
        """
        P = np.einsum("ak...,aj...->kj...", self.geom.dX, dV)
        return np.einsum("ik...,kj...->ij...", self.geom.ginv, P)

    def _coupling(self, dV: np.ndarray) -> np.ndarray:
        """Normal-coupling covector b_j = <nu, d_j V> of a velocity."""
        return np.einsum("a...,aj...->j...", self.geom.nu, dV)

    @cached_property
    def V_o(self) -> np.ndarray:
        return self.geom.jet.Vt

    @cached_property
    def dV_o(self) -> np.ndarray:
        return self.geom.jet.dVt

    @cached_property
    def V_m(self) -> np.ndarray:
        return self.V_o + self.geom.embed_vec(self.u2)

    @cached_property
    def dV_m(self) -> np.ndarray:
        """Chart derivative d_j V_m of the material velocity."""
        jet = self.geom.jet
        return (
            self.dV_o
            + np.einsum("kj...,ak...->aj...", self.du, jet.dX)
            + np.einsum("k...,akj...->aj...", self.u2, jet.ddX)
        )

    @cached_property
    def Du(self) -> np.ndarray:
        """Covariant derivative u^i_{|j} of the relative velocity."""
        return _covariant_derivative(self.geom, self.u2, self.du, 1)

    @cached_property
    def vperp(self) -> np.ndarray:
        return np.einsum("a...,a...->...", self.V_m, self.geom.nu)

    @cached_property
    def G(self) -> np.ndarray:
        return self._tangential(self.dV_m)

    @cached_property
    def b_cov(self) -> np.ndarray:
        return self._coupling(self.dV_m)

    @cached_property
    def b3(self) -> np.ndarray:
        return self.geom.lift_cov(self.b_cov)

    @cached_property
    def G_obs(self) -> np.ndarray:
        return self._tangential(self.dV_o)

    @cached_property
    def b_obs_cov(self) -> np.ndarray:
        return self._coupling(self.dV_o)

    @cached_property
    def b_obs3(self) -> np.ndarray:
        return self.geom.lift_cov(self.b_obs_cov)

    @cached_property
    def A(self) -> np.ndarray:
        """Spin A = (G - G*) / 2, with G* the g-adjoint of the mixed G."""
        G, geom = self.G, self.geom
        return 0.5 * (G - np.einsum("ik...,lk...,lj...->ij...", geom.ginv, G, geom.g))

    @cached_property
    def Gcal(self) -> np.ndarray:
        """Full velocity gradient proxy embed(G) + nu (x) b3 - b3 (x) nu."""
        nu = self.geom.nu
        return (
            self.geom.embed_mixed(self.G)
            + np.einsum("a...,b...->ab...", nu, self.b3)
            - np.einsum("a...,b...->ab...", self.b3, nu)
        )

    @cached_property
    def Acal(self) -> np.ndarray:
        """Acal = (Gcal - Gcal^T) / 2 in closed form, from G and b3 (not
        from Gcal or A): the cross-product matrix [w]x of
        w = b3 x nu - omega sqrt(det g) nu, where
        omega = ((G g^-1)_12 - (G g^-1)_21) / 2 (README, Design notes)."""
        G, geom = self.G, self.geom
        omega = 0.5 * (
            np.einsum("k...,k...->...", G[0], geom.ginv[:, 1])
            - np.einsum("k...,k...->...", G[1], geom.ginv[:, 0])
        )
        w = _cross(self.b3, geom.nu) - (omega * geom.sqrtdetg) * geom.nu
        (w1, w2, w3), (n1, n2, n3) = w, -w
        zero = np.zeros_like(w1)
        spin = np.stack([zero, n3, w2, w3, zero, n1, n2, w1, zero])
        return spin.reshape((3, 3) + spin.shape[1:])


def motion_at(
    surface: MovingSurface, event: Event, geom: GeometrySample | None = None
) -> MotionSample:
    if geom is None:
        geom = geometry_at(surface, event)
    u2 = surface.u(event.t, event.y1, event.y2)
    du = surface.u_jet(event.t, event.y1, event.y2)
    return MotionSample(geom, u2, du)


def _frame(surface: MovingSurface, event: Event, geom=None, mot=None):
    """The geometry and motion at an event, each built unless given."""
    if geom is None:
        geom = geometry_at(surface, event)
    if mot is None:
        mot = motion_at(surface, event, geom)
    return geom, mot


def motion_grid(
    surface: MovingSurface, t: float, Y1, Y2, geom: GeometrySample | None = None
) -> MotionSample:
    """The motion at the grid points (Y1, Y2) at time t: ``motion_at`` of
    that event.  The flow passes a grid's axes, y1[:, None] and y2[None, :],
    which the closures of the surface broadcast to the grid's points."""
    return motion_at(surface, Event(t, Y1, Y2), geom)


# ---------------------------------------------------------------------------
# identity checks


class IdentityReport:
    """Identity rows by name: the worst residual of each, and its tolerance.

    ``add`` keeps the largest of a row's residuals, or NaN if one of them is
    NaN; ``to_json_obj`` lists the rows sorted by name.
    """

    def __init__(self):
        self.rows: dict[str, tuple[float, float]] = {}

    def add(self, name: str, residuals, tol: float):
        self.rows[name] = (float(np.asarray(residuals).max()), tol)

    @property
    def max_residual(self) -> float:
        return float(np.max([residual for residual, _ in self.rows.values()]))

    @property
    def all_pass(self) -> bool:
        return all(residual < tol for residual, tol in self.rows.values())

    def to_json_obj(self) -> list[dict]:
        return [
            {"identity_name": name, "pass": residual < tol, "residual": residual, "tol": tol}
            for name, (residual, tol) in sorted(self.rows.items())
        ]


# component shapes of the packed parts that the identities difference
_SPACE_PARTS = ((3,), (2, 2), (2, 2))
_TIME_PARTS = ((3,), (2, 2), (2,), (2, 2), (2,), (2, 2))


def check_identities(
    surface: MovingSurface,
    event: Event,
    geom: GeometrySample | None = None,
    mot: MotionSample | None = None,
) -> IdentityReport:
    """Residuals of the pointwise differential-geometric identities at an
    event or a batch of events; each residual is the largest over the batch.

    Covers the structure equations (Gauss formula, Weingarten map), metric
    derivative rules, the velocity-gradient split, the normal- and metric-rate
    relations, and raising/lowering compatibility of proxy time derivatives.
    ``geom`` and ``mot``, the geometry and motion at the event, are built
    unless given.
    """
    # imported here because probes imports this module
    from .probes import probe_matrix_comps, probe_vector_comps

    geom, mot = _frame(surface, event, geom, mot)
    tol = 1e-8 if surface.jets is not None else 1e-6
    t, y1, y2 = event.t, event.y1, event.y2
    h = 0.1 * surface.space_step
    report = IdentityReport()

    def add(name, residual):
        report.add(name, _maxabs(residual), tol)

    # structure equations (all terms exact from the jet)
    gauss = (
        geom.jet.ddX
        - np.einsum("kij...,ak...->aij...", geom.Gamma, geom.dX)
        - np.einsum("ij...,a...->aij...", geom.II, geom.nu)
    )
    add("gauss-formula", gauss)

    def space_parts(s, a, b):
        """nu, g and g^-1 packed, from one chart jet."""
        dX = surface.jet(s, a, b).dX
        g = _metric(dX)
        return _pack([_unit_normal(dX), g, inv2(g)], _SPACE_PARTS, g.shape[2:])

    d1, d2 = (_unpack(d, _SPACE_PARTS) for d in c4_grad(space_parts, t, y1, y2, h))
    # partial index l first
    fd_dnu, fd_dg, fd_dginv = (np.stack(pair) for pair in zip(d1, d2))
    add("weingarten", fd_dnu - np.einsum("ai...->ia...", geom.dnu))
    # d_l g_ij = Gamma_low[l,i,j] + Gamma_low[l,j,i]
    add("metric-compat-lower", fd_dg - geom.Gamma_low - np.einsum("lij...->lji...", geom.Gamma_low))
    expected = -(
        np.einsum("ik...,jlk...->lij...", geom.ginv, geom.Gamma)
        + np.einsum("jk...,ilk...->lij...", geom.ginv, geom.Gamma)
    )
    add("metric-compat-upper", fd_dginv - expected)

    # Cayley-Hamilton for the shape operator: B^2 = H B - K Id
    B = geom.B_mixed
    add(
        "shape-operator-cayley-hamilton",
        np.einsum("ik...,kj...->ij...", B, B)
        - geom.H * B
        + np.einsum("ij,...->ij...", np.eye(2), geom.K),
    )

    # additivity of the material velocity blocks in the relative velocity
    add("velocity-gradient-additivity", mot.G - mot.G_obs - mot.Du)
    add(
        "normal-coupling-additivity",
        mot.b_cov - mot.b_obs_cov - np.einsum("ij...,j...->i...", geom.II, mot.u2),
    )

    # velocity gradient split d_j V = G^i_j d_i X + b_j nu (exact on both sides)
    for tag, dV, G, b in (
        ("observer", mot.dV_o, mot.G_obs, mot.b_obs_cov),
        ("material", mot.dV_m, mot.G, mot.b_cov),
    ):
        resid = (
            dV
            - np.einsum("ij...,ai...->aj...", G, geom.dX)
            - np.einsum("j...,a...->aj...", b, geom.nu)
        )
        add(f"velocity-gradient-split-{tag}", resid)

    def time_parts(s, a, b):
        """nu, g, the covariant proxies g eta and g r g of the probes, and
        eta and r themselves, packed, from one chart jet."""
        dX = surface.jet(s, a, b).dX
        gs = _metric(dX)
        eta, r = probe_vector_comps(s, a, b), probe_matrix_comps(s, a, b)
        covs = [_contract_metric(gs, eta, 1), _contract_metric(gs, r, 2)]
        return _pack([_unit_normal(dX), gs, *covs, eta, r], _TIME_PARTS, gs.shape[2:])

    fd_dtnu, fd_dtg, deta_cov, dr_cov, deta, dr = _unpack(
        c4_dt(time_parts, t, y1, y2, _FD_TIME_STEP), _TIME_PARTS
    )

    # normal rates
    add("normal-rate", fd_dtnu + mot.b_obs3)
    adv = np.einsum("k...,ak...->a...", mot.u2, geom.dnu)
    add("normal-rate-advected", fd_dtnu + adv + mot.b3)
    add("normal-rate-orthogonality", np.einsum("a...,a...->...", fd_dtnu, geom.nu))

    # metric rate d_t g = G[V_o] + G[V_o]^T (covariant)
    G_obs_cov = np.einsum("ik...,kj...->ij...", geom.g, mot.G_obs)
    P = G_obs_cov + np.einsum("ij...->ji...", G_obs_cov)
    add("metric-rate", fd_dtg - P)

    # raising/lowering compatibility of proxy time derivatives
    w = probe_vector_comps(t, y1, y2)
    add(
        "covector-rate-compat",
        deta_cov - (_contract_metric(geom.g, deta, 1) + np.einsum("ij...,j...->i...", P, w)),
    )
    M = probe_matrix_comps(t, y1, y2)
    rhs = (
        _contract_metric(geom.g, dr, 2)
        + np.einsum("ik...,kl...,lj...->ij...", P, M, geom.g)
        + np.einsum("ik...,kl...,lj...->ij...", geom.g, M, P)
    )
    add("2-tensor-rate-compat", dr_cov - rhs)

    return report
