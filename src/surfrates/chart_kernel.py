"""Chart evaluation: parameterizations, derivative jets, observers, scenarios.

A moving surface is described by one chart ``X(t, y1, y2) -> R^3`` on a
rectangular coordinate domain (axes may be periodic).  Every scenario ships
closed-form derivative jets, and its chart is the point X of those jets; a
fourth-order finite-difference backend covers arbitrary user charts and
doubles as a cross-check oracle.

Conventions: arrays carry component axes first and broadcast axes last, so a
jet evaluated on a grid of shape S has ``X: (3,)+S``, ``dX: (3,2)+S`` with
``dX[:, i]`` the derivative along ``y_{i+1}``, and ``ddX: (3,2,2)+S``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._fd import c4_dt, c4_grad, c4_hess
from .errors import ConfigError, DomainError, InversionError, _require_counts
from .util import det2, inv2

__all__ = [
    "Event",
    "Domain",
    "ChartJet",
    "MovingSurface",
    "make_observer_pair",
    "rotating_chart_motion",
    "get_scenario",
    "list_scenarios",
    "fd_variant",
    "sample_events",
]

POLE_BAND = 0.15

# Every surface's time window, and the time step of finite-difference jets.
_T_RANGE = (0.0, 1.0)
_FD_TIME_STEP = 1e-3


@dataclass(frozen=True)
class Event:
    """A point (t, y1, y2) in the time-extended chart domain, or a batch of
    points: y1 and y2 arrays that broadcast together, t a float or an array."""

    t: float
    y1: float
    y2: float


@dataclass(frozen=True)
class Domain:
    """Admissible rectangle of chart coordinates with per-axis periodicity.

    Ranges already exclude degenerate bands (e.g. sphere poles): every
    coordinate inside the range is a valid chart point.
    """

    y1_range: tuple[float, float]
    y2_range: tuple[float, float]
    periodic1: bool = False
    periodic2: bool = False

    @property
    def spans(self) -> tuple[float, float]:
        return (
            self.y1_range[1] - self.y1_range[0],
            self.y2_range[1] - self.y2_range[0],
        )

    @property
    def scale(self) -> float:
        return min(self.spans)

    def wrap(self, y1, y2):
        """Reduce periodic coordinates to the fundamental cell; each
        coordinate keeps the shape it was given.

        A periodic axis is reduced as lo + mod(y - lo, hi - lo); on a cell
        with lo = 0, as every registered one has, that gives values strictly
        inside the cell back bit for bit.
        """
        if self.periodic1:
            lo, hi = self.y1_range
            y1 = lo + np.mod(np.asarray(y1, float) - lo, hi - lo)
        if self.periodic2:
            lo, hi = self.y2_range
            y2 = lo + np.mod(np.asarray(y2, float) - lo, hi - lo)
        return y1, y2

    def contains(self, y1, y2, pad: float = 0.0) -> bool:
        ok = True
        if not self.periodic1:
            lo, hi = self.y1_range
            ok = ok and bool(np.all((y1 >= lo + pad) & (y1 <= hi - pad)))
        if not self.periodic2:
            lo, hi = self.y2_range
            ok = ok and bool(np.all((y2 >= lo + pad) & (y2 <= hi - pad)))
        return ok

    def require_inside(self, y1, y2, pad: float = 0.0) -> None:
        if not self.contains(y1, y2, pad):
            raise DomainError(
                f"coordinates outside admissible domain "
                f"y1 in {self.y1_range} (periodic={self.periodic1}), "
                f"y2 in {self.y2_range} (periodic={self.periodic2}), pad={pad}"
            )


@dataclass
class ChartJet:
    """Space/time derivative jet of a chart (three components) or of a chart
    map y = phi_t(z) (two components) at one event, or a batch.

    ``X`` point, ``dX[:, i]`` first derivatives, ``ddX[:, i, j]`` second
    derivatives (symmetric in i, j), ``Vt`` the time derivative, and
    ``dVt[:, i]`` its spatial derivatives.
    """

    X: np.ndarray
    dX: np.ndarray
    ddX: np.ndarray
    Vt: np.ndarray
    dVt: np.ndarray


def _zero_u(t, y1, y2):
    return np.zeros((2,) + np.broadcast_shapes(np.shape(y1), np.shape(y2)))


@dataclass
class MovingSurface:
    """One chart of a moving surface plus the relative velocity field u.

    ``u_field`` returns the two contravariant components of u = V_m - V_o;
    the material observer has u = 0.  ``jets`` gives closed-form chart jets;
    without it the jets are finite differences of ``chart``.  ``static``
    declares that neither the chart nor ``u_field`` depends on t, so the
    geometry and motion at t0 hold at every time.

    ``jets``, ``u_field`` and ``u_jets`` get the coordinates as the caller
    gave them, periodic ones reduced to the cell (on a grid, its axes
    y1[:, None] and y2[None, :]), and broadcast them; a ``chart`` without
    jets is called by the stencils, on arguments of equal shapes.
    """

    name: str
    chart: Callable
    domain: Domain
    u_field: Callable = _zero_u
    jets: Optional[Callable] = None
    u_jets: Optional[Callable] = None
    fd_step: Optional[float] = None
    static: bool = False

    @property
    def space_step(self) -> float:
        return self.fd_step if self.fd_step is not None else 1e-3 * self.domain.scale

    def jet(self, t, y1, y2) -> ChartJet:
        y1, y2 = self.domain.wrap(y1, y2)
        if self.jets is not None:
            return self.jets(t, y1, y2)
        return self._fd_jet(t, y1, y2)

    def _fd_jet(self, t, y1, y2) -> ChartJet:
        h, ht, pos = self.space_step, _FD_TIME_STEP, self.chart
        X, d1, d2, d11, d12, d22 = c4_hess(pos, t, y1, y2, h)
        dX = np.stack([d1, d2], axis=1)
        ddX = np.stack(
            [np.stack([d11, d12], axis=1), np.stack([d12, d22], axis=1)], axis=1
        )
        Vt = c4_dt(pos, t, y1, y2, ht)
        dVt = np.stack(c4_grad(lambda s, a, b: c4_dt(pos, s, a, b, ht), t, y1, y2, h), axis=1)
        return ChartJet(X=X, dX=dX, ddX=ddX, Vt=Vt, dVt=dVt)

    def u(self, t, y1, y2):
        y1, y2 = self.domain.wrap(y1, y2)
        return self.u_field(t, y1, y2)

    def u_jet(self, t, y1, y2):
        """Return du with du[i, j] = d_j u^i."""
        y1, y2 = self.domain.wrap(y1, y2)
        if self.u_jets is not None:
            return self.u_jets(t, y1, y2)
        return np.stack(c4_grad(self.u_field, t, y1, y2, self.space_step), axis=1)


def _memo_jets(surface: MovingSurface) -> MovingSurface:
    """The surface with its closed-form jets evaluated once per distinct point
    set (t, y1, y2), keyed on the shapes and bytes of the points as ``jets``
    receives them; every array of a kept jet is read-only, so no caller can
    change a shared jet in place.  The memo lives as long as the returned
    surface.  A surface without closed-form jets comes back unchanged."""
    jets = surface.jets
    if jets is None:
        return surface
    memo: dict = {}

    def memo_jets(t, y1, y2):
        key = tuple((np.shape(a), np.asarray(a, float).tobytes()) for a in (t, y1, y2))
        jet = memo.get(key)
        if jet is None:
            jet = memo[key] = jets(t, y1, y2)
            for a in vars(jet).values():
                a.flags.writeable = False
        return jet

    return replace(surface, jets=memo_jets)


def _require_event_inside(surface: MovingSurface, event: Event) -> None:
    """DomainError unless every point of the event is finite and admissible,
    with room for the stencils of finite-difference jets."""
    if not all(np.isfinite(c).all() for c in (event.t, event.y1, event.y2)):
        raise DomainError("event coordinates t, y1 and y2 must be finite")
    pad = 0.0 if surface.jets is not None else 2.5 * surface.space_step
    surface.domain.require_inside(event.y1, event.y2, pad)


def _position(jets: Callable) -> Callable:
    """The chart X(t, y1, y2) of closed-form jets: their point X, so a
    surface's chart and jets are one definition."""
    return lambda t, y1, y2: jets(t, y1, y2).X


# ---------------------------------------------------------------------------
# observer pairs


def rotating_chart_motion(omega: float) -> Callable:
    """Uniform drift of the second (periodic) coordinate, phi_t(z) = (z1, z2 + omega t),
    as its jets ``(t, z1, z2) -> ChartJet``."""

    def jets(t, z1, z2):
        z1, z2 = np.broadcast_arrays(np.asarray(z1, float), np.asarray(z2, float))
        s = np.shape(z1)
        dX = np.zeros((2, 2) + s)
        dX[0, 0] = 1.0
        dX[1, 1] = 1.0
        Vt = np.zeros((2,) + s)
        Vt[1] = omega
        return ChartJet(
            X=np.stack([z1, z2 + omega * t]),
            dX=dX,
            ddX=np.zeros((2, 2, 2) + s),
            Vt=Vt,
            dVt=np.zeros((2, 2) + s),
        )

    return jets


def make_observer_pair(surface: MovingSurface, motion: Callable):
    """Build a second observer of the same moving surface.

    ``motion(t, z1, z2)`` gives the jets of a chart map y = phi_t(z) as a
    two-component ``ChartJet``.  Returns ``(surface, observed, point_map)``
    where ``observed`` has chart ``X_B(t, z) = X_A(t, phi_t(z))`` and a
    relative velocity recomputed so the material velocity is unchanged, and
    ``point_map`` sends an event of B, or a batch, to the event of A at the
    same spatial point and time.
    """
    base = surface

    def jets_b(t, z1, z2):
        m = motion(t, z1, z2)
        ja = base.jet(t, m.X[0], m.X[1])
        dX = np.einsum("aj...,ji...->ai...", ja.dX, m.dX)
        ddX = (
            np.einsum("ajl...,ji...,lk...->aik...", ja.ddX, m.dX, m.dX)
            + np.einsum("aj...,jik...->aik...", ja.dX, m.ddX)
        )
        Vt = ja.Vt + np.einsum("aj...,j...->a...", ja.dX, m.Vt)
        dVt = (
            np.einsum("al...,li...->ai...", ja.dVt, m.dX)
            + np.einsum("ajl...,j...,li...->ai...", ja.ddX, m.Vt, m.dX)
            + np.einsum("aj...,ji...->ai...", ja.dX, m.dVt)
        )
        return ChartJet(X=ja.X, dX=dX, ddX=ddX, Vt=Vt, dVt=dVt)

    def u_b(t, z1, z2):
        m = motion(t, z1, z2)
        if np.any(np.abs(det2(m.dX)) < 1e-12):
            raise InversionError("chart map Jacobian is singular at requested point")
        ua = base.u(t, m.X[0], m.X[1])
        return np.einsum("ij...,j...->i...", inv2(m.dX), ua - m.Vt)

    observed = MovingSurface(
        name=base.name + "+observer",
        chart=_position(jets_b),
        domain=base.domain,
        u_field=u_b,
        jets=jets_b,
        u_jets=None,
        fd_step=base.fd_step,
        static=False,
    )

    def point_map(event: Event) -> Event:
        y = motion(event.t, event.y1, event.y2).X
        y1, y2 = base.domain.wrap(y[0], y[1])
        return Event(event.t, y1, y2)

    return base, observed, point_map


# ---------------------------------------------------------------------------
# scenario registry


def _revolution_jets(R0: float, profile: tuple, r_of_t: Callable, rdot_of_t: Callable) -> Callable:
    """Jets of a circle of radius r(t) (rate rd(t)) rotated about the z axis:
    X = rho e(y2) + z e3 with e = (cos y2, sin y2, 0), rho = R0 + r p(y1) and
    z = r q(y1).  ``profile`` is (p, q, s) with p' = s q and q' = -s p:
    (cos, sin, -1) for a torus about a circle of radius R0, and (sin, cos, 1)
    for a sphere (R0 = 0) with y1 measured from the pole."""
    p_of, q_of, s = profile

    def jets(t, y1, y2):
        r, rd = r_of_t(t), rdot_of_t(t)
        shape = np.broadcast_shapes(np.shape(r), np.shape(y1), np.shape(y2))
        # The profile and e depend on one axis each, so on grid axes they and
        # the products of r with them are taken on n values.  Every block is
        # a radial part times e or e' = (-sin y2, cos y2, 0) plus an axial
        # part times e3, written into C-ordered arrays; its minus signs sit
        # on factors, which negation leaves exact.
        a, b = np.asarray(y1, float), np.asarray(y2, float)
        p, q = p_of(a), q_of(a)
        dp, dq = s * q, -s * p
        e = (np.cos(b), np.sin(b))
        de = (-e[1], e[0])
        rp, rq, rdp = r * p, r * q, r * dp
        rho = R0 + rp
        X = np.empty((3,) + shape)
        dX = np.empty((3, 2) + shape)
        ddX = np.empty((3, 2, 2) + shape)
        Vt = np.empty((3,) + shape)
        dVt = np.empty((3, 2) + shape)

        def put(out, radial, axial, e, scale=None):
            """out = radial e + axial e3, then scale * out if scale is given;
            ``out[k, ...]`` stays a 0-d array, writable, at a single point."""
            for k in (0, 1):
                np.multiply(radial, e[k], out=out[k, ...])
                if scale is not None:
                    np.multiply(scale, out[k, ...], out=out[k, ...])
            out[2, ...] = axial if scale is None else np.multiply(scale, axial)

        put(X, rho, rq, e)
        put(dX[:, 0], rdp, r * dq, e)
        put(dX[:, 1], rho, 0.0, de)
        put(ddX[:, 0, 0], -rp, -rq, e)
        put(ddX[:, 0, 1], rdp, 0.0, de)
        ddX[:, 1, 0, ...] = ddX[:, 0, 1]
        put(ddX[:, 1, 1], -rho, 0.0, e)
        put(Vt, p, q, e, rd)
        put(dVt[:, 0], dp, dq, e, rd)
        put(dVt[:, 1], p, 0.0, de, rd)
        return ChartJet(X=X, dX=dX, ddX=ddX, Vt=Vt, dVt=dVt)

    return jets


def _trig_u(c1: float, c2: float, a1: float = 0.0, a2: float = 0.0) -> dict:
    """The MovingSurface fields of the relative velocity
    u = (c1 + a1 sin y2, c2 + a2 cos y1), with the closed-form u-jets
    du[0, 1] = a1 cos y2 and du[1, 0] = -a2 sin y1.  A zero amplitude adds
    no term, so a constant u keeps its bits."""

    def u_field(t, y1, y2):
        out = np.zeros((2,) + np.broadcast_shapes(np.shape(y1), np.shape(y2)))
        out[0] = c1 + a1 * np.sin(y2) if a1 else c1
        out[1] = c2 + a2 * np.cos(y1) if a2 else c2
        return out

    def u_jets(t, y1, y2):
        out = np.zeros((2, 2) + np.broadcast_shapes(np.shape(y1), np.shape(y2)))
        if a1:
            out[0, 1] = a1 * np.cos(y2)
        if a2:
            out[1, 0] = -a2 * np.sin(y1)
        return out

    return {"u_field": u_field, "u_jets": u_jets}


def _plane(name: str, domain: Domain, rate: float) -> MovingSurface:
    """The plane z = 0 under the shear chart (y1, y2) -> (y1 + rate t y2, y2, 0);
    rate 0 gives the static identity chart."""

    def jets(t, y1, y2):
        y1, y2 = np.broadcast_arrays(np.asarray(y1, float), np.asarray(y2, float))
        zero = np.zeros_like(y1)
        one = np.ones_like(y1)
        s = np.shape(y1)
        dX = np.stack(
            [
                np.stack([one, zero, zero]),
                np.stack([np.full_like(y1, rate * t), one, zero]),
            ],
            axis=1,
        )
        dVt = np.zeros((3, 2) + s)
        dVt[0, 1] = rate
        return ChartJet(
            X=np.stack([y1 + rate * t * y2, y2, zero]),
            dX=dX,
            ddX=np.zeros((3, 2, 2) + s),
            Vt=np.stack([rate * y2, zero, zero]),
            dVt=dVt,
        )

    return MovingSurface(
        name=name, chart=_position(jets), domain=domain, jets=jets, static=rate == 0
    )


def _square_domain() -> Domain:
    return Domain((-1.0, 1.0), (-1.0, 1.0))


def _torus_domain() -> Domain:
    return Domain((0.0, 2 * np.pi), (0.0, 2 * np.pi), periodic1=True, periodic2=True)


def _revolution(R0: float, profile: tuple, domain: Domain) -> Callable:
    """The factory ``(name, r, rd, **fields) -> MovingSurface`` of the
    surfaces of revolution (R0, profile) of radius r(t) (rate rd(t)) on
    ``domain``; ``fields`` are further MovingSurface fields."""

    def surface(name: str, r: Callable, rd: Callable, **fields) -> MovingSurface:
        jets = _revolution_jets(R0, profile, r, rd)
        return MovingSurface(name=name, chart=_position(jets), domain=domain, jets=jets, **fields)

    return surface


# the sphere, with a band around each pole cut out, and the torus about a
# circle of radius 2
_sphere = _revolution(
    0.0,
    (np.sin, np.cos, 1.0),
    Domain((POLE_BAND, np.pi - POLE_BAND), (0.0, 2 * np.pi), periodic2=True),
)
_torus = _revolution(2.0, (np.cos, np.sin, -1.0), _torus_domain())


# (radius, rate) of a fixed unit radius, of the growing sphere and of the
# breathing torus tube
_UNIT = (lambda t: 1.0, lambda t: 0.0)
_GROWING = (lambda t: 1.0 + 0.25 * t, lambda t: 0.25)
_BREATHING = (lambda t: 1.0 + 0.15 * np.sin(t), lambda t: 0.15 * np.cos(t))

# scenario factories, each called with its registered name
_REGISTRY: dict[str, Callable[[str], MovingSurface]] = {
    "plane-static": lambda name: _plane(name, _square_domain(), 0.0),
    "plane-shear": lambda name: _plane(name, _square_domain(), 0.4),
    "sphere-static": lambda name: _sphere(name, *_UNIT, static=True),
    "sphere-expanding": lambda name: _sphere(name, *_GROWING),
    "sphere-rigid-rotation": lambda name: _sphere(
        name, *_UNIT, static=True, **_trig_u(0.0, 0.7)
    ),
    "torus-static": lambda name: _torus(name, *_UNIT, static=True),
    "torus-breathing": lambda name: _torus(name, *_BREATHING),
    "torus-breathing-drift": lambda name: _torus(name, *_BREATHING, **_trig_u(0.3, 0.2)),
    "torus-breathing-swirl": lambda name: _torus(name, *_BREATHING, **_trig_u(0.3, 0.2, 0.2, 0.1)),
    "flat-torus": lambda name: _plane(name, _torus_domain(), 0.0),
}


def list_scenarios() -> list[str]:
    return sorted(_REGISTRY)


def get_scenario(name: str) -> MovingSurface:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {', '.join(list_scenarios())}"
        ) from None
    return factory(name)


def fd_variant(surface: MovingSurface, step: Optional[float] = None) -> MovingSurface:
    """Finite-difference twin of a surface (drops all analytic jets)."""
    return replace(
        surface,
        name=surface.name + "+fd",
        jets=None,
        u_jets=None,
        fd_step=step if step is not None else surface.fd_step,
    )


def sample_events(surface: MovingSurface, n: int, seed: int) -> list[Event]:
    """Seeded random events strictly inside the admissible domain; a non-periodic
    axis keeps 4% of its span plus four spatial steps clear at each end."""
    _require_counts(n=n, seed=seed)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    d = surface.domain
    pads = []
    for (lo, hi), periodic in ((d.y1_range, d.periodic1), (d.y2_range, d.periodic2)):
        pad = 0.0 if periodic else 0.04 * (hi - lo) + 4.0 * surface.space_step
        pads.append((lo + pad, hi - pad))
    out = []
    for _ in range(n):
        t = float(rng.uniform(*_T_RANGE))
        y1 = float(rng.uniform(*pads[0]))
        y2 = float(rng.uniform(*pads[1]))
        out.append(Event(t, y1, y2))
    return out
