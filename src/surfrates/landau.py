"""Surface Landau-de Gennes gradient flows for Q-tensor fields.

The flow reads D_t Q = L lap Q - grad_Q f_bulk(Q), with D_t one of the
material or Jaumann derivatives, either on the full Q-tensor bundle or
restricted to the conforming subbundle (no tangent-normal coupling).

Each mode's state rate is the driving force minus the mode's derivative
formula from ``timederiv`` (``_advected``, ``_via_material`` or
``_tangential``), applied to grid parts, so the flows step with the formulas
that ``verify`` checks.  The exception is a frame at rest, where every
motion array the rate reads is zero: each transport term is then a product
with an exact zero, which leaves the driving force's bits, so the rate is
the driving force itself.  ``grid_laplace``, ``rhs_full`` and ``energy``
take a gradient already taken, so a flow stage takes its proxy's gradient
once.

States live on doubly periodic chart grids.  The elastic energy uses the
same central differences and cell weights as the divergence-form grid
Laplacian, so on a static surface explicit stepping realizes an exact
discrete gradient flow and the total energy is monotone for stable steps.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .chart_kernel import Event, MovingSurface
from .diffops import (
    _MIN_NODES,
    FourierInterpolant,
    GridGeometry,
    _conforming_route_residual,
    grid_gradient,
    grid_laplace,
    make_grid,
)
from .errors import ConfigError, StabilityError, _require_counts
from .fields import QSplit, _conforming_blocks, pi_q_components, q_to_cart
from .geometry import GeometrySample, motion_grid
from .probes import _q_probe
from .timederiv import (
    DerivKind,
    _advected,
    _Block,
    _Parts,
    _tangential,
    _via_material,
)

__all__ = [
    "FLOW_MODES",
    "LdGParams",
    "FlowConfig",
    "FlowResult",
    "bulk_density",
    "energy",
    "stability_bound",
    "run_flow",
]

FLOW_MODES = (
    "FullQ_Material",
    "FullQ_Jaumann",
    "Conforming_Material",
    "Conforming_Jaumann",
)

# Explicit Runge-Kutta methods as (stage times c, integer step weights w,
# their denominator): stage i > 0 takes the rate of s + (c_i h) k_{i-1}, and
# the step ends at s + (h / den) (k_0 + w_1 k_1 + ...).
_METHODS = {"euler": ((0.0,), (1,), 1), "rk4": ((0.0, 0.5, 0.5, 1.0), (1, 2, 2, 1), 6)}

# The largest energy rise per step that a flow on a static surface allows.
ENERGY_RISE_TOL = 1e-10

# Random chart points of each conforming-Laplacian cross-check.
CROSSCHECK_SAMPLES = 4


@dataclass
class LdGParams:
    L: float = 1.0
    a: float = -1.0
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.L, self.a, self.b, self.c)):
            raise ConfigError("L, a, b and c must be finite")
        if not self.L > 0:
            raise ConfigError("elastic constant L must be positive")


@dataclass
class FlowConfig:
    mode: str = "Conforming_Material"
    n: int = 48
    dt: float = 1e-4
    steps: int = 200
    method: str = "euler"
    ic: str = "random-smooth"
    seed: int = 0
    beta0: float = 0.3
    amplitude: float = 0.1
    snapshot_every: int = 0
    crosscheck_every: int = 0

    def __post_init__(self):
        counts = ("n", "steps", "seed", "snapshot_every", "crosscheck_every")
        _require_counts(**{k: getattr(self, k) for k in counts})
        if self.mode not in FLOW_MODES:
            raise ConfigError(f"unknown flow mode {self.mode!r}; pick one of {FLOW_MODES}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}; pick one of {tuple(_METHODS)}")
        if self.ic not in IC_REGISTRY:
            raise ConfigError(f"unknown initial condition {self.ic!r}; pick one of {sorted(IC_REGISTRY)}")
        if not 0 < self.dt < math.inf or self.steps < 0:
            raise ConfigError("dt must be positive and finite, and steps nonnegative")
        if not (math.isfinite(self.beta0) and math.isfinite(self.amplitude)):
            raise ConfigError("beta0 and amplitude must be finite")
        if self.n < _MIN_NODES:
            raise ConfigError(f"grid resolution n must be at least {_MIN_NODES}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.snapshot_every < 0 or self.crosscheck_every < 0:
            raise ConfigError("snapshot_every and crosscheck_every must be nonnegative (0 is off)")
        if self.crosscheck_every > 0 and not self.mode.startswith("Conforming"):
            raise ConfigError(f"the cross-check compares conforming routes; {self.mode} has none")


# ---------------------------------------------------------------------------
# initial conditions: all given as conforming (q, beta) grid data


def _ic_zero(gg: GridGeometry, config: FlowConfig):
    n1, n2 = gg.n1, gg.n2
    return np.zeros((2, 2, n1, n2)), np.zeros((n1, n2))


def _ic_constant_beta(gg: GridGeometry, config: FlowConfig):
    n1, n2 = gg.n1, gg.n2
    return np.zeros((2, 2, n1, n2)), config.beta0 * np.ones((n1, n2))


def _ic_constant_mixed(gg: GridGeometry, config: FlowConfig):
    # constant chart components, projected pointwise onto the metric-traceless
    # symmetric part so the state is valid on any grid
    n1, n2 = gg.n1, gg.n2
    m0 = np.array([[1.0, 0.6], [0.6, -1.0]]) * config.amplitude
    q2 = pi_q_components(gg.geom, np.broadcast_to(m0[..., None, None], (2, 2, n1, n2)))
    return np.ascontiguousarray(q2), config.beta0 * np.ones((n1, n2))


def _band_limited(rng, gg: GridGeometry, amp: float, kmax: int = 3):
    """sum over |k1|, |k2| <= kmax of A cos(k1 x1 + k2 x2 + ph), with x the
    chart angles from the domain's corner and (A, ph) drawn mode by mode.

    The sum is separable: Re(sum C_kl e^{i k x1} e^{i l x2}) with the
    coefficients C = A e^{i ph}, contracted pairwise by einsum.
    """
    dom = gg.surface.domain
    ks = np.arange(-kmax, kmax + 1)
    x1 = 2.0 * np.pi / dom.spans[0] * (gg.y1 - dom.y1_range[0])
    x2 = 2.0 * np.pi / dom.spans[1] * (gg.y2 - dom.y2_range[0])
    C = np.empty((ks.size, ks.size), complex)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            A = rng.normal() * amp * np.exp(-(k1 * k1 + k2 * k2) / 3.0)
            C[i, j] = A * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    E1 = np.exp(1j * np.multiply.outer(ks, x1))
    E2 = np.exp(1j * np.multiply.outer(ks, x2))
    f = np.einsum("ki,kj->ij", E1, np.einsum("kl,lj->kj", C, E2))
    return np.ascontiguousarray(f.real)


def _ic_random_smooth(gg: GridGeometry, config: FlowConfig):
    rng = np.random.default_rng(config.seed)
    amp = config.amplitude
    s11 = _band_limited(rng, gg, amp)
    s12 = _band_limited(rng, gg, amp)
    s22 = _band_limited(rng, gg, amp)
    s = np.stack([np.stack([s11, s12]), np.stack([s12, s22])])
    q = pi_q_components(gg.geom, s)
    beta = config.beta0 + _band_limited(rng, gg, amp)
    return q, beta


IC_REGISTRY = {
    "zero": _ic_zero,
    "constant-beta": _ic_constant_beta,
    "constant-mixed": _ic_constant_mixed,
    "random-smooth": _ic_random_smooth,
}


def initial_state(gg: GridGeometry, config: FlowConfig):
    return IC_REGISTRY[config.ic](gg, config)


# ---------------------------------------------------------------------------
# energy and right-hand sides


def _dot(A: np.ndarray, B: np.ndarray):
    """A : B, the sum of the componentwise products of two 3x3 fields."""
    return np.einsum("ab...,ab...->...", A, B)


def _square(Q: np.ndarray):
    return np.einsum("ac...,cb...->ab...", Q, Q)


def bulk_density(params: LdGParams, Q: np.ndarray):
    """a tr Q^2 + (2b/3) tr Q^3 + c tr Q^4; tr Q^3 is formed only when
    b != 0."""
    dens = params.a * _dot(Q, Q)
    if params.b:
        dens = dens + (2.0 * params.b / 3.0) * np.einsum("ab...,bc...,ca...->...", Q, Q, Q)
    Q2 = _square(Q)
    return dens + params.c * _dot(Q2, Q2)


def bulk_gradient(params: LdGParams, Q: np.ndarray):
    """Traceless-symmetric gradient of the bulk density; Q^2 is formed only
    when b != 0.  The sums keep the order of 2 (a Q + b (Q^2 - tr Q^2 / 3)
    + c tr Q^2 Q) and build the result in the buffer of c tr Q^2 Q."""
    tr2 = _dot(Q, Q)
    out = params.c * tr2 * Q
    grad = params.a * Q
    if params.b:
        eye = np.eye(3).reshape((3, 3) + (1,) * (Q.ndim - 2))
        grad += params.b * (_square(Q) - (tr2 / 3.0) * eye)
    out += grad
    out *= 2.0
    return out


def energy(gg: GridGeometry, params: LdGParams, Q: np.ndarray, grad=None):
    """(elastic, bulk, total) by midpoint quadrature on the grid; ``grad`` is
    ``grid_gradient(gg, Q)`` if already taken."""
    d1, d2 = grid_gradient(gg, Q) if grad is None else grad
    ginv = gg.geom.ginv
    s11 = np.einsum("ab...,ab...->...", d1, d1)
    s12 = np.einsum("ab...,ab...->...", d1, d2)
    s22 = np.einsum("ab...,ab...->...", d2, d2)
    dens = ginv[0, 0] * s11 + 2.0 * ginv[0, 1] * s12 + ginv[1, 1] * s22
    elastic = 0.5 * params.L * float(np.sum(dens * gg.weights))
    bulk = float(np.sum(bulk_density(params, Q) * gg.weights))
    return elastic, bulk, elastic + bulk


def rhs_full(gg: GridGeometry, params: LdGParams, Q: np.ndarray, grad=None) -> np.ndarray:
    """Gradient-flow driving force on the full proxy: L lap Q - bulk gradient;
    ``grad`` is ``grid_gradient(gg, Q)`` if already taken.  Scales and
    subtracts in the Laplacian's own output."""
    out = grid_laplace(gg, Q, grad)
    out *= params.L
    out -= bulk_gradient(params, Q)
    return out


def conforming_to_proxy(gg: GridGeometry, q: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The proxy embed(q - beta g^-1 / 2) + beta nu nu of a conforming state:
    ``q_to_cart`` with a zero coupling block, given broadcast so that it
    costs no grid array and ``reconstruct`` skips its products."""
    return q_to_cart(gg.geom, QSplit(q, np.zeros((2,) + (1,) * beta.ndim), beta))


def stability_bound(gg: GridGeometry, params: LdGParams) -> float:
    g = gg.geom.g
    dy1 = gg.h1 * np.sqrt(g[0, 0])
    dy2 = gg.h2 * np.sqrt(g[1, 1])
    dymin = min(float(np.min(dy1)), float(np.min(dy2)))
    return 0.2 * dymin * dymin / params.L


def _checked_bound(
    gg: GridGeometry, params: LdGParams, dt: float, step: int | None = None
) -> float:
    """The stability bound of the grid; StabilityError if dt exceeds it,
    naming the step being taken."""
    bound = stability_bound(gg, params)
    if dt > bound:
        raise StabilityError(
            f"dt={dt:g} exceeds the explicit stability bound {bound:g} at t={gg.t:g}",
            step,
            gg.t,
        )
    return bound


# ---------------------------------------------------------------------------
# state rates: the flow reads D Q = F for the mode's derivative D and driving
# force F.  Each D is a timederiv formula, affine in the time partial with
# coefficient 1, so its value at the time partial -F is minus the time
# derivative of the stepped state.


def _parts(gg, v, F, rank: int):
    """Grid parts of a state block for the time partial -F."""
    return _Parts(v, -F, np.stack(grid_gradient(gg, v), axis=rank))


def _full_state_rate(gg, params, kind: DerivKind, mot, state, Q, dQ):
    """Rate of the full proxy Q, which is the state (Q,); the driving force
    and the advection parts share its gradient dQ.  A frame at rest (mot
    None) steps with the driving force alone."""
    F = rhs_full(gg, params, Q, dQ)
    if mot is None:
        return (F,)
    Dm = _advected(_Parts(Q, -F, np.stack(dQ, axis=2)), mot.u2, 2)
    return (-_via_material(mot, 2, kind, Q, Dm),)


def _conf_state_rate(gg, params, kind: DerivKind, mot, state, Q, dQ):
    """Rate of the state (q, beta) from the conforming blocks of the driving
    force on its proxy Q, whose gradient is dQ.  A frame at rest (mot None)
    steps with those blocks alone."""
    blocks = _conforming_blocks(gg.geom, rhs_full(gg, params, Q, dQ))
    if mot is None:
        return blocks
    (q, beta), (q_rhs, beta_rhs) = state, blocks
    dq = _tangential(gg.geom, mot, _Block(2, _parts(gg, q, q_rhs, 2)), kind)
    return -dq, -_advected(_parts(gg, beta, beta_rhs, 0), mot.u2)


# ---------------------------------------------------------------------------
# flow driver


@dataclass
class FlowResult:
    energy_rows: list
    crosschecks: list
    bound: float
    final_Q: np.ndarray
    final_q: np.ndarray | None = None
    final_beta: np.ndarray | None = None

    @property
    def energies(self) -> np.ndarray:
        return np.array([row[4] for row in self.energy_rows])


ENERGY_COLUMNS = (
    "step",
    "t",
    "energy_elastic",
    "energy_bulk",
    "energy_total",
    "max_trace_residual",
    "max_sym_residual",
)


def _state_residuals(Q: np.ndarray):
    """max |tr Q| and max |Q_ab - Q_ba|, the latter over the pairs a < b:
    the diagonal differences are 0 and |x - y| = |y - x|, so it is the
    largest entry of |Q - Q^T|.  A non-finite entry of Q makes one of the
    two non-finite."""
    tr = np.einsum("aa...->...", Q)
    sym = [np.max(np.abs(Q[a, b] - Q[b, a])) for a, b in zip(*np.triu_indices(len(Q), 1))]
    return float(np.max(np.abs(tr))), float(np.max(sym))


def _crosscheck_residual(surface, gg, q, beta, seed):
    """Dual-path conforming-Laplacian residual on the trigonometric
    interpolant of the current state: the largest over a batch of random
    chart points, or NaN if any point gives NaN."""
    interp_q, interp_b = FourierInterpolant(gg, q), FourierInterpolant(gg, beta)
    closure = _q_probe(
        surface, lambda s, a, b: interp_q(a, b), None, lambda s, a, b: interp_b(a, b)
    )
    rng = np.random.default_rng(seed)
    dom = surface.domain
    lo, hi = zip(dom.y1_range, dom.y2_range)
    a, b = rng.uniform(lo, hi, size=(CROSSCHECK_SAMPLES, 2)).T
    return float(np.max(_conforming_route_residual(surface, closure, Event(gg.t, a, b))))


def _at_rest(mot) -> bool:
    """Whether every motion array of a flow frame is zero, so that each
    transport term of its state rate is a product with an exact zero."""
    return not any(map(np.any, vars(mot).values()))


class _FrameGeometry(SimpleNamespace):
    """The geometry arrays that a flow frame keeps, by their GeometrySample
    names; ``embed_contra`` is GeometrySample's and reads ``dX``."""

    embed_contra = GeometrySample.embed_contra


def _write_snapshot(out_dir, step, t, mode, arrays):
    files = {}
    for name, arr in arrays.items():
        fname = f"snap_{step:06d}_{name}.bin"
        arr.astype("<f8").tofile(os.path.join(out_dir, fname))
        files[name] = {"file": fname, "shape": list(arr.shape), "dtype": "<f8"}
    header = {"arrays": files, "mode": mode, "step": step, "t": t}
    path = os.path.join(out_dir, f"snap_{step:06d}.json")
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)


def run_flow(
    surface: MovingSurface,
    params: LdGParams,
    config: FlowConfig,
    out_dir: str | None = None,
) -> FlowResult:
    """Integrate the gradient flow; returns energies, residuals and the final state.

    The state is a tuple of grid arrays: ``(q, beta)`` in the conforming
    modes, ``(Q,)`` in the full-tensor modes.  ``config.method`` names a
    row of ``_METHODS``, its stage times and step weights, and one stage
    loop takes the steps of every method.  A step holds one frame, the
    grid and motion at a stage time, and replaces it when a stage moves to a
    new time, so at each energy evaluation only the current frame is alive.
    A frame is built once per stage time, and once per run on a static
    surface; it keeps only the geometry and motion arrays its mode's step
    reads, and its motion is built on the grid axes.  RK4's last stage runs
    at the next step's time, so a moving RK4 run builds 2 * steps + 1
    frames.  Each stage takes the gradient of its proxy once,
    for the Laplacian and, in the full-tensor modes, the advection; the
    step-start gradient also serves the energy.  A frame whose motion
    arrays (those its mode reads) are all zero is at rest, and its stages
    step with the driving force alone; the test reads the arrays, not
    ``surface.static``, since a static surface can carry a relative
    velocity.
    Raises ConfigError if snapshots are asked for without an out_dir, and
    StabilityError if dt exceeds the mesh bound on any grid of the run, if
    an energy or the state turns non-finite, or if the total energy rises
    along a run on a static surface whose t = 0 frame is at rest (with a
    relative velocity the transport terms give the energy no sign).  The
    error's ``step`` and ``t`` name the step and the time of the grid or
    state that failed; they are None if the first grid fails, before
    out_dir is created.  A run that fails after that still writes the
    ``energy.csv`` rows of the steps before the failure.
    """
    if config.snapshot_every and out_dir is None:
        raise ConfigError("snapshot_every needs an out_dir to write the snapshots to")
    conforming = config.mode.startswith("Conforming")
    kind = DerivKind(config.mode.split("_")[1])
    jaumann = kind == DerivKind.Jaumann
    # A frame keeps the geometry and MotionSample arrays that the mode's step
    # reads, and not the samples: the chart jet's other blocks, the other
    # geometry and the motion's cached intermediate blocks would raise peak
    # memory.  grid_laplace and energy read ginv and sqrtdetg; the conforming
    # proxy and projection read dX and nu, and _tangential reads Gamma.
    if conforming:
        names = ("q", "beta")
        state_rate, to_proxy = _conf_state_rate, conforming_to_proxy
        geo_read = ("ginv", "sqrtdetg", "dX", "nu", "Gamma")
        read = ("u2", "G_obs", "A") if jaumann else ("u2", "G_obs")
    else:
        names = ("Q",)
        state_rate, to_proxy = _full_state_rate, lambda gg, Q: Q
        geo_read = ("ginv", "sqrtdetg")
        read = ("u2", "Acal") if jaumann else ("u2",)

    def lean_frame(gg):
        """The frame of the full grid gg: the grid with the geometry arrays
        the step reads, and the motion arrays it reads, built on the axes,
        or None in place of the motion if it is at rest."""
        mot = motion_grid(surface, gg.t, gg.y1[:, None], gg.y2[None, :], gg.geom)
        mot = SimpleNamespace(**{a: getattr(mot, a) for a in read})
        return (
            replace(gg, geom=_FrameGeometry(**{a: getattr(gg.geom, a) for a in geo_read})),
            None if _at_rest(mot) else mot,
        )

    def frame_for(f, t, step):
        """The frame at t: f on a static surface or when f is at t, else a
        new frame on a grid whose stability bound is checked."""
        if surface.static or f[0].t == t:
            return f
        gg = make_grid(surface, t, config.n)
        _checked_bound(gg, params, config.dt, step)
        return lean_frame(gg)

    # The initial state is built on the full grid at t = 0.
    gg = make_grid(surface, 0.0, config.n)
    bound = _checked_bound(gg, params, config.dt)
    f = lean_frame(gg)
    # only a frame at rest on a static surface has a monotone energy: a
    # relative velocity's transport terms give the energy no sign
    watched = surface.static and f[1] is None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    state = initial_state(gg, config)
    if not conforming:
        state = (conforming_to_proxy(gg, *state),)

    def rate(frame, st, Q=None, dQ=None):
        """The state's rate on the frame; Q is its proxy and dQ the proxy's
        gradient, each if already taken."""
        gg, mot = frame
        if Q is None:
            Q = to_proxy(gg, *st)
        if dQ is None:
            dQ = grid_gradient(gg, Q)
        return state_rate(gg, params, kind, mot, st, Q, dQ)

    # A stage input accumulates into its product, h d + s, and writes no
    # argument: in the full-tensor modes the proxy is the state.
    def axpy(st, ds, h):
        out = tuple(h * d for d in ds)
        for acc, s in zip(out, st):
            acc += s
        return out

    stage_times, weights, den = _METHODS[config.method]
    h = config.dt
    energy_rows = []
    crosschecks = []
    t = 0.0
    prev_total = None
    # The step-start proxy serves the energy, the first stage's rate and,
    # after the last step, the final state; its gradient serves the energy
    # and the first stage.  A stage at c = 1 leaves f at the next step's time.
    try:
        for step in range(config.steps + 1):
            f = frame_for(f, t, step)
            gg = f[0]
            Q = to_proxy(gg, *state)
            dQ = grid_gradient(gg, Q)
            e_el, e_bulk, e_tot = energy(gg, params, Q, dQ)
            tr_res, sym_res = _state_residuals(Q)
            if not all(map(math.isfinite, (e_el, e_bulk, e_tot, tr_res, sym_res))):
                raise StabilityError(
                    f"energy or state is not finite at step {step} (t={t:g}); "
                    "reduce dt or the initial amplitude",
                    step,
                    t,
                )
            energy_rows.append((step, t, e_el, e_bulk, e_tot, tr_res, sym_res))
            if watched and prev_total is not None and e_tot > prev_total + ENERGY_RISE_TOL:
                raise StabilityError(
                    f"energy rose by {e_tot - prev_total:g} at step {step}; "
                    "reduce dt or check the configuration",
                    step,
                    t,
                )
            prev_total = e_tot
            if config.snapshot_every and step % config.snapshot_every == 0:
                _write_snapshot(out_dir, step, t, config.mode, dict(zip(names, state)))
            if config.crosscheck_every and step % config.crosscheck_every == 0:
                res = _crosscheck_residual(surface, gg, state[0], state[1], config.seed + step)
                crosschecks.append((step, t, res))
            if step == config.steps:
                break
            t_next = (step + 1) * config.dt
            # Each rate returns arrays it owns, so the step sums into k_0 in
            # place, in the order of the stages, and a stage's k is freed
            # once the next stage has read it.
            k = acc = rate(f, state, Q, dQ)
            del dQ, gg, Q  # the later stages take their own; freeing them lowers the peak memory
            for ci, wi in zip(stage_times[1:], weights[1:]):
                f = frame_for(f, t_next if ci == 1 else t + ci * h, step)
                k = rate(f, axpy(state, k, ci * h))
                for a, d in zip(acc, k):
                    a += d if wi == 1 else wi * d
            for a, s in zip(acc, state):
                a *= h / den
                a += s
            state, t = acc, t_next
    finally:
        # a run that fails mid-run keeps the rows of the steps it completed
        if out_dir is not None:
            with open(os.path.join(out_dir, "energy.csv"), "w") as fh:
                fh.write(",".join(ENERGY_COLUMNS) + "\n")
                for row in energy_rows:
                    fh.write(
                        f"{row[0]},{row[1]:.10g},{row[2]:.12g},{row[3]:.12g},"
                        f"{row[4]:.12g},{row[5]:.3e},{row[6]:.3e}\n"
                    )

    return FlowResult(
        energy_rows=energy_rows,
        crosschecks=crosschecks,
        bound=bound,
        final_Q=Q,
        final_q=state[0] if conforming else None,
        final_beta=state[1] if conforming else None,
    )
