"""Exception taxonomy shared by all modules."""
from __future__ import annotations

from numbers import Integral

__all__ = [
    "SurfratesError",
    "DomainError",
    "NonEmbeddingError",
    "InversionError",
    "RankError",
    "MissingSplitError",
    "NotQTensorError",
    "NotConformingError",
    "StencilError",
    "StabilityError",
    "ConfigError",
    "ShellDegenerateError",
]


class SurfratesError(Exception):
    """Base class for all library errors."""


class DomainError(SurfratesError):
    """Event outside the admissible chart domain (or too close to an excluded band
    for the requested stencil)."""


class NonEmbeddingError(SurfratesError):
    """Chart Jacobian is rank-deficient at the sampled event (det g below threshold)."""


class InversionError(SurfratesError):
    """A chart motion is not invertible at the requested point."""


class RankError(SurfratesError):
    """Operation not defined for the tensor rank supplied."""


class MissingSplitError(SurfratesError):
    """A decomposed computation path was requested for a field closure that does
    not provide split components."""


class NotQTensorError(SurfratesError):
    """Value is not symmetric trace-free within tolerance."""


class NotConformingError(SurfratesError):
    """Q-tensor value has a nonzero normal-tangential coupling where a conforming
    one is required."""


class StencilError(SurfratesError):
    """Grid too coarse for the requested stencil."""


class StabilityError(SurfratesError):
    """Time step too large: energy increased on a static surface, or the
    configured dt exceeds the diffusive stability bound.

    ``step`` is the flow step being taken, counted as the energy rows count
    them, and ``t`` the time of the grid or state that failed the check;
    both are None when it failed before the run began."""

    def __init__(self, message: str, step: int | None = None, t: float | None = None):
        super().__init__(message)
        self.step = step
        self.t = t


class ConfigError(SurfratesError):
    """Malformed or inconsistent run configuration."""


class ShellDegenerateError(SurfratesError):
    """Thin-shell chart degenerates at the requested offset (1 - xi*kappa <= 0)."""


def _require_counts(**counts):
    """ConfigError naming each count that is not an integer; a numpy integer
    is one, a float is not."""
    bad = [f"{k}={v!r}" for k, v in counts.items() if not isinstance(v, Integral)]
    if bad:
        raise ConfigError(f"counts must be integers, got {', '.join(bad)}")
