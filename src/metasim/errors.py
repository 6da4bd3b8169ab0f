"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MetasimError",
    "ConfigurationError",
    "InvalidStateError",
    "IntegrationBlowupError",
    "NotLinearError",
    "NoRootError",
]


class MetasimError(Exception):
    """Base class for all metasim errors."""


class ConfigurationError(MetasimError):
    """Invalid parameters, settings, or configuration file content."""


class InvalidStateError(MetasimError):
    """A state object violates its invariants (non-finite or out of domain)."""


class IntegrationBlowupError(MetasimError):
    """The integrator produced a non-finite state.

    Carries the simulation time at which the blowup was detected and the
    ``reason``, which names the check that tripped: ``non-finite-state``
    (the stepped rows or inhibitor went non-finite or left the domain:
    I < 0, or a primary V or a K <= 0), ``birth-term-limit`` (dt too large
    for the implicit birth weight) or ``newborn-step`` (the newborn's
    half step failed). ``simulate`` adds ``last_sample``, the last
    recorded row (t, M, N, I, Vp, n_live); it is None otherwise.
    """

    def __init__(
        self, t: float, message: str | None = None, reason: str = "non-finite-state"
    ):
        self.t = t
        self.reason = reason
        self.last_sample: dict | None = None
        super().__init__(message or f"non-finite state at t={t:g}")


class NotLinearError(MetasimError):
    """A linear-model-only operation was called with inhibitor coupling on."""


class NoRootError(MetasimError):
    """The growth-exponent equation has no positive root."""
