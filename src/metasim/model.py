"""Model constants, growth field, emission law, and parameter conversions.

Everything here is a pure function of its arguments. The model is
nondimensional: volumes are fractions of the maximal reachable volume of
an isolated tumor, and time is measured in units of the intrinsic
proliferation time scale.

Each tumor carries two traits, a volume V and a carrying capacity K that
stands for its vascular support. V relaxes toward K at a Gompertz rate,
while K is driven by a local stimulation/inhibition balance plus a global
suppression term proportional to the circulating inhibitor amount I:

    dV/dt = V * ln(K / V)
    dK/dt = b * (V - V**(2/3) * K) - e * I * K

New tumors are seeded at a fixed birth state (V0, K0) at a rate
m * V**alpha per unit time per tumor, gated by an emission threshold Vm
below which a tumor sheds nothing.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, fields
from numbers import Real

from .errors import ConfigurationError, InvalidStateError

__all__ = [
    "ModelParams",
    "DimensionalParams",
    "TumorState",
    "growth_field",
    "emission_rate",
    "birth_state",
    "nondimensionalize",
    "local_inhibition_coefficient",
]


def is_finite(value) -> bool:
    """``math.isfinite``, but False, not an error, for an int beyond the
    float range or a value that is not a real number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def require(what: str, value, op: str = "", error: type[Exception] = ConfigurationError) -> None:
    """Raise ``error`` unless ``value`` is finite and, for ``op`` ``">"`` or
    ``">="``, on that side of 0, with the one message such a check writes:
    "{what} must be finite[ and {op} 0], got {value!r}"."""
    if is_finite(value) and (not op or value > 0 or (op == ">=" and value == 0)):
        return
    sign = f" and {op} 0" if op else ""
    raise error(f"{what} must be finite{sign}, got {value!r}")


@dataclass(frozen=True)
class TumorState:
    """Volume and carrying capacity of one tumor; both strictly positive."""

    V: float
    K: float

    def __post_init__(self):
        for name in ("V", "K"):
            require(f"TumorState.{name}", getattr(self, name), ">", InvalidStateError)


_PARAM_SIGNS = {"b": ">", "e": ">=", "k": ">", "m": ">=", "Vm": ">="}


@dataclass(frozen=True)
class ModelParams:
    """Nondimensional model constants.

    Defaults are the base parameter set used throughout the scenario
    catalog: b = e = k = m = 1, alpha = 2/3, birth state (0.1, 0.2).

    Fields
    ------
    b : stimulation/growth coefficient of the carrying capacity (> 0).
    e : efficacy of the circulating inhibitor (>= 0; 0 turns the
        population coupling off and makes the model linear).
    k : clearance rate of the circulating inhibitor (> 0).
    m : intrinsic metastatic potential, the emission-rate prefactor (>= 0).
    alpha : dissemination exponent in [0, 1]; one third of the fractal
        dimension of the tumor vasculature (2/3 = superficial).
    V0 : birth volume, also the lower edge of the live domain.
    K0 : birth carrying capacity (must exceed V0 so newborns grow inward).
    Vm : emission threshold volume; tumors below it shed nothing.
        ``None`` resolves to V0, i.e. every tumor in the domain emits.
    """

    b: float = 1.0
    e: float = 1.0
    k: float = 1.0
    m: float = 1.0
    alpha: float = 2.0 / 3.0
    V0: float = 0.1
    K0: float = 0.2
    Vm: float | None = None

    def __post_init__(self):
        if self.Vm is None:
            object.__setattr__(self, "Vm", self.V0)
        for f in fields(self):
            value = getattr(self, f.name)
            with suppress(OverflowError):  # an int with no float value is quoted as it is
                value = float(value) if isinstance(value, Real) else value
            require(f"parameter {f.name}", value, _PARAM_SIGNS.get(f.name, ""))
            object.__setattr__(self, f.name, float(value))
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.V0 < self.K0:
            raise ConfigurationError(
                f"need 0 < V0 < K0 for an inward birth flux, got V0={self.V0}, K0={self.K0}"
            )


@dataclass(frozen=True)
class DimensionalParams:
    """Raw biophysical constants, convertible to :class:`ModelParams`.

    The local inhibition coefficient ``d`` may be given directly or built
    from the optional biophysical sub-group (Vd, p, D) via
    :func:`local_inhibition_coefficient`. The systemic sensitivity ``e``
    may likewise be given directly or derived as ``e_hat / Vd``.

    Fields
    ------
    a : proliferation rate (1/time).
    b : stimulation coefficient (1/time).
    d : local inhibition coefficient (volume^(-2/3)/time), or None to
        build it from (e, Vd, p, D).
    e : systemic inhibitor sensitivity, or None to derive from e_hat/Vd.
    k : inhibitor clearance rate (1/time).
    m : emission constant.
    alpha : dissemination exponent (dimensionless).
    V0, K0, Vm : volumes; Vm defaults to V0.
    e_hat, Vd, p, D : optional biophysical sub-group -- inhibitor
        sensitivity, distribution volume, production rate, and diffusion
        length scale.
    """

    a: float
    b: float
    k: float
    m: float
    alpha: float
    V0: float
    K0: float
    Vm: float | None = None
    d: float | None = None
    e: float | None = None
    e_hat: float | None = None
    Vd: float | None = None
    p: float | None = None
    D: float | None = None

    def __post_init__(self):
        if self.Vm is None:
            object.__setattr__(self, "Vm", self.V0)
        if self.e is None:
            if self.e_hat is None or self.Vd is None:
                raise ConfigurationError(
                    "e missing and cannot be derived: supply e, or both e_hat and Vd"
                )
            require("parameter e_hat", self.e_hat, ">=")
            require("parameter Vd", self.Vd, ">")
            object.__setattr__(self, "e", self.e_hat / self.Vd)
        # nan > 0 is false, so an unchecked NaN e would rescale to the
        # uncoupled model
        for name in ("e", "m"):
            require(f"parameter {name}", getattr(self, name), ">=")
        if self.d is None:
            if self.Vd is None or self.p is None or self.D is None:
                raise ConfigurationError(
                    "d missing and cannot be built: supply d, or all of Vd, p, D"
                )
            object.__setattr__(
                self, "d", local_inhibition_coefficient(self.e, self.Vd, self.p, self.D)
            )
        elif self.p is not None:
            # nondimensionalize multiplies e by p, so a p that does not
            # build d is checked too
            require("parameter p", self.p, ">=")
        for name in ("a", "b", "d", "k"):
            require(f"parameter {name}", getattr(self, name), ">")
        for name in ("V0", "K0", "Vm"):
            require(f"volume {name}", getattr(self, name), ">")
        if not isinstance(self.alpha, Real):  # a NaN or inf fails the interval below
            require("parameter alpha", self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def V_star(self) -> float:
        """Maximal reachable volume of an isolated tumor, (b/d)**(3/2)."""
        return (self.b / self.d) ** 1.5


def growth_field(s: TumorState, I: float, p: ModelParams) -> tuple[float, float]:
    """Rates of change (dV, dK) of one tumor under inhibitor amount I.

    dV = V * ln(K/V) vanishes exactly on the diagonal V = K and is positive
    below it, so (1, 1) is the attracting fixed point of the uninhibited
    model. dK balances stimulation b*V against local inhibition
    b*V**(2/3)*K and systemic inhibition e*I*K.
    """
    require("inhibitor amount", I, ">=", InvalidStateError)
    return _field(s.V, s.K, p.b, p.e * float(I))


def _field(V: float, K: float, b: float, eI: float) -> tuple[float, float]:
    """Unchecked growth field (dV, dK) under systemic inhibition eI = e*I."""
    return V * math.log(K / V), b * (V - V ** (2.0 / 3.0) * K) - eI * K


def _rk4_step(V: float, K: float, b: float, eI: float, h: float) -> tuple[float, float]:
    """One classical RK4 step of length h of the growth field with eI
    frozen over the step."""
    q = 0.5 * h
    dV1, dK1 = _field(V, K, b, eI)
    dV2, dK2 = _field(V + q * dV1, K + q * dK1, b, eI)
    dV3, dK3 = _field(V + q * dV2, K + q * dK2, b, eI)
    dV4, dK4 = _field(V + h * dV3, K + h * dK3, b, eI)
    s = h / 6.0
    return (
        V + s * (dV1 + 2.0 * (dV2 + dV3) + dV4),
        K + s * (dK1 + 2.0 * (dK2 + dK3) + dK4),
    )


def emission_rate(V: float, p: ModelParams) -> float:
    """Rate m * V**alpha at which a tumor of volume V sheds new tumors.

    Zero below the emission threshold Vm (no access to circulation).
    """
    require("volume", V, ">", InvalidStateError)
    if V < p.Vm:
        return 0.0
    return p.m * float(V) ** p.alpha


def birth_state(p: ModelParams) -> TumorState:
    """State (V0, K0) at which every new tumor enters the population.

    Also the initial condition of the primary tumor.
    """
    return TumorState(V=p.V0, K=p.K0)


def local_inhibition_coefficient(e: float, Vd: float, p: float, D: float) -> float:
    """Local inhibition coefficient from biophysical constants.

    Obtained by averaging the quasi-steady intra-tumor inhibitor
    concentration over a spherical tumor:

        d = e * Vd * (p / (15 * D**2)) * (3 / (4*pi))**(2/3)

    with e the systemic sensitivity, Vd the distribution volume of the
    host compartment, p the inhibitor production rate per unit tumor
    volume, and D the inhibitor diffusion length scale.
    """
    for name, value in (("e", e), ("Vd", Vd), ("p", p), ("D", D)):
        require(name, value, ">")
    return e * Vd * (p / (15.0 * D * D)) * math.pow(3.0 / (4.0 * math.pi), 2.0 / 3.0)


def nondimensionalize(dp: DimensionalParams) -> ModelParams:
    """Rescale raw constants so the proliferation rate a, the local
    inhibition coefficient d, and the production rate p drop out.

    Volumes are divided by V* = (b/d)**(3/2), time is multiplied by a,
    and the inhibitor is rescaled by a/(p*V*):

        b -> b/a   e -> e*p*V*/a   k -> k/a   m -> (m/a)*V***alpha
        V0, K0, Vm -> /V*          alpha unchanged

    The production rate p (biophysical sub-group) is required whenever
    e > 0, since it enters the rescaled efficacy.
    """
    v_star = dp.V_star
    if dp.e > 0:
        if dp.p is None:
            raise ConfigurationError(
                "rescaling e > 0 requires the inhibitor production rate p"
            )
        e_scaled = dp.e * dp.p * v_star / dp.a
    else:
        e_scaled = 0.0
    return ModelParams(
        b=dp.b / dp.a,
        e=e_scaled,
        k=dp.k / dp.a,
        m=(dp.m / dp.a) * v_star**dp.alpha,
        alpha=dp.alpha,
        V0=dp.V0 / v_star,
        K0=dp.K0 / v_star,
        Vm=dp.Vm / v_star,
    )
