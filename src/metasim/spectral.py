"""Growth exponent of the uncoupled (linear) population.

With the inhibitor coupling off (e = 0), every tumor follows the same
autonomous flow from the birth state and the population grows
exponentially at the rate lambda0 solving

    integral_0^inf beta(X_tau(V0, K0)) * exp(-lambda0 * tau) d tau = 1,

where X_tau is the growth flow with I = 0 and beta the emission law.
The left side is strictly decreasing in lambda, so the root is unique;
once bracketed it is found with Brent's method (scipy's brentq), which
converges superlinearly and keeps the bracket.

The flow is integrated once per parameter set on a fine fixed grid with
the same stage scheme as the simulation engine, and the most recently
used flows are cached; a query between nodes takes one step of that
scheme from the nearest node. The spectral integral uses a
product rule: beta is linearized on each cell while the exponential
factor is integrated exactly, which keeps the constant-beta case exact
to rounding and the smooth case at grid-squared accuracy. Every cell
but the first (from the emission onset to the next node) is a grid cell
of width dtau, so their exact weights are two scalars, and the sum over
them is one exponential and two dot products with arrays fixed before
the solve. The horizon is extended until the flow settles at the fixed
point (1, 1), up to a cap; beyond it the tail integral
(m / lambda) * exp(-lambda * tau_max) is added in closed form, and a
flow query past the horizon of a flow that never settled is an error.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, NoRootError, NotLinearError
from .model import ModelParams, TumorState, _rk4_step

__all__ = [
    "SpectralResult",
    "characteristic_flow",
    "malthus_exponent",
    "fit_growth_rate",
]

_DTAU = 1e-3
_TAU_MAX_INITIAL = 50.0
_TAU_MAX_CAP = 900.0
_SETTLE_TOL = 1e-8
_FLOW_CACHE_SIZE = 4


@dataclass(frozen=True)
class SpectralResult:
    """Root of the spectral equation plus the quadrature's footprint."""

    lambda0: float
    tau_max: float
    quadrature_nodes: int
    residual: float


class _Flow:
    """Cached autonomous growth flow from (V0, K0) on a uniform grid.

    Node i + 1 is ``model._rk4_step`` of node i with eI = 0 and h = dtau.
    Extends itself by doubling the horizon until the state settles at
    the fixed point (1, 1), so slow parameter regimes get the horizon
    they need without penalizing fast ones.
    """

    def __init__(self, b: float, V0: float, K0: float):
        self.b = b
        self.dtau = _DTAU
        self.V = array("d", [V0])
        self.K = array("d", [K0])
        self._extend_to(_TAU_MAX_INITIAL)
        while not self.settled and self.tau_max < _TAU_MAX_CAP:
            self._extend_to(min(2.0 * self.tau_max, _TAU_MAX_CAP))
        # a view pins its buffer against resizing, so take it only now
        self.Va = np.frombuffer(self.V)
        self.Ka = np.frombuffer(self.K)

    @property
    def tau_max(self) -> float:
        return (len(self.V) - 1) * self.dtau

    @property
    def settled(self) -> bool:
        return abs(self.V[-1] - 1.0) + abs(self.K[-1] - 1.0) < _SETTLE_TOL

    def _extend_to(self, tau_target: float):
        # model._rk4_step(V, K, b, 0.0, h) with its stages written out, in
        # the same operations and order, so the grid is bit-identical to
        # iterating it; a call per node would cost about a fifth more
        b = self.b
        h = self.dtau
        q = 0.5 * h
        h6 = h / 6.0
        log = math.log
        put_V = self.V.append
        put_K = self.K.append
        V, K = self.V[-1], self.K[-1]
        for _ in range(len(self.V) - 1, round(tau_target / h)):
            dV1 = V * log(K / V)
            dK1 = b * (V - V ** (2.0 / 3.0) * K)
            V2 = V + q * dV1
            K2 = K + q * dK1
            dV2 = V2 * log(K2 / V2)
            dK2 = b * (V2 - V2 ** (2.0 / 3.0) * K2)
            V3 = V + q * dV2
            K3 = K + q * dK2
            dV3 = V3 * log(K3 / V3)
            dK3 = b * (V3 - V3 ** (2.0 / 3.0) * K3)
            V4 = V + h * dV3
            K4 = K + h * dK3
            dV4 = V4 * log(K4 / V4)
            dK4 = b * (V4 - V4 ** (2.0 / 3.0) * K4)
            V += h6 * (dV1 + 2.0 * (dV2 + dV3) + dV4)
            K += h6 * (dK1 + 2.0 * (dK2 + dK3) + dK4)
            put_V(V)
            put_K(K)

    def at(self, tau: float) -> tuple[float, float]:
        """State at tau: one ``model._rk4_step`` of length tau - i*dtau,
        forward or back, from the nearest node i, so a node maps to
        itself; the last node at and past a settled horizon."""
        if tau >= self.tau_max:
            if tau > self.tau_max and not self.settled:
                raise ConfigurationError(
                    f"tau={tau:g} lies past the flow horizon tau_max={self.tau_max:g}, "
                    f"where the flow has not settled at (1, 1)"
                )
            return self.V[-1], self.K[-1]
        i = round(tau / self.dtau)
        return _rk4_step(self.V[i], self.K[i], self.b, 0.0, tau - i * self.dtau)


# least recently used first; a slow-regime flow holds up to 900k nodes
_flow_cache: OrderedDict[tuple[float, float, float], _Flow] = OrderedDict()


def _flow_for(p: ModelParams) -> _Flow:
    key = (p.b, p.V0, p.K0)
    flow = _flow_cache.get(key)
    if flow is None:
        flow = _flow_cache[key] = _Flow(p.b, p.V0, p.K0)
        if len(_flow_cache) > _FLOW_CACHE_SIZE:
            _flow_cache.popitem(last=False)
    else:
        _flow_cache.move_to_end(key)
    return flow


def characteristic_flow(tau: float, p: ModelParams) -> TumorState:
    """State reached at time tau by a tumor growing from (V0, K0) with
    no inhibitor; the flow the spectral equation integrates along."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigurationError(f"tau must be >= 0, got {tau!r}")
    V, K = _flow_for(p).at(tau)
    return TumorState(V=V, K=K)


def _emission_threshold_time(flow: _Flow, Vm: float) -> float | None:
    """First time the flow volume reaches Vm, or None if it never does.

    V is strictly increasing along the flow for V0 < K0, so the
    crossing is unique; it is bracketed on the grid and solved on the
    flow's in-cell step.
    """
    if flow.Va[0] >= Vm:
        return 0.0
    hits = flow.Va >= Vm
    if not hits.any():
        return None
    i = int(np.argmax(hits))
    return brentq(
        lambda tau: flow.at(tau)[0] - Vm,
        (i - 1) * flow.dtau,
        i * flow.dtau,
        xtol=1e-15,
        rtol=4.0 * np.finfo(float).eps,
    )


def malthus_exponent(p: ModelParams) -> SpectralResult:
    """Solve the spectral equation for the linear growth exponent.

    Requires the uncoupled model (e = 0) and a positive emission
    constant; raises NotLinearError and NoRootError otherwise.
    """
    if p.e != 0.0:
        raise NotLinearError(
            "the growth exponent is defined for the uncoupled model; set e = 0"
        )
    if p.m <= 0.0:
        raise NoRootError("no positive growth exponent exists for m = 0")

    flow = _flow_for(p)
    tau_star = _emission_threshold_time(flow, p.Vm)
    if tau_star is None:
        raise NoRootError(
            f"the flow never reaches the emission threshold Vm={p.Vm:g}; no births occur"
        )

    # quadrature nodes: the crossing time, then every grid node past it
    h = flow.dtau
    first = int(math.ceil(tau_star / h - 1e-12))
    if first * h <= tau_star:
        first += 1
    Vs = np.concatenate(([p.Vm if tau_star > 0 else p.V0], flow.Va[first:]))
    betas = p.m * Vs**p.alpha
    # the first cell runs from the crossing to node `first` (there is none
    # when the crossing rounds onto the last node); every later cell is a
    # grid cell of width h, starting at tau_lo
    beta0, d0, slope0 = float(betas[0]), 0.0, 0.0
    if betas.size > 1:
        d0 = first * h - tau_star
        slope0 = float(betas[1] - beta0) / d0
    beta_lo = betas[1:-1]
    slope = np.diff(betas[1:]) / h
    tau_lo = np.arange(first, flow.Va.size - 1) * h
    tau_max = flow.tau_max

    def F(lam: float) -> float:
        i0, i1 = _cell_weights(lam, h)
        j0, j1 = _cell_weights(lam, d0)
        decay = np.exp(-lam * tau_lo)
        # einsum, not a BLAS dot: a threaded BLAS wakes its workers on
        # every dot, which measured 8 ms per call on a 2-vCPU host
        cells = i0 * np.einsum("i,i", decay, beta_lo) + i1 * np.einsum("i,i", decay, slope)
        first_cell = math.exp(-lam * tau_star) * (beta0 * j0 + slope0 * j1)
        tail = (p.m / lam) * math.exp(-lam * tau_max)
        return first_cell + cells + tail - 1.0

    # bracket: F -> +inf as lam -> 0+ and F < 0 once lam exceeds the
    # emission-rate ceiling along the flow
    lo = 1e-9
    hi = 1.5 * p.m * float(np.max(Vs)) ** p.alpha + 1e-6
    for _ in range(200):
        if F(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoRootError("failed to bracket the growth exponent from above")
    for _ in range(200):
        if F(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise NoRootError("failed to bracket the growth exponent from below")

    root = brentq(F, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)

    return SpectralResult(
        lambda0=root,
        tau_max=tau_max,
        quadrature_nodes=int(Vs.size),
        residual=float(abs(F(root))),
    )


def _cell_weights(lam: float, width: float) -> tuple[float, float]:
    """Integrals of exp(-lam s) and s exp(-lam s) over s in [0, width]."""
    x = lam * width
    em = -math.expm1(-x)  # 1 - exp(-x), stable for small x
    return em / lam, (em - x * math.exp(-x)) / (lam * lam)


def fit_growth_rate(times, M, window: tuple[float, float]) -> float:
    """Least-squares slope of ln M(t) over a time window.

    The intercept is discarded; only the exponential rate is returned.
    """
    times = np.asarray(times, dtype=float)
    M = np.asarray(M, dtype=float)
    if times.shape != M.shape:
        raise ConfigurationError("times and M must have matching shapes")
    t_lo, t_hi = window
    mask = (times >= t_lo) & (times <= t_hi)
    if int(mask.sum()) < 10:
        raise ConfigurationError(
            f"window [{t_lo:g}, {t_hi:g}] holds fewer than 10 samples"
        )
    Mw = M[mask]
    if np.any(Mw <= 0):
        raise ConfigurationError("M must be positive throughout the fit window")
    slope, _ = np.polyfit(times[mask], np.log(Mw), 1)
    return float(slope)
