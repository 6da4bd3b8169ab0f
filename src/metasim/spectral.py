"""Growth exponent of the uncoupled (linear) population.

With the inhibitor coupling off (e = 0), every tumor follows the same
autonomous flow from the birth state and the population grows
exponentially at the rate lambda0 solving

    integral_0^inf beta(X_tau(V0, K0)) * exp(-lambda0 * tau) d tau = 1,

where X_tau is the growth flow with I = 0 and beta the emission law.
The left side is strictly decreasing in lambda, so the root is unique;
once bracketed it is found with Brent's method (scipy's brentq), which
converges superlinearly and keeps the bracket. A root solve evaluates
its function once per lambda: the bracketing, Brent's iterations and
the residual at the root share the values. It brackets from what it
already holds: a lower bound stepped up by 4e-8 of itself, the step
growing eightfold, where the horizon walk (below) has one, and
otherwise a lower end halved down from the upper one, a bracket one
factor of two wide, and below 1e-9 halved on at most 200 times.

The flow is integrated by an adaptive Dormand-Prince 8(5,3) pair
(``_dop853``) at a tolerance of 1e-15; the most recently used
integrators are cached, one per flow, and a solve samples the
seventh-order dense output's volume on a fixed grid of step
dtau = 2e-3, the capacity only at each horizon's last node. A flow
whose integrator needs more steps than the grid has cells is too stiff
for this solver and an error. The spectral integral uses a product
rule: beta is linearized on each cell while the exponential factor is
integrated exactly, which keeps the constant-beta case exact to
rounding and the smooth case at grid-squared accuracy.
Every cell but the first (from the emission onset to the next node) is
a grid cell of width dtau, so their exact weights are two scalars, and
the sum over them is one exponential and two dot products with arrays
fixed before the solve. The rule is linear in beta, so the rules on
every node (I_h) and on every second node (I_2h) of the one flow
extrapolate (Richardson) to the fourth-order rule (4 I_h - I_2h) / 3,
which cancels the grid-squared term; the equation is solved once with
it. Its left side takes one exponential for both rules: the coarse
cells start on every second fine node, so I_2h reads every second value
of I_h's. One walk sets the horizon: it starts at 50 and samples the
nodes one horizon at a time, node 0 with the first, up to a cap of 900,
and computes beta on each batch of nodes as it samples them; the rules
of every horizon slice the one beta array. That array is the one
node-sized array the walk keeps: a batch of volumes lives only while the
onset search and the running maximum of the volume read it, and each
rule holds its slopes (the coarse rule also its cell-start rates, a
contiguous copy at half the size) and is handed the fine rule's
exponentials.
One test finds the emission onset, the first node at or above Vm. Until
it lies among the nodes sampled so far the walk doubles the horizon,
and a flow that settles at the fixed point (1, 1), or reaches the cap,
before the onset has no root. From the onset on, it stops once the
flow has settled, the cap is reached, or the part of the integral past
the horizon can no longer move the root, judged at the
root lam_lo of the integral truncated there: a longer horizon only
raises lam_lo, so each lam_lo is the lower bound the next root solve
starts from. Beyond the horizon the tail integral
(m / lambda) * exp(-lambda * tau_max) is added in closed form.
A flow query reads the dense output at its one time in scalar
arithmetic, as a sample of it would; past the cap it returns the state
at the first doubled horizon where the flow has settled, and a flow
that never settled is an error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, NoRootError, NotLinearError
from ._dop853 import Dop853
from .model import ModelParams, TumorState, _field, require

__all__ = [
    "SpectralResult",
    "characteristic_flow",
    "malthus_exponent",
]

_DTAU = 2e-3
_TAU_MAX_INITIAL = 50.0
_TAU_MAX_CAP = 900.0
_SETTLE_TOL = 1e-8
# rtol = atol of the flow integrator: at 1e-15 the volume nodes lie within
# 1.1e-13 of RK4 at a tenth of the grid step, at 1e-14 up to 3.2e-12
_FLOW_TOL = 1e-15
# bound on what the spectral integral past the horizon may add, a tenth
# of the unit roundoff of its value 1 at the root
_TAIL_TOL = 1e-17
# a root bracket's lower end, halving down while the function is not
# yet positive there, goes on from here at most 200 times (to about
# 6.2e-70: below about 1e-154 the cell weights would divide by an
# underflowed lambda^2)
_LAM_FLOOR = 1e-9
_FLOW_CACHE_SIZE = 4
# Brent's iteration bound: bisection alone narrows any bracket of
# positive doubles to the stop in fewer halvings than the doubles have
# binades and mantissa bits (2098). A root near 1e-50 takes about 130
# iterations from a bracket [lo, 1e-6], past brentq's default of 100.
_BRENT_MAXITER = sys.float_info.max_exp - sys.float_info.min_exp + sys.float_info.mant_dig


@dataclass(frozen=True)
class SpectralResult:
    """Root of the spectral equation plus the quadrature's footprint.

    ``quadrature_nodes`` counts the nodes of the rule on every grid
    node; ``residual`` is |F| at ``lambda0`` of the equation solved.
    """

    lambda0: float
    tau_max: float
    quadrature_nodes: int
    residual: float


class _Flow:
    """Cached autonomous growth flow from (V0, K0): its integrator, built
    to tau = 50 and advanced on demand. No step is clipped to a target,
    so what ``volumes`` and ``at`` read from the dense output does not
    depend on how far the integrator went before."""

    def __init__(self, b: float, V0: float, K0: float):
        self.b = b
        self._ode = Dop853(lambda V, K: _field(V, K, b, 0.0), V0, K0, _FLOW_TOL)
        self._advance(_TAU_MAX_INITIAL)

    def _advance(self, tau: float):
        """Step the integrator until it covers tau, at most one step per grid cell."""
        ode, cells = self._ode, round(tau / _DTAU)
        while ode.t < tau:
            ode.step()
            if ode.steps > cells:
                raise ConfigurationError(
                    f"the growth flow for b={self.b:g} takes more integrator steps "
                    f"than the {cells} grid cells to tau={cells * _DTAU:g}: "
                    "it is too stiff for the spectral solver"
                )

    def volumes(self, first: int, last: int) -> tuple[np.ndarray, float]:
        """Volumes at the grid nodes ``first`` to ``last``, node i at i *
        dtau, and the capacity at node ``last``, as ``at`` reads it."""
        self._advance(last * _DTAU)
        V = self._ode.sample(np.arange(first, last + 1) * _DTAU)
        return V, self._ode.at(last * _DTAU)[1]

    def at(self, tau: float) -> tuple[float, float]:
        """State at tau from the dense output, so a node maps to itself.
        Past the cap, the state at the first horizon of 50, 100, ..., 900
        where the flow settled."""
        horizon = tau if tau < _TAU_MAX_CAP else _TAU_MAX_INITIAL
        while True:
            self._advance(horizon)
            V, K = self._ode.at(horizon)
            if horizon == tau or horizon >= _TAU_MAX_CAP or _settled(V, K):
                break
            horizon = min(2.0 * horizon, _TAU_MAX_CAP)
        if tau > horizon and not _settled(V, K):
            raise ConfigurationError(
                f"tau={tau:g} lies past the flow horizon tau_max={horizon:g}, "
                f"where the flow has not settled at (1, 1)"
            )
        return V, K


def _settled(V: float, K: float) -> bool:
    return abs(V - 1.0) + abs(K - 1.0) < _SETTLE_TOL


# the key is (b, V0, K0)
_flow = lru_cache(maxsize=_FLOW_CACHE_SIZE)(_Flow)


def _flow_for(p: ModelParams) -> _Flow:
    return _flow(p.b, p.V0, p.K0)


def characteristic_flow(tau: float, p: ModelParams) -> TumorState:
    """State reached at time tau by a tumor growing from (V0, K0) with
    no inhibitor; the flow the spectral equation integrates along."""
    require("tau", tau, ">=")
    V, K = _flow_for(p).at(tau)
    return TumorState(V=V, K=K)


def _emission_threshold_time(
    flow: _Flow, Vm: float, Va: np.ndarray, start: int = 0
) -> float | None:
    """First time the flow volume reaches Vm within the grid volumes Va,
    node start + i at (start + i) * dtau, or None if it does not; the
    nodes before ``start`` lie below Vm. Node 0 holds V0, so V0 >= Vm
    gives 0.

    V is strictly increasing along the flow for V0 < K0, so the
    crossing is unique. It is bracketed on the grid and solved on the
    dense output.
    """
    hits = Va >= Vm
    if not hits.any():
        return None
    i = start + int(np.argmax(hits))
    if i == 0:
        return 0.0
    return _brent(lambda tau: flow.at(tau)[0] - Vm, (i - 1) * _DTAU, i * _DTAU)


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

    # The horizon starts at 50 and doubles until the emission onset
    # tau_star lies among the nodes sampled so far; a flow that settles or
    # reaches the cap first never switches emission on. From the onset
    # on, the horizon grows until the flow has settled there, the cap is
    # reached, or the tail can no longer move the root: beta <= C =
    # max(m, max beta on the grid) along the whole flow, so the cells
    # past tau add at most (C / lam) exp(-lam tau) to the integral. The
    # root of the integral truncated at the horizon, with no tail, is a
    # lower estimate lam_lo of lambda0, and the bound is taken there;
    # short of it, the horizon grows to the bound, at most doubling. A
    # longer horizon only raises lam_lo and lowers the bound, so a
    # horizon that reached the bound needs no second solve, and each
    # lam_lo is the lower bound that the next solve, and the final one,
    # start their bracket from. beta holds the emission rates at the grid
    # nodes 0 to the horizon's, node i at i * dtau, each computed once as
    # the walk samples its node; a batch of volumes V is read by the
    # onset search and by top, the running maximum of V over the
    # quadrature nodes, and then dropped. The settle test reads the
    # capacity at the last node, as a flow query there gives it.
    flow = _flow_for(p)
    beta = np.empty(0)
    horizon, tau_star, tau_bound, lam_lo = _TAU_MAX_INITIAL, None, math.inf, None
    while True:
        last, start = round(horizon / _DTAU), beta.size
        V, K = flow.volumes(start, last)
        beta = np.concatenate((beta, p.m * V**p.alpha))
        at_end = horizon >= _TAU_MAX_CAP or _settled(float(V[-1]), K)
        if tau_star is None:
            # the nodes of earlier batches lie below Vm
            tau_star = _emission_threshold_time(flow, p.Vm, V, start)
            if tau_star is not None:
                onset = p.Vm if tau_star > 0 else p.V0
                beta_star = p.m * np.array([onset]) ** p.alpha
                first = _first_node(tau_star, _DTAU)
                top = onset
        if tau_star is None:
            if at_end:
                raise NoRootError(
                    f"the flow never reaches the emission threshold Vm={p.Vm:g}; "
                    "no births occur"
                )
        else:
            decay_at, fine = _fine_rule(beta, beta_star, tau_star)
            # F -> +inf as lam -> 0+ and F < 0 once lam exceeds the
            # emission-rate ceiling along the flow, m * max(V)^alpha over
            # the quadrature nodes: the crossing and the nodes from first on
            top = float(np.max(V[max(first - start, 0) :], initial=top))
            peak = top**p.alpha
            hi = 1.5 * p.m * peak + 1e-6
            if at_end or horizon >= tau_bound:
                break
            # a truncated integral that stays <= 1 as lam -> 0 has no
            # root to bound the horizon with, so the horizon just doubles;
            # once one has a root, every longer one has
            f = lambda lam: fine(lam) - 1.0
            if lam_lo is not None or f(_LAM_FLOOR) > 0.0:
                lam_lo = _root(f, hi, lam_lo)[0]
                C = p.m * max(1.0, peak)
                tau_bound = float(math.ceil(math.log(C / (lam_lo * _TAIL_TOL)) / lam_lo))
            if horizon >= tau_bound:
                break
        # this horizon's rule keeps its slopes and, through its slices, this
        # beta, and decay_at its cell starts and the exponentials at its last
        # lambda: let them go before the next batch is read
        decay_at = fine = f = None
        horizon = min(2.0 * horizon, tau_bound, _TAU_MAX_CAP)

    # the tail past the horizon as if the flow sat at (1, 1), where
    # beta = m: exact for a settled flow, below _TAIL_TOL near the root
    # at the decay bound, and an estimate for a flow capped unsettled.
    # The product rule's error is c * h^2 + O(h^4) and linear in beta, so
    # the rules on every node and on every second node combine into a
    # fourth-order one (Richardson); every horizon is a whole number, an
    # even node, so both end at tau_max.
    tau_max = last * _DTAU
    coarse = _truncated_integral(beta, beta_star, tau_star, 2)

    # F reads the fine rule through the last horizon's fine and decay_at.
    # Where the walk broke right after its root solve on that horizon, F
    # starts at that solve's root lam_lo: it takes the rule's value there
    # from fine, and the exponentials from decay_at's slot when the solve
    # evaluated its root last
    def F(lam: float) -> float:
        quadrature = (4.0 * fine(lam) - coarse(lam, decay_at(lam))) / 3.0
        return quadrature + (p.m / lam) * math.exp(-lam * tau_max) - 1.0

    root, value = _root(F, hi, lam_lo)
    return SpectralResult(
        lambda0=root,
        tau_max=tau_max,
        # the crossing and the grid nodes from `first` to `last`
        quadrature_nodes=last - first + 2,
        residual=float(abs(value)),
    )


def _truncated_integral(beta: np.ndarray, beta_star: np.ndarray, tau_star: float, stride: int = 1):
    """The spectral integral over [tau_star, (beta.size - 1) * dtau] as a
    function of lambda.

    beta holds the emission rates at the grid nodes, node i at i * dtau,
    and beta_star (one element) the rate at the crossing time. The
    quadrature nodes are the crossing time, then every ``stride``-th grid
    node past it up to the last, which ``stride`` divides. The function
    takes exp(-lambda * tau) at the fine rule's cell starts, the grid
    nodes from ``_first_node(tau_star, dtau)`` up to the last but one, as
    ``decay``, reads every ``stride``-th of them from its own first cell
    start on, and keeps no cell starts. The rates are read through slices
    of beta: only the slopes, and at a stride the cell-start rates, are
    arrays of their own.
    """
    assert (beta.size - 1) % stride == 0, f"node {beta.size - 1} is off the stride-{stride} grid"
    h = _DTAU * stride
    first = _first_node(tau_star, h)
    # this rule's cells start on every stride-th fine cell start, as
    # i * (stride dtau) == (stride i) * dtau in floating point
    skip = stride * first - _first_node(tau_star, _DTAU)
    assert skip >= 0, f"the stride-{stride} rule starts before the fine one ({skip})"
    nodes = beta[::stride][first:]
    # the first cell runs from the crossing to node `first` (there is none
    # when the crossing rounds onto the last node); every later cell is a
    # grid cell of width h. einsum rounds a strided operand otherwise
    # than a contiguous one, so the coarse rule's cell-start rates and
    # exponentials are contiguous copies
    beta0, d0, slope0 = float(beta_star[0]), 0.0, 0.0
    if nodes.size:
        d0 = first * h - tau_star
        slope0 = float(nodes[0] - beta0) / d0
    beta_lo = np.ascontiguousarray(nodes[:-1])
    slope = np.diff(nodes)
    slope /= h

    def integral(lam: float, decay: np.ndarray) -> float:
        decay = np.ascontiguousarray(decay[skip::stride])  # a view at stride 1
        i0, i1 = _cell_weights(lam, h)
        j0, j1 = _cell_weights(lam, d0)
        # einsum, not a BLAS dot: a threaded BLAS wakes its workers on
        # every dot, which measured 8 ms per call on a 2-vCPU host
        cells = i0 * np.einsum("i,i", decay, beta_lo) + i1 * np.einsum("i,i", decay, slope)
        first_cell = math.exp(-lam * tau_star) * (beta0 * j0 + slope0 * j1)
        return first_cell + cells

    return integral


def _fine_rule(beta: np.ndarray, beta_star: np.ndarray, tau_star: float):
    """``decay_at(lam)``, exp(-lam * tau_lo) at the fine rule's cell starts
    tau_lo, in one slot that holds the last lambda's only, and
    ``fine(lam)``, the rule on every node at lam, computed once per lambda
    from ``decay_at``. Brent's root is not always the last lambda it
    evaluates, so the rule's values, floats, are kept for every lambda and
    the exponentials for one."""
    integral = _truncated_integral(beta, beta_star, tau_star)
    tau_lo = np.arange(_first_node(tau_star, _DTAU), beta.size - 1) * _DTAU
    slot = []

    def decay_at(lam: float) -> np.ndarray:
        if not slot or slot[0] != lam:
            slot.clear()  # one array of exponentials alive at a time
            slot.extend((lam, _decay(lam, tau_lo)))
        return slot[1]

    return decay_at, cache(lambda lam: integral(lam, decay_at(lam)))


def _decay(lam: float, tau: np.ndarray) -> np.ndarray:
    """exp(-lam * tau), computed in one buffer."""
    decay = np.multiply(tau, -lam)
    return np.exp(decay, out=decay)


def _first_node(tau_star: float, h: float) -> int:
    """Index of the first node of the grid of step h that lies past tau_star."""
    first = int(math.ceil(tau_star / h - 1e-12))
    return first + 1 if first * h <= tau_star else first


def _root(f, hi: float, lo: float | None = None) -> tuple[float, float]:
    """Brent root of a function decreasing in lambda, and f there.

    A lower bound ``lo`` the caller holds, once f > 0 there, steps up by
    4e-8 lo, the step growing eightfold, until f <= 0, which is the upper
    end, or the step passes ``hi``. ``hi`` then doubles until f < 0
    there, at most 200 times. Without a lower bound, or if f(lo) <= 0,
    the lower end halves down from ``hi`` until f > 0, a bracket one
    factor of two wide; past ``_LAM_FLOOR`` it halves on from there at
    most 200 times, to about 6.2e-70. f is evaluated once per lambda:
    the bracket ends and the root are values Brent's method reads again."""
    f = cache(f)
    held = lo is not None and f(lo) > 0.0
    if held:
        step = 4e-8 * lo
        while lo + step < hi and f(lo + step) > 0.0:
            lo += step
            step *= 8.0
        hi = min(hi, lo + step)
    for _ in range(200):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoRootError("failed to bracket the growth exponent from above")
    if not held:
        lo = 0.5 * hi
        while lo >= _LAM_FLOOR and f(lo) <= 0.0:
            hi, lo = lo, 0.5 * lo
        if lo < _LAM_FLOOR:
            lo = _LAM_FLOOR
            for _ in range(201):
                if f(lo) > 0.0:
                    break
                hi, lo = lo, 0.5 * lo
            else:
                raise NoRootError("failed to bracket the growth exponent from below")
    root = _brent(f, lo, hi)
    return root, f(root)


def _brent(f, lo: float, hi: float) -> float:
    """Brent root of f on [lo, hi], to a relative stop: a small root keeps its digits."""
    # brentq wraps its function in scipy's _wrap_nan_raise, whose closure
    # refers to itself: a reference cycle that lives until the cyclic
    # collector runs. It gets a one-slot holder, emptied on return, so the
    # cycle keeps a few small objects alive and not f, nor the arrays and
    # the flow that f's closure holds.
    slot = [f]
    try:
        root, info = brentq(
            lambda x: slot[0](x),
            lo,
            hi,
            xtol=np.finfo(float).tiny,
            rtol=4.0 * np.finfo(float).eps,
            maxiter=_BRENT_MAXITER,
            full_output=True,
            disp=False,
        )
    finally:
        slot.clear()
    if not info.converged:
        raise NoRootError(
            f"Brent's method found no root on [{lo:g}, {hi:g}] "
            f"in {info.iterations} iterations"
        )
    return root


def _cell_weights(lam: float, width: float) -> tuple[float, float]:
    """Integrals of exp(-lam s) and s exp(-lam s) over s in [0, width]."""
    x = lam * width
    em = -math.expm1(-x)  # 1 - exp(-x), stable for small x
    return em / lam, (em - x * math.exp(-x)) / (lam * lam)
