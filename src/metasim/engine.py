"""Time integration of the coupled population system.

The metastatic density is represented exactly as a list of weighted
cohorts: every tumor is born at the same state (V0, K0), so the density
stays a finite sum of point masses, each following the growth ODE. No
(V, K)-grid exists and there is no numerical diffusion.

The primary tumor is the weight-1 tumor born at (V0, K0) at t = 0 and
obeys the same growth, emission and inhibitor production, so it is row
0 of the cohort arrays: it never exits and is left out of M and N. All
rows and the inhibitor are advanced together with the classical
4th-order Runge-Kutta scheme; the inhibitor seen by each stage is the
stage's own value, so the coupling is integrated consistently rather
than frozen per step.

Births add one cohort per step with the trapezoid of the population
emission rate over the step as its weight. The cohort enters advanced
half a step past the birth state, which makes the discrete birth stream
a midpoint rule in disguise: placing newborns at the step's end with age
zero would tag every cohort with a systematic age lag of dt/2 and drag
the global order of the burden down to one.

Cohort bookkeeping (born, exited) uses compensated accumulation so the
conservation identity born = exited + live holds to a few ulp even after
millions of steps.

The array kernel carries V^(2/3) of every row from one step to the next
and computes it as cbrt(V)², which costs about half a ``pow`` and stays
within 1e-15 relative of it. The scalar ``model._rk4_step`` that moves
the newborn keeps ``**``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrationBlowupError, InvalidStateError
from .model import ModelParams, TumorState, _rk4_step, emission_rate

__all__ = [
    "Cohort",
    "SystemState",
    "SolverSettings",
    "total_burden",
    "inhibitor_rate",
    "birth_rate",
    "step",
    "simulate",
]

_MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class Cohort:
    """One initial cohort of a scenario: a characteristic curve carrying
    a point mass of the density.

    ``weight`` is the expected number of metastases riding the curve;
    ``birth_time`` is the instant the mass entered the domain. Live
    cohorts are held as arrays in :class:`SystemState`, not as records.
    """

    birth_time: float
    weight: float
    state: TumorState

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise InvalidStateError(f"cohort weight must be >= 0, got {self.weight!r}")
        if not math.isfinite(self.birth_time):
            raise InvalidStateError(f"cohort birth_time must be finite, got {self.birth_time!r}")


_COHORT_ARRAYS = ("V", "K", "w", "birth_t")
# the engine's rows also carry P = V^(2/3)
_ROW_ARRAYS = _COHORT_ARRAYS + ("P",)
_TWO_THIRDS = 2.0 / 3.0


@dataclass(frozen=True, eq=False)
class SystemState:
    """Full state of the coupled system at one instant.

    The live cohorts are four equal-length float64 arrays in birth
    order: volume ``V``, carrying capacity ``K``, weight ``w`` (the
    expected number of metastases riding the curve) and ``birth_t``.
    Construction copies them into new read-only arrays.

    ``V0`` is the lower edge of the live domain, copied from the model
    parameters at construction; it travels with the state so that
    domain checks and histogram binning need no external context.

    ``born_count`` and ``exited_count`` are cumulative weights; the
    identity born = exited + sum of live weights holds at all times
    (up to float accumulation).
    """

    t: float
    primary: TumorState
    I: float
    V: np.ndarray
    K: np.ndarray
    w: np.ndarray
    birth_t: np.ndarray
    born_count: float
    exited_count: float
    V0: float

    def __post_init__(self):
        if not (math.isfinite(self.I) and self.I >= 0):
            raise InvalidStateError(f"inhibitor amount must be >= 0, got {self.I!r}")
        if not math.isfinite(self.t):
            raise InvalidStateError(f"time must be finite, got {self.t!r}")
        if not (math.isfinite(self.V0) and self.V0 > 0):
            raise InvalidStateError(f"V0 must be finite and > 0, got {self.V0!r}")
        for name in _COHORT_ARRAYS:
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size != np.size(self.V):
                raise InvalidStateError("cohort arrays must be 1-D and of equal length")
            if not np.isfinite(arr).all():
                raise InvalidStateError(f"cohort {name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (self.w < 0).any():
            raise InvalidStateError(f"cohort weights must be >= 0, got {self.w.min()!r}")
        if (self.K <= 0).any():
            raise InvalidStateError(f"cohort K must be > 0, got {self.K.min()!r}")
        if (self.V < self.V0).any():
            raise InvalidStateError(
                f"cohort at V={self.V.min()} lies below the domain edge V0={self.V0}"
            )


@dataclass(frozen=True)
class SolverSettings:
    """Fixed-step integrator configuration.

    ``sample_every`` is rounded to a whole number of steps. A
    ``weight_floor`` > 0 prunes negligible cohorts, booking their weight
    as exited so conservation still holds; the default leaves pruning
    off.
    """

    dt: float = 1e-2
    t_end: float = 200.0
    sample_every: float = 0.1
    weight_floor: float = 0.0

    def __post_init__(self):
        for name in ("dt", "t_end", "sample_every", "weight_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigurationError(f"t_end must be > 0, got {self.t_end}")
        if self.sample_every < self.dt:
            raise ConfigurationError(
                f"sample_every must be >= dt, got {self.sample_every} < {self.dt}"
            )
        if self.weight_floor < 0:
            raise ConfigurationError(f"weight_floor must be >= 0, got {self.weight_floor}")
        if self.t_end / self.dt > _MAX_STEPS:
            raise ConfigurationError(
                f"t_end/dt = {self.t_end / self.dt:.3g} exceeds the step-count cap {_MAX_STEPS}"
            )

    @property
    def n_steps(self) -> int:
        """Steps a run takes: round(t_end/dt) when that lands on t_end,
        otherwise ceil(t_end/dt), so a run never stops short of t_end."""
        n = round(self.t_end / self.dt)
        if math.isclose(n * self.dt, self.t_end, rel_tol=1e-9):
            return n
        return math.ceil(self.t_end / self.dt)


class _Accumulator:
    """Neumaier-compensated running sum for cumulative weight counters."""

    __slots__ = ("total", "_comp")

    def __init__(self, value: float = 0.0):
        self.total = value
        self._comp = 0.0

    def add(self, x: float):
        t = self.total + x
        if abs(self.total) >= abs(x):
            self._comp += (self.total - t) + x
        else:
            self._comp += (x - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self._comp


class _Engine:
    """Mutable struct-of-arrays working state of one simulation.

    Row 0 holds the primary tumor with weight 1; rows 1 to ``n - 1``
    hold the live cohorts in birth order. Every row enters the field,
    the emission sum and the inhibitor production alike; only cohort
    rows exit, get pruned, or count toward M, N and the exported
    state. Beside ``V``, ``K``, ``w`` and ``birth_t`` each row keeps
    ``P`` = V^(2/3), set wherever V is. Arrays have a capacity that
    doubles on demand; scratch buffers for the four stages are kept at
    the same capacity so the hot loop allocates nothing.

    The run diagnostics are scalars updated on the way: the peak row
    count, the smallest birth denominator and the weight pruned by the
    floor. Callers enter ``np.errstate(all="ignore")`` around ``step``:
    a diverging stage state leaves inf or nan in its rows, which the
    check after the update reports as a blowup.
    """

    def __init__(self, p: ModelParams, state: SystemState, weight_floor: float = 0.0):
        self.p = p
        self.weight_floor = weight_floor
        self.t = state.t
        self.I = state.I
        self.born = _Accumulator(state.born_count)
        self.exited = _Accumulator(state.exited_count)
        n = state.w.size + 1
        cap = max(4096, 1 << n.bit_length())
        self.n = n
        row0 = {"V": state.primary.V, "K": state.primary.K, "w": 1.0, "birth_t": 0.0}
        for name, first in row0.items():
            arr = np.empty(cap)
            arr[0] = first
            arr[1:n] = getattr(state, name)
            setattr(self, name, arr)
        self.P = np.empty(cap)
        _pow23(self.V[:n], self.P[:n])
        self._scratch = [np.empty(cap) for _ in range(11)]
        self.peak_n = n
        self.min_denom = math.inf
        self.pruned = 0.0

    # -- storage -----------------------------------------------------

    def _grow(self):
        cap = 2 * self.V.size
        for name in _ROW_ARRAYS:
            arr = np.empty(cap)
            arr[: self.n] = getattr(self, name)[: self.n]
            setattr(self, name, arr)
        self._scratch = [np.empty(cap) for _ in range(11)]

    # -- one step ----------------------------------------------------

    def step(self, dt: float):
        p = self.p
        n = self.n
        b, e, k = p.b, p.e, p.k
        V = self.V[:n]
        K = self.K[:n]
        w = self.w[:n]
        P = self.P[:n]
        (kV1, kK1, kV2, kK2, kV3, kK3, kV4, kK4, Vs, Ks, tmp) = (
            a[:n] for a in self._scratch
        )
        I = self.I

        def stage(Vc, Kc, Pc, Ic, outV, outK):
            """Field of every row at one stage state, with Pc = Vc^(2/3)
            (may be outK itself); returns dI."""
            np.divide(Kc, Vc, out=outV)
            np.log(outV, out=outV)
            outV *= Vc
            np.multiply(Pc, Kc, out=outK)
            np.subtract(Vc, outK, out=outK)
            outK *= b
            if e != 0.0 and Ic != 0.0:
                np.multiply(Kc, e * Ic, out=tmp)
                outK -= tmp
            return _volume_sum(w, Vc) - k * Ic

        h2 = 0.5 * dt
        s6 = dt / 6.0
        t_new = self.t + dt
        B0 = _emission_sum(p, V, w, P, tmp)
        dI1 = stage(V, K, P, I, kV1, kK1)
        np.multiply(kV1, h2, out=Vs)
        Vs += V
        np.multiply(kK1, h2, out=Ks)
        Ks += K
        dI2 = stage(Vs, Ks, _pow23(Vs, kK2), I + h2 * dI1, kV2, kK2)
        np.multiply(kV2, h2, out=Vs)
        Vs += V
        np.multiply(kK2, h2, out=Ks)
        Ks += K
        dI3 = stage(Vs, Ks, _pow23(Vs, kK3), I + h2 * dI2, kV3, kK3)
        np.multiply(kV3, dt, out=Vs)
        Vs += V
        np.multiply(kK3, dt, out=Ks)
        Ks += K
        dI4 = stage(Vs, Ks, _pow23(Vs, kK4), I + dt * dI3, kV4, kK4)

        kV2 += kV3
        kV2 *= 2.0
        kV2 += kV1
        kV2 += kV4
        kV2 *= s6
        V += kV2
        kK2 += kK3
        kK2 *= 2.0
        kK2 += kK1
        kK2 += kK4
        kK2 *= s6
        K += kK2
        I_new = I + s6 * (dI1 + 2.0 * (dI2 + dI3) + dI4)
        self.I = I_new

        if not (math.isfinite(I_new) and V[0] > 0 and K[0] > 0
                and np.isfinite(V).all() and np.isfinite(K).all()):
            raise IntegrationBlowupError(t_new, reason="non-finite-state")
        _pow23(V, P)
        B1 = _emission_sum(p, V, w, P, tmp)

        # birth: trapezoid of the emission rate over the step. Three
        # first-order leaks are closed to keep the global order at two:
        # the newborn enters advanced to mid-step age (no dt/2 age lag);
        # the trapezoid's right endpoint includes the newborn's own
        # emission (implicit in w, solved in closed form); and the
        # inhibitor records the newborn's in-step production, which the
        # stages cannot see. The newborn's half step freezes the inhibitor
        # at its step midpoint; the O(h^2) error this leaves in its state
        # is weighted by an O(h) cohort mass, so the order is unaffected.
        try:
            Vn, Kn = _rk4_step(p.V0, p.K0, p.b, p.e * (0.5 * (I + I_new)), h2)
            beta_n = emission_rate(Vn, p)
        except (ValueError, OverflowError, ZeroDivisionError, InvalidStateError) as exc:
            raise IntegrationBlowupError(t_new, reason="newborn-step") from exc
        denom = 1.0 - h2 * beta_n
        if denom < self.min_denom:
            self.min_denom = denom
        if denom <= 0.5:
            raise IntegrationBlowupError(
                t_new,
                f"dt too large for the birth term at t={t_new:g}",
                reason="birth-term-limit",
            )
        w_new = h2 * (B0 + B1) / denom
        if w_new > 0.0:
            self.born.add(w_new)
            I_new += h2 * w_new * p.V0
            self.I = I_new
            if w_new < self.weight_floor:
                self.exited.add(w_new)
                self.pruned += w_new
            else:
                if self.n == self.V.size:
                    self._grow()
                i = self.n
                self.V[i] = Vn
                _pow23(self.V[i : i + 1], self.P[i : i + 1])
                self.K[i] = Kn
                self.w[i] = w_new
                self.birth_t[i] = self.t + h2
                self.n += 1
                n = self.n
                V = self.V[:n]

        # removal through the V = V0 edge, then pruning; both spare the
        # primary in row 0
        drop = V < p.V0
        if self.weight_floor > 0.0:
            drop |= self.w[:n] < self.weight_floor
        drop[0] = False
        if drop.any():
            for x, v in zip(self.w[:n][drop].tolist(), V[drop].tolist()):
                self.exited.add(x)
                if v >= p.V0:
                    self.pruned += x
            keep = ~drop
            m_keep = int(keep.sum())
            for name in _ROW_ARRAYS:
                arr = getattr(self, name)
                arr[:m_keep] = arr[:n][keep]
            self.n = m_keep
        if self.n > self.peak_n:
            self.peak_n = self.n

        self.t = t_new

    # -- observation: cohort rows only -------------------------------

    def burden(self) -> float:
        return _volume_sum(self.w[1 : self.n], self.V[1 : self.n])

    def live_weight(self) -> float:
        """Exactly rounded sum of live weights (conservation checks)."""
        return math.fsum(self.w[1 : self.n])

    def largest_volume(self) -> float:
        return float(self.V[1 : self.n].max()) if self.n > 1 else math.nan

    def to_state(self) -> SystemState:
        n = self.n
        return SystemState(
            t=self.t,
            primary=TumorState(V=float(self.V[0]), K=float(self.K[0])),
            I=self.I,
            V=self.V[1:n],
            K=self.K[1:n],
            w=self.w[1:n],
            birth_t=self.birth_t[1:n],
            born_count=self.born.value,
            exited_count=self.exited.value,
            V0=self.p.V0,
        )


def _pow23(V: np.ndarray, out: np.ndarray) -> np.ndarray:
    """V^(2/3) into ``out`` as cbrt(V)²: about half the cost of
    ``np.power`` and within 1e-15 relative of it, exact at 0 and 1."""
    np.cbrt(V, out=out)
    out *= out
    return out


def _emission_sum(
    p: ModelParams, V: np.ndarray, w: np.ndarray, P: np.ndarray, out: np.ndarray
) -> float:
    """Population emission rate m * sum(w * beta(V)) over the given rows.

    ``P`` = V^(2/3) is beta itself for the default alpha; any other
    alpha is a ``np.power`` into the scratch buffer ``out``, which also
    takes the masked beta when a threshold Vm is set.
    """
    beta = P if p.alpha == _TWO_THIRDS else np.power(V, p.alpha, out=out)
    if p.Vm > 0.0:
        if beta is P:
            np.copyto(out, P)
            beta = out
        beta[V < p.Vm] = 0.0
    return p.m * float(np.dot(w, beta))


def _volume_sum(w: np.ndarray, V: np.ndarray) -> float:
    """Weighted volume sum(w * V): the burden M over cohort rows, the
    inhibitor production over all rows."""
    return float(np.dot(w, V))


def initial_state(p: ModelParams, initial_cohorts: tuple[Cohort, ...] = ()) -> SystemState:
    """System at t = 0: primary at the birth state, no inhibitor.

    ``born_count`` starts at the total initial weight so the
    conservation identity holds from the first sample.
    """
    return SystemState(
        t=0.0,
        primary=TumorState(V=p.V0, K=p.K0),
        I=0.0,
        V=[c.state.V for c in initial_cohorts],
        K=[c.state.K for c in initial_cohorts],
        w=[c.weight for c in initial_cohorts],
        birth_t=[c.birth_time for c in initial_cohorts],
        born_count=math.fsum(c.weight for c in initial_cohorts),
        exited_count=0.0,
        V0=p.V0,
    )


def total_burden(s: SystemState) -> float:
    """Total metastatic volume M: sum of weight * V over live cohorts.

    The primary tumor is excluded; it is tracked separately.
    """
    return _volume_sum(s.w, s.V)


def _all_rows(s: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Volumes and weights of the primary (weight 1) and every cohort."""
    return np.append(s.primary.V, s.V), np.append(1.0, s.w)


def inhibitor_rate(s: SystemState, p: ModelParams) -> float:
    """Rate of change of the inhibitor amount: production by the whole
    tumor bulk (primary plus metastases) minus first-order clearance."""
    V, w = _all_rows(s)
    return _volume_sum(w, V) - p.k * s.I


def birth_rate(s: SystemState, p: ModelParams) -> float:
    """Population emission rate: new metastases shed per unit time by
    the primary and every live cohort together."""
    V, w = _all_rows(s)
    return _emission_sum(p, V, w, _pow23(V, np.empty_like(V)), np.empty_like(V))


def step(s: SystemState, p: ModelParams, dt: float, weight_floor: float = 0.0) -> SystemState:
    """One fixed step of the full coupled system; returns a new state.

    Advances primary, cohorts, and inhibitor together with the classical
    4th-order scheme (stage-consistent inhibitor), spawns at most one
    cohort carrying the trapezoid birth weight, removes cohorts that
    left the domain through V = V0, and prunes weights below
    ``weight_floor``, booking all removed weight as exited.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be > 0, got {dt!r}")
    if s.V0 != p.V0:
        raise InvalidStateError(
            f"state was built for V0={s.V0}, parameters have V0={p.V0}"
        )
    eng = _Engine(p, s, weight_floor=weight_floor)
    with np.errstate(all="ignore"):
        eng.step(dt)
    return eng.to_state()


def simulate(
    p: ModelParams,
    settings: SolverSettings,
    initial_cohorts: tuple[Cohort, ...] = (),
    n_bins: int = 40,
):
    """Run from t = 0 to t_end, sampling observables along the way.

    Returns (trajectory, final_state). The trajectory rows are sampled
    every ``settings.sample_every`` (rounded to whole steps), starting
    with t = 0; its final histogram is taken from the end state with
    ``n_bins`` log-spaced bins, and its ``diagnostics`` hold the peak and
    final live counts, the smallest birth denominator, the largest
    conservation gap over the samples and the pruned weight.

    Raises IntegrationBlowupError if the state leaves the finite domain,
    carrying the time of the failed step, the check that tripped and
    the last recorded sample.
    """
    from .observables import Trajectory, histogram

    n_steps = settings.n_steps
    every = max(1, round(settings.sample_every / settings.dt))

    eng = _Engine(p, initial_state(p, initial_cohorts), weight_floor=settings.weight_floor)

    n_rows = n_steps // every + 1
    times = np.empty(n_rows)
    M = np.empty(n_rows)
    N = np.empty(n_rows)
    I = np.empty(n_rows)
    Vp = np.empty(n_rows)
    born = np.empty(n_rows)
    exited = np.empty(n_rows)
    largest = np.empty(n_rows)
    live = np.empty(n_rows, dtype=np.int64)

    def record(row: int):
        times[row] = eng.t
        M[row] = eng.burden()
        N[row] = eng.live_weight()
        I[row] = eng.I
        Vp[row] = eng.V[0]
        born[row] = eng.born.value
        exited[row] = eng.exited.value
        largest[row] = eng.largest_volume()
        live[row] = eng.n - 1

    record(0)
    row = 1
    dt = settings.dt
    try:
        with np.errstate(all="ignore"):
            for i in range(n_steps):
                eng.step(dt)
                eng.t = (i + 1) * dt  # pin to the exact grid against drift
                if (i + 1) % every == 0:
                    record(row)
                    row += 1
    except IntegrationBlowupError as exc:
        r = row - 1
        exc.last_sample = {
            "t": float(times[r]),
            "M": float(M[r]),
            "N": float(N[r]),
            "I": float(I[r]),
            "Vp": float(Vp[r]),
            "n_live": int(live[r]),
        }
        raise

    final = eng.to_state()
    traj = Trajectory(
        times=times[:row],
        M=M[:row],
        N=N[:row],
        I=I[:row],
        Vp=Vp[:row],
        born=born[:row],
        exited=exited[:row],
        largest_V=largest[:row],
        final_histogram=histogram(final, n_bins),
        diagnostics={
            "peak_live": eng.peak_n - 1,
            "final_live": eng.n - 1,
            "min_birth_denominator": eng.min_denom,
            "max_conservation_gap": float(np.abs(born[:row] - exited[:row] - N[:row]).max()),
            "pruned_weight": eng.pruned,
        },
    )
    return traj, final
