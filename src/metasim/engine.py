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

One engine integrates S >= 1 parameter sets at once (``simulate_ensemble``;
``simulate`` is S = 1): a step's NumPy calls run once over the rows of
every member, and each member's numbers are those of its solo run.

Every run starts from one ``SystemState``: by default ``initial_state``,
the one place a scenario's ``Cohort`` records become a state, or any
state on the run's dt grid, such as an earlier run's final state. The
run counts its steps from that state's step index, so a run continued
from where another stopped takes the steps the single run would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .errors import ConfigurationError, IntegrationBlowupError, InvalidStateError
from .model import ModelParams, TumorState, _rk4_step, emission_rate, is_finite

__all__ = [
    "Cohort",
    "SystemState",
    "SolverSettings",
    "Trajectory",
    "total_burden",
    "inhibitor_rate",
    "birth_rate",
    "step",
    "simulate",
    "simulate_ensemble",
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
        if not (is_finite(self.weight) and self.weight >= 0):
            raise InvalidStateError(f"cohort weight must be finite and >= 0, got {self.weight!r}")
        if not is_finite(self.birth_time):
            raise InvalidStateError(f"cohort birth_time must be finite, got {self.birth_time!r}")


# What ensemble members share besides the settings and start state.
shared_params = attrgetter("V0", "K0", "Vm", "alpha")
_COHORT_ARRAYS = ("V", "K", "w", "birth_t")
_TWO_THIRDS = 2.0 / 3.0
# OpenBLAS 0.3.31 (Haswell kernel) splits a dot of more than 10 000 terms
# over its threads, which changes its rounding; a weighted sum adds dots of
# at most this many. The split point is a kernel detail, not a documented
# limit, so the block sits below it to leave headroom for other OpenBLAS
# builds; rows between the two take two dots where one would do.
_DOT_BLOCK = 8192


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
        if not (is_finite(self.I) and self.I >= 0):
            raise InvalidStateError(f"inhibitor amount must be finite and >= 0, got {self.I!r}")
        if not all(is_finite(x) and x >= 0 for x in (self.born_count, self.exited_count)):
            raise InvalidStateError(
                f"born_count and exited_count must be finite and >= 0, got "
                f"{self.born_count!r} and {self.exited_count!r}"
            )
        if not is_finite(self.t):
            raise InvalidStateError(f"time must be finite, got {self.t!r}")
        if not (is_finite(self.V0) and self.V0 > 0):
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
            raise InvalidStateError(f"cohort weights must be >= 0, got {float(self.w.min())!r}")
        if (self.K <= 0).any():
            raise InvalidStateError(f"cohort K must be > 0, got {float(self.K.min())!r}")
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
        for f in fields(self):
            if not is_finite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must be finite")
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


class _Member:
    """One parameter set of an engine and the scalars of its run: the
    inhibitor ``I``, the compensated born and exited weights, its row
    count ``n`` (primary included), and the diagnostics ``simulate``
    reports: the peak row count, the smallest birth denominator and the
    weight pruned by the floor. ``index`` is its position in ``params``,
    its row of the samples and slot of the output; a step sets
    ``newborn``, its column of ``rows`` or None, or ``error``, the blowup
    that ends it."""

    __slots__ = ("p", "I", "born", "exited", "n", "peak_n", "min_denom", "pruned",
                 "index", "error", "newborn")

    def __init__(self, p: ModelParams, state: SystemState, index: int):
        self.p, self.index = p, index
        self.error = self.newborn = None
        self.I = state.I
        self.born = _Accumulator(state.born_count)
        self.exited = _Accumulator(state.exited_count)
        self.n = self.peak_n = state.w.size + 1
        self.min_denom = math.inf
        self.pruned = 0.0

    def give_birth(self, t: float, dt: float, I0: float, B: float) -> tuple | None:
        """The newborn of the step from ``t`` to ``t + dt``: its column of
        ``_Engine.rows``, or None for a zero weight. ``I0`` is the
        inhibitor at the step's start and ``self.I`` at its end, ``B``
        the population emission rates at both ends added.

        Birth is the trapezoid of the emission rate over the step. Three
        first-order leaks are closed to keep the global order at two: the
        newborn enters advanced to mid-step age (no dt/2 age lag); the
        trapezoid's right endpoint includes the newborn's own emission
        (implicit in w, solved in closed form); and the inhibitor records
        the newborn's in-step production, which the stages cannot see.
        The newborn's half step freezes the inhibitor at its step
        midpoint; the O(h^2) error this leaves in its state is weighted
        by an O(h) cohort mass, so the order is unaffected.
        """
        p = self.p
        h2 = 0.5 * dt
        t_new = t + dt
        try:
            Vn, Kn = _rk4_step(p.V0, p.K0, p.b, p.e * (0.5 * (I0 + self.I)), h2)
            beta_n = emission_rate(Vn, p)
        except (ValueError, OverflowError, ZeroDivisionError, InvalidStateError) as exc:
            raise IntegrationBlowupError(
                t_new,
                f"the newborn's half step failed at t={t_new:g}: {exc}",
                reason="newborn-step",
            ) from exc
        denom = 1.0 - h2 * beta_n
        if denom < self.min_denom:
            self.min_denom = denom
        if denom <= 0.5:
            raise IntegrationBlowupError(
                t_new,
                f"dt too large for the birth term at t={t_new:g}",
                reason="birth-term-limit",
            )
        w_new = h2 * B / denom
        if w_new <= 0.0:
            return None
        self.born.add(w_new)
        self.I += h2 * w_new * p.V0
        return _column(p, Vn, Kn, w_new, t + h2)

    def book_exit(self, w: float, V: float):
        """Book a removed row of weight ``w`` as exited, and as pruned too
        if it is still inside the domain (below the weight floor)."""
        self.exited.add(w)
        if V >= self.p.V0:
            self.pruned += w


class _Engine:
    """Mutable struct-of-arrays working state of S >= 1 simulations.

    The members share the time grid, the weight floor, the domain edge
    V0 and the emission law (Vm, alpha), and may differ in b, e, k and
    m. Each member's rows form one segment of the state, the segments
    back to back in ``members`` order: its primary tumor with weight 1,
    then its live cohorts in birth order. Every row enters its member's
    field, emission sum and inhibitor production alike; only cohort rows
    exit, get pruned, or count toward M, N and the exported state.

    The elementwise work of a step runs once over all rows, with b and
    e·I as per-row arrays when S > 1. Every weighted sum is a ``_dot``
    (one BLAS dot up to ``_DOT_BLOCK`` rows) of a member's segment of w,
    sliced once per step, with the same segment of another row: the call
    a one-member engine makes on the same values, so each member's
    numbers are those of its solo run bit for bit. The members' b, e, k
    and m are built once per member set (``_set_members``). A step adds
    each member's newborn at the end of its segment, and one removal
    pass drops every cohort row (the newborns included) that left the
    domain or lies below the weight floor (see ``_remove``). A member
    fails a step when its rows or inhibitor go non-finite, its
    inhibitor goes negative, its primary's V or any of its rows' K
    leaves (0, inf), it reaches the birth-term limit or its newborn's
    step fails; it then moves from ``members`` to ``failed``
    (which the caller clears) with its ``IntegrationBlowupError`` as its
    ``error``, and the others go on.

    ``rows`` (6 x capacity) holds V, K, w, birth_t, ``P`` = V^(2/3)
    and ``beta``, the emission rate per unit m (see
    ``_emission_weights``); P and beta are set wherever V is, so a step
    computes each once, and the attributes of those names are views of
    the rows. ``_scratch`` (11 x capacity) holds the stage buffers and,
    at S > 1, ``_spare`` the block the removal pass copies into, so the
    hot loop allocates little; the capacity doubles on demand, and
    ``_resize`` alone allocates them. The stages run on 1-D rows, which
    measured faster than 2-D views.

    Callers enter ``np.errstate(all="ignore")`` around ``step``: a
    diverging stage state leaves inf or nan in its rows, which the check
    after the update reports as a blowup.
    """

    rows = np.empty((6, 0))  # no rows until the first _resize

    def __init__(self, params, state: SystemState, weight_floor: float = 0.0):
        """``params`` is one ``ModelParams`` or a sequence of them; every
        member starts from ``state``, which must be built for their V0."""
        if isinstance(params, ModelParams):
            params = (params,)
        for p in params:
            if state.V0 != p.V0:
                raise InvalidStateError(
                    f"state was built for V0={state.V0}, parameters have V0={p.V0}"
                )
        self._set_members([_Member(p, state, j) for j, p in enumerate(params)])
        self.failed: list[_Member] = []
        self.weight_floor = weight_floor
        self.t = state.t
        n0 = state.w.size + 1
        n = n0 * len(self.members)
        self._resize(max(4096, 1 << n.bit_length()))
        for a in range(0, n, n0):
            self.rows[:4, a] = state.primary.V, state.primary.K, 1.0, 0.0
            self.rows[:4, a + 1 : a + n0] = state.V, state.K, state.w, state.birth_t
        _pow23(self.V[:n], self.P[:n])
        _emission_weights(params[0], self.V[:n], self.P[:n], self.beta[:n])
        self.n = n
        self._eI = np.empty(())
        self._dt = None

    def _set_members(self, members: list):
        """Make ``members`` the engine's members, with their b, e, k and
        m as a step reads them: floats for one member (b a 0-d array, the
        cheaper ufunc operand), arrays over the members for several."""
        self.members = members
        if len(members) == 1:
            p = members[0].p
            self._bekm = (np.array(p.b), p.e, p.k, p.m)
        else:
            self._bekm = tuple(np.array([getattr(m.p, f) for m in members]) for f in "bekm")

    # -- storage -----------------------------------------------------

    def _resize(self, cap: int):
        """Allocate the blocks at capacity ``cap``, copy the present rows
        over and rebind the row views."""
        rows = np.empty((6, cap))
        rows[:, : self.rows.shape[1]] = self.rows
        self._bind(rows)
        self._spare = np.empty((6, cap)) if len(self.members) > 1 else None
        self._scratch = np.empty((11, cap))

    def _bind(self, rows: np.ndarray):
        self.rows = rows
        self.V, self.K, self.w, self.birth_t, self.P, self.beta = rows

    def spans(self) -> list[tuple[int, int]]:
        """Row range ``(start, end)`` of each member, in member order."""
        out, a = [], 0
        for m in self.members:
            out.append((a, a + m.n))
            a += m.n
        return out

    # -- one step ----------------------------------------------------

    def step(self, dt: float):
        ms = self.members
        n = self.n
        spans = self.spans()
        if dt != self._dt:
            self._dt = dt
            self._consts = tuple(map(np.array, (0.5 * dt, dt, dt / 6.0, 2.0)))
        h2, dt_, s6, two = self._consts
        h2f, s6f = 0.5 * dt, dt / 6.0
        V, K, w, _, P, beta = self.rows[:, :n]
        *k4, Vs, Ks, tmp = self._scratch[:, :n]
        kV, kK = k4[0::2], k4[1::2]  # each stage's slopes, one row each
        b, e, k, mm = self._bekm

        # A member's scalars (I, dI, B, and e, k, m) are floats at S = 1
        # and arrays over the members at S > 1, so one set of formulas
        # serves both; only these helpers differ. ``sums(y)`` is each
        # member's w . y.
        if len(ms) == 1:
            I0 = ms[0].I
            eI = self._eI

            def per_row(x):
                eI[()] = x
                return eI

            def sums(y):
                return _dot(w, y)

            def each(x):
                return (x,)
        else:
            counts = np.array([m.n for m in ms])
            b = b.repeat(counts)
            I0 = np.array([m.I for m in ms])
            segs = [(w[a:z], a, z) for a, z in spans]

            def per_row(x):
                return x.repeat(counts)

            def sums(y):
                return np.array([_dot(x, y[a:z]) for x, a, z in segs])

            def each(x):
                return x.tolist()

        def stage(Vc, Kc, Pc, Ic, outV, outK):
            """Field of every row at one stage state, with Pc = Vc^(2/3)
            (may be outK itself); returns dI."""
            np.divide(Kc, Vc, outV)
            np.log(outV, outV)
            np.multiply(outV, Vc, outV)
            np.multiply(Pc, Kc, outK)
            np.subtract(Vc, outK, outK)
            np.multiply(outK, b, outK)
            np.multiply(Kc, per_row(e * Ic), tmp)
            np.subtract(outK, tmp, outK)
            return sums(Vc) - k * Ic

        t_new = self.t + dt
        B0 = mm * sums(beta)
        dI = [stage(V, K, P, I0, kV[0], kK[0])]
        # stage i + 1 sits at c = h/2, h/2, h along stage i's slope; c is
        # a 0-d array for the ufuncs and a float for the inhibitor
        for i, (c, cf) in enumerate(((h2, h2f), (h2, h2f), (dt_, dt))):
            np.multiply(kV[i], c, Vs)
            np.add(Vs, V, Vs)
            np.multiply(kK[i], c, Ks)
            np.add(Ks, K, Ks)
            dI.append(stage(Vs, Ks, _pow23(Vs, kK[i + 1]), I0 + cf * dI[i], kV[i + 1], kK[i + 1]))

        for (kX1, kX2, kX3, kX4), X in ((kV, V), (kK, K)):
            np.add(kX2, kX3, kX2)
            np.multiply(kX2, two, kX2)
            np.add(kX2, kX1, kX2)
            np.add(kX2, kX4, kX2)
            np.multiply(kX2, s6, kX2)
            np.add(X, kX2, X)
        I_new = I0 + s6f * (dI[0] + 2.0 * (dI[1] + dI[2]) + dI[3])

        all_finite = _rows_finite(V, K)
        all_K_positive = K.min() > 0.0
        _pow23(V, P)
        _emission_weights(ms[0].p, V, P, beta)  # V0, Vm and alpha are shared
        B = B0 + mm * sums(beta)

        for m, (a, z), I, I1, Bj in zip(ms, spans, each(I0), each(I_new), each(B)):
            m.I = I1
            try:
                if not (math.isfinite(I1) and (all_finite or _rows_finite(V[a:z], K[a:z]))):
                    raise IntegrationBlowupError(t_new, reason="non-finite-state")
                if not (I1 >= 0.0 and V[a] > 0.0 and (all_K_positive or K[a:z].min() > 0.0)):
                    raise IntegrationBlowupError(
                        t_new, f"state outside the domain at t={t_new:g}", reason="non-finite-state"
                    )
                m.newborn = m.give_birth(self.t, dt, I, Bj)
            except IntegrationBlowupError as exc:
                m.error, m.newborn = exc, None
                self.failed.append(m)

        self._remove(spans)
        self.t = t_new

    def _remove(self, spans: list):
        """The removal pass: each live member's kept rows, then its
        ``newborn`` if kept, copied block by block into the new layout.
        Dropped rows are booked by their member in row order, newborn
        last; a member with an ``error`` has its rows dropped unbooked,
        and leaves. At S = 1 the rows only move down, so they move in
        place; at S > 1 a newborn pushes the next member's rows up, so the
        rows go to the spare block, which then becomes ``rows``."""
        ms = self.members
        V0, floor = ms[0].p.V0, self.weight_floor
        births = len(ms) - [m.newborn for m in ms].count(None)
        if self.n + births > self.V.size:
            self._resize(2 * (self.n + births))
        n = self.n
        drop = self.V[:n] < V0
        if floor > 0.0:
            drop |= self.w[:n] < floor
        for a, _ in spans:
            drop[a] = False  # the primaries stay
        gone = drop.nonzero()[0]
        ws, Vs = self.w[gone].tolist(), self.V[gone].tolist()
        gone = gone.tolist()
        gone.append(n)  # past every segment: the walks below stop on it
        src = self.rows
        dst = src if len(ms) == 1 else self._spare
        at = g = 0
        for m, (a, z) in zip(ms, spans):
            if m.error is not None:
                while gone[g] < z:
                    g += 1
                continue
            start, cut = at, a
            while True:
                x = min(gone[g], z)  # the next dropped row, or the end
                if dst is not src or at != cut:
                    dst[:, at : at + x - cut] = src[:, cut:x]
                at += x - cut
                if x == z:
                    break
                m.book_exit(ws[g], Vs[g])
                cut = x + 1
                g += 1
            nb = m.newborn
            if nb is not None:
                if nb[0] < V0 or nb[2] < floor:
                    m.book_exit(nb[2], nb[0])
                else:
                    dst[:, at] = nb
                    at += 1
            m.n = at - start
            if m.n > m.peak_n:
                m.peak_n = m.n
        if dst is not src:
            self._bind(dst)
            self._spare = src
        self.n = at
        if self.failed:
            self._set_members([m for m in ms if m.error is None])

    # -- observation: cohort rows only -------------------------------

    def sample_row(self, j: int = 0) -> tuple:
        """One row of ``simulate``'s sample buffer for member ``j``: t,
        M, N, I, Vp, born, exited, largest_V (NaN with no cohort) and
        n_live. N is NumPy's pairwise sum, within a few ulps of the
        exactly rounded one."""
        m = self.members[j]
        a, z = self.spans()[j]
        V, w = self.V[a + 1 : z], self.w[a + 1 : z]
        largest = float(V.max()) if V.size else math.nan
        return (self.t, _dot(w, V), float(w.sum()), m.I, self.V[a],
                m.born.value, m.exited.value, largest, m.n - 1)

    def to_state(self, j: int = 0) -> SystemState:
        """The state of member ``j``."""
        m = self.members[j]
        a, z = self.spans()[j]
        return SystemState(
            t=self.t,
            primary=TumorState(V=float(self.V[a]), K=float(self.K[a])),
            I=m.I,
            V=self.V[a + 1 : z],
            K=self.K[a + 1 : z],
            w=self.w[a + 1 : z],
            birth_t=self.birth_t[a + 1 : z],
            born_count=m.born.value,
            exited_count=m.exited.value,
            V0=m.p.V0,
        )


def _pow23(V: np.ndarray, out: np.ndarray) -> np.ndarray:
    """V^(2/3) into ``out`` as cbrt(V)²: about half the cost of
    ``np.power`` and within 1e-15 relative of it, exact at 0 and 1."""
    np.cbrt(V, out)
    np.multiply(out, out, out)
    return out


def _emission_weights(p: ModelParams, V: np.ndarray, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-tumor emission rate beta(V) / m of every row, into ``out``.

    ``P`` = V^(2/3) for the default alpha, a ``np.power`` for any other,
    zeroed below the threshold Vm. The population emission rate of a set
    of rows is m * sum(w * beta), one ``_dot``.
    """
    if p.alpha == _TWO_THIRDS:
        np.copyto(out, P)
    else:
        np.power(V, p.alpha, out)
    np.copyto(out, 0.0, where=V < p.Vm)
    return out


def _column(p: ModelParams, V: float, K: float, w: float, birth_t: float) -> tuple:
    """One tumor's column of ``_Engine.rows``: its P and beta are the
    values ``_pow23`` and ``_emission_weights`` give for it in an array,
    from the same NumPy functions."""
    c = np.cbrt(V)
    P = c * c
    if V < p.Vm:
        beta = 0.0
    else:
        beta = P if p.alpha == _TWO_THIRDS else np.power(V, p.alpha)
    return V, K, w, birth_t, P, beta


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y as BLAS dots of at most ``_DOT_BLOCK`` terms added in order,
    so its bits do not depend on the OpenBLAS thread count; rows that fit
    one block take one dot."""
    if x.size <= _DOT_BLOCK:
        return float(x.dot(y))
    total = 0.0
    for a in range(0, x.size, _DOT_BLOCK):
        total += float(x[a : a + _DOT_BLOCK].dot(y[a : a + _DOT_BLOCK]))
    return total


def _rows_finite(V: np.ndarray, K: np.ndarray) -> bool:
    """Whether every entry of V and K is finite, in one ``_dot``: a nan or
    inf in any row makes V . K non-finite. So can an overflow of finite
    rows, so a non-finite dot takes the exact elementwise test. The dot
    may overflow: callers run it under ``np.errstate``, as a step does."""
    return math.isfinite(_dot(V, K)) or bool(np.isfinite(V).all() and np.isfinite(K).all())


def initial_state(p: ModelParams, initial_cohorts: tuple[Cohort, ...] = ()) -> SystemState:
    """System at t = 0: primary at the birth state, no inhibitor.

    ``born_count`` starts at the total initial weight so the
    conservation identity holds from the first sample.
    """
    try:
        born = math.fsum(c.weight for c in initial_cohorts)
    except OverflowError as exc:
        raise InvalidStateError("the total initial cohort weight overflows") from exc
    return SystemState(
        t=0.0,
        primary=TumorState(V=p.V0, K=p.K0),
        I=0.0,
        V=[c.state.V for c in initial_cohorts],
        K=[c.state.K for c in initial_cohorts],
        w=[c.weight for c in initial_cohorts],
        birth_t=[c.birth_time for c in initial_cohorts],
        born_count=born,
        exited_count=0.0,
        V0=p.V0,
    )


def total_burden(s: SystemState) -> float:
    """Total metastatic volume M: sum of weight * V over live cohorts.

    The primary tumor is excluded; it is tracked separately.
    """
    return _dot(s.w, s.V)


def _all_rows(s: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Volumes and weights of the primary (weight 1) and every cohort."""
    return np.append(s.primary.V, s.V), np.append(1.0, s.w)


def inhibitor_rate(s: SystemState, p: ModelParams) -> float:
    """Rate of change of the inhibitor amount: production by the whole
    tumor bulk (primary plus metastases) minus first-order clearance."""
    V, w = _all_rows(s)
    return _dot(w, V) - p.k * s.I


def birth_rate(s: SystemState, p: ModelParams) -> float:
    """Population emission rate: new metastases shed per unit time by
    the primary and every live cohort together."""
    V, w = _all_rows(s)
    return p.m * _dot(w, _emission_weights(p, V, _pow23(V, np.empty_like(V)), np.empty_like(V)))


def step(s: SystemState, p: ModelParams, dt: float, weight_floor: float = 0.0) -> SystemState:
    """One fixed step of the full coupled system; returns a new state.

    Advances primary, cohorts, and inhibitor together with the classical
    4th-order scheme (stage-consistent inhibitor), spawns at most one
    cohort carrying the trapezoid birth weight, removes cohorts that
    left the domain through V = V0, and prunes weights below
    ``weight_floor``, booking all removed weight as exited.

    The new state's time is ``s.t + dt``, not pinned to a grid as
    ``simulate`` pins step i to ``i * dt``: a loop of n calls sums n
    rounded increments and can end ulps off ``n * dt`` (1 000 steps of
    0.01 from t = 0 end at 9.999999999999831). Each call builds an engine
    from the state, so to go on for many steps from a state, pass it to
    ``simulate``, which also samples the run.
    """
    if not (is_finite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be finite and > 0, got {dt!r}")
    if not (is_finite(weight_floor) and weight_floor >= 0):
        raise ConfigurationError(f"weight_floor must be finite and >= 0, got {weight_floor!r}")
    eng = _Engine(p, s, weight_floor=weight_floor)
    with np.errstate(all="ignore"):
        eng.step(dt)
    if eng.failed:
        raise eng.failed[0].error
    return eng.to_state()


def _steps_per_sample(settings: SolverSettings) -> int:
    """Steps between two samples: ``sample_every`` in whole steps, >= 1."""
    return max(1, round(settings.sample_every / settings.dt))


@dataclass(frozen=True)
class Trajectory:
    """Sampled macroscopic series of one simulation.

    Beyond the core series (M, N, I, Vp), carries the cumulative birth
    and exit counters and the largest live volume per sample, which the
    output files and the homeostasis diagnostics need; ``largest_V`` is
    NaN at samples with no live cohort. ``diagnostics`` holds the run's
    scalar health figures, which ``simulate`` fills in (see README,
    "Run artifacts").
    """

    times: np.ndarray
    M: np.ndarray
    N: np.ndarray
    I: np.ndarray
    Vp: np.ndarray
    born: np.ndarray
    exited: np.ndarray
    largest_V: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        n = np.size(self.times)
        for name in (f.name for f in fields(self) if f.name != "diagnostics"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size != n:
                raise ConfigurationError(f"series {name} length differs from times")
            object.__setattr__(self, name, arr)
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("times must be strictly increasing")
        if np.any(self.M < 0) or np.any(self.N < 0):
            raise ConfigurationError("M and N must be nonnegative")


def _start_index(state: SystemState, settings: SolverSettings) -> int:
    """Step index i0 = round(t / dt) of a run's start state, refused
    unless it lies on the dt grid, before t_end and within the step-count
    cap of it."""
    t, dt, t_end = state.t, settings.dt, settings.t_end
    if not t < t_end:
        raise ConfigurationError(f"the start state's t={t!r} is not before t_end={t_end!r}")
    if (t_end - t) / dt > _MAX_STEPS:
        raise ConfigurationError(
            f"the start state's t={t!r} is over {_MAX_STEPS} steps before t_end"
        )
    i0 = round(t / dt)
    if not math.isclose(i0 * dt, t, rel_tol=1e-9):
        raise ConfigurationError(f"the start state's t={t!r} is not on the dt={dt!r} grid")
    return i0


def simulate(
    p: ModelParams,
    settings: SolverSettings,
    state: SystemState | None = None,
) -> tuple[Trajectory, SystemState]:
    """Run from ``state`` (by default ``initial_state(p)``) to t_end,
    sampling the macroscopic series on the way.

    The start state lies on the dt grid at step i0 = round(t / dt), and
    the run's i-th step ends at exactly (i0 + i) * dt. Returns
    (trajectory, final_state). The first sample is the start state, the
    others fall every ``settings.sample_every`` (in whole steps) counted
    from t = 0, as rows of one buffer whose columns become the series.
    ``diagnostics`` holds the peak and final live counts, the smallest
    birth denominator, the largest conservation gap over the samples and
    the pruned weight. This is the one-member ``simulate_ensemble``.

    Raises ConfigurationError for a start state off the grid or not
    before t_end, InvalidStateError for one built for another V0, and
    IntegrationBlowupError if the state leaves the finite domain,
    carrying the time of the failed step, the check that tripped and the
    last recorded sample.
    """
    (out,) = simulate_ensemble((p,), settings, state)
    if isinstance(out, IntegrationBlowupError):
        raise out
    return out


def simulate_ensemble(
    params,
    settings: SolverSettings,
    state: SystemState | None = None,
) -> list:
    """``simulate`` of several parameter sets at once, as one engine.

    ``params`` is a non-empty sequence of ``ModelParams`` that share V0,
    K0, Vm and alpha; they may differ in b, e, k and m. Every member
    starts from ``state`` (by default ``initial_state(params[0])``) and
    runs on ``settings``. Returns, in ``params`` order, each member's
    ``(trajectory, final_state)`` or the ``IntegrationBlowupError`` (with
    ``last_sample``) that ended it; a member that fails leaves the
    ensemble and the others go on. Each member's numbers are those of its
    own ``simulate`` bit for bit. Raises ConfigurationError if there are
    no members or they do not share the birth state and emission law, and
    refuses the start state as ``simulate`` does; any other error belongs
    to no one member and propagates.
    """
    params = tuple(params)
    if not params:
        raise ConfigurationError("an ensemble needs at least one member")
    if len(set(map(shared_params, params))) != 1:
        raise ConfigurationError("an ensemble needs members that share V0, K0, Vm and alpha")
    if state is None:
        state = initial_state(params[0])
    n_steps = settings.n_steps
    every = _steps_per_sample(settings)
    i0 = _start_index(state, settings)

    eng = _Engine(params, state, settings.weight_floor)
    out: list = [None] * len(params)

    samples = np.empty((len(params), n_steps // every - i0 // every + 1, 9))
    for j in range(len(params)):
        samples[j, 0] = eng.sample_row(j)
    row = 1
    dt = settings.dt
    with np.errstate(all="ignore"):
        for i in range(i0, n_steps):
            eng.step(dt)
            eng.t = (i + 1) * dt  # pin to the exact grid against drift
            if eng.failed:
                for m in eng.failed:
                    t, M, N, I, Vp, *_, n_live = samples[m.index, row - 1].tolist()
                    last = {"t": t, "M": M, "N": N, "I": I, "Vp": Vp, "n_live": int(n_live)}
                    m.error.last_sample = last
                    out[m.index] = m.error
                eng.failed.clear()
                if not eng.members:
                    break
            if (i + 1) % every == 0:
                for j, m in enumerate(eng.members):
                    samples[m.index, row] = eng.sample_row(j)
                row += 1

    for j, m in enumerate(eng.members):
        times, M, N, I, Vp, born, exited, largest, _ = samples[m.index, :row].T.copy()
        traj = Trajectory(
            times, M, N, I, Vp, born, exited, largest,
            diagnostics={
                "peak_live": m.peak_n - 1,
                "final_live": m.n - 1,
                "min_birth_denominator": m.min_denom,
                "max_conservation_gap": float(np.abs(born - exited - N).max()),
                "pruned_weight": m.pruned,
            },
        )
        out[m.index] = (traj, eng.to_state(j))
    return out
