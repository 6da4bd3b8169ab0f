import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from metasim import (
    Cohort,
    ConfigurationError,
    IntegrationBlowupError,
    InvalidStateError,
    ModelParams,
    SolverSettings,
    SystemState,
    TumorState,
)
from metasim.engine import (
    _Engine,
    _pow23,
    birth_rate,
    inhibitor_rate,
    initial_state,
    simulate,
    step,
    total_burden,
)


def _state(p, cohorts=(), primary=None, I=0.0, t=0.0, born=None, exited=0.0):
    """State whose live cohorts are the (weight, V, K) rows of
    ``cohorts``, all born at t = 0."""
    w, V, K = np.array(cohorts, dtype=float).reshape(-1, 3).T
    return SystemState(
        t=t,
        primary=primary or TumorState(p.V0, p.K0),
        I=I,
        V=V,
        K=K,
        w=w,
        birth_t=np.zeros(w.size),
        born_count=math.fsum(w) if born is None else born,
        exited_count=exited,
        V0=p.V0,
    )


class TestInitialState:
    def test_starts_at_birth_state_with_no_inhibitor(self):
        p = ModelParams()
        s = initial_state(p)
        assert s.t == 0.0
        assert s.primary == TumorState(0.1, 0.2)
        assert s.I == 0.0
        assert s.w.size == 0
        assert s.born_count == 0.0 and s.exited_count == 0.0
        assert s.V0 == p.V0

    def test_initial_cohorts_count_as_born(self):
        p = ModelParams()
        cs = (
            Cohort(birth_time=0.0, weight=2.0, state=TumorState(0.5, 1.0)),
            Cohort(birth_time=0.0, weight=3.0, state=TumorState(0.2, 0.4)),
        )
        s = initial_state(p, cs)
        assert s.born_count == 5.0
        assert s.w.tolist() == [2.0, 3.0]
        assert s.V.tolist() == [0.5, 0.2]
        assert s.K.tolist() == [1.0, 0.4]
        assert s.birth_t.tolist() == [0.0, 0.0]

    def test_cohort_below_domain_edge_rejected(self):
        p = ModelParams()
        with pytest.raises(InvalidStateError):
            _state(p, [(1.0, 0.05, 0.4)])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidStateError):
            Cohort(birth_time=0.0, weight=-1.0, state=TumorState(0.5, 1.0))


class TestRates:
    def test_burden_weights_volumes(self):
        p = ModelParams()
        s = _state(p, [(2.0, 0.5, 1.0), (3.0, 0.2, 0.4)])
        assert total_burden(s) == pytest.approx(1.6, rel=1e-15)

    def test_inhibitor_rate_includes_primary_and_clearance(self):
        p = ModelParams(k=2.0)
        s = _state(p, [(2.0, 0.5, 1.0)], primary=TumorState(1.0, 1.0), I=0.25)
        # 1 + 2*0.5 - 2*0.25
        assert inhibitor_rate(s, p) == pytest.approx(1.5, rel=1e-15)

    def test_birth_rate_from_rest(self):
        p = ModelParams()
        assert birth_rate(initial_state(p), p) == pytest.approx(
            0.2154434690031884, rel=1e-14
        )

    def test_birth_rate_silent_below_threshold(self):
        p = ModelParams(Vm=0.5)
        s = _state(p, [(4.0, 0.3, 1.0)])
        assert birth_rate(s, p) == 0.0
        s2 = _state(p, [(4.0, 0.5, 1.0)])
        assert birth_rate(s2, p) == pytest.approx(4.0 * 0.5 ** (2.0 / 3.0), rel=1e-14)


class TestStep:
    def test_first_step_spawns_midstep_cohort(self):
        p = ModelParams()
        s1 = step(initial_state(p), p, 1e-2)
        assert s1.w.size == 1
        # frozen regression values for the base first step at dt = 1e-2
        assert s1.w[0] == pytest.approx(0.0021617433664636336, rel=1e-12)
        assert s1.birth_t[0] == pytest.approx(0.005, abs=1e-15)
        assert s1.V[0] == pytest.approx(0.10034666278753236, rel=1e-12)
        assert s1.K[0] == pytest.approx(0.20028452128747418, rel=1e-12)
        assert s1.born_count == s1.w[0]
        assert s1.primary.V == pytest.approx(0.10069350477953093, rel=1e-12)
        assert s1.I == pytest.approx(0.0009995528994514342, rel=1e-12)

    def test_first_weight_close_to_rate_times_dt(self):
        p = ModelParams()
        s0 = initial_state(p)
        s1 = step(s0, p, 1e-2)
        crude = 1e-2 * birth_rate(s0, p)
        assert s1.w[0] == pytest.approx(crude, rel=5e-3)

    def test_no_emission_no_cohorts(self):
        p = ModelParams(m=0.0)
        s = initial_state(p)
        for _ in range(50):
            s = step(s, p, 1e-2)
        assert s.w.size == 0
        assert s.born_count == 0.0

    def test_shrinking_cohort_exits_through_lower_edge(self):
        p = ModelParams(m=0.0)
        doomed = (0.5, 0.1000001, 0.001)
        s = step(_state(p, [doomed], primary=TumorState(1.0, 1.0)), p, 1e-2)
        assert s.w.size == 0
        assert s.exited_count == pytest.approx(0.5, rel=1e-15)
        assert s.born_count == pytest.approx(0.5, rel=1e-15)

    def test_cohort_at_edge_survives(self):
        p = ModelParams(m=0.0, e=0.0)
        edge = (1.0, p.V0, p.K0)
        s = step(_state(p, [edge], primary=TumorState(1.0, 1.0)), p, 1e-2)
        assert s.w.size == 1
        assert s.V[0] >= p.V0

    def test_weight_floor_books_pruned_mass_as_exited(self):
        p = ModelParams()
        s = initial_state(p)
        for _ in range(100):
            s = step(s, p, 1e-2, weight_floor=1.0)
        assert s.w.size == 0
        assert s.born_count > 0
        assert s.exited_count == pytest.approx(s.born_count, abs=1e-12)

    def test_blowup_raises_with_time(self):
        p = ModelParams(b=1e8)
        with pytest.raises(IntegrationBlowupError) as exc:
            step(initial_state(p), p, 1e-2)
        assert exc.value.t == pytest.approx(1e-2)

    def test_bad_dt_rejected(self):
        p = ModelParams()
        with pytest.raises(ConfigurationError):
            step(initial_state(p), p, 0.0)
        with pytest.raises(ConfigurationError):
            step(initial_state(p), p, math.nan)

    def test_domain_edge_mismatch_rejected(self):
        s = initial_state(ModelParams())
        with pytest.raises(InvalidStateError):
            step(s, ModelParams(V0=0.05, K0=0.2), 1e-2)

    def test_inhibitor_matches_closed_form_under_frozen_sources(self):
        # primary and one cohort pinned at the fixed point (1, 1) with
        # m = e = 0: the source stays exactly c = 1 + 2, so
        # I(t) = (c/k)(1 - exp(-k t))
        p = ModelParams(m=0.0, e=0.0, k=2.0)
        s = _state(p, [(2.0, 1.0, 1.0)], primary=TumorState(1.0, 1.0))
        for _ in range(1000):
            s = step(s, p, 1e-3)
        exact = (3.0 / 2.0) * (1.0 - math.exp(-2.0))
        assert s.I == pytest.approx(exact, rel=1e-10)
        assert s.primary == TumorState(1.0, 1.0)
        assert (s.V[0], s.K[0]) == (1.0, 1.0)


class TestPrimaryRow:
    """The primary tumor is integrated as one more row of the cohort
    arrays, exempt only from exit, pruning and the cohort observables."""

    @pytest.mark.parametrize(
        "V,K", [(0.5, 1.0), (0.3, 0.2), (2.0, 0.7), (0.123456, 0.98765)]
    )
    def test_primary_and_cohort_at_one_state_share_one_path(self, V, K):
        p = ModelParams(m=0.0, e=0.5)
        s = _state(p, [(1.0, V, K)], primary=TumorState(V, K), I=0.2)
        for i in range(2000):
            s = step(s, p, 1e-2)
            twin = (s.V[0], s.K[0])
            assert twin == (s.primary.V, s.primary.K), f"paths split at step {i + 1}"

    def test_primary_below_domain_edge_does_not_exit(self):
        p = ModelParams(m=0.0)
        s = _state(p, primary=TumorState(0.1000001, 0.001))
        for _ in range(2):
            s = step(s, p, 1e-2)
        assert s.primary.V < p.V0
        assert s.exited_count == 0.0
        assert s.born_count == 0.0

    def test_weight_floor_prunes_cohorts_but_not_the_primary(self):
        p = ModelParams()
        s0 = _state(p, [(2.0, 0.5, 1.0)], primary=TumorState(0.5, 1.0))
        s = step(s0, p, 1e-2, weight_floor=5.0)
        assert s.w.size == 0
        assert s.primary == step(s0, p, 1e-2).primary
        assert s.born_count > 2.0
        assert s.exited_count == pytest.approx(s.born_count, rel=1e-15)


class TestSystemStateArrays:
    _GOOD = {"V": [0.5, 0.2], "K": [1.0, 0.4], "w": [2.0, 3.0], "birth_t": [0.0, 1.0]}

    @staticmethod
    def _build(p, **arrays):
        return SystemState(
            t=0.0,
            primary=TumorState(p.V0, p.K0),
            I=0.0,
            born_count=5.0,
            exited_count=0.0,
            V0=p.V0,
            **arrays,
        )

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("V", [0.5, 0.05]),
            ("V", [0.5, math.inf]),
            ("K", [1.0, 0.0]),
            ("K", [1.0, -0.4]),
            ("K", [1.0, math.nan]),
            ("w", [2.0, -1.0]),
            ("w", [2.0, math.nan]),
            ("birth_t", [0.0, math.inf]),
            ("w", [2.0, 3.0, 1.0]),
            ("birth_t", [0.0]),
            ("V", [[0.5, 0.2]]),
        ],
        ids=[
            "V-below-V0",
            "V-inf",
            "K-zero",
            "K-negative",
            "K-nan",
            "w-negative",
            "w-nan",
            "birth_t-inf",
            "w-longer",
            "birth_t-shorter",
            "V-2d",
        ],
    )
    def test_bad_cohort_arrays_rejected(self, name, bad):
        p = ModelParams()
        self._build(p, **self._GOOD)
        with pytest.raises(InvalidStateError):
            self._build(p, **(self._GOOD | {name: bad}))

    def test_arrays_are_read_only_copies(self):
        p = ModelParams()
        given_arrays = {name: np.array(v) for name, v in self._GOOD.items()}
        s = self._build(p, **given_arrays)
        for name, arr in given_arrays.items():
            held = getattr(s, name)
            assert held.dtype == np.float64
            assert not np.shares_memory(held, arr)
            with pytest.raises(ValueError):
                held[0] = 1.0


class TestSimulate:
    def test_sampling_grid(self):
        p = ModelParams()
        traj, final = simulate(p, SolverSettings(dt=1e-2, t_end=2.0, sample_every=0.1))
        assert traj.times.size == 21
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert final.t == pytest.approx(2.0, abs=1e-12)

    def test_burden_regression_value(self):
        p = ModelParams()
        traj, _ = simulate(p, SolverSettings(dt=1e-2, t_end=7.0, sample_every=0.1))
        assert float(traj.M[-1]) == pytest.approx(1.1127248210955996, rel=1e-9)
        assert float(traj.N[-1]) == pytest.approx(8.447439780093095, rel=1e-9)

    def test_conservation_along_trajectory(self):
        p = ModelParams()
        traj, _ = simulate(p, SolverSettings(dt=1e-2, t_end=20.0, sample_every=0.1))
        gap = np.abs(traj.born - traj.exited - traj.N)
        assert float(gap.max()) < 1e-12

    def test_counters_monotone(self):
        p = ModelParams()
        traj, _ = simulate(p, SolverSettings(dt=1e-2, t_end=20.0, sample_every=0.1))
        assert np.all(np.diff(traj.born) >= 0)
        assert np.all(np.diff(traj.exited) >= 0)

    def test_final_state_consistent_with_trajectory(self):
        p = ModelParams()
        traj, final = simulate(p, SolverSettings(dt=1e-2, t_end=10.0, sample_every=0.1))
        assert total_burden(final) == pytest.approx(float(traj.M[-1]), rel=1e-12)
        assert final.I == pytest.approx(float(traj.I[-1]), rel=1e-12)
        assert final.born_count == pytest.approx(float(traj.born[-1]), rel=1e-12)
        bts = final.birth_t.tolist()
        assert bts == sorted(bts)
        assert all(final.V >= p.V0)
        assert all(final.K > 0)

    def test_second_order_on_smooth_window(self):
        # no cohort exits before t = 7 at base parameters, so the
        # burden is smooth there and the scheme shows its full order
        p = ModelParams()
        at = {}
        for dt in (4e-2, 2e-2, 1e-2):
            traj, _ = simulate(p, SolverSettings(dt=dt, t_end=7.0, sample_every=7.0))
            at[dt] = float(traj.M[-1])
        d1 = abs(at[4e-2] - at[2e-2])
        d2 = abs(at[2e-2] - at[1e-2])
        order = math.log2(d1 / d2)
        assert 1.9 < order < 2.4

    def test_blowup_propagates(self):
        p = ModelParams(b=1e8)
        with pytest.raises(IntegrationBlowupError):
            simulate(p, SolverSettings(dt=1e-2, t_end=1.0, sample_every=0.1))

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            SolverSettings(dt=0.0)
        with pytest.raises(ConfigurationError):
            SolverSettings(dt=0.2, sample_every=0.1)
        with pytest.raises(ConfigurationError):
            SolverSettings(weight_floor=-1.0)
        with pytest.raises(ConfigurationError):
            SolverSettings(dt=1e-9, t_end=1e12)


@st.composite
def _system_states(draw):
    p = ModelParams(
        b=draw(st.floats(0.05, 3.0)),
        e=draw(st.floats(0.0, 3.0)),
        k=draw(st.floats(0.05, 3.0)),
        m=draw(st.floats(0.0, 3.0)),
    )
    n = draw(st.integers(0, 5))
    cohorts = [
        (draw(st.floats(0.0, 10.0)), draw(st.floats(p.V0, 5.0)), draw(st.floats(0.01, 5.0)))
        for _ in range(n)
    ]
    primary = TumorState(draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0)))
    I = draw(st.floats(0.0, 5.0))
    return p, _state(p, cohorts, primary=primary, I=I)


class TestStepProperties:
    @hsettings(max_examples=60, deadline=None)
    @given(_system_states())
    def test_step_preserves_accounting_and_domain(self, case):
        p, s = case
        s1 = step(s, p, 1e-2)
        live = math.fsum(s1.w)
        assert abs(s1.born_count - s1.exited_count - live) < 1e-10
        assert s1.born_count >= s.born_count
        assert s1.exited_count >= s.exited_count
        assert s1.I >= 0.0
        assert all(s1.V >= p.V0)
        assert all(s1.K > 0)
        assert s1.t == pytest.approx(s.t + 1e-2)

    @hsettings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    def test_emission_off_means_closed_population(self, b, k):
        p = ModelParams(b=b, k=k, m=0.0)
        s = step(initial_state(p), p, 1e-2)
        assert s.w.size == 0
        assert s.born_count == 0.0


def _assert_same_state(a, b):
    for name in ("t", "primary", "I", "born_count", "exited_count", "V0"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("V", "K", "w", "birth_t"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestStateHandOff:
    @hsettings(max_examples=60, deadline=None)
    @given(_system_states())
    def test_engine_round_trip_is_exact(self, case):
        p, s = case
        _assert_same_state(_Engine(p, s).to_state(), s)

    def test_exported_state_does_not_alias_the_engine(self):
        p = ModelParams()
        eng = _Engine(p, step(step(initial_state(p), p, 1e-2), p, 1e-2))
        out = eng.to_state()
        before = {name: getattr(out, name).copy() for name in ("V", "K", "w", "birth_t")}
        for name in before:
            with pytest.raises(ValueError):
                getattr(out, name)[0] = 1.0
        eng.step(1e-2)
        assert not np.array_equal(eng.V[1:3], before["V"])  # the engine moved on
        for name, arr in before.items():
            assert np.array_equal(getattr(out, name), arr)


def _pow23_of(V):
    return _pow23(V, np.empty_like(V))


class TestCarriedPower:
    """The engine carries P = V^(2/3) per row across steps; it must
    equal the helper applied to V after every step, whatever moved."""

    def test_helper_matches_pow(self):
        rng = np.random.default_rng(7)
        V = np.exp(rng.uniform(math.log(1e-6), math.log(10.0), 10_000))
        exact = np.power(V, 2.0 / 3.0)
        assert np.max(np.abs(_pow23_of(V) - exact) / exact) <= 1e-15
        edges = np.array([0.0, 1.0])
        assert np.array_equal(_pow23_of(edges), edges)

    @staticmethod
    def _run(seed, n0, n_edge, n_light, weight_floor, dts):
        """Step an engine of n0 cohorts, n_edge of them with K < V just
        above V0 (they exit through it) and n_light below the floor,
        checking P after every step."""
        p = ModelParams()
        rng = np.random.default_rng(seed)
        V = np.exp(rng.uniform(math.log(p.V0), math.log(3.0), n0))
        K = np.exp(rng.uniform(math.log(0.5), math.log(3.0), n0))
        w = rng.uniform(1e-3, 1e-2, n0)
        edge = rng.choice(n0, size=min(n_edge + n_light, n0), replace=False)
        edge, light = edge[:n_edge], edge[n_edge:]
        V[edge] = p.V0 * rng.uniform(1.0, 1.002, edge.size)
        K[edge] = 0.9 * V[edge]
        w[light] = rng.uniform(0.0, weight_floor, light.size)
        s = SystemState(
            t=0.0, primary=TumorState(p.V0, p.K0), I=0.0, V=V, K=K, w=w,
            birth_t=np.zeros(n0), born_count=math.fsum(w), exited_count=0.0, V0=p.V0,
        )
        eng = _Engine(p, s, weight_floor=weight_floor)
        assert np.array_equal(eng.P[: eng.n], _pow23_of(eng.V[: eng.n]))
        for i, dt in enumerate(dts):
            with np.errstate(all="ignore"):
                eng.step(dt)
            n = eng.n
            assert np.array_equal(eng.P[:n], _pow23_of(eng.V[:n])), f"stale P after step {i + 1}"
        return eng

    @hsettings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.sampled_from([0, 5, 300, 4094]),
        n_edge=st.integers(0, 3),
        n_light=st.integers(0, 3),
        weight_floor=st.sampled_from([0.0, 1e-3]),
        dts=st.lists(st.sampled_from([1e-2, 5e-2]), min_size=1, max_size=12),
    )
    def test_carried_power_stays_exact(self, seed, n0, n_edge, n_light, weight_floor, dts):
        self._run(seed, n0, n_edge, n_light, weight_floor, dts)

    def test_carried_power_through_every_row_event(self):
        # one sequence that is known to see a birth, an exit through V0,
        # pruning and a growth past 4096 rows
        eng = self._run(1, 4094, 2, 2, 1e-3, [1e-2] * 10)
        assert eng.V.size > 4096
        assert eng.pruned > 0.0
        assert eng.exited.value > eng.pruned  # exits through V0 as well
        assert eng.n == 1 + 4094 + 10 - 4  # ten births kept, four rows dropped
