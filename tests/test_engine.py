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
    birth_rate,
    inhibitor_rate,
    initial_state,
    simulate,
    step,
    total_burden,
)


def _state(p, cohorts=(), primary=None, I=0.0, t=0.0, born=None, exited=0.0):
    born0 = math.fsum(c.weight for c in cohorts) if born is None else born
    return SystemState(
        t=t,
        primary=primary or TumorState(p.V0, p.K0),
        I=I,
        cohorts=tuple(cohorts),
        born_count=born0,
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
        assert s.cohorts == ()
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
        assert s.cohorts == cs

    def test_cohort_below_domain_edge_rejected(self):
        p = ModelParams()
        with pytest.raises(InvalidStateError):
            _state(p, [Cohort(birth_time=0.0, weight=1.0, state=TumorState(0.05, 0.4))])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidStateError):
            Cohort(birth_time=0.0, weight=-1.0, state=TumorState(0.5, 1.0))


class TestRates:
    def test_burden_weights_volumes(self):
        p = ModelParams()
        s = _state(
            p,
            [
                Cohort(birth_time=0.0, weight=2.0, state=TumorState(0.5, 1.0)),
                Cohort(birth_time=0.0, weight=3.0, state=TumorState(0.2, 0.4)),
            ],
        )
        assert total_burden(s) == pytest.approx(1.6, rel=1e-15)

    def test_inhibitor_rate_includes_primary_and_clearance(self):
        p = ModelParams(k=2.0)
        s = _state(
            p,
            [Cohort(birth_time=0.0, weight=2.0, state=TumorState(0.5, 1.0))],
            primary=TumorState(1.0, 1.0),
            I=0.25,
        )
        # 1 + 2*0.5 - 2*0.25
        assert inhibitor_rate(s, p) == pytest.approx(1.5, rel=1e-15)

    def test_birth_rate_from_rest(self):
        p = ModelParams()
        assert birth_rate(initial_state(p), p) == pytest.approx(
            0.2154434690031884, rel=1e-14
        )

    def test_birth_rate_silent_below_threshold(self):
        p = ModelParams(Vm=0.5)
        s = _state(p, [Cohort(birth_time=0.0, weight=4.0, state=TumorState(0.3, 1.0))])
        assert birth_rate(s, p) == 0.0
        s2 = _state(p, [Cohort(birth_time=0.0, weight=4.0, state=TumorState(0.5, 1.0))])
        assert birth_rate(s2, p) == pytest.approx(4.0 * 0.5 ** (2.0 / 3.0), rel=1e-14)


class TestStep:
    def test_first_step_spawns_midstep_cohort(self):
        p = ModelParams()
        s1 = step(initial_state(p), p, 1e-2)
        assert len(s1.cohorts) == 1
        c = s1.cohorts[0]
        # frozen regression values for the base first step at dt = 1e-2
        assert c.weight == pytest.approx(0.0021617433664636336, rel=1e-12)
        assert c.birth_time == pytest.approx(0.005, abs=1e-15)
        assert c.state.V == pytest.approx(0.10034666278753236, rel=1e-12)
        assert c.state.K == pytest.approx(0.20028452128747418, rel=1e-12)
        assert s1.born_count == c.weight
        assert s1.primary.V == pytest.approx(0.10069350477953093, rel=1e-12)
        assert s1.I == pytest.approx(0.0009995528994514342, rel=1e-12)

    def test_first_weight_close_to_rate_times_dt(self):
        p = ModelParams()
        s0 = initial_state(p)
        s1 = step(s0, p, 1e-2)
        crude = 1e-2 * birth_rate(s0, p)
        assert s1.cohorts[0].weight == pytest.approx(crude, rel=5e-3)

    def test_no_emission_no_cohorts(self):
        p = ModelParams(m=0.0)
        s = initial_state(p)
        for _ in range(50):
            s = step(s, p, 1e-2)
        assert s.cohorts == ()
        assert s.born_count == 0.0

    def test_shrinking_cohort_exits_through_lower_edge(self):
        p = ModelParams(m=0.0)
        doomed = Cohort(birth_time=0.0, weight=0.5, state=TumorState(0.1000001, 0.001))
        s = step(_state(p, [doomed], primary=TumorState(1.0, 1.0)), p, 1e-2)
        assert s.cohorts == ()
        assert s.exited_count == pytest.approx(0.5, rel=1e-15)
        assert s.born_count == pytest.approx(0.5, rel=1e-15)

    def test_cohort_at_edge_survives(self):
        p = ModelParams(m=0.0, e=0.0)
        edge = Cohort(birth_time=0.0, weight=1.0, state=TumorState(p.V0, p.K0))
        s = step(_state(p, [edge], primary=TumorState(1.0, 1.0)), p, 1e-2)
        assert len(s.cohorts) == 1
        assert s.cohorts[0].state.V >= p.V0

    def test_weight_floor_books_pruned_mass_as_exited(self):
        p = ModelParams()
        s = initial_state(p)
        for _ in range(100):
            s = step(s, p, 1e-2, weight_floor=1.0)
        assert s.cohorts == ()
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
        s = _state(
            p,
            [Cohort(birth_time=0.0, weight=2.0, state=TumorState(1.0, 1.0))],
            primary=TumorState(1.0, 1.0),
        )
        for _ in range(1000):
            s = step(s, p, 1e-3)
        exact = (3.0 / 2.0) * (1.0 - math.exp(-2.0))
        assert s.I == pytest.approx(exact, rel=1e-10)
        assert s.primary == TumorState(1.0, 1.0)
        assert s.cohorts[0].state == TumorState(1.0, 1.0)


class TestPrimaryRow:
    """The primary tumor is integrated as one more row of the cohort
    arrays, exempt only from exit, pruning and the cohort observables."""

    @pytest.mark.parametrize(
        "V,K", [(0.5, 1.0), (0.3, 0.2), (2.0, 0.7), (0.123456, 0.98765)]
    )
    def test_primary_and_cohort_at_one_state_share_one_path(self, V, K):
        p = ModelParams(m=0.0, e=0.5)
        twin = Cohort(birth_time=0.0, weight=1.0, state=TumorState(V, K))
        s = _state(p, [twin], primary=TumorState(V, K), I=0.2)
        for i in range(2000):
            s = step(s, p, 1e-2)
            assert s.cohorts[0].state == s.primary, f"paths split at step {i + 1}"

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
        c = Cohort(birth_time=0.0, weight=2.0, state=TumorState(0.5, 1.0))
        s0 = _state(p, [c], primary=TumorState(0.5, 1.0))
        s = step(s0, p, 1e-2, weight_floor=5.0)
        assert s.cohorts == ()
        assert s.primary == step(s0, p, 1e-2).primary
        assert s.born_count > 2.0
        assert s.exited_count == pytest.approx(s.born_count, rel=1e-15)


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
        bts = [c.birth_time for c in final.cohorts]
        assert bts == sorted(bts)
        assert all(c.state.V >= p.V0 for c in final.cohorts)
        assert all(c.state.K > 0 for c in final.cohorts)

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
    cohorts = tuple(
        Cohort(
            birth_time=0.0,
            weight=draw(st.floats(0.0, 10.0)),
            state=TumorState(draw(st.floats(p.V0, 5.0)), draw(st.floats(0.01, 5.0))),
        )
        for _ in range(n)
    )
    primary = TumorState(draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0)))
    I = draw(st.floats(0.0, 5.0))
    return p, _state(p, cohorts, primary=primary, I=I)


class TestStepProperties:
    @hsettings(max_examples=60, deadline=None)
    @given(_system_states())
    def test_step_preserves_accounting_and_domain(self, case):
        p, s = case
        s1 = step(s, p, 1e-2)
        live = math.fsum(c.weight for c in s1.cohorts)
        assert abs(s1.born_count - s1.exited_count - live) < 1e-10
        assert s1.born_count >= s.born_count
        assert s1.exited_count >= s.exited_count
        assert s1.I >= 0.0
        assert all(c.state.V >= p.V0 for c in s1.cohorts)
        assert all(c.state.K > 0 for c in s1.cohorts)
        assert s1.t == pytest.approx(s.t + 1e-2)

    @hsettings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    def test_emission_off_means_closed_population(self, b, k):
        p = ModelParams(b=b, k=k, m=0.0)
        s = step(initial_state(p), p, 1e-2)
        assert s.cohorts == ()
        assert s.born_count == 0.0
