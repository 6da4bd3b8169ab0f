import math
import os
import subprocess
import sys
from dataclasses import replace

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
    Trajectory,
    TumorState,
    characteristic_flow,
    emission_rate,
    fit_growth_rate,
    growth_field,
    oscillation_metrics,
)
from metasim.engine import (
    _emission_weights,
    _Engine,
    _pow23,
    _rows_finite,
    birth_rate,
    inhibitor_rate,
    initial_state,
    simulate,
    simulate_ensemble,
    step,
    total_burden,
)
from metasim.runner import _group_key
from metasim.scenarios import catalog


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


_HUGE = 10**400  # an integer with no float value


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ModelParams(b=_HUGE), ConfigurationError, "parameter b must be finite"),
        (lambda: ModelParams(V0=_HUGE), ConfigurationError, "parameter V0 must be finite"),
        (lambda: SolverSettings(t_end=_HUGE), ConfigurationError, "t_end must be finite"),
        (
            lambda: Cohort(birth_time=0.0, weight=_HUGE, state=TumorState(V=0.5, K=1.0)),
            InvalidStateError,
            "cohort weight must be finite and >= 0",
        ),
        (lambda: TumorState(V=_HUGE, K=1.0), InvalidStateError, "TumorState.V must be finite"),
        (
            lambda: step(initial_state(ModelParams()), ModelParams(), _HUGE),
            ConfigurationError,
            "dt must be finite and > 0",
        ),
        (
            lambda: _state(ModelParams(), born=_HUGE),
            InvalidStateError,
            "born_count and exited_count must be finite and >= 0",
        ),
        (
            lambda: emission_rate(_HUGE, ModelParams()),
            InvalidStateError,
            "volume must be finite and > 0",
        ),
        (
            lambda: growth_field(TumorState(0.1, 0.2), _HUGE, ModelParams()),
            InvalidStateError,
            "inhibitor amount must be finite and >= 0",
        ),
        (
            lambda: characteristic_flow(_HUGE, ModelParams()),
            ConfigurationError,
            "tau must be finite and >= 0",
        ),
        (
            lambda: oscillation_metrics(Trajectory(np.arange(50.0), *[np.ones(50)] * 7), _HUGE),
            ConfigurationError,
            "transient 1000.* has no float value",
        ),
        (
            lambda: fit_growth_rate(np.arange(50.0), np.ones(50), (0, _HUGE)),
            ConfigurationError,
            "has a bound with no float value",
        ),
    ],
    ids=[
        "ModelParams.b",
        "ModelParams.V0",
        "SolverSettings.t_end",
        "Cohort.weight",
        "TumorState.V",
        "step.dt",
        "SystemState.born_count",
        "emission_rate.V",
        "growth_field.I",
        "characteristic_flow.tau",
        "oscillation_metrics.transient",
        "fit_growth_rate.window",
    ],
)
def test_an_integer_beyond_the_float_range_gets_its_field_message(build, error, message):
    with pytest.raises(error, match=message):
        build()


_TRAJ = Trajectory(np.arange(50.0), *[np.ones(50)] * 7)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: Cohort(birth_time=0.0, weight=math.nan, state=TumorState(V=0.5, K=1.0)),
            InvalidStateError,
            "cohort weight must be finite and >= 0, got nan",
        ),
        (
            lambda: _state(ModelParams(), I=math.nan),
            InvalidStateError,
            "inhibitor amount must be finite and >= 0, got nan",
        ),
        (
            lambda: step(initial_state(ModelParams()), ModelParams(), math.nan),
            ConfigurationError,
            "dt must be finite and > 0, got nan",
        ),
        (
            lambda: characteristic_flow(math.nan, ModelParams()),
            ConfigurationError,
            "tau must be finite and >= 0, got nan",
        ),
        (
            lambda: fit_growth_rate(np.arange(50.0), np.ones(50), (0, 1, 2)),
            ConfigurationError,
            r"window must be a pair of numbers, got \(0, 1, 2\)",
        ),
        (
            lambda: fit_growth_rate(np.arange(50.0), np.ones(50), ("a", 1)),
            ConfigurationError,
            r"window must be a pair of numbers, got \('a', 1\)",
        ),
        (
            lambda: oscillation_metrics(_TRAJ, "a"),
            ConfigurationError,
            "transient must be a number, got 'a'",
        ),
    ],
    ids=[
        "Cohort.weight",
        "SystemState.I",
        "step.dt",
        "characteristic_flow.tau",
        "fit_growth_rate.window-length",
        "fit_growth_rate.window-bound",
        "oscillation_metrics.transient",
    ],
)
def test_a_bad_argument_gets_its_field_message_and_error_type(build, error, message):
    # a NaN names both conditions, as growth_field and emission_rate do;
    # an argument of the wrong shape or type is a ConfigurationError
    with pytest.raises(error, match=message):
        build()


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

    def test_overflowing_total_weight_rejected(self):
        # each weight is finite, their sum is not
        heavy = Cohort(birth_time=0.0, weight=1e308, state=TumorState(0.5, 1.0))
        with pytest.raises(InvalidStateError, match="overflows"):
            initial_state(ModelParams(), (heavy, heavy))


class TestRates:
    def test_burden_weights_volumes(self):
        p = ModelParams()
        s = _state(p, [(2.0, 0.5, 1.0), (3.0, 0.2, 0.4)])
        assert total_burden(s) == pytest.approx(1.6, rel=1e-15, abs=0)

    def test_inhibitor_rate_includes_primary_and_clearance(self):
        p = ModelParams(k=2.0)
        s = _state(p, [(2.0, 0.5, 1.0)], primary=TumorState(1.0, 1.0), I=0.25)
        # 1 + 2*0.5 - 2*0.25
        assert inhibitor_rate(s, p) == pytest.approx(1.5, rel=1e-15, abs=0)

    def test_birth_rate_from_rest(self):
        p = ModelParams()
        assert birth_rate(initial_state(p), p) == pytest.approx(
            0.2154434690031884, rel=1e-14, abs=0
        )

    def test_birth_rate_silent_below_threshold(self):
        p = ModelParams(Vm=0.5)
        s = _state(p, [(4.0, 0.3, 1.0)])
        assert birth_rate(s, p) == 0.0
        s2 = _state(p, [(4.0, 0.5, 1.0)])
        assert birth_rate(s2, p) == pytest.approx(4.0 * 0.5 ** (2.0 / 3.0), rel=1e-14, abs=0)

    def test_sums_over_many_rows_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot of more than 10 000 terms over its threads,
        # which rounds it otherwise; 12 000 rows run in two processes, as
        # the state's own sums, as five steps of one run and as five steps
        # of a two-member ensemble (a 12 000-row segment each)
        code = (
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from metasim import ModelParams, SystemState, TumorState\n"
            "from metasim.engine import SolverSettings, birth_rate, simulate,"
            " simulate_ensemble, total_burden\n"
            "p = ModelParams()\n"
            "settings = SolverSettings(dt=1e-2, t_end=0.05, sample_every=1e-2)\n"
            "for seed in range(4):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    V = 0.1 + rng.random(12_000)\n"
            "    s = SystemState(t=0.0, primary=TumorState(0.1, 0.2), I=0.0, V=V,"
            " K=V + 1.0, w=1e-3 * rng.random(12_000), birth_t=np.zeros(12_000),"
            " born_count=0.0, exited_count=0.0, V0=0.1)\n"
            "    print(total_burden(s).hex(), birth_rate(s, p).hex())\n"
            "    runs = [simulate(p, settings, s)]\n"
            "    runs += simulate_ensemble([p, replace(p, b=2.0 * p.b)], settings, s)\n"
            "    for traj, _ in runs:\n"
            "        print(traj.M[-1].hex(), traj.N[-1].hex(), traj.I[-1].hex())\n"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            ).stdout.split()
            for threads in ("1", "2")
        ]
        assert len(outs[0]) == 4 * (2 + 3 * 3)
        assert outs[0] == outs[1]


class TestStep:
    def test_first_step_spawns_midstep_cohort(self):
        p = ModelParams()
        s1 = step(initial_state(p), p, 1e-2)
        assert s1.w.size == 1
        # frozen regression values for the base first step at dt = 1e-2
        assert s1.w[0] == pytest.approx(0.0021617433664636336, rel=1e-12, abs=0)
        assert s1.birth_t[0] == pytest.approx(0.005, abs=1e-15)
        assert s1.V[0] == pytest.approx(0.10034666278753236, rel=1e-12, abs=0)
        assert s1.K[0] == pytest.approx(0.20028452128747418, rel=1e-12, abs=0)
        assert s1.born_count == s1.w[0]
        assert s1.primary.V == pytest.approx(0.10069350477953093, rel=1e-12, abs=0)
        assert s1.I == pytest.approx(0.0009995528994514342, rel=1e-12, abs=0)

    def test_first_weight_close_to_rate_times_dt(self):
        p = ModelParams()
        s0 = initial_state(p)
        s1 = step(s0, p, 1e-2)
        crude = 1e-2 * birth_rate(s0, p)
        assert s1.w[0] == pytest.approx(crude, rel=5e-3, abs=0)

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
        assert s.exited_count == pytest.approx(0.5, rel=1e-15, abs=0)
        assert s.born_count == pytest.approx(0.5, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize(
        "p, cohort, dt",
        [
            (ModelParams(b=0.1, e=0.5, k=10.0), (1.0, 4.0, 0.5), 0.25),  # I < 0
            (ModelParams(b=33.0, e=35.0, k=3.0, m=2.5), (0.45, 2.0, 0.8), 0.07),  # K < 0
        ],
        ids=["inhibitor", "cohort-K"],
    )
    def test_a_step_that_leaves_the_domain_fails_as_a_blowup(self, p, cohort, dt):
        # the step that overshoots fails, not the export of the state after it
        with pytest.raises(IntegrationBlowupError, match="state outside the domain") as exc:
            step(_state(p, [cohort]), p, dt)
        assert (exc.value.t, exc.value.reason) == (dt, "non-finite-state")

    def test_a_newborn_whose_step_fails_is_a_newborn_step_blowup(self):
        # from I > 0, the newborn's half step takes K below 0 and the
        # field's log fails; the stepped rows stay in the domain
        p = ModelParams(b=0.4, e=30.0, k=4.0)
        s = _state(p, primary=TumorState(3.0, 0.04), I=1.0)
        with pytest.raises(IntegrationBlowupError) as exc:
            step(s, p, 0.125)
        assert (exc.value.t, exc.value.reason) == (0.125, "newborn-step")
        assert isinstance(exc.value.__cause__, ValueError)
        assert str(exc.value) == "the newborn's half step failed at t=0.125: math domain error"
        settings = SolverSettings(dt=0.125, t_end=1.0, sample_every=0.125)
        with pytest.raises(IntegrationBlowupError) as exc:
            simulate(p, settings, s)
        assert (exc.value.t, exc.value.reason) == (0.125, "newborn-step")
        first = {"t": 0.0, "M": 0.0, "N": 0.0, "I": 1.0, "Vp": 3.0, "n_live": 0}
        assert exc.value.last_sample == first

    def test_bad_dt_rejected(self):
        p = ModelParams()
        with pytest.raises(ConfigurationError):
            step(initial_state(p), p, 0.0)
        with pytest.raises(ConfigurationError):
            step(initial_state(p), p, math.nan)

    @pytest.mark.parametrize(
        "floor", [-1.0, math.nan, math.inf, _HUGE], ids=["-1.0", "nan", "inf", "10**400"]
    )
    def test_bad_weight_floor_rejected(self, floor):
        p = ModelParams()
        with pytest.raises(ConfigurationError, match="weight_floor must be finite and >= 0"):
            step(initial_state(p), p, 1e-2, weight_floor=floor)

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
        assert s.I == pytest.approx(exact, rel=1e-10, abs=0)
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
        assert s.exited_count == pytest.approx(s.born_count, rel=1e-15, abs=0)


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

    @pytest.mark.parametrize(
        "born, exited", [(math.inf, 0.0), (5.0, math.nan), (math.inf, math.nan)]
    )
    def test_non_finite_counts_rejected(self, born, exited):
        p = ModelParams()
        with pytest.raises(InvalidStateError, match="must be finite"):
            SystemState(
                t=0.0, primary=TumorState(p.V0, p.K0), I=0.0, born_count=born,
                exited_count=exited, V0=p.V0, **self._GOOD,
            )

    @pytest.mark.parametrize("born, exited", [(-7.0, 0.0), (5.0, -3.0), (-7.0, -3.0)])
    def test_negative_counts_rejected(self, born, exited):
        p = ModelParams()
        with pytest.raises(InvalidStateError, match="must be finite and >= 0"):
            SystemState(
                t=0.0, primary=TumorState(p.V0, p.K0), I=0.0, born_count=born,
                exited_count=exited, V0=p.V0, **self._GOOD,
            )

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
        assert float(traj.M[-1]) == pytest.approx(1.1127248210955996, rel=1e-9, abs=0)
        assert float(traj.N[-1]) == pytest.approx(8.447439780093095, rel=1e-9, abs=0)

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
        assert total_burden(final) == pytest.approx(float(traj.M[-1]), rel=1e-12, abs=0)
        assert final.I == pytest.approx(float(traj.I[-1]), rel=1e-12, abs=0)
        assert final.born_count == pytest.approx(float(traj.born[-1]), rel=1e-12, abs=0)
        # N is NumPy's pairwise sum of the positive live weights, whose
        # error is at most about log2(n) ulps of the exact sum
        assert float(traj.N[-1]) == pytest.approx(math.fsum(final.w), rel=1e-14, abs=0)
        bts = final.birth_t.tolist()
        assert bts == sorted(bts)
        assert all(final.V >= p.V0)
        assert all(final.K > 0)

    def test_coupled_steady_state_matches_its_closed_form(self):
        # At e = 100 the primary holds itself below Vm = V0 at V = K = I:
        # dV = 0 on the diagonal, and dK = 0 with k I = V gives
        # V^(2/3) = 1 - e V / (k b). Its root, found here by bisection,
        # is 0.009549876349548894. At t = 100 the engine is -3.0e-13,
        # -3.1e-13 and 2.4e-14 from it, the order of M / I* = 3.3e-13
        p = ModelParams(e=100.0)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid ** (2.0 / 3.0) > 1.0 - p.e * mid / (p.k * p.b):
                hi = mid
            else:
                lo = mid
        v_star = lo
        assert v_star < p.Vm
        traj, final = simulate(p, SolverSettings(dt=1e-2, t_end=100.0, sample_every=1.0))
        for got in (final.primary.V, final.primary.K, final.I):
            assert got == pytest.approx(v_star, rel=1e-11, abs=0)
        assert float(traj.N[-1]) < 1e-12

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

    @staticmethod
    def _match_public_steps(p, weight_floor, cohorts=(), t_end=10.0, every=10):
        """Run ``simulate`` and a loop of public ``step`` calls side by
        side and compare them; returns the trajectory, the final state
        and the loop's last state."""
        dt = 1e-2
        settings = SolverSettings(
            dt=dt, t_end=t_end, sample_every=every * dt, weight_floor=weight_floor
        )
        traj, final = simulate(p, settings, initial_state(p, cohorts))
        states = [initial_state(p, cohorts)]
        for _ in range(settings.n_steps):
            states.append(step(states[-1], p, dt, weight_floor=weight_floor))
        sampled = states[::every]
        assert len(sampled) == traj.times.size
        expected = {
            "M": [total_burden(s) for s in sampled],
            "N": [s.w.sum() for s in sampled],
            "I": [s.I for s in sampled],
            "Vp": [s.primary.V for s in sampled],
            "largest_V": [s.V.max() if s.V.size else math.nan for s in sampled],
        }
        for name, values in expected.items():
            assert np.array_equal(getattr(traj, name), values, equal_nan=True), name
        # step() restarts the compensated sums on every call
        born = [s.born_count for s in sampled]
        exited = [s.exited_count for s in sampled]
        np.testing.assert_allclose(traj.born, born, rtol=1e-14, atol=0)
        np.testing.assert_allclose(traj.exited, exited, rtol=1e-14, atol=0)
        # the removal pass leaves no cohort, newborn included, below the
        # floor or the domain edge
        for s in states:
            assert not (s.w < weight_floor).any()
            assert not (s.V < p.V0).any()
        for name in ("V", "K", "w"):
            assert np.array_equal(getattr(final, name), getattr(states[-1], name)), name
        # simulate pins t to (i + 1) * dt while a loop of step() sums dt,
        # so birth times agree to rounding
        np.testing.assert_allclose(final.birth_t, states[-1].birth_t, rtol=1e-13, atol=0)
        assert traj.diagnostics["final_live"] == states[-1].w.size
        if weight_floor:
            assert traj.diagnostics["pruned_weight"] > 0.0
        return traj, final, states[-1]

    @pytest.mark.parametrize(
        "params, weight_floor",
        [
            (dict(), 4e-3),  # newborns below the floor
            (dict(e=0.0, Vm=0.0), 0.0),
            (dict(alpha=0.5, Vm=0.15, m=2.0), 1e-3),
        ],
    )
    def test_samples_match_a_loop_of_public_steps(self, params, weight_floor):
        self._match_public_steps(ModelParams(**params), weight_floor)

    def test_samples_match_public_steps_across_growth(self):
        # 4 093 growing cohorts plus the primary: simulate's 4 096-row
        # capacity doubles at step 3, while every step() call allocates
        # 8 192 rows afresh; M is compared at every step
        rng = np.random.default_rng(13)
        V = rng.uniform(0.3, 0.9, 4093)
        w = rng.uniform(0.0, 1e-3, 4093)
        cohorts = tuple(
            Cohort(0.0, x, TumorState(v, 1.5 * v)) for x, v in zip(w.tolist(), V.tolist())
        )
        traj, final, last = self._match_public_steps(
            ModelParams(), 0.0, cohorts, t_end=0.1, every=1
        )
        assert traj.diagnostics["peak_live"] + 1 > 4096
        assert np.array_equal(final.birth_t, last.birth_t)

    def test_runs_with_V0_past_the_histogram_range(self):
        # binning is the runner's reading of the final state, so a birth
        # state the histogram cannot bin still integrates
        traj, final = simulate(ModelParams(V0=1.5, K0=2.0), SolverSettings(t_end=1.0))
        assert traj.times[-1] == pytest.approx(1.0)
        assert final.V0 == 1.5 and final.w.size > 0

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


def _beta_of(p, V):
    return _emission_weights(p, V, _pow23_of(V), np.empty_like(V))


def _random_state(p, seed, n0, n_edge, n_light, weight_floor):
    """n0 cohorts with V in [V0, 3], n_edge of them with K < V just above
    V0 (they exit through it) and n_light below the weight floor."""
    rng = np.random.default_rng(seed)
    V = np.exp(rng.uniform(math.log(p.V0), math.log(3.0), n0))
    K = np.exp(rng.uniform(math.log(0.5), math.log(3.0), n0))
    w = rng.uniform(1e-3, 1e-2, n0)
    edge = rng.choice(n0, size=min(n_edge + n_light, n0), replace=False)
    edge, light = edge[:n_edge], edge[n_edge:]
    V[edge] = p.V0 * rng.uniform(1.0, 1.002, edge.size)
    K[edge] = 0.9 * V[edge]
    w[light] = rng.uniform(0.0, weight_floor, light.size)
    return SystemState(
        t=0.0, primary=TumorState(p.V0, p.K0), I=0.0, V=V, K=K, w=w,
        birth_t=np.zeros(n0), born_count=math.fsum(w), exited_count=0.0, V0=p.V0,
    )


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
    def _run(seed, n0, n_edge, n_light, weight_floor, dts, p=None):
        """Step an engine of n0 cohorts, n_edge of them with K < V just
        above V0 (they exit through it) and n_light below the floor,
        checking P and beta after every step."""
        p = p or ModelParams()
        s = _random_state(p, seed, n0, n_edge, n_light, weight_floor)
        eng = _Engine(p, s, weight_floor=weight_floor)
        assert np.array_equal(eng.P[: eng.n], _pow23_of(eng.V[: eng.n]))
        for i, dt in enumerate(dts):
            with np.errstate(all="ignore"):
                eng.step(dt)
            n = eng.n
            assert np.array_equal(eng.P[:n], _pow23_of(eng.V[:n])), f"stale P after step {i + 1}"
            assert np.array_equal(eng.beta[:n], _beta_of(p, eng.V[:n])), (
                f"stale beta after step {i + 1}"
            )
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
        assert eng.members[0].pruned > 0.0
        assert eng.members[0].exited.value > eng.members[0].pruned  # exits through V0 as well
        assert eng.n == 1 + 4094 + 10 - 4  # ten births kept, four rows dropped

    @pytest.mark.parametrize("n0", [0, 300, 4094])
    def test_carried_beta_with_a_gated_power_law(self, n0):
        # alpha != 2/3 takes np.power, and Vm > V0 gates rows and
        # newborns below it to zero
        p = ModelParams(alpha=0.5, Vm=0.15)
        eng = self._run(2, n0, 2, 2, 1e-3, [1e-2] * 10, p=p)
        gated = eng.V[: eng.n] < p.Vm
        assert gated.any() and not eng.beta[: eng.n][gated].any()


def _masked_beta(p, V):
    """beta(V) / m by a boolean-mask assignment, the form the engine's
    ``np.copyto(..., where=V < Vm)`` must equal."""
    out = _pow23_of(V) if p.alpha == 2.0 / 3.0 else np.power(V, p.alpha)
    out[V < p.Vm] = 0.0
    return out


class TestEmissionWeights:
    """The gate at Vm zeroes beta below it and leaves every other entry
    the power law, bit for bit, as a boolean-mask assignment does."""

    @pytest.mark.parametrize("alpha", [2.0 / 3.0, 0.5])
    @pytest.mark.parametrize("Vm", [0.0, 0.1, 0.5])  # none gated, Vm = V0, Vm > V0
    def test_gate_equals_the_masked_form(self, alpha, Vm):
        p = ModelParams(alpha=alpha, Vm=Vm)
        # V straddles Vm: down to V0, exactly Vm and its float neighbours
        V = np.concatenate((
            np.geomspace(p.V0, 3.0, 50),
            [Vm, np.nextafter(Vm, 0.0), np.nextafter(Vm, 1.0), 0.5 * Vm, 2.0 * Vm + p.V0],
        ))
        got = _beta_of(p, V)
        assert got.tobytes() == _masked_beta(p, V).tobytes()
        assert (got[V < Vm] == 0.0).all() and (got[V > Vm] > 0.0).all()
        cohorts = [(0.01 * (i + 1), v, 1.0) for i, v in enumerate(V) if v >= p.V0]
        s = _state(p, cohorts, primary=TumorState(max(Vm, p.V0), 1.0))
        rows_V, rows_w = np.append(s.primary.V, s.V), np.append(1.0, s.w)
        assert birth_rate(s, p) == p.m * float(np.dot(rows_w, _masked_beta(p, rows_V)))


class TestRowsFinite:
    """The step's finite check is one dot V . K, exact when it overflows."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_a_non_finite_entry_anywhere_is_caught(self, bad, n):
        with np.errstate(all="ignore"):
            for i in range(n):
                X, Y = np.full(n, 1.5), np.full(n, 0.5)
                X[i] = bad
                assert not _rows_finite(X, Y) and not _rows_finite(Y, X), (n, i)

    def test_finite_rows_whose_dot_overflows_are_finite(self):
        V = np.full(5, 1e200)
        with np.errstate(all="ignore"):
            assert not math.isfinite(V.dot(V))
            assert _rows_finite(V, V) and _rows_finite(V, -V)


_SERIES = ("times", "M", "N", "I", "Vp", "born", "exited", "largest_V")
_GROUPABLE = (
    "base", "b-x10", "m-x10", "e-x10", "b-x0.1", "m-x0.1", "e-x0.1", "bursts", "complex-periodic"
)


def _assert_same_run(a, b):
    """Two ``simulate`` results agree bit for bit: every series, the
    final state and the diagnostics."""
    (ta, fa), (tb, fb) = a, b
    for name in _SERIES:
        assert np.array_equal(getattr(ta, name), getattr(tb, name), equal_nan=True), name
    _assert_same_state(fa, fb)
    assert ta.diagnostics == tb.diagnostics


class TestEnsemble:
    """``simulate_ensemble`` runs several parameter sets in one engine;
    every member must be its solo ``simulate`` bit for bit, whatever it
    is grouped with and in whatever order."""

    @pytest.fixture(scope="class")
    def groupable(self):
        scs = {sc.name: sc for sc in catalog()}
        group = [scs[name] for name in _GROUPABLE]
        # the catalog scenarios that share everything but b, e, k and m
        assert [sc.name for sc in catalog() if _group_key(sc) == _group_key(group[0])] == list(
            _GROUPABLE
        )
        settings = SolverSettings(t_end=20.0)
        solo = [
            simulate(sc.params, settings, initial_state(sc.params, sc.initial_cohorts))
            for sc in group
        ]
        return group, settings, solo

    @pytest.mark.parametrize(
        "chunks",
        [
            [[i] for i in range(9)],
            [[0, 1], [2, 3], [4, 5], [6, 7], [8]],
            [list(range(9))],
            [list(range(8, -1, -1))],
        ],
        ids=["ones", "pairs", "all-nine", "reversed"],
    )
    def test_members_equal_their_solo_runs(self, groupable, chunks):
        group, settings, solo = groupable
        for chunk in chunks:
            out = simulate_ensemble([group[i].params for i in chunk], settings)
            for i, member in zip(chunk, out):
                _assert_same_run(member, solo[i])

    @pytest.mark.parametrize(
        "params, weight_floor",
        [
            (dict(alpha=0.5, Vm=0.15), 1e-3),  # np.power emission, pruning
            (dict(), 4e-3),  # newborns below the floor
        ],
    )
    def test_members_equal_solo_with_pruning_and_initial_cohorts(self, params, weight_floor):
        cohorts = (
            Cohort(0.0, 0.05, TumorState(0.5, 0.6)),
            Cohort(0.0, 5e-4, TumorState(1.0, 1.2)),
            Cohort(0.0, 0.05, TumorState(0.1002, 0.09)),  # exits through V0
        )
        settings = SolverSettings(t_end=15.0, weight_floor=weight_floor)
        members = [ModelParams(e=e, m=m, **params) for e, m in ((0.3, 1.0), (2.0, 3.0), (8.0, 0.5))]
        out = simulate_ensemble(members, settings, initial_state(members[0], cohorts))
        for p, member in zip(members, out):
            _assert_same_run(member, simulate(p, settings, initial_state(p, cohorts)))
        assert any(member[0].diagnostics["pruned_weight"] > 0 for member in out)

    def test_a_failing_member_leaves_and_the_others_go_on(self):
        settings = SolverSettings(t_end=10.0)
        members = [
            ModelParams(),
            ModelParams(b=1e9),  # fails in the first step
            ModelParams(e=3.0),
            ModelParams(b=1000.0),  # fails at t = 0.51
            ModelParams(m=200.0),  # fails at t = 0.26
            ModelParams(b=2.0, k=0.5),
        ]
        out = simulate_ensemble(members, settings)
        for p, member in zip(members, out):
            try:
                solo = simulate(p, settings)
            except IntegrationBlowupError as exc:
                assert isinstance(member, IntegrationBlowupError)
                assert (member.t, member.reason, member.last_sample) == (
                    exc.t, exc.reason, exc.last_sample
                )
                assert member.last_sample is not None
            else:
                _assert_same_run(member, solo)
        assert [isinstance(m, IntegrationBlowupError) for m in out] == [
            False, True, False, True, True, False
        ]
        assert out[1].t == pytest.approx(1e-2) and out[1].last_sample["t"] == 0.0

    def test_a_member_failing_in_a_step_where_its_cohorts_exit_leaves_the_rest_whole(self):
        # the m = 500 member fails the birth-term limit in the first step,
        # in which its cohort at V = 0.1001 falls below V0: the removal
        # pass skips that dropped row of the failed member unbooked
        p, q = ModelParams(m=500.0), ModelParams(m=1.0)
        cohorts = (Cohort(0.0, 0.05, TumorState(0.1001, 0.05)),
                   Cohort(0.0, 0.05, TumorState(0.5, 0.6)))
        s, settings = initial_state(p, cohorts), SolverSettings(t_end=2.0)
        failed, kept = simulate_ensemble([p, q], settings, s)
        assert (failed.t, failed.reason) == (1e-2, "birth-term-limit")
        solo = simulate(q, settings, s)
        _assert_same_run(kept, solo)
        assert kept[0].exited[1] == solo[0].exited[1] == 0.05

    def test_the_members_left_after_a_failure_step_as_their_solo_runs(self):
        # the second of four fails in the first step; the member arrays
        # the engine steps with are rebuilt for the three that stay
        members = [ModelParams(e=0.5), ModelParams(b=1e9), ModelParams(e=3.0, m=2.0),
                   ModelParams(b=2.0, k=0.5)]
        s = initial_state(members[0])
        eng = _Engine(members, s)
        solos = [_Engine(q, s) for q in members]
        with np.errstate(all="ignore"):
            eng.step(1e-2)
        (failed,) = eng.failed
        assert failed.index == 1 and failed.error.reason == "non-finite-state"
        eng.failed.clear()
        stay = [members[i] for i in (0, 2, 3)]
        assert [m.p for m in eng.members] == stay
        for got, f in zip(eng._bekm, "bekm"):
            assert got.tolist() == [getattr(q, f) for q in stay], f
        solos = [solos[i] for i in (0, 2, 3)]
        for i in range(300):
            with np.errstate(all="ignore"):
                for e in solos if i == 0 else (eng, *solos):
                    e.step(1e-2)
            for j, (solo, (a, z)) in enumerate(zip(solos, eng.spans())):
                assert np.array_equal(eng.rows[:, a:z], solo.rows[:, : solo.n]), (i, j)
                assert eng.sample_row(j) == solo.sample_row(), (i, j)
        assert not eng.failed and len(eng.members) == 3
        out = simulate_ensemble(members, SolverSettings(t_end=3.0))
        assert isinstance(out[1], IntegrationBlowupError)
        for i in (0, 2, 3):
            _assert_same_run(out[i], simulate(members[i], SolverSettings(t_end=3.0)))

    def test_members_equal_solo_across_a_capacity_doubling(self):
        # three members of 1364 cohorts fill 4095 of 4096 rows, so the
        # first step's newborns make the engine grow while it holds
        # three segments
        p = ModelParams()
        s = _random_state(p, 3, 1364, 2, 2, 1e-3)
        members = [ModelParams(e=e, m=m) for e, m in ((0.3, 1.0), (1.0, 3.0), (4.0, 0.5))]
        eng = _Engine(members, s, weight_floor=1e-3)
        solos = [_Engine(q, s, weight_floor=1e-3) for q in members]
        assert (eng.n, eng.V.size) == (4095, 4096)
        for i in range(10):
            with np.errstate(all="ignore"):
                for e in (eng, *solos):
                    e.step(1e-2)
            n = eng.n
            assert np.array_equal(eng.beta[:n], _beta_of(p, eng.V[:n])), f"step {i + 1}"
            for j, (m, solo, (a, z)) in enumerate(zip(eng.members, solos, eng.spans())):
                assert np.array_equal(eng.rows[:, a:z], solo.rows[:, : solo.n]), (i, j)
                assert eng.sample_row(j) == solo.sample_row(), (i, j)
                sm = solo.members[0]
                assert (m.peak_n, m.min_denom, m.pruned) == (sm.peak_n, sm.min_denom, sm.pruned)
        assert eng.V.size > 4096
        assert all(m.pruned > 0.0 and m.exited.value > m.pruned for m in eng.members)

    @pytest.mark.parametrize("field", ["V0", "K0", "Vm", "alpha"])
    def test_members_must_share_the_birth_state_and_emission_law(self, field):
        other = ModelParams(**{field: {"V0": 0.05, "K0": 0.3, "Vm": 0.2, "alpha": 0.5}[field]})
        with pytest.raises(ConfigurationError):
            simulate_ensemble([ModelParams(), other], SolverSettings(t_end=1.0))

    def test_an_empty_ensemble_is_refused_as_such(self):
        with pytest.raises(ConfigurationError, match="an ensemble needs at least one member"):
            simulate_ensemble([], SolverSettings(t_end=1.0))


# The compensation term of the born and exited sums is not part of a
# SystemState, so a run continued from a state restarts those sums from
# their rounded value: each may move by a few ulps, and nothing else may.
_RESTART_RTOL = 4 * np.finfo(float).eps


def _assert_continues(whole, first, rest):
    """``rest``, continued from ``first``'s final state, gives ``whole``:
    every series with ``rest``'s start sample dropped, and the final
    state; born and exited within ``_RESTART_RTOL``."""
    (tw, fw), (t1, _), (t2, f2) = whole, first, rest
    for name in _SERIES:
        joined = np.concatenate((getattr(t1, name), getattr(t2, name)[1:]))
        if name in ("born", "exited"):
            np.testing.assert_allclose(joined, getattr(tw, name), rtol=_RESTART_RTOL, atol=0)
        else:
            assert np.array_equal(joined, getattr(tw, name), equal_nan=True), name
    for name in ("t", "primary", "I", "V0"):
        assert getattr(f2, name) == getattr(fw, name), name
    for name in ("V", "K", "w", "birth_t"):
        assert np.array_equal(getattr(f2, name), getattr(fw, name)), name
    for name in ("born_count", "exited_count"):
        assert getattr(f2, name) == pytest.approx(getattr(fw, name), rel=_RESTART_RTOL, abs=0)


class TestStartState:
    """``simulate`` and ``simulate_ensemble`` run from any state on the
    dt grid: a run split into two calls is the single run."""

    @hsettings(max_examples=25, deadline=None)
    @given(st.integers(1, 499), st.floats(0.5, 20.0), st.sampled_from([0.0, 1e-3]))
    def test_a_split_run_is_the_single_run(self, k, e, weight_floor):
        p = ModelParams(e=e)
        dt = 1e-2
        settings = SolverSettings(dt=dt, t_end=5.0, sample_every=0.1, weight_floor=weight_floor)
        first = simulate(p, replace(settings, t_end=k * dt))
        rest = simulate(p, settings, first[1])
        assert rest[0].times[0] == first[1].t == k * dt
        _assert_continues(simulate(p, settings), first, rest)

    def test_an_ensemble_continues_as_each_member_alone(self):
        p = ModelParams()
        _, state = simulate(p, SolverSettings(t_end=10.0))
        settings = SolverSettings(t_end=20.0, weight_floor=1e-3)
        members = [ModelParams(e=1.0), ModelParams(e=5.0, m=2.0)]
        out = simulate_ensemble(members, settings, state)
        for q, member in zip(members, out):
            assert member[0].times[0] == 10.0
            _assert_same_run(member, simulate(q, settings, state))

    def test_a_step_loop_state_snaps_to_the_grid(self):
        # 1 000 public steps of 0.01 end ulps short of t = 10; the run
        # from there pins its steps to (1 000 + i) * dt
        p = ModelParams()
        s = initial_state(p)
        for _ in range(1000):
            s = step(s, p, 1e-2)
        assert s.t != 10.0
        traj, final = simulate(p, SolverSettings(t_end=11.0), s)
        assert traj.times[0] == s.t
        assert np.array_equal(traj.times[1:], np.arange(1010, 1101, 10) * 1e-2)
        assert final.t == 11.0

    @pytest.mark.parametrize(
        "t, V0, error, message",
        [
            (0.005, 0.1, ConfigurationError, "is not on the dt=0.01 grid"),
            (1.0, 0.1, ConfigurationError, "is not before t_end=1.0"),
            (2.5, 0.1, ConfigurationError, "is not before t_end=1.0"),
            (-2e5, 0.1, ConfigurationError, "over 20000000 steps before t_end"),
            (0.5, 0.05, InvalidStateError, "state was built for V0=0.05"),
        ],
        ids=["off-grid", "at-t-end", "past-t-end", "past-the-cap", "other-V0"],
    )
    def test_a_bad_start_is_refused_before_the_first_step(self, no_steps, t, V0, error, message):
        p = ModelParams()
        state = _state(ModelParams(V0=V0, K0=0.2), [(1.0, 0.5, 1.0)], t=t)
        with pytest.raises(error, match=message):
            simulate(p, SolverSettings(t_end=1.0), state)
        with pytest.raises(error, match=message):
            simulate_ensemble([p, ModelParams(e=2.0)], SolverSettings(t_end=1.0), state)
