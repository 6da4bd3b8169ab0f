import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metasim import (
    ConfigurationError,
    ModelParams,
    SystemState,
    TumorState,
)
from metasim.observables import (
    Trajectory,
    VolumeHistogram,
    _find_peaks,
    _window,
    histogram,
    oscillation_metrics,
)
from metasim.runner import _json_text, compute_metrics


def _state(cohorts=(), primary=(1.0, 3.0), I=0.3, t=2.5, V0=0.1):
    """State whose live cohorts are the (weight, V, K) rows of
    ``cohorts``, all born at t = 0."""
    w, V, K = np.array(cohorts, dtype=float).reshape(-1, 3).T
    return SystemState(
        t=t,
        primary=TumorState(*primary),
        I=I,
        V=V,
        K=K,
        w=w,
        birth_t=np.zeros(w.size),
        born_count=math.fsum(w),
        exited_count=0.0,
        V0=V0,
    )


def _traj(times, M):
    times = np.asarray(times, dtype=float)
    M = np.asarray(M, dtype=float)
    z = np.zeros_like(times)
    return Trajectory(
        times=times,
        M=M,
        N=z,
        I=z,
        Vp=z,
        born=z,
        exited=z,
        largest_V=np.full_like(times, np.nan),
    )


class TestHistogram:
    def test_mass_lands_in_log_bins_with_overflow_clipped(self):
        s = _state([(1.0, 0.2, 1.0), (2.0, 0.5, 1.0), (4.0, 1.5, 2.0)])
        h = histogram(s, n_bins=2)
        assert h.bin_edges == pytest.approx([0.1, 0.31622776601683794, 1.0])
        assert h.mass == pytest.approx([1.0, 6.0])
        assert h.largest_volume == 1.5

    def test_edge_volumes(self):
        s = _state([(1.0, 0.1, 1.0), (2.0, 1.0, 2.0)])
        h = histogram(s, n_bins=4)
        assert h.mass[0] == 1.0
        assert h.mass[-1] == 2.0

    def test_total_mass_equals_count(self):
        cohorts = [(w, v, 1.0) for w, v in [(0.5, 0.11), (1.5, 0.3), (2.5, 0.97), (3.5, 2.0)]]
        h = histogram(_state(cohorts), n_bins=17)
        assert float(h.mass.sum()) == pytest.approx(8.0, rel=1e-15, abs=0)

    def test_empty_population(self):
        h = histogram(_state(), n_bins=5)
        assert np.all(h.mass == 0.0)
        assert h.largest_volume is None

    def test_n_bins_must_be_integral(self):
        for n_bins in (2.5, True, 40.0):
            with pytest.raises(ConfigurationError, match="n_bins must be an integer"):
                histogram(_state(), n_bins=n_bins)
        assert histogram(_state(), n_bins=np.int64(40)).mass.size == 40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            histogram(_state(), n_bins=0)
        with pytest.raises(ConfigurationError):
            histogram(_state(V0=1.5, primary=(2.0, 3.0)), n_bins=4)
        with pytest.raises(ConfigurationError):
            VolumeHistogram(
                bin_edges=np.array([0.1, 1.0]),
                mass=np.array([1.0, 2.0]),
                largest_volume=None,
            )


class TestTrajectoryValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            _traj([0.0, 1.0], [1.0])

    def test_times_must_increase(self):
        with pytest.raises(ConfigurationError):
            _traj([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_negative_burden_rejected(self):
        with pytest.raises(ConfigurationError):
            _traj([0.0, 1.0], [1.0, -0.5])


class TestOscillationMetrics:
    def test_sine_wave(self):
        t = np.arange(0.0, 40.0 + 1e-9, 0.01)
        om = oscillation_metrics(_traj(t, 5.0 + np.sin(t)), transient=0.0)
        assert om.oscillatory
        assert om.peak_times.size == 7
        assert om.mean_period == pytest.approx(2.0 * math.pi, abs=0.02)
        assert om.amplitude == pytest.approx(2.0, abs=0.01)
        assert om.min_after_transient == pytest.approx(4.0, abs=1e-4)
        assert om.peak_values == pytest.approx(np.full(7, 6.0), abs=1e-4)

    def test_transient_masks_early_peaks(self):
        t = np.arange(0.0, 40.0 + 1e-9, 0.01)
        om = oscillation_metrics(_traj(t, 5.0 + np.sin(t)), transient=30.0)
        assert om.peak_times.size == 2
        assert np.all(om.peak_times >= 30.0)
        assert om.mean_period == pytest.approx(2.0 * math.pi, abs=0.02)

    def test_monotone_series_not_oscillatory(self):
        t = np.linspace(0.0, 10.0, 200)
        om = oscillation_metrics(_traj(t, np.exp(0.3 * t)), transient=0.0)
        assert not om.oscillatory
        assert om.mean_period is None
        assert om.amplitude is None
        assert om.min_after_transient == pytest.approx(1.0)

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 100)
        om = oscillation_metrics(_traj(t, np.full_like(t, 3.25)), transient=1.0)
        assert om.peak_times.size == 0
        assert om.min_after_transient == 3.25

    def test_all_zero_series(self):
        t = np.linspace(0.0, 5.0, 100)
        om = oscillation_metrics(_traj(t, np.zeros_like(t)), transient=0.0)
        assert om.peak_times.size == 0
        assert om.min_after_transient == 0.0

    def test_micro_ripple_below_prominence_ignored(self):
        t = np.linspace(0.0, 10.0, 1001)
        base = np.full_like(t, 1.0)
        base[::50] += 1e-4  # far below 1% of the window maximum
        om = oscillation_metrics(_traj(t, base), transient=0.0)
        assert om.peak_times.size == 0

    def test_window_needs_three_samples(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ConfigurationError):
            oscillation_metrics(_traj(t, np.ones_like(t)), transient=0.95)


def _scipy_peaks(x, prominence):
    from scipy.signal import find_peaks

    return find_peaks(x, prominence=prominence)[0]


@st.composite
def _peak_cases(draw):
    """(x, p) for the scipy oracle. Integer-valued samples make plateaus,
    at the ends too; p is 0, inside the range of x or above it."""
    x = np.array(
        draw(
            st.one_of(
                st.lists(st.integers(-3, 3), max_size=40),
                st.lists(st.floats(-1e6, 1e6), max_size=40),
                st.tuples(st.floats(-1e6, 1e6), st.integers(0, 20)).map(
                    lambda vn: [vn[0]] * vn[1]
                ),
            )
        ),
        dtype=float,
    )
    span = float(np.ptp(x)) if x.size else 0.0
    p = draw(
        st.one_of(
            st.just(0.0),
            st.integers(0, 6).map(float),
            st.floats(0.0, span),
            st.just(span + 1.0),
        )
    )
    return x, p


class TestFindPeaks:
    @settings(max_examples=500, deadline=None)
    @given(_peak_cases())
    @example(([], 0.0))
    @example(([2.0], 0.0))
    @example(([1.0, 2.0], 0.0))
    @example(([1.0, 2.0, 1.0], 0.0))
    @example(([1.0, 2.0, 1.0], 2.0))
    @example(([3.0, 3.0, 3.0], 0.0))
    @example(([2.0, 2.0, 1.0, 3.0, 3.0], 0.0))
    def test_equals_scipy(self, case):
        x, p = np.asarray(case[0], dtype=float), case[1]
        got, want = _find_peaks(x, p), _scipy_peaks(x, p)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_catalog_peaks_and_metrics_match_scipy(self, catalog_runs, monkeypatch):
        texts = {}
        for name, (sc, traj, _) in catalog_runs.items():
            Mw = traj.M[_window(traj.times, sc.resolved_transient)]
            p = 0.01 * float(Mw.max())
            np.testing.assert_array_equal(_find_peaks(Mw, p), _scipy_peaks(Mw, p), err_msg=name)
            texts[name] = _json_text(compute_metrics(sc, traj, None))
        monkeypatch.setattr("metasim.observables._find_peaks", _scipy_peaks)
        for name, (sc, traj, _) in catalog_runs.items():
            assert _json_text(compute_metrics(sc, traj, None)) == texts[name], name
