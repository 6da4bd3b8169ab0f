"""Volume histograms, oscillation metrics and growth-rate fits read from
a simulation.

Everything here is a pure read of ``simulate``'s output (re-exported
``Trajectory`` and the final state); nothing feeds back into the dynamics.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .engine import SystemState, Trajectory
from .errors import ConfigurationError

__all__ = [
    "VolumeHistogram",
    "OscillationMetrics",
    "histogram",
    "oscillation_metrics",
    "fit_growth_rate",
]


@dataclass(frozen=True)
class VolumeHistogram:
    """Cohort mass binned by volume on log-spaced bins over [V0, 1].

    Mass at V >= 1 lands in the last bin. ``largest_volume`` is the
    maximum live volume at sampling time, or None when no cohort is
    live.
    """

    bin_edges: np.ndarray
    mass: np.ndarray
    largest_volume: float | None

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", np.asarray(self.bin_edges, dtype=float))
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))
        if self.bin_edges.ndim != 1 or self.bin_edges.size != self.mass.size + 1:
            raise ConfigurationError("need len(bin_edges) == len(mass) + 1")


@dataclass(frozen=True)
class OscillationMetrics:
    """Peak-based summary of a burden series on a window.

    ``mean_period`` and ``amplitude`` are None when fewer than two peaks
    exist (the series is flagged non-oscillatory); the window minimum is
    always reported.
    """

    peak_times: np.ndarray
    peak_values: np.ndarray
    mean_period: float | None
    amplitude: float | None
    min_after_transient: float

    def __post_init__(self):
        object.__setattr__(self, "peak_times", np.asarray(self.peak_times, dtype=float))
        object.__setattr__(self, "peak_values", np.asarray(self.peak_values, dtype=float))

    @property
    def oscillatory(self) -> bool:
        return self.peak_times.size >= 2


def _check_bins(V0: float, n_bins: int):
    """Reject a bin layout ``histogram`` cannot build; the runner calls
    this before a run that asks for the histogram."""
    # a fraction passes the range check and fails in np.zeros, after the
    # run; a bool is an int to Python but no bin count
    if isinstance(n_bins, bool) or not isinstance(n_bins, numbers.Integral):
        raise ConfigurationError(f"n_bins must be an integer, got {n_bins!r}")
    # a million bins is a 60 MB CSV; 1e12 would need terabytes of edges
    if not 1 <= n_bins <= 1_000_000:
        raise ConfigurationError(f"n_bins must be >= 1 and at most 1000000, got {n_bins}")
    if not V0 < 1.0:
        raise ConfigurationError("histogram bins require V0 < 1")


def histogram(s: SystemState, n_bins: int = 40) -> VolumeHistogram:
    """Bin live cohort mass by volume on log-spaced bins over [V0, 1].

    Each cohort's full weight goes to the bin containing its V; volumes
    at or above 1 go to the last bin, so total mass always equals the
    live count.
    """
    _check_bins(s.V0, n_bins)
    edges = np.geomspace(s.V0, 1.0, n_bins + 1)
    mass = np.zeros(n_bins)
    if not s.w.size:
        return VolumeHistogram(bin_edges=edges, mass=mass, largest_volume=None)
    idx = np.clip(np.searchsorted(edges, s.V, side="right") - 1, 0, n_bins - 1)
    np.add.at(mass, idx, s.w)
    return VolumeHistogram(bin_edges=edges, mass=mass, largest_volume=float(s.V.max()))


def _window(times: np.ndarray, transient: float) -> np.ndarray:
    """Mask of the sample times at or past ``transient``; fewer than 3
    of them cannot be analysed."""
    try:
        mask = times >= transient
    except OverflowError:
        raise ConfigurationError(f"transient {transient!r} has no float value") from None
    except TypeError:
        raise ConfigurationError(f"transient must be a number, got {transient!r}") from None
    if int(mask.sum()) < 3:
        raise ConfigurationError(
            f"window beyond transient={transient:g} holds fewer than 3 samples"
        )
    return mask


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the peaks of the finite 1-D float array ``x`` whose
    prominence is at least ``prominence``: ``scipy.signal.find_peaks(x,
    prominence=prominence)[0]``, without importing scipy.signal.

    A peak is a run of equal samples with a lower sample on each side,
    counted at its middle sample ``(first + last) // 2``; a run that
    holds an end sample of ``x`` is no peak. On each side, a peak's base
    is the minimum of ``x`` from the peak up to the first sample higher
    than the peak, or up to the end of ``x``; its prominence is its
    height above the higher of its two bases.
    """
    if x.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.r_[0, np.flatnonzero(x[1:] != x[:-1]) + 1]
    v = x[starts]
    j = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[j] + starts[j + 1] - 1) // 2
    keep = np.zeros(peaks.size, dtype=bool)
    for i, pk in enumerate(peaks):
        h = x[pk]
        left = np.flatnonzero(x[:pk] > h)
        right = np.flatnonzero(x[pk:] > h)
        lo = left[-1] + 1 if left.size else 0
        hi = pk + right[0] if right.size else x.size
        keep[i] = h - max(x[lo : pk + 1].min(), x[pk:hi].min()) >= prominence
    return peaks[keep]


def oscillation_metrics(traj: Trajectory, transient: float) -> OscillationMetrics:
    """Peaks, mean period, mean amplitude, and minimum of M past a
    transient.

    A peak is a local maximum (a plateau counts at its middle sample)
    whose prominence is at least 1% of the window maximum, as
    ``_find_peaks`` defines them; this suppresses floating-point
    micro-ripples without hiding genuine low-amplitude regimes. The
    amplitude is the mean drop from a peak to the following trough,
    taken over consecutive peak pairs.
    """
    mask = _window(traj.times, transient)
    tw = traj.times[mask]
    Mw = traj.M[mask]

    peaks = _find_peaks(Mw, 0.01 * float(Mw.max()))

    peak_times = tw[peaks]
    peak_values = Mw[peaks]
    if peaks.size >= 2:
        mean_period = float(np.mean(np.diff(peak_times)))
        troughs = [
            float(Mw[peaks[i] : peaks[i + 1] + 1].min()) for i in range(peaks.size - 1)
        ]
        amplitude = float(np.mean(peak_values[:-1] - np.asarray(troughs)))
    else:
        mean_period = None
        amplitude = None

    return OscillationMetrics(
        peak_times=peak_times,
        peak_values=peak_values,
        mean_period=mean_period,
        amplitude=amplitude,
        min_after_transient=float(Mw.min()),
    )


def fit_growth_rate(times, M, window: tuple[float, float]) -> float:
    """Least-squares slope of ln M(t) over a time window.

    The intercept is discarded; only the exponential rate is returned.
    """
    times = np.asarray(times, dtype=float)
    M = np.asarray(M, dtype=float)
    if times.shape != M.shape:
        raise ConfigurationError("times and M must have matching shapes")
    try:
        t_lo, t_hi = window
        mask = (times >= t_lo) & (times <= t_hi)
    except OverflowError:
        raise ConfigurationError(f"window {window!r} has a bound with no float value") from None
    except (TypeError, ValueError):
        raise ConfigurationError(f"window must be a pair of numbers, got {window!r}") from None
    if int(mask.sum()) < 10:
        raise ConfigurationError(
            f"window [{t_lo:g}, {t_hi:g}] holds fewer than 10 samples"
        )
    Mw = M[mask]
    if not np.all(np.isfinite(Mw) & (Mw > 0)):
        raise ConfigurationError("M must be finite and positive throughout the fit window")
    slope, _ = np.polyfit(times[mask], np.log(Mw), 1)
    return float(slope)
