"""Macroscopic time series, volume histograms, and oscillation metrics.

Everything here is a pure read of simulation output; nothing feeds back
into the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from .engine import SystemState
from .errors import ConfigurationError

__all__ = [
    "Trajectory",
    "VolumeHistogram",
    "OscillationMetrics",
    "histogram",
    "oscillation_metrics",
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
    final_histogram: VolumeHistogram
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("times", "M", "N", "I", "Vp", "born", "exited", "largest_V"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.times.size
        for name in ("M", "N", "I", "Vp", "born", "exited", "largest_V"):
            if getattr(self, name).size != n:
                raise ConfigurationError(f"series {name} length differs from times")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("times must be strictly increasing")
        if np.any(self.M < 0) or np.any(self.N < 0):
            raise ConfigurationError("M and N must be nonnegative")


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


def histogram(s: SystemState, n_bins: int = 40) -> VolumeHistogram:
    """Bin live cohort mass by volume on log-spaced bins over [V0, 1].

    Each cohort's full weight goes to the bin containing its V; volumes
    at or above 1 go to the last bin, so total mass always equals the
    live count.
    """
    if n_bins < 1:
        raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
    if not s.V0 < 1.0:
        raise ConfigurationError("histogram bins require V0 < 1")
    edges = np.geomspace(s.V0, 1.0, n_bins + 1)
    mass = np.zeros(n_bins)
    if not s.w.size:
        return VolumeHistogram(bin_edges=edges, mass=mass, largest_volume=None)
    idx = np.clip(np.searchsorted(edges, s.V, side="right") - 1, 0, n_bins - 1)
    np.add.at(mass, idx, s.w)
    return VolumeHistogram(bin_edges=edges, mass=mass, largest_volume=float(s.V.max()))


def oscillation_metrics(traj: Trajectory, transient: float) -> OscillationMetrics:
    """Peaks, mean period, mean amplitude, and minimum of M past a
    transient.

    A peak is a strict local maximum whose topographic prominence
    exceeds 1% of the window maximum; this suppresses floating-point
    micro-ripples without hiding genuine low-amplitude regimes. The
    amplitude is the mean drop from a peak to the following trough,
    taken over consecutive peak pairs.
    """
    mask = traj.times >= transient
    if int(mask.sum()) < 3:
        raise ConfigurationError(
            f"window beyond transient={transient:g} holds fewer than 3 samples"
        )
    tw = traj.times[mask]
    Mw = traj.M[mask]

    prominence = 0.01 * float(Mw.max())
    if prominence > 0:
        peaks, _ = find_peaks(Mw, prominence=prominence)
    else:
        peaks = np.array([], dtype=int)

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
