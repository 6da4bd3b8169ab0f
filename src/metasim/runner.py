"""Execution of scenarios and sweeps, and their on-disk artifacts.

One scenario run emits, per requested output kind:

- ``{name}_timeseries.csv`` with columns ``t,M,N,I,Vp,born_cum,exited_cum``
- ``{name}_histogram.csv`` with columns ``bin_lo,bin_hi,mass``
- ``{name}_metrics.json`` with keys ``peaks, mean_period, amplitude,
  min_after_transient, largest_volume`` and, for the uncoupled model
  (e = 0), ``lambda0``
- ``{name}_{M,N,I,Vp}.svg`` line plots (best-effort; never gates success)

plus ``{name}_run.json`` metadata. Numbers in CSV files are written as
shortest round-trip decimal strings, so identical runs produce
byte-identical files.

A sweep executes one run per axis value (in parallel up to the
requested worker count), writes each run's artifacts to its own
subdirectory, and assembles ``summary.csv`` with one row per value;
failed runs carry their error in-row and never abort the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import SystemState, simulate
from .errors import IntegrationBlowupError, NoRootError
from .observables import OscillationMetrics, Trajectory, oscillation_metrics
from .scenarios import Scenario, SweepSpec, scenario_to_dict
from .spectral import malthus_exponent
from .svgplot import line_chart

__all__ = ["RunResult", "run_scenario", "run_sweep", "SUMMARY_COLUMNS"]

SUMMARY_COLUMNS = (
    "value",
    "lambda0",
    "mean_period",
    "amplitude",
    "min_after_transient",
    "max_M",
    "largest_volume",
    "error",
)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run, with its in-memory observables."""

    scenario: Scenario
    trajectory: Trajectory
    final_state: SystemState
    metrics: dict
    files: tuple[str, ...]


def _dec(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def _write_timeseries(path: str, traj: Trajectory):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,M,N,I,Vp,born_cum,exited_cum\n")
        for i in range(traj.times.size):
            fh.write(
                ",".join(
                    (
                        _dec(traj.times[i]),
                        _dec(traj.M[i]),
                        _dec(traj.N[i]),
                        _dec(traj.I[i]),
                        _dec(traj.Vp[i]),
                        _dec(traj.born[i]),
                        _dec(traj.exited[i]),
                    )
                )
                + "\n"
            )


def _write_histogram(path: str, traj: Trajectory):
    h = traj.final_histogram
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_lo,bin_hi,mass\n")
        for i in range(h.mass.size):
            fh.write(
                f"{_dec(h.bin_edges[i])},{_dec(h.bin_edges[i + 1])},{_dec(h.mass[i])}\n"
            )


def _window_largest_volume(traj: Trajectory, transient: float) -> float | None:
    """Largest live volume seen at any sample past the transient."""
    window = traj.largest_V[traj.times >= transient]
    window = window[~np.isnan(window)]
    return float(window.max()) if window.size else None


def compute_metrics(sc: Scenario, traj: Trajectory) -> dict:
    """Metrics document for one finished trajectory."""
    om: OscillationMetrics = oscillation_metrics(traj, sc.resolved_transient)
    doc = {
        "peaks": [
            {"t": float(t), "M": float(v)}
            for t, v in zip(om.peak_times, om.peak_values)
        ],
        "mean_period": om.mean_period,
        "amplitude": om.amplitude,
        "min_after_transient": om.min_after_transient,
        "largest_volume": _window_largest_volume(traj, sc.resolved_transient),
    }
    if sc.params.e == 0.0:
        try:
            doc["lambda0"] = malthus_exponent(sc.params).lambda0
        except NoRootError:
            doc["lambda0"] = None
    return doc


def run_scenario(
    sc: Scenario, out_dir: str = ".", log_scale: bool | None = None
) -> RunResult:
    """Execute one scenario and write its artifacts to ``out_dir``.

    ``log_scale`` overrides the scenario's own plotting flag when given.
    On integration blowup a diagnostic ``{name}_error.json`` is written
    and the blowup is re-raised for the caller to handle.
    """
    os.makedirs(out_dir, exist_ok=True)
    log_y = sc.log_scale if log_scale is None else log_scale
    t_start = time.perf_counter()
    try:
        traj, final = simulate(
            sc.params, sc.settings, sc.initial_cohorts, n_bins=sc.n_bins
        )
    except IntegrationBlowupError as exc:
        err_path = os.path.join(out_dir, f"{sc.name}_error.json")
        with open(err_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": sc.name, "error": "integration-blowup", "t": exc.t},
                fh,
                indent=2,
            )
            fh.write("\n")
        raise
    elapsed = time.perf_counter() - t_start

    metrics = compute_metrics(sc, traj)
    files = []

    def path_of(suffix: str) -> str:
        return os.path.join(out_dir, f"{sc.name}_{suffix}")

    if "timeseries" in sc.outputs:
        p = path_of("timeseries.csv")
        _write_timeseries(p, traj)
        files.append(p)
    if "histogram" in sc.outputs:
        p = path_of("histogram.csv")
        _write_histogram(p, traj)
        files.append(p)
    if "metrics" in sc.outputs:
        p = path_of("metrics.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        files.append(p)
    if "plots" in sc.outputs:
        series = (
            ("M", traj.M, log_y),
            ("N", traj.N, log_y),
            ("I", traj.I, False),
            ("Vp", traj.Vp, False),
        )
        for label, ys, ly in series:
            try:
                svg = line_chart(
                    traj.times, ys, f"{sc.name}: {label}(t)", y_label=label, log_y=ly
                )
            except ValueError:
                continue  # plots never gate the run
            p = path_of(f"{label}.svg")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(svg)
            files.append(p)

    run_meta = {
        "name": sc.name,
        "scenario": scenario_to_dict(sc),
        "runtime_s": elapsed,
        "n_steps": round(sc.settings.t_end / sc.settings.dt),
        "final": {
            "t": final.t,
            "Vp": final.primary.V,
            "Kp": final.primary.K,
            "I": final.I,
            "n_live": len(final.cohorts),
            "born": final.born_count,
            "exited": final.exited_count,
        },
        "note": "horizon, step size, and transient are tool defaults chosen "
        "for desk-scale runtime unless the scenario overrides them",
    }
    p = path_of("run.json")
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(run_meta, fh, indent=2)
        fh.write("\n")
    files.append(p)

    return RunResult(
        scenario=sc,
        trajectory=traj,
        final_state=final,
        metrics=metrics,
        files=tuple(files),
    )


def _summary_row(value: float, metrics: dict, traj: Trajectory) -> dict:
    return {
        "value": value,
        "lambda0": metrics.get("lambda0"),
        "mean_period": metrics["mean_period"],
        "amplitude": metrics["amplitude"],
        "min_after_transient": metrics["min_after_transient"],
        "max_M": float(traj.M.max()),
        "largest_volume": metrics["largest_volume"],
        "error": None,
    }


def _sweep_point(args) -> dict:
    sc, value, out_dir = args
    try:
        result = run_scenario(sc, out_dir=out_dir)
    except Exception as exc:  # any failure stays in its own row
        return {name: None for name in SUMMARY_COLUMNS} | {
            "value": value,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return _summary_row(value, result.metrics, result.trajectory)


def run_sweep(sw: SweepSpec, out_dir: str = ".", jobs: int | None = None) -> list[dict]:
    """Execute every sweep point and write ``summary.csv``.

    Returns the summary rows in axis order. Individual failures are
    recorded in-row; the caller decides what an all-failed sweep means.
    """
    os.makedirs(out_dir, exist_ok=True)
    workers = sw.parallelism if jobs is None else jobs
    tasks = [
        (sc, value, os.path.join(out_dir, f"{sw.axis}={value:g}"))
        for sc, value in zip(sw.scenarios(), sw.values)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    "" if row[col] is None else (_dec(row[col]) if col != "error" else row[col])
                    for col in SUMMARY_COLUMNS
                ]
            )
    return rows
