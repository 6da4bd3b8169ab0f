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
byte-identical files. Every file is built in memory, written to a
temporary file in its directory and renamed into place, so an artifact
is either complete or absent.

A sweep executes one run per axis value (in parallel up to the
requested worker count), writes each run's artifacts to its own
subdirectory, and assembles ``summary.csv`` with one row per value;
failed runs carry their error in-row and never abort the sweep. A point
that fails with anything but an integration blowup (which writes its own
``{name}_error.json``) leaves ``{name}_error.json`` with the traceback.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
import traceback
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


def _write_atomic(path: str, text: str):
    """Write ``text`` to ``path`` completely or not at all.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; on failure the temporary file is
    removed and ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: str, columns) -> str:
    """CSV text of equal-length numeric columns, one decimal per cell."""
    return header + "\n" + "".join(",".join(map(_dec, row)) + "\n" for row in zip(*columns))


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
        _write_atomic(
            os.path.join(out_dir, f"{sc.name}_error.json"),
            _json_text(
                {
                    "name": sc.name,
                    "error": "integration-blowup",
                    "t": exc.t,
                    "reason": exc.reason,
                    "last_sample": exc.last_sample,
                }
            ),
        )
        raise
    elapsed = time.perf_counter() - t_start

    metrics = compute_metrics(sc, traj)
    files = []

    def path_of(suffix: str) -> str:
        return os.path.join(out_dir, f"{sc.name}_{suffix}")

    if "timeseries" in sc.outputs:
        p = path_of("timeseries.csv")
        columns = (traj.times, traj.M, traj.N, traj.I, traj.Vp, traj.born, traj.exited)
        _write_atomic(p, _csv_text("t,M,N,I,Vp,born_cum,exited_cum", columns))
        files.append(p)
    if "histogram" in sc.outputs:
        p = path_of("histogram.csv")
        h = traj.final_histogram
        columns = (h.bin_edges[:-1], h.bin_edges[1:], h.mass)
        _write_atomic(p, _csv_text("bin_lo,bin_hi,mass", columns))
        files.append(p)
    if "metrics" in sc.outputs:
        p = path_of("metrics.json")
        _write_atomic(p, _json_text(metrics))
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
            _write_atomic(p, svg)
            files.append(p)

    run_meta = {
        "name": sc.name,
        "scenario": scenario_to_dict(sc),
        "runtime_s": elapsed,
        "n_steps": sc.settings.n_steps,
        "final": {
            "t": final.t,
            "Vp": final.primary.V,
            "Kp": final.primary.K,
            "I": final.I,
            "n_live": final.w.size,
            "born": final.born_count,
            "exited": final.exited_count,
        },
        "diagnostics": traj.diagnostics,
        "note": "horizon, step size, and transient are tool defaults chosen "
        "for desk-scale runtime unless the scenario overrides them",
    }
    p = path_of("run.json")
    _write_atomic(p, _json_text(run_meta))
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


def _write_point_error(sc: Scenario, out_dir: str, exc: Exception):
    """Best effort ``{name}_error.json`` for a point that failed outside
    the blowup path; a failed write must not lose the summary row."""
    doc = {
        "name": sc.name,
        "error": "exception",
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(exc)),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, f"{sc.name}_error.json"), _json_text(doc))
    except OSError:
        pass


def _sweep_point(args) -> dict:
    sc, value, out_dir = args
    try:
        result = run_scenario(sc, out_dir=out_dir)
    except Exception as exc:  # any failure stays in its own row
        if not isinstance(exc, IntegrationBlowupError):
            _write_point_error(sc, out_dir, exc)
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

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                "" if row[col] is None else (_dec(row[col]) if col != "error" else row[col])
                for col in SUMMARY_COLUMNS
            ]
        )
    _write_atomic(os.path.join(out_dir, "summary.csv"), buf.getvalue())
    return rows
