"""Execution of scenarios and sweeps, and their on-disk artifacts.

One scenario run emits, per requested output kind:

- ``{name}_timeseries.csv`` with columns ``t,M,N,I,Vp,born_cum,exited_cum``
- ``{name}_histogram.csv`` with columns ``bin_lo,bin_hi,mass``
- ``{name}_metrics.json`` with keys ``peaks, mean_period, amplitude,
  min_after_transient, largest_volume`` and, for the uncoupled model
  (e = 0), ``lambda0``: the root the pre-run check solved (``_check_run``)
- ``{name}_{M,N,I,Vp}.svg`` line plots

plus ``{name}_run.json`` metadata. Each format has one writer:
``_csv_text`` for CSV, with numbers as shortest round-trip decimals so
identical runs produce byte-identical files, and ``_json_text`` for
JSON. ``_write_named`` writes a run's file ``{name}_{suffix}`` by
``_write_atomic``: to a temporary file in its directory, then renamed
into place, so an artifact is either complete or absent.

A sweep executes one run per axis value, writes each run's artifacts to
its own subdirectory, and assembles ``summary.csv`` with one row per
value; failed runs carry their error in-row and never abort the sweep.
Points that differ only in b, e, k or m integrate together as one
``simulate_ensemble``, split into at most one chunk per worker, and each
point's numbers are those of its solo run; its lambda0 is solved once,
before any worker starts. A failed run or point leaves
``{name}_error.json`` (see ``_write_error``); a point's is best effort,
and its row keeps the error that failed it.
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
from numbers import Integral

import numpy as np

from .engine import (
    SystemState,
    Trajectory,
    _steps_per_sample,
    initial_state,
    shared_params,
    simulate,
    simulate_ensemble,
)
from .errors import (
    ConfigurationError,
    IntegrationBlowupError,
    InvalidStateError,
    MetasimError,
    NoRootError,
)
from .model import ModelParams
from .observables import _check_bins, _window, histogram, oscillation_metrics
from .scenarios import Scenario, SweepSpec, scenario_to_dict
from .svgplot import line_chart

__all__ = ["RunResult", "run_scenario", "run_sweep", "SUMMARY_COLUMNS"]

TIMESERIES_COLUMNS = ("t", "M", "N", "I", "Vp", "born_cum", "exited_cum")
HISTOGRAM_COLUMNS = ("bin_lo", "bin_hi", "mass")
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
    """Outcome of one scenario run; ``metrics`` is None unless requested."""

    scenario: Scenario
    trajectory: Trajectory
    final_state: SystemState
    metrics: dict | None
    files: tuple[str, ...]


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


def _write_named(out_dir: str, name: str, suffix: str, text: str) -> str:
    """Write ``text`` to ``{out_dir}/{name}_{suffix}`` atomically; returns the path."""
    path = os.path.join(out_dir, f"{name}_{suffix}")
    _write_atomic(path, text)
    return path


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text of ``header`` and ``rows``. A cell is a float, written as
    its shortest round-trip decimal; a string, quoted as the csv module
    quotes it; or None, written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _columns(*arrays):
    """Rows of equal-length float arrays, as Python floats."""
    return zip(*(a.tolist() for a in arrays))


def _window_largest_volume(traj: Trajectory, transient: float) -> float | None:
    """Largest live volume seen at any sample past the transient."""
    window = traj.largest_V[traj.times >= transient]
    window = window[~np.isnan(window)]
    return float(window.max()) if window.size else None


def compute_metrics(sc: Scenario, traj: Trajectory, lambda0: float | None) -> dict:
    """Metrics document for one finished trajectory; for e = 0 it reports
    ``lambda0``, the root ``_check_run`` solved (None: no root)."""
    om = oscillation_metrics(traj, sc.resolved_transient)
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
        doc["lambda0"] = lambda0
    return doc


def malthus_exponent(p: ModelParams):
    """``spectral.malthus_exponent(p)``. ``metasim.spectral``, the one
    module that imports SciPy, is loaded by the first call, so a run or
    sweep that solves no lambda0 never loads it; the CLI solves here too."""
    from . import spectral

    return spectral.malthus_exponent(p)


def _check_run(sc: Scenario, outputs) -> tuple[SystemState, float | None]:
    """Reject a run that could not start, or a requested output it could
    not build: the initial cohorts must lie in the domain, metrics need 3
    samples past the transient on ``simulate``'s grid, the histogram bins,
    and then, for e = 0, metrics need a lambda0 solve that ends in a root
    or in NoRootError. Returns the run's start state and the lambda0 its
    metrics report: None for no root, for e != 0 or for no metrics."""
    try:
        state = initial_state(sc.params, sc.initial_cohorts)
    except InvalidStateError as exc:
        raise ConfigurationError(f"initial_cohorts: {exc}") from exc
    if "metrics" in outputs:
        settings = sc.settings
        grid = np.arange(0, settings.n_steps + 1, _steps_per_sample(settings)) * settings.dt
        _window(grid, sc.resolved_transient)
    if "histogram" in outputs:
        _check_bins(sc.params.V0, sc.n_bins)
    lambda0 = None
    if "metrics" in outputs and sc.params.e == 0.0:
        try:
            lambda0 = malthus_exponent(sc.params).lambda0
        except NoRootError:
            pass
        except MetasimError as exc:
            raise ConfigurationError(f"metrics need lambda0: {exc}") from exc
    return state, lambda0


def run_scenario(sc: Scenario, out_dir: str = ".") -> RunResult:
    """Execute one scenario and write to ``out_dir`` the artifacts its
    outputs request. The initial cohorts, and the preconditions of those
    outputs alone, are checked before the run. On integration blowup a
    diagnostic ``{name}_error.json`` is written and the blowup is
    re-raised for the caller to handle.
    """
    state, lambda0 = _check_run(sc, sc.outputs)
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    try:
        traj, final = simulate(sc.params, sc.settings, state)
    except IntegrationBlowupError as exc:
        _write_error(sc, out_dir, exc)
        raise
    return _write_run(sc, traj, final, out_dir, time.perf_counter() - t_start, 1, lambda0)


def _write_error(sc: Scenario, out_dir: str, exc: Exception):
    """``{name}_error.json`` for a failed run: the time, check and last
    sample of an integration blowup, or the type, message and traceback
    of any other exception."""
    if isinstance(exc, IntegrationBlowupError):
        doc = {"name": sc.name, "error": "integration-blowup", "t": exc.t,
               "reason": exc.reason, "last_sample": exc.last_sample}
    else:
        doc = {"name": sc.name, "error": "exception", "type": type(exc).__name__,
               "message": str(exc), "traceback": "".join(traceback.format_exception(exc))}
    _write_named(out_dir, sc.name, "error.json", _json_text(doc))


def _write_run(
    sc: Scenario,
    traj: Trajectory,
    final: SystemState,
    out_dir: str,
    runtime_s: float,
    ensemble_size: int,
    lambda0: float | None,
) -> RunResult:
    """Build the artifacts ``sc.outputs`` request and ``{name}_run.json``
    for one finished integration, then write each by ``_write_named``,
    in that order: ``runtime_s`` is the wall time of the
    integration that produced it, shared by ``ensemble_size`` members,
    with the ``lambda0`` of its ``_check_run``."""
    metrics = compute_metrics(sc, traj, lambda0) if "metrics" in sc.outputs else None
    texts = []
    if "timeseries" in sc.outputs:
        rows = _columns(traj.times, traj.M, traj.N, traj.I, traj.Vp, traj.born, traj.exited)
        texts.append(("timeseries.csv", _csv_text(TIMESERIES_COLUMNS, rows)))
    if "histogram" in sc.outputs:
        h = histogram(final, sc.n_bins)
        rows = _columns(h.bin_edges[:-1], h.bin_edges[1:], h.mass)
        texts.append(("histogram.csv", _csv_text(HISTOGRAM_COLUMNS, rows)))
    if "metrics" in sc.outputs:
        texts.append(("metrics.json", _json_text(metrics)))
    if "plots" in sc.outputs:
        series = (
            ("M", traj.M, sc.log_scale),
            ("N", traj.N, sc.log_scale),
            ("I", traj.I, False),
            ("Vp", traj.Vp, False),
        )
        for label, ys, ly in series:
            svg = line_chart(traj.times, ys, f"{sc.name}: {label}(t)", y_label=label, log_y=ly)
            texts.append((f"{label}.svg", svg))

    run_meta = {
        "name": sc.name,
        "scenario": scenario_to_dict(sc),
        "runtime_s": runtime_s,
        "ensemble_size": ensemble_size,
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
    texts.append(("run.json", _json_text(run_meta)))
    return RunResult(
        scenario=sc,
        trajectory=traj,
        final_state=final,
        metrics=metrics,
        files=tuple(_write_named(out_dir, sc.name, suffix, text) for suffix, text in texts),
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


def _point_row(task, outcome, runtime_s: float, ensemble_size: int) -> dict:
    """Write one point's artifacts from its integration outcome, a
    ``(trajectory, final_state)`` or the exception that ended it, and
    return its summary row. Any failure stays in the point's own row."""
    sc, value, out_dir, lambda0 = task
    try:
        os.makedirs(out_dir, exist_ok=True)
        if isinstance(outcome, Exception):
            raise outcome
        result = _write_run(sc, *outcome, out_dir, runtime_s, ensemble_size, lambda0)
        # the summary row needs the metrics even when the point's outputs omit them
        metrics = result.metrics or compute_metrics(sc, result.trajectory, lambda0)
    except Exception as exc:  # any failure stays in its own row
        try:
            _write_error(sc, out_dir, exc)
        except OSError:
            pass  # best effort: the row keeps the error that failed the point
        return {name: None for name in SUMMARY_COLUMNS} | {
            "value": value,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return _summary_row(value, metrics, result.trajectory)


def _sweep_chunk(chunk: list) -> list[dict]:
    """Summary rows of sweep points that share ``_group_key``, integrated
    as one ensemble. An error the ensemble cannot attribute to one member
    reruns each point solo, so one point never aborts another."""
    scs = [sc for sc, *_ in chunk]
    t_start = time.perf_counter()
    try:
        state = initial_state(scs[0].params, scs[0].initial_cohorts)
        outcomes = simulate_ensemble([sc.params for sc in scs], scs[0].settings, state)
    except Exception as exc:
        if len(chunk) > 1:
            return [row for task in chunk for row in _sweep_chunk([task])]
        outcomes = [exc]
    runtime_s = time.perf_counter() - t_start
    return [_point_row(task, out, runtime_s, len(chunk)) for task, out in zip(chunk, outcomes)]


def _group_key(sc: Scenario) -> tuple:
    """What sweep points must share to integrate as one ensemble: all but
    b, e, k and m."""
    return (sc.settings, sc.initial_cohorts, shared_params(sc.params))


def _chunks(tasks: list, jobs: int) -> list[list[int]]:
    """Task indices grouped by ``_group_key``, each group dealt by stride
    into at most ``jobs`` chunks of near-equal size (7 points on 2 jobs
    give chunks of 4 and 3: the 1st, 3rd, 5th and 7th, and the rest). A
    point's cost may rise or fall along the axis; striding spreads it
    over the chunks, where contiguous chunks would put the dearest
    points together."""
    groups: dict[tuple, list[int]] = {}
    for i, (sc, *_) in enumerate(tasks):
        groups.setdefault(_group_key(sc), []).append(i)
    chunks = []
    for idx in groups.values():
        k = min(jobs, len(idx))
        chunks += [idx[c::k] for c in range(k)]
    return chunks


def run_sweep(sw: SweepSpec, out_dir: str = ".", jobs: int | None = None) -> list[dict]:
    """Execute every sweep point and write ``summary.csv``.

    Returns the summary rows in axis order. Every point's outputs, and
    the metrics its summary row needs, are checked before any directory
    is made; a failure raises ConfigurationError naming the point, and
    so does a ``jobs`` (default ``sw.parallelism``) not an integer >= 1.
    A point's task carries the lambda0 its check solved. Points that
    share ``_group_key`` integrate as one ensemble per chunk (see
    ``_chunks``), one chunk per pool task. Failures during a run are
    recorded in-row; the caller decides what an all-failed sweep means.
    """
    workers = sw.parallelism if jobs is None else jobs
    if isinstance(workers, bool) or not isinstance(workers, Integral):
        raise ConfigurationError(f"jobs must be an integer, got {workers!r}")
    if workers < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {workers}")
    tasks = []
    for sc, value in zip(sw.scenarios(), sw.values):
        label = sw.point_label(value)
        try:
            _, lambda0 = _check_run(sc, {"metrics", *sc.outputs})
        except ConfigurationError as exc:
            raise ConfigurationError(f"sweep point {label}: {exc}") from exc
        tasks.append((sc, value, os.path.join(out_dir, label), lambda0))
    os.makedirs(out_dir, exist_ok=True)
    chunks = _chunks(tasks, workers)
    work = [[tasks[i] for i in idx] for idx in chunks]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            done = list(pool.map(_sweep_chunk, work))
    else:
        done = [_sweep_chunk(chunk) for chunk in work]
    rows = [None] * len(tasks)
    for idx, chunk_rows in zip(chunks, done):
        for i, row in zip(idx, chunk_rows):
            rows[i] = row

    summary = _csv_text(SUMMARY_COLUMNS, ([row[col] for col in SUMMARY_COLUMNS] for row in rows))
    _write_atomic(os.path.join(out_dir, "summary.csv"), summary)
    return rows
