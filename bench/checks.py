"""Output checks on the artifacts and printed results of each workload.

Every check returns a list of problems; an empty list means the output
is correct. The checks read only what the program wrote, and rely on
the artifact contract in the README (file suffixes, CSV columns,
``run.json`` keys), not on how sweep point directories are named.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CONSERVATION_TOL = 1e-9
FROZEN_REL = 1e-9
# base scenario at t = 7 (dt = 0.01), frozen in tests/test_engine.py
FROZEN_T7 = {"M": 1.1127248210955996, "N": 8.447439780093095}
# reference uncoupled parameters, frozen in tests/test_spectral.py
FROZEN_LAMBDA0 = 0.4292814661422716
RESIDUAL_TOL = 1e-10
RUN_SUFFIXES = (
    "timeseries.csv",
    "histogram.csv",
    "metrics.json",
    "M.svg",
    "N.svg",
    "I.svg",
    "Vp.svg",
    "run.json",
)


def read_rows(path: Path) -> list[dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def conservation(path: Path) -> list[str]:
    """Every timeseries row satisfies born_cum == exited_cum + N."""
    try:
        rows = read_rows(path)
    except (OSError, ValueError, TypeError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not rows:
        return [f"{path.name}: no rows"]
    problems = []
    for i, r in enumerate(rows):
        gap = abs(r["born_cum"] - r["exited_cum"] - r["N"])
        if not gap <= CONSERVATION_TOL:
            problems.append(f"{path.name} row {i}: born - exited - N = {gap:.3e}")
            break
    return problems


def frozen_t7(path: Path) -> list[str]:
    """The row at t = 7 reproduces the frozen M and N."""
    try:
        rows = read_rows(path)
    except (OSError, ValueError, TypeError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    at7 = [r for r in rows if abs(r["t"] - 7.0) < 1e-9]
    if len(at7) != 1:
        return [f"{path.name}: expected one row at t = 7, found {len(at7)}"]
    return [
        f"{path.name}: {key}(7) = {at7[0][key]!r}, frozen {want!r}"
        for key, want in FROZEN_T7.items()
        if not math.isclose(at7[0][key], want, rel_tol=FROZEN_REL)
    ]


def run_artifacts(out_dir: Path, name: str) -> list[str]:
    """A full-output run left every artifact, none of them empty."""
    problems = []
    for suffix in RUN_SUFFIXES:
        p = out_dir / f"{name}_{suffix}"
        if not p.is_file() or p.stat().st_size == 0:
            problems.append(f"missing or empty artifact {p.name}")
    return problems


def base_run(out_dir: Path, name: str, reference_csv: bytes | None) -> list[str]:
    """Full artifact set, frozen t = 7 row, conservation, and a
    timeseries byte-identical to the run's first iteration."""
    problems = run_artifacts(out_dir, name)
    ts = out_dir / f"{name}_timeseries.csv"
    if not ts.is_file():
        return problems
    problems += frozen_t7(ts) + conservation(ts)
    if reference_csv is not None and ts.read_bytes() != reference_csv:
        problems.append(f"{ts.name} differs from the first iteration's bytes")
    return problems


def dense_cohorts(out_dir: Path, name: str, min_live: int) -> list[str]:
    """Conservation, and the workload's defining property: at least
    ``min_live`` cohorts live at the end."""
    problems = conservation(out_dir / f"{name}_timeseries.csv")
    try:
        n_live = json.loads((out_dir / f"{name}_run.json").read_text())["final"]["n_live"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"run.json unreadable: {exc}"]
    if n_live < min_live:
        problems.append(f"{n_live} live cohorts at the end, workload needs >= {min_live}")
    return problems


def sweep(out_dir: Path, axis: str, values: list[float]) -> list[str]:
    """summary.csv has one error-free row per value in axis order, and
    each value has its own point directory holding a full, conserving
    artifact set."""
    problems = []
    try:
        with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"summary.csv unreadable: {exc}"]
    got = []
    for i, row in enumerate(rows):
        if row.get("error"):
            problems.append(f"summary row {i} carries error {row['error']!r}")
        try:
            got.append(float(row["value"]))
        except (KeyError, TypeError, ValueError):
            problems.append(f"summary row {i} has no numeric value")
    if got != values:
        problems.append(f"summary values {got} differ from the sweep's {values}")

    seen = []
    for point in sorted(p for p in out_dir.iterdir() if p.is_dir()):
        metas = list(point.glob("*_run.json"))
        if len(metas) != 1:
            problems.append(f"{point.name}: expected one run.json, found {len(metas)}")
            continue
        name = metas[0].name[: -len("_run.json")]
        try:
            seen.append(json.loads(metas[0].read_text())["scenario"]["params"][axis])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{point.name}: run.json unreadable: {exc}")
        problems += [f"{point.name}: {p}" for p in run_artifacts(point, name)]
        problems += [f"{point.name}: {p}" for p in conservation(point / f"{name}_timeseries.csv")]
    if sorted(seen) != sorted(values):
        problems.append(f"point directories hold {axis} = {sorted(seen)}, want {sorted(values)}")
    return problems


def lambda0(docs: dict[str, dict], anchor: str) -> list[str]:
    """Each solve converged below the residual tolerance, and the anchor
    reproduces the frozen exponent."""
    problems = []
    for name, doc in docs.items():
        res = doc.get("residual")
        if not (isinstance(res, (int, float)) and abs(res) < RESIDUAL_TOL):
            problems.append(f"{name}: residual {res!r} not below {RESIDUAL_TOL:g}")
    lam = docs.get(anchor, {}).get("lambda0")
    if not (isinstance(lam, float) and math.isclose(lam, FROZEN_LAMBDA0, rel_tol=FROZEN_REL)):
        problems.append(f"{anchor}: lambda0 {lam!r}, frozen {FROZEN_LAMBDA0!r}")
    return problems
