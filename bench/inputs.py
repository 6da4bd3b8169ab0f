"""Seeded input files for the benchmark workloads.

Every file the program reads is generated here from the workload seed;
the same seed gives byte-identical files. Continuous parameters are
drawn log-uniformly with one draw per equal-width stratum of the log
range (a stratified sample), so a run's total cost does not hinge on
how many draws happen to land in the slow corner of the range. Nothing
is filtered after drawing: sweep values are used as drawn even where
the program's ``{value:g}`` point names could collide.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SWEEP_POINTS = 7
LAMBDA0_STRATA = 10
DENSE_T_END = 100.0


def rng_for(workload: str, seed: int, batch: int = 0) -> random.Random:
    """Independent stream per (workload, seed, batch); string seeds are
    hashed with SHA-512 by ``random``, so streams are stable across
    processes and interpreter versions."""
    return random.Random(f"metasim-bench:{workload}:{seed}:{batch}")


def stratified_log_uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform draw inside each of ``n`` equal log-width strata
    of [lo, hi], in ascending order."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


def base_run(seed: int) -> dict:
    """Catalog ``base`` with every output; the seed draws only options
    that leave the dynamics alone (analysis window, bins, y scale)."""
    rng = rng_for("base-run", seed)
    return {
        "name": "base",
        "outputs": ["timeseries", "histogram", "metrics", "plots"],
        "transient": round(rng.uniform(25.0, 75.0), 3),
        "n_bins": rng.randint(20, 60),
        "log_scale": rng.random() < 0.5,
    }


def dense_cohorts(seed: int) -> dict:
    """Deep-seed regime (V0 = 1e-4, K0 = 1e-3): no cohort ever exits, so
    one cohort per step stays live. The seed draws e and m
    log-uniformly from [0.5, 2]."""
    rng = rng_for("dense-cohorts", seed)
    e, m = (math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for _ in range(2))
    return {
        "name": "dense-cohorts",
        "params": {"V0": 1e-4, "K0": 1e-3, "e": e, "m": m},
        "settings": {"t_end": DENSE_T_END},
        "outputs": ["timeseries", "histogram", "metrics"],
    }


def e_sweep(seed: int) -> dict:
    """Catalog ``base`` swept over ``SWEEP_POINTS`` values of e drawn
    log-uniformly from [0.1, 10]."""
    rng = rng_for("e-sweep", seed)
    return {
        "base": "base",
        "axis": "e",
        "values": stratified_log_uniform(rng, 0.1, 10.0, SWEEP_POINTS),
    }


def lambda0_batch(seed: int, batch: int) -> list[dict]:
    """Uncoupled parameter sets for one batch of ``metasim lambda0``.

    The fixed anchor (reference parameters, b = 1) comes first; then
    ``LAMBDA0_STRATA`` values of b drawn log-uniformly from [0.1, 10].
    Each batch draws new values, so every set is a new flow-cache key.
    """
    rng = rng_for("lambda0-cold", seed, batch)
    sets = [{"name": "anchor", "params": {"e": 0.0}}]
    for i, b in enumerate(stratified_log_uniform(rng, 0.1, 10.0, LAMBDA0_STRATA)):
        sets.append({"name": f"b{i}", "params": {"e": 0.0, "b": b}})
    return sets


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def write_lambda0_batch(seed: int, batch: int, directory: Path) -> list[Path]:
    return [
        write_json(directory / f"batch{batch}" / f"{doc['name']}.json", doc)
        for doc in lambda0_batch(seed, batch)
    ]
