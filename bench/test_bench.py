"""Tests of the benchmark's own code: seeded inputs, declared metric
names, span accounting, and that each output check rejects a corrupted
artifact.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from metasim import Scenario, SolverSettings, run_scenario, run_sweep  # noqa: E402
from metasim.cli import main as cli_main  # noqa: E402
from metasim.scenarios import SweepSpec  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


def _write_all(seed: int, directory: Path) -> dict[str, bytes]:
    files = [
        inputs.write_json(directory / "base.json", inputs.base_run(seed)),
        inputs.write_json(directory / "dense.json", inputs.dense_cohorts(seed)),
        inputs.write_json(directory / "sweep.json", inputs.e_sweep(seed)),
        *inputs.write_lambda0_batch(seed, 0, directory),
        *inputs.write_lambda0_batch(seed, 1, directory),
    ]
    return {str(p.relative_to(directory)): p.read_bytes() for p in files}


class TestInputs:
    def test_seed_reproduces_inputs_byte_for_byte(self, tmp_path):
        assert _write_all(7, tmp_path / "a") == _write_all(7, tmp_path / "b")

    def test_other_seed_draws_other_inputs(self, tmp_path):
        a = _write_all(7, tmp_path / "a")
        b = _write_all(8, tmp_path / "b")
        assert a.keys() == b.keys()
        assert [k for k in a if a[k] == b[k]] == ["batch0/anchor.json", "batch1/anchor.json"]

    def test_batches_are_new_flow_cache_keys(self):
        bs = [
            doc["params"]["b"]
            for k in range(3)
            for doc in inputs.lambda0_batch(5, k)
            if "b" in doc["params"]
        ]
        assert len(set(bs)) == len(bs) == 3 * inputs.LAMBDA0_STRATA
        assert all(0.1 <= b <= 10.0 for b in bs)

    def test_sweep_values_are_stratified_over_the_range(self):
        values = inputs.e_sweep(3)["values"]
        assert len(values) == inputs.SWEEP_POINTS
        edges = [0.1 * 100 ** (i / inputs.SWEEP_POINTS) for i in range(inputs.SWEEP_POINTS + 1)]
        assert all(lo <= v < hi for v, lo, hi in zip(values, edges, edges[1:]))


class TestMetricNames:
    def _ops(self):
        op = {
            "index": 0,
            "traced": False,
            "wall": 2.0,
            "ref": run.REF_S,
            "rss_mib": 100.0,
            "steps": 100,
            "problems": [],
            "payload": {"docs": {"anchor": {"quadrature_nodes": 11}}},
            "metas": [{"runtime_s": 1.5, "n_steps": 100, "final": {"n_live": 3}}],
            "artifact_bytes": 10,
            "spans": [],
        }
        traced = dict(op, index=1, traced=True, spans=[
            {"id": 0, "name": "bench.op", "start": 0.0, "end": 2.0, "parent": None},
            {"id": 1, "name": "engine.simulate", "start": 0.5, "end": 1.5, "parent": 0},
        ])
        return [op, traced]

    def test_declared_names_are_well_formed_and_unique(self):
        declared = run.load_declared()
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in declared[kind]]
        assert len(names) == len(set(names))
        assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)

    @pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
    def test_printed_metrics_are_exactly_the_declared_ones(self, workload, tmp_path):
        w = run.WORKLOADS[workload](1, tmp_path, 2)
        w.prepare()
        probes = [{"setup_s": 1.0, "import_s": 0.9, "load_s": 0.01, "ref": run.REF_S}]
        declared = run.load_declared()
        e2e = run.as_metrics(run.end_to_end_values(probes, self._ops()), declared["end_to_end"])
        layers = run.as_metrics(
            run.per_layer_values(w, probes, self._ops()), declared["per_layer"]
        )
        for metrics, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
            assert list(metrics) == [m["name"] for m in declared[kind]]
            assert all(isinstance(m["value"], (int, float)) for m in metrics.values())

    def test_times_are_scaled_to_reference_speed(self, tmp_path):
        w = run.WORKLOADS["base-run"](1, tmp_path, 2)
        slow = [dict(op, ref=2 * run.REF_S) for op in self._ops()]
        probes = [{"setup_s": 1.0, "import_s": 0.9, "load_s": 0.01, "ref": 2 * run.REF_S}]
        e2e = run.end_to_end_values(probes, slow)
        assert e2e["wall_s"] == 1.0 and e2e["setup_s"] == 0.5
        assert e2e["steps_per_s"] == 100.0
        layers = run.per_layer_values(w, probes, slow)
        assert layers["engine.simulate_self_s"] == 0.5
        assert layers["host.ref_s"] == 2 * run.REF_S

    def test_undeclared_metric_is_refused(self):
        with pytest.raises(RuntimeError):
            run.as_metrics({"wall_s": 1.0, "bogus": 2.0}, [{"name": "wall_s", "unit": "s"}])

    def test_benchmark_json_command_stays_inside_its_paths(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert doc["command"][1].startswith(doc["paths"][0] + "/")
        assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        s = [
            {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
            {"id": 1, "name": "b", "start": 1.0, "end": 5.0, "parent": 0},
            {"id": 2, "name": "c", "start": 2.0, "end": 3.0, "parent": 1},
            {"id": 3, "name": "b", "start": 6.0, "end": 7.0, "parent": 0},
        ]
        assert spans.self_times(s) == {"a": 5.0, "b": 4.0, "c": 1.0}
        assert sum(spans.self_times(s).values()) == 10.0
        assert spans.call_counts(s) == {"a": 1, "b": 2, "c": 1}

    def test_rebound_traces_and_restores(self):
        mod = types.SimpleNamespace(f=lambda x: x + 1)
        original = mod.f
        tracer = spans.Tracer()
        with spans.rebound([(mod, "f", tracer.wrapper("m.f"))]):
            assert mod.f(1) == 2
        assert mod.f is original
        assert [(s["name"], s["parent"]) for s in tracer.spans] == [("m.f", None)]

    def test_rebound_skips_names_the_module_lacks(self):
        mod = types.SimpleNamespace()
        with spans.rebound([(mod, "gone", spans.Tracer().wrapper("m.gone"))]):
            assert not hasattr(mod, "gone")


class TestChecks:
    @pytest.fixture(scope="class")
    def base_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("base")
        run_scenario(Scenario(name="base", settings=SolverSettings(t_end=7.0)), out_dir=str(out))
        return out

    def _copy(self, src: Path, tmp_path: Path) -> Path:
        dst = tmp_path / "copy"
        shutil.copytree(src, dst)
        return dst

    @staticmethod
    def _edit_row(path: Path, t: float, column: str, factor: float):
        lines = path.read_text().splitlines()
        cols = lines[0].split(",")
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if abs(float(cells[0]) - t) < 1e-9:
                j = cols.index(column)
                cells[j] = repr(float(cells[j]) * factor)
                lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_pristine_base_run_passes(self, base_dir):
        ref = (base_dir / "base_timeseries.csv").read_bytes()
        assert checks.base_run(base_dir, "base", ref) == []

    def test_frozen_row_catches_a_changed_burden(self, base_dir, tmp_path):
        d = self._copy(base_dir, tmp_path)
        self._edit_row(d / "base_timeseries.csv", 7.0, "M", 1 + 1e-8)
        assert any("M(7)" in p for p in checks.base_run(d, "base", None))

    def test_conservation_catches_a_changed_counter(self, base_dir, tmp_path):
        d = self._copy(base_dir, tmp_path)
        self._edit_row(d / "base_timeseries.csv", 3.0, "born_cum", 1 + 1e-6)
        assert any("born - exited" in p for p in checks.base_run(d, "base", None))
        assert checks.dense_cohorts(d, "base", 1)

    def test_rerun_bytes_must_match(self, base_dir):
        ref = (base_dir / "base_timeseries.csv").read_bytes() + b"\n"
        assert any("first iteration" in p for p in checks.base_run(base_dir, "base", ref))

    def test_missing_plot_is_caught(self, base_dir, tmp_path):
        d = self._copy(base_dir, tmp_path)
        (d / "base_Vp.svg").unlink()
        assert checks.base_run(d, "base", None) == ["missing or empty artifact base_Vp.svg"]

    def test_dense_needs_its_live_cohorts(self, base_dir):
        n_live = json.loads((base_dir / "base_run.json").read_text())["final"]["n_live"]
        assert checks.dense_cohorts(base_dir, "base", n_live) == []
        assert checks.dense_cohorts(base_dir, "base", n_live + 1)

    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        base = Scenario(name="base", settings=SolverSettings(t_end=2.0))
        values = (0.2, 1.0, 5.0)
        run_sweep(SweepSpec(base=base, axis="e", values=values), out_dir=str(out), jobs=1)
        return out, list(values)

    def test_pristine_sweep_passes(self, sweep_dir):
        out, values = sweep_dir
        assert checks.sweep(out, "e", values) == []

    def test_sweep_catches_error_cell_and_order(self, sweep_dir, tmp_path):
        out, values = sweep_dir
        d = self._copy(out, tmp_path)
        lines = (d / "summary.csv").read_text().splitlines()
        lines[1] += "boom"
        (d / "summary.csv").write_text("\n".join(lines) + "\n")
        assert any("carries error" in p for p in checks.sweep(d, "e", values))
        assert any("differ" in p for p in checks.sweep(out, "e", values[::-1]))

    def test_sweep_catches_missing_point_artifact(self, sweep_dir, tmp_path):
        out, values = sweep_dir
        d = self._copy(out, tmp_path)
        next(d.glob("*/*_histogram.csv")).unlink()
        assert any("histogram.csv" in p for p in checks.sweep(d, "e", values))

    def test_sweep_catches_overwritten_point(self, sweep_dir, tmp_path):
        out, values = sweep_dir
        d = self._copy(out, tmp_path)
        shutil.rmtree(next(p for p in d.iterdir() if p.is_dir()))
        assert any("point directories" in p for p in checks.sweep(d, "e", values))

    @pytest.fixture(scope="class")
    def anchor_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("lam") / "anchor.json"
        inputs.write_json(path, inputs.lambda0_batch(1, 0)[0])
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["lambda0", str(path)]) == 0
        return json.loads(buf.getvalue())

    def test_pristine_lambda0_passes(self, anchor_doc):
        assert checks.lambda0({"anchor": anchor_doc}, "anchor") == []

    def test_lambda0_catches_residual_and_drift(self, anchor_doc):
        loose = dict(anchor_doc, residual=1e-8)
        drift = dict(anchor_doc, lambda0=anchor_doc["lambda0"] * (1 + 1e-8))
        assert checks.lambda0({"anchor": loose}, "anchor")
        assert checks.lambda0({"anchor": drift}, "anchor")
        assert checks.lambda0({}, "anchor")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "base-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
