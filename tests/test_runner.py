import json
import math

import numpy as np
import pytest

from metasim import (
    Cohort,
    IntegrationBlowupError,
    ModelParams,
    SolverSettings,
    TumorState,
)
from metasim import runner
from metasim.engine import initial_state, step
from metasim.model import _rk4_step, emission_rate
from metasim.runner import run_scenario, run_sweep
from metasim.scenarios import Scenario, SweepSpec, scenario_from_dict, scenario_to_dict


def _scenario(name="r", outputs=None, **params):
    kwargs = {}
    if outputs is not None:
        kwargs["outputs"] = tuple(outputs)
    return Scenario(
        name=name,
        params=ModelParams(**params),
        settings=SolverSettings(t_end=10.0),
        transient=2.0,
        **kwargs,
    )


class TestRunScenario:
    def test_output_subset_respected(self, tmp_path):
        result = run_scenario(_scenario(outputs=["timeseries"]), out_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["r_run.json", "r_timeseries.csv"]
        assert all(f in {str(tmp_path / n) for n in names} for f in result.files)

    def test_growth_exponent_null_when_rootless(self, tmp_path):
        # uncoupled but emission-free: the exponent field must appear
        # and be null rather than vanish or raise
        result = run_scenario(_scenario(e=0.0, m=0.0), out_dir=str(tmp_path))
        assert "lambda0" in result.metrics
        assert result.metrics["lambda0"] is None
        doc = json.loads((tmp_path / "r_metrics.json").read_text())
        assert doc["lambda0"] is None
        assert doc["largest_volume"] is None  # nothing was ever born

    def test_coupled_run_has_no_exponent_key(self, tmp_path):
        result = run_scenario(_scenario(), out_dir=str(tmp_path))
        assert "lambda0" not in result.metrics

    def test_blowup_writes_diagnostic_and_reraises(self, tmp_path):
        with pytest.raises(IntegrationBlowupError):
            run_scenario(_scenario(b=1e8), out_dir=str(tmp_path))
        doc = json.loads((tmp_path / "r_error.json").read_text())
        assert doc["error"] == "integration-blowup"

    @pytest.mark.parametrize(
        "params,reason",
        [({"b": 1e9}, "non-finite-state"), ({"m": 500.0}, "birth-term-limit")],
    )
    def test_blowup_reports_the_check_and_the_last_sample(self, tmp_path, params, reason):
        with pytest.raises(IntegrationBlowupError) as exc:
            run_scenario(_scenario(**params), out_dir=str(tmp_path))
        doc = json.loads((tmp_path / "r_error.json").read_text())
        assert doc["reason"] == exc.value.reason == reason
        last = doc["last_sample"]
        assert last == exc.value.last_sample
        assert sorted(last) == ["I", "M", "N", "Vp", "n_live", "t"]
        assert all(math.isfinite(v) for v in last.values())
        assert last["t"] < doc["t"]

    def test_run_json_reports_diagnostics(self, tmp_path):
        # linear model, so every newborn has one state and one birth
        # denominator; two cohorts start below the floor and five sit
        # just above V0 with K < V, so they exit through it
        p = ModelParams(e=0.0)
        light = (Cohort(0.0, 4e-4, TumorState(0.5, 0.6)), Cohort(0.0, 3e-4, TumorState(1.0, 1.2)))
        edge = tuple(
            Cohort(0.0, 0.05, TumorState(p.V0 * f, 0.9 * p.V0 * f))
            for f in (1.0005, 1.001, 1.0015, 1.002, 1.003)
        )
        settings = SolverSettings(dt=1e-2, t_end=0.05, sample_every=1e-2, weight_floor=1e-3)
        sc = Scenario(
            name="r", params=p, settings=settings, initial_cohorts=light + edge,
            outputs=("timeseries",),
        )
        result = run_scenario(sc, out_dir=str(tmp_path))
        diag = json.loads((tmp_path / "r_run.json").read_text())["diagnostics"]

        s = initial_state(p, light + edge)
        live = [s.w.size]
        for _ in range(settings.n_steps):
            s = step(s, p, settings.dt, weight_floor=settings.weight_floor)
            live.append(s.w.size)
        assert diag["peak_live"] == max(live) > live[-1] == diag["final_live"]
        assert diag["final_live"] == result.final_state.w.size
        Vn, _ = _rk4_step(p.V0, p.K0, p.b, 0.0, 0.5 * settings.dt)
        beta_n = emission_rate(Vn, p)
        assert diag["min_birth_denominator"] == 1.0 - 0.5 * settings.dt * beta_n
        traj = result.trajectory
        gap = np.abs(traj.born - traj.exited - traj.N)
        assert diag["max_conservation_gap"] == gap.max() <= 1e-12
        assert diag["pruned_weight"] == pytest.approx(7e-4, rel=1e-15)
        assert result.final_state.exited_count == pytest.approx(0.2507, rel=1e-15)

    def test_run_json_counts_the_steps_that_ran(self, tmp_path):
        # 1.0 / 0.3 is not a whole number of steps: the run rounds up
        # to 4 steps and ends at t = 1.2
        sc = Scenario(
            name="r",
            settings=SolverSettings(dt=0.3, t_end=1.0, sample_every=0.3),
            outputs=("timeseries",),
        )
        result = run_scenario(sc, out_dir=str(tmp_path))
        meta = json.loads((tmp_path / "r_run.json").read_text())
        assert meta["n_steps"] == 4
        assert meta["final"]["t"] == pytest.approx(1.2)
        assert result.trajectory.times[-1] == pytest.approx(1.2)

    def test_result_carries_trajectory_and_final_state(self, tmp_path):
        result = run_scenario(_scenario(), out_dir=str(tmp_path))
        assert result.trajectory.times[-1] == pytest.approx(10.0)
        assert result.final_state.t == pytest.approx(10.0)
        assert result.metrics["min_after_transient"] >= 0.0


class TestRunSweep:
    def test_rows_in_axis_order_with_summary(self, tmp_path):
        sw = SweepSpec(base=_scenario(), axis="e", values=(2.0, 0.5), parallelism=1)
        rows = run_sweep(sw, out_dir=str(tmp_path))
        assert [r["value"] for r in rows] == [2.0, 0.5]
        assert all(r["error"] is None for r in rows)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("2.0,")

    def test_failed_point_recorded_in_row(self, tmp_path):
        sw = SweepSpec(base=_scenario(), axis="b", values=(1.0, 1e9), parallelism=1)
        rows = run_sweep(sw, out_dir=str(tmp_path))
        assert rows[0]["error"] is None
        assert "IntegrationBlowupError" in rows[1]["error"]
        assert (tmp_path / "b=1e+09" / "r_b=1e+09_error.json").exists()

    def test_unexpected_exception_stays_in_row(self, tmp_path, monkeypatch):
        real_run = runner.run_scenario

        def failing_at_half(sc, out_dir="."):
            if sc.params.e == 0.5:
                raise OSError("disk full")
            return real_run(sc, out_dir=out_dir)

        monkeypatch.setattr(runner, "run_scenario", failing_at_half)
        sw = SweepSpec(base=_scenario(), axis="e", values=(2.0, 0.5, 1.0), parallelism=1)
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        assert [r["value"] for r in rows] == [2.0, 0.5, 1.0]
        assert [r["error"] for r in rows] == [None, "OSError: disk full", None]
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("0.5,") and lines[2].endswith(",OSError: disk full")
        assert lines[3].startswith("1.0,") and lines[3].endswith(",")
        doc = json.loads((tmp_path / "e=0.5" / "r_e=0.5_error.json").read_text())
        assert doc["error"] == "exception"
        assert (doc["type"], doc["message"]) == ("OSError", "disk full")
        assert "failing_at_half" in doc["traceback"]
        assert not (tmp_path / "e=2" / "r_e=2_error.json").exists()

    @pytest.mark.parametrize(
        "axis,values", [("e", (0.1, 2.0)), ("b", (0.5, 2.0)), ("m", (1e-5, 3.0))]
    )
    def test_point_run_json_scenario_reloads(self, tmp_path, axis, values):
        sw = SweepSpec(base=_scenario(outputs=["metrics"]), axis=axis, values=values)
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        assert all(r["error"] is None for r in rows)
        for sc, value in zip(sw.scenarios(), values):
            point_dir = tmp_path / f"{axis}={value:g}"
            meta = json.loads((point_dir / f"{sc.name}_run.json").read_text())
            assert scenario_to_dict(scenario_from_dict(meta["scenario"])) == scenario_to_dict(sc)


class TestAtomicArtifacts:
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        real_dec = runner._dec
        calls = []

        def dec_failing_on_fifth(x):
            calls.append(x)
            if len(calls) == 5:
                raise RuntimeError("interrupted")
            return real_dec(x)

        monkeypatch.setattr(runner, "_dec", dec_failing_on_fifth)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_scenario(_scenario(outputs=["timeseries"]), out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(runner.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            run_scenario(_scenario(outputs=["timeseries"]), out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []
