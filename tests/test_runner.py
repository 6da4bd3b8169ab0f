import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from metasim import (
    Cohort,
    ConfigurationError,
    IntegrationBlowupError,
    ModelParams,
    SolverSettings,
    TumorState,
)
from metasim import runner
from metasim.engine import initial_state, step
from metasim.model import _rk4_step, emission_rate
from metasim.runner import run_scenario, run_sweep
from metasim.scenarios import Scenario, SweepSpec, catalog, scenario_from_dict, scenario_to_dict
from metasim.spectral import malthus_exponent


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


S1200 = {
    "name": "s1200",
    "params": {"e": 0, "b": 1200},
    "settings": {"t_end": 1.0, "dt": 0.0005, "sample_every": 0.01},
    "transient": 0.2,
}

LIN_B_SWEEP = SweepSpec(
    base=scenario_from_dict(
        {"name": "lin", "params": {"e": 0}, "settings": {"t_end": 5.0}, "transient": 1.0}
    ),
    axis="b",
    values=(0.2, 0.5, 1.0, 2.0, 5.0),
)


@pytest.fixture()
def solves(monkeypatch):
    """The parameter sets the runner solves lambda0 for, in call order."""
    calls = []

    def counting(p):
        calls.append(p)
        return malthus_exponent(p)

    monkeypatch.setattr(runner, "malthus_exponent", counting)
    return calls


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

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                {"name": "late", "settings": {"t_end": 5.0}, "transient": 10.0},
                "window beyond transient=10 holds fewer than 3 samples",
            ),
            ({"name": "big", "params": {"V0": 1.5, "K0": 2.0}}, "histogram bins require V0 < 1"),
            # the loader already rejects n_bins = 0 in a scenario file
            (Scenario(name="bins", n_bins=0), "n_bins must be >= 1"),
            # and a fractional or bool one; the Python API takes both
            (Scenario(name="bins", n_bins=2.5), "n_bins must be an integer, got 2.5"),
            (Scenario(name="bins", n_bins=True), "n_bins must be an integer, got True"),
            # an uncoupled run's metrics hold lambda0, and this flow is too
            # stiff for the spectral solver
            (S1200, "metrics need lambda0: the growth flow for b=1200 takes more"),
        ],
    )
    def test_configuration_errors_raise_before_the_run(self, tmp_path, no_steps, raw, message):
        sc = raw if isinstance(raw, Scenario) else scenario_from_dict(raw)
        with pytest.raises(ConfigurationError, match=message):
            run_scenario(sc, out_dir=str(tmp_path / "out"))
        assert not list(tmp_path.rglob("*.*"))

    @pytest.mark.parametrize(
        "raw",
        [
            {"name": "late", "settings": {"t_end": 5.0}, "transient": 10.0},
            {"name": "big", "params": {"V0": 1.5, "K0": 2.0}, "settings": {"t_end": 5.0}},
        ],
    )
    def test_only_requested_outputs_are_checked(self, tmp_path, raw):
        sc = scenario_from_dict(raw | {"outputs": ["timeseries"]})
        result = run_scenario(sc, out_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"{sc.name}_run.json", f"{sc.name}_timeseries.csv"]
        assert result.metrics is None

    def test_a_flat_series_far_from_zero_keeps_every_plot(self, tmp_path):
        # N stays at 1e16, where a pad of 0.5 either side rounds away
        sc = scenario_from_dict(
            {
                "name": "heavy",
                "params": {"m": 0.0, "e": 0.0},
                "initial_cohorts": [{"weight": 1e16, "V": 0.5, "K": 1.0}],
                "settings": {"t_end": 5.0},
                "transient": 1.0,
            }
        )
        result = run_scenario(sc, out_dir=str(tmp_path))
        assert len(result.files) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"heavy_{suffix}"
            for suffix in (
                "timeseries.csv", "histogram.csv", "metrics.json", "run.json",
                "M.svg", "N.svg", "I.svg", "Vp.svg",
            )
        )

    def test_window_check_counts_the_simulated_grid(self, tmp_path):
        sc = _scenario(outputs=["metrics"])
        times = run_scenario(sc, out_dir=str(tmp_path)).trajectory.times
        run_scenario(replace(sc, transient=float(times[-3])), out_dir=str(tmp_path))
        late = replace(sc, transient=float(np.nextafter(times[-3], np.inf)))
        with pytest.raises(ConfigurationError, match="fewer than 3 samples"):
            run_scenario(late, out_dir=str(tmp_path))

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
        assert diag["pruned_weight"] == pytest.approx(7e-4, rel=1e-15, abs=0)
        assert result.final_state.exited_count == pytest.approx(0.2507, rel=1e-15, abs=0)

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

    def test_summary_row_has_metrics_the_outputs_omit(self, tmp_path):
        sw = SweepSpec(base=_scenario(outputs=["timeseries"]), axis="e", values=(0.5,))
        (row,) = run_sweep(sw, out_dir=str(tmp_path))
        assert row["error"] is None and row["min_after_transient"] >= 0.0
        assert sorted(p.name for p in (tmp_path / "e=0.5").iterdir()) == [
            "r_e=0.5_run.json",
            "r_e=0.5_timeseries.csv",
        ]

    def test_a_point_whose_lambda0_fails_is_refused_before_any_directory(
        self, tmp_path, no_steps
    ):
        base = S1200 | {"outputs": ["timeseries"]}
        sw = SweepSpec(base=scenario_from_dict(base), axis="b", values=(1.0, 1200.0))
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match="sweep point b=1200: metrics need lambda0"):
            run_sweep(sw, out_dir=str(out))
        assert not out.exists()

    def test_failed_point_recorded_in_row(self, tmp_path):
        sw = SweepSpec(base=_scenario(), axis="b", values=(1.0, 1e9), parallelism=1)
        rows = run_sweep(sw, out_dir=str(tmp_path))
        assert rows[0]["error"] is None
        assert "IntegrationBlowupError" in rows[1]["error"]
        doc = json.loads((tmp_path / "b=1e+09" / "r_b=1e+09_error.json").read_text())
        assert list(doc) == ["name", "error", "t", "reason", "last_sample"]
        assert (doc["error"], doc["reason"]) == ("integration-blowup", "non-finite-state")
        first = {"t": 0.0, "M": 0.0, "N": 0.0, "I": 0.0, "Vp": 0.1, "n_live": 0}
        assert doc["last_sample"] == first
        assert doc["last_sample"]["t"] < doc["t"]

    def test_a_point_keeps_its_own_error_when_its_error_file_cannot_be_written(
        self, tmp_path, monkeypatch
    ):
        real_write = runner._write_atomic

        def no_error_files(path, text):
            if path.endswith("_error.json"):
                raise OSError("disk full")
            return real_write(path, text)

        monkeypatch.setattr(runner, "_write_atomic", no_error_files)
        sw = SweepSpec(base=_scenario(), axis="b", values=(1.0, 1e9))
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        assert rows[0]["error"] is None
        assert rows[1]["error"] == "IntegrationBlowupError: non-finite state at t=0.01"
        assert sorted(p.name for p in (tmp_path / "b=1e+09").iterdir()) == []
        # a lone run reports the failed write, so the CLI exits 4
        with pytest.raises(OSError, match="disk full"):
            run_scenario(sw.scenarios()[1], out_dir=str(tmp_path / "solo"))

    @pytest.mark.parametrize("jobs", [2.5, True, 0])
    def test_jobs_must_be_an_integer_of_at_least_1(self, tmp_path, jobs):
        # 2.5 used to die in _chunks after making out_dir, and True ran as 1
        sw = SweepSpec(base=_scenario(), axis="e", values=(0.5, 1.0, 2.0))
        with pytest.raises(ConfigurationError, match="jobs must be"):
            run_sweep(sw, out_dir=str(tmp_path / "out"), jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_cohorts_given_as_a_list_group_like_a_tuple(self, tmp_path):
        # a list of cohorts was unhashable and failed the sweep's grouping
        cohort = Cohort(birth_time=0.0, weight=1.0, state=TumorState(V=0.5, K=1.0))
        base = replace(_scenario(outputs=["timeseries"]), initial_cohorts=[cohort])
        assert base.initial_cohorts == (cohort,)
        rows = run_sweep(SweepSpec(base=base, axis="e", values=(0.5, 2.0)), str(tmp_path))
        assert [r["error"] for r in rows] == [None, None]

    def test_unexpected_exception_stays_in_row(self, tmp_path, monkeypatch):
        # the sweep writes each point through the writer run_scenario uses
        real_write = runner._write_run

        def failing_at_half(sc, *args):
            if sc.params.e == 0.5:
                raise OSError("disk full")
            return real_write(sc, *args)

        monkeypatch.setattr(runner, "_write_run", failing_at_half)
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

    def test_an_error_no_member_owns_reruns_each_point_solo(self, tmp_path, monkeypatch):
        real_ensemble = runner.simulate_ensemble
        calls = []

        def failing_when_shared(params, *args):
            calls.append(len(params))
            if len(params) > 1 or params[0].e == 0.5:
                raise RuntimeError("ensemble failed")
            return real_ensemble(params, *args)

        monkeypatch.setattr(runner, "simulate_ensemble", failing_when_shared)
        sw = SweepSpec(base=_scenario(outputs=["timeseries"]), axis="e", values=(2.0, 0.5, 1.0))
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        assert calls == [3, 1, 1, 1]
        assert [r["error"] for r in rows] == [None, "RuntimeError: ensemble failed", None]
        doc = json.loads((tmp_path / "e=0.5" / "r_e=0.5_error.json").read_text())
        assert (doc["type"], doc["message"]) == ("RuntimeError", "ensemble failed")
        for label in ("e=2", "e=1"):
            meta = json.loads((tmp_path / label / f"r_{label}_run.json").read_text())
            assert meta["ensemble_size"] == 1
            solo = run_scenario(
                replace(sw.base, name=f"r_{label}", params=ModelParams(e=float(label[2:])),
                        outputs=("timeseries",)),
                out_dir=str(tmp_path / "solo"),
            )
            assert (tmp_path / label / f"r_{label}_timeseries.csv").read_bytes() == (
                tmp_path / "solo" / f"r_{label}_timeseries.csv"
            ).read_bytes()
            assert solo.trajectory.diagnostics == meta["diagnostics"]

    def test_points_group_by_what_they_share_and_split_per_job(self):
        base = _scenario()
        tasks = [(replace(base, params=ModelParams(**kw)), 0.0, "") for kw in (
            dict(e=1.0), dict(b=2.0), dict(V0=0.05), dict(m=3.0), dict(k=2.0),
            dict(alpha=0.5), dict(e=4.0), dict(e=5.0), dict(K0=0.3),
        )]
        # V0, alpha and K0 each start a group of their own
        assert runner._chunks(tasks, 1) == [[0, 1, 3, 4, 6, 7], [2], [5], [8]]
        # a group is dealt by stride, so points dear at one end of the
        # axis spread over the chunks
        assert runner._chunks(tasks, 2) == [[0, 3, 6], [1, 4, 7], [2], [5], [8]]
        assert runner._chunks(tasks[:1] * 7, 2) == [[0, 2, 4, 6], [1, 3, 5]]
        assert runner._chunks(tasks[:1] * 7, 3) == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused_before_any_directory(self, tmp_path, jobs):
        sw = SweepSpec(base=_scenario(), axis="e", values=(0.5, 1.0))
        with pytest.raises(ConfigurationError, match="jobs"):
            run_sweep(sw, out_dir=str(tmp_path / "out"), jobs=jobs)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis,values", [("e", (0.1, 2.0)), ("b", (0.5, 2.0)), ("m", (1e-5, 3.0))]
    )
    def test_point_run_json_scenario_reloads(self, tmp_path, axis, values):
        sw = SweepSpec(base=_scenario(outputs=["metrics"]), axis=axis, values=values)
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        assert all(r["error"] is None for r in rows)
        for sc, value in zip(sw.scenarios(), values):
            point_dir = tmp_path / sw.point_label(value)
            meta = json.loads((point_dir / f"{sc.name}_run.json").read_text())
            assert scenario_to_dict(scenario_from_dict(meta["scenario"])) == scenario_to_dict(sc)


class TestOneLambda0Solve:
    """The pre-run check's root is the one the metrics and the summary
    row report: nothing solves lambda0 after the run."""

    def test_a_run_with_every_output_solves_once(self, tmp_path, solves):
        sc = next(sc for sc in catalog() if sc.name == "linear")
        assert set(sc.outputs) == {"timeseries", "histogram", "metrics", "plots"}
        result = run_scenario(sc, out_dir=str(tmp_path))
        assert solves == [sc.params]
        assert result.metrics["lambda0"] == malthus_exponent(sc.params).lambda0

    def test_a_sweep_solves_once_per_point(self, tmp_path, solves):
        rows = run_sweep(LIN_B_SWEEP, out_dir=str(tmp_path), jobs=1)
        assert [r["error"] for r in rows] == [None] * len(LIN_B_SWEEP.values)
        assert [p.b for p in solves] == list(LIN_B_SWEEP.values)

    def test_a_point_reports_the_lambda0_of_its_reloaded_scenario(self, tmp_path):
        sw = LIN_B_SWEEP
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        for sc, value, row in zip(sw.scenarios(), sw.values, rows):
            point_dir = tmp_path / sw.point_label(value)
            meta = json.loads((point_dir / f"{sc.name}_run.json").read_text())
            doc = json.loads((point_dir / f"{sc.name}_metrics.json").read_text())
            lambda0 = malthus_exponent(scenario_from_dict(meta["scenario"]).params).lambda0
            assert doc["lambda0"] == row["lambda0"] == lambda0, value


class TestCsvText:
    def test_cells_are_shortest_decimals_quoted_strings_or_empty(self):
        error = 'ValueError: a, "b"\nc'
        row = [0.1, None, 1e22, -0.0, 5e-324, math.inf, math.nan, error]
        text = runner._csv_text(runner.SUMMARY_COLUMNS, [row])
        assert text == (
            "value,lambda0,mean_period,amplitude,min_after_transient,max_M,largest_volume,error\n"
            '0.1,,1e+22,-0.0,5e-324,inf,nan,"ValueError: a, ""b""\nc"\n'
        )

    def test_a_summary_error_cell_with_a_comma_a_quote_and_a_newline_reads_back(
        self, tmp_path, monkeypatch
    ):
        def failing(sc, *args):
            raise ValueError('a, "b"\nc')

        monkeypatch.setattr(runner, "_write_run", failing)
        sw = SweepSpec(base=_scenario(), axis="e", values=(0.5, 2.0))
        rows = run_sweep(sw, out_dir=str(tmp_path), jobs=1)
        row = ',,,,,,,"ValueError: a, ""b""\nc"\n'
        text = (tmp_path / "summary.csv").read_bytes().decode()
        assert text == ",".join(runner.SUMMARY_COLUMNS) + "\n0.5" + row + "2.0" + row
        with open(tmp_path / "summary.csv", newline="") as fh:
            cells = [r[-1] for r in csv.reader(fh)][1:]
        assert cells == [r["error"] for r in rows] == ['ValueError: a, "b"\nc'] * 2


class TestAtomicArtifacts:
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        real_csv_text = runner._csv_text

        def csv_text_failing_on_fifth_row(header, rows):
            def until_fifth():
                for i, row in enumerate(rows):
                    if i == 4:
                        raise RuntimeError("interrupted")
                    yield row

            return real_csv_text(header, until_fifth())

        monkeypatch.setattr(runner, "_csv_text", csv_text_failing_on_fifth_row)
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
