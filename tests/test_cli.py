import json
import subprocess
import sys
import textwrap

import pytest

from metasim import cli, scenarios
from metasim.cli import main
from metasim.errors import IntegrationBlowupError
from metasim.runner import run_scenario
from metasim.scenarios import load_sweep

TIMESERIES_HEADER = "t,M,N,I,Vp,born_cum,exited_cum"
# an initial cohort below the domain edge V0 = 0.1
LOW = {
    "name": "low",
    "settings": {"t_end": 2.0},
    "initial_cohorts": [{"weight": 1.0, "V": 0.05, "K": 0.2}],
    "outputs": ["timeseries"],
}
# two finite initial weights whose sum overflows
HEAVY = {
    "name": "heavy",
    "initial_cohorts": [{"weight": 1e308, "V": 0.5, "K": 1.0}] * 2,
}
METRIC_KEYS = ["peaks", "mean_period", "amplitude", "min_after_transient", "largest_volume"]
# coarse steps whose RK4 update overshoots the domain: the inhibitor in
# the first two, the cohort's K in the third
COARSE = {"dt": 0.25, "t_end": 1.0, "sample_every": 0.25}
# what the package exports, in the order of metasim.__all__: errors,
# model, engine, observables, runner, scenarios and the three lazy
# spectral names
PUBLIC_NAMES = """
    MetasimError ConfigurationError InvalidStateError IntegrationBlowupError NotLinearError
    NoRootError
    ModelParams DimensionalParams TumorState growth_field emission_rate birth_state
    nondimensionalize local_inhibition_coefficient
    Cohort SystemState SolverSettings Trajectory initial_state total_burden inhibitor_rate
    birth_rate step simulate simulate_ensemble
    VolumeHistogram OscillationMetrics histogram oscillation_metrics fit_growth_rate
    RunResult run_scenario run_sweep
    Scenario SweepSpec catalog load_scenario load_sweep scenario_from_dict scenario_to_dict
    SpectralResult characteristic_flow malthus_exponent
""".split()
OVERSHOOT = {
    "neg_I": {
        "name": "neg_I", "params": {"b": 0.1, "e": 0.5, "k": 10}, "settings": COARSE,
        "initial_cohorts": [{"weight": 1, "V": 4, "K": 0.5}], "outputs": ["timeseries"],
    },
    "neg_I_final": {
        "name": "neg_I_final", "params": {"b": 0.1, "e": 0.5, "k": 10}, "settings": COARSE,
        "initial_cohorts": [{"weight": 4, "V": 8, "K": 0.5}], "outputs": ["timeseries"],
    },
    "neg_K": {
        "name": "neg_K", "params": {"b": 33, "e": 35, "k": 3, "m": 2.5},
        "settings": {"dt": 0.07, "t_end": 0.07, "sample_every": 0.07},
        "initial_cohorts": [{"weight": 0.45, "V": 2, "K": 0.8}], "outputs": ["timeseries"],
    },
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def quick_scenario(tmp_path):
    return _write(
        tmp_path / "quick.json",
        {"name": "quick", "settings": {"t_end": 10.0}, "transient": 2.0},
    )


class TestCatalog:
    def test_lists_names(self, capsys):
        assert main(["catalog"]) == 0
        names = capsys.readouterr().out.split()
        assert len(names) == 12
        assert names[0] == "base"

    def test_emit_writes_loadable_files(self, tmp_path, capsys):
        out = tmp_path / "cat"
        assert main(["catalog", "--emit", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 12
        doc = json.loads((out / "linear.json").read_text())
        assert doc["params"]["e"] == 0.0


class TestRun:
    def test_writes_contracted_artifacts(self, tmp_path, quick_scenario, capsys):
        out = tmp_path / "out"
        assert main(["run", quick_scenario, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "quick_timeseries.csv") in printed

        lines = (out / "quick_timeseries.csv").read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        assert len(lines) == 102  # header + t = 0..10 every 0.1
        for row in lines[1:]:
            assert len(row.split(",")) == 7
            [float(x) for x in row.split(",")]

        hist = (out / "quick_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,mass"
        assert len(hist) == 41

        doc = json.loads((out / "quick_metrics.json").read_text())
        assert list(doc.keys()) == METRIC_KEYS  # coupled run: no lambda0
        assert isinstance(doc["peaks"], list)

        for suffix in ("M", "N", "I", "Vp"):
            svg = (out / f"quick_{suffix}.svg").read_text()
            assert svg.startswith("<svg")

        meta = json.loads((out / "quick_run.json").read_text())
        assert meta["name"] == "quick"
        assert meta["final"]["t"] == pytest.approx(10.0)

    def test_linear_metrics_carry_growth_exponent(self, tmp_path, capsys):
        sc = _write(
            tmp_path / "lin.json",
            {"name": "lin", "params": {"e": 0.0}, "settings": {"t_end": 10.0}},
        )
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 0
        doc = json.loads((out / "lin_metrics.json").read_text())
        assert list(doc.keys()) == METRIC_KEYS + ["lambda0"]
        assert doc["lambda0"] == pytest.approx(0.4292814661422716, rel=1e-9, abs=0)

    def test_integer_valued_float_n_bins(self, tmp_path, capsys):
        # JSON has no integer type: the loader's integer admits 40.0
        sc = _write(
            tmp_path / "bins.json",
            {"name": "bins", "settings": {"t_end": 5.0}, "n_bins": 40.0, "outputs": ["histogram"]},
        )
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 0
        assert len((out / "bins_histogram.csv").read_text().splitlines()) == 41
        n_bins = json.loads((out / "bins_run.json").read_text())["scenario"]["n_bins"]
        assert (type(n_bins), n_bins) == (int, 40)

    def test_huge_n_bins_exits_2_before_the_run(self, tmp_path):
        # 1e12 bins used to integrate, then die building 7.28 TiB of edges
        sc = _write(
            tmp_path / "huge.json",
            {"name": "a", "settings": {"t_end": 1.0}, "n_bins": 1e12, "outputs": ["histogram"]},
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "metasim.cli", "run", sc, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n_bins must be >= 1 and at most 1000000, got 1000000000000" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "transient", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="huge-integer")]
    )
    def test_non_finite_transient_exits_2_before_any_output(self, tmp_path, capsys, transient):
        # Python's json reads NaN; it used to run and write "transient": NaN into
        # run.json, as it did an integer with no float value
        sc = tmp_path / "t.json"
        sc.write_text(
            '{"name": "t", "transient": %s, "settings": {"t_end": 1.0}, '
            '"outputs": ["timeseries"]}' % transient
        )
        out = tmp_path / "out"
        assert main(["run", str(sc), "--out", str(out)]) == 2
        assert "invalid scenario at $.transient: " in capsys.readouterr().err
        assert not out.exists()

    def test_log_scale_flag(self, tmp_path, quick_scenario, capsys):
        out = tmp_path / "out"
        assert main(["run", quick_scenario, "--out", str(out), "--log-scale"]) == 0
        assert (out / "quick_M.svg").exists()
        meta = json.loads((out / "quick_run.json").read_text())
        assert meta["scenario"]["log_scale"] is True
        own = _write(
            tmp_path / "own.json",
            {"name": "quick", "settings": {"t_end": 10.0}, "transient": 2.0, "log_scale": True},
        )
        assert main(["run", own, "--out", str(tmp_path / "own")]) == 0
        for label in ("M", "N", "I", "Vp"):
            svg = f"quick_{label}.svg"
            assert (out / svg).read_bytes() == (tmp_path / "own" / svg).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        sc = _write(tmp_path / "bad.json", {"name": "bad", "params": {"b": -1.0}})
        assert main(["run", sc]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"name": "late", "settings": {"t_end": 5.0}, "transient": 10.0}, "fewer than 3"),
            ({"name": "big", "params": {"V0": 1.5, "K0": 2.0}}, "V0 < 1"),
            (LOW, "initial_cohorts: cohort at V=0.05 lies below the domain edge V0=0.1"),
            (HEAVY, "initial_cohorts: the total initial cohort weight overflows"),
        ],
    )
    def test_configuration_error_exits_2_before_the_run(
        self, tmp_path, no_steps, capsys, doc, message
    ):
        sc = _write(tmp_path / "sc.json", doc)
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cohort, message",
        [
            ({"weight": -1, "V": 0.5, "K": 1.0}, "cohort weight must be finite and >= 0, got -1"),
            ({"weight": 1, "V": 0, "K": 1.0}, "TumorState.V must be finite and > 0, got 0"),
        ],
    )
    def test_a_cohort_its_constructor_refuses_exits_2(self, tmp_path, capsys, cohort, message):
        sc = _write(tmp_path / "sc.json", {"name": "c", "initial_cohorts": [cohort]})
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: invalid scenario content: {message}\n"
        assert not out.exists()

    def test_a_fault_in_a_constructor_is_not_called_invalid_content(
        self, tmp_path, monkeypatch
    ):
        # only what the constructors raise for bad values becomes exit 2
        def broken(**kwargs):
            raise TypeError("a fault, not a bad value")

        monkeypatch.setattr(scenarios, "TumorState", broken)
        doc = {"name": "c", "initial_cohorts": [{"weight": 1, "V": 0.5, "K": 1}]}
        sc = _write(tmp_path / "sc.json", doc)
        with pytest.raises(TypeError, match="a fault, not a bad value"):
            main(["run", sc, "--out", str(tmp_path / "out")])

    def test_missing_file_exits_4(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_exits_4(self, tmp_path, quick_scenario, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["run", quick_scenario, "--out", str(blocker / "sub")]) == 4

    def test_blowup_exits_3_with_diagnostic(self, tmp_path, capsys):
        sc = _write(
            tmp_path / "boom.json",
            {"name": "boom", "params": {"b": 1e8}, "settings": {"t_end": 5.0}},
        )
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 3
        doc = json.loads((out / "boom_error.json").read_text())
        assert doc["error"] == "integration-blowup"
        assert doc["t"] > 0


class TestLeavingTheDomain:
    """A step whose update leaves the domain (I < 0, or a K <= 0) fails
    in that step as a blowup, owned by its member: the run does not go
    on with a negative inhibitor, nor fail later at export."""

    @pytest.mark.parametrize("name, t", [("neg_I", 0.25), ("neg_I_final", 0.25), ("neg_K", 0.07)])
    def test_a_run_fails_in_the_step_that_leaves(self, tmp_path, capsys, name, t):
        sc = _write(tmp_path / "sc.json", OVERSHOOT[name])
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: state outside the domain at t={t:g}\n"
        assert sorted(p.name for p in out.iterdir()) == [f"{name}_error.json"]
        doc = json.loads((out / f"{name}_error.json").read_text())
        assert (doc["error"], doc["reason"]) == ("integration-blowup", "non-finite-state")
        assert (doc["t"], doc["last_sample"]["t"]) == (t, 0.0)

    def test_a_sweep_point_that_leaves_fails_alone_in_its_ensemble(self, tmp_path, capsys):
        doc = {"base": OVERSHOOT["neg_I_final"], "axis": "k", "values": [10, 1]}
        sw = _write(tmp_path / "sw.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1] == "10.0,,,,,,,IntegrationBlowupError: state outside the domain at t=0.25"
        assert lines[2].endswith(",")
        err = json.loads((out / "k=10" / "neg_I_final_k=10_error.json").read_text())
        assert err["reason"] == "non-finite-state"
        meta = json.loads((out / "k=1" / "neg_I_final_k=1_run.json").read_text())
        assert meta["ensemble_size"] == 2
        solo = _write(tmp_path / "solo.json", meta["scenario"])
        assert main(["run", solo, "--out", str(tmp_path / "solo")]) == 0
        name = "neg_I_final_k=1_timeseries.csv"
        assert (out / "k=1" / name).read_bytes() == (tmp_path / "solo" / name).read_bytes()


class TestLambda0:
    def test_prints_result_json(self, tmp_path, capsys):
        sc = _write(tmp_path / "lin.json", {"name": "lin", "params": {"e": 0.0}})
        assert main(["lambda0", sc]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda0"] == pytest.approx(0.4292814661422716, rel=1e-9, abs=0)
        assert doc["quadrature_nodes"] > 1000
        assert list(doc) == ["name", "lambda0", "tau_max", "quadrature_nodes", "residual"]

    def test_coupled_model_exits_2(self, tmp_path, capsys):
        sc = _write(tmp_path / "cpl.json", {"name": "cpl"})
        assert main(["lambda0", sc]) == 2

    def test_a_tiny_lambda0_keeps_its_digits(self, tmp_path, capsys):
        # alpha = 0 with Vm = V0 makes lambda0 = m; Brent's method took
        # more than 100 iterations here and the call died on a traceback
        params = {"e": 0, "alpha": 0, "m": 1e-60}
        sc = _write(tmp_path / "tiny.json", {"name": "tiny", "params": params})
        assert main(["lambda0", sc]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda0"] == pytest.approx(1e-60, rel=1e-12, abs=0)

    def test_a_root_solve_that_does_not_converge_exits_2(self, tmp_path, capsys, monkeypatch):
        from metasim import spectral

        monkeypatch.setattr(spectral, "_BRENT_MAXITER", 3)
        sc = _write(tmp_path / "lin.json", {"name": "lin", "params": {"e": 0.0}})
        assert main(["lambda0", sc]) == 2
        assert "Brent's method found no root" in capsys.readouterr().err

    def test_too_stiff_a_flow_exits_2_without_a_traceback(self, tmp_path):
        # the fixed-step RK4 flow died here with a bare math domain error
        sc = _write(tmp_path / "stiff.json", {"name": "stiff", "params": {"e": 0, "b": 2000}})
        proc = subprocess.run(
            [sys.executable, "-m", "metasim.cli", "lambda0", sc],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "too stiff for the spectral solver" in proc.stderr


class TestSweep:
    def _sweep_file(self, tmp_path, values, parallelism=1, axis="e"):
        base = {"name": "s", "settings": {"t_end": 10.0}, "transient": 2.0}
        return _write(
            tmp_path / "sw.json",
            {"base": base, "axis": axis, "values": values, "parallelism": parallelism},
        )

    def test_invalid_point_exits_2_before_any_output(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [0.5, 1.5], axis="alpha")
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 2
        assert "alpha=1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_configuration_error_exits_2_before_any_output(self, tmp_path, no_steps, capsys):
        base = {"name": "late", "settings": {"t_end": 5.0}, "transient": 10.0}
        sw = _write(tmp_path / "sw.json", {"base": base, "axis": "e", "values": [0.5, 2]})
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 2
        assert (
            "sweep point e=0.5: window beyond transient=10 holds fewer than 3 samples"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (
                {"base": LOW, "axis": "e", "values": [0.5, 2]},
                "sweep point e=0.5: initial_cohorts: cohort at V=0.05",
            ),
            (
                {
                    "base": {
                        "name": "v",
                        "params": {"K0": 0.5},
                        "initial_cohorts": [{"weight": 1.0, "V": 0.15, "K": 0.3}],
                    },
                    "axis": "V0",
                    "values": [0.1, 0.2],
                },
                "sweep point V0=0.2: initial_cohorts: cohort at V=0.15",
            ),
        ],
    )
    def test_cohort_outside_the_domain_exits_2_before_any_output(
        self, tmp_path, no_steps, capsys, sweep, message
    ):
        sw = _write(tmp_path / "sw.json", sweep)
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_summary_has_one_row_per_value(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [0.5, 1.0, 2.0])
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == (
            "value,lambda0,mean_period,amplitude,min_after_transient,"
            "max_M,largest_volume,error"
        )
        assert len(lines) == 4
        for value in ("e=0.5", "e=1", "e=2"):
            assert (out / value / f"s_{value}_timeseries.csv").exists()

    @pytest.mark.parametrize(
        "values, parallelism",
        [({"from": 0.5, "to": 2, "count": 3.0}, 1), ([0.5, 1.0, 2.0], 2.0)],
        ids=["count", "parallelism"],
    )
    def test_integer_valued_floats(self, tmp_path, capsys, values, parallelism):
        sw = self._sweep_file(tmp_path, values, parallelism)
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx([0.5, 1.0, 2.0])
        assert all(row.endswith(",") for row in rows)  # no point failed

    def test_failed_value_kept_in_row(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [1.0, 1e8], axis="b")
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "IntegrationBlowupError" in lines[2]
        assert "failed" in capsys.readouterr().err

    def test_values_alike_at_six_digits_run_as_two_points(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [1.0000001, 1.0000002])
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 0
        points = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert points == ["e=1.0000001", "e=1.0000002"]
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_point_label_names_directory_scenario_and_failure_line(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [1e8], axis="b")
        out = tmp_path / "out"
        assert main(["sweep", sw, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("b=1e+08 failed: IntegrationBlowupError: ")
        assert (out / "b=1e+08" / "s_b=1e+08_error.json").exists()

    def test_failed_point_same_under_any_jobs_and_as_a_lone_run(self, tmp_path, capsys):
        # --jobs 2 puts b=1e9 in the chunk {1, 1e9} inside a pool worker
        sw = self._sweep_file(tmp_path, [1.0, 2.0, 1e9], axis="b")
        rel = "b=1e+09/s_b=1e+09_error.json"
        docs, rows = {}, {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", sw, "--out", str(out), "--jobs", str(jobs)]) == 0
            docs[jobs] = (out / rel).read_bytes()
            rows[jobs] = (out / "summary.csv").read_text()
        assert rows[1] == rows[2]
        failed = rows[1].splitlines()[3]
        assert failed.endswith(",IntegrationBlowupError: non-finite state at t=0.01")
        assert docs[1] == docs[2]
        sc = load_sweep(sw).scenarios()[2]
        with pytest.raises(IntegrationBlowupError):
            run_scenario(sc, out_dir=str(tmp_path / "solo"))
        assert (tmp_path / "solo" / "s_b=1e+09_error.json").read_bytes() == docs[1]

    def test_all_failed_exits_3(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [1e8, 1e9], axis="b")
        assert main(["sweep", sw, "--out", str(tmp_path / "out")]) == 3

    def test_parallel_matches_serial(self, tmp_path, capsys):
        # --jobs 1 integrates the three points as one ensemble, --jobs 2
        # as the chunks {0.5, 2} and {1}, --jobs 3 one by one: every file
        # is the same, run.json apart from the timing and the ensemble size
        sw = self._sweep_file(tmp_path, [0.5, 1.0, 2.0])
        outs = {}
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", sw, "--out", str(out), "--jobs", str(jobs)]) == 0
            outs[jobs] = out
        files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert len(files) == 1 + 3 * 8  # summary.csv, and 7 artifacts and run.json per point
        sizes = {}
        for jobs, out in outs.items():
            assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
            sizes[jobs] = []
            for rel in files:
                if rel.name.endswith("_run.json"):
                    meta, ref = (json.loads((d / rel).read_text()) for d in (out, outs[1]))
                    sizes[jobs].append(meta.pop("ensemble_size"))
                    for doc in (meta, ref):
                        doc.pop("runtime_s")
                        doc.pop("ensemble_size", None)
                    assert meta == ref, rel
                else:
                    assert (out / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
        assert sizes == {1: [3, 3, 3], 2: [2, 1, 2], 3: [1, 1, 1]}

    def test_huge_count_exits_2_before_any_output(self, tmp_path):
        # a count of 1e12 used to die in np.geomspace asking for 7.28 TiB
        sw = _write(
            tmp_path / "sw.json",
            {"base": "base", "axis": "m", "values": {"from": 0.1, "to": 10, "count": 1e12}},
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "metasim.cli", "sweep", sw, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "invalid sweep at $.values.count: 1000000000000.0 is not" in proc.stderr
        assert not out.exists()

    def test_bad_jobs_exits_2(self, tmp_path, capsys):
        sw = self._sweep_file(tmp_path, [1.0])
        out = tmp_path / "o"
        assert main(["sweep", sw, "--out", str(out), "--jobs", "0"]) == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_two_calls_share_one_parser_and_print_the_same_json(self, tmp_path, capsys):
        sc = _write(tmp_path / "lin.json", {"name": "lin", "params": {"e": 0.0}})
        cli._build_parser.cache_clear()
        printed = []
        for _ in range(2):
            assert main(["lambda0", sc]) == 0
            printed.append(capsys.readouterr().out)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert printed[0] == printed[1]
        assert json.loads(printed[0])["name"] == "lin"

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "metasim.cli", "catalog"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "base" in proc.stdout.split()


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter, which has loaded no SciPy yet,
    and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSciPyOnDemand:
    """Only ``metasim.spectral`` imports SciPy, and only a lambda0 solve or
    a flow query loads it."""

    def test_a_coupled_run_sweep_and_catalog_load_no_scipy(self, tmp_path):
        out = _python(
            """
            import contextlib, io, os, sys

            def heavy(stage):
                names = [m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")]
                print(stage, *names)

            import metasim
            heavy("package")
            import metasim.cli
            from metasim import SweepSpec, load_scenario, load_sweep, run_scenario, run_sweep
            from metasim.scenarios import scenario_from_dict
            heavy("cli")
            sc = scenario_from_dict({
                "name": "c", "settings": {"t_end": 5.0}, "transient": 1.0,
                "outputs": ["timeseries", "histogram", "metrics", "plots"],
            })
            assert sc.params.e > 0
            result = run_scenario(sc, out_dir=os.path.join(sys.argv[1], "run"))
            heavy("run")
            traj = result.trajectory
            assert metasim.fit_growth_rate(traj.times, traj.M, (1.0, 5.0)) > 0
            heavy("fit")
            sw = SweepSpec(base=sc, axis="e", values=(0.5, 2.0))
            rows = run_sweep(sw, out_dir=os.path.join(sys.argv[1], "sweep"), jobs=1)
            assert [r["error"] for r in rows] == [None, None]
            heavy("sweep")
            with contextlib.redirect_stdout(io.StringIO()):
                assert metasim.cli.main(["catalog", "--emit", os.path.join(sys.argv[1], "cat")]) == 0
            heavy("catalog")
            """,
            str(tmp_path),
        )
        assert out.split("\n") == ["package", "cli", "run", "fit", "sweep", "catalog", ""]

    def test_the_spectral_names_are_the_spectral_modules(self):
        out = _python(
            """
            import sys
            import metasim
            assert "metasim.spectral" not in sys.modules
            names = ("malthus_exponent", "characteristic_flow", "SpectralResult")
            served = [getattr(metasim, name) for name in names]
            import metasim.spectral as spectral
            assert all(x is getattr(spectral, name) for x, name in zip(served, names))
            assert "scipy.optimize" in sys.modules
            assert metasim.fit_growth_rate is metasim.observables.fit_growth_rate
            try:
                metasim.no_such_name
            except AttributeError as exc:
                print(exc)
            """
        )
        assert out == "module 'metasim' has no attribute 'no_such_name'\n"

    def test_a_star_import_binds_every_public_name(self):
        # metasim.__all__ is the modules' own lists and the three lazy
        # spectral names, each once; a module's star import binds its list
        out = _python(
            """
            import metasim
            from metasim import engine, errors, model, observables, runner, scenarios
            names = metasim.__all__
            print(len(set(names)), *names)
            modules = (errors, model, engine, observables, runner, scenarios)
            assert names == [n for m in modules for n in m.__all__] + list(metasim._SPECTRAL)
            for module, name in (("engine", "initial_state"), ("scenarios", "scenario_from_dict")):
                scope = {}
                exec(f"from metasim.{module} import *", scope)
                assert name in scope, (module, name)
            from metasim import *
            print(*(name for name in metasim.__all__ if name not in globals()))
            import metasim.spectral
            print(malthus_exponent is metasim.spectral.malthus_exponent)
            print(set(metasim._SPECTRAL) == set(metasim.spectral.__all__))
            """
        )
        assert out == f"43 {' '.join(PUBLIC_NAMES)}\n\nTrue\nTrue\n"

    def test_an_uncoupled_run_with_metrics_writes_the_anchor_lambda0(self, tmp_path):
        out = _python(
            """
            import json, os, sys
            from metasim import run_scenario, scenario_from_dict
            sc = scenario_from_dict({
                "name": "a", "params": {"e": 0}, "settings": {"t_end": 5.0},
                "transient": 1.0, "outputs": ["metrics"],
            })
            run_scenario(sc, out_dir=sys.argv[1])
            doc = json.load(open(os.path.join(sys.argv[1], "a_metrics.json")))
            print(repr(doc["lambda0"]), "scipy.optimize" in sys.modules)
            """,
            str(tmp_path),
        )
        assert out == "0.4292814663581329 True\n"


class TestInputFile:
    @pytest.mark.parametrize("command", ["run", "sweep", "lambda0"])
    def test_non_utf8_file_exits_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        out = ["--out", "out"] if command != "lambda0" else []
        assert main([command, str(bad), *out]) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]
