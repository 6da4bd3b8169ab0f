import json
import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metasim import ConfigurationError, ModelParams
from metasim.scenarios import (
    Scenario,
    SweepSpec,
    catalog,
    load_scenario,
    load_sweep,
    scenario_from_dict,
    scenario_to_dict,
)

CATALOG_NAMES = [
    "base",
    "linear",
    "b-x10",
    "m-x10",
    "e-x10",
    "b-x0.1",
    "m-x0.1",
    "e-x0.1",
    "bursts",
    "bursts-long",
    "complex-periodic",
    "deep-seed",
]


class TestCatalog:
    def test_names_and_order(self):
        assert [sc.name for sc in catalog()] == CATALOG_NAMES

    def test_base_uses_reference_parameters(self):
        base = catalog()[0]
        p = base.params
        assert (p.b, p.e, p.k, p.m) == (1.0, 1.0, 1.0, 1.0)
        assert p.alpha == pytest.approx(2.0 / 3.0)
        assert (p.V0, p.K0) == (0.1, 0.2)
        assert p.Vm == p.V0
        assert base.settings.t_end == 200.0
        assert base.settings.dt == 1e-2
        assert base.resolved_transient == 50.0

    def test_variant_parameters(self):
        by_name = {sc.name: sc for sc in catalog()}
        assert by_name["linear"].params.e == 0.0
        assert by_name["b-x10"].params.b == 10.0
        assert by_name["m-x0.1"].params.m == 0.1
        assert by_name["e-x10"].params.e == 10.0
        bursts = by_name["bursts"].params
        assert (bursts.m, bursts.k) == (10.0, 0.1)
        cp = by_name["complex-periodic"].params
        assert (cp.m, cp.k, cp.e) == (0.1, 0.1, 0.02)
        ds = by_name["deep-seed"].params
        assert (ds.V0, ds.K0) == (1e-4, 1e-3)
        assert by_name["bursts-long"].settings.t_end == 1000.0
        assert by_name["bursts-long"].log_scale is True

    def test_every_entry_round_trips(self):
        for sc in catalog():
            assert scenario_from_dict(scenario_to_dict(sc)) == sc


class TestScenarioDict:
    def test_minimal(self):
        sc = scenario_from_dict({"name": "x"})
        assert sc.params == ModelParams()
        assert sc.transient is None
        assert sc.resolved_transient == 50.0

    def test_explicit_transient_wins(self):
        sc = scenario_from_dict({"name": "x", "transient": 10.0})
        assert sc.resolved_transient == 10.0

    def test_initial_cohorts_parsed(self):
        sc = scenario_from_dict(
            {
                "name": "x",
                "initial_cohorts": [{"weight": 2.0, "V": 0.5, "K": 1.0}],
            }
        )
        c = sc.initial_cohorts[0]
        assert (c.weight, c.state.V, c.state.K, c.birth_time) == (2.0, 0.5, 1.0, 0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid scenario"):
            scenario_from_dict({"name": "x", "horizon": 5})

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"name": "a b"})

    def test_bad_param_value_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"name": "x", "params": {"b": -3.0}})

    def test_bad_output_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"name": "x", "outputs": ["spreadsheet"]})

    def test_error_message_carries_json_path(self):
        with pytest.raises(ConfigurationError, match=r"\$\.params\.b"):
            scenario_from_dict({"name": "x", "params": {"b": "fast"}})


COHORT = {"weight": 1.0, "V": 0.5, "K": 1.0}
SWEEP = {"base": "base", "axis": "e", "values": [1.0]}
RANGE = {"from": 0.1, "to": 10.0, "count": 3}

# One document for each rule a scenario or sweep file must keep, with the
# JSON path its error names: (label, document, path). A document with a
# "base", "axis" or "values" key is a sweep file; the others are scenarios.
RULE_DOCUMENTS = [
    # not an object
    ("scenario-not-object", [1], "$"),
    ("params-not-object", {"name": "x", "params": [1]}, "$.params"),
    ("settings-not-object", {"name": "x", "settings": 1}, "$.settings"),
    ("cohort-not-object", {"name": "x", "initial_cohorts": [1]}, "$.initial_cohorts[0]"),
    ("range-not-object", {**SWEEP, "values": "a"}, "$.values"),
    # unknown key
    ("scenario-unknown-key", {"name": "x", "horizon": 5}, "$"),
    ("params-unknown-key", {"name": "x", "params": {"zz": 1}}, "$.params"),
    ("settings-unknown-key", {"name": "x", "settings": {"zz": 1}}, "$.settings"),
    (
        "cohort-unknown-key",
        {"name": "x", "initial_cohorts": [{**COHORT, "z": 1}]},
        "$.initial_cohorts[0]",
    ),
    ("sweep-unknown-key", {**SWEEP, "zz": 1}, "$"),
    ("range-unknown-key", {**SWEEP, "values": {**RANGE, "step": 1}}, "$.values"),
    ("base-unknown-key", {**SWEEP, "base": {"name": "x", "zz": 1}}, "$.base"),
    # missing required key
    ("scenario-missing-name", {"params": {}}, "$"),
    *(
        (
            f"cohort-missing-{key}",
            {"name": "x", "initial_cohorts": [{k: v for k, v in COHORT.items() if k != key}]},
            "$.initial_cohorts[0]",
        )
        for key in COHORT
    ),
    ("sweep-missing-base", {"axis": "e", "values": [1.0]}, "$"),
    ("sweep-missing-axis", {"base": "base", "values": [1.0]}, "$"),
    ("sweep-missing-values", {"base": "base", "axis": "e"}, "$"),
    ("range-missing-from", {**SWEEP, "values": {"to": 10.0, "count": 3}}, "$.values"),
    ("range-missing-to", {**SWEEP, "values": {"from": 0.1, "count": 3}}, "$.values"),
    ("range-missing-count", {**SWEEP, "values": {"from": 0.1, "to": 10.0}}, "$.values"),
    ("base-missing-name", {**SWEEP, "base": {}}, "$.base"),
    # wrong JSON type
    ("name-number", {"name": 3}, "$.name"),
    ("param-string", {"name": "x", "params": {"b": "fast"}}, "$.params.b"),
    ("param-bool", {"name": "x", "params": {"b": True}}, "$.params.b"),
    ("param-null", {"name": "x", "params": {"Vm": None}}, "$.params.Vm"),
    ("setting-string", {"name": "x", "settings": {"dt": "a"}}, "$.settings.dt"),
    (
        "cohort-value-string",
        {"name": "x", "initial_cohorts": [COHORT, {**COHORT, "birth_time": "0"}]},
        "$.initial_cohorts[1].birth_time",
    ),
    ("cohorts-not-array", {"name": "x", "initial_cohorts": COHORT}, "$.initial_cohorts"),
    ("outputs-not-array", {"name": "x", "outputs": "timeseries"}, "$.outputs"),
    ("output-number", {"name": "x", "outputs": [1]}, "$.outputs[0]"),
    ("transient-string", {"name": "x", "transient": "a"}, "$.transient"),
    ("transient-bool", {"name": "x", "transient": True}, "$.transient"),
    ("log-scale-number", {"name": "x", "log_scale": 1}, "$.log_scale"),
    ("log-scale-null", {"name": "x", "log_scale": None}, "$.log_scale"),
    ("n-bins-fraction", {"name": "x", "n_bins": 40.5}, "$.n_bins"),
    ("n-bins-bool", {"name": "x", "n_bins": True}, "$.n_bins"),
    ("n-bins-string", {"name": "x", "n_bins": "40"}, "$.n_bins"),
    ("axis-number", {**SWEEP, "axis": 1}, "$.axis"),
    ("value-string", {**SWEEP, "values": [1.0, "a"]}, "$.values[1]"),
    ("value-bool", {**SWEEP, "values": [True]}, "$.values[0]"),
    ("from-string", {**SWEEP, "values": {**RANGE, "from": "0.1"}}, "$.values.from"),
    ("to-null", {**SWEEP, "values": {**RANGE, "to": None}}, "$.values.to"),
    ("count-fraction", {**SWEEP, "values": {**RANGE, "count": 2.5}}, "$.values.count"),
    ("count-bool", {**SWEEP, "values": {**RANGE, "count": True}}, "$.values.count"),
    ("parallelism-fraction", {**SWEEP, "parallelism": 1.5}, "$.parallelism"),
    ("parallelism-bool", {**SWEEP, "parallelism": True}, "$.parallelism"),
    ("parallelism-string", {**SWEEP, "parallelism": "2"}, "$.parallelism"),
    ("base-number", {**SWEEP, "base": 3}, "$.base"),
    ("base-array", {**SWEEP, "base": []}, "$.base"),
    ("base-bool", {**SWEEP, "base": True}, "$.base"),
    ("base-null", {**SWEEP, "base": None}, "$.base"),
    (
        "base-param-string",
        {**SWEEP, "base": {"name": "x", "params": {"b": "f"}}},
        "$.base.params.b",
    ),
    # values out of range
    ("name-space", {"name": "a b"}, "$.name"),
    ("name-empty", {"name": ""}, "$.name"),
    ("name-slash", {"name": "../escaped"}, "$.name"),
    ("base-name-space", {**SWEEP, "base": {"name": "a b"}}, "$.base.name"),
    ("output-unknown", {"name": "x", "outputs": ["timeseries", "spreadsheet"]}, "$.outputs[1]"),
    ("outputs-duplicate", {"name": "x", "outputs": ["plots", "plots"]}, "$.outputs"),
    (
        "base-outputs-duplicate",
        {**SWEEP, "base": {"name": "x", "outputs": ["plots", "plots"]}},
        "$.base.outputs",
    ),
    ("n-bins-zero", {"name": "x", "n_bins": 0}, "$.n_bins"),
    ("n-bins-negative", {"name": "x", "n_bins": -3}, "$.n_bins"),
    ("base-n-bins-zero", {**SWEEP, "base": {"name": "x", "n_bins": 0}}, "$.base.n_bins"),
    ("from-zero", {**SWEEP, "values": {**RANGE, "from": 0}}, "$.values.from"),
    ("to-negative", {**SWEEP, "values": {**RANGE, "to": -2.0}}, "$.values.to"),
    ("count-one", {**SWEEP, "values": {**RANGE, "count": 1}}, "$.values.count"),
    ("values-empty", {**SWEEP, "values": []}, "$.values"),
    ("parallelism-zero", {**SWEEP, "parallelism": 0}, "$.parallelism"),
    ("axis-unknown", {**SWEEP, "axis": "zeta"}, "$.axis"),
]


class TestRules:
    @pytest.mark.parametrize(
        "doc, path", [row[1:] for row in RULE_DOCUMENTS], ids=[row[0] for row in RULE_DOCUMENTS]
    )
    def test_each_rule_names_its_json_path(self, tmp_path, doc, path):
        if isinstance(doc, dict) and {"base", "axis", "values"} & doc.keys():
            file = tmp_path / "sweep.json"
            file.write_text(json.dumps(doc))
            what, load = "sweep", lambda: load_sweep(str(file))
        else:
            what, load = "scenario", lambda: scenario_from_dict(doc)
        with pytest.raises(ConfigurationError) as exc:
            load()
        assert f"invalid {what} at {path}: " in str(exc.value)

    def test_python_api_scenario_is_checked_at_construction(self):
        # an unchecked name wrote out/../escaped_run.json outside out_dir
        with pytest.raises(ConfigurationError, match=r"at \$\.name: '\.\./escaped'"):
            Scenario(name="../escaped")
        # an unknown output kind ran and silently wrote only run.json
        with pytest.raises(ConfigurationError, match=r"at \$\.outputs\[0\]: 'spreadsheet'"):
            Scenario(name="x", outputs=("spreadsheet",))
        with pytest.raises(ConfigurationError, match=r"at \$\.outputs: "):
            Scenario(name="x", outputs=("plots", "plots"))
        with pytest.raises(ConfigurationError, match=r"at \$\.log_scale: "):
            Scenario(name="x", log_scale=1)
        # n_bins is checked when a run asks for the histogram
        assert Scenario(name="x", n_bins=0).n_bins == 0

    @pytest.mark.parametrize(
        "kwargs, path",
        [
            ({"params": {"e": 0}}, "$.params"),
            ({"settings": {"t_end": 2.0}}, "$.settings"),
            ({"initial_cohorts": [(1, 2)]}, "$.initial_cohorts[0]"),
            ({"initial_cohorts": "c"}, "$.initial_cohorts"),
        ],
        ids=["params", "settings", "cohort", "cohorts"],
    )
    def test_python_api_scenario_fields_have_their_types(self, kwargs, path):
        # each of these got past construction and failed later, in the run
        with pytest.raises(ConfigurationError) as exc:
            Scenario(name="x", **kwargs)
        assert f"invalid scenario at {path}: " in str(exc.value)

    @pytest.mark.parametrize(
        "kwargs, path",
        [
            ({"base": "base"}, "$.base"),
            ({"values": (0.5, "a")}, "$.values[1]"),
            ({"values": (True,)}, "$.values[0]"),
            ({"values": 0.5}, "$.values"),
            ({"parallelism": 2.5}, "$.parallelism"),
            ({"parallelism": True}, "$.parallelism"),
        ],
        ids=["base", "value", "value-bool", "values-scalar", "parallelism-fraction",
             "parallelism-bool"],
    )
    def test_python_api_sweep_fields_have_their_types(self, kwargs, path):
        with pytest.raises(ConfigurationError) as exc:
            SweepSpec(**{"base": Scenario(name="b"), "axis": "e", "values": (1.0,), **kwargs})
        assert f"invalid sweep at {path}: " in str(exc.value)

    @pytest.mark.parametrize("transient", [math.nan, math.inf, -math.inf])
    def test_non_finite_transient_rejected(self, transient):
        # NaN used to run and write "transient": NaN, invalid JSON, into run.json
        with pytest.raises(ConfigurationError, match=r"at \$\.transient: "):
            Scenario(name="x", transient=transient)
        with pytest.raises(ConfigurationError, match=r"at \$\.transient: "):
            scenario_from_dict({"name": "x", "transient": transient})

    def test_count_is_bounded_before_the_values_are_built(self, tmp_path):
        path = tmp_path / "sw.json"
        for count, ok in ((7, True), (10_000, True), (10_001, False), (1e12, False)):
            path.write_text(json.dumps({**SWEEP, "values": {**RANGE, "count": count}}))
            if ok:
                assert len(load_sweep(str(path)).values) == count
            else:
                with pytest.raises(ConfigurationError, match=r"at \$\.values\.count: "):
                    load_sweep(str(path))


class TestLoaders:
    def test_load_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "loaded", "params": {"m": 2.0}}))
        sc = load_scenario(str(path))
        assert sc.name == "loaded"
        assert sc.params.m == 2.0

    @pytest.mark.parametrize("load", [load_scenario, load_sweep], ids=lambda f: f.__name__)
    def test_load_invalid_json(self, tmp_path, load):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load(str(path))

    @pytest.mark.parametrize("load", [load_scenario, load_sweep], ids=lambda f: f.__name__)
    def test_load_non_object(self, tmp_path, load):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="must hold a JSON object"):
            load(str(path))

    def test_load_sweep_with_catalog_base(self, tmp_path):
        path = tmp_path / "sw.json"
        path.write_text(
            json.dumps({"base": "base", "axis": "e", "values": [0.5, 1.0, 2.0]})
        )
        sw = load_sweep(str(path))
        assert sw.base.name == "base"
        assert sw.axis == "e"
        assert sw.values == (0.5, 1.0, 2.0)
        assert sw.parallelism == 1

    def test_load_sweep_log_range(self, tmp_path):
        path = tmp_path / "sw.json"
        path.write_text(
            json.dumps(
                {
                    "base": "base",
                    "axis": "m",
                    "values": {"from": 0.1, "to": 10.0, "count": 3},
                }
            )
        )
        sw = load_sweep(str(path))
        assert sw.values == pytest.approx((0.1, 1.0, 10.0))

    def test_load_sweep_unknown_base(self, tmp_path):
        path = tmp_path / "sw.json"
        path.write_text(json.dumps({"base": "nope", "axis": "e", "values": [1.0]}))
        with pytest.raises(ConfigurationError, match="unknown base scenario"):
            load_sweep(str(path))

    def test_load_sweep_bad_axis(self, tmp_path):
        path = tmp_path / "sw.json"
        path.write_text(json.dumps({"base": "base", "axis": "zeta", "values": [1.0]}))
        with pytest.raises(ConfigurationError):
            load_sweep(str(path))


class TestSweepSpec:
    def test_scenario_naming(self):
        sw = SweepSpec(base=Scenario(name="base"), axis="e", values=(0.5, 2.0))
        names = [sc.name for sc in sw.scenarios()]
        assert names == ["base_e=0.5", "base_e=2"]
        assert [sc.params.e for sc in sw.scenarios()] == [0.5, 2.0]

    def test_swept_domain_edge_drags_default_threshold(self):
        sw = SweepSpec(base=Scenario(name="base"), axis="V0", values=(0.05,))
        sc = sw.scenarios()[0]
        assert sc.params.V0 == 0.05
        assert sc.params.Vm == 0.05

    def test_explicit_threshold_not_dragged(self):
        base = Scenario(name="base", params=ModelParams(Vm=0.15))
        sw = SweepSpec(base=base, axis="V0", values=(0.05,))
        assert sw.scenarios()[0].params.Vm == 0.15

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(base=Scenario(name="b"), axis="zeta", values=(1.0,))
        with pytest.raises(ConfigurationError):
            SweepSpec(base=Scenario(name="b"), axis="e", values=())
        with pytest.raises(ConfigurationError):
            SweepSpec(base=Scenario(name="b"), axis="e", values=(1.0,), parallelism=0)
        # every point's parameters are checked when the sweep is built
        with pytest.raises(ConfigurationError, match="sweep point K0=0.05: need 0 < V0 < K0"):
            SweepSpec(base=Scenario(name="b"), axis="K0", values=(0.3, 0.05))
        with pytest.raises(ConfigurationError, match="sweep point K0=0.1:"):
            SweepSpec(base=Scenario(name="b"), axis="K0", values=(0.1,))
        with pytest.raises(ConfigurationError, match="sweep point alpha=1.5: alpha"):
            SweepSpec(base=Scenario(name="b"), axis="alpha", values=(0.5, 1.5))

    def test_values_sharing_a_point_name_rejected(self):
        # only equal values share a name, and would write into one point directory
        with pytest.raises(ConfigurationError, match=r"\$\.values\[2\]: 2\.0 is not distinct"):
            SweepSpec(base=Scenario(name="b"), axis="e", values=(2.0, 0.5, 2.0))

    @pytest.mark.parametrize("values", [(1, 1.0), (0.0, -0.0)], ids=["1,1.0", "0.0,-0.0"])
    def test_values_equal_under_eq_are_refused(self, values):
        with pytest.raises(ConfigurationError, match=r"\$\.values\[1\]: .* is not distinct"):
            SweepSpec(base=Scenario(name="b"), axis="m", values=values)

    def test_point_label_gains_digits_only_when_it_must(self):
        sw = SweepSpec(base=Scenario(name="b"), axis="e", values=(1.0000001, 1.0000002))
        assert [sc.name for sc in sw.scenarios()] == ["b_e=1.0000001", "b_e=1.0000002"]
        values = (0.5, 1.0, 100.0, 1e9, 1234567.0, 1 / 3)
        assert [sw.point_label(v) for v in values] == [
            "e=0.5", "e=1", "e=100", "e=1e+09", "e=1234567", "e=0.3333333333333333"
        ]

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
    def test_value_beyond_the_float_range_is_refused(self, value):
        with pytest.raises(ConfigurationError, match=r"invalid sweep at \$\.values\[1\]: "):
            SweepSpec(base=Scenario(name="b"), axis="e", values=(0.5, value))

    def test_fraction_value_sweeps_as_its_float(self):
        sw = SweepSpec(base=Scenario(name="b"), axis="e", values=(Fraction(1, 3),))
        assert sw.values == (1 / 3,)
        assert sw.scenarios()[0].name == "b_e=0.3333333333333333"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_names_its_point(self, value):
        with pytest.raises(ConfigurationError, match=f"sweep point e={value}: parameter e must"):
            SweepSpec(base=Scenario(name="b"), axis="e", values=(value,))

    @pytest.mark.parametrize("base", catalog(), ids=lambda sc: sc.name)
    @given(value=st.floats(allow_nan=False))
    def test_every_point_name_reads_back_as_its_value(self, base, value):
        for axis in (f.name for f in fields(ModelParams)):
            sw = SweepSpec(base=base, axis=axis, values=(getattr(base.params, axis),))
            name, text = sw.point_label(value).split("=", 1)
            assert (name, float(text)) == (axis, value)

    @pytest.mark.parametrize("axis,value", [("e", 0.1), ("b", 1e9), ("m", 1e-5)])
    def test_point_scenarios_round_trip(self, axis, value):
        sc = SweepSpec(base=Scenario(name="base"), axis=axis, values=(value,)).scenarios()[0]
        assert "=" in sc.name
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    @pytest.mark.parametrize("base", catalog(), ids=lambda sc: sc.name)
    def test_every_point_of_every_catalog_axis_round_trips(self, base):
        for axis in (f.name for f in fields(ModelParams)):
            value = getattr(base.params, axis)
            values = (0.9 * value, 1.1 * value) if value else (0.5, 2.0)
            for sc in SweepSpec(base=base, axis=axis, values=values).scenarios():
                assert scenario_from_dict(scenario_to_dict(sc)) == sc
