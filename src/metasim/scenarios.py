"""Scenario and sweep configuration: schemas, loading, and the built-in
catalog of dynamical regimes.

Configuration files are JSON, validated against explicit schemas before
any numerics run; validation failures carry the offending path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

import jsonschema
import numpy as np

from .engine import Cohort, SolverSettings
from .errors import ConfigurationError
from .model import ModelParams, TumorState

__all__ = [
    "Scenario",
    "SweepSpec",
    "catalog",
    "load_scenario",
    "load_sweep",
    "scenario_to_dict",
]

_PARAM_NAMES = tuple(f.name for f in fields(ModelParams))
_SETTING_NAMES = tuple(f.name for f in fields(SolverSettings))
_OUTPUT_KINDS = ("timeseries", "histogram", "metrics", "plots")

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "pattern": "^[A-Za-z0-9._=+-]+$"},
        "params": {
            "type": "object",
            "properties": {name: {"type": "number"} for name in _PARAM_NAMES},
            "additionalProperties": False,
        },
        "settings": {
            "type": "object",
            "properties": {name: {"type": "number"} for name in _SETTING_NAMES},
            "additionalProperties": False,
        },
        "initial_cohorts": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "birth_time": {"type": "number"},
                    "weight": {"type": "number"},
                    "V": {"type": "number"},
                    "K": {"type": "number"},
                },
                "required": ["weight", "V", "K"],
                "additionalProperties": False,
            },
        },
        "outputs": {
            "type": "array",
            "items": {"enum": list(_OUTPUT_KINDS)},
            "uniqueItems": True,
        },
        "transient": {"type": ["number", "null"]},
        "log_scale": {"type": "boolean"},
        "n_bins": {"type": "integer", "minimum": 1},
    },
    "required": ["name"],
    "additionalProperties": False,
}

SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "base": {"anyOf": [{"type": "string"}, SCENARIO_SCHEMA]},
        "axis": {"enum": list(_PARAM_NAMES)},
        "values": {
            "anyOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
                {
                    "type": "object",
                    "properties": {
                        "from": {"type": "number", "exclusiveMinimum": 0},
                        "to": {"type": "number", "exclusiveMinimum": 0},
                        "count": {"type": "integer", "minimum": 2},
                    },
                    "required": ["from", "to", "count"],
                    "additionalProperties": False,
                },
            ]
        },
        "parallelism": {"type": "integer", "minimum": 1},
    },
    "required": ["base", "axis", "values"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class Scenario:
    """One named, fully-resolved simulation configuration.

    ``transient`` is the analysis-window start for oscillation metrics;
    None resolves to a quarter of the horizon. ``log_scale`` requests
    logarithmic y-axes on the plots.
    """

    name: str
    params: ModelParams = field(default_factory=ModelParams)
    settings: SolverSettings = field(default_factory=SolverSettings)
    initial_cohorts: tuple[Cohort, ...] = ()
    outputs: tuple[str, ...] = _OUTPUT_KINDS
    transient: float | None = None
    log_scale: bool = False
    n_bins: int = 40

    @property
    def resolved_transient(self) -> float:
        if self.transient is not None:
            return self.transient
        return 0.25 * self.settings.t_end


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter family of runs derived from a base scenario."""

    base: Scenario
    axis: str
    values: tuple[float, ...]
    parallelism: int = 1

    def __post_init__(self):
        if self.axis not in _PARAM_NAMES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        labels: dict[str, float] = {}
        for value in self.values:
            label = self.point_label(value)
            if label in labels:
                raise ConfigurationError(
                    f"sweep values {labels[label]!r} and {value!r} share the point "
                    f"name {label}"
                )
            labels[label] = value
            try:
                self._point_params(value)
            except ConfigurationError as exc:
                raise ConfigurationError(f"sweep point {label}: {exc}") from exc

    def point_label(self, value: float) -> str:
        """``{axis}={value:g}``: the suffix of a point's scenario name,
        its directory and its failure line."""
        return f"{self.axis}={value:g}"

    def _point_params(self, value: float) -> ModelParams:
        params = replace(self.base.params, **{self.axis: value})
        if self.axis == "V0" and self.base.params.Vm == self.base.params.V0:
            # a swept V0 drags a defaulted Vm along with it
            params = replace(params, Vm=value)
        return params

    def scenarios(self) -> list[Scenario]:
        return [
            replace(
                self.base,
                name=f"{self.base.name}_{self.point_label(value)}",
                params=self._point_params(value),
            )
            for value in self.values
        ]


@lru_cache(maxsize=None)
def _validator(what: str):
    # jsonschema.validate checks the schema and builds a validator on
    # every call; this does both once per schema
    schema = {"scenario": SCENARIO_SCHEMA, "sweep": SWEEP_SCHEMA}[what]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance: dict, what: str):
    exc = jsonschema.exceptions.best_match(_validator(what).iter_errors(instance))
    if exc is not None:
        raise ConfigurationError(f"invalid {what} at {exc.json_path}: {exc.message}") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from validated JSON data."""
    _validate(raw, "scenario")
    # the schema admits only Scenario's fields; an absent one keeps its default
    kwargs = dict(raw)
    try:
        kwargs["params"] = ModelParams(**raw.get("params", {}))
        kwargs["settings"] = SolverSettings(**raw.get("settings", {}))
        kwargs["initial_cohorts"] = tuple(
            Cohort(
                birth_time=c.get("birth_time", 0.0),
                weight=c["weight"],
                state=TumorState(V=c["V"], K=c["K"]),
            )
            for c in raw.get("initial_cohorts", ())
        )
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"invalid scenario content: {exc}") from exc
    if "outputs" in raw:
        kwargs["outputs"] = tuple(raw["outputs"])
    if "n_bins" in raw:
        # the schema's integer admits 40.0, as JSON has no integer type
        kwargs["n_bins"] = int(raw["n_bins"])
    return Scenario(**kwargs)


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize a Scenario to its JSON file form (round-trips)."""
    out = {
        "name": sc.name,
        "params": asdict(sc.params),
        "settings": asdict(sc.settings),
        "outputs": list(sc.outputs),
        "transient": sc.transient,
        "log_scale": sc.log_scale,
        "n_bins": sc.n_bins,
    }
    if sc.initial_cohorts:
        out["initial_cohorts"] = [
            {
                "birth_time": c.birth_time,
                "weight": c.weight,
                "V": c.state.V,
                "K": c.state.K,
            }
            for c in sc.initial_cohorts
        ]
    return out


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file
    kind in errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: {what} file must hold a JSON object")
    return raw


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(_read_object(path, "scenario"))


def load_sweep(path: str) -> SweepSpec:
    raw = _read_object(path, "sweep")
    _validate(raw, "sweep")

    base_raw = raw["base"]
    if isinstance(base_raw, str):
        by_name = {sc.name: sc for sc in catalog()}
        if base_raw not in by_name:
            raise ConfigurationError(
                f"unknown base scenario {base_raw!r}; catalog has: {', '.join(sorted(by_name))}"
            )
        base = by_name[base_raw]
    else:
        base = scenario_from_dict(base_raw)

    values_raw = raw["values"]
    if isinstance(values_raw, dict):
        values = tuple(
            float(v)
            for v in np.geomspace(values_raw["from"], values_raw["to"], int(values_raw["count"]))
        )
    else:
        values = tuple(float(v) for v in values_raw)

    return SweepSpec(
        base=base,
        axis=raw["axis"],
        values=values,
        parallelism=int(raw.get("parallelism", 1)),
    )


def catalog() -> list[Scenario]:
    """Built-in scenarios covering every reported dynamical regime.

    The linear scenario runs on a shorter horizon: its population grows
    exponentially forever, and a horizon of 20 keeps cumulative counts
    small enough that the conservation identity stays meaningful at
    float precision.
    """
    base = Scenario(name="base")
    long_settings = replace(base.settings, t_end=1000.0)
    return [
        base,
        replace(
            base,
            name="linear",
            params=ModelParams(e=0.0),
            settings=replace(base.settings, t_end=20.0),
        ),
        replace(base, name="b-x10", params=ModelParams(b=10.0)),
        replace(base, name="m-x10", params=ModelParams(m=10.0)),
        replace(base, name="e-x10", params=ModelParams(e=10.0)),
        replace(base, name="b-x0.1", params=ModelParams(b=0.1)),
        replace(base, name="m-x0.1", params=ModelParams(m=0.1)),
        replace(base, name="e-x0.1", params=ModelParams(e=0.1)),
        replace(base, name="bursts", params=ModelParams(m=10.0, k=0.1)),
        replace(
            base,
            name="bursts-long",
            params=ModelParams(m=10.0, k=0.1),
            settings=long_settings,
            log_scale=True,
        ),
        replace(base, name="complex-periodic", params=ModelParams(m=0.1, k=0.1, e=0.02)),
        replace(base, name="deep-seed", params=ModelParams(V0=1e-4, K0=1e-3)),
    ]
