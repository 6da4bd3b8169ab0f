"""Scenario and sweep configuration: loading, and the built-in catalog
of dynamical regimes.

Configuration files are JSON. The loaders check each file's shape (its
objects, their keys and the JSON type of each value), and the
dataclasses they build check the values, all before any numerics run.
A failed check names the JSON path of the offending field.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from .engine import Cohort, SolverSettings
from .errors import ConfigurationError, InvalidStateError
from .model import ModelParams, TumorState, is_finite

__all__ = [
    "Scenario",
    "SweepSpec",
    "catalog",
    "load_scenario",
    "load_sweep",
    "scenario_from_dict",
    "scenario_to_dict",
]

_PARAM_NAMES = tuple(f.name for f in fields(ModelParams))
_SETTING_NAMES = tuple(f.name for f in fields(SolverSettings))
_OUTPUT_KINDS = ("timeseries", "histogram", "metrics", "plots")
_NAME = re.compile(r"[A-Za-z0-9._=+-]+")
# 10 000 base points take hours; 1e12 points would not fit in memory
_MAX_COUNT = 10_000


def _is_number(value) -> bool:
    """JSON's number: any real but a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """JSON's integer: a number with no fractional part, such as 40 or 40.0."""
    return _is_number(value) and value % 1 == 0


def _expect(ok, path: str, value, kind: str, what: str = "scenario"):
    """Reject ``value``, at ``path`` of a ``what`` file, unless ``ok``."""
    if not ok:
        raise ConfigurationError(f"invalid {what} at {path}: {value!r} is not {kind}")


@dataclass(frozen=True)
class Scenario:
    """One named, fully-resolved simulation configuration.

    ``params`` is a ``ModelParams``, ``settings`` a ``SolverSettings``,
    and ``initial_cohorts`` a list or tuple of ``Cohort``, stored as a
    tuple. ``name`` matches ``[A-Za-z0-9._=+-]+``, so it names files
    inside the output directory; ``outputs`` are distinct. ``transient`` is the
    analysis-window start for oscillation metrics; None resolves to a
    quarter of the horizon. ``log_scale`` requests logarithmic y-axes on
    the plots. ``n_bins`` is checked when a run asks for the histogram.
    """

    name: str
    params: ModelParams = field(default_factory=ModelParams)
    settings: SolverSettings = field(default_factory=SolverSettings)
    initial_cohorts: tuple[Cohort, ...] = ()
    outputs: tuple[str, ...] = _OUTPUT_KINDS
    transient: float | None = None
    log_scale: bool = False
    n_bins: int = 40

    def __post_init__(self):
        name, outputs, transient = self.name, self.outputs, self.transient
        ok = isinstance(name, str) and _NAME.fullmatch(name)
        _expect(ok, "$.name", name, f"a string matching {_NAME.pattern!r}")
        _expect(isinstance(self.params, ModelParams), "$.params", self.params, "a ModelParams")
        ok = isinstance(self.settings, SolverSettings)
        _expect(ok, "$.settings", self.settings, "a SolverSettings")
        cohorts = self.initial_cohorts
        _expect(isinstance(cohorts, (list, tuple)), "$.initial_cohorts", cohorts, "a sequence")
        for i, c in enumerate(cohorts):
            _expect(isinstance(c, Cohort), f"$.initial_cohorts[{i}]", c, "a Cohort")
        object.__setattr__(self, "initial_cohorts", tuple(cohorts))
        for i, kind in enumerate(outputs):
            _expect(kind in _OUTPUT_KINDS, f"$.outputs[{i}]", kind, f"one of {list(_OUTPUT_KINDS)}")
        _expect(len(set(outputs)) == len(outputs), "$.outputs", list(outputs), "free of duplicates")
        ok = transient is None or (_is_number(transient) and is_finite(transient))
        _expect(ok, "$.transient", transient, "null or a finite number")
        _expect(isinstance(self.log_scale, bool), "$.log_scale", self.log_scale, "a boolean")

    @property
    def resolved_transient(self) -> float:
        if self.transient is not None:
            return self.transient
        return 0.25 * self.settings.t_end


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter family of runs derived from a base scenario:
    ``base`` is a ``Scenario``, ``values`` a non-empty list or tuple of
    distinct numbers (not bools), stored as floats, and ``parallelism``
    an integer >= 1. Building the sweep builds, and so checks, each point."""

    base: Scenario
    axis: str
    values: tuple[float, ...]
    parallelism: int = 1

    def __post_init__(self):
        _expect(isinstance(self.base, Scenario), "$.base", self.base, "a Scenario", "sweep")
        ok = self.axis in _PARAM_NAMES
        _expect(ok, "$.axis", self.axis, f"one of {list(_PARAM_NAMES)}", "sweep")
        ok = isinstance(self.values, (list, tuple)) and len(self.values) > 0
        _expect(ok, "$.values", self.values, "a non-empty array", "sweep")
        values: dict[float, None] = {}
        for i, value in enumerate(self.values):
            _expect(_is_number(value), f"$.values[{i}]", value, "a number", "sweep")
            try:
                value = float(value)
            except OverflowError as exc:  # an integer beyond the float range
                raise ConfigurationError(f"invalid sweep at $.values[{i}]: {exc}") from exc
            ok = value not in values
            _expect(ok, f"$.values[{i}]", value, "distinct from the values before it", "sweep")
            values[value] = None
        object.__setattr__(self, "values", tuple(values))
        n = self.parallelism
        ok = isinstance(n, Integral) and not isinstance(n, bool) and n >= 1
        _expect(ok, "$.parallelism", n, "an integer >= 1", "sweep")
        self.scenarios()

    def point_label(self, value: float) -> str:
        """``{axis}={value:g}`` at the least precision p >= 6 that reads back
        as ``value`` (NaN, which never does, keeps ``{value:g}``): the suffix
        of a point's scenario name, its directory and its failure line."""
        digits = (f"{value:.{p}g}" for p in range(6, 18))
        return f"{self.axis}=" + next((s for s in digits if float(s) == value), f"{value:g}")

    def scenarios(self) -> list[Scenario]:
        base, points = self.base, []
        for value in self.values:
            label = self.point_label(value)
            swept = {self.axis: value}
            if self.axis == "V0" and base.params.Vm == base.params.V0:
                swept["Vm"] = value  # a swept V0 drags a defaulted Vm along with it
            try:
                params = replace(base.params, **swept)
            except ConfigurationError as exc:
                raise ConfigurationError(f"sweep point {label}: {exc}") from exc
            points.append(replace(base, name=f"{base.name}_{label}", params=params))
        return points


def _check_object(raw, path: str, keys, required=(), numbers=False, what: str = "scenario"):
    """Reject ``raw`` unless it is a JSON object whose keys are among
    ``keys`` and include ``required``, its values all numbers if ``numbers``."""
    _expect(isinstance(raw, dict), path, raw, "an object", what)
    for key, value in raw.items():
        _expect(key in keys, path, key, f"one of the keys {list(keys)}", what)
        _expect(not numbers or _is_number(value), f"{path}.{key}", value, "a number", what)
    for key in required:
        if key not in raw:
            raise ConfigurationError(f"invalid {what} at {path}: {key!r} is a required property")


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from its JSON object. This checks the object's
    shape; Scenario and the dataclasses it holds check the values."""
    _check_object(raw, "$", [f.name for f in fields(Scenario)], required=("name",))
    _check_object(raw.get("params", {}), "$.params", _PARAM_NAMES, numbers=True)
    _check_object(raw.get("settings", {}), "$.settings", _SETTING_NAMES, numbers=True)
    cohorts = raw.get("initial_cohorts", [])
    _expect(isinstance(cohorts, list), "$.initial_cohorts", cohorts, "an array")
    for i, c in enumerate(cohorts):
        keys = ("birth_time", "weight", "V", "K")
        _check_object(c, f"$.initial_cohorts[{i}]", keys, keys[1:], numbers=True)
    # an absent key keeps Scenario's default
    kwargs = dict(raw)
    if "outputs" in raw:
        outputs = raw["outputs"]
        _expect(isinstance(outputs, list), "$.outputs", outputs, "an array")
        kwargs["outputs"] = tuple(outputs)
    if "n_bins" in raw:
        n_bins = raw["n_bins"]
        _expect(_is_integer(n_bins) and n_bins >= 1, "$.n_bins", n_bins, "an integer >= 1")
        kwargs["n_bins"] = int(n_bins)
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
    except InvalidStateError as exc:
        raise ConfigurationError(f"invalid scenario content: {exc}") from exc
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


def _sweep_values(raw):
    """A sweep's values: an array, or ``count`` points geometrically
    spaced from ``from`` to ``to``. ``SweepSpec`` checks the array's items."""
    if isinstance(raw, list):
        return raw
    _expect(isinstance(raw, dict), "$.values", raw, "an array or an object", "sweep")
    keys = ("from", "to", "count")
    _check_object(raw, "$.values", keys, keys, numbers=True, what="sweep")
    for key in ("from", "to"):
        _expect(raw[key] > 0, f"$.values.{key}", raw[key], "positive", "sweep")
    count = raw["count"]
    ok = _is_integer(count) and 2 <= count <= _MAX_COUNT
    _expect(ok, "$.values.count", count, f"an integer in [2, {_MAX_COUNT}]", "sweep")
    try:
        return tuple(np.geomspace(raw["from"], raw["to"], int(count)).tolist())
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigurationError(f"invalid sweep at $.values: {exc}") from exc


def load_sweep(path: str) -> SweepSpec:
    raw = _read_object(path, "sweep")
    keys = ("base", "axis", "values", "parallelism")
    _check_object(raw, "$", keys, keys[:3], what="sweep")

    base_raw = raw["base"]
    if isinstance(base_raw, str):
        by_name = {sc.name: sc for sc in catalog()}
        if base_raw not in by_name:
            raise ConfigurationError(
                f"unknown base scenario {base_raw!r}; catalog has: {', '.join(sorted(by_name))}"
            )
        base = by_name[base_raw]
    elif isinstance(base_raw, dict):
        try:
            base = scenario_from_dict(base_raw)
        except ConfigurationError as exc:
            # the base's paths, read from the sweep's root
            message = str(exc).replace("invalid scenario at $", "invalid sweep at $.base", 1)
            raise ConfigurationError(message) from exc
    else:
        _expect(False, "$.base", base_raw, "a string or an object", "sweep")

    parallelism = raw.get("parallelism", 1)
    _expect(_is_integer(parallelism), "$.parallelism", parallelism, "an integer", "sweep")
    return SweepSpec(
        base=base,
        axis=raw["axis"],
        values=_sweep_values(raw["values"]),
        parallelism=int(parallelism),
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
