"""Cohort-based simulator for populations of vascularized tumors coupled
by a circulating angiogenesis inhibitor.

Importing the package loads no SciPy. ``metasim.spectral``, the one
module that imports it (``scipy.optimize``, for the lambda0 root solve),
is loaded on first use: the first ``malthus_exponent``,
``characteristic_flow`` or ``SpectralResult`` read from this package, an
uncoupled run's metrics, or ``metasim lambda0``. A coupled run, a sweep
of coupled points, a catalog pass or a growth-rate fit never loads it.
"""

from .engine import (
    Cohort,
    SolverSettings,
    SystemState,
    Trajectory,
    birth_rate,
    inhibitor_rate,
    initial_state,
    simulate,
    simulate_ensemble,
    step,
    total_burden,
)
from .errors import (
    ConfigurationError,
    IntegrationBlowupError,
    InvalidStateError,
    MetasimError,
    NoRootError,
    NotLinearError,
)
from .model import (
    DimensionalParams,
    ModelParams,
    TumorState,
    birth_state,
    emission_rate,
    growth_field,
    local_inhibition_coefficient,
    nondimensionalize,
)
from .observables import (
    OscillationMetrics,
    VolumeHistogram,
    fit_growth_rate,
    histogram,
    oscillation_metrics,
)
from .runner import RunResult, run_scenario, run_sweep
from .scenarios import (
    Scenario,
    SweepSpec,
    catalog,
    load_scenario,
    load_sweep,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "ConfigurationError",
    "IntegrationBlowupError",
    "InvalidStateError",
    "MetasimError",
    "NoRootError",
    "NotLinearError",
    "DimensionalParams",
    "ModelParams",
    "TumorState",
    "birth_state",
    "emission_rate",
    "growth_field",
    "local_inhibition_coefficient",
    "nondimensionalize",
    "Cohort",
    "SolverSettings",
    "SystemState",
    "birth_rate",
    "inhibitor_rate",
    "initial_state",
    "simulate",
    "simulate_ensemble",
    "step",
    "total_burden",
    "OscillationMetrics",
    "Trajectory",
    "VolumeHistogram",
    "fit_growth_rate",
    "histogram",
    "oscillation_metrics",
    "RunResult",
    "run_scenario",
    "run_sweep",
    "Scenario",
    "SweepSpec",
    "catalog",
    "load_scenario",
    "load_sweep",
    "scenario_from_dict",
    "scenario_to_dict",
    "SpectralResult",
    "characteristic_flow",
    "malthus_exponent",
]

__version__ = "0.1.0"

_SPECTRAL = frozenset({"SpectralResult", "characteristic_flow", "malthus_exponent"})


def __getattr__(name: str):
    # PEP 562: the spectral names load metasim.spectral, and SciPy with it,
    # on first access; the import binds the submodule, not these names, so
    # each later access comes here again and finds the module loaded
    if name in _SPECTRAL:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
