"""Cohort-based simulator for populations of vascularized tumors coupled
by a circulating angiogenesis inhibitor."""

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
from .spectral import (
    SpectralResult,
    characteristic_flow,
    fit_growth_rate,
    malthus_exponent,
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
    "fit_growth_rate",
    "malthus_exponent",
]

__version__ = "0.1.0"
