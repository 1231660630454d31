"""Secrecy-enhancement planning for noise-limited device-to-device links.

A transmitter at the origin talks to a receiver at distance d while
passive eavesdroppers form a planar Poisson field. The package evaluates
coverage and secrecy probabilities in closed form, optimizes the two
enhancement techniques (guard zone, artificial noise), decides which
technique is preferable at a given link distance, and validates the
closed forms by Monte-Carlo simulation.
"""

from .errors import (
    DegenerateDesignError,
    DomainError,
    ExcludedRegionError,
    NumericalError,
    RegimeError,
)
from .model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    TechniqueMetrics,
    p_active,
    p_cov_an,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
)
from .montecarlo import (
    AnTrialEstimates,
    EavesdropperField,
    GzTrialEstimates,
    McEstimate,
    TrialConfig,
    TrialOutcome,
    auto_window_radius,
    run_an_trials,
    run_gz_trials,
    run_trials,
    sample_field,
    strongest_received_power,
)
from .optimizer import (
    CriticalDistance,
    OptimalDesign,
    SelectionVerdict,
    Technique,
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)
from .specfun import (
    complete_gamma,
    inverse_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "DegenerateDesignError",
    "ExcludedRegionError",
    "RegimeError",
    "NumericalError",
    "SystemParams",
    "GuardZoneDesign",
    "NoiseSplitDesign",
    "TechniqueMetrics",
    "p_active",
    "p_cov_gz",
    "p_sec_gz",
    "p_cov_an",
    "p_sec_an",
    "Technique",
    "OptimalDesign",
    "SelectionVerdict",
    "CriticalDistance",
    "lambda_threshold",
    "optimal_guard_radius",
    "optimal_power_split",
    "selection_function",
    "critical_distance",
    "TrialConfig",
    "EavesdropperField",
    "TrialOutcome",
    "McEstimate",
    "GzTrialEstimates",
    "AnTrialEstimates",
    "auto_window_radius",
    "sample_field",
    "strongest_received_power",
    "run_gz_trials",
    "run_an_trials",
    "run_trials",
    "complete_gamma",
    "upper_incomplete_gamma",
    "inverse_upper_incomplete_gamma",
]
