"""Secrecy-enhancement planning for noise-limited device-to-device links.

A transmitter at the origin talks to a receiver at distance d while
passive eavesdroppers form a planar Poisson field. The package evaluates
coverage and secrecy probabilities in closed form, optimizes the two
enhancement techniques (guard zone, artificial noise), decides which
technique is preferable at a given link distance, and validates the
closed forms by Monte-Carlo simulation.

The closed forms, the optimizer and the selection rule need only the
standard library. numpy is imported only when something is first
simulated. The Monte-Carlo names are resolved on first access, so that
`import d2d_secrecy` does not pay for importing the montecarlo module.
"""

import importlib

from .errors import (
    DegenerateDesignError,
    DomainError,
    NumericalError,
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

# resolved on first access: importing montecarlo, even without numpy, would
# add about 12 ms to the package's import
_MONTECARLO_NAMES = (
    "EavesdropperField",
    "McEstimate",
    "TrialConfig",
    "TrialEstimates",
    "TrialOutcome",
    "auto_window_radius",
    "run_an_trials",
    "run_gz_trials",
    "run_trials",
    "sample_field",
    "strongest_received_power",
)

__all__ = [
    "__version__",
    "DomainError",
    "DegenerateDesignError",
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
    "complete_gamma",
    "upper_incomplete_gamma",
    "inverse_upper_incomplete_gamma",
]
__all__ += _MONTECARLO_NAMES


def __getattr__(name):
    # not cached in globals(), so a name later rebound on montecarlo (a
    # patch in a test or a tracer) is seen through the package as well
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MONTECARLO_NAMES})
