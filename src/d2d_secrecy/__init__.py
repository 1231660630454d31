"""Secrecy-enhancement planning for noise-limited device-to-device links.

A transmitter at the origin talks to a receiver at distance d while
passive eavesdroppers form a planar Poisson field. The package evaluates
coverage and secrecy probabilities in closed form, optimizes the two
enhancement techniques (guard zone, artificial noise), decides which
technique is preferable at a given link distance, and validates the
closed forms by Monte-Carlo simulation.

The public API is declared once, in the `__all__` of each library
module (errors, model, optimizer, specfun, montecarlo). The package
republishes it, so a name added there is exported here with no other
edit.

The closed forms, the optimizer and the selection rule need only the
standard library. numpy is imported only when something is first
simulated. The Monte-Carlo names are resolved on first access, so that
`import d2d_secrecy` does not pay for importing the montecarlo module.
"""

import importlib

from . import errors, model, optimizer, specfun
from .errors import *
from .model import *
from .optimizer import *
from .specfun import *

__version__ = "0.1.0"

# resolved on first access: importing montecarlo, even without numpy, would
# add about 12 ms to the package's import
_MONTECARLO_NAMES = (
    "McEstimate",
    "TrialConfig",
    "TrialEstimates",
    "TrialOutcome",
    "auto_window_radius",
    "run_an_trials",
    "run_gz_trials",
    "run_trials",
    "trial_outcomes",
)

__all__ = ["__version__", *errors.__all__, *model.__all__, *optimizer.__all__,
           *specfun.__all__, *_MONTECARLO_NAMES]


def __getattr__(name):
    # not cached in globals(), so a name later rebound on montecarlo (a
    # patch in a test or a tracer) is seen through the package as well
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MONTECARLO_NAMES})
