"""Cohort-based simulator for populations of vascularized tumors coupled
by a circulating angiogenesis inhibitor.

Importing the package loads no SciPy. ``metasim.spectral``, the one
module that imports it (``scipy.optimize``, for the lambda0 root solve),
is loaded on first use: the first ``malthus_exponent``,
``characteristic_flow`` or ``SpectralResult`` read from this package, an
uncoupled run's metrics, or ``metasim lambda0``. A coupled run, a sweep
of coupled points, a catalog pass or a growth-rate fit never loads it.

Each module's ``__all__`` is the list of what the package takes from it.
"""

from . import engine, errors, model, observables, runner, scenarios
from .engine import *
from .errors import *
from .model import *
from .observables import *
from .runner import *
from .scenarios import *

__version__ = "0.1.0"

# spectral.__all__, written out because reading it would load SciPy
_SPECTRAL = ("SpectralResult", "characteristic_flow", "malthus_exponent")

__all__ = [
    *errors.__all__,
    *model.__all__,
    *engine.__all__,
    *observables.__all__,
    *runner.__all__,
    *scenarios.__all__,
    *_SPECTRAL,
]


def __getattr__(name: str):
    # PEP 562: the spectral names load metasim.spectral, and SciPy with it,
    # on first access; the import binds the submodule, not these names, so
    # each later access comes here again and finds the module loaded
    if name in _SPECTRAL:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
