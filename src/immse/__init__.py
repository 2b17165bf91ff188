"""Information-MMSE trade-off toolkit for Gauss-Markov sources.

Computes the smallest achievable mutual-information rate R(D) compatible
with an MMSE budget D for linear diffusions observed through a designable
sensor, recovers the optimal sensor gain, cross-checks it against the
stationary Riccati equation, and validates everything by Monte Carlo
simulation and a quantize-and-hold coding experiment.

``import immse`` loads the error and model layer only (enough for
``load_problem``); each solver module loads on first access to it or to
one of its exports.
"""

from importlib import import_module

from . import errors, model
from .errors import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

# Solver module -> the names the package exports from it, loaded lazily.
_LAZY_EXPORTS = {
    "linalg": ("symmetrize", "psd_sqrt", "solve_lyapunov", "chol", "van_loan"),
    "riccati": ("RiccatiTrajectory", "AreSolution", "integrate_rde", "solve_care",
                "care_residual", "certify_residual", "rates_from_P"),
    "sdp": ("SdpProblem", "SdpSolution", "build_sdp", "solve_sdp"),
    "design": ("TradeoffPoint", "TradeoffCurve", "recover_gain", "design_sensor", "sweep_curve"),
    "validate": ("SimResult", "DuncanReport", "simulate"),
    "zdsc": ("ZdscScheme", "ZdscResult", "estimate_rate", "measure_ladder", "decode_and_measure"),
}
# Package name -> its name in the submodule, where the two differ.
_RENAMED = {"solve_sdp": "solve"}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = ["__version__", *errors.__all__, *model.__all__, *_LAZY, "main"]


def __getattr__(name: str):
    """Load a solver module, or one of its exports, on first access (PEP 562).

    An export is then cached in the package namespace; an imported
    submodule is bound there by the import system itself.
    """
    if name in _LAZY_EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def main(argv=None) -> int:
    """Console entry point (lazy import keeps library imports light)."""
    from .cli import main as _main

    return _main(argv)
