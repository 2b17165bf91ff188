"""Information-MMSE trade-off toolkit for Gauss-Markov sources.

Computes the smallest achievable mutual-information rate R(D) compatible
with an MMSE budget D for linear diffusions observed through a designable
sensor, recovers the optimal sensor gain, cross-checks it against the
stationary Riccati equation, and validates everything by Monte Carlo
simulation and a quantize-and-hold coding experiment.
"""

from .errors import (
    BlowupError,
    CrossCheckError,
    DegenerateSpectrumError,
    ImmseError,
    InfeasibleError,
    InputValidationError,
    NonConvergenceError,
    NotPsdError,
    NumericError,
    ReconstructionError,
)
from .linalg import chol, psd_sqrt, solve_lyapunov, symmetrize, van_loan
from .model import (
    DEFAULT_TOLERANCES,
    ControllabilityReport,
    RunParams,
    SensorGain,
    SystemModel,
    Tolerances,
    ZdscParams,
    check_controllable,
    check_detectable,
    load_problem,
)
from .riccati import (
    AreSolution,
    RiccatiTrajectory,
    care_residual,
    certify_residual,
    integrate_rde,
    rates_from_P,
    solve_care,
)
from .sdp import SdpProblem, SdpSolution, build_sdp, find_feasible_start
from .sdp import solve as solve_sdp
from .design import TradeoffCurve, TradeoffPoint, design_sensor, recover_gain, sweep_curve
from .validate import DuncanReport, SimConfig, SimResult, simulate
from .zdsc import ZdscResult, ZdscScheme, decode_and_measure, encode, estimate_rate, measure_ladder

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ImmseError",
    "InputValidationError",
    "NumericError",
    "NotPsdError",
    "DegenerateSpectrumError",
    "BlowupError",
    "InfeasibleError",
    "NonConvergenceError",
    "ReconstructionError",
    "CrossCheckError",
    "symmetrize",
    "psd_sqrt",
    "solve_lyapunov",
    "chol",
    "van_loan",
    "SystemModel",
    "SensorGain",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "ControllabilityReport",
    "ZdscParams",
    "RunParams",
    "check_controllable",
    "check_detectable",
    "load_problem",
    "RiccatiTrajectory",
    "AreSolution",
    "integrate_rde",
    "solve_care",
    "care_residual",
    "certify_residual",
    "rates_from_P",
    "SdpProblem",
    "SdpSolution",
    "build_sdp",
    "find_feasible_start",
    "solve_sdp",
    "TradeoffPoint",
    "TradeoffCurve",
    "recover_gain",
    "design_sensor",
    "sweep_curve",
    "SimConfig",
    "SimResult",
    "DuncanReport",
    "simulate",
    "ZdscScheme",
    "ZdscResult",
    "encode",
    "estimate_rate",
    "measure_ladder",
    "decode_and_measure",
    "main",
]


def main(argv=None) -> int:
    """Console entry point (lazy import keeps library imports light)."""
    from .cli import main as _main

    return _main(argv)
