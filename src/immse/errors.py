"""Exception hierarchy shared by all immse modules."""

from __future__ import annotations

__all__ = [
    "ImmseError", "InputValidationError", "NumericError", "NotPsdError", "DegenerateSpectrumError",
    "BlowupError", "InfeasibleError", "NonConvergenceError", "ReconstructionError",
    "CrossCheckError",
]


class ImmseError(Exception):
    """Base class for all errors raised by this package."""


class InputValidationError(ImmseError):
    """Problem data violates one or more invariants.

    `violations` lists every violated invariant, not just the first one
    found, so a bad config file can be fixed in one pass.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericError(ImmseError):
    """A dense linear-algebra kernel failed to converge or lost accuracy."""


class NotPsdError(NumericError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""

    def __init__(self, lambda_min, tol):
        self.lambda_min = float(lambda_min)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not PSD: lambda_min = {self.lambda_min:.6e} "
            f"< -{self.tol:.1e}"
        )


class DegenerateSpectrumError(NumericError):
    """Lyapunov operator is singular: F and -F share a mirrored eigenvalue pair."""


class BlowupError(ImmseError):
    """A trajectory exceeded the divergence guard."""


class InfeasibleError(ImmseError):
    """The distortion budget's strictly feasible start is lost in float64.

    Such a start exists for every budget D > 0 and controllable (A, B);
    this error means float64 cannot hold its interior, as when the
    shifted Lyapunov solution behind it is not numerically definite for a
    pair that only just passes the controllability test.
    `trace_reached` is the start's weighted trace.
    """

    def __init__(self, message, trace_reached=None):
        self.trace_reached = trace_reached
        super().__init__(message)


class NonConvergenceError(ImmseError):
    """An iterative solver hit its iteration cap or stalled.

    `last_iterate` carries the last iterate, for diagnostics.
    """

    def __init__(self, message, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ReconstructionError(ImmseError):
    """Sensor-gain recovery failed its residual or detectability certificate."""


class CrossCheckError(ImmseError):
    """Two independent computations of the same quantity disagree (bug trap)."""
