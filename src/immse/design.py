"""Sensor synthesis: optimal covariance -> observation gain -> certificate.

Given a distortion budget D, the pipeline solves the trade-off program
for the stationary covariance P, reconstructs a sensor gain C realizing
it, and certifies the pair by an independent stationary solve.  Curve
sweeps repeat the pipeline over a budget grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckError,
    ImmseError,
    InputValidationError,
    NumericError,
    ReconstructionError,
)
from .linalg import chol, psd_sqrt, symmetrize
from .model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SystemModel,
    Tolerances,
    check_detectable,
)
from .riccati import AreSolution, certify_residual, rates_from_P, solve_care
from .sdp import build_sdp, solve

__all__ = [
    "TradeoffPoint",
    "TradeoffCurve",
    "recover_gain",
    "design_sensor",
    "sweep_curve",
]


@dataclass(frozen=True)
class TradeoffPoint:
    """One certified point: budget D, rate R in nats/time, the
    covariance/gain pair realizing it, and the gain's own stationary
    solution from the independent cross-check."""

    D: float
    R: float
    P: np.ndarray
    C: SensorGain
    are_residual: float
    gap: float
    care: AreSolution


@dataclass(frozen=True)
class TradeoffCurve:
    """Points ordered by ascending D; construction re-checks that the
    rate is nonincreasing and convex in D within 10x the gap target."""

    points: tuple[TradeoffPoint, ...]
    gap_tol: float = DEFAULT_TOLERANCES.gap_tol

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        D = [p.D for p in pts]
        R = [p.R for p in pts]
        if any(b <= a for a, b in zip(D, D[1:])):
            raise InputValidationError("curve budgets must be strictly ascending")
        slack = 10.0 * self.gap_tol
        for i in range(1, len(pts)):
            if R[i] > R[i - 1] + slack:
                raise CrossCheckError(
                    f"rate increased along the curve at D = {D[i]:g}: "
                    f"{R[i - 1]:.12g} -> {R[i]:.12g}"
                )
        for i in range(1, len(pts) - 1):
            lam = (D[i + 1] - D[i]) / (D[i + 1] - D[i - 1])
            chord = lam * R[i - 1] + (1.0 - lam) * R[i + 1]
            if R[i] > chord + slack:
                raise CrossCheckError(
                    f"rate is not convex at D = {D[i]:g}: value {R[i]:.12g} "
                    f"exceeds chord {chord:.12g}"
                )

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def recover_gain(
    model: SystemModel,
    P: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[SensorGain, float]:
    """Reconstruct C from a covariance P with A P + P A^T + B B^T >= 0.

    C is the symmetric PSD square root of M = P^{-1}(A P + P A^T +
    B B^T) P^{-1}, the canonical representative of the orthogonal family
    U C sharing one C^T C.  It is taken as the symmetric polar factor of
    F P^{-1}, F the PSD square root of A P + P A^T + B B^T.  The returned
    gain is certified: (P, C) must pass :func:`riccati.certify_residual`
    and (A, C) must be detectable.  Returns the gain and the residual,
    ``care_residual(model, gain, P)``.
    """
    from scipy.linalg import cho_solve  # here: see riccati.integrate_rde

    P = symmetrize(np.asarray(P, dtype=float))
    # Scale-free: Cholesky fails near lambda_min(P) ~ n eps ||P||, whatever P's size.
    L = chol(P)
    if L is None:
        raise InputValidationError("P is numerically singular: its Cholesky factorization fails")
    A = model.A
    BBt = model.B @ model.B.T
    AP = A @ P
    F = psd_sqrt(AP + AP.T + BBt, tol.psd_tol)
    # K = F^T P^{-1} has K^T K = M, so M's square root is the symmetric
    # polar factor V diag(s) V^T of K's SVD; M itself, whose eigenvalues
    # square P's condition number, is never formed.
    _, s, Vt = np.linalg.svd(cho_solve((L, True), F).T)
    gain = SensorGain(symmetrize((Vt.T * s) @ Vt))

    residual, miss = certify_residual(model, gain, P, tol.residual_tol)
    if miss:
        raise ReconstructionError(f"reconstructed gain misses the stationary equation: {miss}")
    if not check_detectable(model, gain, tol.eig_tol):
        raise ReconstructionError(
            "reconstructed gain failed the detectability certificate"
        )
    return gain, residual


def design_sensor(
    model: SystemModel, D: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> TradeoffPoint:
    """Solve, reconstruct, and cross-certify one budget.

    The stationary covariance of the reconstructed gain is recomputed by
    the differential-equation route and must agree with the optimizer
    output: its trace and the rate each within 1e-5 max(1, |value|), so
    absolute up to 1 and relative beyond.  Disagreement is a bug trap,
    not a tolerance knob.
    """
    problem = build_sdp(model, D)
    sol = solve(problem, tol)
    gain, residual = recover_gain(model, sol.P, tol)
    care = solve_care(model, gain, tol)

    trace_sdp = float(np.trace(sol.P))
    trace_care = float(np.trace(care.P))
    if abs(trace_care - trace_sdp) > 1e-5 * max(1.0, abs(trace_sdp)):
        raise CrossCheckError(
            f"stationary traces disagree at D = {D:g}: optimizer "
            f"{trace_sdp:.12g} vs differential {trace_care:.12g}"
        )
    info_care, _ = rates_from_P(care.P, gain)
    if abs(info_care - sol.objective) > 1e-5 * max(1.0, abs(sol.objective)):
        raise CrossCheckError(
            f"rates disagree at D = {D:g}: optimizer {sol.objective:.12g} "
            f"vs differential {info_care:.12g}"
        )
    if sol.objective < -tol.gap_tol:
        raise NumericError(
            f"negative rate {sol.objective:.3e} at D = {D:g} exceeds gap slack"
        )
    return TradeoffPoint(
        D=float(D),
        R=sol.objective,
        P=sol.P,
        C=gain,
        are_residual=residual,
        gap=sol.duality_gap,
        care=care,
    )


def sweep_curve(
    model: SystemModel,
    D_grid,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TradeoffCurve:
    """One certified point per budget, ordered by grid index.

    Any point failure aborts the sweep: the point's own error propagates,
    its message prefixed with the offending budget.
    """
    grid = [float(d) for d in D_grid]
    if not grid:
        raise InputValidationError("budget grid must be non-empty")
    if any(not (np.isfinite(d) and d > 0) for d in grid):
        raise InputValidationError("budget grid entries must be finite and > 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputValidationError("budget grid must be strictly ascending")

    def point(D: float) -> TradeoffPoint:
        try:
            return design_sensor(model, D, tol)
        except ImmseError as exc:
            exc.args = (f"sweep aborted at D = {D:g}: {exc}",)
            raise

    points = tuple(point(D) for D in grid)
    return TradeoffCurve(points=points, gap_tol=tol.gap_tol)
