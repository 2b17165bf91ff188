"""Transient and stationary error covariances of the filtering loop.

Integrates dP/dt = A P + P A^T - P C^T C P + B B^T from P_0 = 0 and solves
the fixed-point equation A P + P A^T - P C^T C P + B B^T = 0.  This route
never touches the convex-optimization module, so the two can cross-check
each other as independent implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowupError,
    DegenerateSpectrumError,
    InputValidationError,
    NonConvergenceError,
    NotPsdError,
    NumericError,
)
from .linalg import solve_lyapunov, symmetrize
from .model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SystemModel,
    Tolerances,
    check_controllable,
    check_detectable,
)

__all__ = [
    "RiccatiTrajectory",
    "AreSolution",
    "integrate_rde",
    "solve_care",
    "kleinman_polish",
    "rates_from_P",
    "care_residual",
]

_NORM_GUARD = 1e12
# Blocked covariance flow: rho * L * dt stays below _BLOCK_SPAN, with rho
# the largest |Re lambda| of the Hamiltonian, and L below _MAX_BLOCK.
_BLOCK_SPAN = 2.0
_MAX_BLOCK = 512


@dataclass(frozen=True)
class RiccatiTrajectory:
    """Covariance path P_t on a uniform grid starting at P_0 = 0.

    ``converged`` records whether the relative residual on dP/dt dropped
    below tolerance somewhere on the grid; ``limit`` is the final iterate
    when it did, else None.
    """

    times: np.ndarray
    values: np.ndarray
    converged: bool
    limit: np.ndarray | None


@dataclass(frozen=True)
class AreSolution:
    """Stationary covariance with its residual and stability certificate."""

    P: np.ndarray
    residual: float
    closed_loop_spectrum: np.ndarray


def care_residual(model: SystemModel, gain: SensorGain, P: np.ndarray) -> float:
    """Frobenius norm of A P + P A^T - P C^T C P + B B^T."""
    A = model.A
    P = np.asarray(P, dtype=float)
    CtC = gain.C.T @ gain.C
    AP = A @ P
    return float(
        np.linalg.norm(AP + AP.T - P @ CtC @ P + model.B @ model.B.T, "fro")
    )


def _rhs(P: np.ndarray, A: np.ndarray, BBt: np.ndarray, CtC: np.ndarray) -> np.ndarray:
    """dP/dt at P, or at each matrix of a stack of them."""
    AP = A @ P
    return AP + AP.swapaxes(-1, -2) - P @ CtC @ P + BBt


def _check_gain_shape(model: SystemModel, gain: SensorGain) -> None:
    if gain.C.shape[1] != model.n:
        raise InputValidationError(
            f"C must have {model.n} columns to match A, got shape {gain.C.shape}"
        )


def integrate_rde(
    model: SystemModel,
    gain: SensorGain,
    dt: float,
    t_max: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> RiccatiTrajectory:
    """Covariance flow on the uniform grid [0, t_max] by its exact transition map.

    P_t = Y_t X_t^{-1} for d[X; Y]/dt = H [X; Y], H = [[-A^T, C^T C],
    [B B^T, A]], so with Phi^j = expm(H j dt) the node j steps after P_k is
    P_{k+j} = (Phi^j_21 + Phi^j_22 P_k)(Phi^j_11 + Phi^j_12 P_k)^{-1}: exact
    up to round-off for any dt (Davison & Maki 1973), then symmetrized.
    The grid is stepped in blocks of L nodes, each computed from the
    block's first node by one batched product with the stacked powers
    Phi, ..., Phi^L and one batched solve.  L keeps rho L dt below
    ``_BLOCK_SPAN``, rho = max |Re lambda(H)|, so the growth of the modes
    within a block, and with it the conditioning of each X_j, stays
    bounded; a stiff pair falls back towards the one-step map (L = 1).
    The whole grid is returned, which is what the simulator and the
    identity checks consume; ``converged`` reports whether some node
    satisfied ``||dP/dt||_F <= residual_tol * (1 + ||P||_F)``.
    Detectability is not required to integrate; a genuinely divergent
    path trips the norm guard instead, which names the first node past it.
    The stationary covariance itself is :func:`solve_care`'s job.
    """
    from scipy.linalg import expm  # here: it would slow `import immse` by ~0.06 s

    _check_gain_shape(model, gain)
    A = model.A
    BBt = model.B @ model.B.T
    CtC = gain.C.T @ gain.C
    dt, t_max = float(dt), float(t_max)
    if not (np.isfinite(dt) and dt > 0):
        raise InputValidationError(f"dt must be finite and > 0, got {dt}")
    if not (np.isfinite(t_max) and t_max >= dt):
        raise InputValidationError(f"t_max must satisfy t_max >= dt, got {t_max}")

    n = model.n
    steps = max(1, int(round(t_max / dt)))
    H = np.block([[-A.T, CtC], [BBt, A]])
    span = float(np.abs(np.linalg.eigvals(H).real).max()) * dt
    block = min(_MAX_BLOCK, steps)
    if span * block > _BLOCK_SPAN:
        block = max(1, int(_BLOCK_SPAN / span))
    # Phi^1..Phi^L by doubling: Phi^(k+i) = Phi^k Phi^i for i = 1..k.
    powers = expm(H * dt)[None]
    while len(powers) < block:
        powers = np.concatenate([powers, powers[-1] @ powers[: block - len(powers)]])

    def settled(P: np.ndarray) -> bool:
        residual = np.linalg.norm(_rhs(P, A, BBt, CtC), axis=(-2, -1))
        return bool(
            np.any(residual <= tol.residual_tol * (1.0 + np.linalg.norm(P, axis=(-2, -1))))
        )

    values = np.empty((steps + 1, n, n))
    values[0] = 0.0
    converged = settled(values[0])
    lam_min = 0.0
    for k in range(0, steps, block):
        count = min(block, steps - k)
        # [X_j; Y_j] = Phi^j [I; P_k]; P_{k+j} = Y_j X_j^{-1}, solved as
        # X_j^T P^T = Y_j^T, and symmetrize drops the transpose.
        XY = powers[:count, :, :n] + powers[:count, :, n:] @ values[k]
        nodes = symmetrize(
            np.linalg.solve(XY[:, :n].swapaxes(1, 2), XY[:, n:].swapaxes(1, 2))
        )
        tripped = ~(np.linalg.norm(nodes, axis=(1, 2)) <= _NORM_GUARD)  # NaN trips too
        if tripped.any():
            raise BlowupError(
                "covariance flow exceeded the norm guard at "
                f"t = {(k + 1 + int(tripped.argmax())) * dt:.6g}; "
                "the pair (A, C) is likely not detectable"
            )
        values[k + 1 : k + 1 + count] = nodes
        # Once settled, the grid needs no further residual checks.
        converged = converged or settled(nodes)
        lam_min = min(lam_min, float(np.linalg.eigvalsh(nodes).min()))

    times = np.arange(steps + 1, dtype=float) * dt
    if lam_min < -tol.psd_tol:
        raise NotPsdError(lam_min, tol.psd_tol)
    return RiccatiTrajectory(
        times=times,
        values=values,
        converged=converged,
        limit=values[-1].copy() if converged else None,
    )


def kleinman_polish(
    A: np.ndarray,
    BBt: np.ndarray,
    CtC: np.ndarray,
    X0: np.ndarray,
    residual_tol: float,
    max_iter: int = 50,
) -> tuple[np.ndarray, float]:
    """Kleinman iteration for A X + X A^T - X CtC X + BBt = 0.

    Each step solves the closed-loop Lyapunov equation of the current
    iterate, converging quadratically from a seed X0 that makes
    A - X0 CtC Hurwitz (Kleinman 1968).  Returns the iterate with the
    smallest Frobenius residual and that residual; the caller compares it
    with its own target.  Stops once the residual is below
    0.01 * residual_tol, or at the round-off floor below residual_tol.
    Raises NonConvergenceError when a step loses closed-loop stability or
    diverges.
    """

    def res(X: np.ndarray) -> float:
        AX = A @ X
        return float(np.linalg.norm(AX + AX.T - X @ CtC @ X + BBt, "fro"))

    X = symmetrize(X0)
    r = res(X)
    best_X, best_r = X, r
    for _ in range(max_iter):
        if best_r <= 0.01 * residual_tol:
            break
        F = A - X @ CtC
        W = symmetrize(X @ CtC @ X + BBt)
        try:
            X_next = solve_lyapunov(F, W)
        except DegenerateSpectrumError as exc:
            raise NonConvergenceError(
                f"polish step lost closed-loop stability: {exc}", last_iterate=X
            ) from exc
        r_next = res(X_next)
        if not np.isfinite(r_next):
            raise NonConvergenceError("polish step diverged", last_iterate=X)
        if r_next < best_r:
            best_X, best_r = X_next, r_next
        elif best_r <= residual_tol:
            break  # at the round-off floor already
        X, r = X_next, r_next
    return best_X, best_r


def solve_care(
    model: SystemModel,
    gain: SensorGain,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AreSolution:
    """Stationary covariance: A P + P A^T - P C^T C P + B B^T = 0, P > 0.

    Seeds from the Hamiltonian Schur method (Laub 1979, as
    ``scipy.linalg.solve_continuous_are`` on the dual pair), then
    Kleinman-polishes to the residual target.  Controllability of (A, B)
    and detectability of (A, C) are demanded up front; they are what make
    the positive definite solution exist, be unique, and leave
    A - P C^T C stable.  The result is certified by its residual, its
    positive definiteness and the closed-loop spectrum.
    """
    from scipy.linalg import solve_continuous_are  # here: see integrate_rde

    _check_gain_shape(model, gain)
    report = check_controllable(model, tol.eig_tol)
    if not report:
        raise InputValidationError(
            f"(A, B) must be a controllable pair, rank {report.rank} of {report.dim}"
        )
    if not check_detectable(model, gain, tol.eig_tol):
        raise InputValidationError(
            "(A, C) must be a detectable pair: an unstable mode is invisible to the sensor"
        )
    A, C = model.A, gain.C
    BBt = model.B @ model.B.T
    CtC = C.T @ C

    try:
        seed = solve_continuous_are(A.T, C.T, BBt, np.eye(C.shape[0]))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergenceError(
            f"Schur seed of the stationary equation failed: {exc}"
        ) from exc
    P, residual = kleinman_polish(A, BBt, CtC, seed, tol.residual_tol)
    if residual > tol.residual_tol:
        raise NonConvergenceError(
            f"stationary residual {residual:.3e} exceeds target {tol.residual_tol:.1e}",
            last_iterate=P,
        )
    lam_min = float(np.linalg.eigvalsh(P).min())
    if lam_min <= 0.0:
        raise NumericError(
            f"stationary covariance is not positive definite: lambda_min = {lam_min:.3e}"
        )
    spectrum = np.linalg.eigvals(A - P @ CtC)
    if float(spectrum.real.max()) >= tol.eig_tol:
        raise NumericError(
            "closed loop failed the stability certificate: max Re(lambda) = "
            f"{float(spectrum.real.max()):.3e}"
        )
    return AreSolution(P=P, residual=residual, closed_loop_spectrum=spectrum)


def rates_from_P(P: np.ndarray, gain: SensorGain) -> tuple[float, float]:
    """Stationary rates for a settled covariance P.

    Returns ``(info_rate, mmse_rate)`` with info_rate = Tr(C P C^T)/2 in
    nats/time and mmse_rate = Tr(P).  Tiny negative round-off is clipped
    to zero; the caller is responsible for P being PSD.
    """
    P = np.asarray(P, dtype=float)
    C = gain.C
    info_rate = 0.5 * float(np.trace(C @ P @ C.T))
    mmse_rate = float(np.trace(P))
    return max(info_rate, 0.0), max(mmse_rate, 0.0)
