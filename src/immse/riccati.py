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
    InputValidationError,
    NonConvergenceError,
    NotPsdError,
    NumericError,
)
from .linalg import _fro_norm, symmetrize
from .model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SystemModel,
    Tolerances,
    _check_gain_shape,
    check_controllable,
    check_detectable,
)

__all__ = [
    "RiccatiTrajectory",
    "AreSolution",
    "integrate_rde",
    "solve_care",
    "rates_from_P",
    "care_residual",
    "certify_residual",
]

_NORM_GUARD = 1e12
# Blocked covariance flow: rho * L * dt stays below _BLOCK_SPAN, with rho
# the largest |Re lambda| of the Hamiltonian, and L below _MAX_BLOCK.
_BLOCK_SPAN = 2.0
_MAX_BLOCK = 512


@dataclass(frozen=True)
class RiccatiTrajectory:
    """Covariance path P_t on a uniform grid starting at P_0 = 0:
    ``values[j]`` is P at ``times[j]``."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class AreSolution:
    """Stationary covariance with its residual and stability certificate."""

    P: np.ndarray
    residual: float
    closed_loop_spectrum: np.ndarray


def care_residual(model: SystemModel, gain: SensorGain, P: np.ndarray) -> float:
    """Frobenius norm of A P + P A^T - P C^T C P + B B^T, safe from overflow."""
    A = model.A
    P = np.asarray(P, dtype=float)
    CtC = gain.C.T @ gain.C
    AP = A @ P
    return float(_fro_norm(AP + AP.T - P @ CtC @ P + model.B @ model.B.T))


def certify_residual(
    model: SystemModel, gain: SensorGain, P: np.ndarray, residual_tol: float
) -> tuple[float, str | None]:
    """Judge P by its stationary residual, relative to the equation's terms.

    Accepts P when ``care_residual`` <= residual_tol * (2 ||A||_F ||P||_F
    + (||C^T C||_F ||P||_F) ||P||_F + ||B B^T||_F), so a joint rescaling of
    the model leaves the verdict unchanged; each norm is scaled by its
    largest entry and the quadratic term is grouped so that none
    overflows while the terms themselves are finite.  A NaN residual
    fails.  What an accepted P means is in :func:`solve_care`.  Returns
    the residual and None, or the residual and a message saying by how
    much it missed.
    """
    residual = care_residual(model, gain, P)
    norm_P = _fro_norm(P)
    size = float(
        2.0 * _fro_norm(model.A) * norm_P
        + (_fro_norm(gain.C.T @ gain.C) * norm_P) * norm_P
        + _fro_norm(model.B @ model.B.T)
    )
    if residual <= residual_tol * size:
        return residual, None
    return residual, (
        f"residual {residual:.3e} exceeds target {residual_tol:.1e} x "
        f"{size:.3e}, the size of the equation's terms"
    )


def _grid_steps(dt: float, t_max: float) -> int:
    """Steps of the uniform grid [0, t_max] at step dt, at least one."""
    return max(1, int(round(t_max / dt)))


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
    identity checks consume.  Each block is checked by one batched
    Cholesky factorization of its nodes + psd_tol I; only when that fails
    are its eigenvalues computed, and a node whose smallest eigenvalue is
    below ``-psd_tol`` raises NotPsdError; smaller negative round-off is
    left in place.  Detectability is not required to integrate; a
    genuinely divergent path trips the norm guard instead, which names the
    first node past it.
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
    steps = _grid_steps(dt, t_max)
    H = np.block([[-A.T, CtC], [BBt, A]])
    span = float(np.abs(np.linalg.eigvals(H).real).max()) * dt
    block = min(_MAX_BLOCK, steps)
    if span * block > _BLOCK_SPAN:
        block = max(1, int(_BLOCK_SPAN / span))
    # Phi^1..Phi^L by doubling: Phi^(k+i) = Phi^k Phi^i for i = 1..k.
    powers = expm(H * dt)[None]
    while len(powers) < block:
        powers = np.concatenate([powers, powers[-1] @ powers[: block - len(powers)]])

    values = np.empty((steps + 1, n, n))
    values[0] = 0.0
    slack = tol.psd_tol * np.eye(n)
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
        try:
            np.linalg.cholesky(nodes + slack)
        except np.linalg.LinAlgError:
            lam_min = float(np.linalg.eigvalsh(nodes).min())
            if lam_min < -tol.psd_tol:
                raise NotPsdError(lam_min, tol.psd_tol) from None

    times = np.arange(steps + 1, dtype=float) * dt
    return RiccatiTrajectory(times=times, values=values)


def _stable_solution(A: np.ndarray, BBt: np.ndarray, CtC: np.ndarray) -> np.ndarray:
    """P = S_1 U_21 U_11^{-1} S_1, with [U_11; U_21] the stable invariant
    subspace of the balanced Hamiltonian S H S^{-1} (Laub 1979).

    H = [[A^T, -C^T C], [-B B^T, -A]] is the dual pair's Hamiltonian:
    H [I; P] = [I; P] (A - P C^T C)^T, so its n stable eigenvalues are the
    closed loop's.  S = diag(S_1, S_1^{-1}) = 2^[e, -e] is symplectic, so
    S H S^{-1} is Hamiltonian too (Benner 2001): LAPACK's dgebal balances
    |H| with its diagonal zeroed, without permuting, to scales 2^l, and
    e = round((l_2 - l_1) / 2) as in scipy's solve_continuous_are.
    Powers of two scale exactly.  Raises LinAlgError when the real Schur
    form's stable block is not n wide or U_11 is singular.
    """
    from scipy.linalg import schur  # here: see integrate_rde
    from scipy.linalg.lapack import dgebal

    n = A.shape[0]
    H = np.block([[A.T, -CtC], [-BBt, -A]])
    M = np.abs(H)
    np.fill_diagonal(M, 0.0)
    l = np.log2(dgebal(M, scale=1, permute=0)[3])
    e = np.round(0.5 * (l[n:] - l[:n])).astype(int)
    ex = np.concatenate([e, -e])
    _, U, sdim = schur(np.ldexp(H, ex[:, None] - ex[None, :]), sort="lhp")
    if sdim != n:
        raise np.linalg.LinAlgError(f"the Hamiltonian has {sdim} stable eigenvalues, not {n}")
    X = np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T
    return symmetrize(np.ldexp(X, e[:, None] + e[None, :]))


def solve_care(
    model: SystemModel,
    gain: SensorGain,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AreSolution:
    """Stationary covariance: A P + P A^T - P C^T C P + B B^T = 0, P > 0.

    Solves by one real Schur form of the symplectically balanced 2n x 2n
    Hamiltonian (:func:`_stable_solution`), with no QZ pencil.  The
    balancing keeps it accurate far from unit scale: the tests certify
    B = beta, C = 2 sqrt(2) / beta for beta from 1e-4 to 1e150, and
    design a two-state model with B scaled by up to 1e50.
    Controllability of (A, B) and detectability of (A, C) are demanded up
    front; they are what make the positive definite solution exist, be
    unique, and leave A - P C^T C stable.  The result is certified by
    lambda_min(P) > 0, a closed-loop spectrum left of eig_tol, and its
    residual R by :func:`certify_residual`: ||R||_F at most residual_tol
    times the size of the equation's terms.  P solves exactly the
    equation with B B^T - R in place of B B^T, so an accepted P is the
    solution for data moved by at most that much, a normwise backward
    error (Sun, residual bounds for the algebraic Riccati equation, 1997);
    Schur's relative residual sits at round-off whatever the model's
    scale.  A miss raises NonConvergenceError carrying the Schur solution;
    a Schur form without n stable eigenvalues raises it with none.
    """
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
    CtC = C.T @ C
    try:
        P = _stable_solution(A, model.B @ model.B.T, CtC)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergenceError(
            f"Schur solve of the stationary equation failed: {exc}"
        ) from exc
    residual, miss = certify_residual(model, gain, P, tol.residual_tol)
    if miss:
        raise NonConvergenceError(f"stationary {miss}", last_iterate=P)
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
