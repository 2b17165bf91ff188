"""Dense symmetric linear-algebra kernels used throughout the package.

All routines operate on plain ``numpy`` arrays.  Symmetric matrices are
represented as full square arrays; callers are expected to pass data that
is symmetric up to round-off, and every routine symmetrizes internally
before factorizing so the result is exactly symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InputValidationError,
    NotPsdError,
    NumericError,
)

__all__ = ["symmetrize", "psd_sqrt", "solve_lyapunov", "chol"]

_KRON_TOL = 1e-9


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2, over the last two axes of a stack of matrices."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _check_square_finite(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputValidationError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputValidationError(f"{name} contains non-finite entries")
    return M


def psd_sqrt(M: np.ndarray, psd_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root of a (nearly) PSD symmetric matrix.

    Eigenvalues in ``[-tol, 0)`` are treated as round-off and clipped to
    zero, where ``tol = max(psd_tol, 1e-12 * lambda_max)``; an eigenvalue
    below ``-tol`` raises :class:`NotPsdError`.  The result ``S``
    satisfies ``S @ S ~= M_+`` with ``M_+`` the clipped matrix.
    """
    M = _check_square_finite(M, "M")
    try:
        w, V = np.linalg.eigh(symmetrize(M))
    except np.linalg.LinAlgError as exc:  # LAPACK iteration cap
        raise NumericError(f"symmetric eigensolver failed to converge: {exc}") from exc
    lam_max = max(w[-1], 0.0)
    tol = max(psd_tol, 1e-12 * lam_max)
    if w[0] < -tol:
        raise NotPsdError(w[0], tol)
    S = (V * np.sqrt(np.where(w < 1e-12 * lam_max, 0.0, w))) @ V.T
    return symmetrize(S)


def solve_lyapunov(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``F X + X F^T + W = 0``.

    Solved by Bartels-Stewart (``scipy.linalg.solve_continuous_lyapunov``:
    a Schur form of ``F`` and a triangular back-substitution).  Solvability
    requires that no two eigenvalues of ``F`` sum to zero; the pair sums
    ``lambda_i + lambda_j`` are the spectrum of the Kronecker operator
    ``I (x) F + F (x) I``, which counts as singular when its smallest
    eigenvalue modulus is at most 1e-9 * max(its largest, 1).

    Parameters
    ----------
    F : (n, n) array
        Coefficient matrix, not necessarily symmetric.
    W : (n, n) array
        Symmetric right-hand side.

    Returns
    -------
    X : (n, n) array, symmetric when W is symmetric.
    """
    from scipy.linalg import solve_continuous_lyapunov  # here: see integrate_rde

    F = _check_square_finite(F, "F")
    W = _check_square_finite(W, "W")
    if F.shape != W.shape:
        raise InputValidationError(
            f"F and W must have matching shapes, got {F.shape} and {W.shape}"
        )
    lam = np.linalg.eigvals(F)
    mags = np.abs(lam[:, None] + lam[None, :])
    if mags.min() <= _KRON_TOL * max(mags.max(), 1.0):
        raise DegenerateSpectrumError(
            "Lyapunov operator is singular: eigenvalues of F contain a pair "
            f"summing to ~0 (min |lambda_i + lambda_j| = {mags.min():.3e})"
        )

    X = solve_continuous_lyapunov(F, -W)
    X = symmetrize(X) if np.allclose(W, W.T) else X

    residual = np.linalg.norm(F @ X + X @ F.T + W, "fro")
    scale = (
        np.linalg.norm(F, "fro") * np.linalg.norm(X, "fro")
        + np.linalg.norm(W, "fro")
    )
    if residual > 1e-9 * max(scale, 1e-300):
        raise NumericError(
            f"Lyapunov solve lost accuracy: residual {residual:.3e} "
            f"exceeds 1e-9 * {scale:.3e}"
        )
    return X


def chol(M: np.ndarray):
    """Cholesky factor of a symmetric matrix, or ``None`` if not PD.

    Returns the lower-triangular ``L`` with ``L @ L.T = M`` on success.
    Failure (any eigenvalue <= 0, or non-finite input) is a valid return,
    used as the fast positive-definiteness test inside the barrier solver.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.all(np.isfinite(M)):
        return None
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
