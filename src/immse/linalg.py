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

__all__ = ["symmetrize", "psd_sqrt", "solve_lyapunov", "chol", "van_loan"]

_KRON_TOL = 1e-9
# Diagonal Pade degree m, the largest 1-norm it takes to double precision
# unscaled, and its numerator's coefficients (Higham 2005, Table 2.3).
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
      2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152,
     (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


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


def _expm_stack(M: np.ndarray) -> np.ndarray:
    """Exponential of every matrix in a stack (..., n, n) of finite matrices.

    Scaling and squaring with a diagonal Pade approximant (Higham 2005,
    Algorithm 2.3), vectorized over the stack: the largest 1-norm in the
    stack picks one degree m and one scaling 2^-s for all of it, so the
    whole stack costs about m/2 batched products, one batched solve and s
    batched squarings, where ``scipy.linalg.expm`` loops over its matrices
    one at a time.
    """
    M = np.asarray(M, dtype=float)
    norm = float(np.abs(M).sum(axis=-2).max(initial=0.0))
    for m, theta, b in _PADE:
        if norm <= theta:
            s = 0
            break
    else:
        s = int(np.ceil(np.log2(norm / theta)))
        M = M * 2.0**-s
    eye = np.eye(M.shape[-1])
    M2 = M @ M
    power = M2
    V, U = b[0] * eye + b[2] * M2, b[1] * eye + b[3] * M2
    for j in range(4, m, 2):
        power = power @ M2
        V, U = V + b[j] * power, U + b[j + 1] * power
    U = M @ U
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def van_loan(F: np.ndarray, Q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discretization over h of dX = F X dt + dN, Cov dN = Q dt, for stacks.

    One block exponential (Van Loan 1978) per matrix of the stack,
    expm([[F, Q], [0, -F^T]] h) = [[Phi, G], [0, expm(-F^T h)]], gives the
    mean propagator Phi = expm(F h) and the noise covariance
    W = G Phi^T = int_0^h expm(F s) Q expm(F^T s) ds.  A single pair goes
    to ``scipy.linalg.expm``, a stack to :func:`_expm_stack`.
    """
    from scipy.linalg import expm  # here: it would slow `import immse` by ~0.06 s

    F, Q = np.asarray(F, dtype=float), np.asarray(Q, dtype=float)
    n = F.shape[-1]
    top = np.concatenate([F, Q], axis=-1)
    bottom = np.concatenate([np.zeros_like(F), -F.swapaxes(-1, -2)], axis=-1)
    M = np.concatenate([top, bottom], axis=-2) * h
    VL = expm(M) if M.ndim == 2 else _expm_stack(M)
    Phi = VL[..., :n, :n]
    return Phi, VL[..., :n, n:] @ Phi.swapaxes(-1, -2)
