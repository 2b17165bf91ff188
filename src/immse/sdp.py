"""Semidefinite representation of the information/MMSE trade-off.

The stationary trade-off value at distortion budget D is

    minimize   Tr(A) + Tr(Q)/2
    over       symmetric P (n x n), Q (m x m)
    subject to A P + P A^T + B B^T  >= 0
               [[Q, B^T], [B, P]]  >= 0
               Tr(P) <= D

solved here by a bespoke log-det barrier method: the problem has at most
a few hundred unknowns at desk scale, so a dense Newton iteration on the
central path beats pulling in a general conic solver.  The Newton system
is assembled from the pieces of each block that a direction touches (the
Lyapunov operator for the first block, the 2 x 2 partition of the second
block's inverse), never from dense derivative tensors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    InputValidationError,
    NonConvergenceError,
    NumericError,
)
from .linalg import chol, symmetrize
from .model import (
    DEFAULT_TOLERANCES,
    SystemModel,
    Tolerances,
    check_controllable,
)
from .riccati import kleinman_polish

__all__ = ["SdpProblem", "SdpSolution", "build_sdp", "find_feasible_start", "solve"]

_T_GROWTH = 5.0
_INNER_TOL = 1e-10
_MIN_STEP = 1e-14
_MAX_STAGES = 80
_MAX_INNER = 200
_GAMMA_CAP = 2.0**60


@dataclass(frozen=True)
class SdpProblem:
    """Constraint data for one distortion budget."""

    model: SystemModel
    D: float

    def block1(self, P: np.ndarray) -> np.ndarray:
        """A P + P A^T + B B^T, required PSD."""
        A = self.model.A
        AP = A @ P
        return symmetrize(AP + AP.T + self.model.B @ self.model.B.T)

    def block2(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """[[Q, B^T], [B, P]], required PSD; encodes Q >= B^T P^{-1} B."""
        B = self.model.B
        return np.block([[Q, B.T], [B, P]])

    def block3(self, P: np.ndarray) -> float:
        """D - Tr(P), required nonnegative."""
        return self.D - float(np.trace(P))


@dataclass(frozen=True)
class SdpSolution:
    """Central-path terminal point with its certificate numbers.

    ``lmi_residuals`` holds the minimum eigenvalue of each PSD block and
    the trace slack, in constraint order.
    """

    P: np.ndarray
    Q: np.ndarray
    objective: float
    duality_gap: float
    lmi_residuals: tuple[float, float, float]
    iterations: int


def build_sdp(model: SystemModel, D: float) -> SdpProblem:
    """Validate the budget and assemble the constraint data."""
    if isinstance(D, bool) or not isinstance(D, (int, float)):
        raise InputValidationError(f"D must be a number, got {D!r}")
    D = float(D)
    if not (np.isfinite(D) and D > 0):
        raise InputValidationError(f"D must be finite and > 0, got {D}")
    return SdpProblem(model=model, D=D)


def _stationary_gamma(A: np.ndarray, BBt: np.ndarray, gamma: float) -> np.ndarray:
    """Stationary covariance for the probe sensor C = gamma I.

    Solved by the Kleinman iteration from the stabilizing diagonal seed
    X0 = ((alpha + 1) / gamma^2) I with alpha the spectral abscissa of A:
    A - gamma^2 X0 = A - (alpha + 1) I is Hurwitz by construction, and
    the seed stays well scaled however large gamma grows.
    """
    n = A.shape[0]
    alpha = float(np.linalg.eigvals(A).real.max())
    X0 = ((max(alpha, 0.0) + 1.0) / gamma**2) * np.eye(n)
    CtC = gamma**2 * np.eye(n)
    target = 1e-11 * (1.0 + float(np.linalg.norm(BBt, "fro")))
    X, residual = kleinman_polish(A, BBt, CtC, X0, target, max_iter=80)
    if residual > 100.0 * target:
        raise NonConvergenceError(
            f"probe-sensor covariance did not converge (residual {residual:.3e})",
            last_iterate=X,
        )
    return X


def find_feasible_start(
    problem: SdpProblem, eig_tol: float = DEFAULT_TOLERANCES.eig_tol
) -> tuple[np.ndarray, np.ndarray]:
    """Strictly feasible (P0, Q0) for the barrier method.

    The probe sensor C = gamma I gives a stationary covariance with
    A P + P A^T + B B^T = gamma^2 P^2 > 0, and its trace shrinks to zero
    as gamma grows; doubling gamma until the trace fits strictly under D
    always terminates for D > 0.  Q0 = B^T P0^{-1} B + I then makes the
    second block strictly definite.  (A, B) must be controllable at
    ``eig_tol``; :func:`solve` passes its tolerances' value.
    """
    model, D = problem.model, problem.D
    report = check_controllable(model, eig_tol)
    if not report:
        raise InputValidationError(
            f"(A, B) must be a controllable pair, rank {report.rank} of {report.dim}"
        )
    A = model.A
    BBt = model.B @ model.B.T
    gamma = 1.0
    trace_reached = np.inf
    while gamma <= _GAMMA_CAP:
        P0 = _stationary_gamma(A, BBt, gamma)
        trace = float(np.trace(P0))
        trace_reached = min(trace_reached, trace)
        if (
            trace < D * (1.0 - 1e-6)
            and float(np.linalg.eigvalsh(P0).min()) > 0.0
            and chol(problem.block1(P0)) is not None
        ):
            Q0 = symmetrize(
                model.B.T @ np.linalg.solve(P0, model.B) + np.eye(model.m)
            )
            if chol(problem.block2(P0, Q0)) is not None:
                return P0, Q0
        gamma *= 2.0
    raise InfeasibleError(
        f"no strictly feasible point found for D = {D}: smallest trace reached "
        f"was {trace_reached:.6e}",
        trace_reached=trace_reached,
    )


@functools.cache
def _sym_coords(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed coordinates of symmetric k x k matrices: unit diagonals
    first, then unit-pair off-diagonals in row-major order.

    Returns the row and column of each coordinate and its multiplicity
    (1 on the diagonal, 2 off it), so that <M, S_a> = mult[a] * M[row, col]
    for symmetric M and the basis matrix S_a of coordinate a.  Computed
    once per size, since every line-search point packs and unpacks; the
    arrays are shared, so they are read-only.
    """
    d = np.arange(k)
    iu, ju = np.triu_indices(k, 1)
    mult = np.concatenate([np.ones(k), np.full(iu.size, 2.0)])
    coords = (np.concatenate([d, iu]), np.concatenate([d, ju]), mult)
    for a in coords:
        a.flags.writeable = False
    return coords


def _pack(M: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in the _sym_coords ordering."""
    rows, cols, _ = _sym_coords(M.shape[0])
    return M[rows, cols]


def _unpack(x: np.ndarray, k: int) -> np.ndarray:
    rows, cols, _ = _sym_coords(k)
    M = np.empty((k, k))
    M[rows, cols] = x
    M[cols, rows] = x
    return M


class _Congruence:
    """Matrix of S -> U S U^T in packed coordinates, paired with the basis.

    Entry (b, a) is <U S_a U^T, S_b> = tr(U S_a U^T S_b) for S_a a basis
    matrix of ``cols`` (U.shape[1] wide) and S_b one of ``rows``
    (U.shape[0] wide): the symmetric Kronecker product of U with itself,
    gathered entry by entry from U through flat indices fixed up front.
    """

    def __init__(self, rows, cols, width: int):
        k, l, mult_b = rows
        i, j, mult_a = cols
        k, l = k[:, None] * width, l[:, None] * width
        self.index = (k + i, l + j, k + j, l + i)
        self.weight = 0.5 * np.outer(mult_b, mult_a)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        u = U.ravel()
        ki, lj, kj, li = self.index
        return self.weight * (u[ki] * u[lj] + u[kj] * u[li])


class _BarrierDerivatives:
    """Gradient and Hessian of -log det G1 - log det G2 - log g3 over the
    packed (P, Q) coordinates, P first.

    A P direction S moves G1 by A S + S A^T and the lower-right corner of
    G2 by S; a Q direction F moves only the upper-left corner of G2.  So
    block 1 enters the P rows alone, through T1 = A S + S A^T over the P
    basis, and block 2 splits along the 2 x 2 partition of W = G2^{-1}:
    W22 couples P with P, W11 couples Q with Q and W12 couples P with Q.
    No dense derivative tensor over all directions is formed.
    """

    def __init__(self, A: np.ndarray, m: int):
        n = A.shape[0]
        self.n, self.m = n, m
        self.coords_P = coords_P = _sym_coords(n)
        self.coords_Q = coords_Q = _sym_coords(m)
        self.W22_PP = _Congruence(coords_P, coords_P, n)
        self.W12_QP = _Congruence(coords_Q, coords_P, n)
        self.W11_QQ = _Congruence(coords_Q, coords_Q, m)
        NP = coords_P[0].size
        S = np.array([_unpack(e, n) for e in np.eye(NP)])
        self.T1 = A @ S + S @ A.T
        self.T1f = self.T1.reshape(NP, n * n)
        self.tr_S = _pack(np.eye(n))

    def __call__(
        self, G1: np.ndarray, G2: np.ndarray, g3: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        G1inv = symmetrize(np.linalg.solve(G1, np.eye(n)))
        W = symmetrize(np.linalg.solve(G2, np.eye(m + n)))
        W11, W12, W22 = W[:m, :m], W[:m, m:], W[m:, m:]
        rows_P, cols_P, mult_P = self.coords_P
        rows_Q, cols_Q, mult_Q = self.coords_Q
        NP = rows_P.size

        grad = np.concatenate(
            [
                -self.T1f @ G1inv.ravel()
                - mult_P * W22[rows_P, cols_P]
                + self.tr_S / g3,
                -mult_Q * W11[rows_Q, cols_Q],
            ]
        )
        Z = G1inv @ self.T1 @ G1inv
        H_PP = (
            self.T1f @ Z.reshape(NP, n * n).T
            + self.W22_PP(W22)
            + np.outer(self.tr_S, self.tr_S) / g3**2
        )
        H_QP = self.W12_QP(W12)
        H_QQ = self.W11_QQ(W11)
        H = np.block([[H_PP, H_QP.T], [H_QP, H_QQ]])
        return grad, H


def _logdet(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def solve(problem: SdpProblem, tol: Tolerances = DEFAULT_TOLERANCES) -> SdpSolution:
    """Minimize Tr(A) + Tr(Q)/2 over the three-block feasible set.

    Follows the central path of the log-det barrier: Newton steps on the
    packed (P, Q) coordinates, damped by an Armijo backtracking search
    that never leaves the strict interior; the barrier parameter starts
    at t = 1 and grows geometrically until the certificate nu/t drops
    below gap_tol.  Each Newton Hessian is assembled from the block
    structure (see _BarrierDerivatives): about 6 M multiply-adds at
    n = m = 16, where contracting dense derivative tensors took about
    105 M.  The run is deterministic.
    """
    model, D = problem.model, problem.D
    n, m = model.n, model.m
    A = model.A
    B = model.B

    P0, Q0 = find_feasible_start(problem, tol.eig_tol)

    NP = n * (n + 1) // 2
    derivatives = _BarrierDerivatives(A, m)
    # The objective Tr(A) + Tr(Q)/2 is linear, with gradient Tr(F)/2 on Q.
    c_obj = np.concatenate([np.zeros(NP), 0.5 * _pack(np.eye(m))])

    def point(x: np.ndarray):
        P = _unpack(x[:NP], n)
        Q = _unpack(x[NP:], m)
        G1 = problem.block1(P)
        G2 = problem.block2(P, Q)
        g3 = problem.block3(P)
        L1 = chol(G1)
        L2 = chol(G2)
        if L1 is None or L2 is None or g3 <= 0.0:
            return None
        return P, Q, G1, G2, g3, L1, L2

    def barrier_value(state, t: float) -> float:
        # Objective plus barrier scaled by 1/t: same minimizer and Newton
        # direction as t*objective + barrier, but the value stays O(1) as
        # t grows, so the 1e-10 decrement target stays resolvable in
        # double precision.
        _, Q, _, _, g3, L1, L2 = state
        return 0.5 * float(np.trace(Q)) + (
            -_logdet(L1) - _logdet(L2) - float(np.log(g3))
        ) / t

    x = np.concatenate([_pack(P0), _pack(Q0)])
    state = point(x)
    if state is None:
        raise NumericError("feasible start failed the strict interior check")

    nu = float(n + (m + n) + 1)
    t = 1.0
    newton_steps = 0

    for _ in range(_MAX_STAGES):
        for _ in range(_MAX_INNER):
            _, _, G1, G2, g3, _, _ = state
            grad_phi, H_phi = derivatives(G1, G2, g3)
            grad = c_obj + grad_phi / t
            H = H_phi / t
            try:
                delta = np.linalg.solve(symmetrize(H), -grad)
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(
                    f"Newton system became singular at t = {t:.3e}",
                    last_iterate=(state[0], state[1]),
                ) from exc
            decrement2 = float(-grad @ delta)
            # Negative values are round-off at the centering floor.
            if decrement2 <= 2.0 * _INNER_TOL:
                break

            f0 = barrier_value(state, t)
            slope = float(grad @ delta)
            step = 1.0
            while step >= _MIN_STEP:
                trial = point(x + step * delta)
                if trial is not None and barrier_value(trial, t) <= f0 + 0.25 * step * slope:
                    break
                step *= 0.5
            else:
                raise NonConvergenceError(
                    f"Newton line search stalled at t = {t:.3e}",
                    last_iterate=(state[0], state[1]),
                )
            x = x + step * delta
            state = trial
            newton_steps += 1
        else:
            raise NonConvergenceError(
                f"Newton iteration cap reached at t = {t:.3e}",
                last_iterate=(state[0], state[1]),
            )
        if nu / t <= tol.gap_tol:
            break
        t *= _T_GROWTH
    else:
        raise NonConvergenceError(
            "barrier stage cap reached before the gap target",
            last_iterate=(state[0], state[1]),
        )

    P, Q, G1, G2, g3, _, _ = state
    gap = nu / t
    lam_P = float(np.linalg.eigvalsh(P).min())
    if lam_P <= tol.psd_tol:
        raise NumericError(
            f"optimal covariance is numerically singular: lambda_min = {lam_P:.3e}"
        )
    # Final polish: at the last barrier parameter the information block
    # retains slack that float64 centering cannot remove, so Q exceeds
    # the Schur-exact value B^T P^{-1} B by more than the certificate
    # suggests.  Tightening Q to that value keeps the block feasible
    # (the inequality becomes active), can only lower the objective, and
    # makes the reported rate agree with the rate implied by P itself,
    # so downstream cross-checks measure real defects rather than
    # leftover barrier slack.
    Q = symmetrize(B.T @ np.linalg.solve(P, B))
    G2 = problem.block2(P, Q)
    objective = float(np.trace(A)) + 0.5 * float(np.trace(Q))
    residuals = (
        float(np.linalg.eigvalsh(G1).min()),
        float(np.linalg.eigvalsh(G2).min()),
        float(g3),
    )
    return SdpSolution(
        P=P,
        Q=Q,
        objective=objective,
        duality_gap=gap,
        lmi_residuals=residuals,
        iterations=newton_steps,
    )
