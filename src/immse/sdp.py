"""Semidefinite representation of the information/MMSE trade-off.

The stationary trade-off value at distortion budget D is

    minimize   Tr(A) + Tr(Q)/2
    over       symmetric P (n x n), Q (m x m)
    subject to A P + P A^T + B B^T  >= 0
               [[Q, B^T], [B, P]]  >= 0
               Tr(P) <= D

solved here by a bespoke log-det barrier method: the problem has at most
a few hundred unknowns at desk scale, so a dense Newton iteration on the
central path beats pulling in a general conic solver.  Each Newton step
eliminates the Q direction in closed form and solves the remaining
n(n+1)/2 system in P by Cholesky; the iteration runs in coordinates
balanced by the feasible start, where the start is the identity.  That
start is a scaled solution of one shifted Lyapunov equation, strictly
feasible for every budget D > 0 by construction.
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
from .linalg import chol, solve_lyapunov, symmetrize
from .model import (
    DEFAULT_TOLERANCES,
    SystemModel,
    Tolerances,
    check_controllable,
)

__all__ = ["SdpProblem", "SdpSolution", "build_sdp", "find_feasible_start", "solve"]

_T_GROWTH = 5.0
_INNER_TOL = 1e-10
_MIN_STEP = 1e-14
_MAX_STAGES = 80
_MAX_INNER = 200


@dataclass(frozen=True)
class SdpProblem:
    """Constraint data for one distortion budget.

    The budget bounds the weighted trace <weight, P>; the weight is
    symmetric positive definite and defaults to I, the plain trace.
    """

    model: SystemModel
    D: float
    weight: np.ndarray | None = None

    def __post_init__(self):
        if self.weight is None:
            object.__setattr__(self, "weight", np.eye(self.model.n))

    def block1(self, P: np.ndarray) -> np.ndarray:
        """A P + P A^T + B B^T, required PSD."""
        A = self.model.A
        AP = A @ P
        return symmetrize(AP + AP.T + self.model.B @ self.model.B.T)

    def block2(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """[[Q, B^T], [B, P]], required PSD; encodes Q >= B^T P^{-1} B."""
        B = self.model.B
        m = B.shape[1]
        G2 = np.empty((m + P.shape[0],) * 2)
        G2[:m, :m] = Q
        G2[:m, m:] = B.T
        G2[m:, :m] = B
        G2[m:, m:] = P
        return G2

    def block3(self, P: np.ndarray) -> float:
        """D - <weight, P>, required nonnegative."""
        return self.D - float(np.vdot(self.weight, P))


@dataclass(frozen=True)
class SdpSolution:
    """Central-path terminal point: the optimal P, the objective, the
    certified duality gap nu/t and the number of Newton steps taken."""

    P: np.ndarray
    objective: float
    duality_gap: float
    iterations: int


def build_sdp(model: SystemModel, D: float) -> SdpProblem:
    """Validate the budget and assemble the constraint data."""
    if isinstance(D, bool) or not isinstance(D, (int, float)):
        raise InputValidationError(f"D must be a number, got {D!r}")
    D = float(D)
    if not (np.isfinite(D) and D > 0):
        raise InputValidationError(f"D must be finite and > 0, got {D}")
    return SdpProblem(model=model, D=D)


def _balance(problem: SdpProblem, L: np.ndarray) -> SdpProblem:
    """The same program in the coordinates P = L X L^T: the model
    (L^{-1} A L, L^{-1} B) with budget weight L^T weight L."""
    from scipy.linalg import solve_triangular  # here: see _NewtonStep.__call__

    model = problem.model
    return SdpProblem(
        model=SystemModel(
            A=solve_triangular(L, model.A @ L, lower=True),
            B=solve_triangular(L, model.B, lower=True),
        ),
        D=problem.D,
        weight=symmetrize(L.T @ problem.weight @ L),
    )


def find_feasible_start(
    problem: SdpProblem, eig_tol: float = DEFAULT_TOLERANCES.eig_tol
) -> tuple[np.ndarray, np.ndarray]:
    """Strictly feasible (P0, Q0) for the barrier method, in closed form.

    With c = max(alpha, 0) + ||A||_2 above the spectral abscissa alpha of
    A (c = 1 when A = 0), the solution Y of (A - cI) Y + Y (A - cI)^T +
    B B^T = 0 is > 0 exactly when (A, B) is controllable, and
    A Y + Y A^T + B B^T = 2c Y.  So P0 = s Y, s = min(1, 0.9 D / <weight, Y>),
    has first block 2cs Y + (1 - s) B B^T > 0 and fits the budget for every
    D > 0; Q0 = B^T P0^{-1} B + I.  In the coordinates of :func:`solve`,
    P = L X L^T with L = chol(P0), the first block at X = I is
    2c I + (1 - s) B~ B~^T with Tr B~^T B~ = 2 (nc - Tr A) / s, so its
    condition stays within 1 + (1 - s)(nc - Tr A) / (cs) however weakly
    (A, B) is controllable.  The start is checked there, as the iteration
    tests its strict interior; InfeasibleError means float64 cannot hold
    it.  (A, B) must be controllable at ``eig_tol``.
    """
    P0, _, _, (_, Q0, *_) = _balanced_start(problem, eig_tol)
    return P0, Q0


def _balanced_start(problem: SdpProblem, eig_tol: float):
    """(P0, L = chol(P0), the Newton step balanced by L, its iterate at I)."""
    model, D = problem.model, problem.D
    report = check_controllable(model, eig_tol)
    if not report:
        raise InputValidationError(
            f"(A, B) must be a controllable pair, rank {report.rank} of {report.dim}"
        )
    A, B, n = model.A, model.B, model.n
    norm = float(np.linalg.norm(A, 2))
    c = max(float(np.linalg.eigvals(A).real.max()), 0.0) + norm if norm > 0.0 else 1.0
    Y = solve_lyapunov(A - c * np.eye(n), B @ B.T)
    P0 = min(1.0, 0.9 * D / float(np.vdot(problem.weight, Y))) * Y
    L = chol(P0)
    if L is not None:
        step = _NewtonStep(_balance(problem, L))
        B_bal = step.problem.model.B
        state = step.factor(np.eye(n), symmetrize(B_bal.T @ B_bal + np.eye(model.m)))
        if state is not None:
            return P0, L, step, state
    trace = D - problem.block3(P0)
    raise InfeasibleError(
        f"the feasible start for D = {D} leaves the strict interior in float64 "
        f"(its trace is {trace:.6e})",
        trace_reached=trace,
    )


@functools.cache
def _sym_coords(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed coordinates of symmetric k x k matrices: unit diagonals
    first, then unit-pair off-diagonals in row-major order.

    Returns the row and column of each coordinate and its multiplicity
    (1 on the diagonal, 2 off it), so that <M, S_a> = mult[a] * M[row, col]
    for symmetric M and the basis matrix S_a of coordinate a.  Computed
    once per size, since every Newton step packs and unpacks; the arrays
    are shared, so they are read-only.
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


def _logdet(L: np.ndarray) -> float:
    return 2.0 * float(np.log(L.diagonal()).sum())  # a view: no copy, no wrapper


class _NewtonStep:
    """Newton direction of t (Tr Q)/2 - log det G1 - log det G2 - log g3
    over (P, Q), with the Q direction eliminated.

    An iterate is held as (P, Q, L1, L2, g3): L1 is the Cholesky factor
    of G1 and L2 that of the second block with P's rows first,
    [[P, B], [B^T, Q]] = [[Lp, 0], [M, Ls]] [[Lp, 0], [M, Ls]]^T, so Lp
    factors P and Ls factors the Schur complement S = Q - B^T P^{-1} B.
    One triangular inverse of each factor gives G1^{-1}, P^{-1} and
    V = P^{-1} B S^{-1} B^T P^{-1} without forming G2^{-1}.

    The Q-Q Hessian is the congruence by W11 = S^{-1}, so its inverse is
    the congruence by S and dQ = S - (t/2) S^2 - U dP U^T with
    U = B^T P^{-1}.  What is left for dP is the operator
        dP -> T1*(G1^{-1} T1(dP) G1^{-1})           (block 1)
              + P^{-1} dP (P^{-1} + 2V), symmetrised (block 2, reduced)
              + <weight, dP> weight / g3^2          (block 3)
    with T1(dP) = A dP + dP A^T.  Every term but the last is a sum of
    maps dP -> X dP Y, so its packed matrix is gathered from one n^2 x n^2
    array of rank 6: about 0.4 M multiply-adds at n = m = 16, where the
    full (P, Q) Hessian took about 6 M and its LU solve more.
    """

    def __init__(self, problem: SdpProblem):
        n, m = problem.model.n, problem.model.m
        self.problem = problem
        self.p_first = np.ix_(*(np.r_[m : m + n, :m],) * 2)
        rows, cols, mult = _sym_coords(n)
        self.mult = mult
        # Entry (b, a) of the packed matrix of dP -> X dP Y, X and Y summed
        # over the stack, is half of mult_b mult_a (M[k i, l j] + M[k j, l i])
        # with M = sum_r vec(X_r) vec(Y_r^T)^T, (k, l) = b and (i, j) = a.
        b_row, b_col = rows[:, None], cols[:, None]
        self.index = (
            n * n * (n * b_row + rows) + n * b_col + cols,
            n * n * (n * b_row + cols) + n * b_col + rows,
        )
        self.scale = 0.5 * np.outer(mult, mult)
        w = mult * _pack(problem.weight)
        self.ww = np.outer(w, w)
        # Work arrays reused by every step: at n = 16 they are 0.5 MB and
        # 0.15 MB, and fresh ones would be mapped and faulted in each time.
        self.M = np.empty((n * n, n * n))
        self.H = np.empty((w.size, w.size))
        self.H_part = np.empty_like(self.H)
        self.state = None  # the iterate whose reduced system is self.system

    def factor(self, P: np.ndarray, Q: np.ndarray):
        """The iterate at (P, Q), or None outside the strict interior."""
        g3 = self.problem.block3(P)
        if not g3 > 0.0:
            return None
        L1 = chol(self.problem.block1(P))
        if L1 is None:
            return None
        L2 = chol(self.problem.block2(P, Q)[self.p_first])
        if L2 is None:
            return None
        return P, Q, L1, L2, g3

    def __call__(self, state, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """(dP, dQ, decrement^2) at ``state`` for barrier parameter t.

        The decrement is that of the objective plus barrier / t, taken by
        block elimination as (<R, dP> + ||I - (t/2) S||_F^2) / t, R the
        reduced right-hand side.  A reduced system that is not numerically
        positive definite raises LinAlgError.
        """
        # Here, not at the top: scipy.linalg would slow `import immse`, and
        # the feasible start's Lyapunov solves have loaded it already.
        from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

        A = self.problem.model.A
        n, m = self.problem.model.B.shape
        # The reduced matrix does not depend on t, and only t changes between
        # stages and while _initial_t fits it: factor it once per iterate.
        if state is not self.state:
            _, _, L1, L2, g3 = state
            L1inv, _ = dtrtri(L1, lower=1)
            L2inv, _ = dtrtri(L2, lower=1)
            G = L1inv.T @ L1inv
            Pinv = L2inv[:n, :n].T @ L2inv[:n, :n]
            Y = L2inv[n:, :n]
            V = Y.T @ Y
            Ls = L2[n:, n:]
            S = Ls @ Ls.T
            U = Ls @ Y
            N = G @ A
            K = A.T @ N
            Z = Pinv + 2.0 * V

            X_stack = np.array([N, N.T, G, K, Pinv, Z]).reshape(6, n * n)
            Y_stack = np.array([N.T, N, K, G, 0.5 * Z, 0.5 * Pinv]).reshape(6, n * n)
            M = np.matmul(X_stack.T, Y_stack, out=self.M).ravel()
            H, H_part = self.H, self.H_part
            np.take(M, self.index[0], out=H)
            H += np.take(M, self.index[1], out=H_part)
            H *= self.scale
            H += np.multiply(self.ww, 1.0 / g3**2, out=H_part)
            # H is symmetric, so its transpose is the same matrix in the
            # column-major order LAPACK factors in place.
            c, info = dpotrf(H.T, lower=1, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError("reduced Newton system is not positive definite")
            self.state = state
            self.system = c, N + N.T + Pinv - self.problem.weight / g3, U.T @ U, U, S
        c, R0, UtU, U, S = self.system
        r = self.mult * _pack(R0 + (0.5 * t) * UtU)
        dp, _ = dpotrs(c, r, lower=1)
        dP = _unpack(dp, n)
        E = np.eye(m) - (0.5 * t) * S
        dQ = symmetrize(S @ E - U @ dP @ U.T)
        decrement2 = (float(r @ dp) + float(np.vdot(E, E))) / t
        return dP, dQ, decrement2


def _initial_t(step: _NewtonStep, state) -> float:
    """The t that best centres ``state`` (Boyd & Vandenberghe, section
    11.3.1), or 1 if that is not positive: t decrement^2(t) is exactly
    quadratic in t, so Newton steps at t = 1, 2, 3 fit it."""
    f1, f2, f3 = (t * step(state, t)[2] for t in (1.0, 2.0, 3.0))
    a = 0.5 * (f1 - 2.0 * f2 + f3)
    t0 = (f1 - f2 + 3.0 * a) / (2.0 * a) if a > 0.0 else 0.0
    return t0 if t0 > 0.0 else 1.0


def solve(problem: SdpProblem, tol: Tolerances = DEFAULT_TOLERANCES) -> SdpSolution:
    """Minimize Tr(A) + Tr(Q)/2 over the three-block feasible set.

    Follows the central path of the log-det barrier: Newton steps on
    (P, Q), damped by an Armijo backtracking search that never leaves the
    strict interior; the barrier parameter starts at the t that best
    centres the start (see _initial_t) and grows geometrically, capped at
    nu/gap_tol, where the certificate nu/t reaches gap_tol.

    The iteration runs on the balanced problem: with L = chol(P0) for the
    feasible start P0, P = L X L^T turns the model into (L^{-1} A L,
    L^{-1} B) and the budget weight into L^T weight L, and starts from
    X = I.  Newton's method is affine invariant, so the iterates are the
    same in exact arithmetic, but a start with eigenvalues near zero no
    longer makes the Newton system singular.  Each step eliminates dQ and
    solves the n(n+1)/2 system in dP by Cholesky (see _NewtonStep); a
    stage that ends on a negative decrement raises NonConvergenceError.
    The result is mapped back and checked on the original problem.  The
    run is deterministic.
    """
    model = problem.model
    n, m = model.n, model.m

    _, L, step, state = _balanced_start(problem, tol.eig_tol)

    def original(X: np.ndarray) -> np.ndarray:
        return symmetrize(L @ X @ L.T)

    def barrier_value(state, t: float) -> float:
        # Objective plus barrier scaled by 1/t: same minimizer and Newton
        # direction as t*objective + barrier, but the value stays O(1) as
        # t grows, so the 1e-10 decrement target stays resolvable in
        # double precision.
        _, Q, L1, L2, g3 = state
        return 0.5 * float(np.trace(Q)) + (
            -_logdet(L1) - _logdet(L2) - float(np.log(g3))
        ) / t

    nu = float(n + (m + n) + 1)
    # One ulp past nu/gap_tol, so that nu/t_final rounds to at most gap_tol.
    t_final = float(np.nextafter(nu / tol.gap_tol, np.inf))
    t = 1.0
    newton_steps = 0

    def failure(message: str) -> NonConvergenceError:
        return NonConvergenceError(
            f"{message} at t = {t:.3e}", last_iterate=(original(state[0]), state[1])
        )

    try:
        t = min(_initial_t(step, state), t_final)
    except np.linalg.LinAlgError as exc:
        raise failure(str(exc)) from exc
    for _ in range(_MAX_STAGES):
        for _ in range(_MAX_INNER):
            X, Q = state[0], state[1]
            try:
                dX, dQ, decrement2 = step(state, t)
            except np.linalg.LinAlgError as exc:
                raise failure(str(exc)) from exc
            if decrement2 < 0.0:
                raise failure(f"Newton decrement^2 = {decrement2:.3e} is negative")
            if decrement2 <= 2.0 * _INNER_TOL:
                break

            f0 = barrier_value(state, t)
            size = 1.0
            while size >= _MIN_STEP:
                trial = step.factor(X + size * dX, Q + size * dQ)
                if trial is not None and (
                    barrier_value(trial, t) <= f0 - 0.25 * size * decrement2
                ):
                    break
                size *= 0.5
            else:
                raise failure("Newton line search stalled")
            state = trial
            newton_steps += 1
        else:
            raise failure("Newton iteration cap reached")
        if t >= t_final:
            break
        t = min(_T_GROWTH * t, t_final)
    else:
        raise NonConvergenceError(
            "barrier stage cap reached before the gap target",
            last_iterate=(original(state[0]), state[1]),
        )

    X, _, _, L2, _ = state
    # Tested on X, which the balancing keeps O(1) however small P is.
    lam_X = float(np.linalg.eigvalsh(X).min())
    if lam_X <= tol.psd_tol:
        raise NumericError(
            f"optimal covariance is numerically singular: balanced lambda_min = {lam_X:.3e}"
        )
    P = original(X)
    # The rate is taken at the Schur-exact Q = B^T P^{-1} B rather than at
    # the iterate's Q, which keeps slack that float64 centering cannot
    # remove at the last barrier parameter.  The exact Q is feasible (the
    # inequality becomes active), can only lower the objective, and makes
    # the reported rate agree with the rate implied by P itself, so
    # downstream cross-checks measure real defects rather than leftover
    # barrier slack.  The factor's off-diagonal block M gives it as
    # M M^T = B^T X^{-1} B in the balanced coordinates.
    M = L2[n:, :n]
    objective = float(np.trace(model.A)) + 0.5 * float(np.trace(M @ M.T))
    return SdpSolution(P=P, objective=objective, duality_gap=nu / t, iterations=newton_steps)
