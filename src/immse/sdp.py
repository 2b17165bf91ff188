"""Semidefinite representation of the information/MMSE trade-off.

The stationary trade-off value at distortion budget D is

    minimize   Tr(A) + Tr(Q)/2
    over       symmetric P (n x n), Q (m x m)
    subject to A P + P A^T + B B^T  >= 0
               [[Q, B^T], [B, P]]  >= 0
               Tr(P) <= D

solved here by a bespoke log-det barrier method: the problem has at most
a few hundred unknowns at desk scale, so a dense Newton iteration on the
central path beats pulling in a general conic solver.  Q only writes the
rate Tr(A) + Tr(B^T P^{-1} B)/2 as a linear matrix inequality: the
barrier is minimised over Q in closed form, at Q = B^T P^{-1} B + (2/t) I,
so the method follows the same central path over P alone and solves an
n(n+1)/2 Newton system in P by Cholesky.  t grows twentyfold per stage,
and each stage starts from a predictor step along the central path's
tangent, solved from the last stage's final Newton system.  Each runs in
coordinates balanced by its first iterate, or in the last stage's where
float64 puts that iterate outside the interior.  The first stage starts
from a scaled solution of one shifted Lyapunov equation, strictly
feasible for every budget D > 0 by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputValidationError, NonConvergenceError, NumericError
from .linalg import chol, solve_lyapunov, symmetrize
from .model import DEFAULT_TOLERANCES, SystemModel, Tolerances, check_controllable

__all__ = ["SdpProblem", "SdpSolution", "build_sdp", "find_feasible_start", "solve"]

_T_GROWTH = 20.0
_INNER_TOL = 1e-10
_MIN_STEP = 1e-14
_MIN_PREDICTOR = 1.0 / 64.0
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


def _restart(problem: SdpProblem, L: np.ndarray):
    """(The Newton step balanced by L, its iterate at X = I or None.)"""
    step = _NewtonStep(_balance(problem, L))
    return step, step.factor(np.eye(L.shape[0]))


def find_feasible_start(
    problem: SdpProblem, eig_tol: float = DEFAULT_TOLERANCES.eig_tol
) -> np.ndarray:
    """Strictly feasible P0 for the barrier method, in closed form.

    With c = max(alpha, 0) + ||A||_2 above the spectral abscissa alpha of
    A (c = 1 when A = 0), the solution Y of (A - cI) Y + Y (A - cI)^T +
    B B^T = 0 is > 0 exactly when (A, B) is controllable, and
    A Y + Y A^T + B B^T = 2c Y.  So P0 = s Y, s = min(1, 0.9 D / <weight, Y>),
    has first block 2cs Y + (1 - s) B B^T > 0 and fits the budget for every
    D > 0.  In the coordinates of :func:`solve`, P = L X L^T with
    L = chol(P0), the first block at X = I is 2c I + (1 - s) B~ B~^T with
    Tr B~^T B~ = 2 (nc - Tr A) / s, so its condition stays within
    1 + (1 - s)(nc - Tr A) / (cs) however weakly (A, B) is controllable.
    The start is checked there, as the iteration tests its strict
    interior; InfeasibleError means float64 cannot hold it.  (A, B) must
    be controllable at ``eig_tol``.
    """
    return _balanced_start(problem, eig_tol)[0]


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
        step, state = _restart(problem, L)
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


@functools.cache
def _gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two index arrays and a scale that gather the packed matrix of
    dP -> sum_r X_r dP Y_r from M = sum_r vec(X_r) vec(Y_r^T)^T.

    Entry (b, a) is half of mult_b mult_a (M[k i, l j] + M[k j, l i]) with
    (k, l) = b and (i, j) = a.  Computed once per size, as every barrier
    stage builds a new Newton step; shared, so read-only.
    """
    rows, cols, mult = _sym_coords(n)
    b_row, b_col = rows[:, None], cols[:, None]
    arrays = (
        n * n * (n * b_row + rows) + n * b_col + cols,
        n * n * (n * b_row + cols) + n * b_col + rows,
        0.5 * np.outer(mult, mult),
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    """Newton direction of t f(P) - log det G1 - log det P - log g3 over P,
    with f(P) = Tr(B^T P^{-1} B)/2: the barrier of the program, minimised
    over Q.

    An iterate is held as (P, L1, Lp, g3, f), L1 and Lp the Cholesky
    factors of G1 and P, so f = ||Lp^{-1} B||_F^2 / 2.  With
    Z = P^{-1} + t P^{-1} B B^T P^{-1}, the Hessian is
        dP -> T1*(G1^{-1} T1(dP) G1^{-1})           (block 1)
              + P^{-1} dP Z, symmetrised            (log det P and t f)
              + <weight, dP> weight / g3^2          (block 3)
    with T1(dP) = A dP + dP A^T.  Every term but the last is a sum of
    maps dP -> X dP Y, so its packed matrix is gathered from one n^2 x n^2
    array of rank 6 and factored by Cholesky.  The last is applied by
    Sherman-Morrison: near the budget, g3 -> 0, it would swamp the others
    in the factored matrix.
    """

    def __init__(self, problem: SdpProblem):
        n = problem.model.n
        self.problem = problem
        self.mult = _sym_coords(n)[2]
        self.w = self.mult * _pack(problem.weight)
        # Work arrays reused by every step of one barrier stage (solve
        # builds a new _NewtonStep per stage): at n = 16 they are 0.5 MB and
        # 0.15 MB, and fresh ones would be mapped and faulted in each step.
        self.M = np.empty((n * n, n * n))
        self.H = np.empty((self.w.size, self.w.size))
        self.H_part = np.empty_like(self.H)

    def factor(self, P: np.ndarray):
        """The iterate at P, or None outside the strict interior."""
        from scipy.linalg.lapack import dpotrf, dtrtrs  # here: see __call__

        g3 = self.problem.block3(P)
        if not 0.0 < g3 < np.inf:  # also refuses a non-finite P: dpotrf can pass a NaN pivot
            return None
        L1, info = dpotrf(self.problem.block1(P), lower=1, clean=1)
        if info != 0:
            return None
        Lp, info = dpotrf(P, lower=1, clean=1)
        if info != 0:
            return None
        Y, _ = dtrtrs(Lp, self.problem.model.B, lower=1)
        return P, L1, Lp, g3, 0.5 * float(np.vdot(Y, Y))

    def __call__(self, state, t: float) -> tuple[np.ndarray, float, np.ndarray]:
        """(dP, decrement^2, dP/dt) at ``state`` for barrier parameter t.

        The decrement is that of f plus barrier / t, <R, dP> / t =
        <dP, H dP> / t with R the right-hand side and H the Hessian,
        formed as the latter, so it is never negative.  dP/dt is the
        tangent of the central path, H dP/dt = -grad f = V/2 with
        V = P^{-1} B B^T P^{-1}: the derivative of the centring condition
        t grad f + grad barrier = 0.  At a centred iterate it is exact;
        it costs one more right-hand side of the same factorization.  A
        system that is not numerically positive definite raises
        LinAlgError.
        """
        # Here, not at the top: scipy.linalg would slow `import immse`, and
        # the feasible start's Lyapunov solves have loaded it already.
        from scipy.linalg.blas import dtrmv
        from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

        A, B = self.problem.model.A, self.problem.model.B
        n = A.shape[0]
        _, L1, Lp, g3, _ = state
        L1inv, _ = dtrtri(L1, lower=1)
        Lpinv, _ = dtrtri(Lp, lower=1)
        G = L1inv.T @ L1inv
        Pinv = Lpinv.T @ Lpinv
        PinvB = Lpinv.T @ (Lpinv @ B)
        V = PinvB @ PinvB.T
        N = G @ A
        K = A.T @ N
        Z = Pinv + t * V

        X_stack = np.array([N, N.T, G, K, Pinv, Z]).reshape(6, n * n)
        Y_stack = np.array([N.T, N, K, G, 0.5 * Z, 0.5 * Pinv]).reshape(6, n * n)
        M = np.matmul(X_stack.T, Y_stack, out=self.M).ravel()
        index_1, index_2, scale = _gather(n)
        H, H_part = self.H, self.H_part
        np.take(M, index_1, out=H)
        H += np.take(M, index_2, out=H_part)
        H *= scale
        # H is symmetric, so its transpose is the same matrix in the
        # column-major order LAPACK factors in place.
        c, info = dpotrf(H.T, lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError("reduced Newton system is not positive definite")
        v = self.mult * _pack(0.5 * V)
        r = self.mult * _pack(N + N.T + Pinv - self.problem.weight / g3) + t * v
        w = self.w
        x, _ = dpotrs(c, np.column_stack([r, v, w]), lower=1)
        u = x[:, 2]
        # Sherman-Morrison: (c c^T + w w^T / g3^2)^{-1} on both right-hand sides.
        dp, dp_dt = (x[:, :2] - np.outer(u, w @ x[:, :2]) / (g3 * g3 + float(w @ u))).T
        # dp^T (c c^T + w w^T / g3^2) dp, a sum of squares: r @ dp is the
        # same number, but near the budget the Sherman-Morrison subtraction
        # cancels it below float resolution, and it can come out negative.
        cdp = dtrmv(c, dp, lower=1, trans=1)
        decrement2 = (float(cdp @ cdp) + (float(w @ dp) / g3) ** 2) / t
        return _unpack(dp, n), decrement2, _unpack(dp_dt, n)


def solve(problem: SdpProblem, tol: Tolerances = DEFAULT_TOLERANCES) -> SdpSolution:
    """Minimize Tr(A) + Tr(Q)/2 over the three-block feasible set.

    Follows the central path of the log-det barrier minimised over Q
    (see _NewtonStep): Newton steps on P, damped by an Armijo backtracking
    search that never leaves the strict interior.  Once the decrement
    lambda of t * objective + barrier is at most 1/4, the full step is
    taken, halved only to stay strictly feasible: there it converges
    quadratically, and f carries round-off that can fail the Armijo test.
    The barrier parameter starts at t = 1 (or nu/gap_tol, if that is
    smaller) and grows twentyfold per stage (long steps: Boyd &
    Vandenberghe, Convex Optimization, 11.3.3), capped at nu/gap_tol,
    where the certificate nu/t reaches gap_tol; nu counts the three
    blocks of the program with Q, whose central path this is.

    Predictor-corrector: the Newton system that ends a stage also gives
    the central path's tangent dP/dt (see _NewtonStep), and the next
    stage, at t+, starts from P + s t (1 - t/t+) dP/dt, a first-order
    step in 1/t.  s is halved from 1 down to 1/64 until the point is
    strictly feasible, its barrier value at t+ is no higher than the
    current point's, and the budget's slack keeps a quarter of its
    central value g3 t/t+; failing that, the stage starts from the
    current point.  The Newton steps of the stage then correct it.

    Each stage runs on a balanced problem: with L = chol(P) for the
    stage's first iterate P, P = L X L^T turns the model into
    (L^{-1} A L, L^{-1} B) and the budget weight into L^T weight L, and
    the stage starts from X = I.  The first stage is balanced by the
    feasible start.  Newton's method is affine invariant, so the iterates
    are the same in exact arithmetic, but an iterate with eigenvalues near
    zero no longer makes the Newton system singular.  If float64 puts
    X = I of the new coordinates outside the strict interior, the stage
    keeps the last ones and their iterate, strictly feasible there.  The
    result is mapped back and checked on the original problem.  The
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
        _, L1, Lp, g3, f = state
        return f + (-_logdet(L1) - _logdet(Lp) - float(np.log(g3))) / t

    nu = float(n + (m + n) + 1)
    # One ulp past nu/gap_tol, so that nu/t_final rounds to at most gap_tol.
    t_final = float(np.nextafter(nu / tol.gap_tol, np.inf))
    t = min(1.0, t_final)
    newton_steps = 0

    def failure(message: str) -> NonConvergenceError:
        return NonConvergenceError(f"{message} at t = {t:.3e}", last_iterate=original(state[0]))

    for _ in range(_MAX_STAGES):
        for _ in range(_MAX_INNER):
            try:
                dX, decrement2, dX_dt = step(state, t)
            except np.linalg.LinAlgError as exc:
                raise failure(str(exc)) from exc
            if decrement2 <= 2.0 * _INNER_TOL:
                break

            damped = t * decrement2 > 1.0 / 16.0
            f0 = barrier_value(state, t)
            # A step must lower f: once size/4 is under f0's float spacing,
            # the Armijo bound rounds to f0 and would pass a null step.
            below = math.nextafter(f0, -math.inf)
            size = 1.0
            while size >= _MIN_STEP:
                trial = step.factor(state[0] + size * dX)
                if trial is not None and (
                    not damped
                    or barrier_value(trial, t) <= min(below, f0 - 0.25 * size * decrement2)
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
        t_next = min(_T_GROWTH * t, t_final)
        # Predictor: a first-order step along the central path in 1/t,
        # P(1/t_next) ~ P(1/t) + t (1 - t/t_next) dP/dt, halved until it
        # is strictly feasible and no worse for the next stage's barrier.
        # The budget's slack g3 is the one the balancing leaves unscaled:
        # its central value g3 t/t_next can be under a hundred ulps of D,
        # and a step that cuts it far below that leaves the next stage to
        # recover it at float resolution, so it keeps at least a quarter.
        dX = (t * (1.0 - t / t_next)) * dX_dt
        f0 = barrier_value(state, t_next)
        g3_floor = 0.25 * state[3] * t / t_next
        size = 1.0
        while size >= _MIN_PREDICTOR:
            trial = step.factor(state[0] + size * dX)
            if trial is not None and trial[3] >= g3_floor and barrier_value(trial, t_next) <= f0:
                state = trial
                break
            size *= 0.5
        t = t_next
        L_next = L @ state[2]
        step_next, state_next = _restart(problem, L_next)
        if state_next is not None:  # else the stage's own coordinates stay
            L, step, state = L_next, step_next, state_next
    else:
        raise failure("barrier stage cap reached before the gap target")

    X, _, _, _, f = state
    # Tested on X, which the balancing keeps O(1) however small P is.
    lam_X = float(np.linalg.eigvalsh(X).min())
    if lam_X <= tol.psd_tol:
        raise NumericError(
            f"optimal covariance is numerically singular: balanced lambda_min = {lam_X:.3e}"
        )
    # f = Tr(B^T P^{-1} B)/2 at the iterate itself: with Q minimised out,
    # the rate carries no slack for the cross-checks to trip on.
    return SdpSolution(original(X), float(np.trace(model.A)) + f, nu / t, newton_steps)
