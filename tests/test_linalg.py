"""Dense symmetric linear algebra kernels: frozen oracles and properties."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

import immse
from immse.errors import DegenerateSpectrumError, InputValidationError, NotPsdError, NumericError
from immse.linalg import _expm_stack, chol, psd_sqrt, solve_lyapunov, symmetrize, van_loan


def test_symmetrize_is_projection():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(4, 4))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    assert np.allclose(S, 0.5 * (M + M.T))


def test_symmetrize_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(5, 3, 3))
    S = symmetrize(stack)
    assert S.shape == stack.shape
    for got, M in zip(S, stack):
        assert np.array_equal(got, symmetrize(M))


def test_psd_sqrt_scaled_identity():
    S = psd_sqrt(4.0 * np.eye(2))
    assert np.allclose(S, 2.0 * np.eye(2), atol=1e-12)


def test_psd_sqrt_singular_psd():
    S = psd_sqrt(np.diag([9.0, 0.0]))
    assert np.allclose(S, np.diag([3.0, 0.0]), atol=1e-12)


def test_psd_sqrt_clips_roundoff_negatives():
    # An eigenvalue at -1e-12 is round-off, not indefiniteness.
    M = np.diag([1.0, -1e-12])
    S = psd_sqrt(M)
    assert np.allclose(S, np.diag([1.0, 0.0]), atol=1e-6)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsdError) as err:
        psd_sqrt(np.diag([-1.0, 1.0]))
    assert err.value.lambda_min == pytest.approx(-1.0)


def test_psd_sqrt_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InputValidationError):
        psd_sqrt(np.ones((2, 3)))
    with pytest.raises(InputValidationError):
        psd_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_sqrt_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 6)
        F = rng.normal(size=(n, n))
        M = F @ F.T
        S = psd_sqrt(M)
        assert np.allclose(S, S.T)
        assert np.linalg.eigvalsh(S).min() >= -1e-12
        assert np.linalg.norm(S @ S - M) <= 1e-9 * max(1.0, np.linalg.norm(M))


def test_solve_lyapunov_scalar_and_diagonal():
    X = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(X, np.eye(2), atol=1e-12)
    X = solve_lyapunov(np.diag([-1.0, -3.0]), np.diag([2.0, 6.0]))
    assert np.allclose(X, np.eye(2), atol=1e-12)


def test_solve_lyapunov_upper_triangular_oracle():
    # F = [[-1,1],[0,-2]], W = I: hand elimination gives
    # X = [[7/12, 1/12], [1/12, 1/4]].
    F = np.array([[-1.0, 1.0], [0.0, -2.0]])
    X = solve_lyapunov(F, np.eye(2))
    expected = np.array([[7.0 / 12.0, 1.0 / 12.0], [1.0 / 12.0, 0.25]])
    assert np.allclose(X, expected, atol=1e-12)


def test_solve_lyapunov_random_residual():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = rng.integers(1, 6)
        R = rng.normal(size=(n, n))
        F = R - (np.abs(np.linalg.eigvals(R).real).max() + 1.0) * np.eye(n)
        W = symmetrize(rng.normal(size=(n, n)))
        X = solve_lyapunov(F, W)
        res = F @ X + X @ F.T + W
        scale = np.linalg.norm(F) * np.linalg.norm(X) + np.linalg.norm(W)
        assert np.linalg.norm(res) <= 1e-9 * max(1.0, scale)
        assert np.allclose(X, X.T)


def test_solve_lyapunov_matches_kronecker_reference_n16():
    # Reference: the dense n^2 x n^2 system (I (x) F + F (x) I) vec(X) = -vec(W).
    rng = np.random.default_rng(16)
    n = 16
    F = rng.normal(size=(n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
    W = symmetrize(rng.normal(size=(n, n)))
    K = np.kron(np.eye(n), F) + np.kron(F, np.eye(n))
    X_ref = np.linalg.solve(K, -W.ravel()).reshape(n, n)
    X = solve_lyapunov(F, W)
    assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)


def _fresh_output(code: str) -> str:
    """What a fresh interpreter that imports the package under test prints."""
    src = os.path.dirname(os.path.dirname(immse.__file__))  # the package under test
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def _loaded_by_fresh_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import immse``."""
    return _fresh_output(f"import sys, immse; print({module!r} in sys.modules)") == "True"


@pytest.mark.parametrize("layer", ["linalg", "riccati", "sdp", "design", "validate", "zdsc"])
def test_import_does_not_load_the_solver_modules(layer):
    # ``import immse`` loads the error and model layer only, all that
    # load_problem needs; each solver module loads on first use.
    assert not _loaded_by_fresh_import(f"immse.{layer}")


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg is imported inside the routines that use it; loading it
    # at import time would add ~0.06 s to every CLI start-up.
    assert not _loaded_by_fresh_import("scipy.linalg")


def test_import_does_not_load_scipy_special():
    # Likewise scipy.special (ndtri, for the Monte Carlo noise): ~0.2 s.
    assert not _loaded_by_fresh_import("scipy.special")


def test_import_does_not_load_concurrent_futures():
    # The Monte Carlo noise is filled on a thread pool, imported inside
    # validate._noise_stream: at the top it would cost ~2.5 ms per start.
    assert not _loaded_by_fresh_import("concurrent.futures")


def test_solve_lyapunov_singular_operator():
    # Eigenvalues {1, -1} sum to zero across the pair, so F (+) F is singular.
    with pytest.raises(DegenerateSpectrumError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(DegenerateSpectrumError):
        solve_lyapunov(np.zeros((1, 1)), np.eye(1))


@pytest.mark.parametrize("corrupt", [lambda X: np.full_like(X, np.nan), lambda X: 2.0 * X],
                         ids=["nan", "doubled"])
def test_solve_lyapunov_rejects_a_wrong_solution(monkeypatch, corrupt):
    # The residual check fails closed: a NaN residual compares False
    # against every bound, and must raise as a doubled X's does.
    solver = scipy.linalg.solve_continuous_lyapunov
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov",
                        lambda F, Q: corrupt(solver(F, Q)))
    with pytest.raises(NumericError, match="lost accuracy"):
        solve_lyapunov(-np.eye(2), np.eye(2))


@pytest.mark.parametrize(
    "F",
    [
        np.array([[-1.0]]),
        np.array([[-1.0, 5.0], [0.0, -2.0]]),
        np.diag([1.0, -2.0]),
        np.diag([1.0, -1.0 + 1e-6]),
        np.diag([1.0, -1.0]),
        np.diag([1.0, -1.0 + 1e-11]),
    ],
    ids=["stable", "non-normal", "unstable", "near-pair", "pair", "pair-to-1e-11"],
)
def test_solve_lyapunov_verdict_does_not_depend_on_scale(F):
    # F X + X F^T + W = 0 has the same solution X for (alpha F, alpha W),
    # and the singularity test reads only ratios of F's pair sums: the
    # verdict at alpha = 1 holds from 1e-12 to 1e12.
    W = np.eye(len(F))

    def solve(alpha):
        try:
            return solve_lyapunov(alpha * F, alpha * W)
        except DegenerateSpectrumError:
            return None

    want = solve(1.0)
    for alpha in 10.0 ** np.arange(-12, 13):
        got = solve(alpha)
        assert (got is None) == (want is None), alpha
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_chol_oracle_and_failure():
    L = chol(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)
    assert chol(np.diag([1.0, -1.0])) is None
    assert chol(np.array([[np.inf]])) is None


def test_chol_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 6)
        F = rng.normal(size=(n, n))
        M = F @ F.T + np.eye(n) * 1e-3
        L = chol(M)
        assert L is not None
        assert np.allclose(L @ L.T, M, atol=1e-10 * max(1.0, np.linalg.norm(M)))
        assert np.allclose(L, np.tril(L))


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.2, 0.9, 2.0, 5.0, 40.0])
def test_stacked_exponential_matches_scipy(norm):
    # Each norm picks another Pade degree (3, 5, 7, 9, 13) or a scaling;
    # the stack's largest 1-norm is ``norm``, its other members smaller.
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((6, 4, 4)) - 1.5 * np.eye(4)
    stack *= np.linspace(0.1, 1.0, 6)[:, None, None]
    stack *= norm / np.abs(stack).sum(axis=-2).max()
    got = _expm_stack(stack)
    for e, M in zip(got, stack):
        want = expm(M)
        assert np.abs(e - want).max() <= 1e-13 * np.abs(want).max()


def test_van_loan_of_a_stack_matches_each_pair():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((5, 3, 3)) - 2.0 * np.eye(3)
    G = rng.standard_normal((5, 3, 2))
    Q = G @ G.swapaxes(-1, -2)
    Phi, W = van_loan(F, Q, 0.3)
    for k in range(5):
        Phi_k, W_k = van_loan(F[k], Q[k], 0.3)
        assert np.abs(Phi[k] - Phi_k).max() <= 1e-14 * np.abs(Phi_k).max()
        assert np.abs(W[k] - W_k).max() <= 1e-14 * np.abs(W_k).max()
        # W solves F W + W F^T + Q = Phi Q Phi^T.
        residual = F[k] @ W_k + W_k @ F[k].T + Q[k] - Phi_k @ Q[k] @ Phi_k.T
        assert np.abs(residual).max() <= 1e-12 * np.abs(Q[k]).max()
