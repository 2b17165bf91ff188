"""Covariance flow integration and the stationary equation solver."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm, solve_continuous_are

from immse.design import design_sensor, sweep_curve
from immse.errors import BlowupError, InputValidationError, NonConvergenceError, NotPsdError
from immse.linalg import solve_lyapunov, symmetrize
from immse.model import DEFAULT_TOLERANCES, SensorGain, SystemModel, Tolerances, load_problem
from immse import riccati, sdp
from immse.riccati import care_residual, integrate_rde, rates_from_P, solve_care
from test_design import _stable_n16_model

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
CANONICAL_GAIN = SensorGain(C=np.array([[2.0 * np.sqrt(2.0)]]))


def test_initial_slope_is_noise_covariance():
    # From P_0 = 0 the flow starts at dP/dt = B B^T regardless of the gain.
    model = SystemModel(
        A=np.array([[0.0, 1.0], [-1.0, -0.5]]), B=np.array([[0.3], [1.1]])
    )
    dt = 1e-5
    traj = integrate_rde(model, SensorGain(C=np.eye(2)), dt=dt, t_max=10 * dt)
    BBt = model.B @ model.B.T
    assert np.allclose(traj.values[1] / dt, BBt, atol=1e-3)
    assert np.array_equal(traj.values[0], np.zeros((2, 2)))


def test_grid_shape_and_psd():
    traj = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=1e-2, t_max=1.0)
    assert traj.times.shape[0] == traj.values.shape[0] == 101
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert np.linalg.eigvalsh(traj.values).min() >= -1e-8


def test_flow_psd_check_raises_only_below_psd_tol(monkeypatch):
    # The one block's last node is replaced by -depth psd_tol I.  At depth
    # 2 the block's Cholesky check of nodes + psd_tol I fails, and its
    # eigenvalues raise NotPsdError; at depth 1/2 the check passes and the
    # round-off is left in place.
    tol = DEFAULT_TOLERANCES.psd_tol
    solve = np.linalg.solve

    def flow_with_last_node_at(depth):
        def shifted_solve(a, b):
            out = solve(a, b)
            out[-1] = -depth * tol * np.eye(out.shape[-1])
            return out

        monkeypatch.setattr(np.linalg, "solve", shifted_solve)
        return integrate_rde(CANONICAL, CANONICAL_GAIN, dt=1e-2, t_max=0.1)

    with pytest.raises(NotPsdError) as err:
        flow_with_last_node_at(2.0)
    assert err.value.lambda_min == -2.0 * tol
    assert flow_with_last_node_at(0.5).values[-1, 0, 0] == -0.5 * tol


def test_canonical_limit():
    # The stationary value to the last digits is solve_care's job.
    traj = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=1e-3, t_max=20.0)
    assert traj.values[-1, 0, 0] == pytest.approx(0.25, abs=1e-6)


def test_zero_gain_reduces_to_lyapunov():
    model = SystemModel(
        A=np.array([[-1.0, 0.4], [0.0, -2.0]]), B=np.array([[1.0, 0.0], [0.2, 0.8]])
    )
    traj = integrate_rde(model, SensorGain(C=np.zeros((2, 2))), dt=1e-2, t_max=30.0)
    P_ol = solve_lyapunov(model.A, model.B @ model.B.T)
    assert np.allclose(traj.values[-1], P_ol, atol=1e-7)


def test_trace_monotone_from_zero():
    # Starting at exactly zero the filtering covariance only grows.
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        R = rng.normal(size=(n, n))
        A = R - (np.abs(np.linalg.eigvals(R).real).max() + 0.5) * np.eye(n)
        B = rng.normal(size=(n, n))
        C = rng.normal(size=(n, n))
        dt = 1e-3
        traj = integrate_rde(
            SystemModel(A=A, B=B), SensorGain(C=C), dt=dt, t_max=2.0
        )
        traces = np.trace(traj.values, axis1=1, axis2=2)
        assert np.all(np.diff(traces) >= -10.0 * dt), "trace dipped beyond slack"


@pytest.mark.parametrize("a, c", [(-1.0, 2.0 * np.sqrt(2.0)), (0.5, 1.5)])
def test_scalar_flow_matches_closed_form(a, c):
    # dP/dt = 2 a P - c^2 P^2 + b^2 from P_0 = 0 solves to
    # P(t) = b^2 sinh(mu t) / (mu cosh(mu t) - a sinh(mu t)),
    # mu = sqrt(a^2 + b^2 c^2); a = 0.5 is an unstable source.
    b = 1.0
    model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
    traj = integrate_rde(model, SensorGain(C=np.array([[c]])), dt=1e-3, t_max=5.0)
    t = traj.times
    mu = np.sqrt(a * a + b * b * c * c)
    exact = b * b * np.sinh(mu * t) / (mu * np.cosh(mu * t) - a * np.sinh(mu * t))
    assert t.shape == (5001,)
    np.testing.assert_allclose(traj.values[:, 0, 0], exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [100.0, 1e3, 1e4])
def test_stiff_scalar_flow_matches_closed_form(c):
    # a = -1, b = 1: rho dt = sqrt(1 + c^2) dt is about 0.1, 1 and 10, so
    # the block shrinks to 20 steps, 2 steps and the one-step map; at
    # c = 1e4 a block of full length overflows the stacked powers.  tanh
    # form of the closed form: no overflow of sinh and cosh.
    a, b, dt = -1.0, 1.0, 1e-3
    model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
    traj = integrate_rde(model, SensorGain(C=np.array([[c]])), dt=dt, t_max=1.0)
    mu = np.hypot(a, b * c)
    th = np.tanh(mu * traj.times)
    np.testing.assert_allclose(
        traj.values[:, 0, 0], b * b * th / (mu - a * th), rtol=1e-12, atol=0.0
    )


def _one_step_flow(model, gain, dt, t_max):
    """The covariance flow one exact Hamiltonian step at a time."""
    n = model.n
    CtC = gain.C.T @ gain.C
    Phi = expm(np.block([[-model.A.T, CtC], [model.B @ model.B.T, model.A]]) * dt)
    values = np.zeros((int(round(t_max / dt)) + 1, n, n))
    for k in range(len(values) - 1):
        P = values[k]
        values[k + 1] = symmetrize(
            np.linalg.solve((Phi[:n, :n] + Phi[:n, n:] @ P).T, (Phi[n:, :n] + Phi[n:, n:] @ P).T)
        )
    return values


FOUR_STATE = SystemModel(
    A=np.array(
        [[0.2, 1.0, 0.0, 0.0], [0.0, -1.0, 0.5, 0.0], [0.0, 0.0, -0.5, 1.0], [0.0, 0.0, -1.0, -0.5]]
    ),
    B=np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.0], [0.0, 1.0]]),
)
N16 = _stable_n16_model(seed=1)


@pytest.mark.parametrize(
    "model, D, t_max",
    [
        (FOUR_STATE, 0.2, 10.0),
        (N16, 0.1 * float(np.trace(solve_lyapunov(N16.A, N16.B @ N16.B.T))), 2.0),
    ],
    ids=["four-state", "n16"],
)
def test_blocked_flow_matches_one_step_map(model, D, t_max):
    # On designed gains; the four-state model has an unstable mode at +0.2.
    gain = design_sensor(model, D).C
    dt = 1e-3
    traj = integrate_rde(model, gain, dt=dt, t_max=t_max)
    reference = _one_step_flow(model, gain, dt, t_max)
    assert traj.values.shape == reference.shape
    error = np.abs(traj.values - reference).max()
    assert error <= 1e-12 * np.abs(reference).max()


def test_halving_dt_leaves_limit_unchanged():
    lim1 = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=1e-3, t_max=20.0).values[-1]
    lim2 = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=5e-4, t_max=20.0).values[-1]
    assert np.linalg.norm(lim1 - lim2) <= 1e-8


def test_blowup_guard_fires_on_undetectable_unstable():
    model = SystemModel(A=np.array([[1.0]]), B=np.array([[1.0]]))
    # P = (e^{2t} - 1)/2 passes 1e12 at node 1417; blocks run ~200 steps.
    with pytest.raises(BlowupError, match=r"at t = 14\.17;"):
        integrate_rde(model, SensorGain(C=np.zeros((1, 1))), dt=1e-2, t_max=50.0)


def test_solve_care_canonical():
    sol = solve_care(CANONICAL, CANONICAL_GAIN)
    assert sol.P[0, 0] == pytest.approx(0.25, abs=1e-9)
    assert sol.residual <= 1e-7
    assert sol.closed_loop_spectrum.real.max() < 0
    # a - C^2 P = -1 - 8 * 0.25 = -3.
    assert sol.closed_loop_spectrum[0].real == pytest.approx(-3.0, abs=1e-6)


def test_solve_care_unstable_scalar():
    # a=1, b=1, C=1: P = a + sqrt(a^2 + b^2 C^2) = 1 + sqrt(2).
    model = SystemModel(A=np.array([[1.0]]), B=np.array([[1.0]]))
    sol = solve_care(model, SensorGain(C=np.array([[1.0]])))
    assert sol.P[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e4])
@pytest.mark.parametrize("a", [-1.0, 0.5])
def test_solve_care_scalar_stiff_and_weak_sensors(a, c):
    # b = 1: P = b^2 / (sqrt(a^2 + b^2 c^2) - a), or equivalently
    # (a + sqrt(a^2 + b^2 c^2)) / c^2; each form is free of cancellation
    # on its own sign of a.
    r = np.hypot(a, c)
    expected = 1.0 / (r - a) if a < 0 else (a + r) / c**2
    model = SystemModel(A=np.array([[a]]), B=np.array([[1.0]]))
    sol = solve_care(model, SensorGain(C=np.array([[c]])))
    assert sol.P[0, 0] == pytest.approx(expected, rel=1e-9)


def test_solve_care_decoupled_pair():
    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    sol = solve_care(model, SensorGain(C=np.eye(2)))
    assert np.allclose(sol.P, (np.sqrt(2.0) - 1.0) * np.eye(2), atol=1e-9)


def test_solve_care_random_residuals():
    rng = np.random.default_rng(101)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, max(1, int(rng.integers(1, n + 1)))))
        C = rng.normal(size=(n, n))
        model = SystemModel(A=A, B=B)
        try:
            sol = solve_care(model, SensorGain(C=C))
        except InputValidationError:
            continue  # drew an uncontrollable or undetectable pair
        res = care_residual(model, SensorGain(C=C), sol.P)
        assert sol.residual == res
        assert res <= 1e-7 * (1.0 + np.linalg.norm(B @ B.T))
        assert np.linalg.eigvalsh(sol.P).min() > 0
        done += 1


def test_solve_care_reports_a_missed_residual_target():
    # For a = 0.3, b = 1, c = 1e-2 the Hamiltonian Schur residual,
    # relative to the size of the equation's terms, is 6.3e-17 (scipy's
    # QZ pencil left 9.2e-15): a target below that round-off floor is
    # reported, with the last iterate, rather than met.
    a, c = 0.3, 1e-2
    model = SystemModel(A=np.array([[a]]), B=np.array([[1.0]]))
    gain = SensorGain(C=np.array([[c]]))
    P_true = (a + np.hypot(a, c)) / c**2
    size = 2.0 * a * P_true + (c * P_true) ** 2 + 1.0
    schur = riccati._stable_solution(model.A, model.B @ model.B.T, gain.C.T @ gain.C)
    assert care_residual(model, gain, schur) / size > 1e-17
    with pytest.raises(NonConvergenceError, match="exceeds target 1.0e-17") as info:
        solve_care(model, gain, Tolerances(residual_tol=1e-17))
    P = info.value.last_iterate
    assert P.shape == (1, 1)
    assert P[0, 0] == pytest.approx(P_true, rel=1e-9)


def test_solve_care_certifies_a_scaled_model_at_the_default_target():
    # With B scaled by 1e2 and C by 1e3 the Schur solution misses an
    # absolute 1e-7 (residual 2.2e-7 on this draw); relative to the size
    # of the equation's terms it is at round-off, and is certified as is.
    rng = np.random.default_rng(661)
    A = rng.normal(size=(3, 3)) / np.sqrt(3)
    B = 100.0 * rng.normal(size=(3, 3))
    C = 1e3 * rng.normal(size=(3, 3))
    model, gain = SystemModel(A=A, B=B), SensorGain(C=C)
    schur = symmetrize(solve_continuous_are(A.T, C.T, B @ B.T, np.eye(3)))
    assert care_residual(model, gain, schur) > DEFAULT_TOLERANCES.residual_tol
    sol = solve_care(model, gain)
    assert sol.residual == care_residual(model, gain, sol.P)


@pytest.mark.parametrize(
    "seed", [432, 488, 719, 900, 1332, 1555, 1718, 1865, 2051, 2636, 2695, 2841, 2986]
)
def test_solve_care_certifies_scaled_draws_at_round_off(seed):
    # n in 2..6, A = N / sqrt(n), B = 100 N, C = 1e3 N: of 3,000 such
    # draws these are the ones whose absolute residual no Kleinman
    # refinement brings below 1e-7.  Relative to the size of the
    # equation's terms, Schur's residual is at round-off on each.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B = 100.0 * rng.normal(size=(n, n))
    C = 1e3 * rng.normal(size=(n, n))
    model, gain = SystemModel(A=A, B=B), SensorGain(C=C)
    sol = solve_care(model, gain)
    P = sol.P
    assert sol.residual == care_residual(model, gain, P)
    size = (
        2.0 * np.linalg.norm(A) * np.linalg.norm(P)
        + np.linalg.norm(C.T @ C) * np.linalg.norm(P) ** 2
        + np.linalg.norm(B @ B.T)
    )
    assert sol.residual <= 1e-12 * size


@pytest.mark.parametrize("beta", [1e-4, 1e-2, 1.0, 1e2, 1e4, 1e30, 1e50, 1e100, 1e150])
def test_solve_care_verdict_is_scale_invariant(beta):
    # a = -1, b = beta, c = 2 sqrt(2) / beta has P = beta^2 / 4 at every
    # scale: the canonical pair with the state measured in units of beta.
    # From 1e30 on, scipy's QZ route warned of an invalid cast in its
    # balancing; from about 2e77, an unscaled ||P||_F^2 overflows.
    model = SystemModel(A=np.array([[-1.0]]), B=np.array([[beta]]))
    sol = solve_care(model, SensorGain(C=np.array([[2.0 * np.sqrt(2.0) / beta]])))
    assert sol.P[0, 0] == pytest.approx(beta**2 / 4.0, rel=1e-9)


def test_solve_care_rejects_a_seed_far_from_the_solution(monkeypatch):
    # At a = -1e-3, b = 1e-5, c = 1 the solution is P = 5e-8, and half of
    # it has an absolute residual of only 5.0e-11: below 1e-7, yet 3e6
    # times the bound relative to the size of the equation's terms.
    a, b = -1e-3, 1e-5
    P_true = -a * (np.sqrt(1.0 + (b / a) ** 2) - 1.0)
    monkeypatch.setattr(riccati, "_stable_solution", lambda *args: np.array([[0.5 * P_true]]))
    model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
    with pytest.raises(NonConvergenceError, match="exceeds target") as info:
        solve_care(model, SensorGain(C=np.eye(1)))
    assert info.value.last_iterate[0, 0] == 0.5 * P_true


def test_solve_care_rejects_a_stable_subspace_of_the_wrong_dimension(monkeypatch):
    # P = U_21 U_11^{-1} needs exactly n stable eigenvalues; a Schur form
    # that reports another count has no solution to certify.
    schur = scipy.linalg.schur

    def one_short(H, sort):
        T, Z, sdim = schur(H, sort=sort)
        return T, Z, sdim - 1

    monkeypatch.setattr(scipy.linalg, "schur", one_short)
    with pytest.raises(NonConvergenceError, match="1 stable eigenvalues, not 2") as info:
        solve_care(SystemModel(A=-np.eye(2), B=np.eye(2)), SensorGain(C=np.eye(2)))
    assert info.value.last_iterate is None


def _scipy_care(model: SystemModel, gain: SensorGain) -> np.ndarray:
    """The oracle: scipy's QZ-pencil solve of the dual equation."""
    C = gain.C
    return symmetrize(solve_continuous_are(model.A.T, C.T, model.B @ model.B.T, np.eye(len(C))))


@pytest.mark.parametrize("config", ["scalar.json", "four_state.json", "curve_n16_seed1.json"])
def test_solve_care_matches_scipy_on_the_bench_designs(config):
    # Measured worst case 2.8e-14, at the scalar slack budgets D = 0.5 and
    # 1 (C ~ 1e-4), where scipy's P is that far from the closed form
    # 1 / (1 + sqrt(1 + c^2)) and the Schur one matches it exactly; the
    # four-state and n = 16 designs agree within 4.7e-15.
    model, params = load_problem(str(BENCH_INPUTS / config))
    for point in sweep_curve(model, params.distortion, params.tolerances):
        oracle = _scipy_care(model, point.C)
        assert np.linalg.norm(point.care.P - oracle) <= 1e-13 * np.linalg.norm(oracle)


def test_solve_care_rejects_structural_failures():
    uncontrollable = SystemModel(A=np.diag([-1.0, -2.0]), B=np.array([[1.0], [0.0]]))
    with pytest.raises(InputValidationError, match="controllable"):
        solve_care(uncontrollable, SensorGain(C=np.eye(2)))
    undetectable = SystemModel(A=np.diag([1.0, -1.0]), B=np.eye(2))
    with pytest.raises(InputValidationError, match="detectable"):
        solve_care(undetectable, SensorGain(C=np.diag([0.0, 1.0])))


def test_rates_from_P():
    P = np.array([[0.25]])
    info, mmse = rates_from_P(P, CANONICAL_GAIN)
    assert info == pytest.approx(1.0, abs=1e-12)
    assert mmse == pytest.approx(0.25, abs=1e-15)


def test_gain_shape_mismatch_rejected():
    with pytest.raises(InputValidationError):
        integrate_rde(CANONICAL, SensorGain(C=np.eye(2)), dt=1e-2, t_max=1.0)


def _imported_names(module) -> list[tuple[str, str]]:
    """(module, name) for every import in a module's source, with the
    leading dots of relative imports dropped."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs += [(node.module or "", alias.name) for alias in node.names]
    return pairs


def test_certifier_and_optimizer_stay_independent():
    # The Riccati certifier cross-checks the SDP, so neither route may use
    # the other.
    for source, name in _imported_names(riccati):
        assert source.rsplit(".", 1)[-1] != "sdp" and name != "sdp", (source, name)
    for source, name in _imported_names(sdp):
        assert source.rsplit(".", 1)[-1] != "riccati" and name != "riccati", (source, name)
