"""Gain recovery from covariances and certified trade-off points."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from immse.design import (
    TradeoffCurve,
    TradeoffPoint,
    design_sensor,
    recover_gain,
    sweep_curve,
)
from immse.errors import (
    CrossCheckError,
    ImmseError,
    InfeasibleError,
    InputValidationError,
    NonConvergenceError,
)
from immse.linalg import solve_lyapunov
from immse.model import DEFAULT_TOLERANCES, SensorGain, SystemModel, load_problem
from immse.riccati import care_residual, solve_care

REPO = Path(__file__).resolve().parents[1]
CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))


def test_recover_gain_scalar_oracle():
    # P = 0.25: M = (2 a P + b^2)/P^2 = 8, so C = 2 sqrt(2).
    gain, _ = recover_gain(CANONICAL, np.array([[0.25]]))
    assert gain.C[0, 0] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_recover_gain_open_loop_gives_zero():
    P_ol = solve_lyapunov(CANONICAL.A, CANONICAL.B @ CANONICAL.B.T)
    gain, _ = recover_gain(CANONICAL, P_ol)
    assert np.allclose(gain.C, 0.0, atol=1e-7)


def test_recover_gain_decoupled_two_state():
    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    gain, _ = recover_gain(model, 0.25 * np.eye(2))
    assert np.allclose(gain.C, 2.0 * np.sqrt(2.0) * np.eye(2), atol=1e-12)


def test_recover_gain_rejects_singular_P():
    with pytest.raises(InputValidationError):
        recover_gain(CANONICAL, np.array([[0.0]]))


def test_recover_gain_accepts_tiny_well_conditioned_P():
    # lambda_min(P) = 1e-10 is below psd_tol, but P has condition number 2.
    # With A diagonal and B = I, C^T C = P^{-1}(A P + P A^T + I) P^{-1} is
    # diagonal and known in closed form.
    model = SystemModel(A=np.diag([-1.0, -2.0]), B=np.eye(2))
    p = np.array([1e-10, 2e-10])
    gain, _ = recover_gain(model, np.diag(p))
    expected = np.sqrt((2.0 * np.diag(model.A) * p + 1.0) / p**2)
    assert np.allclose(gain.C, np.diag(expected), rtol=1e-9, atol=0.0)


def test_recover_gain_rejects_nearly_rank_deficient_P():
    # Condition 1e18, beyond float64: its Cholesky factorization fails.
    theta = 1.0
    U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    P = 0.25 * U @ np.diag([1.0, 1e-18]) @ U.T
    with pytest.raises(InputValidationError, match="Cholesky"):
        recover_gain(SystemModel(A=-np.eye(2), B=np.eye(2)), P)


def test_recover_gain_round_trip_random():
    # Solve the stationary equation at a random gain, then recover the
    # canonical gain from its covariance: C^T C must be preserved and the
    # stationary residual certified.
    rng = np.random.default_rng(91)
    done = 0
    while done < 40:
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        C0 = rng.normal(size=(n, n)) + 0.5 * np.eye(n)
        model = SystemModel(A=A, B=B)
        try:
            sol = solve_care(model, SensorGain(C=C0))
        except ImmseError:
            continue
        gain, residual = recover_gain(model, sol.P)
        assert np.allclose(gain.C, gain.C.T)
        assert np.allclose(gain.C.T @ gain.C, C0.T @ C0, atol=1e-5 * (1 + np.linalg.norm(C0) ** 2))
        assert residual == care_residual(model, gain, sol.P)
        assert residual <= 1e-6 * (1.0 + np.linalg.norm(B @ B.T))
        done += 1


def test_recover_gain_invariant_under_orthogonal_mixing():
    # U C and C share C^T C, hence the same covariance and the same
    # canonical representative.
    theta = 0.7
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    model = SystemModel(A=np.array([[-0.5, 0.2], [0.0, -1.5]]), B=np.eye(2))
    C0 = np.array([[1.2, 0.1], [0.0, 0.8]])
    P1 = solve_care(model, SensorGain(C=C0)).P
    P2 = solve_care(model, SensorGain(C=U @ C0)).P
    assert np.allclose(P1, P2, atol=1e-9)
    (g1, _), (g2, _) = recover_gain(model, P1), recover_gain(model, P2)
    assert np.allclose(g1.C, g2.C, atol=1e-7)


def test_design_sensor_canonical_point():
    point = design_sensor(CANONICAL, 0.25)
    assert point.R == pytest.approx(1.0, abs=1e-6)
    assert point.C.C[0, 0] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)
    assert point.gap <= DEFAULT_TOLERANCES.gap_tol
    assert point.are_residual <= DEFAULT_TOLERANCES.residual_tol
    assert np.trace(point.P) == pytest.approx(0.25, abs=1e-6)


def test_design_sensor_effort_grows_as_budget_shrinks():
    grid = [1.0, 0.5, 0.25, 0.1]
    effort = []
    for D in grid:
        point = design_sensor(CANONICAL, D)
        effort.append(float(np.linalg.eigvalsh(point.C.C.T @ point.C.C).max()))
    assert all(e2 >= e1 - 1e-6 for e1, e2 in zip(effort, effort[1:]))


# Stiff budgets: the barrier starts at t = 1 and, with every stage
# re-balanced, still reaches the gap target within the inner Newton cap.
@pytest.mark.parametrize("D", [3e-4, 1e-4, 1e-6])
def test_stiff_budget_closed_form(D):
    # Scalar a = -1, b = 1: R = 1/(2 D) - 1 while the budget binds.
    point = design_sensor(CANONICAL, D)
    assert point.R == pytest.approx(1.0 / (2.0 * D) - 1.0, rel=1e-9)


# At these eps the optimal P has lambda_min = 2.0e-10 and 2.0e-12, below
# psd_tol = 1e-8: definiteness is tested where it is scale-free, on the
# balanced iterate in solve and by Cholesky in recover_gain.
@pytest.mark.parametrize("eps", [1e-4, 1e-5])
def test_weakly_controllable_pair(eps):
    # (diag(-1, -2), [1; eps]) is controllable for every eps > 0; as eps -> 0
    # the second mode's variance vanishes and R(D) -> 1/(2 D) - 1.
    model = SystemModel(A=np.diag([-1.0, -2.0]), B=np.array([[1.0], [eps]]))
    point = design_sensor(model, 0.4)
    assert point.R == pytest.approx(0.25, rel=1e-6)
    assert np.trace(point.P) <= 0.4


def test_ill_conditioned_start_reaches_optimum():
    # The 75th model of the criterion-2 draw (seed 515): A has eigenvalues
    # 0.68 +- 0.36i and -0.45.  The optimal P has an eigenvalue near 7e-8;
    # from a start with one near 1e-8 the solver once stopped at R = 10.41
    # with the budget slack.  The optimum has the budget active.
    model = SystemModel(
        A=np.array(
            [
                [-0.03737140808514584, -0.6634300775977273, 1.0405632547343817],
                [-0.660903051953138, 0.6514824300874358, -2.394239255322706],
                [-0.06942742265318301, 0.0794044100634454, 0.29899448160907016],
            ]
        ),
        B=np.array([[-0.6745989081221375], [-0.3801357607774067], [2.0277113784143923]]),
    )
    D = 0.7265489655080278
    point = design_sensor(model, D)
    assert point.R == pytest.approx(5.318261, rel=1e-6)
    assert np.trace(point.P) == pytest.approx(D, rel=1e-6)


def test_stable_pair_at_small_budget_designs():
    # Draw 172 of the seeded design probe (tests/test_probe.py).  A is
    # stable and D is 1.43e-4 times the open-loop trace, inside the stated
    # range, which reaches down to 1e-4 times it.  The barrier once hit its
    # inner Newton cap here at t = 1.472e+03.
    model = SystemModel(
        A=np.array(
            [
                [-1.6860863541221267, -2.208785729974441],
                [0.2405353371412648, -1.2659168833271397],
            ]
        ),
        B=np.array([[0.6736990566533017], [-0.505864878897838]]),
    )
    D = 5.687731483202453e-05
    point = design_sensor(model, D)
    assert np.trace(point.P) == pytest.approx(D, rel=1e-6)


def test_large_rate_passes_the_cross_check():
    # Draw 118 of the seeded design probe (tests/test_probe.py): A has two
    # unstable modes.  The two routes agree to 1.7e-7 relative, which an
    # absolute 1e-5 rate cross-check once refused at R = 407.686.
    model = SystemModel(
        A=np.array(
            [
                [-0.06978428486390195, -0.1193577955305817, -0.8442509867056299],
                [-0.45587948390931204, -0.5292670614794154, -0.016429359453496713],
                [-0.15860122373060342, -0.22735631196833772, 0.28646396997846363],
            ]
        ),
        B=np.array([[-1.3860827748063256], [0.09096013170226845], [0.39870471333605895]]),
    )
    point = design_sensor(model, 0.0025638001816360935)
    assert point.R == pytest.approx(407.6862, rel=1e-6)


def _stable_n16_model(seed: int, n: int = 16) -> SystemModel:
    """A = M / sqrt(n) - 1.5 I with M standard normal, drawn again until
    the spectral abscissa is at most -0.25; B = I."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
        if np.linalg.eigvals(A).real.max() <= -0.25:
            return SystemModel(A=A, B=np.eye(n))


def test_design_sensor_n16_regression():
    # design_sensor raises unless the SDP and the Riccati route agree on
    # the stationary trace and the rate of the recovered gain.
    model = _stable_n16_model(seed=1)
    D = 0.1 * float(np.trace(solve_lyapunov(model.A, model.B @ model.B.T)))
    point = design_sensor(model, D)
    assert np.trace(point.P) == pytest.approx(D, rel=1e-6)
    assert point.R == pytest.approx(176.41294296835946, rel=1e-6)
    assert point.are_residual <= DEFAULT_TOLERANCES.residual_tol
    assert point.gap <= DEFAULT_TOLERANCES.gap_tol


def test_n16_stiff_budget_closed_form():
    # B = I, so S = (B B^T)^(1/2) = I and K = A S + S A^T = A + A^T.  For
    # D <= D0 = theta_max Tr S, theta_max the largest theta with
    # S^2 + theta K >= 0, the optimum is P = (D / Tr S) S with
    # R = Tr A + (Tr S)^2 / (2 D).  At 1e-3 D0 the barrier started at
    # t = 1 once hit the inner Newton cap.
    model = _stable_n16_model(seed=1)
    n = model.n
    D0 = n / -np.linalg.eigvalsh(model.A + model.A.T).min()
    assert D0 == pytest.approx(3.0984854, rel=1e-7)
    D = 1e-3 * D0
    point = design_sensor(model, D)
    assert point.R == pytest.approx(np.trace(model.A) + n**2 / (2.0 * D), rel=1e-9)


def test_full_rank_oracle_on_the_checked_in_n16_model():
    # The curve-n16 benchmark model has B = I, so S = I and Tr S = n.  Up
    # to D0 the optimum is P = (D / n) I with R = Tr A + n^2 / (2 D); past
    # D0 that expression is only a lower bound, and past the open-loop
    # trace the budget is slack and R = 0.
    model, params = load_problem(str(REPO / "bench" / "inputs" / "curve_n16_seed1.json"))
    n = model.n
    assert np.array_equal(model.B, np.eye(n))
    D0 = n / -np.linalg.eigvalsh(model.A + model.A.T).min()
    assert D0 == pytest.approx(3.0984853888893866, rel=1e-12)

    def bound(D):
        return np.trace(model.A) + n**2 / (2.0 * D)

    for D in (*params.distortion, 0.99 * D0):
        assert design_sensor(model, D).R == pytest.approx(bound(D), rel=1e-9)
    assert design_sensor(model, 1.5 * D0).R >= bound(1.5 * D0)
    trace_ol = float(np.trace(solve_lyapunov(model.A, model.B @ model.B.T)))
    assert design_sensor(model, 1.5 * trace_ol).R <= 10.0 * DEFAULT_TOLERANCES.gap_tol


def test_sweep_curve_canonical_grid():
    curve = sweep_curve(CANONICAL, (0.1, 0.25, 0.5, 1.0))
    assert len(curve) == 4
    rates = [p.R for p in curve]
    assert rates[0] == pytest.approx(4.0, abs=1e-6)
    assert rates[1] == pytest.approx(1.0, abs=1e-6)
    assert rates[2] == pytest.approx(0.0, abs=1e-6)
    assert rates[3] == pytest.approx(0.0, abs=1e-6)


def test_sweep_curve_grid_validation():
    with pytest.raises(InputValidationError):
        sweep_curve(CANONICAL, (0.5, 0.25))
    with pytest.raises(InputValidationError):
        sweep_curve(CANONICAL, ())
    with pytest.raises(InputValidationError):
        sweep_curve(CANONICAL, (-0.5, 0.25))
    assert len(sweep_curve(CANONICAL, (0.3,))) == 1


def test_sweep_curve_wraps_point_failures_with_budget():
    uncontrollable = SystemModel(A=np.eye(2), B=np.array([[1.0], [0.0]]))
    with pytest.raises(InputValidationError, match="sweep aborted at D = 0.5"):
        sweep_curve(uncontrollable, (0.5,))


def _fake_point(D: float, R: float) -> TradeoffPoint:
    return TradeoffPoint(
        D=D,
        R=R,
        P=np.eye(1),
        C=SensorGain(C=np.eye(1)),
        are_residual=0.0,
        gap=0.0,
    )


def test_curve_container_enforces_shape():
    with pytest.raises(InputValidationError):
        TradeoffCurve(points=(_fake_point(0.5, 1.0), _fake_point(0.25, 2.0)))
    with pytest.raises(CrossCheckError):
        TradeoffCurve(points=(_fake_point(0.1, 3.0), _fake_point(0.2, 4.0)))
    with pytest.raises(CrossCheckError):
        # Rising chord violation: middle point above the segment ends.
        TradeoffCurve(
            points=(
                _fake_point(0.1, 3.0),
                _fake_point(0.2, 2.9),
                _fake_point(0.3, 0.0),
            )
        )
    curve = TradeoffCurve(points=(_fake_point(0.1, 2.0), _fake_point(0.2, 1.0)))
    assert [p.D for p in curve] == [0.1, 0.2]


def _eight_state(seed: int, inputs: int = 1, eps: float = 0.0, scale: float = 1.0):
    """A = N/sqrt(8) - 1.5 I and B = N with ``inputs`` columns, drawn from
    default_rng(seed); optionally a column eps 1/sqrt(8) appended to B, and
    time rescaled by A -> scale A, B -> sqrt(scale) B."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 8)) / np.sqrt(8.0) - 1.5 * np.eye(8)
    B = rng.standard_normal((8, inputs))
    if eps:
        B = np.hstack([B, np.full((8, 1), eps / np.sqrt(8.0))])
    return SystemModel(A=scale * A, B=np.sqrt(scale) * B)


def test_eight_state_single_input_failure_rate():
    # D8 loses the feasible start on 52 of 100 single-input draws at D = 1,
    # and D10 fails seed 3; with two input columns every draw designs.
    failures = {}
    for seed in range(100):
        try:
            design_sensor(_eight_state(seed), 1.0)
        except (InfeasibleError, NonConvergenceError) as exc:
            failures[seed] = type(exc)
    assert [s for s, e in failures.items() if e is NonConvergenceError] == [3]
    assert sum(e is InfeasibleError for e in failures.values()) == 52
    for seed in range(100):
        design_sensor(_eight_state(seed, inputs=2), 1.0)


def test_eight_state_seed0_design_converges_as_an_extra_input_vanishes():
    R = [design_sensor(_eight_state(0, eps=eps), 1.0).R for eps in (1e-4, 1e-5, 1e-6)]
    assert R == pytest.approx([3.142456125, 3.142456103, 3.142456102], abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    raises=InfeasibleError,
    reason="D8: float64 loses the feasible start of a weakly controllable pair",
)
def test_eight_state_seed0_designs():
    assert design_sensor(_eight_state(0), 1.0).R == pytest.approx(3.142456102, abs=1e-8)


@pytest.mark.xfail(
    strict=True,
    raises=NonConvergenceError,
    reason="D10: the first stage's reduced Newton system loses definiteness at t = 1",
)
@pytest.mark.parametrize(
    ("D", "eps", "scale"),
    [(1.0, 0.0, 1.0), (0.21, 0.0, 1.0), (4.0, 0.0, 1.0), (1.0, 0.0, 0.5), (1.0, 0.0, 2.0),
     (1.0, 1e-6, 1.0)],
    ids=["D1", "D0.21", "D4", "slower", "faster", "extra-input"],
)
def test_eight_state_seed3_designs(D, eps, scale):
    # A has a mode at +0.054; the 49th Newton system of the first stage
    # fails, with the balanced iterate's eigenvalues from 0.76 to 1.5e13.
    point = design_sensor(_eight_state(3, eps=eps, scale=scale), D)
    assert np.trace(point.P) <= D * (1.0 + 1e-9)
