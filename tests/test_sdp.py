"""Interior-point solver for the trade-off program: blocks, feasibility, oracles."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import immse.sdp as sdp
from immse.design import design_sensor
from immse.errors import InfeasibleError, InputValidationError, NonConvergenceError
from immse.model import DEFAULT_TOLERANCES, SystemModel, load_problem
from immse.sdp import (
    SdpProblem,
    _NewtonStep,
    _pack,
    _sym_coords,
    _unpack,
    build_sdp,
    solve,
)
from test_design import _eight_state
from test_probe import probe_draw

CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def feasible_start(problem: SdpProblem) -> np.ndarray:
    """The closed-form start P0 of sdp._balanced_start."""
    return sdp._balanced_start(problem, DEFAULT_TOLERANCES.eig_tol)[0]


def scalar_rate(a: float, b: float, D: float) -> float:
    """Hand formula: R = a + b^2/(2 D) when the budget binds, else 0."""
    if a < 0 and D >= b * b / (-2.0 * a):
        return 0.0
    return a + b * b / (2.0 * D)


def test_block_assembly_scalar():
    problem = build_sdp(CANONICAL, D=1.0)
    P = np.array([[0.3]])
    assert problem.block1(P) == pytest.approx(np.array([[0.4]]))
    assert problem.block3(P) == pytest.approx(0.7)


def test_block_assembly_shapes():
    model = SystemModel(
        A=np.array([[-1.0, 0.2], [0.0, -2.0]]), B=np.array([[1.0], [0.5]])
    )
    problem = build_sdp(model, D=0.8)
    P = np.eye(2) * 0.3
    assert problem.block1(P).shape == (2, 2)
    assert problem.block3(P) == pytest.approx(0.2)


def test_build_sdp_rejects_bad_budget():
    with pytest.raises(InputValidationError):
        build_sdp(CANONICAL, D=0.0)
    with pytest.raises(InputValidationError):
        build_sdp(CANONICAL, D=-1.0)


@pytest.mark.parametrize(
    "a, b, D", [(-1.0, 2.0, 0.5), (0.5, 1.0, 0.2), (-1.0, 1.0, 3.0), (0.0, 1.0, 0.1)]
)
def test_feasible_start_scalar_closed_form(a, b, D):
    # c = max(a, 0) + |a| (1 when a = 0) and Y = b^2 / (2 (c - a)); the
    # start is s Y with s = min(1, 0.9 D / Y), and its first block is
    # 2 c s Y + (1 - s) b^2.
    c = max(a, 0.0) + abs(a) if a != 0.0 else 1.0
    Y = b * b / (2.0 * (c - a))
    s = min(1.0, 0.9 * D / Y)
    problem = build_sdp(SystemModel(A=np.array([[a]]), B=np.array([[b]])), D)
    P0 = feasible_start(problem)
    assert P0[0, 0] == pytest.approx(s * Y, rel=1e-12)
    if s < 1.0:
        assert np.trace(P0) == pytest.approx(0.9 * D, rel=1e-12)
    assert problem.block1(P0)[0, 0] == pytest.approx(
        2.0 * c * s * Y + (1.0 - s) * b * b, rel=1e-12
    )


def _one_unstable_mode(rng, n: int) -> np.ndarray:
    """A with eigenvalues 0.3 and n - 1 in [-2, -0.2], in a random basis."""
    lam = np.concatenate([[0.3], -rng.uniform(0.2, 2.0, size=n - 1)])
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return S @ np.diag(lam) @ np.linalg.inv(S)


def _start_models():
    rng = np.random.default_rng(2024)
    for n, m in [(1, 2), (2, 1), (4, 2), (8, 4), (16, 8)]:
        yield SystemModel(A=_one_unstable_mode(rng, n), B=rng.standard_normal((n, m)))
    # The weakly controllable pair: the old probe start left the balanced
    # first block with condition 2.2e9 here.
    yield SystemModel(A=np.diag([-1.0, -2.0]), B=np.array([[1.0], [1e-4]]))


def test_feasible_start_balanced_condition_is_bounded():
    # With c and s as in sdp._balanced_start, the first block at X = I in
    # the coordinates balanced by L = chol(P0) is 2c I + (1 - s) B~ B~^T
    # with Tr B~^T B~ = 2 (nc - Tr A) / s: its condition is at most
    # 1 + (1 - s)(nc - Tr A) / (c s), whatever the pair's conditioning.
    for model in _start_models():
        A, B, n = model.A, model.B, model.n
        c = max(np.linalg.eigvals(A).real.max(), 0.0) + np.linalg.norm(A, 2)
        Y = scipy.linalg.solve_continuous_lyapunov(A - c * np.eye(n), -B @ B.T)
        for scale in (1e-3, 0.1, 0.9, 10.0):
            D = scale * np.trace(Y)
            problem = build_sdp(model, D)
            P0 = feasible_start(problem)
            s = min(1.0, 0.9 * D / np.trace(Y))
            assert np.linalg.eigvalsh(problem.block1(P0)).min() > 0.0
            assert np.trace(P0) < D
            L = np.linalg.cholesky(P0)
            G1 = np.linalg.solve(L, np.linalg.solve(L, problem.block1(P0)).T)
            lam = np.linalg.eigvalsh(0.5 * (G1 + G1.T))
            bound = 1.0 + (1.0 - s) * (n * c - np.trace(A)) / (c * s)
            assert lam[-1] / lam[0] <= (1.0 + 1e-8) * bound, (n, scale)


def test_find_feasible_start_strict():
    problem = build_sdp(CANONICAL, D=0.5)
    P0 = feasible_start(problem)
    assert np.trace(P0) < 0.5
    assert np.linalg.eigvalsh(problem.block1(P0)).min() > 0
    assert np.linalg.eigvalsh(P0).min() > 0


def test_find_feasible_start_needs_controllability():
    model = SystemModel(A=np.eye(2), B=np.array([[1.0], [0.0]]))
    with pytest.raises(InputValidationError, match="controllable"):
        feasible_start(build_sdp(model, D=1.0))


def test_infeasible_budget_reports_trace_reached():
    # D8, draw 250 of the seeded design probe: (A, B) passes the
    # controllability test at eig_tol, but the shifted Lyapunov solution Y
    # has lambda_min near -3e-18 against lambda_max = 0.71, so chol(P0)
    # fails whatever the budget.  The start's trace is 0.9 D.
    model, D = probe_draw(250)
    with pytest.raises(InfeasibleError) as err:
        feasible_start(build_sdp(model, D))
    assert err.value.trace_reached == pytest.approx(0.9 * D, rel=1e-12)


def test_solve_canonical_oracles():
    for D, expected in [(0.1, 4.0), (0.25, 1.0), (0.5, 0.0), (5.0, 0.0)]:
        sol = solve(build_sdp(CANONICAL, D))
        assert sol.objective == pytest.approx(expected, abs=1e-6), f"D = {D}"
        assert sol.duality_gap <= DEFAULT_TOLERANCES.gap_tol
        assert np.trace(sol.P) <= D + 1e-9


def test_solve_unstable_scalar_oracle():
    model = SystemModel(A=np.array([[1.0]]), B=np.array([[1.0]]))
    sol = solve(build_sdp(model, D=0.5))
    assert sol.objective == pytest.approx(2.0, abs=1e-6)


def test_solution_blocks_stay_feasible():
    problem = build_sdp(CANONICAL, 0.25)
    sol = solve(problem)
    assert np.linalg.eigvalsh(problem.block1(sol.P)).min() >= -DEFAULT_TOLERANCES.psd_tol
    assert problem.block3(sol.P) >= 0.0
    assert np.linalg.eigvalsh(sol.P).min() > DEFAULT_TOLERANCES.psd_tol
    # Objective at the Schur-exact Q: Tr(A) + Tr(B^T P^{-1} B)/2.
    B = CANONICAL.B
    assert sol.objective == pytest.approx(
        np.trace(CANONICAL.A) + 0.5 * np.trace(B.T @ np.linalg.solve(sol.P, B)), abs=1e-12
    )


def test_random_scalars_match_hand_formula():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        a = float(rng.uniform(-3.0, 3.0))
        while a == 0.0:
            a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.1, 3.0))
        D = float(rng.uniform(0.05, 5.0))
        model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
        sol = solve(build_sdp(model, D))
        assert sol.objective == pytest.approx(
            scalar_rate(a, b, D), abs=1e-6
        ), f"a={a} b={b} D={D}"


def test_rate_monotone_and_convex_in_budget():
    rng = np.random.default_rng(77)
    for _ in range(6):
        a = float(-rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.3, 2.0))
        model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
        grid = np.sort(rng.uniform(0.05, 3.0, size=4))
        rates = [solve(build_sdp(model, float(D))).objective for D in grid]
        slack = 10.0 * DEFAULT_TOLERANCES.gap_tol
        assert all(r2 <= r1 + slack for r1, r2 in zip(rates, rates[1:]))
        for i in range(1, len(grid) - 1):
            lam = (grid[i + 1] - grid[i]) / (grid[i + 1] - grid[i - 1])
            chord = lam * rates[i - 1] + (1.0 - lam) * rates[i + 1]
            assert rates[i] <= chord + slack


def test_two_state_oracle():
    # Decoupled double of the canonical model: R(0.5) = 2 * R_scalar(0.25).
    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    sol = solve(build_sdp(model, D=0.5))
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(sol.P, 0.25 * np.eye(2), atol=1e-4)


def _sym_basis(k: int) -> np.ndarray:
    """Unit diagonals first, then unit-pair off-diagonals in row-major order."""
    basis = [np.zeros((k, k)) for _ in range(k * (k + 1) // 2)]
    for i in range(k):
        basis[i][i, i] = 1.0
    idx = k
    for i in range(k):
        for j in range(i + 1, k):
            basis[idx][i, j] = basis[idx][j, i] = 1.0
            idx += 1
    return np.array(basis)


def _dense_barrier_derivatives(A, B, P, G1, g3, weight, t):
    """Reference: gradient and Hessian of t f(P) - log det G1 - log det P
    - log g3, f(P) = Tr(B^T P^{-1} B)/2, by contracting dense derivative
    tensors over every pair of packed directions."""
    n = A.shape[0]
    basis = _sym_basis(n)
    T1 = np.array([A @ S + S @ A.T for S in basis])
    tr_S = np.array([np.vdot(weight, S) for S in basis])
    Pinv = np.linalg.inv(P)
    M1 = np.einsum("ab,kbc->kac", np.linalg.inv(G1), T1)
    MP = np.einsum("ab,kbc->kac", Pinv, basis)
    V = Pinv @ B @ B.T @ Pinv
    C = Pinv @ B @ B.T
    grad_f = -0.5 * np.einsum("ab,kba->k", V, basis)
    H_f = np.einsum("kab,lbc,ca->kl", MP, MP, C)
    grad = t * grad_f - np.einsum("kaa->k", M1) - np.einsum("kaa->k", MP) + tr_S / g3
    H = (
        t * 0.5 * (H_f + H_f.T)
        + np.einsum("kab,lba->kl", M1, M1)
        + np.einsum("kab,lba->kl", MP, MP)
        + np.outer(tr_S, tr_S) / g3**2
    )
    return grad, H


def _random_spd(rng, k: int) -> np.ndarray:
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (U * rng.uniform(0.5, 2.0, size=k)) @ U.T


@pytest.mark.parametrize("n, m", [(16, 16), (4, 2), (3, 1)])
def test_newton_direction_matches_dense_reference(n, m):
    # A strictly feasible point with a general drift: pick P and the first
    # block G1 > 0 first, then A = ((G1 - B B^T)/2 + K) P^{-1} with K
    # skew, so that A P + P A^T + B B^T = G1.  The reference solves the
    # dense system of t f + barrier by LU; the step solves the packed one
    # by Cholesky, with the budget term applied by Sherman-Morrison.  The
    # central path's tangent solves the same system for -grad f = <V/2, S>,
    # V = P^{-1} B B^T P^{-1}, and the decrement, a sum of squares, is
    # <R, dP>/t with R = -grad the right-hand side.
    rng = np.random.default_rng(100 * n + m)
    B = rng.standard_normal((n, m))
    P = _random_spd(rng, n)
    K = rng.standard_normal((n, n))
    A = (0.5 * (_random_spd(rng, n) - B @ B.T) + K - K.T) @ np.linalg.inv(P)
    weight = _random_spd(rng, n)
    D = float(np.vdot(weight, P)) + 0.7
    problem = SdpProblem(model=SystemModel(A=A, B=B), D=D, weight=weight)
    G1, g3 = problem.block1(P), problem.block3(P)
    assert np.linalg.eigvalsh(G1).min() > 0

    step = _NewtonStep(problem)
    state = step.factor(P)
    assert state[4] == pytest.approx(0.5 * np.trace(B.T @ np.linalg.solve(P, B)), rel=1e-12)
    Pinv_B = np.linalg.solve(P, B)
    minus_grad_f = np.array([np.vdot(0.5 * Pinv_B @ Pinv_B.T, S) for S in _sym_basis(n)])
    for t in (1.0, 2.0, 3.0, 7.0):
        grad, H = _dense_barrier_derivatives(A, B, P, G1, g3, weight, t)
        delta_ref = np.linalg.solve(H, -grad)
        tangent_ref = np.linalg.solve(H, minus_grad_f)
        dP, decrement2, dP_dt = step(state, t)
        assert np.array_equal(dP, dP.T)
        assert np.array_equal(dP_dt, dP_dt.T)
        assert np.abs(_pack(dP) - delta_ref).max() <= 1e-10 * np.abs(delta_ref).max()
        assert np.abs(_pack(dP_dt) - tangent_ref).max() <= 1e-10 * np.abs(tangent_ref).max()
        assert decrement2 == pytest.approx(float(-grad @ delta_ref) / t, rel=1e-10)
        assert decrement2 == pytest.approx(float(-grad @ _pack(dP)) / t, rel=1e-10)
        # Every entry a call reads it writes first: with its work arrays all
        # NaN, the step gives a fresh step's direction to the bit.
        for array in step.work:
            array.fill(np.nan)
        _assert_same_direction(step(state, t), _NewtonStep(problem)(state, t))


def _assert_same_direction(got, want):
    """(dP, decrement^2, dP/dt) equal bit for bit."""
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert got[2].tobytes() == want[2].tobytes()


def test_kept_step_keeps_its_own_data_after_a_failed_restart():
    # A restart builds the next step on the solve's work arrays; where its
    # X = I is outside the interior, the stage goes on with the step it
    # had.  That step's direction must still come from its own weight and
    # model, not the new coordinates'.  Here the new ones are balanced by
    # 3 L: their X = I is P scaled by 9, over the budget.
    rng = np.random.default_rng(7)
    n, m = 4, 2
    B = rng.standard_normal((n, m))
    P = _random_spd(rng, n)
    A = (0.5 * (_random_spd(rng, n) - B @ B.T)) @ np.linalg.inv(P)
    weight = _random_spd(rng, n)
    problem = SdpProblem(model=SystemModel(A=A, B=B), D=float(np.vdot(weight, P)) + 0.5, weight=weight)
    L = np.linalg.cholesky(P)
    step, state = sdp._restart(problem, L)
    before = step(state, 5.0)
    lost, no_state = sdp._restart(problem, 3.0 * L, step.work)
    assert no_state is None and lost.work is step.work
    assert not np.array_equal(lost.w, step.w)
    _assert_same_direction(step(state, 5.0), before)


def test_concurrent_designs_match_a_serial_sweep():
    # Each solve owns its work arrays: designs on two threads at once, in
    # opposite orders and switching often, give the serial sweep's points
    # to the bit.
    model, params = load_problem(BENCH_INPUTS / "curve_n16_seed1.json")
    budgets = list(params.distortion)
    serial = [design_sensor(model, D) for D in budgets]
    start = threading.Barrier(2, timeout=60)
    found = [None, None]

    def sweep(i):
        start.wait()
        found[i] = [design_sensor(model, D) for D in (budgets if i == 0 else budgets[::-1])]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got in (found[0], found[1][::-1]):
        for a, b in zip(got, serial, strict=True):
            assert a.R == b.R
            for x, y in ((a.P, b.P), (a.C.C, b.C.C), (a.care.P, b.care.P)):
                assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_packed_coordinates_are_cached_read_only_and_round_trip(k):
    coords = _sym_coords(k)
    assert _sym_coords(k) is coords
    for a in coords:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
    x = np.random.default_rng(k).standard_normal(k * (k + 1) // 2)
    M = _unpack(x, k)
    assert np.array_equal(M, M.T)
    assert _pack(M).tobytes() == x.tobytes()


def test_restart_keeps_the_stage_coordinates_when_rebalancing_fails(monkeypatch):
    # Probe draw 121 (n = 4, m = 1, D = 0.003016): X = I of the coordinates
    # balanced at the predicted start of the last stage, t = 1e9, falls
    # outside the strict interior in float64.  The predicted iterate is
    # strictly feasible in the stage's own coordinates, so the barrier
    # carries on there, to the rate's limit as gap_tol -> 0.
    model, D = probe_draw(121)
    sdp_restart, lost = sdp._restart, []

    def restart(problem, L, work=None):
        step, state = sdp_restart(problem, L, work)
        lost.append(state is None)
        return step, state

    monkeypatch.setattr(sdp, "_restart", restart)
    assert design_sensor(model, D).R == pytest.approx(1302.9953259533, rel=1e-9)
    assert any(lost)


def test_line_search_refuses_a_step_that_does_not_lower_the_barrier(monkeypatch):
    # A Newton step of 1e-30 I on P ~ 1e-4, where the barrier is ~5e3,
    # leaves its value unchanged.  The Armijo bound f0 - size/4 rounds to
    # f0 once size is under its float spacing: without the demand that f
    # fall, the null step was taken and counted up to the iteration cap.
    calls = []

    def null_step(self, state, t):
        calls.append(t)
        return 1e-30 * np.eye(1), 1.0, np.zeros((1, 1))

    monkeypatch.setattr(_NewtonStep, "__call__", null_step)
    with pytest.raises(NonConvergenceError, match=r"^Newton line search stalled at t = 1\.0+e\+00"):
        solve(build_sdp(CANONICAL, D=1e-4))
    assert calls == [1.0]


def _step_cap_cases():
    for name in ("curve_n16_seed1", "four_state"):
        model, params = load_problem(BENCH_INPUTS / f"{name}.json")
        for D in params.distortion:
            yield pytest.param(model, D, id=f"{name}-{D:.4g}")
    for D in (1e-4, 1e-5, 1e-6):
        yield pytest.param(CANONICAL, D, id=f"scalar-{D:g}")


@pytest.mark.parametrize("model, D", _step_cap_cases())
def test_newton_steps_stay_capped(model, D):
    # With t growing twentyfold per stage and each stage started from the
    # tangent predictor these take 12-26 Newton steps; started from the
    # last stage's centre they took 30-39, and at fivefold growth 64-75.
    assert solve(build_sdp(model, D)).iterations <= 30


def _mid_stage_restarts(monkeypatch):
    """Spy on solve's restarts; returns a function that counts, and
    forgets, those made inside a stage: between two Newton systems at the
    same t."""
    events = []  # t of each Newton system, None for each restart
    restart, newton = sdp._restart, _NewtonStep.__call__

    def spy_restart(problem, L, work=None):
        events.append(None)
        return restart(problem, L, work)

    def spy_newton(self, state, t):
        events.append(t)
        return newton(self, state, t)

    monkeypatch.setattr(sdp, "_restart", spy_restart)
    monkeypatch.setattr(_NewtonStep, "__call__", spy_newton)

    def count():
        inside = sum(
            r is None and a is not None and a == b
            for a, r, b in zip(events, events[1:], events[2:])
        )
        events.clear()
        return inside

    return count


def test_stage_rebalances_only_where_the_iterate_drifts(monkeypatch):
    # D10's model (seed 3 of tests/test_design.py's eight-state family)
    # re-balances four times inside its stages at D = 1; no budget of the
    # three benchmark configs re-balances inside a stage.
    count = _mid_stage_restarts(monkeypatch)
    solve(build_sdp(_eight_state(3), 1.0))
    assert count() == 4
    for name in ("scalar", "four_state", "curve_n16_seed1"):
        model, params = load_problem(BENCH_INPUTS / f"{name}.json")
        for D in params.distortion:
            solve(build_sdp(model, D))
            assert count() == 0, (name, D)


def test_factor_refuses_non_finite_points():
    # With negative off-diagonal weights, the infinite P below has
    # <weight, P> = -inf and so g3 = +inf; its Cholesky factor meets
    # inf - inf at the last pivot, a NaN that dpotrf need not flag.
    inf = np.inf
    weight = np.array([[1.0, 0.0, -0.3], [0.0, 1.0, -0.3], [-0.3, -0.3, 1.0]])
    model = SystemModel(A=-np.eye(3), B=np.eye(3))
    step = _NewtonStep(SdpProblem(model=model, D=1.0, weight=weight))
    assert step.factor(0.1 * np.eye(3)) is not None
    assert step.factor(np.array([[1.0, 0.5, inf], [0.5, 1.0, inf], [inf, inf, 1.0]])) is None
    for i, j in [(0, 0), (0, 2), (2, 2)]:
        for value in (np.nan, inf, -inf):
            P = 0.1 * np.eye(3)
            P[i, j] = P[j, i] = value
            assert step.factor(P) is None, (i, j, value)
