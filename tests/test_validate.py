"""Monte Carlo sampling of the filter error, and the identity check."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import ndtri

from immse import validate
from immse.design import design_sensor
from immse.errors import InputValidationError
from immse.model import SensorGain, SystemModel, load_problem
from immse.riccati import integrate_rde
from immse.validate import (
    BURN_IN_FRACTION,
    SimConfig,
    _noise_blocks,
    simulate,
)

REPO = Path(__file__).resolve().parents[1]
CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
CANONICAL_GAIN = SensorGain(C=np.array([[2.0 * np.sqrt(2.0)]]))
# A = N/sqrt(8) - 1.5 I, N standard normal from default_rng(8): stable.
_EIGHT_STATE_A = (
    np.random.default_rng(8).standard_normal((8, 8)) / np.sqrt(8.0) - 1.5 * np.eye(8)
)


def whole_horizon_normals(seed, trial, steps, width):
    """Reference: one trial's unit normals drawn from the start of its
    Philox stream in one call, for the whole horizon."""
    gen = np.random.Generator(np.random.Philox(key=(trial << 64) | seed))
    raw = gen.integers(0, 2**53, size=(steps, width), dtype=np.int64)
    return ndtri((raw + 0.5) / 2.0**53)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_noise_blocks_match_whole_horizon_draw(monkeypatch, width):
    # Slabs of three 5-step blocks over 37 steps: 15, 15 and a partial 7,
    # the last block partial too.  Each width enters a stream at a draw
    # that is not a multiple of 4 (15 * width or 30 * width).  The slab
    # is filled by 1, 2 and, capped at the 3 trials, 5 forced workers,
    # with thread switches forced often.
    trials, steps, block = 3, 37, 5
    monkeypatch.setattr(validate, "_SLAB", 3 * block * trials * width)
    want = np.stack(
        [whole_horizon_normals(12, trial, steps, width) for trial in range(trials)], axis=1
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(validate, "_core_count", lambda: workers)
            got = []
            for k, z in _noise_blocks(12, trials, steps, width, block):
                got.append((k, z.copy()))
                z *= 0.5  # as measure_ladder scales each block in place
            assert [k for k, _ in got] == list(range(0, steps, block)), workers
            assert [len(z) for _, z in got] == [5] * 7 + [2], workers
            assert np.array_equal(np.concatenate([z for _, z in got]), want), workers
    finally:
        sys.setswitchinterval(interval)


def test_noise_blocks_raise_a_workers_exception(monkeypatch):
    # The second range's thread fails on its first slab; the caller gets
    # its exception, and every thread has been joined.
    fill = validate._fill_trials

    def failing(rows, seed, first, offset):
        if first > 0:
            raise ZeroDivisionError(f"range from trial {first}")
        fill(rows, seed, first, offset)

    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_fill_trials", failing)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="range from trial 2"):
        list(_noise_blocks(5, 4, 20, 1, 5))
    assert threading.active_count() == threads


def test_noise_blocks_raise_the_calling_threads_exception(monkeypatch):
    # The calling thread's own range fails while the worker fills the
    # second: its exception leaves, and the worker has been joined.
    fill = validate._fill_trials

    def failing(rows, seed, first, offset):
        if first == 0:
            raise ZeroDivisionError("first range")
        fill(rows, seed, first, offset)

    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_fill_trials", failing)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="first range"):
        list(_noise_blocks(5, 4, 20, 1, 5))
    assert threading.active_count() == threads


def test_noise_blocks_closed_after_the_first_block_leave_no_thread(monkeypatch):
    # Four slabs of one 5-step block each, filled by two forced workers;
    # the caller stops after the first block and closes the generator.
    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_SLAB", 5 * 4)
    threads = threading.active_count()
    blocks = _noise_blocks(5, 4, 20, 1, 5)
    k, z = next(blocks)
    assert k == 0 and z.shape == (5, 4, 1)
    assert threading.active_count() == threads
    blocks.close()
    assert threading.active_count() == threads


@pytest.mark.parametrize("steps", [10, 40], ids=["one-slab", "four-slabs"])
def test_noise_blocks_keep_no_generator_per_trial(monkeypatch, steps):
    # 20,000 trials of 10 steps fit one 1.6 MB slab, here over one or four
    # slabs; a generator kept per trial would add about 12 MB.  A short
    # draw first, so that the lazy import is not counted.
    monkeypatch.setattr(validate, "_SLAB", 20_000 * 10)
    list(_noise_blocks(1, 2, 10, 1, 10))
    tracemalloc.start()
    try:
        for _ in _noise_blocks(1, 20_000, steps, 1, 10):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 20_000 * 10 * 8


def test_simulate_holds_no_whole_horizon_temporary_at_n8():
    # n = 8, 4 trials, dt = 1e-3 over 20 s: the flow P is 20,001 x 8 x 8
    # doubles (10.24 MB) and the slab all 20,000 steps of noise (5.12 MB).
    # The noise is drawn into the slab in place, so beside them stand
    # only, under 7 MB, the block buffers and the held-gain exponentials
    # of one block (about 5 MB).  A horizon-sized temporary, such as a
    # settled test over the whole flow at once, breaks the bound.
    model = SystemModel(A=_EIGHT_STATE_A, B=np.eye(8))
    gain = SensorGain(C=np.eye(8))
    simulate(model, gain, SimConfig(dt=1e-2, horizon=1.0, trials=2, seed=3))
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=4, seed=3)
    tracemalloc.start()
    try:
        simulate(model, gain, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flow, slab = 20_001 * 8 * 8 * 8, 20_000 * 4 * 8 * 8
    assert peak < flow + slab + 7_000_000


def test_simulate_holds_no_whole_horizon_noise():
    # The noise of the whole horizon would be 20,000 steps x 64 trials x
    # 1 normal = 10.24 MB; the streamed slab is 8.4 MB.  A short run
    # first, so that the lazy imports are not counted.
    simulate(CANONICAL, CANONICAL_GAIN, SimConfig(dt=1e-2, horizon=1.0, trials=2, seed=3))
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=3)
    tracemalloc.start()
    try:
        simulate(CANONICAL, CANONICAL_GAIN, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000 * 64 * 8


def test_sim_config_validation():
    with pytest.raises(InputValidationError):
        SimConfig(dt=0.0, horizon=1.0, trials=4, seed=0)
    with pytest.raises(InputValidationError):
        SimConfig(dt=0.2, horizon=1.0, trials=4, seed=0)  # horizon < 10 dt
    with pytest.raises(InputValidationError):
        SimConfig(dt=1e-3, horizon=1.0, trials=0, seed=0)
    with pytest.raises(InputValidationError):
        SimConfig(dt=1e-3, horizon=1.0, trials=4, seed=2**64)


def test_zero_gain_info_rate_is_exactly_zero():
    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    cfg = SimConfig(dt=1e-2, horizon=2.0, trials=8, seed=5)
    result = simulate(model, SensorGain(C=np.zeros((2, 2))), cfg)
    assert result.info_rate_hat == 0.0
    assert result.info_rate_stderr == 0.0
    assert result.mmse_rate_hat > 0.0


def test_canonical_stationary_rates_within_three_sigma():
    cfg = SimConfig(dt=1e-3, horizon=50.0, trials=64, seed=7)
    result = simulate(CANONICAL, CANONICAL_GAIN, cfg)
    assert abs(result.mmse_rate_hat - 0.25) <= 3.0 * result.mmse_rate_stderr
    assert abs(result.info_rate_hat - 1.0) <= 3.0 * result.info_rate_stderr
    assert result.mmse_rate_stderr > 0.0


def test_single_trial_smoke():
    cfg = SimConfig(dt=1e-2, horizon=0.1, trials=1, seed=9)
    result = simulate(CANONICAL, CANONICAL_GAIN, cfg)
    assert np.isfinite(result.mmse_rate_hat)
    assert result.mmse_rate_stderr == 0.0


def test_seed_determinism_and_sensitivity():
    cfg = SimConfig(dt=1e-3, horizon=2.0, trials=8, seed=21)
    first = simulate(CANONICAL, CANONICAL_GAIN, cfg)
    second = simulate(CANONICAL, CANONICAL_GAIN, cfg)
    assert first == second, "identical config must reproduce bit-identical results"
    other = simulate(
        CANONICAL,
        CANONICAL_GAIN,
        SimConfig(dt=1e-3, horizon=2.0, trials=8, seed=22),
    )
    assert other.mmse_rate_hat != first.mmse_rate_hat


def test_detectability_gate():
    unstable = SystemModel(A=np.array([[1.0]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=2, seed=0)
    with pytest.raises(InputValidationError, match="detectable"):
        simulate(unstable, SensorGain(C=np.zeros((1, 1))), cfg)


def test_explosive_source_leaves_error_statistics_finite():
    # Detectable but explosive: X itself would pass 1e9 near t = 10.5, but
    # the pass holds only the filter error, whose covariance settles.
    model = SystemModel(A=np.array([[2.0]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-3, horizon=12.0, trials=2, seed=0)
    result = simulate(model, SensorGain(C=np.array([[3.0]])), cfg)
    assert np.isfinite([result.mmse_rate_hat, result.info_rate_hat]).all()
    assert result.duncan.passed


def test_stiff_explosive_pair_leaves_error_statistics_finite():
    # a = 3000, c = 1e4 and dt = 1e-2: the closed loop has |lambda| dt of
    # about 104, and the source grows by e^30 per step.
    model = SystemModel(A=np.array([[3000.0]]), B=np.array([[1.0]]))
    gain = SensorGain(C=np.array([[1e4]]))
    cfg = SimConfig(dt=1e-2, horizon=10.0, trials=2, seed=0)
    P = integrate_rde(model, gain, dt=cfg.dt, t_max=cfg.horizon).values
    assert abs(3000.0 - P[-1, 0, 0] * 1e8) * cfg.dt > 100.0
    result = simulate(model, gain, cfg)
    assert np.isfinite([result.mmse_rate_hat, result.info_rate_hat]).all()
    assert np.isfinite(result.duncan.mc_integral)


# A non-normal pair: the closed loop's propagator is not symmetric.
_NON_NORMAL = SystemModel(A=np.array([[-1.0, 5.0], [0.0, -2.0]]), B=np.array([[0.3], [1.1]]))


def _held_gain_step(model, gain, P, dt):
    """Reference: the Van Loan exponential of one node, by scipy's expm."""
    n, C = model.n, gain.C
    F = model.A - P @ C.T @ C
    Q = model.B @ model.B.T + P @ C.T @ C @ P
    VL = expm(np.block([[F, Q], [np.zeros((n, n)), -F.T]]) * dt)
    return VL[:n, :n], VL[:n, n:] @ VL[:n, :n].T


def _per_step_pass(model, gain, cfg):
    """The filter-error pass one node at a time for each trial: returns
    the per-trial MMSE, information and Duncan sums and the flow."""
    C, n, dt, trials = gain.C, model.n, cfg.dt, cfg.trials
    P = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon).values
    steps = len(P) - 1
    burn_start = int(np.ceil(BURN_IN_FRACTION * steps - 1e-9))
    steps_k = [_held_gain_step(model, gain, P[k], dt) for k in range(steps)]
    mmse, info, sensor = np.zeros(trials), np.zeros(trials), np.zeros(trials)
    for trial in range(trials):
        z = whole_horizon_normals(cfg.seed, trial, steps, n)
        e = np.zeros(n)
        for k in range(steps + 1):
            ce = C @ e
            if k >= burn_start:
                mmse[trial] += e @ e
                info[trial] += ce @ ce
            if k == steps:
                break
            sensor[trial] += ce @ ce
            Phi, W = steps_k[k]
            lam, V = np.linalg.eigh(0.5 * (W + W.T))
            e = Phi @ e + V @ (np.sqrt(np.maximum(lam, 0.0)) * z[k])
    included = steps + 1 - burn_start
    return mmse / included, 0.5 * info / included, 0.5 * dt * sensor, P


def _count_exponentials(monkeypatch):
    """Spy on ``validate._error_step``: the list holds the number of
    node exponentials formed so far."""
    formed = [0]
    error_step = validate._error_step

    def spy(A, BBt, CtC, P, dt):
        formed[0] += len(P)
        return error_step(A, BBt, CtC, P, dt)

    monkeypatch.setattr(validate, "_error_step", spy)
    return formed


def _check_blocked_pass(monkeypatch, horizon):
    """Run the blocked pass with full-size blocks, then with 7-step blocks
    each in a slab of its own, against the per-step loop at 1e-12
    relative; returns the step count and the node exponentials formed by
    each run."""
    gain = SensorGain(C=np.array([[1.0, 0.5], [0.0, 2.0]]))
    cfg = SimConfig(dt=1e-2, horizon=horizon, trials=5, seed=13)
    mmse, info, sensor, P = _per_step_pass(_NON_NORMAL, gain, cfg)
    se = lambda v: v.std(ddof=1) / np.sqrt(v.size)  # noqa: E731
    close = lambda value: pytest.approx(value, rel=1e-12, abs=0.0)  # noqa: E731
    det = 0.5 * cfg.dt * float(np.einsum("kij,ij->", P[:-1], gain.C.T @ gain.C))

    formed = []
    for block, slab in ((validate._BLOCK, validate._SLAB), (7, 1)):
        monkeypatch.setattr(validate, "_BLOCK", block)
        monkeypatch.setattr(validate, "_SLAB", slab)
        count = _count_exponentials(monkeypatch)
        result = simulate(_NON_NORMAL, gain, cfg)
        formed.append(count[0])
        assert result.mmse_rate_hat == close(mmse.mean())
        assert result.mmse_rate_stderr == close(se(mmse))
        assert result.info_rate_hat == close(info.mean())
        assert result.info_rate_stderr == close(se(info))
        duncan = result.duncan
        assert duncan.mc_integral == close(sensor.mean())
        assert duncan.mc_stderr == close(se(sensor))
        assert duncan.det_integral == close(det)
        assert duncan.difference == pytest.approx(
            abs(sensor.mean() - det), rel=0.0, abs=1e-12 * det
        )
        assert duncan.tolerance == close(
            3.0 * se(sensor) + 10.0 * cfg.dt * max(cfg.horizon, det)
        )
    return len(P) - 1, formed


def test_blocked_pass_matches_per_step_loop(monkeypatch):
    # 700 steps: two full blocks of the time loop and a partial one, with
    # the burn-in boundary (node 350) inside the second; the flow's last 7
    # nodes lie within round-off of its end.  1,000 steps: the flow
    # settles near node 722, inside the third block, and the nodes after
    # it share one exponential.
    for horizon in (7.0, 10.0):
        steps, formed = _check_blocked_pass(monkeypatch, horizon)
        assert all(0 < count < steps for count in formed)


def test_blocked_pass_matches_per_step_loop_before_the_flow_settles(monkeypatch):
    # 100 steps: no node settles, so each gets its own exponential.
    steps, formed = _check_blocked_pass(monkeypatch, 1.0)
    assert formed == [steps, steps]


def test_settled_flow_shares_one_exponential(monkeypatch):
    # The scalar config at D = 0.25 (a = -1, b = 1, c^2 = 8): from P_0 = 0
    # the flow is P_t = 1/4 - (3/8) e^{-6t} / (1 + e^{-6t}/2), so it comes
    # within 8 ulps of its limit 1/4 at t* = ln(3/8 / (2 eps)) / 6, about
    # 5.73.  Nodes before t* dt^-1 need exponentials of their own; those
    # after share one, give or take the few nodes where round-off hovers
    # at the threshold.
    model, params = load_problem(str(REPO / "bench" / "inputs" / "scalar.json"))
    gain = design_sensor(model, 0.25, params.tolerances).C
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=2, seed=1)
    formed = _count_exponentials(monkeypatch)
    simulate(model, gain, cfg)
    eps = np.finfo(float).eps
    settle_node = np.log(0.375 / (2.0 * eps)) / 6.0 / cfg.dt
    assert settle_node - 64 < formed[0] < settle_node + 64  # of 20,000 steps


@pytest.mark.parametrize(("c", "dt"), [(1.0, 0.05), (1000.0, 0.02)], ids=["mild", "stiff"])
def test_error_step_solves_the_held_gain_error_equation(c, dt):
    # Phi and Cov w of the kernel at node 40 against dPhi/ds = F Phi and
    # dW/ds = F W + W F^T + B B^T + K K^T, F = A - K C with K = P_40 C^T,
    # integrated over one step.
    model, gain = _NON_NORMAL, SensorGain(C=c * np.array([[1.0, 0.5], [0.0, 0.3]]))
    A, BBt, CtC = model.A, model.B @ model.B.T, gain.C.T @ gain.C
    P0 = integrate_rde(model, gain, dt=dt, t_max=40 * dt).values[40]
    F, Q = A - P0 @ CtC, BBt + P0 @ CtC @ P0
    rate = np.abs(np.linalg.eigvals(F)).max() * dt
    assert (rate >= 10.0) == (c > 1.0)

    def rhs(_, y):
        Phi, W = y[:4].reshape(2, 2), y[4:].reshape(2, 2)
        return np.concatenate([(F @ Phi).ravel(), (F @ W + W @ F.T + Q).ravel()])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(rhs, (0.0, dt), y0, method="Radau", rtol=1e-11, atol=1e-14)
    Phi, W = sol.y[:4, -1].reshape(2, 2), sol.y[4:, -1].reshape(2, 2)
    assert np.abs(Phi - Phi.T).max() > 1e-3 * np.abs(Phi).max()

    PhiT, root_T = validate._error_step(A, BBt, CtC, P0[None], dt)
    np.testing.assert_allclose(PhiT[0].T, Phi, rtol=1e-8, atol=1e-8 * np.abs(Phi).max())
    np.testing.assert_allclose(
        root_T[0].T @ root_T[0], W, rtol=1e-8, atol=1e-8 * np.abs(W).max()
    )


def test_duncan_check_fails_on_a_wrong_flow(monkeypatch):
    # The flow's nodes set the gain and the deterministic side; the
    # sampled error answers to A, B and C alone.  A flow integrated with
    # B B^T scaled by 2.25 must fail the identity that the true one passes.
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=3)
    assert simulate(CANONICAL, CANONICAL_GAIN, cfg).duncan.passed

    def wrong_flow(model, gain, **kwargs):
        return integrate_rde(SystemModel(A=model.A, B=1.5 * model.B), gain, **kwargs)

    monkeypatch.setattr(validate, "integrate_rde", wrong_flow)
    report = simulate(CANONICAL, CANONICAL_GAIN, cfg).duncan
    assert not report.passed
    assert report.difference > 3.0 * report.tolerance


def test_duncan_scalar_and_two_state():
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=3)
    report = simulate(CANONICAL, CANONICAL_GAIN, cfg).duncan
    assert report.passed
    assert report.difference <= report.tolerance
    assert report.mc_stderr > 0.0

    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    report2 = simulate(model, SensorGain(C=np.eye(2)), cfg).duncan
    assert report2.passed


def test_duncan_zero_gain_trivial():
    cfg = SimConfig(dt=1e-2, horizon=1.0, trials=4, seed=0)
    report = simulate(CANONICAL, SensorGain(C=np.zeros((1, 1))), cfg).duncan
    assert report.mc_integral == 0.0
    assert report.det_integral == 0.0
    assert report.passed


def test_estimates_stable_under_dt_refinement():
    # Seed-averaged: halving dt moves the estimate by less than one
    # averaged standard error on the canonical case.
    diffs = []
    errs = []
    for seed in range(10):
        coarse = simulate(
            CANONICAL,
            CANONICAL_GAIN,
            SimConfig(dt=2e-3, horizon=10.0, trials=32, seed=seed),
        )
        fine = simulate(
            CANONICAL,
            CANONICAL_GAIN,
            SimConfig(dt=1e-3, horizon=10.0, trials=32, seed=seed),
        )
        diffs.append(fine.mmse_rate_hat - coarse.mmse_rate_hat)
        errs.append(max(fine.mmse_rate_stderr, coarse.mmse_rate_stderr))
    assert abs(np.mean(diffs)) <= np.mean(errs)
