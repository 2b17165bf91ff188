"""Monte Carlo co-simulation of source and filter, and the identity check."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from immse import validate
from immse.errors import BlowupError, InputValidationError
from immse.model import SensorGain, SystemModel
from immse.riccati import integrate_rde
from immse.validate import (
    BURN_IN_FRACTION,
    SimConfig,
    _noise_blocks,
    dump_paths,
    simulate,
)

CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
CANONICAL_GAIN = SensorGain(C=np.array([[2.0 * np.sqrt(2.0)]]))


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
    # that is not a multiple of 4 (15 * width or 30 * width).
    trials, steps, block, dt = 3, 37, 5, 0.01
    monkeypatch.setattr(validate, "_SLAB", 3 * block * trials * width)
    want = np.sqrt(dt) * np.stack(
        [whole_horizon_normals(12, trial, steps, width) for trial in range(trials)], axis=1
    )
    got = [(k, dW.copy()) for k, dW in _noise_blocks(12, trials, steps, width, block, dt)]
    assert [k for k, _ in got] == list(range(0, steps, block))
    assert [len(dW) for _, dW in got] == [5] * 7 + [2]
    assert np.array_equal(np.concatenate([dW for _, dW in got]), want)


def test_simulate_holds_no_whole_horizon_noise():
    # The noise of the whole horizon would be 20,000 steps x 64 trials x
    # 2 normals = 20.48 MB; the streamed slab is 8.4 MB.  A short run
    # first, so that the lazy imports are not counted.
    simulate(CANONICAL, CANONICAL_GAIN, SimConfig(dt=1e-2, horizon=1.0, trials=2, seed=3))
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=3)
    tracemalloc.start()
    try:
        simulate(CANONICAL, CANONICAL_GAIN, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000 * 64 * 2 * 8


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
    # The gate can be bypassed for debugging; the guard then reports the
    # genuine divergence.
    with pytest.raises(BlowupError):
        simulate(
            unstable,
            SensorGain(C=np.zeros((1, 1))),
            SimConfig(dt=1e-3, horizon=40.0, trials=2, seed=0),
            check_detectability=False,
        )


def test_guard_watches_the_source_state():
    # Detectable but explosive: the filter error stays bounded while X
    # itself passes the guard (near t = 10.5), which must still trip.
    model = SystemModel(A=np.array([[2.0]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-3, horizon=12.0, trials=2, seed=0)
    # The trip falls at node 10476, inside a block of the time loop.
    with pytest.raises(BlowupError, match=r"norm guard at t = 10\.476$"):
        simulate(model, SensorGain(C=np.array([[3.0]])), cfg)


def test_guard_names_first_node_when_a_block_overflows():
    # F = 1 + a dt = 31: X passes the guard at node 6 and overflows later in
    # the same block; the guard still names node 6, with no overflow warning.
    model = SystemModel(A=np.array([[3000.0]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-2, horizon=10.0, trials=2, seed=0)
    with pytest.raises(BlowupError, match=r"norm guard at t = 0\.06$"):
        simulate(model, SensorGain(C=np.array([[1e4]])), cfg)


def test_kept_paths_match_direct_co_simulation(monkeypatch):
    # Reference: source, observation path and filter stepped side by
    # side by Euler-Maruyama on the same draws and the same P_k.
    model = SystemModel(
        A=np.array([[0.0, 1.0], [-1.0, -0.5]]), B=np.array([[0.3], [1.1]])
    )
    gain = SensorGain(C=np.array([[1.0, 0.5], [0.0, 2.0]]))
    cfg = SimConfig(dt=1e-2, horizon=0.4, trials=3, seed=11)

    A, B, C = model.A, model.B, gain.C
    dt, n, m = cfg.dt, model.n, model.m
    P = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon).values
    steps = len(P) - 1
    X = np.zeros((cfg.trials, steps + 1, n))
    Xhat = np.zeros_like(X)
    Y = np.zeros_like(X)
    for trial in range(cfg.trials):
        z = whole_horizon_normals(cfg.seed, trial, steps, m + n)
        for k in range(steps):
            x, xhat = X[trial, k], Xhat[trial, k]
            dY = C @ x * dt + np.sqrt(dt) * z[k, m:]
            X[trial, k + 1] = x + A @ x * dt + np.sqrt(dt) * (B @ z[k, :m])
            Xhat[trial, k + 1] = xhat + A @ xhat * dt + P[k] @ C.T @ (dY - C @ xhat * dt)
            Y[trial, k + 1] = Y[trial, k] + dY

    # The 40 steps run as one block, then in six slabs of one 7-step block.
    for block, slab in ((validate._BLOCK, validate._SLAB), (7, 1)):
        monkeypatch.setattr(validate, "_BLOCK", block)
        monkeypatch.setattr(validate, "_SLAB", slab)
        result = simulate(model, gain, cfg, keep_paths=True)
        assert result.paths.X.shape == (cfg.trials, steps + 1, n)
        for got, want in ((result.paths.X, X), (result.paths.Xhat, Xhat), (result.paths.Y, Y)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert dataclasses.astuple(result.duncan) == dataclasses.astuple(
            simulate(model, gain, cfg).duncan
        )


def _per_step_pass(model, gain, cfg):
    """The filter-error pass one Euler-Maruyama step at a time: returns
    the per-trial MMSE, information and Duncan sums and the kept paths."""
    A, B, C = model.A, model.B, gain.C
    n, m, dt, trials = model.n, model.m, cfg.dt, cfg.trials
    P = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon).values
    steps = len(P) - 1
    CP = np.einsum("ij,kjl->kil", C, P)
    noise = np.stack(
        [whole_horizon_normals(cfg.seed, trial, steps, m + n) for trial in range(trials)],
        axis=1,
    ) * np.sqrt(dt)
    F = np.eye(n) + A.T * dt
    burn_start = int(np.ceil(BURN_IN_FRACTION * steps - 1e-9))
    X, E, Y = np.zeros((trials, n)), np.zeros((trials, n)), np.zeros((trials, n))
    mmse, info, sensor = np.zeros(trials), np.zeros(trials), np.zeros(trials)
    paths = np.zeros((3, trials, steps + 1, n))
    for k in range(steps + 1):
        CE = E @ C.T
        if k >= burn_start:
            mmse += (E * E).sum(axis=1)
            info += (CE * CE).sum(axis=1)
        paths[:, :, k] = X, X - E, Y
        if k == steps:
            break
        sensor += (CE * CE).sum(axis=1)
        dV = noise[k, :, m:]
        drive = noise[k, :, :m] @ B.T
        Y = Y + (X @ C.T) * dt + dV
        X = X @ F + drive
        E = E @ F + drive - (CE * dt + dV) @ CP[k]
    included = steps + 1 - burn_start
    return mmse / included, 0.5 * info / included, 0.5 * dt * sensor, P, paths


def test_blocked_pass_matches_per_step_loop(monkeypatch):
    # 700 steps: two full blocks of the time loop and a partial one, with
    # the burn-in boundary (node 350) inside the second.
    model = SystemModel(
        A=np.array([[0.0, 1.0], [-1.0, -0.5]]), B=np.array([[0.3], [1.1]])
    )
    gain = SensorGain(C=np.array([[1.0, 0.5], [0.0, 2.0]]))
    cfg = SimConfig(dt=1e-2, horizon=7.0, trials=5, seed=13)
    mmse, info, sensor, P, paths = _per_step_pass(model, gain, cfg)
    se = lambda v: v.std(ddof=1) / np.sqrt(v.size)  # noqa: E731
    close = lambda value: pytest.approx(value, rel=1e-12, abs=0.0)  # noqa: E731
    det = 0.5 * cfg.dt * float(np.einsum("kij,ij->", P[:-1], gain.C.T @ gain.C))

    # The noise comes in one slab, then in one slab per block.
    for slab in (validate._SLAB, 1):
        monkeypatch.setattr(validate, "_SLAB", slab)
        result = simulate(model, gain, cfg, keep_paths=True)
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
        for got, want in zip((result.paths.X, result.paths.Xhat, result.paths.Y), paths):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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


def test_dump_paths_layout(tmp_path):
    cfg = SimConfig(dt=1e-2, horizon=0.5, trials=3, seed=1)
    result = simulate(CANONICAL, CANONICAL_GAIN, cfg, keep_paths=True)
    files = dump_paths(result.paths, str(tmp_path))
    assert len(files) == 3
    table = np.loadtxt(files[0], delimiter=",", skiprows=1)
    assert table.shape == (51, 4)  # t, x, xhat, y
    header = open(files[0]).readline().strip()
    assert header == "t,x_1,xhat_1,y_1"
    assert table[0, 1:] == pytest.approx([0.0, 0.0, 0.0])  # everything starts at 0
    assert np.all(np.isfinite(table))
