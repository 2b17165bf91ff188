"""Monte Carlo sampling of the filter error, and the identity check."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import ndtri

from immse import validate, zdsc
from immse.design import design_sensor
from immse.errors import BlowupError, InputValidationError
from immse.model import SensorGain, SystemModel, load_problem
from immse.riccati import integrate_rde
from immse.validate import (
    BURN_IN_FRACTION,
    SimConfig,
    _noise_stream,
    simulate,
)
from immse.zdsc import ZdscScheme, measure_ladder

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


def drain(seed, trials, steps, width, block):
    """Every (k, len(z)) of one pass of the noise stream."""
    with _noise_stream(seed, trials, steps, width, block) as noise:
        return [(k, len(z)) for k, z in noise]


@pytest.mark.parametrize(
    ("width", "slab_blocks", "row_blocks", "steps", "starts"),
    [
        (width, blocks, None, 37, starts)
        for blocks, starts in ((3, range(0, 37, 5)), (7, (0, 15, 30)))
        for width in (1, 2, 3)
    ]
    + [
        (2, 7, 2, 37, (0, 10, 20, 30)),
        (2, 14, 6, 67, (0, 25, 50)),
        (2, 16, None, 37, (0, 15, 30)),
    ],
    ids=["1", "2", "3", "1-ring", "2-ring", "3-ring", "row", "even-split", "partial-block"],
)
def test_noise_blocks_match_whole_horizon_draw(
    monkeypatch, width, slab_blocks, row_blocks, steps, starts
):
    # 5-step blocks of three trials, the last block partial.  Three blocks
    # in flight make a ring of two one-block slabs, and seven a ring of
    # two 3-block slabs over 37 steps (15, 15 and a partial 7), the third
    # slab written over the first.  Each width enters a stream at a draw
    # that is not a multiple of 4 (5, 15 or 30 words times width).  With
    # a _ROW of two blocks, _ROW binds before _SLAB: four 2-block slabs.
    # With one of six blocks over 67 steps (14 blocks), the even split
    # makes slabs of 5, 5 and 4 blocks where 6-block slabs would leave a
    # 7-step third.  With sixteen blocks in flight, a slab is still half
    # the horizon's seven whole blocks, 15 steps, not half its eight
    # blocks counting the partial one.  The slabs are filled with 1, 2 and
    # 5 forced cores, with thread switches forced often.
    trials, block = 3, 5
    monkeypatch.setattr(validate, "_SLAB", slab_blocks * block * trials * width)
    if row_blocks is not None:
        monkeypatch.setattr(validate, "_ROW", row_blocks * block * width)
    want = np.stack(
        [whole_horizon_normals(12, trial, steps, width) for trial in range(trials)], axis=1
    )
    fill = validate._fill_trials
    offsets = set()

    def spy(rows, seed, first, offset, local):
        offsets.add(offset)
        fill(rows, seed, first, offset, local)

    monkeypatch.setattr(validate, "_fill_trials", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(validate, "_core_count", lambda: workers)
            offsets.clear()
            got = []
            with _noise_stream(12, trials, steps, width, block) as noise:
                for k, z in noise:
                    got.append((k, z.copy()))
                    z *= 0.5  # as measure_ladder scales each block in place
            assert sorted(offsets) == [lo * width for lo in starts], workers
            assert [k for k, _ in got] == list(range(0, steps, block)), workers
            lengths = [min(block, steps - k) for k in range(0, steps, block)]
            assert [len(z) for _, z in got] == lengths, workers
            assert np.array_equal(np.concatenate([z for _, z in got]), want), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    ("plan", "want", "halved_steps"),
    [
        ((64, 20_000, 1, 256), [2048] * 9 + [1568], 8192),
        ((256, 2_000, 2, 16), [672, 672, 656], 992),
    ],
    ids=["validate-scalar", "four-state"],
)
def test_noise_slabs_hold_a_row_per_trial(monkeypatch, plan, want, halved_steps):
    # The benchmark's two Monte Carlo plans, (trials, steps, width, block):
    # validate's at D = 0.25 and the four-state ladder's.  Each slab holds
    # the fewest whole blocks that give a trial 2,048 doubles, split
    # evenly over the horizon; none is shorter than half the longest, nor
    # longer than the slabs of half the whole blocks in flight (8,192 and
    # 992 steps, which left the ladder a last slab of one 16-step block),
    # and the ring stays within _SLAB doubles.
    trials, steps, width, block = plan
    fill = validate._fill_trials
    slabs = Counter()
    lengths = {}

    def spy(rows, seed, first, offset, local):
        assert rows.base.size <= validate._SLAB
        slabs[offset] += len(rows)
        lengths[offset] = rows.shape[1]
        fill(rows, seed, first, offset, local)

    monkeypatch.setattr(validate, "_fill_trials", spy)
    drain(1, trials, steps, width, block)
    got = [(slabs[offset], lengths[offset]) for offset in sorted(slabs)]
    assert got == [(trials, length) for length in want]
    assert 2 * min(want) >= max(want) and max(want) <= halved_steps


# Four trials of 5-step blocks at width 1 with two forced cores: four
# blocks in flight make a ring of two 2-block slabs, each cut into four
# one-trial ranges, filled by the caller and one worker.
_RING = 4 * 5 * 4


def _count_filled_ranges(monkeypatch):
    """Spy on _fill_trials; returns filled(offset), which waits up to 5 s
    for all four ranges of the slab at raw word ``offset`` and tells
    whether they were filled."""
    fill = validate._fill_trials
    done = Counter()
    changed = threading.Condition()

    def spy(rows, seed, first, offset, local):
        fill(rows, seed, first, offset, local)
        with changed:
            done[offset] += 1
            changed.notify_all()

    monkeypatch.setattr(validate, "_fill_trials", spy)

    def filled(offset):
        with changed:
            return changed.wait_for(lambda: done[offset] == 4, timeout=5.0)

    return filled


def test_noise_blocks_fill_the_next_slab_ahead(monkeypatch):
    # The first slab fills once the stream is opened, before the caller
    # asks for a block; while the caller holds each block of a slab, the
    # worker fills all of the next slab, before the caller asks for it.
    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_SLAB", _RING)
    filled = _count_filled_ranges(monkeypatch)
    seen = []
    with _noise_stream(5, 4, 40, 1, 5) as noise:
        assert filled(0)
        for k, _ in noise:
            lo = k // 10 * 10
            if lo + 10 < 40:
                assert filled(lo + 10), k
            seen.append(k)
    assert seen == list(range(0, 40, 5))


def test_noise_blocks_never_write_a_held_block(monkeypatch):
    # Each block is copied as it arrives, and compared once the worker
    # has filled the next slab of the ring, and again after the caller's
    # own scaling: no thread writes into the block the caller holds.
    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_SLAB", _RING)
    filled = _count_filled_ranges(monkeypatch)
    want = np.stack([whole_horizon_normals(5, trial, 40, 1) for trial in range(4)], axis=1)
    with _noise_stream(5, 4, 40, 1, 5) as noise:
        for k, z in noise:
            held = z.copy()
            if k // 10 * 10 + 10 < 40:
                assert filled(k // 10 * 10 + 10), k
            assert np.array_equal(z, held), k
            assert np.array_equal(z, want[k : k + 5]), k
            z *= 0.5


def test_noise_blocks_raise_a_workers_exception(monkeypatch):
    # The worker fails every range it fills of the second slab, which it
    # fills while the caller holds the first.  The caller still gets the
    # first slab's two blocks, then the worker's exception when it asks
    # for the third; every thread has been joined.
    caller = threading.current_thread()
    fill = validate._fill_trials
    failed = threading.Event()

    def failing(rows, seed, first, offset, local):
        if offset == 10 and threading.current_thread() is not caller:
            failed.set()
            raise ZeroDivisionError(f"range from trial {first} at word {offset}")
        fill(rows, seed, first, offset, local)

    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_SLAB", _RING)
    monkeypatch.setattr(validate, "_fill_trials", failing)
    threads = threading.active_count()
    with _noise_stream(5, 4, 40, 1, 5) as noise:
        blocks = iter(noise)
        assert [next(blocks)[0], next(blocks)[0]] == [0, 5]
        assert failed.wait(5.0)
        with pytest.raises(ZeroDivisionError, match="at word 10"):
            next(blocks)
    assert threading.active_count() == threads


def test_noise_blocks_raise_the_calling_threads_exception(monkeypatch):
    # The worker holds the first range until the caller has failed the
    # last one, which no worker has started: the caller's exception
    # leaves, and the worker has been joined.
    caller = threading.current_thread()
    fill = validate._fill_trials
    released = threading.Event()

    def failing(rows, seed, first, offset, local):
        if threading.current_thread() is caller:
            released.set()
            raise ZeroDivisionError("the caller's range")
        assert released.wait(5.0)
        fill(rows, seed, first, offset, local)

    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_fill_trials", failing)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="the caller's range"):
        drain(5, 4, 20, 1, 5)
    assert threading.active_count() == threads


def test_noise_blocks_closed_after_the_first_block_leave_no_thread(monkeypatch):
    # Four slabs of one 5-step block each, filled by two forced workers;
    # the caller stops after the first block and leaves the stream.
    # While the caller holds the block, the pass's one pool keeps its one
    # idle worker for the slabs to come.
    monkeypatch.setattr(validate, "_core_count", lambda: 2)
    monkeypatch.setattr(validate, "_SLAB", 5 * 4)
    threads = threading.active_count()
    with _noise_stream(5, 4, 20, 1, 5) as noise:
        k, z = next(iter(noise))
        assert k == 0 and z.shape == (5, 4, 1)
        assert threading.active_count() == threads + 1
    assert threading.active_count() == threads


def test_noise_blocks_fill_every_slab_on_one_pool(monkeypatch):
    # 40 steps over eight one-block slabs, then over four 2-block slabs of
    # a ring, with three forced cores: each slab's four ranges are filled
    # once, by the caller or by the two workers of one pool, opened once
    # for the pass and joined at its end.
    caller = threading.current_thread()
    fill = validate._fill_trials
    filled = []

    def spy(rows, seed, first, offset, local):
        filled.append((first, offset, threading.current_thread()))
        fill(rows, seed, first, offset, local)

    monkeypatch.setattr(validate, "_core_count", lambda: 3)
    monkeypatch.setattr(validate, "_fill_trials", spy)
    threads = threading.active_count()
    for slab, span in ((5 * 4, 5), (_RING, 10)):
        monkeypatch.setattr(validate, "_SLAB", slab)
        filled.clear()
        assert len(drain(5, 4, 40, 1, 5)) == 8
        want = [(a, lo) for a in range(4) for lo in range(0, 40, span)]
        assert sorted(f[:2] for f in filled) == want, span
        assert len({thread for *_, thread in filled} - {caller}) <= 2, span
        assert threading.active_count() == threads, span


def test_noise_blocks_keep_one_generator_per_thread(monkeypatch):
    # Eight one-block slabs of four one-trial ranges each, on three
    # forced cores, with thread switches forced often: each filling
    # thread builds one Philox generator for the pass, however many
    # ranges it fills, and the noise is the whole-horizon draw's.
    want = np.stack([whole_horizon_normals(5, trial, 40, 1) for trial in range(4)], axis=1)
    generator = np.random.Generator
    built = Counter()

    def counting(bits):
        built[threading.current_thread()] += 1
        return generator(bits)

    monkeypatch.setattr(validate, "_core_count", lambda: 3)
    monkeypatch.setattr(validate, "_SLAB", 5 * 4)
    monkeypatch.setattr(np.random, "Generator", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            built.clear()
            with _noise_stream(5, 4, 40, 1, 5) as noise:
                got = np.concatenate([z.copy() for _, z in noise])
            assert np.array_equal(got, want)
            assert built and max(built.values()) == 1, built
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("steps", [10, 40], ids=["one-slab", "four-slabs"])
def test_noise_blocks_keep_no_generator_per_trial(monkeypatch, steps):
    # 20,000 trials of 10 steps fit one 1.6 MB slab, here over one or four
    # slabs; a generator kept per trial would add about 12 MB.  A short
    # draw first, so that the lazy import is not counted.
    monkeypatch.setattr(validate, "_SLAB", 20_000 * 10)
    drain(1, 2, 10, 1, 10)
    tracemalloc.start()
    try:
        drain(1, 20_000, steps, 1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 20_000 * 10 * 8


# The two passes that open a noise stream, each with the call that starts
# its set-up: (module, name of the call, the pass).
_PASSES = {
    "simulate": (
        validate,
        "integrate_rde",
        lambda: simulate(
            CANONICAL, CANONICAL_GAIN, SimConfig(dt=1e-2, horizon=2.0, trials=8, seed=3)
        ),
    ),
    "measure_ladder": (
        zdsc,
        "van_loan",
        lambda: measure_ladder(
            CANONICAL,
            [ZdscScheme(tau=0.1, delta=(2.0,), K=20, seed=3)],
            SimConfig(dt=1e-2, horizon=2.0, trials=8, seed=3),
        ),
    ),
}


def _after_a_fill_began(monkeypatch, call):
    """``call``, run only once a _fill_trials call has begun: it waits up
    to 5 s for one, without sleeping, and fails if none began."""
    fill = validate._fill_trials
    began = threading.Condition()
    fills = []

    def spy(*job):
        with began:
            fills.append(threading.current_thread())
            began.notify_all()
        fill(*job)

    def held(*args, **kwargs):
        with began:
            assert began.wait_for(lambda: fills, timeout=5.0), "no noise began to fill"
        return call(*args, **kwargs)

    monkeypatch.setattr(validate, "_fill_trials", spy)
    return held


@pytest.mark.parametrize("case", sorted(_PASSES))
def test_noise_fills_while_the_pass_sets_up(monkeypatch, case):
    # The stream opens before the pass's set-up (the covariance flow, or
    # the decoder's Van Loan exponentials and gain recursion), so its
    # first slab fills on the pool while the set-up runs: the held call
    # returns only once a range of noise has begun to fill.
    module, name, run = _PASSES[case]
    want = run()
    monkeypatch.setattr(module, name, _after_a_fill_began(monkeypatch, getattr(module, name)))
    assert run() == want


@pytest.mark.parametrize("case", sorted(_PASSES))
def test_an_error_in_set_up_leaves_no_noise_thread(monkeypatch, case):
    # The set-up call fails once the stream is open and filling: its
    # error leaves the pass unchanged, and every worker has been joined.
    module, name, run = _PASSES[case]
    error = BlowupError(f"{name} failed inside the open stream")

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, _after_a_fill_began(monkeypatch, failing))
    threads = threading.active_count()
    with pytest.raises(BlowupError) as caught:
        run()
    assert caught.value is error
    assert threading.active_count() == threads


def test_simulate_holds_no_whole_horizon_temporary_at_n8():
    # n = 8, 4 trials, dt = 1e-3 over 20 s: the flow P is 20,001 x 8 x 8
    # doubles (10.24 MB), and the bound allows 5.12 MB of noise, all
    # 20,000 steps, where the ring holds two 256-step slabs (131 kB).
    # The noise is drawn into the slabs in place, so beside them stand
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
    # 1 normal = 10.24 MB; the ring of two 2,048-step slabs is 2.1 MB.  A short run
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
_NON_NORMAL_GAIN = SensorGain(C=np.array([[1.0, 0.5], [0.0, 2.0]]))


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


def _spy_chunk_maps(monkeypatch):
    """Spy on ``validate._chunk_maps``: the list holds a copy of the
    one-step maps G of each call, (chunks, s, 2n, n)."""
    calls = []
    chunk_maps = validate._chunk_maps

    def spy(G):
        calls.append(np.array(G))
        return chunk_maps(G)

    monkeypatch.setattr(validate, "_chunk_maps", spy)
    return calls


def _check_blocked_pass(
    monkeypatch, horizon, chunks=(validate._CHUNK,), model=_NON_NORMAL, gain=_NON_NORMAL_GAIN
):
    """Run the blocked pass with full-size blocks, then with 7-step blocks
    each in a slab of its own, against the per-step loop at 1e-12
    relative, once per chunk width in ``chunks`` (a chunk is
    max(1, width // n) steps); returns the step count and the node
    exponentials formed by each run."""
    cfg = SimConfig(dt=1e-2, horizon=horizon, trials=5, seed=13)
    mmse, info, sensor, P = _per_step_pass(model, gain, cfg)
    se = lambda v: v.std(ddof=1) / np.sqrt(v.size)  # noqa: E731
    close = lambda value: pytest.approx(value, rel=1e-12, abs=0.0)  # noqa: E731
    det = 0.5 * cfg.dt * float(np.einsum("kij,ij->", P[:-1], gain.C.T @ gain.C))

    formed = []
    for chunk in chunks:
        monkeypatch.setattr(validate, "_CHUNK", chunk)
        for block, slab in ((validate._BLOCK, validate._SLAB), (7, 1)):
            monkeypatch.setattr(validate, "_BLOCK", block)
            monkeypatch.setattr(validate, "_SLAB", slab)
            count = _count_exponentials(monkeypatch)
            result = simulate(model, gain, cfg)
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


def test_chunked_pass_matches_per_step_loop(monkeypatch):
    # n = 2, so widths 2, 6 and 24 make chunks of 1, 3 and 12 steps: one
    # step per product; chunks that divide neither a 7-step block nor a
    # 256-step one, so each block ends in a short chunk; and chunks longer
    # than a 7-step block.  At 1,000 steps node 723 is the flow's last
    # moving node and 720-722 have settled, so with 3- and 12-step chunks
    # the flow settles inside a chunk in both block layouts: the chunk
    # holding node 723 starts at 721 or, for 12-step chunks in 256-step
    # blocks, at 716.
    steps, formed = _check_blocked_pass(monkeypatch, 10.0, chunks=(2, 6, 24))
    assert all(0 < count < steps for count in formed)


def test_chunked_pass_matches_per_step_loop_on_a_flow_that_leaves_its_end(monkeypatch):
    # A flow at its last node but for eight nodes 1.5 times it, scattered
    # through the blocks: a block that holds one of them composes all its
    # chunks, the settled ones from the settled step.  The per-step loop
    # runs on the same flow.
    P = integrate_rde(_NON_NORMAL, _NON_NORMAL_GAIN, dt=1e-2, t_max=10.0).values
    flow = np.repeat(P[-1:], len(P), axis=0)
    moving = [3, 40, 41, 300, 301, 302, 517, 700]
    flow[moving] *= 1.5
    fake = lambda *args, **kwargs: SimpleNamespace(values=flow)  # noqa: E731
    monkeypatch.setattr(validate, "integrate_rde", fake)
    monkeypatch.setitem(globals(), "integrate_rde", fake)
    _, formed = _check_blocked_pass(monkeypatch, 10.0, chunks=(2, 6, 24))
    assert formed == [len(moving) + 1] * 6


def test_chunked_pass_matches_per_step_loop_on_the_scalar_model(monkeypatch):
    # n = 1 at the default width: 16-step chunks, 16 to a full block, and
    # one short chunk per 7-step block; the flow settles near node 573.
    assert validate._CHUNK == 16
    steps, formed = _check_blocked_pass(
        monkeypatch, 10.0, model=CANONICAL, gain=CANONICAL_GAIN
    )
    assert all(0 < count < steps for count in formed)


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


def test_settled_blocks_compose_no_chunk_map(monkeypatch):
    # The scalar config at D = 0.25: 16-step chunks, 79 blocks and no
    # short chunk.  Blocks of settled nodes take the settled map, composed
    # once; only blocks that hold a moving node (or a short chunk) compose
    # their own.
    model, params = load_problem(str(REPO / "bench" / "inputs" / "scalar.json"))
    gain = design_sensor(model, 0.25, params.tolerances).C
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=2, seed=1)
    calls = _spy_chunk_maps(monkeypatch)
    simulate(model, gain, cfg)
    P = integrate_rde(model, gain, dt=cfg.dt, t_max=cfg.horizon).values
    settle = validate._SETTLED_ULPS * np.finfo(float).eps * np.abs(P[-1]).max()
    moving = np.abs(P[:-1] - P[-1]).max(axis=(1, 2)) > settle
    s, steps = validate._CHUNK, len(P) - 1
    blocks = [(k, min(k + validate._BLOCK, steps)) for k in range(0, steps, validate._BLOCK)]
    composing = sum(bool(moving[a:b].any() or (b - a) % s) for a, b in blocks)
    assert len(calls) == composing + 1 < len(blocks) // 2
    assert sum(len(G) == 1 for G in calls) == 1  # the settled map: one chunk


# n = 9: a non-normal source whose flow settles at node 584 of 1,000 at
# dt = 1e-2, so chunks are single steps at the default width.
_NINE = SystemModel(A=-np.eye(9) + 0.5 * np.eye(9, k=1), B=np.eye(9))
_NINE_GAIN = SensorGain(C=3.0 * (np.eye(9) + 0.2 * np.eye(9, k=-1)))


def test_single_step_chunks_match_per_step_loop(monkeypatch):
    # At the default widths a chunk is one step.  The 256-step run
    # composes blocks 0 and 1, then, as the flow settles in block 2, the
    # settled map and block 2, whose settled steps hold G_last beside its
    # moving ones; block 3 composes nothing.  The 7-step run follows.
    assert validate._CHUNK // _NINE.n == 1
    calls = _spy_chunk_maps(monkeypatch)
    steps, formed = _check_blocked_pass(monkeypatch, 10.0, model=_NINE, gain=_NINE_GAIN)
    assert all(0 < count < steps for count in formed)
    assert [len(G) for G in calls[:5]] == [256, 256, 1, 256, 7]
    G_last = calls[2][0, 0]
    held = [int(np.all(G == G_last, axis=(-2, -1)).sum()) for G in calls[:4]]
    assert held[:3] == [0, 0, 1] and 0 < held[3] < 256


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
