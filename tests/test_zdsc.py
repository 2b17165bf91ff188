"""Quantize-and-hold coding harness: encoder, entropy estimate, decoder."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg

from immse import validate, zdsc
from immse.errors import BlowupError, InputValidationError
from immse.linalg import van_loan
from immse.model import SystemModel
from immse.validate import SimConfig
from immse.zdsc import (
    ZdscScheme,
    decode_and_measure,
    encode,
    estimate_rate,
    measure_ladder,
)
from test_validate import whole_horizon_normals

CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))


def test_scheme_validation():
    with pytest.raises(InputValidationError):
        ZdscScheme(tau=0.0, delta=(1.0,), K=1)
    with pytest.raises(InputValidationError):
        ZdscScheme(tau=0.1, delta=(0.0,), K=1)
    with pytest.raises(InputValidationError):
        ZdscScheme(tau=0.1, delta=(1.0,), K=0)
    scheme = ZdscScheme(tau=0.1, delta=(1.0, 2.0), K=3)
    assert scheme.n == 2


@pytest.mark.parametrize("delta", [(1e20,), (2.0, 1e10), (1e-160,), (np.nan,), ()])
def test_scheme_rejects_gains_out_of_range(delta):
    with pytest.raises(InputValidationError, match="quantizer gain"):
        ZdscScheme(tau=0.1, delta=delta, K=1)


def test_encode_is_exact_at_the_guard_for_the_largest_gain():
    # 1e9 * 9.2e9 = 9.2e18 < 2^63: a state at the coder's guard still
    # floors to an exact int64 codeword.
    scheme = ZdscScheme(tau=0.1, delta=(9.2e9,), K=2)
    out = encode(np.array([[1e9], [-1e9]]), scheme)
    assert out.ravel().tolist() == [9_200_000_000_000_000_000, -9_200_000_000_000_000_000]


@pytest.mark.parametrize("x", [1e10, np.nan], ids=["past-guard", "nan"])
def test_encode_rejects_entries_past_the_guard(x):
    # 1e10 * 9.2e9 overflows int64 and NaN has no codeword: the cast
    # would warn and return a wrong codeword.
    scheme = ZdscScheme(tau=0.1, delta=(9.2e9,), K=1)
    with pytest.raises(InputValidationError, match="finite with"):
        encode(np.array([[x]]), scheme)


def test_encode_floor_hand_case():
    scheme = ZdscScheme(tau=0.5, delta=(2.0, 2.0), K=1)
    out = encode(np.array([[0.7, -0.3]]), scheme)
    assert out.dtype == np.int64
    assert np.array_equal(out, [[1, -1]])


def test_encode_zero_state_and_gain_proportionality():
    scheme = ZdscScheme(tau=0.5, delta=(4.0,), K=2)
    assert np.array_equal(encode(np.zeros((2, 1)), scheme), np.zeros((2, 1)))
    x = np.array([[0.26], [0.51]])
    coarse = encode(x, ZdscScheme(tau=0.5, delta=(4.0,), K=2))
    fine = encode(x, ZdscScheme(tau=0.5, delta=(400.0,), K=2))
    assert np.array_equal(coarse.ravel(), [1, 2])
    assert np.array_equal(fine.ravel(), [104, 204])


def test_encode_shape_check():
    scheme = ZdscScheme(tau=0.5, delta=(2.0,), K=3)
    with pytest.raises(InputValidationError):
        encode(np.zeros((2, 1)), scheme)


def test_entropy_constant_codeword_is_zero():
    scheme = ZdscScheme(tau=1.0, delta=(1.0,), K=2)
    words = np.tile(np.array([[3], [-1]], dtype=np.int64), (16, 1, 1))
    assert estimate_rate(words, scheme) == 0.0


def test_entropy_binary_and_uniform():
    scheme = ZdscScheme(tau=1.0, delta=(1.0,), K=1)
    two = np.array([[[0]], [[1]], [[0]], [[1]]], dtype=np.int64)
    assert estimate_rate(two, scheme) == pytest.approx(np.log(2.0), rel=1e-12)
    # Uniform c-ary with equal counts: plug-in entropy equals log c.
    for c in (2, 3, 4, 5):
        words = np.array([[[i]] for i in range(c) for _ in range(6)], dtype=np.int64)
        assert estimate_rate(words, scheme) == pytest.approx(np.log(c), rel=1e-12)


def test_entropy_rate_normalizes_by_horizon():
    # Two equiprobable symbols at one sample, deterministic elsewhere:
    # total entropy log 2 spread over K tau time units.
    scheme = ZdscScheme(tau=0.5, delta=(1.0,), K=2)
    words = np.zeros((8, 2, 1), dtype=np.int64)
    words[::2, 1, 0] = 1
    assert estimate_rate(words, scheme) == pytest.approx(np.log(2.0), rel=1e-12)


def test_entropy_single_trial_warns():
    scheme = ZdscScheme(tau=1.0, delta=(1.0,), K=1)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        value = estimate_rate(np.zeros((1, 1, 1), dtype=np.int64), scheme)
    assert value == 0.0
    assert len(rec) == 1


def test_entropy_shape_check():
    scheme = ZdscScheme(tau=1.0, delta=(1.0,), K=2)
    with pytest.raises(InputValidationError):
        estimate_rate(np.zeros((4, 3, 1), dtype=np.int64), scheme)


def test_decode_and_measure_scalar_smoke():
    cfg = SimConfig(dt=1e-3, horizon=2.0, trials=128, seed=2)
    scheme = ZdscScheme(tau=0.1, delta=(4.0,), K=20, seed=2)
    result = decode_and_measure(CANONICAL, scheme, cfg)
    assert result.rate_hat > 0.0
    assert result.distortion_hat > 0.0
    assert np.isfinite(result.rate_hat) and np.isfinite(result.distortion_hat)


def test_decode_and_measure_single_sample():
    cfg = SimConfig(dt=1e-2, horizon=0.2, trials=16, seed=0)
    result = decode_and_measure(CANONICAL, ZdscScheme(tau=0.2, delta=(2.0,), K=1, seed=0), cfg)
    assert np.isfinite(result.distortion_hat)


def test_decode_and_measure_deterministic():
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=32, seed=4)
    scheme = ZdscScheme(tau=0.1, delta=(4.0,), K=10, seed=4)
    a = decode_and_measure(CANONICAL, scheme, cfg)
    b = decode_and_measure(CANONICAL, scheme, cfg)
    assert a == b


def test_finer_quantizer_lowers_distortion_on_ladder():
    # Doubling ladder with common random numbers: distortion must trend
    # down as the quantizer refines (rate trends up).
    cfg = SimConfig(dt=1e-3, horizon=2.0, trials=256, seed=11)
    distortion = []
    rate = []
    for delta in (2.0, 4.0, 8.0, 16.0):
        res = decode_and_measure(
            CANONICAL, ZdscScheme(tau=0.1, delta=(delta,), K=20, seed=11), cfg
        )
        distortion.append(res.distortion_hat)
        rate.append(res.rate_hat)
    assert all(d2 < d1 for d1, d2 in zip(distortion, distortion[1:]))
    assert all(r2 > r1 for r1, r2 in zip(rate, rate[1:]))


def test_decode_and_measure_two_state():
    model = SystemModel(A=-np.eye(2), B=np.eye(2))
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=64, seed=6)
    scheme = ZdscScheme(tau=0.2, delta=(3.0, 5.0), K=5, seed=6)
    result = decode_and_measure(model, scheme, cfg)
    assert result.rate_hat > 0.0 and result.distortion_hat > 0.0


def test_decode_and_measure_dimension_mismatch():
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=4, seed=0)
    with pytest.raises(InputValidationError):
        decode_and_measure(CANONICAL, ZdscScheme(tau=0.1, delta=(1.0, 1.0), K=10), cfg)


FOUR_STATE = SystemModel(
    A=np.array(
        [[0.2, 1.0, 0.0, 0.0], [0.0, -1.0, 0.5, 0.0], [0.0, 0.0, -0.5, 1.0], [0.0, 0.0, -1.0, -0.5]]
    ),
    B=np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.0], [0.0, 1.0]]),
)


def _per_step_rung(model, scheme, cfg):
    """One rung decoded one fine step at a time: codewords and distortion.

    The source and the estimate advance together; the covariance runs
    ``stride`` fine steps of Phi S Phi^T + Q_step per sample interval,
    and the guard checks X and the estimate after every step.
    """
    n, m = model.n, model.m
    A, B = model.A, model.B
    delta = np.asarray(scheme.delta)
    stride = max(1, int(round(scheme.tau / cfg.dt)))
    dt = scheme.tau / stride
    steps = scheme.K * stride
    Phi, Q_step = van_loan(A, B @ B.T, dt)
    R_quant = np.diag(1.0 / (12.0 * delta**2))
    Sigma = np.zeros((n, n))
    gains = np.empty((scheme.K, n, n))
    for k in range(scheme.K):
        for _ in range(stride):
            Sigma = Phi @ Sigma @ Phi.T + Q_step
        gains[k] = np.linalg.solve((Sigma + R_quant).T, Sigma.T).T
        Sigma = (np.eye(n) - gains[k]) @ Sigma
        Sigma = 0.5 * (Sigma + Sigma.T)

    trials = cfg.trials
    noise = np.stack(
        [whole_horizon_normals(scheme.seed, trial, steps, m) for trial in range(trials)], axis=1
    )
    codewords = np.empty((trials, scheme.K, n), dtype=np.int64)
    X, Xhat = np.zeros((trials, n)), np.zeros((trials, n))
    sq_sum = 0.0
    for j in range(steps + 1):
        if j > 0 and j % stride == 0:
            k = j // stride - 1
            codewords[:, k] = np.floor(X * delta)
            Xhat = Xhat + ((codewords[:, k] + 0.5) / delta - Xhat) @ gains[k].T
        sq_sum += float(np.einsum("ti,ti->", X - Xhat, X - Xhat)) / trials
        if j == steps:
            break
        X = X + (X @ A.T) * dt + np.sqrt(dt) * (noise[j] @ B.T)
        Xhat = Xhat @ Phi.T
        if not np.all(np.isfinite(X)) or max(np.abs(X).max(), np.abs(Xhat).max()) > 1e9:
            raise BlowupError(
                f"decoding simulation exceeded the norm guard at t = {(j + 1) * dt:.6g}"
            )
    return codewords, sq_sum / (steps + 1)


def _recorded_codewords(monkeypatch):
    """Record the codewords each rung hands to the entropy estimate."""
    seen = []

    def recording(codewords, scheme):
        seen.append(codewords.copy())
        return estimate_rate(codewords, scheme)

    monkeypatch.setattr(zdsc, "estimate_rate", recording)
    return seen


@pytest.mark.parametrize(
    "model, tau, deltas, cfg",
    [
        (
            FOUR_STATE,
            0.1,
            [(1.0,) * 4, (2.0,) * 4, (4.0,) * 4],
            SimConfig(dt=1e-3, horizon=2.0, trials=96, seed=1),
        ),
        # 350 fine steps: not a whole number of blocks.
        (CANONICAL, 0.07, [(1.5,), (6.0,)], SimConfig(dt=1e-3, horizon=0.35, trials=200, seed=9)),
        # 10,000 fine steps: the noise comes in slabs of 4,192, 4,192 and
        # 1,616 steps.
        (CANONICAL, 0.5, [(3.0,)], SimConfig(dt=1e-4, horizon=1.0, trials=250, seed=4)),
    ],
    ids=["four-state", "scalar-partial-block", "scalar-three-slabs"],
)
def test_ladder_matches_per_step_loop(monkeypatch, model, tau, deltas, cfg):
    K = int(round(cfg.horizon / tau))
    ladder = [ZdscScheme(tau=tau, delta=d, K=K, seed=cfg.seed) for d in deltas]
    reference = [_per_step_rung(model, scheme, cfg) for scheme in ladder]
    # The noise comes in slabs of about 2^20 doubles, then of 2^16 (6, 2
    # and 40 slabs here, the last one partial).
    for slab in (validate._SLAB, 2**16):
        monkeypatch.setattr(validate, "_SLAB", slab)
        seen = _recorded_codewords(monkeypatch)
        results = measure_ladder(model, ladder, cfg)
        assert len(results) == len(ladder) == len(seen)
        for scheme, result, codewords, (ref_codewords, ref_distortion) in zip(
            ladder, results, seen, reference
        ):
            assert np.array_equal(codewords, ref_codewords)
            assert result.rate_hat == estimate_rate(ref_codewords, scheme)
            assert result.distortion_hat == pytest.approx(ref_distortion, rel=1e-12, abs=0.0)
    assert decode_and_measure(model, ladder[0], cfg) == measure_ladder(model, ladder[:1], cfg)[0]


@pytest.mark.parametrize(
    "other",
    [
        ZdscScheme(tau=0.2, delta=(2.0,), K=10, seed=3),
        ZdscScheme(tau=0.1, delta=(2.0,), K=11, seed=3),
        ZdscScheme(tau=0.1, delta=(2.0,), K=10, seed=4),
        ZdscScheme(tau=0.1, delta=(2.0, 2.0), K=10, seed=3),
    ],
    ids=["tau", "K", "seed", "n"],
)
def test_ladder_rejects_rungs_that_do_not_share_the_pass(other):
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=4, seed=3)
    first = ZdscScheme(tau=0.1, delta=(1.0,), K=10, seed=3)
    with pytest.raises(InputValidationError, match="scheme 1"):
        measure_ladder(CANONICAL, [first, other], cfg)


def test_empty_ladder_is_rejected():
    cfg = SimConfig(dt=1e-3, horizon=1.0, trials=4, seed=3)
    with pytest.raises(InputValidationError):
        measure_ladder(CANONICAL, [], cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(dt=1e-3, horizon=2.0, trials=4, seed=5),
        SimConfig(dt=1e-3, horizon=50.0, trials=4, seed=0),
        # 1,999 steps against K * stride = 20 * 100 = 2,000.
        SimConfig(dt=1e-3, horizon=1.999, trials=4, seed=0),
    ],
    ids=["seed", "horizon", "one-step-short"],
)
def test_ladder_rejects_a_plan_it_would_not_run(cfg):
    # The schemes' seed and K * tau drive the pass; a cfg that names
    # another seed or horizon would be silently ignored.
    scheme = ZdscScheme(tau=0.1, delta=(4.0,), K=20, seed=0)
    with pytest.raises(InputValidationError, match=f"seed {cfg.seed} and round"):
        measure_ladder(CANONICAL, [scheme], cfg)


@pytest.mark.parametrize("a", [8.0, -3000.0], ids=["unstable", "stiff"])
def test_guard_names_first_node(a):
    # The ladder names the earliest node at which either rung trips alone,
    # mid-block in each case.  The unstable source passes the guard near
    # t = 2.67.  On the stiff one the Euler step 1 + a dt = -2 makes X
    # diverge by t = 0.036, before the first sample, while the estimates
    # stay at zero.
    model = SystemModel(A=np.array([[a]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-3, horizon=4.0, trials=16, seed=2)
    ladder = [ZdscScheme(tau=0.1, delta=(d,), K=40, seed=2) for d in (0.5, 2.0)]
    trips = []
    for scheme in ladder:
        with pytest.raises(BlowupError) as ref:
            _per_step_rung(model, scheme, cfg)
        trips.append((float(str(ref.value).rsplit("= ", 1)[1]), str(ref.value)))
    t_first, message = min(trips)
    assert round(t_first / cfg.dt) % zdsc._BLOCK not in (0, 1)
    with pytest.raises(BlowupError) as new:
        measure_ladder(model, ladder, cfg)
    assert str(new.value) == message


def test_guard_trips_on_nan_estimate(monkeypatch):
    # A NaN in the fine-step propagator reaches the estimate at the first
    # node while the source stays finite.  A guard of the form
    # max(|X|, |Xhat|) > bound misses it: Python's max(1.0, nan) is 1.0.
    cfg = SimConfig(dt=1e-2, horizon=1.0, trials=8, seed=0)
    scheme = ZdscScheme(tau=0.1, delta=(2.0,), K=10)
    exact = scipy.linalg.expm

    def expm_nan_in_fine_step(M):
        out = exact(M)
        if M[0, 1] == cfg.dt:  # the Van Loan block of one fine step
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(scipy.linalg, "expm", expm_nan_in_fine_step)
    assert np.isnan(_per_step_rung(CANONICAL, scheme, cfg)[1])
    with pytest.raises(BlowupError, match=r"norm guard at t = 0\.01$"):
        decode_and_measure(CANONICAL, scheme, cfg)


def test_interval_map_matches_fine_steps():
    # One Van Loan exponential at tau against stride fine steps of
    # S <- Phi S Phi^T + Q_step, from rest and from a spread start.
    A, B = FOUR_STATE.A, FOUR_STATE.B
    tau, stride = 0.1, 100
    Phi, Q_step = van_loan(A, B @ B.T, tau / stride)
    Phi_tau, Q_tau = van_loan(A, B @ B.T, tau)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((4, 4))
    for start in (np.zeros((4, 4)), G @ G.T):
        fine = start
        for _ in range(stride):
            fine = Phi @ fine @ Phi.T + Q_step
        once = Phi_tau @ start @ Phi_tau.T + Q_tau
        assert np.abs(once - fine).max() <= 1e-12 * np.abs(fine).max()
