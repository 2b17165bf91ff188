"""Acceptance gate: one test per stated criterion, at stated tolerances.

Every test prints a single PASS/FAIL line with the measured quantities
(visible with ``pytest -v -s`` or on failure) and then asserts it, so the
suite's verdict per criterion is readable at a glance.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from immse.cli import main
from immse.design import design_sensor, sweep_curve
from immse.linalg import solve_lyapunov
from immse.model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SystemModel,
    check_controllable,
)
from immse.riccati import integrate_rde
from immse.sdp import build_sdp, solve
from immse.validate import SimConfig, simulate
from immse.zdsc import ZdscScheme, decode_and_measure, estimate_rate

CANONICAL = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
CANONICAL_GAIN = SensorGain(C=np.array([[2.0 * np.sqrt(2.0)]]))


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _scalar_rate(a: float, b: float, D: float) -> float:
    """Hand-derived scalar trade-off: budget binds or saturates at zero."""
    if a < 0 and D >= b * b / (-2.0 * a):
        return 0.0
    return a + b * b / (2.0 * D)


def test_criterion_1_scalar_oracle_suite():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = 0.0
        while a == 0.0:
            a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.1, 3.0))
        D = float(rng.uniform(0.05, 5.0))
        model = SystemModel(A=np.array([[a]]), B=np.array([[b]]))
        sol = solve(build_sdp(model, D))
        worst = max(worst, abs(sol.objective - _scalar_rate(a, b, D)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _verdict(
        "criterion-1 scalar-oracles",
        ok,
        f"200 instances, max |R_sdp - R_analytic| = {worst:.3e} (tol 1e-06), "
        f"elapsed {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_sdp_are_consistency():
    rng = np.random.default_rng(515)
    t0 = time.perf_counter()
    worst_res = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        model = SystemModel(A=A, B=B)
        if not check_controllable(model):
            continue
        D = float(rng.uniform(0.2, 1.0)) * n
        # design_sensor cross-checks |Tr(P_care) - Tr(P_sdp)| <= 1e-5 and the
        # rate identity internally; it raises on violation.
        point = design_sensor(model, D)
        worst_res = max(worst_res, point.are_residual)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-7 and elapsed <= 120.0
    _verdict(
        "criterion-2 sdp-are-consistency",
        ok,
        f"100 instances n in 1..5, max ARE residual = {worst_res:.3e} "
        f"(tol 1e-07), detectability certified on every point, trace "
        f"cross-check enforced at 1e-05, elapsed {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_curve_shape_and_saturation():
    slack = 10.0 * DEFAULT_TOLERANCES.gap_tol
    models = [
        (CANONICAL, (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5)),
        (
            SystemModel(
                A=np.array([[-1.0, 0.3], [0.0, -2.0]]),
                B=np.array([[1.0, 0.0], [0.2, 0.7]]),
            ),
            (0.1, 0.2, 0.35, 0.55, 0.8, 1.2),
        ),
    ]
    worst_mono = -np.inf
    worst_convex = -np.inf
    worst_sat = 0.0
    for model, grid in models:
        curve = sweep_curve(model, grid)
        rates = [p.R for p in curve]
        D = list(grid)
        for r1, r2 in zip(rates, rates[1:]):
            worst_mono = max(worst_mono, r2 - r1)
        for i in range(1, len(D) - 1):
            lam = (D[i + 1] - D[i]) / (D[i + 1] - D[i - 1])
            chord = lam * rates[i - 1] + (1.0 - lam) * rates[i + 1]
            worst_convex = max(worst_convex, rates[i] - chord)
        trace_ol = float(np.trace(solve_lyapunov(model.A, model.B @ model.B.T)))
        for point in curve:
            if point.D >= trace_ol:
                worst_sat = max(worst_sat, point.R)
    ok = (
        worst_mono <= slack
        and worst_convex <= slack
        and worst_sat <= DEFAULT_TOLERANCES.gap_tol
    )
    _verdict(
        "criterion-3 curve-shape",
        ok,
        f"monotonicity excess {worst_mono:.3e} and convexity excess "
        f"{worst_convex:.3e} (slack {slack:.1e}); saturated rate "
        f"{worst_sat:.3e} (tol {DEFAULT_TOLERANCES.gap_tol:.1e}) for D >= Tr(P_ol)",
    )


def test_criterion_4_duncan_identity():
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=12)
    scalar = simulate(CANONICAL, CANONICAL_GAIN, cfg).duncan
    pair = simulate(
        SystemModel(A=-np.eye(2), B=np.eye(2)), SensorGain(C=np.eye(2)), cfg
    ).duncan
    elapsed = time.perf_counter() - t0
    ok = scalar.passed and pair.passed and elapsed <= 60.0
    _verdict(
        "criterion-4 duncan-identity",
        ok,
        f"scalar |mc - det| = {scalar.difference:.4f} <= {scalar.tolerance:.4f}; "
        f"n=2 |mc - det| = {pair.difference:.4f} <= {pair.tolerance:.4f} "
        f"(3 stderr + discretization); elapsed {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_stationary_rate_recovery():
    point = design_sensor(CANONICAL, 0.25)
    cfg = SimConfig(dt=1e-3, horizon=50.0, trials=64, seed=7)
    result = simulate(CANONICAL, point.C, cfg)
    mmse_err = abs(result.mmse_rate_hat - 0.25)
    info_err = abs(result.info_rate_hat - 1.0)
    ok = (
        mmse_err <= 3.0 * result.mmse_rate_stderr
        and info_err <= 3.0 * result.info_rate_stderr
    )
    _verdict(
        "criterion-5 stationary-rates",
        ok,
        f"mmse {result.mmse_rate_hat:.4f} (|err| = {mmse_err:.4f} <= "
        f"{3 * result.mmse_rate_stderr:.4f}); info {result.info_rate_hat:.4f} "
        f"(|err| = {info_err:.4f} <= {3 * result.info_rate_stderr:.4f})",
    )


def test_criterion_6_integrator_order():
    lim1 = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=1e-3, t_max=20.0).values[-1]
    lim2 = integrate_rde(CANONICAL, CANONICAL_GAIN, dt=5e-4, t_max=20.0).values[-1]
    change = float(np.linalg.norm(lim1 - lim2))
    ok = change <= 1e-8
    _verdict(
        "criterion-6 integrator-order",
        ok,
        f"halving dt moves the converged limit by {change:.3e} (tol 1e-08)",
    )


def test_criterion_7_zdsc_harness():
    # The codeword rule is tested on the coder's own output in
    # test_zdsc.py::test_ladder_codewords_floor_the_scaled_state.
    # Plug-in entropy on synthetic uniform distributions.
    s1 = ZdscScheme(tau=1.0, delta=(1.0,), K=1)
    ent_ok = all(
        estimate_rate(
            np.array([[[i]] for i in range(c) for _ in range(5)], dtype=np.int64), s1
        )
        == pytest.approx(np.log(c), rel=1e-12)
        for c in (2, 3, 4, 6)
    )
    # Full report with R(distortion_hat) evaluated through the design
    # pipeline.  The gap is REPORTED; its sign is an open conjecture and
    # is deliberately never asserted.
    cfg = SimConfig(dt=1e-3, horizon=2.0, trials=256, seed=5)
    res = decode_and_measure(
        CANONICAL, ZdscScheme(tau=0.1, delta=(4.0,), K=20, seed=5), cfg
    )
    point = design_sensor(CANONICAL, res.distortion_hat)
    report_ok = (
        res.rate_hat > 0.0
        and np.isfinite(res.distortion_hat)
        and res.distortion_hat > 0.0
        and np.isfinite(point.R)
    )
    ok = ent_ok and report_ok
    _verdict(
        "criterion-7 zdsc-harness",
        ok,
        f"uniform entropy exact: {ent_ok}; report rate = {res.rate_hat:.3f} "
        f"nats/time at distortion = {res.distortion_hat:.4f}, R(distortion) = {point.R:.3f}, gap = "
        f"{res.rate_hat - point.R:.3f} (reported only, bound direction unverified)",
    )


def test_criterion_8_output_determinism(tmp_path):
    doc = {
        "A": [[-1.0]],
        "B": [[1.0]],
        "distortion": {"grid": [0.2, 0.4]},
        "sim": {"dt": 1e-3, "horizon": 1.0, "trials": 16, "seed": 3},
        "zdsc": {"tau": 0.1, "delta": [4.0, 8.0], "horizon": 0.5, "trials": 32},
    }
    config = tmp_path / "det.json"
    config.write_text(json.dumps(doc))

    def stripped(path):
        return [
            l for l in path.read_text().splitlines() if not l.startswith("# generated:")
        ]

    curve = tmp_path / "curve.csv"
    argv = ["rd-curve", str(config), "--out", str(curve)]
    assert main(argv) == 0
    first = stripped(curve)
    assert main(argv) == 0
    curve_ok = stripped(curve) == first

    zcsv = tmp_path / "z.csv"
    argv = ["zdsc", str(config), "--out", str(zcsv)]
    assert main(argv) == 0
    zfirst = stripped(zcsv)
    assert main(argv) == 0
    zdsc_ok = stripped(zcsv) == zfirst

    ok = curve_ok and zdsc_ok
    _verdict(
        "criterion-8 determinism",
        ok,
        f"rd-curve rerun byte-identical modulo '# generated:' line: {curve_ok}; "
        f"zdsc rerun byte-identical modulo the same line: {zdsc_ok}",
    )
