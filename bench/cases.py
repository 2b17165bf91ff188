"""Layer cases: public functions called directly at fixed sizes.

These mirror the baseline table of the roadmap.  Each case reports the
median of a few calls; the n = 16 SDP solve, the 20k-step covariance flow
and the Monte Carlo pass are called once because one call already takes
about a second or more.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

import immse
from immse.riccati import integrate_rde, solve_care
from immse.sdp import build_sdp, solve
from immse.validate import SimConfig, simulate
from immse.zdsc import ZdscScheme, decode_and_measure

from workloads import INPUTS, SCALAR_D, curve_n16_model

SDP_SIZES = (1, 4, 8, 16)


def _median_time(fn, reps: int):
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _random_stable(seed: int, n: int) -> tuple[immse.SystemModel, float]:
    """A = M / sqrt(n) - 1.5 I, B = I, and a budget of 0.1 x the open-loop trace."""
    doc = curve_n16_model(seed, n)
    return immse.SystemModel(np.array(doc["A"]), np.array(doc["B"])), doc["distortion"]["grid"][1]


def layer_cases(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    scalar = immse.SystemModel(np.array([[-1.0]]), np.array([[1.0]]))
    scalar_gain = immse.SensorGain(np.array([[np.sqrt(2.0 / SCALAR_D)]]))
    with open(os.path.join(INPUTS, "four_state.json"), encoding="utf-8") as fh:
        four = json.load(fh)
    models = {
        1: (scalar, SCALAR_D),
        4: (immse.SystemModel(np.array(four["A"]), np.array(four["B"])),
            four["distortion"]["grid"][1]),
        8: _random_stable(seed, 8),
        16: _random_stable(seed, 16),
    }
    model16 = models[16][0]

    F = model16.A
    W = np.eye(16)
    out["linalg.solve_lyapunov.n16_s"], _ = _median_time(
        lambda: immse.solve_lyapunov(F, W), 5
    )
    for n in SDP_SIZES:
        model, D = models[n]
        reps = 1 if n == 16 else 3
        seconds, sol = _median_time(lambda: solve(build_sdp(model, D)), reps)
        out[f"sdp.solve.n{n}_s"] = seconds
        out[f"sdp.newton_steps.n{n}"] = float(sol.iterations)
    gain16 = immse.SensorGain(np.eye(16))
    out["riccati.solve_care.n16_s"], _ = _median_time(lambda: solve_care(model16, gain16), 3)
    out["riccati.integrate_rde.n1_20k_s"], _ = _median_time(
        lambda: integrate_rde(scalar, scalar_gain, dt=1e-3, t_max=20.0), 1
    )
    out["model.check_controllable.n16_s"], _ = _median_time(
        lambda: immse.check_controllable(model16), 5
    )
    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=seed)
    out["validate.simulate.scalar64_s"], _ = _median_time(
        lambda: simulate(scalar, scalar_gain, cfg), 1
    )
    scheme = ZdscScheme(tau=0.1, delta=(4.0,), K=20, seed=seed)
    zcfg = SimConfig(dt=1e-3, horizon=2.0, trials=256, seed=seed)
    out["zdsc.decode_and_measure.scalar_rung_s"], _ = _median_time(
        lambda: decode_and_measure(scalar, scheme, zcfg), 3
    )
    return out
