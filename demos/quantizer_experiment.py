"""Measure a causal sample-and-quantize coder against the trade-off curve.

The coder samples the source every tau seconds, sends the integer cell
index floor(delta * x) per coordinate, and the decoder tracks the state
from the dequantized samples with a Gaussian-matched filter.  Its
empirical (rate, distortion) point is compared with R(distortion): the
gap column says how far the scheme sits from the information-theoretic
curve.  Whether that gap must be nonnegative for every such scheme is an
open question, so the sign is reported, never asserted.
"""

import numpy as np

from immse import SimConfig, SystemModel, ZdscScheme, design_sensor, measure_ladder


def main() -> None:
    model = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
    cfg = SimConfig(dt=1e-3, horizon=2.0, trials=512, seed=11)
    tau, K = 0.1, 20

    print(f"scalar source, tau = {tau}, horizon = {K * tau}, trials = {cfg.trials}")
    print(f"{'delta':>7} {'rate_hat':>10} {'distortion':>11} {'R(dist)':>9} {'gap':>8}")
    deltas = (2.0, 4.0, 8.0, 16.0)
    # One coder pass measures every rung: they share the noise and the source path.
    ladder = [ZdscScheme(tau=tau, delta=(delta,), K=K, seed=11) for delta in deltas]
    for delta, res in zip(deltas, measure_ladder(model, ladder, cfg)):
        point = design_sensor(model, res.distortion_hat)
        gap = res.rate_hat - point.R
        print(
            f"{delta:7.1f} {res.rate_hat:10.4f} {res.distortion_hat:11.5f}"
            f" {point.R:9.4f} {gap:8.3f}"
        )
    print()
    print("finer cells (larger delta) buy lower distortion at higher rate;")
    print("the gap to R(distortion) is reported with no claim on its sign.")


if __name__ == "__main__":
    main()
