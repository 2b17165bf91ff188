"""Validate the designed sensor by simulating the filtering loop.

Two Monte Carlo checks back the deterministic pipeline.  First, the
pathwise identity: the accumulated mutual information between source
and observation equals half the integrated filtering error, so the two
integrals must agree within statistical error on simulated paths.
Second, stationarity: long-horizon time averages of the squared error
and the information flux must recover the designed distortion and rate.
"""

import numpy as np

from immse import SimConfig, SystemModel, design_sensor, simulate


def main() -> None:
    model = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
    point = design_sensor(model, 0.25)
    print(f"designed sensor at D = 0.25: C = {point.C.C[0, 0]:.6f}, R = {point.R:.6f}")

    cfg = SimConfig(dt=1e-3, horizon=20.0, trials=64, seed=12)
    report = simulate(model, point.C, cfg).duncan
    print()
    print("pathwise information identity (no burn-in, full horizon):")
    print(f"  Monte Carlo integral   = {report.mc_integral:.4f}")
    print(f"  deterministic integral = {report.det_integral:.4f}")
    print(f"  |difference| = {report.difference:.4f} <= tolerance {report.tolerance:.4f}")
    print(f"  passed = {report.passed}")

    cfg_long = SimConfig(dt=1e-3, horizon=50.0, trials=64, seed=7)
    result = simulate(model, point.C, cfg_long)
    print()
    print("stationary averages over [burn, T] with burn = 0.5 T:")
    print(
        f"  mmse rate = {result.mmse_rate_hat:.4f} +- {result.mmse_rate_stderr:.4f}"
        f"   (design target 0.25)"
    )
    print(
        f"  info rate = {result.info_rate_hat:.4f} +- {result.info_rate_stderr:.4f}"
        f"   (design target {point.R:.4f})"
    )
    ok_mmse = abs(result.mmse_rate_hat - 0.25) <= 3 * result.mmse_rate_stderr
    ok_info = abs(result.info_rate_hat - point.R) <= 3 * result.info_rate_stderr
    print(f"  within 3 standard errors: mmse = {ok_mmse}, info = {ok_info}")


if __name__ == "__main__":
    main()
