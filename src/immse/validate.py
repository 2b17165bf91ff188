"""Monte Carlo verification of the filtering identities.

Simulates the source and the causal filter's error in one Euler-Maruyama
pass, then compares empirical error statistics against the deterministic
covariance flow: the time-integral identity (half the integrated squared
sensor-weighted error equals the integral of Tr(C P_t C^T)/2) and the
stationary rate pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, InputValidationError
from .model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SimConfig,
    SystemModel,
    Tolerances,
    check_detectable,
)
from .riccati import integrate_rde

__all__ = [
    "SimConfig",
    "SimPaths",
    "SimResult",
    "DuncanReport",
    "simulate",
    "dump_paths",
]

_STATE_GUARD = 1e9
_BLOCK = 256  # time steps per block of the Monte Carlo loop
_SLAB = 2**20  # doubles of noise drawn at once, in whole blocks
# Stationary averages leave out this leading fraction of the horizon.
BURN_IN_FRACTION = 0.5
_U53 = float(2**53)


@dataclass(frozen=True)
class SimPaths:
    """Retained sample paths, one leading axis entry per trial."""

    times: np.ndarray
    X: np.ndarray
    Xhat: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class DuncanReport:
    """Two evaluations of the same time integral and their tolerance."""

    mc_integral: float
    mc_stderr: float
    det_integral: float
    difference: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SimResult:
    """Stationary-rate estimates with across-trial standard errors."""

    mmse_rate_hat: float
    mmse_rate_stderr: float
    info_rate_hat: float
    info_rate_stderr: float
    duncan: DuncanReport
    paths: SimPaths | None = None


def _noise_blocks(seed: int, trials: int, steps: int, width: int, block: int, dt: float):
    """Brownian increments sqrt(dt) z of every trial, ``block`` steps at a time.

    Yields (k, dW), dW of shape (count, trials, width) for steps
    k .. k + count - 1, valid until the next block is asked for.  The
    (seed, trial) pair indexes a dedicated Philox key, so trials are
    reproducible independently of scheduling; z comes from the inverse CDF
    on the strict interior of (0, 1).  The normals are drawn into one slab
    of whole blocks and about ``_SLAB`` doubles: the counter-based
    generator enters each stream at the slab's first step with the same
    bits, so no array spans the horizon.
    """
    from scipy.special import ndtri  # here: it would slow `import immse` by ~0.2 s

    span = min(steps, max(1, _SLAB // (block * trials * width)) * block)
    slab = np.empty((span, trials, width))
    for lo in range(0, steps, span):
        count, skip = min(span, steps - lo), lo * width
        for trial in range(trials):
            bits = np.random.Philox(key=(trial << 64) | (seed & 0xFFFFFFFFFFFFFFFF))
            bits.advance(skip // 4)  # one counter step makes four draws
            raw = np.random.Generator(bits).integers(0, 2**53, skip % 4 + count * width)
            slab[:count, trial] = ndtri((raw[skip % 4 :] + 0.5) / _U53).reshape(count, width)
        slab[:count] *= np.sqrt(dt)
        for j in range(0, count, block):
            yield lo + j, slab[j : min(j + block, count)]


def _guard(peak: np.ndarray, k: int, dt: float, what: str) -> None:
    """Raise BlowupError naming the first node k + 1 + j with peak[j] past the guard (NaN too)."""
    within = peak <= _STATE_GUARD
    if not within.all():
        t = (k + 1 + int(within.argmin())) * dt
        raise BlowupError(f"{what} exceeded the norm guard at t = {t:.6g}")


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def simulate(
    model: SystemModel,
    gain: SensorGain,
    cfg: SimConfig,
    tol: Tolerances = DEFAULT_TOLERANCES,
    keep_paths: bool = False,
    check_detectability: bool = True,
) -> SimResult:
    """Stationary rates and the information-identity check, one pass.

    All trials advance in lockstep by Euler-Maruyama on X and on the error
    E = X - Xhat of the filter with gain P_t C^T from the covariance flow
    on the same grid (P_0 = 0): the innovation dY - C Xhat dt is
    C E dt + dV, so E <- E (I + (A - P_k C^T C) dt) + B dW - P_k C^T dV.
    X is stepped for the norm guard, which watches X and Xhat = X - E,
    and for kept paths.  Time runs in blocks of ``_BLOCK`` steps, on noise
    streamed per slab of whole blocks (``_noise_blocks``): per block, the
    noise terms and the step matrices of every step are formed in batch,
    a loop of one product and one sum per step advances the
    stacked state [X, E], and the statistics, the guard (which names the
    first node past it) and the kept paths are then read off the block's
    nodes.  Time-averages run over t in [BURN_IN_FRACTION * horizon,
    horizon] and across trials; the standard errors are across-trial.
    ``.duncan`` compares half the integrated squared sensor-weighted
    error over the whole horizon (Monte Carlo) with the same quadrature of
    Tr(C P_t C^T)/2 on the identical grid; it passes within 3 standard
    errors plus an O(dt)-discretization allowance.  Output is a
    deterministic function of the config.  An undetectable pair is
    rejected up front unless ``check_detectability`` is disabled, in which
    case the run is allowed to diverge and the blow-up guard reports it.
    ``tol`` sets the detectability test's ``eig_tol`` and the covariance
    flow's PSD check.
    """
    if check_detectability and not check_detectable(model, gain, tol.eig_tol):
        raise InputValidationError(
            "(A, C) must be a detectable pair: an unstable mode is invisible "
            "to the sensor and the filter error diverges"
        )
    A, B, C = model.A, model.B, gain.C
    n, m = model.n, model.m
    trials = cfg.trials
    dt = cfg.dt

    traj = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon, tol=tol)
    steps = len(traj.times) - 1
    # Filter gain per node, arranged for row-vector states: the update
    # term is nu @ (C P_k) for innovation rows nu.
    CP = np.einsum("ij,kjl->kil", C, traj.values)

    # Row-vector state Z = [X, E] steps as Z <- Z S_k + [drive_k, w_k] with
    # S_k = diag(F, F - dt C^T C P_k), F = I + A^T dt, drive_k = dW_k B^T
    # and w_k = drive_k - dV_k C P_k.
    F = np.eye(n) + A.T * dt
    block = min(_BLOCK, steps)
    S = np.zeros((block, 2 * n, 2 * n))
    S[:, :n, :n] = F
    u = np.empty((block, trials, 2 * n))
    Z = np.zeros((block + 1, trials, 2 * n))  # row j holds node k + j

    burn_start = int(np.ceil(BURN_IN_FRACTION * steps - 1e-9))
    mmse_acc = np.zeros(trials)
    info_acc = np.zeros(trials)
    sensor_acc = np.zeros(trials)
    if keep_paths:
        X_hist = np.zeros((trials, steps + 1, n))
        Xhat_hist = np.zeros((trials, steps + 1, n))
        Y_hist = np.zeros((trials, steps + 1, n))

    for k, noise in _noise_blocks(cfg.seed, trials, steps, m + n, block, dt):
        count = len(noise)
        dV = noise[:, :, m:]
        u[:count, :, :n] = noise[:, :, :m] @ B.T
        u[:count, :, n:] = u[:count, :, :n] - dV @ CP[k : k + count]
        S[:count, n:, n:] = F - (C.T * dt) @ CP[k : k + count]
        # A block may run past the guard; the guard below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(count):
                np.add(Z[j] @ S[j], u[j], out=Z[j + 1])
            X, E = Z[1 : count + 1, :, :n], Z[1 : count + 1, :, n:]
            peak = np.maximum(np.abs(X).max(axis=(1, 2)), np.abs(X - E).max(axis=(1, 2)))
        _guard(peak, k, dt, "simulated state")

        # Statistics of nodes k + 1 .. k + count; node 0 has E = 0.
        CE = E @ C.T
        sq_sensor = np.einsum("kti,kti->kt", CE, CE)
        sensor_acc += sq_sensor[: steps - 1 - k].sum(axis=0)  # left rule: nodes < steps
        burned = max(burn_start - 1 - k, 0)
        mmse_acc += np.einsum("kti,kti->t", E[burned:], E[burned:])
        info_acc += sq_sensor[burned:].sum(axis=0)
        if keep_paths:
            nodes = slice(k + 1, k + 1 + count)
            X_hist[:, nodes] = X.swapaxes(0, 1)
            Xhat_hist[:, nodes] = (X - E).swapaxes(0, 1)
            # Y_{k+1} = Y_k + X_k C^T dt + dV_k, summed from node k.
            dY = np.concatenate([Y_hist[:, k][None], Z[:count, :, :n] @ (C.T * dt) + dV])
            Y_hist[:, nodes] = np.cumsum(dY, axis=0)[1:].swapaxes(0, 1)
        Z[0] = Z[count]

    included = steps + 1 - burn_start
    mmse_hat, mmse_se = _mean_stderr(mmse_acc / included)
    info_hat, info_se = _mean_stderr(0.5 * info_acc / included)
    # Left rule over [0, horizon) on both sides of the identity.
    mc_integral, mc_stderr = _mean_stderr(0.5 * dt * sensor_acc)
    det_integral = 0.5 * float(np.einsum("kij,ij->", traj.values[:-1], C.T @ C) * dt)
    difference = abs(mc_integral - det_integral)
    tolerance = 3.0 * mc_stderr + 10.0 * dt * max(cfg.horizon, abs(det_integral))
    duncan = DuncanReport(
        mc_integral=mc_integral,
        mc_stderr=mc_stderr,
        det_integral=det_integral,
        difference=difference,
        tolerance=tolerance,
        passed=bool(difference <= tolerance),
    )
    paths = None
    if keep_paths:
        paths = SimPaths(times=traj.times.copy(), X=X_hist, Xhat=Xhat_hist, Y=Y_hist)
    return SimResult(
        mmse_rate_hat=mmse_hat,
        mmse_rate_stderr=mmse_se,
        info_rate_hat=info_hat,
        info_rate_stderr=info_se,
        duncan=duncan,
        paths=paths,
    )


def dump_paths(paths: SimPaths, directory: str) -> list[str]:
    """Write one CSV per trial, trial_NNNN.csv: t, x_1..x_n, xhat_1..xhat_n, y_1..y_n."""
    os.makedirs(directory, exist_ok=True)
    trials, _, n = paths.X.shape
    header = ",".join(
        ["t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"xhat_{i + 1}" for i in range(n)]
        + [f"y_{i + 1}" for i in range(n)]
    )
    written = []
    for trial in range(trials):
        table = np.column_stack(
            [paths.times, paths.X[trial], paths.Xhat[trial], paths.Y[trial]]
        )
        target = os.path.join(directory, f"trial_{trial:04d}.csv")
        np.savetxt(target, table, delimiter=",", header=header, comments="", fmt="%.17g")
        written.append(target)
    return written
