"""Monte Carlo verification of the filtering identities.

Samples the error of the causal filter whose gain P_t C^T comes from the
covariance flow, exactly for the gain held over each step, from the error
equation's own coefficients; then compares empirical error statistics
against the deterministic flow: the time-integral identity (half the
integrated squared sensor-weighted error equals the integral of
Tr(C P_t C^T)/2) and the stationary rate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError
from .linalg import symmetrize, van_loan
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
    "SimResult",
    "DuncanReport",
    "simulate",
]

_BLOCK = 256  # time steps per block of the Monte Carlo loop
_SLAB = 2**20  # doubles of noise drawn at once, in whole blocks
# Stationary averages leave out this leading fraction of the horizon.
BURN_IN_FRACTION = 0.5
_U53 = float(2**53)


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


def _noise_blocks(seed: int, trials: int, steps: int, width: int, block: int):
    """Unit normals z of every trial, ``block`` steps at a time.

    Yields (k, z), z of shape (count, trials, width) for steps
    k .. k + count - 1, valid until the next block is asked for; the
    caller may scale it in place.  The (seed, trial) pair indexes a
    dedicated Philox key, so trials are reproducible independently of
    scheduling; z comes from the inverse CDF on the strict interior of
    (0, 1).  The normals are drawn into one slab of whole blocks and about
    ``_SLAB`` doubles, each trial's generator continuing from slab to
    slab, so no array spans the horizon.
    """
    from scipy.special import ndtri  # here: it would slow `import immse` by ~0.2 s

    key = seed & 0xFFFFFFFFFFFFFFFF
    span = min(steps, max(1, _SLAB // (block * trials * width)) * block)
    slab = np.empty((span, trials, width))
    streams = (np.random.Generator(np.random.Philox(key=(t << 64) | key)) for t in range(trials))
    if span < steps:
        # Kept for the next slab only if there is one: a generator holds
        # about 1 kB, more than a single-slab trial's share of the noise.
        streams = list(streams)
    for lo in range(0, steps, span):
        count = min(span, steps - lo)
        for trial, stream in enumerate(streams):
            raw = stream.integers(0, 2**53, count * width)
            slab[:count, trial] = ndtri((raw + 0.5) / _U53).reshape(count, width)
        for j in range(0, count, block):
            yield lo + j, slab[j : min(j + block, count)]


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def _error_step(A, BBt, CtC, P, dt):
    """Exact one-step transition of the filter error for stacked nodes.

    With the gain K = P C^T held over the step, the error obeys
    dE = (A - K C) E dt + B dW - K dV, whose exact discretization
    (:func:`van_loan`) is E' = Phi E + w, Cov w = W.  Returns Phi^T and
    root^T, with root root^T = W by ``eigh``: a row e of the error steps
    to e Phi^T + z root^T for a row z of unit normals.  W is an integral
    of positive semidefinite terms, so its negative eigenvalues are
    round-off and are clipped.
    """
    PCtC = P @ CtC
    Phi, W = van_loan(A - PCtC, BBt + PCtC @ P, dt)
    lam, V = np.linalg.eigh(symmetrize(W))
    root = V * np.sqrt(np.maximum(lam, 0.0))[..., None, :]
    return Phi.swapaxes(-1, -2), root.swapaxes(-1, -2)


def simulate(
    model: SystemModel,
    gain: SensorGain,
    cfg: SimConfig,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SimResult:
    """Stationary rates and the information-identity check, one pass.

    All trials advance in lockstep on the error E = X - Xhat of the filter
    whose gain K_k = P_k C^T comes from the covariance flow on the same
    grid (P_0 = 0, :func:`integrate_rde`) and is held over each step.  E
    is sampled exactly for that gain, for any dt, from the coefficients of
    dE = (A - K_k C) E dt + B dW - K_k dV alone: E_{k+1} = Phi_k E_k + w_k
    with Phi_k and Cov w_k from one Van Loan exponential of the closed
    loop A - K_k C and the diffusion B B^T + K_k K_k^T.  The flow's
    nodes set only the gain, so Cov E_k tracks P_k only as far as the flow
    solves the Riccati equation: at a stationary P the two agree exactly,
    and in the transient the held gain leaves an O(dt) difference.  Time
    runs in blocks of ``_BLOCK`` steps, on n unit normals per step
    streamed per slab of whole blocks (``_noise_blocks``): per block, the
    exponentials and noise square roots (``_error_step``) of every step
    are formed in batch, a loop of one product and one sum per step
    advances E, and the statistics are then read off the block's nodes.
    Time-averages run over t in [BURN_IN_FRACTION * horizon, horizon] and
    across trials; the standard errors are across-trial.  ``.duncan``
    compares half the integrated squared sensor-weighted error over the
    whole horizon (Monte Carlo) with the same quadrature of
    Tr(C P_t C^T)/2 on the identical grid; it passes within 3 standard
    errors plus 10 dt max(horizon, |det|).  Output is a deterministic
    function of the config.  An undetectable pair is rejected up front:
    its filter error diverges, and the covariance flow can stay under its
    norm guard for the whole horizon while doing so.  ``tol`` sets the
    detectability test's ``eig_tol`` and the covariance flow's PSD check.
    """
    if not check_detectable(model, gain, tol.eig_tol):
        raise InputValidationError(
            "(A, C) must be a detectable pair: an unstable mode is invisible "
            "to the sensor and the filter error diverges"
        )
    C = gain.C
    n, trials, dt = model.n, cfg.trials, cfg.dt
    A, BBt, CtC = model.A, model.B @ model.B.T, C.T @ C

    P = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon, tol=tol).values
    steps = len(P) - 1
    block = min(_BLOCK, steps)
    E = np.zeros((block + 1, trials, n))  # row-vector states; row j holds node k + j

    burn_start = int(np.ceil(BURN_IN_FRACTION * steps - 1e-9))
    mmse_acc = np.zeros(trials)
    info_acc = np.zeros(trials)
    sensor_acc = np.zeros(trials)

    for k, z in _noise_blocks(cfg.seed, trials, steps, n, block):
        count = len(z)
        PhiT, root_T = _error_step(A, BBt, CtC, P[k : k + count], dt)
        w = z @ root_T
        for j in range(count):
            np.add(E[j] @ PhiT[j], w[j], out=E[j + 1])

        # Statistics of nodes k + 1 .. k + count; node 0 has E = 0.
        nodes = E[1 : count + 1]
        CE = nodes @ C.T
        sq_sensor = np.einsum("kti,kti->kt", CE, CE)
        sensor_acc += sq_sensor[: steps - 1 - k].sum(axis=0)  # left rule: nodes < steps
        burned = max(burn_start - 1 - k, 0)
        mmse_acc += np.einsum("kti,kti->t", nodes[burned:], nodes[burned:])
        info_acc += sq_sensor[burned:].sum(axis=0)
        E[0] = E[count]

    included = steps + 1 - burn_start
    mmse_hat, mmse_se = _mean_stderr(mmse_acc / included)
    info_hat, info_se = _mean_stderr(0.5 * info_acc / included)
    # Left rule over [0, horizon) on both sides of the identity.
    mc_integral, mc_stderr = _mean_stderr(0.5 * dt * sensor_acc)
    det_integral = 0.5 * float(np.einsum("kij,ij->", P[:-1], C.T @ C) * dt)
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
    return SimResult(
        mmse_rate_hat=mmse_hat,
        mmse_rate_stderr=mmse_se,
        info_rate_hat=info_hat,
        info_rate_stderr=info_se,
        duncan=duncan,
    )
