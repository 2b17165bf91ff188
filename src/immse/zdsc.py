"""Zero-delay quantize-and-hold coding experiment.

At every sample instant k*tau the encoder emits the integer vector
(m_k)_i = floor(Delta_i * (X_{k tau})_i); m_0 = 0 carries no information
since the source starts at zero.  The decoder here is an explicitly
approximate surrogate: midpoint dequantization treated as a Gaussian
measurement with the uniform-cell variance 1/(12 Delta_i^2), tracked by a
Kalman corrector between whose samples the state estimate follows the
noise-free moment flow.  Whatever (rate, distortion) pair the harness
measures is genuinely achieved by this causal decoder, which keeps the
comparison against the trade-off curve honest; no bound direction is
asserted anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, InputValidationError
from .model import SystemModel
from .validate import SimConfig, _trial_normals

__all__ = ["ZdscScheme", "ZdscResult", "encode", "estimate_rate", "decode_and_measure"]

_STATE_GUARD = 1e9
_DECODER_KIND = "midpoint-dequantize-gaussian-kalman"


@dataclass(frozen=True)
class ZdscScheme:
    """Sampling period, per-coordinate quantizer gains, sample count.

    Delta is a gain, not a step: cells have width 1/Delta_i, so larger
    Delta means finer quantization.
    """

    tau: float
    delta: tuple[float, ...]
    K: int
    seed: int = 0

    def __post_init__(self):
        problems = []
        if not (np.isfinite(self.tau) and self.tau > 0):
            problems.append(f"tau must be finite and > 0, got {self.tau}")
        delta = tuple(float(d) for d in np.atleast_1d(np.asarray(self.delta, dtype=float)))
        if not delta or any(not (np.isfinite(d) and d > 0) for d in delta):
            problems.append(f"every quantizer gain must be finite and > 0, got {self.delta}")
        if isinstance(self.K, bool) or not isinstance(self.K, int) or self.K < 1:
            problems.append(f"K must be an integer >= 1, got {self.K!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not (
            0 <= self.seed < 2**64
        ):
            problems.append(f"seed must be a 64-bit integer, got {self.seed!r}")
        if problems:
            raise InputValidationError(problems)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class ZdscResult:
    """Measured operating point of the scheme under the surrogate decoder."""

    rate_hat: float
    distortion_hat: float
    decoder_kind: str = _DECODER_KIND


def encode(path: np.ndarray, scheme: ZdscScheme) -> np.ndarray:
    """Integer codewords m_1..m_K for samples X_tau..X_{K tau}.

    ``path`` has shape (K, n) holding the state at the K sample
    instants (the known m_0 = 0 is not emitted).  Exact elementwise
    floor of Delta_i * x_i.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape != (scheme.K, scheme.n):
        raise InputValidationError(
            f"path must have shape ({scheme.K}, {scheme.n}), got {path.shape}"
        )
    return np.floor(path * np.asarray(scheme.delta)).astype(np.int64)


def estimate_rate(codewords: np.ndarray, scheme: ZdscScheme) -> float:
    """Plug-in entropy rate in nats/time.

    For each sample index k the empirical distribution of the integer
    vector across trials gives H_hat(m_k) = -sum p log p; the rate is
    sum_k H_hat(m_k) / (K tau).  A single trial cannot resolve any
    uncertainty, so it degenerates to 0 with a warning.
    """
    codewords = np.asarray(codewords)
    if codewords.ndim != 3 or codewords.shape[1:] != (scheme.K, scheme.n):
        raise InputValidationError(
            f"codewords must have shape (trials, {scheme.K}, {scheme.n}), "
            f"got {codewords.shape}"
        )
    trials = codewords.shape[0]
    if trials < 1:
        raise InputValidationError("at least one trial is required")
    if trials == 1:
        warnings.warn(
            "entropy estimate from a single trial is degenerate; returning 0",
            stacklevel=2,
        )
        return 0.0
    total = 0.0
    for k in range(scheme.K):
        _, counts = np.unique(codewords[:, k, :], axis=0, return_counts=True)
        p = counts / trials
        total += float(-(p * np.log(p)).sum())
    return total / (scheme.K * scheme.tau)


def decode_and_measure(
    model: SystemModel, scheme: ZdscScheme, cfg: SimConfig
) -> ZdscResult:
    """Run the scheme end to end and measure its operating point.

    The source is simulated by Euler-Maruyama on a fine grid commensurate
    with tau (cfg.dt is rounded to tau/stride); the decoder propagates
    first and second moments on the same grid and corrects at sample
    instants.  One Van Loan block exponential (Van Loan 1978)
    expm([[A, B B^T], [0, -A^T]] dt) = [[Phi, G], [0, expm(-A^T dt)]]
    gives the exact mean propagator Phi and covariance increment
    G Phi^T of a fine step, so the quantizer surrogate is the decoder's
    only approximation.  The correction covariance recursion is
    data-independent, so it is computed once and shared across trials.
    The effective horizon is K * tau from the scheme, and the scheme's
    seed drives the noise streams; cfg contributes the fine-grid dt and
    the trial count.
    """
    from scipy.linalg import expm  # here: it would slow `import immse` by ~0.06 s

    n, m = model.n, model.m
    if scheme.n != n:
        raise InputValidationError(
            f"scheme lists {scheme.n} quantizer gains but the model has {n} states"
        )
    A, B = model.A, model.B
    BBt = B @ B.T
    delta = np.asarray(scheme.delta)
    stride = max(1, int(round(scheme.tau / cfg.dt)))
    dt = scheme.tau / stride
    steps = scheme.K * stride
    sqdt = np.sqrt(dt)
    VL = expm(np.block([[A, BBt], [np.zeros((n, n)), -A.T]]) * dt)
    Phi = VL[:n, :n]
    Q_step = VL[:n, n:] @ Phi.T

    # Shared decoder recursion: correction gains at each sample instant.
    R_quant = np.diag(1.0 / (12.0 * delta**2))
    Sigma = np.zeros((n, n))
    gains = np.empty((scheme.K, n, n))
    for k in range(scheme.K):
        for _ in range(stride):
            Sigma = Phi @ Sigma @ Phi.T + Q_step
        gain = np.linalg.solve((Sigma + R_quant).T, Sigma.T).T
        gains[k] = gain
        Sigma = (np.eye(n) - gain) @ Sigma
        Sigma = 0.5 * (Sigma + Sigma.T)

    trials = cfg.trials
    codewords = np.empty((trials, scheme.K, n), dtype=np.int64)
    sq_sum = 0.0
    # Trials advance in lockstep but are chunked so the per-chunk noise
    # array stays small.
    chunk = max(1, min(trials, int(2_000_000 / (steps * max(1, m)) ) + 1))
    for lo in range(0, trials, chunk):
        hi = min(trials, lo + chunk)
        size = hi - lo
        noise = np.empty((steps, size, m))
        for trial in range(lo, hi):
            noise[:, trial - lo, :] = _trial_normals(scheme.seed, trial, steps, m)
        X = np.zeros((size, n))
        Xhat = np.zeros((size, n))
        for j in range(steps + 1):
            if j > 0 and j % stride == 0:
                k = j // stride - 1
                mk = np.floor(X * delta).astype(np.int64)
                codewords[lo:hi, k, :] = mk
                z = (mk + 0.5) / delta
                Xhat = Xhat + (z - Xhat) @ gains[k].T
            E = X - Xhat
            sq_sum += float(np.einsum("ti,ti->", E, E)) / trials
            if j == steps:
                break
            X = X + (X @ A.T) * dt + sqdt * (noise[j] @ B.T)
            Xhat = Xhat @ Phi.T
            if not np.all(np.isfinite(X)) or max(
                np.abs(X).max(), np.abs(Xhat).max()
            ) > _STATE_GUARD:
                raise BlowupError(
                    f"decoding simulation exceeded the norm guard at t = {(j + 1) * dt:.6g}"
                )
    distortion_hat = sq_sum / (steps + 1)
    rate_hat = estimate_rate(codewords, scheme)
    return ZdscResult(rate_hat=rate_hat, distortion_hat=distortion_hat)
