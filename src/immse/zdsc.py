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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, InputValidationError
from .linalg import symmetrize, van_loan
from .model import _GAIN_RANGE, _STATE_GUARD, SimConfig, SystemModel, _gain_ok
from .validate import _noise_blocks

__all__ = [
    "ZdscScheme",
    "ZdscResult",
    "encode",
    "estimate_rate",
    "measure_ladder",
    "decode_and_measure",
]

_BLOCK = 16  # fine steps per block of the coder pass


@dataclass(frozen=True)
class ZdscScheme:
    """Sampling period, per-coordinate quantizer gains, sample count.

    Delta is a gain, not a step: cells have width 1/Delta_i, so larger
    Delta means finer quantization.  A gain must floor every state within
    the coder's guard |x| <= 1e9 to an int64 codeword and keep the cell
    variance 1/(12 Delta_i^2) a finite float > 0: about 2.153e-155 to 9.223e9.
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
        if not delta or not all(map(_gain_ok, delta)):
            problems.append(f"every quantizer gain must be in {_GAIN_RANGE}, got {self.delta}")
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


def encode(path: np.ndarray, scheme: ZdscScheme) -> np.ndarray:
    """Integer codewords m_1..m_K for samples X_tau..X_{K tau}.

    ``path`` has shape (K, n) holding the state at the K sample
    instants (the known m_0 = 0 is not emitted).  Exact elementwise
    floor of Delta_i * x_i; an entry past the coder's guard |x_i| <= 1e9,
    or NaN, is rejected, since its codeword could overflow int64.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape != (scheme.K, scheme.n):
        raise InputValidationError(
            f"path must have shape ({scheme.K}, {scheme.n}), got {path.shape}"
        )
    if not (np.abs(path) <= _STATE_GUARD).all():
        raise InputValidationError(f"every path entry must be finite with |x| <= {_STATE_GUARD:g}")
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
    # One lexicographic sort of each sample's codewords across trials
    # (coordinate 0 first, no packing into a single key): each run of
    # equal rows is one distinct codeword, its length that codeword's
    # count, in np.unique's order.
    K = scheme.K
    order = np.lexsort(codewords.T[::-1], axis=-1)
    words = np.take_along_axis(codewords.swapaxes(0, 1), order[..., None], axis=1)
    new_run = np.ones((K, trials), dtype=bool)
    new_run[:, 1:] = (words[:, 1:] != words[:, :-1]).any(axis=-1)
    starts = np.flatnonzero(new_run)
    p = np.diff(np.append(starts, K * trials)) / trials
    h = -(p * np.log(p))
    bounds = np.searchsorted(starts, np.arange(K + 1) * trials)
    # Each sample's entropy is summed on its own, as before, so the rate
    # keeps its last bits.
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total += float(h[lo:hi].sum())
    return total / (K * scheme.tau)


def _guard(peak: np.ndarray, k: int, dt: float) -> None:
    """Raise BlowupError naming the first node k + 1 + j with peak[j] past the guard (NaN too)."""
    within = peak <= _STATE_GUARD
    if not within.all():
        t = (k + 1 + int(within.argmin())) * dt
        raise BlowupError(f"decoding simulation exceeded the norm guard at t = {t:.6g}")


def measure_ladder(
    model: SystemModel, schemes: Sequence[ZdscScheme], cfg: SimConfig
) -> tuple[ZdscResult, ...]:
    """Run a ladder of schemes end to end and measure each operating point.

    The rungs must share tau, K, seed and state dimension; they differ only
    in their quantizer gains.  So they share the noise and the source path:
    all trials advance in lockstep on normals streamed per slab (see
    validate._noise_blocks), and X is simulated once by Euler-Maruyama on
    a fine grid commensurate with tau (cfg.dt is rounded to tau/stride).
    Time runs in blocks of ``_BLOCK`` fine steps: per block, the noise
    terms of every step are formed in batch and a loop of
    one product and one sum per step advances X.  Between samples every
    rung's estimate follows the exact fine-step propagator Phi, a fixed
    linear map, so node anchor + j is the anchor's estimate times Psi^j,
    Psi = Phi^T: with Psi^0 .. Psi^_BLOCK formed once, each run of a
    block's nodes from its anchor (the block's first node or a sample
    node) is one broadcast product, and each sample node is then
    corrected, with codewords read from X at the same node.  The noise
    does not depend on the core count that fills it, so neither does any
    result.  The guard then names the first fine node
    past it (NaN trips too) over X and every rung's corrected estimate,
    and each rung's distortion is reduced from the block's error nodes at
    once.  The correction gains come from a
    data-independent covariance recursion, computed once for all trials
    with one Van Loan exponential at tau per sample interval; that map is
    exactly ``stride`` fine steps of Phi S Phi^T + Q_step, so the
    quantizer surrogate is the decoder's only approximation.  The
    horizon is K * tau, and the shared seed drives the noise streams; cfg
    must agree on both (its seed, and round(horizon/dt) = K * stride
    steps) and contributes the fine-grid dt and the trial count.  Results
    come back in ladder order.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise InputValidationError("the ladder needs at least one scheme")
    first = schemes[0]
    shared = (first.tau, first.K, first.seed, first.n)
    problems = [
        f"scheme {i} has (tau, K, seed, n) = {(s.tau, s.K, s.seed, s.n)}, "
        f"scheme 0 has {shared}"
        for i, s in enumerate(schemes)
        if (s.tau, s.K, s.seed, s.n) != shared
    ]
    if problems:
        raise InputValidationError(problems)
    n, m = model.n, model.m
    if first.n != n:
        raise InputValidationError(
            f"scheme lists {first.n} quantizer gains but the model has {n} states"
        )
    tau, K, rungs = first.tau, first.K, len(schemes)
    stride = max(1, int(round(tau / cfg.dt)))
    steps = K * stride
    if first.seed != cfg.seed or round(cfg.horizon / cfg.dt) != steps:
        raise InputValidationError(
            f"the ladder runs seed {first.seed} for K * stride = {steps} steps, but cfg has "
            f"seed {cfg.seed} and round(horizon/dt) = {round(cfg.horizon / cfg.dt)} steps"
        )
    A, B = model.A, model.B
    BBt = B @ B.T
    delta = np.array([s.delta for s in schemes])[:, None, :]  # (rung, 1, n)
    dt = tau / stride
    Phi, _ = van_loan(A, BBt, dt)
    Phi_tau, Q_tau = van_loan(A, BBt, tau)

    # Shared decoder recursion, every rung at once: the correction gain at
    # each sample instant, transposed for row-vector states.
    R_quant = np.eye(n) / (12.0 * delta**2)
    Sigma = np.zeros((rungs, n, n))
    gains_T = np.empty((K, rungs, n, n))
    for k in range(K):
        Sigma = Phi_tau @ Sigma @ Phi_tau.T + Q_tau
        gains_T[k] = np.linalg.solve(
            (Sigma + R_quant).swapaxes(-1, -2), Sigma.swapaxes(-1, -2)
        )
        Sigma = symmetrize((np.eye(n) - gains_T[k].swapaxes(-1, -2)) @ Sigma)

    trials = cfg.trials
    codewords = np.empty((rungs, trials, K, n), dtype=np.int64)
    sq_sum = np.zeros(rungs)
    F = np.eye(n) + A.T * dt
    block = min(_BLOCK, steps)
    # Row j holds node k + j; the estimates stack the rungs.
    X = np.zeros((block + 1, trials, n))
    Xhat = np.zeros((block + 1, rungs, trials, n))
    drive = np.empty((block, trials, n))
    # Between samples the estimate is its anchor node's times Psi^j,
    # Psi = Phi^T the fine-step propagator of row vectors.
    Psi = np.empty((block + 1, n, n))
    Psi[0] = np.eye(n)
    for j in range(block):
        np.matmul(Psi[j], Phi.T, out=Psi[j + 1])

    def propagate(anchor, end):
        """Nodes anchor + 1 .. end of the estimates, from node ``anchor``."""
        if end > anchor:
            np.matmul(
                Xhat[anchor][None], Psi[1 : end - anchor + 1, None], out=Xhat[anchor + 1 : end + 1]
            )

    for k, noise in _noise_blocks(first.seed, trials, steps, m, block):
        count = len(noise)
        noise *= np.sqrt(dt)
        np.matmul(noise, B.T, out=drive[:count])
        # A block may run past the guard; the guard below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(count):
                np.add(X[j] @ F, drive[j], out=X[j + 1])
            anchor = 0
            for node in range(-k % stride or stride, count + 1, stride):
                propagate(anchor, node)
                sample = (k + node) // stride - 1
                cells = np.floor(X[node] * delta)
                codewords[:, :, sample] = cells
                Xhat[node] += ((cells + 0.5) / delta - Xhat[node]) @ gains_T[sample]
                anchor = node
            propagate(anchor, count)
            nodes = slice(1, count + 1)
            peak = np.maximum(
                np.abs(X[nodes]).max(axis=(1, 2)),
                np.abs(Xhat[nodes]).max(axis=(1, 2, 3)),
            )
        _guard(peak, k, dt)
        X[0], Xhat[0] = X[count], Xhat[count]
        # The error of nodes k + 1 .. k + count overwrites their
        # estimates; node 0 has zero error.
        E = np.subtract(X[nodes, None], Xhat[nodes], out=Xhat[nodes])
        sq_sum += np.einsum("jrti,jrti->r", E, E)

    distortion = sq_sum / trials / (steps + 1)
    return tuple(
        ZdscResult(
            rate_hat=estimate_rate(codewords[r], scheme),
            distortion_hat=float(distortion[r]),
        )
        for r, scheme in enumerate(schemes)
    )


def decode_and_measure(
    model: SystemModel, scheme: ZdscScheme, cfg: SimConfig
) -> ZdscResult:
    """Run one scheme end to end: a ladder of one rung (see measure_ladder)."""
    return measure_ladder(model, (scheme,), cfg)[0]
