"""Monte Carlo verification of the filtering identities.

Samples the error of the causal filter whose gain P_t C^T comes from the
covariance flow, exactly for the gain held over each step, from the error
equation's own coefficients; then compares empirical error statistics
against the deterministic flow: the time-integral identity (half the
integrated squared sensor-weighted error equals the integral of
Tr(C P_t C^T)/2) and the stationary rate pair.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
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
from . import riccati
from .riccati import integrate_rde

__all__ = ["SimResult", "DuncanReport", "simulate"]

_BLOCK = 256  # time steps per block of the Monte Carlo loop
# Error entries one product advances: a chunk is max(1, _CHUNK // n) steps.
_CHUNK = 16
_SLAB = 2**20  # doubles of noise in flight, in whole blocks
_ROW = 2048  # doubles of each trial's noise a slab should hold, at least
_RANGES_PER_CORE = 2  # trial ranges a noise slab is cut into, per core
# Stationary averages leave out this leading fraction of the horizon.
BURN_IN_FRACTION = 0.5
_ULP53 = 2.0**-53
# A flow node within this many ulps of max|P_N| of the last node P_N
# steps by P_N's exponential: its gain is P_N's to round-off.
_SETTLED_ULPS = 8.0


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


def _core_count() -> int:
    """Cores this process may run on: they size the noise pool and ranges."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_trials(rows, seed: int, first: int, offset: int, local) -> None:
    """Unit normals of trials first, first + 1, ... into ``rows``, in place.

    Row i takes trial first + i's normals from raw word ``offset`` of its
    stream on: the calling thread's Philox bit generator, kept in the
    ``threading.local`` ``local`` from its first range on, is re-keyed to
    [seed, trial] at counter offset // 4, its whole state set, and
    discards offset % 4 words; its uniforms are drawn into the row.  The
    shift and the inverse CDF then run once over all the rows, outside
    the per-trial loop.  ``Generator.random`` gives u 2^-53 for u the top
    53 bits of a word, and adding 2^-54 rounds exactly as (u + 1/2) 2^-53
    does, since scaling by a power of two commutes with rounding.
    """
    from scipy.special import ndtri  # here: it would slow `import immse` by ~0.2 s

    gen = getattr(local, "gen", None)
    if gen is None:
        gen = local.gen = np.random.Generator(np.random.Philox(key=0))
    bits = gen.bit_generator
    for trial, row in enumerate(rows, first):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [offset // 4, 0, 0, 0], "key": [seed, trial]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if offset % 4:
            bits.random_raw(offset % 4)
        gen.random(out=row)
    rows += 0.5 * _ULP53
    ndtri(rows, out=rows)


@contextmanager
def _noise_stream(seed: int, trials: int, steps: int, width: int, block: int):
    """Unit normals z of every trial, ``block`` steps at a time.

    ``with _noise_stream(...) as noise`` opens the stream, and iterating
    ``noise`` once yields (k, z), z of shape (count, trials, width) for
    steps k .. k + count - 1, valid until the next block is asked for;
    the caller may scale it in place.  The (seed, trial) pair indexes a
    dedicated Philox key, [seed, trial], so each trial's normals are a
    fixed function of the pair; z comes from the inverse CDF on the strict
    interior of (0, 1), at (u + 1/2) 2^-53 for u the top 53 bits of a raw
    Philox word.  Those are the bits of ``Generator.integers(0, 2**53)``,
    whose Lemire bound never rejects on a power-of-two range.

    The normals are written into trial-major slabs of whole blocks, so no
    array spans the horizon; z is a strided view of one.  A slab is the
    fewest whole blocks that give every trial at least ``_ROW`` doubles,
    but never more than half of the horizon's whole blocks, nor half of the
    whole blocks that fit in about ``_SLAB`` doubles of noise in flight,
    and never less than one block.  The horizon's blocks are then split
    evenly over that many slabs, the first ones a block longer where the
    count does not divide.  The slabs are a ring of two, or one where the
    horizon takes one slab or only one block fits in ``_SLAB``.  One
    thread pool, of one worker per core beside the caller's (at least
    one), serves the whole stream: entering submits slab 0, so it fills
    while the caller sets up its pass; and where the ring holds two
    slabs, slab i + 1 is submitted once the caller reaches slab i, to
    fill while the caller reads it.
    Each slab is cut into ``_RANGES_PER_CORE`` contiguous ranges of trials
    per available core (never more ranges than trials), each trial
    re-keyed at the slab's first word (``_fill_trials``, on one bit
    generator per filling thread).  When the caller reaches a slab, it
    fills every range that no worker has started, then waits for the
    rest; so every range of a slab is filled before its blocks are
    yielded, and an exception from any range is raised here.  Leaving the
    ``with`` block, by any exit, cancels the pool's queued ranges and
    joins its workers.  A counter-based stream gives the same values
    whichever thread fills them, so the output depends neither on the
    core count nor on the slab sizes.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: see test_linalg

    seed &= 0xFFFFFFFFFFFFFFFF
    blocks = -(-steps // block)
    fit = max(1, _SLAB // (block * trials * width))  # whole blocks in flight
    most = min(-(-_ROW // (block * width)), max(1, min(steps // block, fit) // 2))
    slabs = -(-blocks // most)
    # Slab r holds steps starts[r] .. starts[r + 1] - 1: q or q + 1 blocks.
    q, rem = divmod(blocks, slabs)
    starts = [min(steps, (r * q + min(r, rem)) * block) for r in range(slabs + 1)]
    span = starts[1]
    depth = 2 if slabs > 1 and fit >= 2 else 1  # fit 1: a second slab would exceed _SLAB
    ring = np.empty((depth, trials, span, width))
    cores = _core_count()
    ranges = min(_RANGES_PER_CORE * cores, trials)
    bounds = [trials * r // ranges for r in range(ranges + 1)]
    local = threading.local()
    pool = ThreadPoolExecutor(max(1, cores - 1))

    def submit(r):
        """Queue every range of slab r."""
        lo = starts[r]
        rows = ring[r % depth, :, : starts[r + 1] - lo]
        jobs = [(rows[a:b], seed, a, lo * width, local) for a, b in zip(bounds, bounds[1:])]
        return rows, [(pool.submit(_fill_trials, *job), job) for job in jobs]

    def finish(queued):
        """Fill the ranges no worker has started; wait for the others."""
        started = []
        for future, job in reversed(queued):
            if future.cancel():
                _fill_trials(*job)
            else:
                started.append(future)
        for future in started:
            future.result()

    def walk(ahead):
        for r in range(slabs):
            rows, queued = ahead or submit(r)
            finish(queued)
            ahead = submit(r + 1) if depth == 2 and r + 1 < slabs else None
            for j in range(0, rows.shape[1], block):
                yield starts[r] + j, rows[:, j : j + block].swapaxes(0, 1)

    try:
        yield walk(submit(0))
    finally:
        pool.shutdown(cancel_futures=True)


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


def _chunk_maps(G: np.ndarray) -> np.ndarray:
    """Compose each chunk's s one-step maps into its s-step map.

    G is (chunks, s, 2n, n), G[c, i] = [Phi_i^T; root_i^T] of step i of
    chunk c.  Returns M of shape (chunks, (s + 1) n, s n) with
    [E_0 | z_0 ... z_{s-1}] M = [E_1 ... E_s]: M = [[Psi^1 ... Psi^s]; T],
    Psi^i = Phi_0^T ... Phi_{i-1}^T, and T block upper triangular, its
    block (j, i) root_j^T Phi_{j+1}^T ... Phi_i^T for j <= i.  Column
    block i is column block i - 1 times Phi_i^T, with root_i^T below: s - 1
    batched products over the chunks.  The step [I; 0] holds E, so a short
    chunk is padded with it.
    """
    chunks, s, _, n = G.shape
    M = np.zeros((chunks, (s + 1) * n, s * n))
    M[:, : 2 * n, :n] = G[:, 0]
    for i in range(1, s):
        top = slice(0, (i + 1) * n)
        np.matmul(M[:, top, (i - 1) * n : i * n], G[:, i, :n], out=M[:, top, i * n : (i + 1) * n])
        M[:, (i + 1) * n : (i + 2) * n, i * n : (i + 1) * n] = G[:, i, n:]
    return M


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
    streamed per slab of whole blocks (``_noise_stream``, opened before
    the flow is integrated: its thread pool fills the first slab while
    the flow runs, and each next slab while this loop reads one; the
    output does not depend on the core count).  Per block, the
    exponentials and noise square roots (``_error_step``) of the block's
    nodes are formed in batch as one-step maps G_k = [Phi_k^T; root_k^T],
    and the block is cut into chunks of s = max(1, ``_CHUNK`` // n) steps,
    so that a chunk advances about ``_CHUNK`` error entries per product.
    Buffer row c holds [E_k | z_k ... z_{k+s-1}], the error at the chunk's
    first node beside the normals of its s steps, and the chunk's s-step
    map [[Psi^1 ... Psi^s]; T] (``_chunk_maps``) takes it to
    [E_{k+1} ... E_{k+s}].  One product per chunk, row c times the map's
    last column block, writes E_{k+s} into row c + 1; where s > 1, one
    batched product per block then fills the s - 1 interior nodes of
    every chunk, and the statistics are read off the block's nodes.  Once
    the flow has settled, a node within ``_SETTLED_ULPS`` ulps of max|P_N|
    of the last node P_N steps by P_N's one-step map G_N, formed once: its
    gain is its own to round-off.  A block of such nodes with no short
    chunk steps every chunk by the s-step map of G_N, composed once when
    the flow first settles; any other block composes each of its chunks
    from its one-step maps, settled nodes holding G_N and a short chunk
    padded with the step [I; 0].  The maps are copied row-major, and
    where s > 1 composed, so the estimates agree with the
    one-product-per-step loop to round-off, not bit for bit.
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

    steps = riccati._grid_steps(dt, cfg.horizon)
    block = min(_BLOCK, steps)
    s = max(1, _CHUNK // n)
    # Row c holds [E | z ...] of node k + c s: the row-vector error beside
    # the normals of its chunk's s steps, viewed by Z as (chunk, step,
    # trial, state).
    Ez = np.zeros((-(-block // s) + 1, trials, (s + 1) * n))
    E = Ez[..., :n]
    Z = Ez[..., n:].reshape(len(Ez), trials, s, n).swapaxes(1, 2)
    G_last = M_last = None  # the settled step's one-step and s-step maps
    hold = np.eye(2 * n, n)  # [I; 0]: the step that pads a short chunk

    def step_matrices(nodes):
        return np.concatenate(_error_step(A, BBt, CtC, nodes, dt), axis=-2)

    burn_start = int(np.ceil(BURN_IN_FRACTION * steps - 1e-9))
    mmse_acc = np.zeros(trials)
    info_acc = np.zeros(trials)
    sensor_acc = np.zeros(trials)

    with _noise_stream(cfg.seed, trials, steps, n, block) as noise:
        P = integrate_rde(model, gain, dt=dt, t_max=cfg.horizon, tol=tol).values
        P_last = P[-1]
        settle = _SETTLED_ULPS * np.finfo(float).eps * np.abs(P_last).max()
        for k, z in noise:
            count = len(z)
            full, short = divmod(count, s)
            chunks = full + (short > 0)
            # Normals left past a short chunk meet its padded steps' zero rows.
            Z[:full] = z[: full * s].reshape(full, s, trials, n)
            Z[full, :short] = z[full * s :]
            P_block = P[k : k + count]
            moving = np.flatnonzero(np.abs(P_block - P_last).max(axis=(1, 2)) > settle)
            if G_last is None and moving.size < count:
                G_last = step_matrices(P_last[None])
                M_last = _chunk_maps(np.broadcast_to(G_last, (1, s, 2 * n, n)))[0]
            if moving.size or short:
                G = np.tile(hold, (chunks * s, 1, 1))
                if G_last is not None:
                    G[:count] = G_last
                if moving.size:
                    G[moving] = step_matrices(P_block[moving])
                maps = _chunk_maps(G.reshape(chunks, s, 2 * n, n))
            else:  # every chunk takes the settled map
                maps = np.broadcast_to(M_last, (chunks,) + M_last.shape)
            nodes = E[1 : chunks + 1]
            for row, M, out in zip(Ez[:chunks], maps[..., -n:], nodes):
                np.matmul(row, M, out=out)
            if s > 1:  # the chunks' s - 1 interior nodes, in one batched product
                interior = np.matmul(Ez[:chunks], maps[..., : (s - 1) * n])
                nodes = np.concatenate(
                    [interior.reshape(chunks, trials, s - 1, n).swapaxes(1, 2), nodes[:, None]],
                    axis=1,
                ).reshape(chunks * s, trials, n)[:count]

            # Statistics of nodes k + 1 .. k + count; node 0 has E = 0.
            CE = nodes @ C.T
            sq_sensor = np.einsum("kti,kti->kt", CE, CE)
            sensor_acc += sq_sensor[: steps - 1 - k].sum(axis=0)  # left rule: nodes < steps
            burned = max(burn_start - 1 - k, 0)
            mmse_acc += np.einsum("kti,kti->t", nodes[burned:], nodes[burned:])
            info_acc += sq_sensor[burned:].sum(axis=0)
            E[0] = E[chunks]

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
