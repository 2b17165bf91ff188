"""Problem data shared by every other module.

The source is the linear diffusion dX = A X dt + B dW observed through a
sensor dY = C X dt + dV, both noises of unit intensity.  This module owns
the validated matrix containers, the tolerance settings, the
controllability/detectability predicates, and the config-file loader.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Mapping

import numpy as np

from .errors import InputValidationError

__all__ = [
    "SystemModel",
    "SensorGain",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "ControllabilityReport",
    "SimConfig",
    "ZdscParams",
    "RunParams",
    "check_controllable",
    "check_detectable",
    "load_problem",
]


def _freeze(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float)
    out.setflags(write=False)
    return out


def _as_matrix(value, name: str, problems: list[str]):
    """Coerce to a finite 2-D float array, recording failures."""
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{name} is not a numeric matrix")
        return None
    except OverflowError:
        problems.append(f"{name} contains non-finite entries")
        return None
    if M.ndim != 2 or M.size == 0:
        problems.append(f"{name} must be a non-empty 2-D matrix, got shape {M.shape}")
        return None
    if not np.all(np.isfinite(M)):
        problems.append(f"{name} contains non-finite entries")
        return None
    return M


@dataclass(frozen=True)
class SystemModel:
    """Source model dX = A X dt + B dW.

    A is n x n (drift, 1/time), B is n x m (diffusion gain, m >= 1).
    Construction enforces shape consistency and finiteness only;
    controllability of (A, B) is a separate predicate so that solvers can
    demand it at their boundary while counterexamples remain expressible.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        problems: list[str] = []
        A = _as_matrix(self.A, "A", problems)
        B = _as_matrix(self.B, "B", problems)
        if A is not None and A.shape[0] != A.shape[1]:
            problems.append(f"A must be square, got shape {A.shape}")
        if A is not None and B is not None and A.shape[0] == A.shape[1]:
            if B.shape[0] != A.shape[0]:
                problems.append(
                    f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
                )
        if problems:
            raise InputValidationError(problems)
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class SensorGain:
    """Observation gain C in dY = C X dt + dV; square n x n.

    Detectability of (A, C) is a pair property, tested by
    :func:`check_detectable` rather than at construction.
    """

    C: np.ndarray

    def __post_init__(self):
        problems: list[str] = []
        C = _as_matrix(self.C, "C", problems)
        if C is not None and C.shape[0] != C.shape[1]:
            problems.append(f"C must be square, got shape {C.shape}")
        if problems:
            raise InputValidationError(problems)
        object.__setattr__(self, "C", _freeze(C))

    @property
    def n(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the package.

    eig_tol: relative zero threshold for eigen/singular values.
    psd_tol: round-off slack of PSD matrices (psd_sqrt, integrate_rde), and
        the SDP's definiteness threshold in its balanced, O(1) coordinates.
    gap_tol: duality-gap target for the trade-off solver.
    residual_tol: Frobenius residual target for stationary covariances,
        relative to the size of the equation's terms (riccati.certify_residual).
    """

    eig_tol: float = 1e-9
    psd_tol: float = 1e-8
    gap_tol: float = 1e-8
    residual_tol: float = 1e-7

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        problems = [
            f"{name} must be strictly positive, got {value}"
            for name, value in values.items()
            if not (np.isfinite(value) and value > 0)
        ]
        if problems:
            raise InputValidationError(problems)


DEFAULT_TOLERANCES = Tolerances()


def _staircase(A: np.ndarray, B: np.ndarray, eig_tol: float) -> tuple[int, np.ndarray]:
    """Orthogonal staircase reduction of the pair (A, B) (Paige 1981).

    Each step rotates the state so the range of the input block (by its
    SVD) comes first; the rotated drift's coupling from that range to
    the rest is the next input block.  Rank decisions count singular
    values above eig_tol * ||[A, B]||_2, so a joint rescaling of the pair
    changes none.  Returns the controllable subspace's dimension and the
    uncontrollable block (its eigenvalues are the uncontrollable modes).
    """
    threshold = eig_tol * np.linalg.norm(np.hstack([A, B]), 2)
    dim = 0
    while A.shape[0]:
        U, s, _ = np.linalg.svd(B)
        r = int(np.count_nonzero(s > threshold))
        if r == 0:
            break
        dim += r
        A = U.T @ A @ U
        A, B = A[r:, r:], A[r:, :r]
    return dim, A


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of the controllability test, truthy iff full rank."""

    controllable: bool
    rank: int
    dim: int

    def __bool__(self) -> bool:
        return self.controllable


def check_controllable(
    model: SystemModel, eig_tol: float = DEFAULT_TOLERANCES.eig_tol
) -> ControllabilityReport:
    """Controllability of (A, B) by the orthogonal staircase.

    ``rank`` is the dimension of the controllable subspace.  Orthogonal
    steps stay well conditioned where the columns of the Krylov matrix
    [B, AB, ..., A^(n-1) B] align as n grows.
    """
    rank, _ = _staircase(model.A, model.B, eig_tol)
    return ControllabilityReport(controllable=(rank == model.n), rank=rank, dim=model.n)


def check_detectable(
    model: SystemModel,
    gain: SensorGain,
    eig_tol: float = DEFAULT_TOLERANCES.eig_tol,
) -> bool:
    """Detectability of (A, C): the staircase of the dual pair (A^T, C^T)
    leaves an unobservable block, which must be empty or have every
    eigenvalue at Re < -eig_tol.

    Stable modes are exempt, so a Hurwitz A is detectable with C = 0.
    """
    A, n = model.A, model.n
    C = gain.C
    if C.shape[1] != n:
        raise InputValidationError(
            f"C must have {n} columns to match A, got shape {C.shape}"
        )
    _, unobservable = _staircase(A.T, C.T, eig_tol)
    return bool(np.all(np.linalg.eigvals(unobservable).real < -eig_tol))


# Largest trials * (horizon / dt) a Monte Carlo plan may ask for: about
# 80x the demo's plan, and far below array sizes numpy refuses.
_MAX_TRIAL_STEPS = 10**8
# The zdsc coder's fine step when the config has no sim block.
_CODER_DT = 1e-3
# The zdsc coder's bound on |x|, and the quantizer gains it admits.
_STATE_GUARD = 1e9
_GAIN_RANGE = "about [2.153e-155, 9.223e9)"


def _gain_ok(gain: float) -> bool:
    """Whether a quantizer gain floors every state within the coder's guard
    to an int64 codeword and keeps the cell variance 1/(12 gain^2) a finite
    float > 0: a gain in ``_GAIN_RANGE``."""
    with np.errstate(over="ignore", divide="ignore"):
        variance = 1.0 / (12.0 * np.square(gain))
    # Below 9.2e9 the variance is > 0; NaN fails every comparison.
    return bool(gain > 0.0 and _STATE_GUARD * gain < 2.0**63 and variance < np.inf)


def _plan_problems(period_name: str, period, horizon, periods: int, trials) -> list[str]:
    """What a sampling plan must satisfy: a finite period > 0, a horizon
    of at least ``periods`` periods, and an integer number of trials >= 1."""
    problems = []
    if not (np.isfinite(period) and period > 0):
        problems.append(f"{period_name} must be finite and > 0, got {period}")
    elif not (np.isfinite(horizon) and horizon >= periods * period):
        problems.append(
            f"horizon must be >= {periods}*{period_name} = {periods * period}, got {horizon}"
        )
    if isinstance(trials, bool) or not isinstance(trials, int):
        problems.append(f"trials must be an integer, got {trials!r}")
    elif trials < 1:
        problems.append(f"trials must be >= 1, got {trials}")
    return problems


@dataclass(frozen=True)
class SimConfig:
    """Discretization and sampling plan for one Monte Carlo run.

    The fields are exactly the keys of the config file's ``sim`` block:
    step dt, horizon (at least 10 steps), number of trials, and the
    64-bit seed that indexes every trial's noise stream.
    """

    dt: float
    horizon: float
    trials: int
    seed: int

    def __post_init__(self):
        problems = _plan_problems("dt", self.dt, self.horizon, 10, self.trials)
        if not problems and self.trials > _MAX_TRIAL_STEPS / (self.horizon / self.dt):
            problems.append(
                f"trials * horizon/dt must be <= {_MAX_TRIAL_STEPS:.0e}, "
                f"got {self.trials} * {self.horizon / self.dt:.6g}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            problems.append(f"seed must be an integer, got {self.seed!r}")
        elif not 0 <= self.seed < 2**64:
            problems.append(f"seed must fit in 64 bits, got {self.seed}")
        if problems:
            raise InputValidationError(problems)


@dataclass(frozen=True)
class ZdscParams:
    """Quantize-and-hold experiment parameters.

    The fields are exactly the keys of the config file's ``zdsc`` block:
    sample period tau, one per-coordinate gain vector per ladder rung in
    ``delta``, horizon (at least one period) and number of trials; the
    size bound is that of the coder's Monte Carlo :meth:`plan`.
    """

    tau: float
    delta: tuple[tuple[float, ...], ...]
    horizon: float
    trials: int

    def __post_init__(self):
        problems = _plan_problems("tau", self.tau, self.horizon, 1, self.trials)
        if problems:
            raise InputValidationError(problems)

    @property
    def K(self) -> int:
        """Sample instants in the horizon, rounded to whole periods."""
        # The cap, past the trial bound that refuses the plan, keeps a subnormal tau finite.
        return round(min(self.horizon / self.tau, 2 * _MAX_TRIAL_STEPS))

    def plan(self, sim: SimConfig | None, seed: int | None = None) -> SimConfig:
        """The coder's plan: K periods of tau cut into round(tau / sim.dt) steps
        each (sim.dt = 1e-3 without a sim block), at least 10 in all, so that
        SimConfig's trial bound counts the steps the coder runs.  The seed is
        the sim block's (0 without one) unless ``seed`` is given."""
        if seed is None:
            seed = sim.seed if sim is not None else 0
        fine = sim.dt if sim is not None else _CODER_DT
        stride = max(-(-10 // self.K), round(min(self.tau / fine, 2 * _MAX_TRIAL_STEPS)))
        dt = self.tau / stride
        if not dt > 0.0:
            raise InputValidationError(f"tau/{stride} must be > 0, got tau = {self.tau}")
        return SimConfig(dt=dt, horizon=self.K * stride * dt, trials=self.trials, seed=seed)


@dataclass(frozen=True)
class RunParams:
    """Everything in a config document besides the model itself."""

    distortion: tuple[float, ...]
    sim: SimConfig | None = None
    zdsc: ZdscParams | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)


def _number(value, where: str, problems: list[str], integer=False, positive=False):
    """One JSON number, or None with the reason recorded in ``problems``.

    Bools and non-numbers are rejected.  An integer too large for a float
    reads as non-finite, and a float must be finite (and > 0 if
    ``positive``).
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        problems.append(f"{where} must be {kind}, got {value!r}")
        return None
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError:
        value = np.inf
    if not np.isfinite(value) or (positive and value <= 0):
        problems.append(
            f"{where} must be a finite number{' > 0' if positive else ''}, got {value!r}"
        )
        return None
    return value


def _parse_block(doc: Mapping, name: str, cls, problems: list[str], **readers):
    """Read the config block ``name`` as the dataclass ``cls``.

    The block's keys are the type's fields, and a field without a default
    is a required key.  Each value is read by ``readers[key](value, where,
    problems)`` if given, else by :func:`_number` as the field's
    annotation says; the type's constructor is the only range check, and
    its messages, which start with the field name, get the block prefix.
    Returns None when the block is absent or has problems.
    """
    block = doc.get(name)
    if block is None:
        return None
    if not isinstance(block, Mapping):
        problems.append(f"{name} must be an object")
        return None
    known = fields(cls)
    for key in block:
        if key not in {f.name for f in known}:
            problems.append(f"unknown key {name}.{key}")
    values = {}
    for f in known:
        if f.name in block:
            read = readers.get(f.name) or partial(_number, integer=f.type == "int")
            values[f.name] = read(block[f.name], f"{name}.{f.name}", problems)
        elif f.default is MISSING and f.default_factory is MISSING:
            problems.append(f"{name} is missing required key '{f.name}'")
            values[f.name] = None
    if None in values.values():
        return None
    try:
        return cls(**values)
    except InputValidationError as exc:
        problems.extend(f"{name}.{v}" for v in exc.violations)
        return None


def _parse_distortion(doc: Mapping, problems: list[str]) -> tuple[float, ...]:
    dist = doc.get("distortion")
    if dist is None:
        problems.append("missing required key 'distortion'")
        return ()
    if not isinstance(dist, Mapping) or set(dist) not in ({"grid"}, {"value"}):
        problems.append(
            "distortion must be an object with exactly one of 'grid' or 'value'"
        )
        return ()
    if "value" in dist:
        value = _number(dist["value"], "distortion.value", problems, positive=True)
        return () if value is None else (value,)
    raw = dist["grid"]
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append("distortion.grid must be a non-empty array")
        return ()
    grid = [
        _number(entry, f"distortion.grid[{i}]", problems, positive=True)
        for i, entry in enumerate(raw)
    ]
    if None in grid:
        return ()
    if any(b <= a for a, b in zip(grid, grid[1:])):
        problems.append("distortion.grid must be strictly ascending")
        return ()
    return tuple(grid)


def _gain(value, where: str, problems: list[str]) -> float | None:
    """One quantizer gain (``_gain_ok``), or None with the reason recorded."""
    gain = _number(value, where, problems, positive=True)
    if gain is not None and not _gain_ok(gain):
        problems.append(f"{where} must be a quantizer gain in {_GAIN_RANGE}, got {gain!r}")
        return None
    return gain


def _parse_delta(raw, where: str, problems: list[str], n: int | None):
    """Quantizer gains: flat list = one setting (or a ladder when n = 1);
    list of lists = one setting per inner list."""
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append(f"{where} must be a non-empty array")
        return None

    def one_setting(entries, at) -> tuple[float, ...] | None:
        out = tuple(_gain(entry, f"{at}[{i}]", problems) for i, entry in enumerate(entries))
        if None in out:
            return None
        if n is not None and len(out) != n:
            problems.append(f"{at} must list {n} gains (one per coordinate), got {len(out)}")
            return None
        return out

    if all(isinstance(entry, (list, tuple)) for entry in raw):
        settings = [one_setting(entry, f"{where}[{j}]") for j, entry in enumerate(raw)]
    elif n == 1:
        gains = [_gain(g, f"{where}[{i}]", problems) for i, g in enumerate(raw)]
        settings = [None if g is None else (g,) for g in gains]
    else:
        settings = [one_setting(raw, where)]
    return None if None in settings else tuple(settings)


def load_problem(source) -> tuple[SystemModel, RunParams]:
    """Read and validate a config document.

    ``source`` is a path to a JSON file or an already-parsed mapping.
    Validation is exhaustive: every violated invariant is collected and
    reported in a single :class:`InputValidationError`, so a broken file
    can be fixed in one pass.  File and JSON syntax errors propagate
    as-is.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError:
                raise
            except ValueError as exc:  # an integer past the interpreter's digit limit
                raise InputValidationError(f"config holds an unreadable number: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise InputValidationError("config document must be a JSON object")

    problems: list[str] = []
    for key in doc:
        if key not in {f.name for f in fields(SystemModel) + fields(RunParams)}:
            problems.append(f"unknown config key '{key}'")

    A = _as_matrix(doc["A"], "A", problems) if "A" in doc else None
    if "A" not in doc:
        problems.append("missing required key 'A'")
    B = _as_matrix(doc["B"], "B", problems) if "B" in doc else None
    if "B" not in doc:
        problems.append("missing required key 'B'")
    tolerances = _parse_block(doc, "tolerances", Tolerances, problems) or DEFAULT_TOLERANCES

    model = None
    if A is not None and B is not None:
        try:
            model = SystemModel(A, B)
        except InputValidationError as exc:
            problems.extend(exc.violations)
    if model is not None:
        report = check_controllable(model, tolerances.eig_tol)
        if not report:
            problems.append(
                f"(A, B) is not a controllable pair: rank {report.rank} of {report.dim}"
            )

    n = model.n if model is not None else None
    distortion = _parse_distortion(doc, problems)
    sim = _parse_block(doc, "sim", SimConfig, problems)
    zdsc = _parse_block(doc, "zdsc", ZdscParams, problems, delta=partial(_parse_delta, n=n))
    if zdsc is not None and (sim is not None or doc.get("sim") is None):
        try:
            zdsc.plan(sim)
        except InputValidationError as exc:
            fine = f"dt = tau/round(tau/sim.dt), sim.dt = {_CODER_DT} without a sim block"
            problems.extend(f"zdsc.{v} ({fine})" for v in exc.violations)

    if problems:
        raise InputValidationError(problems)
    return model, RunParams(distortion=distortion, sim=sim, zdsc=zdsc, tolerances=tolerances)
