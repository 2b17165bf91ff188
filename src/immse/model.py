"""Problem data shared by every other module.

The source is the linear diffusion dX = A X dt + B dW observed through a
sensor dY = C X dt + dV, both noises of unit intensity.  This module owns
the validated matrix containers, the tolerance settings, the
controllability/detectability predicates, and the config-file loader.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
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
    psd_tol: minimum-eigenvalue slack accepted in PSD checks.
    gap_tol: duality-gap target for the trade-off solver.
    residual_tol: Frobenius residual target for stationary covariances.
    """

    eig_tol: float = 1e-9
    psd_tol: float = 1e-8
    gap_tol: float = 1e-8
    residual_tol: float = 1e-7

    def __post_init__(self):
        problems = [
            f"{name} must be strictly positive, got {value}"
            for name, value in (
                ("eig_tol", self.eig_tol),
                ("psd_tol", self.psd_tol),
                ("gap_tol", self.gap_tol),
                ("residual_tol", self.residual_tol),
            )
            if not (np.isfinite(value) and value > 0)
        ]
        if problems:
            raise InputValidationError(problems)


DEFAULT_TOLERANCES = Tolerances()


def _staircase(
    A: np.ndarray, B: np.ndarray, eig_tol: float
) -> tuple[int, np.ndarray, tuple[float, ...]]:
    """Orthogonal staircase reduction of the pair (A, B) (Paige 1981).

    Each step rotates the state so the range of the input block (by its
    SVD) comes first; the rotated drift's coupling from that range to
    the rest is the next input block.  Rank decisions count singular
    values above eig_tol * ||[A, B]||_2, so a joint rescaling of the pair
    changes none.  Returns the controllable subspace's dimension, the
    uncontrollable block (its eigenvalues are the uncontrollable modes)
    and every step's singular values, in order.
    """
    threshold = eig_tol * np.linalg.norm(np.hstack([A, B]), 2)
    dim = 0
    seen: list[float] = []
    while A.shape[0]:
        U, s, _ = np.linalg.svd(B)
        seen.extend(s.tolist())
        r = int(np.count_nonzero(s > threshold))
        if r == 0:
            break
        dim += r
        A = U.T @ A @ U
        A, B = A[r:, r:], A[r:, :r]
    return dim, A, tuple(seen)


@dataclass(frozen=True)
class ControllabilityReport:
    """Outcome of the controllability test, truthy iff full rank."""

    controllable: bool
    rank: int
    dim: int
    singular_values: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.controllable


def check_controllable(
    model: SystemModel, eig_tol: float = DEFAULT_TOLERANCES.eig_tol
) -> ControllabilityReport:
    """Controllability of (A, B) by the orthogonal staircase.

    ``rank`` is the dimension of the controllable subspace and
    ``singular_values`` the input block's singular values, step by step.
    Orthogonal steps stay well conditioned where the columns of the
    Krylov matrix [B, AB, ..., A^(n-1) B] align as n grows.
    """
    rank, _, seen = _staircase(model.A, model.B, eig_tol)
    return ControllabilityReport(
        controllable=(rank == model.n), rank=rank, dim=model.n, singular_values=seen
    )


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
    _, unobservable, _ = _staircase(A.T, C.T, eig_tol)
    return bool(np.all(np.linalg.eigvals(unobservable).real < -eig_tol))


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
        problems = []
        if not (np.isfinite(self.dt) and self.dt > 0):
            problems.append(f"dt must be finite and > 0, got {self.dt}")
        elif not (np.isfinite(self.horizon) and self.horizon >= 10 * self.dt):
            problems.append(
                f"horizon must be >= 10*dt = {10 * self.dt}, got {self.horizon}"
            )
        if isinstance(self.trials, bool) or not isinstance(self.trials, int):
            problems.append(f"trials must be an integer, got {self.trials!r}")
        elif self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            problems.append(f"seed must be an integer, got {self.seed!r}")
        elif not 0 <= self.seed < 2**64:
            problems.append(f"seed must fit in 64 bits, got {self.seed}")
        if problems:
            raise InputValidationError(problems)


@dataclass(frozen=True)
class ZdscParams:
    """Quantize-and-hold experiment parameters.

    ``settings`` holds one per-coordinate gain vector per experiment row;
    a scalar model may list several gains to form a ladder.
    """

    tau: float
    settings: tuple[tuple[float, ...], ...]
    horizon: float
    trials: int


@dataclass(frozen=True)
class RunParams:
    """Everything in a config document besides the model itself."""

    distortion: tuple[float, ...]
    sim: SimConfig | None = None
    zdsc: ZdscParams | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)


def _as_float(
    block: Mapping, key: str, where: str, problems: list[str], positive: bool = True
):
    if key not in block:
        problems.append(f"{where} is missing required key '{key}'")
        return None
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{where}.{key} must be a number, got {value!r}")
        return None
    value = float(value)
    if not np.isfinite(value) or (positive and value <= 0):
        problems.append(f"{where}.{key} must be finite and > 0, got {value}")
        return None
    return value


def _as_int(block: Mapping, key: str, where: str, problems: list[str], minimum: int = 1):
    if key not in block:
        problems.append(f"{where} is missing required key '{key}'")
        return None
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{where}.{key} must be an integer, got {value!r}")
        return None
    if value < minimum:
        problems.append(f"{where}.{key} must be >= {minimum}, got {value}")
        return None
    return value


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
        value = _as_float(dist, "value", "distortion", problems)
        return () if value is None else (value,)
    raw = dist["grid"]
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append("distortion.grid must be a non-empty array")
        return ()
    grid: list[float] = []
    for i, entry in enumerate(raw):
        if (
            isinstance(entry, bool)
            or not isinstance(entry, (int, float))
            or not np.isfinite(float(entry))
            or float(entry) <= 0
        ):
            problems.append(f"distortion.grid[{i}] must be a finite number > 0, got {entry!r}")
            return ()
        grid.append(float(entry))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        problems.append("distortion.grid must be strictly ascending")
        return ()
    return tuple(grid)


def _parse_sim(doc: Mapping, problems: list[str]) -> SimConfig | None:
    block = doc.get("sim")
    if block is None:
        return None
    if not isinstance(block, Mapping):
        problems.append("sim must be an object")
        return None
    keys = [f.name for f in fields(SimConfig)]
    for key in block:
        if key not in keys:
            problems.append(f"unknown key sim.{key}")
    values = {
        f.name: (
            _as_int(block, f.name, "sim", problems, minimum=0)
            if f.type == "int"
            else _as_float(block, f.name, "sim", problems)
        )
        for f in fields(SimConfig)
    }
    if None in values.values():
        return None
    try:
        return SimConfig(**values)
    except InputValidationError as exc:
        problems.extend(exc.violations)
        return None


def _parse_zdsc(doc: Mapping, n: int | None, problems: list[str]) -> ZdscParams | None:
    block = doc.get("zdsc")
    if block is None:
        return None
    if not isinstance(block, Mapping):
        problems.append("zdsc must be an object")
        return None
    for key in block:
        if key not in {"tau", "delta", "horizon", "trials"}:
            problems.append(f"unknown key zdsc.{key}")
    tau = _as_float(block, "tau", "zdsc", problems)
    horizon = _as_float(block, "horizon", "zdsc", problems)
    trials = _as_int(block, "trials", "zdsc", problems)
    settings = _parse_delta(block.get("delta"), n, problems)
    if None in (tau, horizon, trials) or settings is None:
        return None
    if horizon < tau:
        problems.append(f"zdsc.horizon must cover at least one sample period tau = {tau}")
        return None
    return ZdscParams(tau=tau, settings=settings, horizon=horizon, trials=trials)


def _parse_delta(raw, n: int | None, problems: list[str]):
    """Quantizer gains: flat list = one setting (or a ladder when n = 1);
    list of lists = one setting per inner list."""
    if not isinstance(raw, (list, tuple)) or not raw:
        problems.append("zdsc.delta must be a non-empty array")
        return None

    def one_setting(entries, where) -> tuple[float, ...] | None:
        out = []
        for i, entry in enumerate(entries):
            if (
                isinstance(entry, bool)
                or not isinstance(entry, (int, float))
                or not np.isfinite(float(entry))
                or float(entry) <= 0
            ):
                problems.append(f"{where}[{i}] must be a finite number > 0, got {entry!r}")
                return None
            out.append(float(entry))
        if n is not None and len(out) != n:
            problems.append(f"{where} must list {n} gains (one per coordinate), got {len(out)}")
            return None
        return tuple(out)

    if all(isinstance(entry, (list, tuple)) for entry in raw):
        settings = []
        for j, entry in enumerate(raw):
            setting = one_setting(entry, f"zdsc.delta[{j}]")
            if setting is None:
                return None
            settings.append(setting)
        return tuple(settings)
    if n == 1:
        ladder = []
        for i, entry in enumerate(raw):
            setting = one_setting([entry], f"zdsc.delta[{i}]")
            if setting is None:
                return None
            ladder.append(setting)
        return tuple(ladder)
    setting = one_setting(raw, "zdsc.delta")
    return None if setting is None else (setting,)


def _parse_tolerances(doc: Mapping, problems: list[str]) -> Tolerances:
    block = doc.get("tolerances")
    if block is None:
        return DEFAULT_TOLERANCES
    if not isinstance(block, Mapping):
        problems.append("tolerances must be an object")
        return DEFAULT_TOLERANCES
    known = {"eig_tol", "psd_tol", "gap_tol", "residual_tol"}
    values = {}
    for key in block:
        if key not in known:
            problems.append(f"unknown key tolerances.{key}")
            continue
        value = _as_float(block, key, "tolerances", problems)
        if value is not None:
            values[key] = value
    try:
        return Tolerances(**values)
    except InputValidationError as exc:
        problems.extend(exc.violations)
        return DEFAULT_TOLERANCES


def load_problem(source) -> tuple[SystemModel, RunParams]:
    """Read and validate a config document.

    ``source`` is a path to a JSON file or an already-parsed mapping.
    Validation is exhaustive: every violated invariant is collected and
    reported in a single :class:`InputValidationError`, so a broken file
    can be fixed in one pass.  File and JSON errors propagate as-is.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise InputValidationError("config document must be a JSON object")

    problems: list[str] = []
    for key in doc:
        if key not in {"A", "B", "distortion", "sim", "zdsc", "tolerances"}:
            problems.append(f"unknown config key '{key}'")

    A = _as_matrix(doc["A"], "A", problems) if "A" in doc else None
    if "A" not in doc:
        problems.append("missing required key 'A'")
    B = _as_matrix(doc["B"], "B", problems) if "B" in doc else None
    if "B" not in doc:
        problems.append("missing required key 'B'")

    model = None
    if A is not None and B is not None:
        try:
            model = SystemModel(A, B)
        except InputValidationError as exc:
            problems.extend(exc.violations)
    if model is not None:
        report = check_controllable(model)
        if not report:
            problems.append(
                f"(A, B) is not a controllable pair: rank {report.rank} of {report.dim}"
            )

    distortion = _parse_distortion(doc, problems)
    sim = _parse_sim(doc, problems)
    zdsc = _parse_zdsc(doc, model.n if model is not None else None, problems)
    tolerances = _parse_tolerances(doc, problems)

    if problems:
        raise InputValidationError(problems)
    return model, RunParams(
        distortion=distortion, sim=sim, zdsc=zdsc, tolerances=tolerances
    )
