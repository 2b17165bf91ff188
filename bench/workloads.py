"""Benchmark workloads: their inputs, command lists and output checks.

Each workload is a closed loop with one client: a pass runs the
workload's ``immse`` commands one after another, each starting after the
previous one returned.  Inputs are made from the workload seed, and the
seed reaches the program only through the generated configs and the
``--seed`` flag.  Every command's output is checked against closed forms,
against the independent Riccati route, or against the reference values
recorded at the reference seed in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

# Deterministic quantities (rates, traces) agree to this relative
# tolerance across valid changes of kernel; the barrier itself stops at a
# duality gap of 1e-8.
RTOL = 1e-6
ATOL = 1e-9
# Monte Carlo estimates of the coder at a seed other than the reference
# seed lie within this relative band of the reference values.
ZDSC_BAND = 0.15

CURVE_FRACTIONS = (0.05, 0.1, 0.2, 0.4)
SCALAR_D = 0.25


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * abs(b) + ATOL


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def curve_n16_model(seed: int, n: int = 16) -> dict:
    """n = m = 16, B = I, A = M / sqrt(n) - 1.5 I with M standard normal.

    M is drawn again until A has spectral abscissa at most -0.25, so
    every seed gives a stable source with the same decay margin.
    """
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
        if np.linalg.eigvals(A).real.max() <= -0.25:
            break
    B = np.eye(n)
    open_loop = solve_continuous_lyapunov(A, -B @ B.T)
    grid = [f * float(np.trace(open_loop)) for f in CURVE_FRACTIONS]
    return {"A": A.tolist(), "B": B.tolist(), "distortion": {"grid": grid}}


def d1_model(seed: int, n: int = 16) -> dict:
    """Random stable A (spectral abscissa -1) with a random square B."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    A = M - (float(np.linalg.eigvals(M).real.max()) + 1.0) * np.eye(n)
    return {"A": A.tolist(), "B": B.tolist(), "distortion": {"value": 1.0}}


def recorded_model_path(seed: int) -> str:
    return os.path.join(INPUTS, f"curve_n16_seed{seed}.json")


def check_recorded_inputs() -> list[str]:
    """The generator still makes the checked-in model at the reference seed."""
    seed = load_reference()["seed"]
    with open(recorded_model_path(seed), encoding="utf-8") as fh:
        recorded = json.load(fh)
    made = curve_n16_model(seed)
    pairs = [
        (np.array(made[key], dtype=float), np.array(recorded[key], dtype=float))
        for key in ("A", "B")
    ] + [(np.array(made["distortion"]["grid"]), np.array(recorded["distortion"]["grid"]))]
    if all(a.shape == b.shape and np.allclose(a, b, rtol=RTOL, atol=ATOL) for a, b in pairs):
        return []
    return [f"curve_n16_model({seed}) no longer matches {recorded_model_path(seed)}"]


# -- output parsing ----------------------------------------------------------


def _data_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.reader(lines[1:]))


@dataclass
class CurveRow:
    D: float
    R: float
    trace_P: float
    gain: str


def parse_curve(text: str) -> list[CurveRow]:
    return [
        CurveRow(D=float(r[0]), R=float(r[1]), trace_P=float(r[2]), gain=r[6])
        for r in _data_rows(text)
    ]


def parse_zdsc(text: str) -> list[tuple[float, float]]:
    """(rate, distortion) per rung; the columns after tau and the gains."""
    rows = _data_rows(text)
    return [(float(r[-4]), float(r[-3])) for r in rows]


# -- checks ------------------------------------------------------------------


def check_curve(rows: list[CurveRow], grid: list[float], reference) -> list[str]:
    problems = []
    if len(rows) != len(grid):
        return [f"rd-curve printed {len(rows)} rows for {len(grid)} budgets"]
    for row, D in zip(rows, grid):
        if not close(row.D, D):
            problems.append(f"row budget {row.D!r} != {D!r}")
        if not close(row.trace_P, D):
            problems.append(f"trace_P {row.trace_P!r} misses the active budget {D!r}")
    rates = [row.R for row in rows]
    if not all(r > 0 for r in rates) or any(b >= a for a, b in zip(rates, rates[1:])):
        problems.append(f"R is not positive and decreasing: {rates}")
    if reference is not None:
        for row, (_, R_ref, trace_ref) in zip(rows, reference):
            if not (close(row.R, R_ref) and close(row.trace_P, trace_ref)):
                problems.append(
                    f"row at D = {row.D!r}: R {row.R!r}, trace_P {row.trace_P!r} "
                    f"!= reference {R_ref!r}, {trace_ref!r}"
                )
    return problems


def check_care(text: str, row: CurveRow) -> list[str]:
    payload = json.loads(text)
    problems = []
    if not close(payload["mmse"], row.trace_P):
        problems.append(f"care mmse {payload['mmse']!r} != curve trace_P {row.trace_P!r}")
    if not close(payload["info_rate_nats_per_time"], row.R):
        problems.append(
            f"care info rate {payload['info_rate_nats_per_time']!r} != curve R {row.R!r}"
        )
    return problems


def check_zdsc(rows, reference, exact: bool) -> list[str]:
    if len(rows) != len(reference):
        return [f"zdsc printed {len(rows)} rows for {len(reference)} rungs"]
    rtol = RTOL if exact else ZDSC_BAND
    problems = []
    for k, ((rate, dist), (rate_ref, dist_ref)) in enumerate(zip(rows, reference)):
        if not (close(rate, rate_ref, rtol) and close(dist, dist_ref, rtol)):
            problems.append(
                f"rung {k}: rate {rate!r}, distortion {dist!r} outside "
                f"{rtol:g} of reference {rate_ref!r}, {dist_ref!r}"
            )
    return problems


def check_validate(text: str) -> list[str]:
    problems = []
    if "result: PASS" not in text.splitlines():
        problems.append("validate did not print 'result: PASS'")
    predicted = {}
    for line in text.splitlines():
        for name in ("stationary-mmse", "stationary-info"):
            if line.startswith(f"PASS {name}:") or line.startswith(f"FAIL {name}:"):
                fields = dict(f.split("=", 1) for f in line.split(":", 1)[1].split())
                predicted[name] = float(fields["predicted"])
    # Scalar A = -1, B = 1: R(D) = 1/(2D) - 1 and Tr(P) = D.
    expected = {"stationary-mmse": SCALAR_D, "stationary-info": 1 / (2 * SCALAR_D) - 1}
    for name, value in expected.items():
        if name not in predicted:
            problems.append(f"validate printed no {name} line")
        elif not close(predicted[name], value):
            problems.append(f"{name} predicted {predicted[name]!r} != closed form {value!r}")
    return problems


# -- workloads ---------------------------------------------------------------


@dataclass
class Op:
    """One timed command of a pass and the outcome of its output check."""

    command: str
    seconds: float | None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _run(invoke, command: str, argv: list[str], ops: list[Op]):
    """Time one command; return its stdout when it exited 0."""
    result = invoke([command, *argv])
    op = Op(command=command, seconds=result.seconds)
    ops.append(op)
    if result.code != 0:
        op.problems.append(f"exit {result.code}: {result.stderr.strip()[:200]}")
        return None, op
    return result.stdout, op


def _curve_then_care(invoke, config, grid, reference, ops, between=()):
    text, op = _run(invoke, "rd-curve", [config], ops)
    rows = []
    if text is not None:
        rows = parse_curve(text)
        op.problems += check_curve(rows, grid, reference)
    for step in between:
        step()
    if len(rows) < 2:
        ops.append(Op("care", None, ["no designed gain to certify"]))
        return
    text, op = _run(invoke, "care", [config, "--gain-override", rows[1].gain], ops)
    if text is not None:
        op.problems += check_care(text, rows[1])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference()
        self.at_reference = seed == self.reference["seed"]

    def run_pass(self, invoke) -> list[Op]:
        raise NotImplementedError


class CurveN16(Workload):
    name = "curve-n16"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        doc = curve_n16_model(seed)
        self.grid = doc["distortion"]["grid"]
        self.config = write_json(os.path.join(workdir, "curve_n16.json"), doc)
        ref = self.reference["curve-n16"]
        self.curve_reference = ref["rows"] if self.at_reference else None

    def run_pass(self, invoke):
        ops: list[Op] = []
        _curve_then_care(invoke, self.config, self.grid, self.curve_reference, ops)
        return ops


class ValidateScalar(Workload):
    name = "validate-scalar"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = os.path.join(INPUTS, "scalar.json")

    def run_pass(self, invoke):
        ops: list[Op] = []
        argv = [self.config, "--D", repr(SCALAR_D), "--seed", str(self.seed)]
        text, op = _run(invoke, "validate", argv, ops)
        if text is not None:
            op.problems += check_validate(text)
        return ops


class FourState(Workload):
    name = "four-state"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = os.path.join(INPUTS, "four_state.json")
        with open(self.config, encoding="utf-8") as fh:
            self.grid = json.load(fh)["distortion"]["grid"]
        ref = self.reference["four-state"]
        self.curve_reference = ref["rows"]
        self.zdsc_reference = ref["zdsc"]

    def run_pass(self, invoke):
        ops: list[Op] = []

        def zdsc():
            text, op = _run(invoke, "zdsc", [self.config, "--seed", str(self.seed)], ops)
            if text is not None:
                op.problems += check_zdsc(
                    parse_zdsc(text), self.zdsc_reference, exact=self.at_reference
                )

        _curve_then_care(
            invoke, self.config, self.grid, self.curve_reference, ops, between=(zdsc,)
        )
        return ops


WORKLOADS = {w.name: w for w in (CurveN16, ValidateScalar, FourState)}


# -- range probes ------------------------------------------------------------


@dataclass
class Probe:
    """An untimed command at the edge of the documented range.

    ``passed`` means the program did what its documentation promises;
    ``at_seed`` is how the defect shows at the reference seed.
    """

    name: str
    code: int
    passed: bool
    at_seed: str
    detail: str


def run_probes(invoke, seed: int, workdir: str) -> list[Probe]:
    scalar = {"A": [[-1.0]], "B": [[1.0]]}
    probes = []

    config = write_json(os.path.join(workdir, "probe_d1.json"), d1_model(seed))
    r = invoke(["rd-curve", config])
    probes.append(
        Probe("D1", r.code, r.code == 0, "exit 3, rank 15 of 16", r.stderr.strip()[:200])
    )

    D = 1e-4
    doc = dict(scalar, distortion={"value": D})
    config = write_json(os.path.join(workdir, "probe_d2.json"), doc)
    r = invoke(["rd-curve", config])
    rows = parse_curve(r.stdout) if r.code == 0 else []
    ok = len(rows) == 1 and close(rows[0].R, 1 / (2 * D) - 1)
    detail = r.stderr.strip()[:200] or (f"R = {rows[0].R!r}" if rows else "no rows")
    probes.append(Probe("D2", r.code, ok, "exit 4, closed form R = 4999", detail))

    doc = dict(
        scalar,
        distortion={"value": SCALAR_D},
        sim={"dt": 0.001, "horizon": 1.0, "trials": 2, "seed": seed, "burn": 0.5},
    )
    config = write_json(os.path.join(workdir, "probe_d3.json"), doc)
    r = invoke(["rd-curve", config])
    probes.append(
        Probe("D3", r.code, r.code == 0, "exit 3, unknown key sim.burn", r.stderr.strip()[:200])
    )
    return probes
