"""Benchmark of the immse command line, end to end and layer by layer.

    python3 bench/run.py --workload curve-n16 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The commands run in-process, one at a
time, through ``immse.cli.main``; the package is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, its times taken to a fixed machine speed by the
calibration samples of ``speed.py``, with the times as measured printed
beside them; with ``--trace 1`` it reports the per-layer metrics,
from the layer cases and from passes with the layer tracer installed,
interleaved with untraced passes so the tracing overhead shows.  Every
metric is printed by name with its unit and direction, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; the setup interpreters
# inherit the same setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass

from speed import REFERENCE_START_S, SpeedProbe, start_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 9

# A fresh interpreter imports the package and loads the workload config.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import immse
imported = time.perf_counter()
immse.load_problem(sys.argv[1])
print(json.dumps([imported - start, time.perf_counter() - start]))
"""

# Samples the speed of the core during untraced passes.
PROBE = SpeedProbe()


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float


def invoke(argv: list[str]) -> Result:
    """Run one ``immse`` command in-process and time it."""
    cli = sys.modules["immse.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        probed = PROBE.spent
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start - (PROBE.spent - probed)
    return Result(code, out.getvalue(), err.getvalue(), seconds)


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def measure_setup(config: str) -> tuple[list[float], list[float], list[float]]:
    """Import times, import-plus-load times and the latter at the
    reference speed, of fresh interpreters.  Each is set between two
    start-up calibrations (see speed.py)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    imports, totals, at_reference = [], [], []
    starts = [start_seconds()]
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        starts.append(start_seconds())
        imported, total = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(imported)
        totals.append(total)
        at_reference.append(total * 2 * REFERENCE_START_S / (starts[-2] + starts[-1]))
    return imports, totals, at_reference


def git_rev() -> str:
    """The checked-out commit, read from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def command_times(passes) -> dict[str, float]:
    """Median seconds per command over the passes; 0 for commands not run."""
    out = {}
    for name in ("rd-curve", "validate", "zdsc", "care"):
        times = [op.seconds for ops in passes for op in ops if op.command == name]
        out[f"{name.replace('-', '_')}_s"] = median(times)
    return out


def pass_seconds(ops) -> float:
    return sum(op.seconds for op in ops if op.seconds is not None)


def past_deadline(start: float, begin: float, seconds: float) -> bool:
    """Whether another round like the one begun at ``begin`` would end
    more than half a round past the deadline; runs last ``seconds`` on
    average whatever the length of a round."""
    now = time.perf_counter()
    return now - start + 0.5 * (now - begin) > seconds


def untraced_run(workload, seconds: float):
    """Passes, each pass's time at the reference speed and its speed factor."""
    passes, at_reference, factors, start = [], [], [], time.perf_counter()
    PROBE.arm()
    try:
        while True:
            begin = time.perf_counter()
            mark = PROBE.mark()
            PROBE.sample()
            ops = workload.run_pass(invoke)
            PROBE.sample()
            passes.append(ops)
            factors.append(PROBE.factor_since(mark))
            at_reference.append(pass_seconds(ops) * factors[-1])
            if past_deadline(start, begin, seconds):
                return passes, at_reference, factors
    finally:
        PROBE.disarm()


def traced_run(workload, seconds: float, tracer, cases):
    """Layer cases, then pairs of one untraced and one traced pass."""
    start = time.perf_counter()
    case_metrics = cases.layer_cases(workload.seed)
    plain, traced, layer = [], [], []
    pair = 0
    while True:
        begin = time.perf_counter()
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(workload.run_pass(invoke))
                continue
            tracer.reset()
            tracer.install()
            try:
                ops = workload.run_pass(invoke)
            finally:
                tracer.uninstall()
            traced.append(ops)
            layer.append(tracer.layer_totals())
        pair += 1
        if past_deadline(start, begin, seconds):
            return plain, traced, layer, case_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "immse", "__init__.py")):
        print(f"error: no immse package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import immse.cli  # noqa: F401  (the commands run through immse.cli.main)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, spec, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workloads, workdir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    record = run_record()
    for key, value in record.items():
        print(f"record {key}: {value}")

    problems = workloads.check_recorded_inputs()
    imports, setups, setups_at_reference = measure_setup(workload.config)
    probes = workloads.run_probes(invoke, args.seed, workdir)
    for p in probes:
        state = "pass" if p.passed else "FAIL"
        print(f"probe {p.name}: {state} exit={p.code} (at seed: {p.at_seed}) {p.detail}")

    values: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    if args.trace:
        import cases
        from tracer import Tracer

        plain, traced, layer, case_metrics = traced_run(
            workload, args.seconds, Tracer(), cases
        )
        passes = plain + traced
        for name in layer[0]:
            samples[name] = [totals[name] for totals in layer]
        plain_wall = [pass_seconds(ops) for ops in plain]
        traced_wall = [pass_seconds(ops) for ops in traced]
        self_sums = [
            sum(v for k, v in totals.items() if k.endswith(".self_s")) for totals in layer
        ]
        samples["trace.unattributed_s"] = [w - s for w, s in zip(traced_wall, self_sums)]
        values["trace.overhead_s"] = median(traced_wall) - median(plain_wall)
        values.update(command_times(plain))
        values.update(case_metrics)
        samples["import.immse_s"] = imports
        wanted = spec["per_layer"]
    else:
        passes, walls_at_reference, factors = untraced_run(workload, args.seconds)
        samples["setup_s"] = setups_at_reference
        samples["wall_s"] = walls_at_reference
        samples["setup_measured_s"] = setups
        samples["wall_measured_s"] = [pass_seconds(ops) for ops in passes]
        samples["speed_factor"] = factors
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    for name, series in samples.items():
        values[name] = median(series)

    ops = [op for p in passes for op in p]
    failed = sum(op.failed for op in ops)
    if args.trace:
        probes_failed = sum(not p.passed for p in probes)
        values["failed_frac"] = (failed + probes_failed) / (len(ops) + len(probes))
    for op in ops:
        for problem in op.problems:
            problems.append(f"{op.command}: {problem}")
    for problem in problems:
        print(f"check FAIL {problem}")

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            raise KeyError(f"the run produced no value for metric {name}")
        value = values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"metric {name} = {value:.6g} {m['unit']} ({m['better']} is better) "
              f"{spread(samples.get(name, []))}")
    for name in ("wall_measured_s", "setup_measured_s", "speed_factor"):
        if name in samples:
            print(f"measured {name} = {values[name]:.6g} {spread(samples[name])}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
