"""Command-line front end.

Four commands over a JSON problem description: ``rd-curve`` sweeps the
trade-off curve across the distortion grid, ``validate`` designs (or
takes) a sensor and checks it by Monte Carlo, ``zdsc`` runs the
quantize-and-hold coding experiment, and ``care`` solves the stationary
covariance equation for a given gain.

Exit codes: 0 success (all checks PASS), 1 a validation check FAILed,
2 unreadable or unparsable config file, 3 invalid inputs, 4 numerical
pipeline failure.  Every artifact starts with deterministic ``#``
header comments (command echo, config hash, version); the single
volatile line (timestamp and wall-clock timings) is prefixed
``# generated:`` so byte-level comparisons can strip it.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import re
import shlex
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .design import design_sensor, sweep_curve
from .errors import BlowupError, ImmseError, InputValidationError
from .model import SensorGain, SystemModel, load_problem
from .riccati import rates_from_P, solve_care
from .validate import simulate
from .zdsc import ZdscScheme, measure_ladder

__all__ = ["main"]


def _fmt(value: float) -> str:
    """17 significant digits: lossless float round-trip."""
    return f"{float(value):.17g}"


def _config_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _echo(args: argparse.Namespace) -> str:
    return shlex.join(["immse"] + list(args._argv))


def _provenance(args: argparse.Namespace, config_hash: str, timings_s) -> list[str]:
    """The ``#`` lines that start every text artifact.

    The hash is over the raw config bytes, so identical inputs always
    report the same value.  All wall-clock readings live on the one
    volatile ``# generated:`` line.
    """
    timings = ";".join(f"{t:.3f}" for t in timings_s)
    return [
        f"# command: {_echo(args)}",
        f"# config-sha256: {config_hash}",
        f"# version: {__version__}",
        f"# generated: {_now()} timings_s={timings}",
    ]


def _write_text(out_path, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_gain(text: str, model: SystemModel) -> SensorGain:
    n = model.n
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise InputValidationError(
            [f"--gain-override entries must be numbers, got {text!r}"]
        ) from None
    if len(values) != n * n:
        raise InputValidationError(
            [
                f"--gain-override needs {n * n} row-major entries for an "
                f"n = {n} model, got {len(values)}"
            ]
        )
    return SensorGain(C=np.array(values, dtype=float).reshape(n, n))


def _emit_gnuplot(args, lines: list[str]) -> None:
    if args.out is None or args.out == "-":
        raise InputValidationError(["--gnuplot-stub requires --out FILE"])
    stub = args.out + ".gp"
    content = "\n".join(
        ["# generated plot stub; run: gnuplot " + shlex.quote(stub)]
        + ["set datafile separator ','", "set grid"]
        + lines
    ) + "\n"
    with open(stub, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _cmd_rd_curve(args) -> int:
    config_hash = _config_hash(args.config)
    model, params = load_problem(args.config)
    t0 = time.perf_counter()
    curve = sweep_curve(model, params.distortion, params.tolerances)
    elapsed = time.perf_counter() - t0
    rows = []
    for point in curve:
        flat = ",".join(_fmt(v) for v in point.C.C.ravel())
        rows.append(
            ",".join(
                [
                    _fmt(point.D),
                    _fmt(point.R),
                    _fmt(np.trace(point.P)),
                    _fmt(point.gap),
                    _fmt(point.are_residual),
                    "true",  # design refuses an undetectable gain
                    f'"{flat}"',
                ]
            )
        )
    header = "D,R_nats_per_time,trace_P,gap,are_residual,detectable,C_row_major"
    lines = _provenance(args, config_hash, [elapsed]) + [header] + rows
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.gnuplot_stub:
        _emit_gnuplot(
            args,
            [
                "set xlabel 'D (MMSE budget)'",
                "set ylabel 'R (nats/time)'",
                "set key off",
                f"plot '{args.out}' every ::1 using 1:2 with linespoints",
            ],
        )
    return 0


def _check_line(name: str, ok: bool, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {name}: {detail}"


def _stationary_check(name: str, measured: float, stderr: float, predicted: float, dt: float):
    """A rate estimate against its prediction, within 3 stderr + 10 dt max(1, |predicted|)."""
    tolerance = 3.0 * stderr + 10.0 * dt * max(1.0, abs(predicted))
    return (
        name,
        abs(measured - predicted) <= tolerance,
        f"measured={_fmt(measured)} predicted={_fmt(predicted)} "
        f"stderr={_fmt(stderr)} tol={_fmt(tolerance)}",
    )


def _cmd_validate(args) -> int:
    config_hash = _config_hash(args.config)
    model, params = load_problem(args.config)
    if params.sim is None:
        raise InputValidationError(
            ["the validate command requires the 'sim' block in the config"]
        )
    cfg = params.sim
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    tol = params.tolerances
    t0 = time.perf_counter()

    # Every gain is judged against its certified stationary covariance
    # (`solve_care`, which refuses an undetectable gain, as `care` does); a
    # designed point carries the one its cross-check solved.
    if args.gain_override is not None:
        gain = _parse_gain(args.gain_override, model)
        care = solve_care(model, gain, tol)
        label = "gain-override"
    else:
        if args.D is not None:
            D = args.D
        elif len(params.distortion) == 1:
            D = params.distortion[0]
        else:
            raise InputValidationError(
                ["the config lists a distortion grid; pick one point with --D"]
            )
        point = design_sensor(model, D, tol)
        gain, care = point.C, point.care
        label = f"designed at D = {D:g}"
    info_pred, mmse_pred = rates_from_P(care.P, gain)
    sim = simulate(model, gain, cfg, tol)
    elapsed = time.perf_counter() - t0
    dunc = sim.duncan

    checks = [
        (
            "duncan-identity",
            dunc.passed,
            f"mc={_fmt(dunc.mc_integral)} det={_fmt(dunc.det_integral)} "
            f"diff={_fmt(dunc.difference)} tol={_fmt(dunc.tolerance)}",
        ),
        _stationary_check(
            "stationary-mmse", sim.mmse_rate_hat, sim.mmse_rate_stderr, mmse_pred, cfg.dt
        ),
        _stationary_check(
            "stationary-info", sim.info_rate_hat, sim.info_rate_stderr, info_pred, cfg.dt
        ),
    ]

    lines = [_check_line(name, ok, detail) for name, ok, detail in checks]
    all_ok = all(ok for _, ok, _ in checks)
    body = (
        _provenance(args, config_hash, [elapsed])
        + [f"# sensor: {label}"]
        + lines
        + [f"result: {'PASS' if all_ok else 'FAIL'}"]
    )
    _write_text(args.out, "\n".join(body) + "\n")
    return 0 if all_ok else 1


def _cmd_zdsc(args) -> int:
    config_hash = _config_hash(args.config)
    model, params = load_problem(args.config)
    if params.zdsc is None:
        raise InputValidationError("the zdsc command requires the 'zdsc' block in the config")
    z = params.zdsc
    cfg = z.plan(params.sim, args.seed)

    # One coder pass for the whole ladder, then one design per rung.
    t0 = time.perf_counter()
    measured = measure_ladder(
        model, [ZdscScheme(tau=z.tau, delta=d, K=z.K, seed=cfg.seed) for d in z.delta], cfg
    )
    rows = []
    timings = [time.perf_counter() - t0]
    for setting, res in zip(z.delta, measured):
        t0 = time.perf_counter()
        point = design_sensor(model, res.distortion_hat, params.tolerances)
        gap = res.rate_hat - point.R
        rows.append(
            ",".join(
                [_fmt(z.tau)]
                + [_fmt(d) for d in setting]
                + [_fmt(res.rate_hat), _fmt(res.distortion_hat), _fmt(point.R), _fmt(gap)]
            )
        )
        timings.append(time.perf_counter() - t0)
    header = (
        "tau,"
        + ",".join(f"delta_{i + 1}" for i in range(model.n))
        + ",rate_nats_per_time,distortion,R_of_distortion,gap"
    )
    note = "# gap = rate_nats_per_time - R_of_distortion (unverified bound direction)"
    lines = _provenance(args, config_hash, timings) + [note, header] + rows
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.gnuplot_stub:
        dist_col = model.n + 3
        _emit_gnuplot(
            args,
            [
                "set xlabel 'distortion'",
                "set ylabel 'nats/time'",
                "set key top right",
                f"plot '{args.out}' every ::1 using {dist_col}:{model.n + 2} "
                "with points title 'measured scheme', \\",
                f"     '{args.out}' every ::1 using {dist_col}:{model.n + 4} "
                "with linespoints title 'trade-off curve'",
            ],
        )
    return 0


def _cmd_care(args) -> int:
    config_hash = _config_hash(args.config)
    model, params = load_problem(args.config)
    if args.gain_override is None:
        raise InputValidationError(
            ["the care command requires --gain-override with the sensor gain C"]
        )
    gain = _parse_gain(args.gain_override, model)
    sol = solve_care(model, gain, params.tolerances)
    info_rate, mmse = rates_from_P(sol.P, gain)
    spectrum = sorted(
        ([float(ev.real), float(ev.imag)] for ev in sol.closed_loop_spectrum),
        key=lambda pair: (pair[0], pair[1]),
    )
    payload = {
        "command": _echo(args),
        "config_sha256": config_hash,
        "version": __version__,
        "C_row_major": [float(v) for v in gain.C.ravel()],
        "P": [[float(v) for v in row] for row in sol.P],
        "residual": float(sol.residual),
        "closed_loop_spectrum": spectrum,
        "mmse": float(mmse),
        "info_rate_nats_per_time": float(info_rate),
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


_SEED = ("--seed", dict(type=int, default=None, help="override the seed from the config"))
_GAIN = (
    "--gain-override",
    dict(default=None, metavar="C", help="row-major sensor gain entries, comma or space separated"),
)


def _add_common(sub: argparse.ArgumentParser, *flags) -> None:
    """The config and --out, then only the ``flags`` the command reads."""
    sub.add_argument("config", help="path to the JSON problem description")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    for name, kwargs in flags:
        sub.add_argument(name, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immse",
        description="Information-MMSE trade-off curves for Gauss-Markov sources.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rd-curve", help="sweep R(D) over the config's distortion grid")
    _add_common(p)
    p.add_argument(
        "--gnuplot-stub",
        action="store_true",
        help="also write a gnuplot script next to the CSV",
    )
    p.set_defaults(func=_cmd_rd_curve)

    p = sub.add_parser(
        "validate", help="design a sensor and check it against simulation"
    )
    _add_common(p, _SEED)
    # A fixed gain skips the design, so a budget given with it would be dropped.
    exclusive = p.add_mutually_exclusive_group()
    exclusive.add_argument(_GAIN[0], **_GAIN[1])
    exclusive.add_argument(
        "--D",
        dest="D",
        type=float,
        default=None,
        help="distortion budget to validate (required when the config has a grid)",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("zdsc", help="run the quantize-and-hold coding experiment")
    _add_common(p, _SEED)
    p.add_argument(
        "--gnuplot-stub",
        action="store_true",
        help="also write a gnuplot script next to the CSV",
    )
    p.set_defaults(func=_cmd_zdsc)

    p = sub.add_parser(
        "care", help="solve the stationary covariance equation for a given gain"
    )
    _add_common(p, _GAIN)
    p.set_defaults(func=_cmd_care)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The parser is full of reference cycles; dropped before the command
    # runs, it is freed by a young-generation collection instead of
    # piling up, one per call, until a full one.
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except BlowupError as exc:
        print(f"simulation divergence: {exc}", file=sys.stderr)
        return 4
    except ImmseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
