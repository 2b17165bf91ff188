"""Command-line interface: exit codes, CSV contracts, reproducibility."""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import immse.cli
import immse.design
import immse.validate
from immse.cli import main
from immse.model import load_problem

REPO = Path(__file__).resolve().parents[1]
SCALAR_DOC = {
    "A": [[-1.0]],
    "B": [[1.0]],
    "distortion": {"grid": [0.1, 0.25, 0.5, 1.0]},
    "sim": {"dt": 1e-3, "horizon": 20.0, "trials": 16, "seed": 7},
    "zdsc": {"tau": 0.1, "delta": [2.0, 4.0, 8.0], "horizon": 1.0, "trials": 64},
}


@pytest.fixture()
def scalar_config(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(SCALAR_DOC))
    return str(path)


def _data_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append(line)
    return rows[0], rows[1:]


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["rd-curve", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_grid_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = dict(SCALAR_DOC)
    doc["distortion"] = {"grid": [-0.5, 1.0]}
    path.write_text(json.dumps(doc))
    assert main(["rd-curve", str(path)]) == 3
    assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [401, 5000])
def test_oversized_number_exits_3(tmp_path, capsys, digits):
    # 401 digits overflow a float; 5000 pass the interpreter's limit on
    # integer string conversion, so the JSON reader itself refuses them.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(SCALAR_DOC).replace("[[-1.0]]", f"[[-{'9' * digits}]]"))
    assert main(["rd-curve", str(path)]) == 3
    assert "validation" in capsys.readouterr().err


@pytest.mark.parametrize("command, block", [("validate", "sim"), ("zdsc", "zdsc")])
def test_huge_trial_count_exits_3(tmp_path, capsys, command, block):
    # An integer, so the block's type accepts it; no array of that many
    # trials can be allocated, so the plan's bound on trials x steps
    # rejects it at load time.
    doc = json.loads(json.dumps(SCALAR_DOC))
    doc[block]["trials"] = 10**30
    path = tmp_path / "huge_trials.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--D", "0.25"] if command == "validate" else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "validation" in err and f"{block}.trials" in err


def test_config_eig_tol_applies_at_load(tmp_path, capsys):
    # Controllable at the default eig_tol, but the config's own eig_tol
    # reads the weakly driven second mode as uncontrollable.
    doc = {
        "A": [[-1.0, 0.0], [0.0, -2.0]],
        "B": [[1.0], [1e-3]],
        "distortion": {"value": 0.4},
        "tolerances": {"eig_tol": 1e-2},
    }
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(doc))
    assert main(["rd-curve", str(path)]) == 3
    assert "not a controllable pair: rank 1 of 2" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{this is not json")
    assert main(["rd-curve", str(path)]) == 2


def test_rd_curve_golden_rows(scalar_config, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["rd-curve", scalar_config, "--out", str(out)]) == 0
    header, rows = _data_rows(str(out))
    assert header == "D,R_nats_per_time,trace_P,gap,are_residual,detectable,C_row_major"
    assert len(rows) == 4
    expected_R = [4.0, 1.0, 0.0, 0.0]
    expected_C = [np.sqrt(80.0), 2.0 * np.sqrt(2.0)]
    for row, want in zip(rows, expected_R):
        fields = row.split(",", 6)
        assert abs(float(fields[1]) - want) <= 1e-6
        assert fields[5] == "true"
        assert fields[6].startswith('"') and fields[6].endswith('"')
    for row, want in zip(rows[:2], expected_C):
        gain = float(row.split(",", 6)[6].strip('"'))
        assert abs(gain - want) <= 1e-3


def test_rd_curve_idempotent_modulo_timestamp(scalar_config, tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["rd-curve", scalar_config, "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert main(argv) == 0
    second = out.read_text()

    def stripped(text):
        return [l for l in text.splitlines() if not l.startswith("# generated:")]

    assert stripped(first) == stripped(second)
    volatile_first = [l for l in first.splitlines() if l.startswith("# generated:")]
    assert len(volatile_first) == 1


def test_rd_curve_gnuplot_stub(scalar_config, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["rd-curve", scalar_config, "--out", str(out), "--gnuplot-stub"]) == 0
    stub = tmp_path / "curve.csv.gp"
    assert stub.exists()
    assert "plot" in stub.read_text()
    # The stub needs a file target to sit next to.
    assert main(["rd-curve", scalar_config, "--gnuplot-stub"]) == 3


def test_validate_passes_at_design_point(scalar_config, tmp_path):
    out = tmp_path / "report.txt"
    code = main(["validate", scalar_config, "--D", "0.25", "--out", str(out)])
    text = out.read_text()
    assert code == 0, text
    assert "PASS duncan-identity" in text
    assert "PASS stationary-mmse" in text
    assert "PASS stationary-info" in text
    assert text.strip().endswith("result: PASS")


def test_validate_needs_single_budget(scalar_config, capsys):
    assert main(["validate", scalar_config]) == 3
    assert "--D" in capsys.readouterr().err


def test_validate_requires_sim_block(tmp_path):
    doc = {k: v for k, v in SCALAR_DOC.items() if k != "sim"}
    path = tmp_path / "nosim.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--D", "0.25"]) == 3


def test_validate_rejects_unknown_sim_key(tmp_path, capsys):
    doc = dict(SCALAR_DOC, sim=dict(SCALAR_DOC["sim"], burn_in_fraction=0.5))
    path = tmp_path / "burn.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--D", "0.25"]) == 3
    assert "unknown key sim.burn_in_fraction" in capsys.readouterr().err


def test_validate_rejects_negative_seed_override(scalar_config, capsys):
    assert main(["validate", scalar_config, "--D", "0.25", "--seed", "-1"]) == 3
    assert "seed must fit in 64 bits, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "A, B, gain",
    [
        ([[1.0]], [[1.0]], "0"),
        # The next two diverge slowly enough that the covariance flow stays
        # under its norm guard for the whole 20 s horizon.
        ([[0.01]], [[1.0]], "0"),
        ([[0.5, 0.0], [0.0, -1.0]], [[1.0], [1.0]], "0 0 0 1"),
    ],
    ids=["a=1", "a=0.01", "diag(0.5,-1)"],
)
def test_validate_gain_override_divergence_reported(tmp_path, capsys, A, B, gain):
    # An undetectable override is refused as `care` refuses it, exit 3.
    doc = {
        "A": A,
        "B": B,
        "distortion": {"value": 0.25},
        "sim": {"dt": 1e-3, "horizon": 20.0, "trials": 4, "seed": 1},
    }
    path = tmp_path / "undetectable.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--gain-override", gain]) == 3
    assert "detectable" in capsys.readouterr().err


def test_validate_gain_override_happy_path(scalar_config, tmp_path):
    out = tmp_path / "report.txt"
    code = main(
        [
            "validate",
            scalar_config,
            "--gain-override",
            "2.8284271247461903",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "sensor: gain-override" in out.read_text()


def test_validate_dump_paths_flag_is_a_usage_error(scalar_config, tmp_path, capsys):
    dump_dir = tmp_path / "paths"
    assert main(["validate", scalar_config, "--D", "0.25", "--dump-paths", str(dump_dir)]) == 2
    assert "--dump-paths" in capsys.readouterr().err
    assert not dump_dir.exists()


@pytest.mark.parametrize("sensor", [["--D", "0.25"], ["--gain-override", "2.8284271247461903"]])
def test_validate_honours_config_tolerances(tmp_path, monkeypatch, sensor):
    # The config's tolerances reach the stationary solve, the detectability
    # test and the covariance flow's PSD check, with a designed gain and an
    # override; either way the stationary equation is solved once, by the
    # design's cross-check for a designed gain.
    doc = dict(SCALAR_DOC, tolerances={"eig_tol": 2e-9, "psd_tol": 3e-8})
    path = tmp_path / "tolerances.json"
    path.write_text(json.dumps(doc))
    calls = []
    solve_care = immse.cli.solve_care
    integrate_rde, check_detectable = immse.validate.integrate_rde, immse.validate.check_detectable

    def care_spy(model, gain, tol):
        calls.append(("solve_care", tol))
        return solve_care(model, gain, tol)

    def rde_spy(*args, **kwargs):
        calls.append(("integrate_rde", kwargs.get("tol")))
        return integrate_rde(*args, **kwargs)

    def detectable_spy(model, gain, eig_tol=None):
        calls.append(("check_detectable", eig_tol))
        return check_detectable(model, gain, eig_tol)

    monkeypatch.setattr(immse.cli, "solve_care", care_spy)
    monkeypatch.setattr(immse.design, "solve_care", care_spy)
    monkeypatch.setattr(immse.validate, "integrate_rde", rde_spy)
    monkeypatch.setattr(immse.validate, "check_detectable", detectable_spy)
    assert main(["validate", str(path), *sensor, "--out", str(tmp_path / "r.txt")]) == 0
    tol = load_problem(str(path))[1].tolerances
    assert calls == [("solve_care", tol), ("check_detectable", 2e-9), ("integrate_rde", tol)]
    assert tol.psd_tol == 3e-8


@pytest.mark.parametrize(
    "command, flag",
    [
        ("rd-curve", ["--seed", "3"]),
        ("care", ["--seed", "3"]),
        ("rd-curve", ["--gain-override", "2"]),
        ("zdsc", ["--gain-override", "2"]),
    ],
)
def test_flag_on_a_command_that_ignores_it_is_usage_error(scalar_config, capsys, command, flag):
    argv = [command, scalar_config, *flag]
    if command == "care":
        argv += ["--gain-override", "2.8284271247461903"]
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["D first", "gain first"])
def test_validate_rejects_a_budget_with_a_fixed_gain(scalar_config, capsys, order):
    # A fixed gain skips the design, so --D would be dropped silently.
    flags = [["--D", "0.1"], ["--gain-override", "2.8284271247461903"]]
    if order == "gain first":
        flags.reverse()
    assert main(["validate", scalar_config, *flags[0], *flags[1]]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_validate_seed_override_changes_measurement(scalar_config, tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    main(["validate", scalar_config, "--D", "0.25", "--out", str(out1)])
    main(
        ["validate", scalar_config, "--D", "0.25", "--seed", "99", "--out", str(out2)]
    )

    def measured(path):
        for line in path.read_text().splitlines():
            if "stationary-mmse" in line:
                return line.split("measured=")[1].split()[0]
        raise AssertionError("no stationary-mmse line")

    assert measured(out1) != measured(out2)


def test_zdsc_rows_and_trend(scalar_config, tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zdsc", scalar_config, "--out", str(out)]) == 0
    header, rows = _data_rows(str(out))
    assert header == "tau,delta_1,rate_nats_per_time,distortion,R_of_distortion,gap"
    assert len(rows) == 3
    parsed = [list(map(float, r.split(","))) for r in rows]
    distortion = [p[3] for p in parsed]
    assert distortion == sorted(distortion, reverse=True), "ladder trend"
    # The gap column is reported, never sign-asserted (open conjecture).
    assert "unverified bound direction" in out.read_text()


def test_zdsc_missing_block_exits_3(tmp_path):
    doc = {k: v for k, v in SCALAR_DOC.items() if k != "zdsc"}
    path = tmp_path / "noz.json"
    path.write_text(json.dumps(doc))
    assert main(["zdsc", str(path)]) == 3


def test_zdsc_trial_bound_counts_the_coders_fine_steps(tmp_path, capsys):
    # Without a sim block the coder steps at dt = 1e-3: 100,000 trials over
    # a horizon of 2 are 2e8 fine trial-steps (2e6 samples at tau = 0.1),
    # past the 1e8 bound, and the loader's message names the zdsc keys.
    doc = {k: v for k, v in SCALAR_DOC.items() if k != "sim"}
    doc["zdsc"] = dict(doc["zdsc"], horizon=2.0, trials=100_000)
    path = tmp_path / "big_ladder.json"
    path.write_text(json.dumps(doc))
    assert main(["zdsc", str(path)]) == 3
    err = capsys.readouterr().err
    assert "zdsc.trials * horizon/dt must be <= 1e+08, got 100000 * 2000" in err
    assert "sim.dt" in err
    # 50,000 trials are exactly 1e8 fine trial-steps, and a coarser sim.dt
    # takes fewer: the loader accepts both plans.
    doc["zdsc"]["trials"] = 50_000
    assert load_problem(doc)[1].zdsc.plan(None).trials == 50_000
    doc["zdsc"]["trials"] = 100_000
    doc["sim"] = dict(SCALAR_DOC["sim"], dt=1e-2)
    _, params = load_problem(doc)
    assert params.zdsc.plan(params.sim).dt == 1e-2


@pytest.mark.parametrize(
    "tau, trials", [(1e-6, 1000), (5e-324, 1)], ids=["tau-below-dt", "subnormal-tau"]
)
def test_zdsc_trial_bound_holds_below_the_fine_step(tmp_path, capsys, tau, trials):
    # A tau below the fine step is stepped once per period: at tau = 1e-6 a
    # horizon of 1 is 1e6 steps, 1e9 with 1000 trials.  A subnormal tau
    # makes horizon/tau infinite.  Every command refuses both at load.
    doc = {k: v for k, v in SCALAR_DOC.items() if k != "sim"}
    doc["zdsc"] = dict(doc["zdsc"], tau=tau, horizon=1.0, trials=trials)
    path = tmp_path / "tiny_tau.json"
    path.write_text(json.dumps(doc))
    for command in ("zdsc", "rd-curve"):
        assert main([command, str(path)]) == 3
        assert "zdsc.trials * horizon/dt must be <= 1e+08" in capsys.readouterr().err
    # The plan's dt is the step the coder takes: here tau itself.
    doc["zdsc"] = dict(doc["zdsc"], tau=1e-6, horizon=1e-4, trials=4)
    plan = load_problem(doc)[1].zdsc.plan(None)
    assert plan.dt == 1e-6
    assert plan.horizon / plan.dt == pytest.approx(100)


def test_zdsc_step_underflow_names_tau(tmp_path, capsys):
    # tau = horizon = 5e-324 is one period cut into 10 steps, and
    # tau/10 rounds to 0: the message names the key the config has.
    doc = {k: v for k, v in SCALAR_DOC.items() if k != "sim"}
    doc["zdsc"] = dict(doc["zdsc"], tau=5e-324, horizon=5e-324)
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(doc))
    assert main(["zdsc", str(path)]) == 3
    err = capsys.readouterr().err
    assert "zdsc.tau/10 must be > 0, got tau = 5e-324" in err
    assert "zdsc.dt" not in err


def _gain_doc(delta: float) -> dict:
    return {
        "A": [[-1]],
        "B": [[1]],
        "distortion": {"value": 0.25},
        "zdsc": {"tau": 0.1, "delta": [delta], "horizon": 1.0, "trials": 16},
    }


@pytest.mark.parametrize("delta", [1e18, 1e20, 1e40, 1e-160])
def test_zdsc_gain_out_of_range_exits_3(tmp_path, capsys, delta):
    # Past 2^63/1e9 a state within the coder's 1e9 guard overflows its
    # int64 codeword (at 1e20 the rate read 2.32, at 1e40 it read 0);
    # below about 2.15e-155 the cell variance 1/(12 delta^2) overflows.
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(_gain_doc(delta)))
    assert main(["zdsc", str(path)]) == 3
    err = capsys.readouterr().err
    assert "quantizer gain" in err and repr(delta) in err


@pytest.mark.parametrize("delta", [1e10, 1e-200])
def test_rd_curve_rejects_a_gain_zdsc_rejects(tmp_path, capsys, delta):
    # The loader checks the gains of a zdsc block every command reads.
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(_gain_doc(delta)))
    assert main(["rd-curve", str(path)]) == 3
    assert "zdsc.delta[0] must be a quantizer gain in about" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [9.2e9, 2.2e-155])
def test_zdsc_gain_at_the_ends_of_its_range_runs(tmp_path, capsys, delta):
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(_gain_doc(delta)))
    assert main(["zdsc", str(path)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    if delta > 1.0:
        # Every trial's codeword is its own: the rate is log(16)/tau.
        assert float(row[2]) == pytest.approx(np.log(16.0) / 0.1, rel=1e-12)


def test_care_json_payload(scalar_config, capsys):
    code = main(["care", scalar_config, "--gain-override", "2.8284271247461903"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["P"][0][0] == pytest.approx(0.25, abs=1e-9)
    assert payload["residual"] <= 1e-7
    assert payload["info_rate_nats_per_time"] == pytest.approx(1.0, abs=1e-9)
    assert payload["closed_loop_spectrum"][0][0] == pytest.approx(-3.0, abs=1e-6)


def test_care_requires_gain(scalar_config):
    assert main(["care", scalar_config]) == 3


def test_care_rejects_wrong_gain_arity(scalar_config):
    assert main(["care", scalar_config, "--gain-override", "1,2,3"]) == 3


def test_parser_is_garbage_before_the_command_runs(scalar_config, monkeypatch):
    # The parser's reference cycles must not outlive parsing: held through
    # a command, they reach the old generation and pile up, one parser per
    # call, until a full collection.
    parsers = []
    build = immse.cli._build_parser

    def build_spy():
        parser = build()
        parsers.append(weakref.ref(parser))
        return parser

    def command(args):
        gc.collect()
        return 0 if parsers[0]() is None else 1

    monkeypatch.setattr(immse.cli, "_build_parser", build_spy)
    monkeypatch.setattr(immse.cli, "_cmd_care", command)
    assert main(["care", scalar_config, "--gain-override", "1"]) == 0


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_validate_passes_the_scalar_config_at_a_stiff_budget(capsys):
    # At D = 1e-4 the closed loop has lambda ~ -1e4, so |lambda| dt ~ 10
    # on the config's grid.
    code = main(["validate", str(REPO / "demos" / "configs" / "scalar.json"), "--D", "1e-4"])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_validate_passes_the_n16_model_at_a_small_budget(tmp_path, capsys):
    # At D = 0.01 a first-order step's bias would be about 4 times the
    # 10 dt allowance of the checks.
    doc = json.loads((REPO / "bench" / "inputs" / "curve_n16_seed1.json").read_text())
    doc["sim"] = {"dt": 1e-3, "horizon": 5.0, "trials": 16, "seed": 7}
    path = tmp_path / "n16.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--D", "0.01"]) == 0
    assert "result: PASS" in capsys.readouterr().out
