"""Problem containers, structural checks, and config-file ingestion."""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from immse.errors import InputValidationError
from immse.model import (
    DEFAULT_TOLERANCES,
    SensorGain,
    SimConfig,
    SystemModel,
    Tolerances,
    ZdscParams,
    check_controllable,
    check_detectable,
    load_problem,
)
from immse.riccati import solve_care
from test_design import _stable_n16_model


def test_system_model_freezes_arrays():
    model = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
    with pytest.raises(ValueError):
        model.A[0, 0] = 5.0
    assert model.n == 1 and model.m == 1


def test_system_model_collects_all_violations():
    with pytest.raises(InputValidationError) as err:
        SystemModel(A=np.ones((2, 3)), B=np.array([[np.nan]]))
    text = str(err.value)
    assert "A" in text and "B" in text, "both problems must be reported at once"


def test_system_model_shape_mismatch():
    with pytest.raises(InputValidationError):
        SystemModel(A=-np.eye(2), B=np.ones((3, 1)))


def test_sensor_gain_must_be_square():
    with pytest.raises(InputValidationError):
        SensorGain(C=np.ones((1, 2)))


def test_tolerances_positive():
    with pytest.raises(InputValidationError):
        Tolerances(eig_tol=0.0)
    assert DEFAULT_TOLERANCES.gap_tol == 1e-8


def test_controllable_chain():
    # Integrator chain driven from the last state: classic controllable pair.
    model = SystemModel(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.array([[0.0], [1.0]]))
    report = check_controllable(model)
    assert bool(report) and report.rank == 2


def test_uncontrollable_decoupled_mode():
    model = SystemModel(A=np.eye(2), B=np.array([[1.0], [0.0]]))
    report = check_controllable(model)
    assert not report.controllable and report.rank == 1


def test_controllability_similarity_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, max(1, n - 1)))
        base = check_controllable(SystemModel(A=A, B=B)).controllable
        T = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        Ti = np.linalg.inv(T)
        mapped = check_controllable(SystemModel(A=T @ A @ Ti, B=T @ B)).controllable
        assert mapped == base


def test_detectable_examples():
    stable = SystemModel(A=-np.eye(2), B=np.eye(2))
    assert check_detectable(stable, SensorGain(C=np.zeros((2, 2))))
    mixed = SystemModel(A=np.diag([1.0, -1.0]), B=np.eye(2))
    assert check_detectable(mixed, SensorGain(C=np.diag([1.0, 0.0])))
    assert not check_detectable(mixed, SensorGain(C=np.diag([0.0, 1.0])))


def test_detectability_dual_to_controllability_when_all_modes_unstable():
    # With every eigenvalue in the closed right half plane, detectability
    # degenerates to observability, which is controllability of the
    # transposed pair.
    rng = np.random.default_rng(17)
    for trial in range(26):
        n = int(rng.integers(1, 5)) if trial < 25 else 16
        R = rng.normal(size=(n, n))
        A = R + (np.abs(np.linalg.eigvals(R).real).max() + 1.0) * np.eye(n)
        C = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) > 0.5)
        det = check_detectable(SystemModel(A=A, B=np.eye(n)), SensorGain(C=C))
        dual = check_controllable(SystemModel(A=A.T, B=C.T)).controllable
        assert det == dual


def _d1_model(seed: int, n: int = 16) -> dict:
    """Random stable A (spectral abscissa -1) with a random square B: the
    generator of the benchmark's D1 probe."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    A = M - (float(np.linalg.eigvals(M).real.max()) + 1.0) * np.eye(n)
    return {"A": A.tolist(), "B": B.tolist(), "distortion": {"value": 1.0}}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_stable_n16_with_square_b_is_accepted(seed):
    # The Krylov matrix [B, AB, ..., A^15 B] of these models has
    # sigma_16 / sigma_1 near 1e-13, and its rank test called them
    # uncontrollable (rank 13 to 15 of 16).
    doc = _d1_model(seed)
    model, _ = load_problem(doc)
    assert check_controllable(model).rank == 16
    solve_care(model, SensorGain(C=np.eye(16)))


def test_random_single_input_n16_pair_is_controllable():
    # The Krylov rank test reported rank 12 of 16 for this pair.
    rng = np.random.default_rng(3)
    model = SystemModel(A=rng.standard_normal((16, 16)), B=rng.standard_normal((16, 1)))
    report = check_controllable(model)
    assert report.controllable and report.rank == 16


def _uncontrollable_pair(n: int = 6, k: int = 4):
    """(A, B) = Q (blkdiag(Ac, Au), [Bc; 0]) for a random orthogonal Q:
    k controllable modes, and n - k uncontrollable ones with Au unstable.
    With C = B B^T the uncontrollable modes are also unobservable."""
    rng = np.random.default_rng(41)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = np.zeros((n, n))
    A[:k, :k] = rng.standard_normal((k, k))
    A[k:, k:] = rng.standard_normal((n - k, n - k)) + 3.0 * np.eye(n - k)
    B = np.zeros((n, 1))
    B[:k] = rng.standard_normal((k, 1))
    return SystemModel(A=Q @ A @ Q.T, B=Q @ B)


@pytest.mark.parametrize("alpha", [1e-6, 1e6])
@pytest.mark.parametrize("which", ["curve-n16", "uncontrollable"])
def test_pair_tests_invariant_under_joint_rescaling(which, alpha):
    model = _stable_n16_model(seed=1) if which == "curve-n16" else _uncontrollable_pair()
    C = model.B @ model.B.T
    scaled = SystemModel(A=alpha * model.A, B=alpha * model.B)
    report = check_controllable(model)
    assert report.rank == (16 if which == "curve-n16" else 4)
    assert check_controllable(scaled).rank == report.rank
    detectable = check_detectable(model, SensorGain(C=C))
    assert detectable == (which == "curve-n16")
    assert check_detectable(scaled, SensorGain(C=alpha * C)) == detectable


@pytest.mark.parametrize("which", ["curve-n16", "uncontrollable"])
def test_pair_tests_invariant_under_rescaling_B_or_C_alone(which):
    # The staircase puts B (by duality C^T) in A's binade before any rank
    # decision; with eig_tol * ||[A, B]|| alone as the threshold, a B far
    # below A's scale read as rank 0 and one far above it as rank < n.
    model = _stable_n16_model(seed=1) if which == "curve-n16" else _uncontrollable_pair()
    C = model.B @ model.B.T
    rank = check_controllable(model).rank
    detectable = check_detectable(model, SensorGain(C=C))
    for k in range(-60, 61):
        assert check_controllable(SystemModel(A=model.A, B=np.ldexp(model.B, k))).rank == rank
        assert check_detectable(model, SensorGain(C=np.ldexp(C, k))) == detectable


def _base_doc():
    return {
        "A": [[-1.0]],
        "B": [[1.0]],
        "distortion": {"grid": [0.1, 0.25, 0.5]},
    }


def test_load_problem_minimal_mapping():
    model, params = load_problem(_base_doc())
    assert model.n == 1
    assert params.distortion == (0.1, 0.25, 0.5)
    assert params.sim is None and params.zdsc is None
    assert params.tolerances == DEFAULT_TOLERANCES


def test_load_problem_single_value_becomes_singleton_grid():
    doc = _base_doc()
    doc["distortion"] = {"value": 0.25}
    _, params = load_problem(doc)
    assert params.distortion == (0.25,)


def test_load_problem_full_blocks():
    doc = _base_doc()
    doc["sim"] = {"dt": 1e-3, "horizon": 20.0, "trials": 8, "seed": 42}
    doc["zdsc"] = {"tau": 0.1, "delta": [2.0, 4.0], "horizon": 1.0, "trials": 64}
    doc["tolerances"] = {"gap_tol": 1e-7}
    _, params = load_problem(doc)
    assert params.sim == SimConfig(**doc["sim"])
    assert params.zdsc.delta == ((2.0,), (4.0,))
    assert params.tolerances.gap_tol == 1e-7
    assert params.tolerances.eig_tol == DEFAULT_TOLERANCES.eig_tol


def test_load_problem_multistate_delta_forms():
    doc = {
        "A": [[-1.0, 0.0], [0.0, -2.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "distortion": {"value": 0.5},
        "zdsc": {"tau": 0.1, "delta": [2.0, 3.0], "horizon": 1.0, "trials": 16},
    }
    _, params = load_problem(doc)
    # A flat list on a 2-state model is one setting, not a ladder.
    assert params.zdsc.delta == ((2.0, 3.0),)
    doc["zdsc"]["delta"] = [[2.0, 3.0], [4.0, 6.0]]
    _, params = load_problem(doc)
    assert params.zdsc.delta == ((2.0, 3.0), (4.0, 6.0))


def test_load_problem_collects_violations():
    doc = {
        "A": [[-1.0, 0.0]],
        "B": [[1.0]],
        "distortion": {"grid": [0.5, 0.25]},
        "mystery": 1,
    }
    with pytest.raises(InputValidationError) as err:
        load_problem(doc)
    text = str(err.value)
    assert "ascending" in text
    assert "mystery" in text


def test_load_problem_grid_value_exclusive():
    doc = _base_doc()
    doc["distortion"] = {"grid": [0.1], "value": 0.1}
    with pytest.raises(InputValidationError):
        load_problem(doc)
    doc["distortion"] = {}
    with pytest.raises(InputValidationError):
        load_problem(doc)


def test_load_problem_sim_block_validation():
    doc = _base_doc()
    doc["sim"] = {"dt": 1e-3, "horizon": 20.0, "trials": 8}
    with pytest.raises(InputValidationError, match="seed"):
        load_problem(doc)
    doc["sim"] = {"dt": 1.0, "horizon": 5.0, "trials": 8, "seed": 1}
    with pytest.raises(InputValidationError):
        load_problem(doc)  # horizon < 10 dt


def test_sim_config_fields_are_the_documented_sim_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("```jsonc")[1].split("```")[0]
    for name, cls in (("sim", SimConfig), ("zdsc", ZdscParams), ("tolerances", Tolerances)):
        block = re.search(rf'"{name}": \{{(.*?)\}}', schema, re.S).group(1)
        assert [f.name for f in fields(cls)] == re.findall(r'"(\w+)":', block), name


def test_zdsc_params_checks_its_own_ranges():
    good = dict(tau=0.1, delta=((2.0,),), horizon=1.0, trials=4)
    assert ZdscParams(**good).trials == 4
    for bad in ({"tau": 0.0}, {"tau": -0.1}, {"horizon": 0.05}, {"trials": 0}):
        with pytest.raises(InputValidationError, match=next(iter(bad))):
            ZdscParams(**dict(good, **bad))
    # Through the loader, the type's message carries the block's name.
    doc = _base_doc()
    doc["zdsc"] = {"tau": 0.1, "delta": [2.0], "horizon": 0.05, "trials": 4}
    with pytest.raises(InputValidationError, match=r"^zdsc\.horizon must be >= 1\*tau"):
        load_problem(doc)


@pytest.mark.parametrize("gain", [1e10, 1e-200])
@pytest.mark.parametrize("delta", ["flat", "nested"])
def test_load_problem_rejects_a_gain_the_coder_rejects(gain, delta):
    # Past 9.223e9 a state within the coder's guard overflows its int64
    # codeword; below 2.153e-155 the cell variance overflows.
    doc = _base_doc()
    rungs = [2.0, gain] if delta == "flat" else [[2.0], [gain]]
    doc["zdsc"] = {"tau": 0.1, "delta": rungs, "horizon": 1.0, "trials": 4}
    with pytest.raises(InputValidationError) as err:
        load_problem(doc)
    where = "zdsc.delta[1]" if delta == "flat" else "zdsc.delta[1][0]"
    assert err.value.violations == [
        f"{where} must be a quantizer gain in about [2.153e-155, 9.223e9), got {gain!r}"
    ]


_HUGE = 10**400  # 401 digits: converting it to a float overflows

# Each key, with the block that puts the oversized number there.
_OVERSIZED = {
    "A": [[_HUGE]],
    "distortion.value": {"value": _HUGE},
    "distortion.grid[1]": {"grid": [0.1, _HUGE]},
    "zdsc.delta[0]": {"tau": 0.1, "delta": [_HUGE], "horizon": 1.0, "trials": 4},
    "tolerances.gap_tol": {"gap_tol": _HUGE},
}


@pytest.mark.parametrize("key", list(_OVERSIZED))
def test_load_problem_reports_oversized_numbers(key):
    doc = dict(_base_doc(), **{re.match(r"\w+", key).group(): _OVERSIZED[key]})
    with pytest.raises(InputValidationError) as err:
        load_problem(doc)
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith(f"{key} "), err.value.violations


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_base_doc()))
    model, params = load_problem(str(path))
    assert model.m == 1 and len(params.distortion) == 3


def test_load_problem_file_errors_propagate(tmp_path):
    with pytest.raises(OSError):
        load_problem(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(json.JSONDecodeError):
        load_problem(str(bad))
