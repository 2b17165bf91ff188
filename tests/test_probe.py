"""Seeded design probe: 300 random models and budgets across the stated range.

Draw k is the k-th model of one ``default_rng(0)`` stream, each drawn in
this order: n from {1, 2, 3, 4, 6, 8, 12, 16}; m from 1 to n + 1;
A = N(0, 1)/sqrt(n) of size n x n plus shift I, shift from
{-1.5, -0.5, 0, 0.3}; B = N(0, 1) of size n x m; and the budget
D = Tr(B B^T) / (2 (max |Re lambda(A)| + 1)) times 10^U(-4, 0.5).

Each draw is checked against its row of ``probe_ledger.json``, written by
``make_probe_ledger.py``: the same outcome, and R and Tr P within 1e-12
relative.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from immse.design import design_sensor
from immse.errors import InfeasibleError
from immse.model import DEFAULT_TOLERANCES, SystemModel
from immse.riccati import certify_residual
from test_riccati import _scipy_care

DRAWS = 300
# D8: (A, B) passes the controllability test, but float64 cannot hold the
# feasible start (see tests/test_sdp.py).
INFEASIBLE = 250
LEDGER = Path(__file__).with_name("probe_ledger.json")


@functools.cache
def _draws() -> tuple[tuple[SystemModel, float], ...]:
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(DRAWS):
        n = int(rng.choice([1, 2, 3, 4, 6, 8, 12, 16]))
        m = int(rng.integers(1, n + 2))
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        A = A + float(rng.choice([-1.5, -0.5, 0.0, 0.3])) * np.eye(n)
        B = rng.standard_normal((n, m))
        scale = float(np.trace(B @ B.T)) / (2.0 * (np.abs(np.linalg.eigvals(A).real).max() + 1.0))
        draws.append((SystemModel(A=A, B=B), scale * 10.0 ** rng.uniform(-4.0, 0.5)))
    return tuple(draws)


def probe_draw(k: int) -> tuple[SystemModel, float]:
    """The model and budget of probe draw k."""
    return _draws()[k]


@functools.cache
def _ledger() -> tuple[dict, ...]:
    rows = tuple(json.loads(LEDGER.read_text()))
    assert [row["draw"] for row in rows] == list(range(DRAWS))
    return rows


@pytest.mark.parametrize("k", range(DRAWS))
def test_probe_draw_designs(k):
    model, D = probe_draw(k)
    row = _ledger()[k]
    assert (row["outcome"] == "InfeasibleError") == (k == INFEASIBLE)
    if k == INFEASIBLE:
        with pytest.raises(InfeasibleError):
            design_sensor(model, D)
        return
    point = design_sensor(model, D)
    assert point.R >= 0.0
    assert abs(point.R - row["R"]) <= 1e-12 * abs(row["R"])
    trace_P = float(np.trace(point.P))
    assert abs(trace_P - row["trace_P"]) <= 1e-12 * abs(row["trace_P"])
    assert trace_P <= D * (1.0 + 1e-9)
    # The certifier against scipy's QZ-pencil solve, wherever that one
    # certifies too (every designable draw).  Measured worst case: 8.3e-9
    # relative on draw 192, an ill-conditioned one; the median is 3.8e-15.
    oracle = _scipy_care(model, point.C)
    if certify_residual(model, point.C, oracle, DEFAULT_TOLERANCES.residual_tol)[1] is None:
        assert np.linalg.norm(point.care.P - oracle) <= 2e-8 * np.linalg.norm(oracle)
