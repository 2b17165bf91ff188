"""Each README demo runs to completion against the package as imported here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import immse

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = [str(Path(immse.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
