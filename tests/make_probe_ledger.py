"""Record the design probe's ledger: each draw's outcome, R and Tr P.

    PYTHONPATH=src python3 tests/make_probe_ledger.py

Writes ``probe_ledger.json`` next to this script, one row per draw of
``test_probe.py`` in draw order: the outcome class ("designed" or
"InfeasibleError") and, for a design, R and Tr P as 17-digit floats.
``test_probe_draw_designs`` checks every draw against its row.  Re-record
it only in a change that moves a design on purpose, and list there every
row that moved and by how much; never to make a failing draw pass.
"""

from __future__ import annotations

import os

import numpy as np

from immse.design import design_sensor
from immse.errors import InfeasibleError
from test_probe import DRAWS, LEDGER, probe_draw


def _row(k: int) -> str:
    model, D = probe_draw(k)
    try:
        point = design_sensor(model, D)
    except InfeasibleError:
        return f'{{"draw": {k}, "outcome": "InfeasibleError"}}'
    R, trace_P = point.R, float(np.trace(point.P))
    return f'{{"draw": {k}, "outcome": "designed", "R": {R:.17g}, "trace_P": {trace_P:.17g}}}'


def main() -> None:
    rows = ",\n".join(f"  {_row(k)}" for k in range(DRAWS))
    with open(LEDGER, "w") as out:
        out.write(f"[\n{rows}\n]\n")
    print(f"wrote {DRAWS} rows to {os.path.relpath(LEDGER)}")


if __name__ == "__main__":
    main()
