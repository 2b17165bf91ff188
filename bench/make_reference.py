"""Record the benchmark's reference inputs and outputs at one seed.

    python3 bench/make_reference.py --seed 1

Writes ``inputs/curve_n16_seed<seed>.json`` (the n = 16 model made from
the seed) and ``reference.json`` (the seed, the rd-curve rows of both
curve workloads and the zdsc rungs of the four-state workload).  Run it
only when a workload's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import immse.cli  # noqa: E402,F401
import workloads  # noqa: E402


def _checked(argv):
    result = run.invoke(argv)
    if result.code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.code}: {result.stderr}")
    return result.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    path = workloads.recorded_model_path(args.seed)
    workloads.write_json(path, workloads.curve_n16_model(args.seed))
    four = os.path.join(workloads.INPUTS, "four_state.json")
    reference = {"seed": args.seed}
    for name, config in (("curve-n16", path), ("four-state", four)):
        rows = workloads.parse_curve(_checked(["rd-curve", config]))
        reference[name] = {"rows": [[r.D, r.R, r.trace_P] for r in rows]}
    rungs = workloads.parse_zdsc(_checked(["zdsc", four, "--seed", str(args.seed)]))
    reference["four-state"]["zdsc"] = [list(r) for r in rungs]
    with open(os.path.join(workloads.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
