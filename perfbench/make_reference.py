"""Writes reference.json: the bilayer_export outputs the checks compare to.

Run from the root of a source checkout, on a commit whose outputs are
trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py

Later commits are checked against these values to round-off tolerance,
so regenerate them only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

WORK = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench" / "reference"


def main() -> int:
    from cvforge import cli

    reference = {"bilayer_export": {}}
    for size, config in workloads.CONFIGS["bilayer_export"].items():
        inputs = workloads.inputs_at("bilayer_export", 0, size, WORK / size)
        workloads.write_inputs(inputs)
        for _, argv in workloads.commands(inputs):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    print(f"cvforge {' '.join(argv)} failed", file=sys.stderr)
                    return 1
        reference["bilayer_export"][size] = {
            "config": config, **workloads.bilayer_reference(inputs.out)
        }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
