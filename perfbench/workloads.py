"""The three benchmark journeys: their inputs, CLI commands and output
checks.

Each workload is a batch job a researcher runs with the ``cvforge`` CLI.
Inputs are made from the workload seed; the program only ever sees the
generated config and plan files.  This module does not import cvforge at
module level, so the parent benchmark process can make inputs without
loading the program it measures.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

CONFIGS = {
    "bilayer_export": {
        "full": {"kind": "3d", "n_max": 3, "n_bins": 40, "r": 1.0},
        "tiny": {"kind": "3d", "n_max": 1, "n_bins": 4, "r": 1.0},
    },
    "threshold_sweep": {
        "full": {"kind": "3d", "n_max": 2, "n_bins": 20, "r": 1.0},
        "tiny": {"kind": "3d", "n_max": 1, "n_bins": 4, "r": 1.0},
    },
    "wire_teleport": {
        "full": {"kind": "1d", "n_max": 2, "n_bins": 60, "r": 1.0},
        "tiny": {"kind": "1d", "n_max": 0, "n_bins": 3, "r": 1.0},
    },
}
PLAN_STEPS = {"full": 60, "tiny": 3}

# points of the CLI's default sweep grid, which threshold_sweep runs unchanged
SWEEP_STEPS = 16
THRESHOLD_R = math.log(2.0)
THRESHOLD_TOL = 1e-6
THRESHOLD_EVALUATIONS = 23
ROUND_OFF = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Inputs:
    """Generated input files and the output directory of one run."""

    workload: str
    seed: int
    size: str
    config: Path
    plan: Path | None
    out: Path

    @property
    def steps(self) -> int:
        return PLAN_STEPS[self.size] if self.plan is not None else 0


def plan_steps(seed: int, count: int) -> list[dict]:
    """Seeded angle pairs, kept away from gate-less pairs.

    The difference angle is drawn with |sin(theta_a - theta_b)| >= 1/2, so
    no step comes near the degenerate case where both homodynes read the
    same quadrature and the gate's entries blow up.
    """
    rng = random.Random(seed)
    steps = []
    for _ in range(count):
        theta_a = rng.uniform(-math.pi, math.pi)
        diff = rng.uniform(math.pi / 6, 5 * math.pi / 6) * rng.choice((-1.0, 1.0))
        steps.append({"theta_a": theta_a, "theta_b": theta_a - diff, "outcome": "sample"})
    return steps


def inputs_at(workload: str, seed: int, size: str, work: Path) -> Inputs:
    plan = work / "plan.json" if workload == "wire_teleport" else None
    return Inputs(workload, seed, size, work / "config.json", plan, work / "out")


def write_inputs(inputs: Inputs) -> None:
    """Write the config (and plan) the program reads, made from the seed."""
    inputs.config.parent.mkdir(parents=True, exist_ok=True)
    config = {**CONFIGS[inputs.workload][inputs.size], "seed": inputs.seed}
    inputs.config.write_text(json.dumps(config) + "\n")
    if inputs.plan is not None:
        plan = {"rail": 0, "steps": plan_steps(inputs.seed, inputs.steps)}
        inputs.plan.write_text(json.dumps(plan) + "\n")


def commands(inputs: Inputs) -> list[tuple[str, list[str]]]:
    """The workload's subcommand sequence as ``cli.main`` argument lists."""
    common = ["--config", str(inputs.config), "--out", str(inputs.out)]
    if inputs.workload == "bilayer_export":
        return [("build", ["build", *common]), ("graph", ["graph", *common])]
    if inputs.workload == "threshold_sweep":
        return [("sweep", ["sweep", *common])]
    return [("mbqc", ["mbqc", *common, "--plan", str(inputs.plan), "--seed", str(inputs.seed)])]


# ---------------------------------------------------------------------------
# Fingerprints of large outputs, compared against reference.json


def covariance_fingerprint(path: Path, entries=None) -> dict:
    """Aggregates of covariance.csv plus the values at given positions."""
    import numpy as np

    cov = np.loadtxt(path, delimiter=",", ndmin=2)
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal((2, cov.shape[0]))
    if entries is None:
        # first and last nonzero of a dozen evenly spaced rows
        entries = []
        for i in np.linspace(0, cov.shape[0] - 1, 12).astype(int):
            nz = np.flatnonzero(cov[i])
            entries += [[int(i), int(nz[0])], [int(i), int(nz[-1])]]
    return {
        "shape": list(cov.shape),
        "nonzeros": int(np.count_nonzero(np.abs(cov) > 1e-12)),
        "sum": float(cov.sum()),
        "abs_sum": float(np.abs(cov).sum()),
        "square_sum": float((cov * cov).sum()),
        "trace": float(np.trace(cov)),
        "u_cov_u": float(u @ cov @ u),
        "u_cov_v": float(u @ cov @ v),
        "entries": [[i, j, float(cov[i, j])] for i, j, *_ in entries],
    }


def edges_fingerprint(path: Path, sample=None) -> dict:
    """Aggregates of an edge CSV plus the weights of given edges.

    ``hashed_sum`` weights each edge by a fixed pseudo-random sign taken
    from its labels, so moving a weight to another edge changes it.
    """
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    w = np.array([float(r[2]) for r in rows])
    sign = np.array([zlib.crc32(f"{a},{b}".encode()) / 2**31 - 1.0 for a, b, _ in rows])
    lookup = {(a, b): float(x) for (a, b, _), x in zip(rows, w)}
    if sample is None:
        sample = [rows[i][:2] for i in range(0, len(rows), max(1, len(rows) // 16))]
    return {
        "edges": len(rows),
        "sum": float(w.sum()),
        "abs_sum": float(np.abs(w).sum()),
        "square_sum": float((w * w).sum()),
        "hashed_sum": float(w @ sign),
        "sample": [[a, b, lookup.get((a, b), math.nan)] for a, b, *_ in sample],
    }


def _compare(errors: list[str], where: str, got, want) -> None:
    if isinstance(want, dict):
        for key, value in want.items():
            _compare(errors, f"{where}.{key}", got.get(key), value)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{where}: got {got!r:.80}, want {len(want)} items")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(errors, f"{where}[{i}]", g, w)
    elif isinstance(want, float):
        if not (isinstance(got, float) and abs(got - want) <= ROUND_OFF * max(1.0, abs(want))):
            errors.append(f"{where}: got {got!r}, want {want!r}")
    elif got != want:
        errors.append(f"{where}: got {got!r}, want {want!r}")


def csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(workload: str, size: str, reference: dict) -> dict:
    ref = reference[workload][size]
    if ref["config"] != CONFIGS[workload][size]:
        raise ValueError(f"reference was made for config {ref['config']}")
    return ref


def bilayer_reference(out: Path) -> dict:
    """Reference values for bilayer_export, read from a finished run."""
    cov = covariance_fingerprint(out / "covariance.csv")
    edges = edges_fingerprint(out / "cluster_edges.csv")
    components = _load(out / "components.json")
    return {
        "build": {
            "modes": _load(out / "registry.json")["size"],
            "ops": len(_load(out / "trace.json")["records"]),
            "hgraph_edges": csv_rows(out / "hgraph_edges.csv"),
            "covariance": cov,
        },
        "graph": {
            "cluster_edges": edges,
            "mode_components": components["mode_level"]["count"],
            "cell_components": components["cell_level"]["count"],
        },
    }


def _check_bilayer(command: str, inputs: Inputs, reference: dict) -> list[str]:
    errors: list[str] = []
    ref = reference_for(inputs.workload, inputs.size, reference)[command]
    out = inputs.out
    if command == "build":
        got = {
            "modes": _load(out / "registry.json")["size"],
            "ops": len(_load(out / "trace.json")["records"]),
            "hgraph_edges": csv_rows(out / "hgraph_edges.csv"),
            "covariance": covariance_fingerprint(
                out / "covariance.csv", ref["covariance"]["entries"]),
        }
    else:
        components = _load(out / "components.json")
        cluster = _load(out / "cluster.json")
        got = {
            "cluster_edges": edges_fingerprint(
                out / "cluster_edges.csv", ref["cluster_edges"]["sample"]),
            "mode_components": components["mode_level"]["count"],
            "cell_components": components["cell_level"]["count"],
        }
        if len(cluster["edges"]) != got["cluster_edges"]["edges"]:
            errors.append("cluster.json and cluster_edges.csv disagree on the edge count")
    _compare(errors, command, got, ref)
    return errors


def _check_sweep(inputs: Inputs) -> list[str]:
    errors = []
    out = inputs.out
    found = _load(out / "threshold.json")
    if not abs(found["r"] - THRESHOLD_R) <= THRESHOLD_TOL:
        errors.append(f"threshold r={found['r']!r} is not within {THRESHOLD_TOL} of ln 2")
    if found["evaluations"] != THRESHOLD_EVALUATIONS:
        errors.append(f"threshold search used {found['evaluations']} evaluations, "
                      f"want {THRESHOLD_EVALUATIONS}")
    vlf = _load(out / "vlf.json")
    if vlf["all_pass"] is not True:
        errors.append("verification at the top of the grid is not PASS")
    rows = csv_rows(out / "sweep.csv")
    if rows != SWEEP_STEPS * len(vlf["rows"]):
        errors.append(f"sweep.csv has {rows} rows, want {SWEEP_STEPS} x {len(vlf['rows'])}")
    return errors


def _check_mbqc(inputs: Inputs) -> list[str]:
    errors = []
    out = inputs.out
    with open(out / "records.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != inputs.steps:
        errors.append(f"{len(records)} step records, want {inputs.steps}")
    if not all(math.isfinite(r["outcome_a"]) and math.isfinite(r["outcome_b"]) for r in records):
        errors.append("a homodyne outcome is not finite")
    gate = _load(out / "gate.json")
    if gate["steps"] != inputs.steps:
        errors.append(f"gate.json reports {gate['steps']} steps, want {inputs.steps}")
    # feedforward makes the logical mean outcome independent; the input mean is 0
    if not max(abs(x) for x in gate["logical_mean"]) <= ROUND_OFF:
        errors.append(f"logical mean {gate['logical_mean']} is not 0")
    return errors


def check(command: str, inputs: Inputs, reference: dict) -> list[str]:
    """Problems found in the outputs of one subcommand; empty when correct."""
    try:
        if inputs.workload == "bilayer_export":
            return _check_bilayer(command, inputs, reference)
        if inputs.workload == "threshold_sweep":
            return _check_sweep(inputs)
        return _check_mbqc(inputs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: cannot check outputs: {exc!r}"]
