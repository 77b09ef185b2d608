"""Command line front end.

Four subcommands cover the workflow: ``build`` assembles a lattice and
dumps its state, ``sweep`` tabulates nullifier variances across
squeezing values and locates the verification threshold, ``mbqc`` runs a
measurement plan down the wire, and ``graph`` exports the final cluster
graph with its component census.

Exit codes: 0 on success with all verification rows passing, 2 when a
verification check fails, 1 on any hard error (bad configuration,
missing file, invalid plan).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import write_covariance_csv
from .graphs import (
    cluster_adjacency,
    connected_components,
    hgraph_from_trace,
    nullifiers_1d,
    nullifiers_3d,
    unit_cell_keys,
    write_adjacency_json,
    write_edge_csv,
    z_from_state,
)
from .mbqc import MbqcError, MeasurementPlan, extract_gate, run_plan
from .pipeline import (
    NopaSettings,
    PipelineConfig,
    PipelineError,
    build,
    build_1d,
    delay_permutation,
    squeezing_db,
    sweep,
)
from .verify import VerifyError, find_threshold, vlf_check


class ConfigError(ValueError):
    """The run configuration file is malformed."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: the pipeline plus execution knobs."""

    pipeline: PipelineConfig
    seed: int | None


_TOP_KEYS = {
    "kind", "n_max", "n_bins", "r", "r_p", "nopas",
    "allow_same_pump", "seed", "metadata",
}
_NOPA_KEYS = {"pump_offset", "r_signal", "r_idler"}


def _require(payload: dict, key: str, kind: type, where: str):
    if key not in payload:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = payload[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(
            f"{where}: {key} must be {kind.__name__}, got {value!r}"
        )
    return value


def parse_run_config(payload) -> RunConfig:
    """Validate a configuration document, rejecting unknown keys."""
    if not isinstance(payload, dict):
        raise ConfigError("configuration must be a JSON object")
    extra = set(payload) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown configuration keys: {sorted(extra)}")
    kind = _require(payload, "kind", str, "config")
    n_max = _require(payload, "n_max", int, "config")
    n_bins = _require(payload, "n_bins", int, "config")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError("config: metadata must be an object")
    allow_same = payload.get("allow_same_pump", False)
    if not isinstance(allow_same, bool):
        raise ConfigError("config: allow_same_pump must be a boolean")

    if "nopas" in payload:
        if "r" in payload or "r_p" in payload:
            raise ConfigError(
                "config: give either a global r (with optional r_p) "
                "or an explicit nopas list, not both"
            )
        raw = payload["nopas"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config: nopas must be a nonempty list")
        nopas = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ConfigError(f"nopas[{i}]: must be an object")
            extra = set(entry) - _NOPA_KEYS
            if extra:
                raise ConfigError(f"nopas[{i}]: unknown keys {sorted(extra)}")
            offset = _require(entry, "pump_offset", int, f"nopas[{i}]")
            r_signal = _require(entry, "r_signal", float, f"nopas[{i}]")
            r_idler = (
                None
                if "r_idler" not in entry
                else _require(entry, "r_idler", float, f"nopas[{i}]")
            )
            nopas.append(NopaSettings(offset, r_signal, r_idler))
        nopas = tuple(nopas)
    else:
        r = _require(payload, "r", float, "config")
        r_p = None if "r_p" not in payload else _require(payload, "r_p", float, "config")
        if kind == "1d":
            nopas = (NopaSettings(0, r, r_p),)
        else:
            nopas = (NopaSettings(1, r, r_p), NopaSettings(-1, r, r_p))

    seed = payload.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"config: seed must be an integer, got {seed!r}")

    try:
        pipeline = PipelineConfig(
            kind=kind,
            n_max=n_max,
            n_bins=n_bins,
            nopas=nopas,
            allow_same_pump=allow_same,
            metadata=metadata,
        )
    except PipelineError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(pipeline=pipeline, seed=seed)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    return parse_run_config(payload)


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build(args) -> int:
    run = load_run_config(args.config)
    out = _out_dir(args.out)
    state, registry, trace = build(run.pipeline, stage=args.stage)
    write_covariance_csv(state, out / "covariance.csv")
    (out / "registry.json").write_text(
        registry.to_json(delayed="delayed" in trace.stage_counts) + "\n",
        encoding="utf-8",
    )
    _write_json(out / "trace.json", trace.to_json())
    hgraph = hgraph_from_trace(trace)
    edges = write_edge_csv(hgraph.matrix, registry, out / "hgraph_edges.csv")
    print(
        f"built {run.pipeline.kind} lattice: {registry.size} modes, "
        f"{len(trace.records)} operations, {edges} squeezing edges -> {out}"
    )
    return 0


def cmd_sweep(args) -> int:
    run = load_run_config(args.config)
    out = _out_dir(args.out)
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    if args.r_min < 0 or args.r_max < args.r_min:
        raise ConfigError(
            f"bad sweep range [{args.r_min}, {args.r_max}]"
        )
    for i, source in enumerate(run.pipeline.nopas):
        # every grid point squeezes both quadratures by the same r
        if source.r_p != source.r_x:
            raise ConfigError(
                f"sweep sets r_p = r at every point, but source {i} "
                f"(pump offset {source.pump_offset}) has r_p = {source.r_p} "
                f"!= r = {source.r_x}; remove r_p / r_idler from the config"
            )
    grid = np.linspace(args.r_min, args.r_max, args.steps)
    table = sweep(run.pipeline, grid)
    table.to_csv(out / "sweep.csv")

    cfg_top = run.pipeline.with_squeezing(float(grid[-1]))
    state, registry, _ = build(cfg_top)
    nulls = (
        nullifiers_1d(registry)
        if run.pipeline.kind == "1d"
        else nullifiers_3d(registry)
    )
    report = vlf_check(state, nulls)
    report.write_json(out / "vlf.json")

    threshold_note = None
    if args.steps > 1:
        try:
            found = find_threshold(
                run.pipeline, r_lo=args.r_min, r_hi=args.r_max
            )
            _write_json(
                out / "threshold.json",
                {
                    "r": found.r,
                    "db": found.db,
                    "bound": found.bound,
                    "evaluations": found.evaluations,
                },
            )
            threshold_note = f"threshold at r={found.r:.6f} ({found.db:.4f} dB)"
        except VerifyError as exc:
            threshold_note = f"no threshold in range: {exc}"
    print(
        f"swept {len(grid)} points on [{args.r_min}, {args.r_max}] "
        f"({squeezing_db(args.r_max):.2f} dB top); "
        f"verification at top: {'PASS' if report.all_pass else 'FAIL'}"
    )
    if threshold_note:
        print(threshold_note)
    return report.exit_code


def cmd_mbqc(args) -> int:
    run = load_run_config(args.config)
    if run.pipeline.kind != "1d":
        raise ConfigError("the mbqc subcommand runs plans on wire lattices only")
    out = _out_dir(args.out)
    try:
        plan = MeasurementPlan.load(args.plan)
    except OSError as exc:
        raise ConfigError(f"cannot read plan {args.plan}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"plan {args.plan} is not valid JSON: {exc}") from exc
    seed = args.seed if args.seed is not None else run.seed
    if seed is None:
        # draw a seed and record it in gate.json, so the run can be repeated
        seed = int(np.random.SeedSequence().entropy)
    rng = np.random.default_rng(seed)
    state, registry, _ = build_1d(run.pipeline, stage="squeezed")
    result = run_plan(state, plan, rng=rng)
    result.write_records(out / "records.jsonl")

    source = run.pipeline.nopas[0]
    gate = (
        extract_gate(source.r_x, plan, r_p=source.r_p) if len(plan) else None
    )
    x_mean, p_mean = result.state.mode_quadratures(result.logical)
    _write_json(
        out / "gate.json",
        {
            "steps": len(plan),
            "rail": plan.rail,
            "seed": seed,
            "logical_mode": str(result.logical),
            "logical_mean": [x_mean, p_mean],
            "ideal_product": plan.ideal_product().tolist(),
            "extracted": None if gate is None else gate.to_json(),
        },
    )
    residual = "n/a" if gate is None else f"{gate.residual:.3e}"
    print(
        f"ran {len(plan)} steps on rail {plan.rail}; logical mode "
        f"{result.logical}; gate residual vs ideal: {residual}"
    )
    return 0


def cmd_graph(args) -> int:
    run = load_run_config(args.config)
    out = _out_dir(args.out)
    state, registry, trace = build(run.pipeline)
    z = z_from_state(state)
    laid_out = hgraph_from_trace(trace).permuted(delay_permutation(trace))
    weights = cluster_adjacency(z, hgraph=laid_out)
    write_edge_csv(weights, registry, out / "cluster_edges.csv")
    write_adjacency_json(weights, registry, out / "cluster.json")

    threshold = 1e-2
    mode_comps = connected_components(weights, threshold)
    cell_comps = connected_components(
        weights, threshold, groups=unit_cell_keys(registry)
    )
    _write_json(
        out / "components.json",
        {
            "threshold": threshold,
            "mode_level": {
                "count": len(mode_comps),
                "sizes": sorted(len(c) for c in mode_comps),
            },
            "cell_level": {
                "count": len(cell_comps),
                "sizes": sorted(len(c) for c in cell_comps),
            },
        },
    )
    print(
        f"cluster graph: {registry.size} modes, "
        f"{len(mode_comps)} mode-level / {len(cell_comps)} cell-level "
        f"components at threshold {threshold}"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvforge",
        description="Build, verify, and compute on time-frequency cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a lattice and dump its state")
    p_build.add_argument("--config", required=True, help="run configuration JSON")
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.add_argument(
        "--stage",
        default="full",
        help="stop the pipeline at this stage (default: full)",
    )
    p_build.set_defaults(func=cmd_build)

    p_sweep = sub.add_parser("sweep", help="tabulate nullifiers across squeezing")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--r-min", type=float, default=0.0)
    p_sweep.add_argument("--r-max", type=float, default=1.5)
    p_sweep.add_argument("--steps", type=int, default=16)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mbqc = sub.add_parser("mbqc", help="run a measurement plan on the wire")
    p_mbqc.add_argument("--config", required=True)
    p_mbqc.add_argument("--out", required=True)
    p_mbqc.add_argument("--plan", required=True, help="measurement plan JSON")
    p_mbqc.add_argument(
        "--seed", type=int, default=None,
        help="override the configuration's RNG seed",
    )
    p_mbqc.set_defaults(func=cmd_mbqc)

    p_graph = sub.add_parser("graph", help="export the final cluster graph")
    p_graph.add_argument("--config", required=True)
    p_graph.add_argument("--out", required=True)
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PipelineError, VerifyError, MbqcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
