"""In-memory spans around calls into cvforge, and the per-layer metrics
derived from them.

A traced repetition runs the same ``cvforge.cli.main`` calls as an
untraced one.  While it runs, ``instrument`` replaces the names that the
program itself looks up (``cvforge.cli.build``, ``cvforge.verify.build``,
``cvforge.graphs.HGraph.permuted`` and so on) with wrappers that open a
span around the original call and read counters off its arguments and
return value; the originals are put back afterwards.  So every span and
every counter is one of the program's own calls, seen from outside.

A span records its name, start, end, parent span and run id.  Spans live
in memory until the run ends; ``Tracer.spans`` is what gets written out.
The layer of a span is the part of its name before the first dot, so
``graphs.z_from_state`` belongs to the ``graphs`` layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "lattice", "pipeline", "gaussian", "graphs", "verify", "mbqc")

# metric -> span names whose inclusive durations it sums
SPAN_METRICS = {
    "cli.load_config_s": ("cli.load_run_config",),
    "pipeline.build_s": ("pipeline.build", "pipeline.build_1d"),
    "pipeline.sweep_s": ("pipeline.sweep",),
    "gaussian.write_covariance_csv_s": ("gaussian.write_covariance_csv",),
    "graphs.hgraph_s": ("graphs.hgraph_from_trace", "graphs.HGraph.permuted"),
    "graphs.z_from_state_s": ("graphs.z_from_state",),
    "graphs.cluster_adjacency_s": ("graphs.cluster_adjacency",),
    "graphs.components_s": ("graphs.connected_components", "graphs.unit_cell_keys"),
    "graphs.export_s": ("graphs.write_edge_csv", "graphs.write_adjacency_json"),
    "graphs.nullifiers_s": ("graphs.nullifiers_1d", "graphs.nullifiers_3d"),
    "verify.vlf_check_s": ("verify.vlf_check",),
    "verify.find_threshold_s": ("verify.find_threshold",),
    "mbqc.run_plan_s": ("mbqc.run_plan",),
    "mbqc.extract_gate_s": ("mbqc.extract_gate",),
}

# counters read off the wrapped calls
COUNT_METRICS = {
    "lattice.modes": "count",
    "pipeline.build_calls": "count",
    "pipeline.ops_replayed": "count",
    "gaussian.state_bytes": "bytes",
    "gaussian.covariance_csv_bytes": "bytes",
    "graphs.edges_written": "count",
    "verify.nullifiers_evaluated": "count",
    "verify.threshold_evaluations": "count",
    "mbqc.steps": "count",
}

_BUILDS = ("pipeline.build", "pipeline.build_1d")

# (module, attribute, span name): every name the CLI journeys reach.
# cli imports the layer functions by name, so its own bindings are the
# ones its subcommands call.  pipeline.sweep builds through
# pipeline.build and imports the nullifier builders from graphs at call
# time; verify.find_threshold builds through verify.build.
SPANNED = (
    ("cvforge.cli", "load_run_config", "cli.load_run_config"),
    ("cvforge.cli", "build", "pipeline.build"),
    ("cvforge.cli", "build_1d", "pipeline.build_1d"),
    ("cvforge.pipeline", "build", "pipeline.build"),
    ("cvforge.verify", "build", "pipeline.build"),
    ("cvforge.cli", "sweep", "pipeline.sweep"),
    ("cvforge.cli", "delay_permutation", "pipeline.delay_permutation"),
    ("cvforge.cli", "write_covariance_csv", "gaussian.write_covariance_csv"),
    ("cvforge.lattice", "ModeRegistry.to_json", "lattice.ModeRegistry.to_json"),
    ("cvforge.cli", "hgraph_from_trace", "graphs.hgraph_from_trace"),
    ("cvforge.graphs", "HGraph.permuted", "graphs.HGraph.permuted"),
    ("cvforge.cli", "z_from_state", "graphs.z_from_state"),
    ("cvforge.cli", "cluster_adjacency", "graphs.cluster_adjacency"),
    ("cvforge.cli", "connected_components", "graphs.connected_components"),
    ("cvforge.cli", "unit_cell_keys", "graphs.unit_cell_keys"),
    ("cvforge.cli", "write_edge_csv", "graphs.write_edge_csv"),
    ("cvforge.cli", "write_adjacency_json", "graphs.write_adjacency_json"),
    ("cvforge.cli", "nullifiers_1d", "graphs.nullifiers_1d"),
    ("cvforge.cli", "nullifiers_3d", "graphs.nullifiers_3d"),
    ("cvforge.graphs", "nullifiers_1d", "graphs.nullifiers_1d"),
    ("cvforge.graphs", "nullifiers_3d", "graphs.nullifiers_3d"),
    ("cvforge.verify", "nullifiers_1d", "graphs.nullifiers_1d"),
    ("cvforge.verify", "nullifiers_3d", "graphs.nullifiers_3d"),
    ("cvforge.cli", "vlf_check", "verify.vlf_check"),
    ("cvforge.cli", "find_threshold", "verify.find_threshold"),
    ("cvforge.cli", "run_plan", "mbqc.run_plan"),
    ("cvforge.cli", "extract_gate", "mbqc.extract_gate"),
)

# (module, attribute, counter): calls counted without a span, because
# they are many and short
COUNTED = (
    ("cvforge.graphs", "Nullifier.variance", "verify.nullifiers_evaluated"),
)


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], int(value))

    def observe(self, name: str, args: tuple, result) -> None:
        """Read the counters of one finished call off its arguments and
        return value."""
        if name in _BUILDS:
            state, registry, trace = result
            self.count("pipeline.build_calls", 1)
            self.count("pipeline.ops_replayed", len(trace.records))
            self.peak("lattice.modes", registry.size)
            self.peak("gaussian.state_bytes", state.cov.nbytes)
        elif name == "gaussian.write_covariance_csv":
            self.peak("gaussian.covariance_csv_bytes", os.stat(args[1]).st_size)
        elif name == "graphs.write_edge_csv":
            self.count("graphs.edges_written", result)
        elif name == "verify.find_threshold":
            self.count("verify.threshold_evaluations", result.evaluations)
        elif name == "mbqc.run_plan":
            self.count("mbqc.steps", len(result.records))

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.observe(name, args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _owner(path: str, attribute: str):
    """The object that holds ``attribute`` (``Class.method`` or a name)."""
    owner = importlib.import_module(path)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's own names for the duration of the block.

    A name the program no longer has is skipped with a warning, so its
    spans and counters read 0 until this table is brought up to date.
    """
    saved = []
    try:
        for path, attribute, name in SPANNED + COUNTED:
            try:
                owner, attr = _owner(path, attribute)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                print(f"tracing: {path} has no {attribute}; {name} is not traced there",
                      file=sys.stderr)
                continue
            wrap = tracer.spanned if (path, attribute, name) in SPANNED else tracer.counted
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition that took ``wall_s``.

    ``trace.task_s`` is that wall time.  The layer self times add up to
    the time the root spans cover, which falls short of it only by time
    spent outside every span.
    """
    spans = tracer.spans
    metrics: dict[str, float] = {}
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = sum((s["end"] - s["start"] for s in spans if s["name"] in names), 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        metrics[s["name"].split(".", 1)[0] + ".self_s"] += own
    metrics.update(tracer.counts)
    steps = tracer.counts["mbqc.steps"]
    metrics["mbqc.step_s"] = metrics["mbqc.run_plan_s"] / steps if steps else 0.0
    metrics["trace.task_s"] = wall_s
    return metrics


def median_rep(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Metrics of the repetition with the median ``trace.task_s``.

    One whole repetition, not a median per metric, so its numbers stay
    consistent with each other.
    """
    ranked = sorted(per_rep, key=lambda m: m["trace.task_s"])
    return ranked[(len(ranked) - 1) // 2]


def unit_of(metric: str) -> str:
    return COUNT_METRICS.get(metric, "s")
