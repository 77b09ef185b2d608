"""Self-test of the benchmark at tiny sizes (3d (1,4), 1d (0,3), 3-step plan).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that
- every workload, untraced and traced, emits each metric BENCHMARK.json
  names, with its unit, and passes its output checks;
- the untraced task_s and setup_s are the wall times scaled by the
  yardstick next to them;
- the traced run's span file links spans to their parents, its root
  spans are the journey's ``cli.<subcommand>`` calls and cover the traced
  repetition's wall time, and the layer self times add up to the
  untraced task time plus the tracing overhead;
- the traced counters agree with the outputs they count;
- tracing puts back every name of the program it wrapped;
- a deliberately wrong reference value is reported as a failed operation;
- without the program's sources the benchmark exits non-zero and prints
  no result.
It prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
import yardstick

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build" / "perfbench" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    result = last_json(bench("--workload", workload, "--seed", "5", "--trace", str(trace),
                             "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] and result["failed"] == 0, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{metric['name']} value {got}"
    assert set(result["metrics"]) == {m["name"] for m in wanted}, "unlisted metrics emitted"
    if trace:
        check_spans(workload, result["metrics"])
    else:
        check_scaling(workload, result["metrics"])


def check_scaling(workload: str, metrics: dict) -> None:
    """task_s and setup_s are the wall times scaled by the yardstick."""
    with open(ROOT / ".bench_build" / "perfbench" / workload / "result.json") as fh:
        result = json.load(fh)
    sticks = [statistics.median(sum(parts) for parts in rep) for rep in result["sticks"]]
    assert len(sticks) == len(result["durations"]), "yardsticks for every repetition"
    scaled = [wall * yardstick.REFERENCE_S / statistics.mean(sticks[max(0, i - 1):i + 1])
              for i, wall in enumerate(result["durations"])]
    assert math.isclose(metrics["task_s"]["value"], statistics.median(scaled)), "task_s scaling"
    every = [sum(parts) for rep in result["sticks"] for parts in rep]
    setup = (statistics.median(result["setup_runs"]) * yardstick.REFERENCE_S
             / statistics.median(every))
    assert math.isclose(metrics["setup_s"]["value"], setup), "setup_s scaling"


def check_spans(workload: str, metrics: dict) -> None:
    work = ROOT / ".bench_build" / "perfbench" / workload
    with open(work / "spans.json") as fh:
        spans = json.load(fh)
    with open(work / "result.json") as fh:
        untraced_task_s = json.load(fh)["task_wall_s"]
    ids = {(s["run"], s["id"]) for s in spans}
    children = [s for s in spans if s["parent"] is not None]
    assert children, "no span has a parent"
    assert all((s["run"], s["parent"]) in ids for s in children), "dangling parent link"
    assert all(s["start"] <= s["end"] for s in spans), "span ends before it starts"
    roots = {s["name"] for s in spans if s["parent"] is None}
    assert roots == {f"cli.{argv[0]}" for _, argv in workloads.commands(
        workloads.inputs_at(workload, 5, "tiny", work))}, f"root spans {roots}"
    # the root spans must cover the traced repetition's wall time
    self_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    wall = metrics["trace.task_s"]["value"]
    uncovered = wall - self_sum
    assert -1e-9 <= uncovered <= 1e-3 + 0.02 * wall, f"{uncovered:.6f} s outside every span"
    # the overhead is traced minus untraced wall time, so the self times
    # add up to the untraced wall task time plus trace.overhead_s, less
    # `uncovered`
    overhead = metrics["trace.overhead_s"]["value"]
    assert abs(overhead - (wall - untraced_task_s)) <= 1e-9, "overhead is not traced - untraced"
    check_counters(workload, metrics, work / "out")


def check_counters(workload: str, metrics: dict, out: Path) -> None:
    """Counters read off the wrapped calls agree with the outputs."""
    def value(name):
        return metrics[name]["value"]

    assert value("pipeline.build_calls") >= 1 and value("lattice.modes") >= 1, "no build seen"
    if workload == "bilayer_export":
        edges = sum(workloads.csv_rows(out / f) for f in ("hgraph_edges.csv", "cluster_edges.csv"))
        assert value("graphs.edges_written") == edges, "graphs.edges_written"
        size = (out / "covariance.csv").stat().st_size
        assert value("gaussian.covariance_csv_bytes") == size, "gaussian.covariance_csv_bytes"
    elif workload == "threshold_sweep":
        found = json.loads((out / "threshold.json").read_text())
        assert value("verify.threshold_evaluations") == found["evaluations"], "threshold evaluations"
        assert value("verify.nullifiers_evaluated") > workloads.csv_rows(out / "sweep.csv"), \
            "fewer nullifier evaluations than sweep rows"
    else:
        steps = len((out / "records.jsonl").read_text().splitlines())
        assert value("mbqc.steps") == steps, "mbqc.steps"


def check_instrument_restores() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from cvforge import cli, graphs, pipeline, verify

    before = (cli.build, pipeline.build, verify.build, graphs.HGraph.permuted,
              graphs.Nullifier.variance)
    with tracing.instrument(tracing.Tracer("restore")):
        assert cli.build is not before[0], "cli.build was not wrapped"
    after = (cli.build, pipeline.build, verify.build, graphs.HGraph.permuted,
             graphs.Nullifier.variance)
    assert after == before, "instrument left a wrapper in place"


def check_wrong_reference() -> None:
    with open(workloads.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    reference["bilayer_export"]["tiny"]["build"]["covariance"]["trace"] += 1e-3
    WORK.mkdir(parents=True, exist_ok=True)
    wrong = WORK / "wrong_reference.json"
    wrong.write_text(json.dumps(reference))
    result = last_json(bench("--workload", "bilayer_export", "--seed", "5", "--size", "tiny",
                             "--reference", str(wrong)))
    assert not result["correct"], "a wrong reference passed"
    # build fails its check in every repetition, graph passes
    assert 2 * result["failed"] == result["attempted"], result


def check_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bilayer_export", "--seed", "1", cwd=bare)
    assert proc.returncode != 0, "exit code 0 without sources"
    assert not proc.stdout.strip(), f"printed {proc.stdout!r}"


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    checks = [(f"metrics {w} trace={t}", lambda w=w, t=t: check_metrics(spec, w, t))
              for w in spec_workloads(spec) for t in (0, 1)]
    checks += [("instrument restores the program's names", check_instrument_restores),
               ("wrong reference is a failure", check_wrong_reference),
               ("no sources, no result", check_without_sources)]
    failed = 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok    {name}")
        except (AssertionError, KeyError, ValueError, OSError,
                subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


def spec_workloads(spec: dict) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.CONFIGS), names
    return names


if __name__ == "__main__":
    sys.exit(main())
