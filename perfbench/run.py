"""cvforge benchmark: time the CLI journeys end to end, or trace them by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bilayer_export --seed 1 --seconds 38 --trace 0

Workloads: bilayer_export, threshold_sweep, wire_teleport, or ``all``.
With ``--trace 0`` it reports setup_s, task_s and peak_rss_mb; with
``--trace 1`` the per-layer metrics of a traced run.  Every subcommand's
outputs are checked, and failed checks count as failed operations.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads
import yardstick
from tracing import unit_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# one BLAS thread: the journeys run in a single process with no extra threads
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["CVFORGE_THREADS"] = "1"
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvforge").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args, name: str) -> dict:
    work = WORK / name
    inputs = workloads.inputs_at(name, args.seed, args.size, work)
    workloads.write_inputs(inputs)
    env = child_env()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"),
         "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--size", args.size, "--work", str(work),
         "--reference", str(args.reference)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {name} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["env"].update(
        workload=name,
        seed=args.seed,
        size=args.size,
        nproc=os.cpu_count(),
        blas_threads=BLAS_THREADS,
        cvforge_threads=env["CVFORGE_THREADS"],
        git_commit=git_commit(),
        source_sha256=source_digest(),
    )
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": unit_of(k)} for k, v in result["layers"].items()}
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "task_s": {"value": result["task_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def report(name: str, result: dict, trace: int) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} (seed {result['env']['seed']}, {len(result['durations'])} untraced repetitions)")
    print(f"  setup_s      {result['setup_s']:.4f} s  (wall {result['setup_wall_s']:.4f} s)")
    print(f"  task_s       {result['task_s']:.4f} s  (wall {result['task_wall_s']:.4f} s)")
    print(f"  yardstick    {result['yardstick_s']:.4f} s  (reference {yardstick.REFERENCE_S} s)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {failed / attempted:g} ratio ({failed} of {attempted} operations failed)")
    if trace:
        for key, value in result["layers"].items():
            print(f"  {key:<34} {value:.6g}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.CONFIGS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test sizes")
    parser.add_argument("--reference", type=Path, default=workloads.REFERENCE_PATH,
                        help="reference values for the output checks")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cvforge" / "__init__.py").is_file():
        print(f"error: no cvforge sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.CONFIGS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, result in results.items():
        report(name, result, args.trace)
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in metrics_of(result, args.trace).items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
