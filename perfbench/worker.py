"""Runs one workload's repetitions in a fresh process.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and the
BLAS thread count pinned.  Each repetition calls ``cvforge.cli.main`` with
the workload's argument lists; traced repetitions (``--trace 1``) make the
same calls with the program's names wrapped in spans (see ``tracing``).
Every subcommand's outputs are checked after its repetition, outside the
timed region.  After each repetition the worker times the yardstick (see
``yardstick``), which scales the reported times to the reference speed.
Between repetitions it times set-up probes in fresh interpreters, so
they are spread over the whole run.  The last line of standard output
is a JSON result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
import yardstick

# set-up probes per run, at least.  They run between repetitions, about
# evenly spaced in time, and any still missing run after the last one.
# Set-up times vary by a third from one probe to the next, so the median
# needs this many.
SETUP_PROBES = 24
PROBE_TIMEOUT_S = 60.0

# seconds of repetition per yardstick timing, with at least one timing
# per repetition: single timings vary by a third, so a long repetition
# gets several and uses their median
STICK_EVERY_S = 2.0

# what a user's batch job does before its first subcommand
SETUP_PROBE = (
    "import sys, cvforge\n"
    "from cvforge.cli import load_run_config\n"
    "load_run_config(sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def setup_seconds(config: Path) -> float:
    """Wall time from starting a fresh interpreter to ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(config)],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def _operation_failures(inputs, codes, reference) -> list[str]:
    """One entry per failed subcommand: non-zero exit or failed check."""
    failures = []
    for (name, _), code in zip(workloads.commands(inputs), codes):
        problems = (workloads.check(name, inputs, reference) if code == 0
                    else [f"{name}: exit code {code}"])
        if problems:
            failures.append("; ".join(problems))
    return failures


def journey(cli, argvs, tracer=None) -> tuple[float, list]:
    """One pass of the CLI journey: its wall time and exit codes.

    With a tracer, the program's names are wrapped for the pass and each
    ``cli.main`` call is a ``cli.<subcommand>`` root span.
    """
    codes = []
    sink = io.StringIO()
    traced = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        for argv in argvs:
            root = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            try:
                with root:
                    codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                codes.append("exception")
        wall = time.perf_counter() - t0
    return wall, codes


def run_reps(cli, inputs, reference, seconds: float, trace: bool) -> dict:
    """Repeat the journey at least once, and again while one more
    repetition, as long as the last with its output checks and
    yardstick, would end nearer to ``seconds`` than stopping now.  The
    set-up probes between repetitions are not counted against
    ``seconds``.  With ``trace``, untraced and traced repetitions
    alternate, so both see the same spells of a busy machine and their
    difference is the tracing overhead; a first, untimed repetition warms
    the process up for both.

    After each repetition the yardstick is timed once per
    ``STICK_EVERY_S`` of the repetition's wall time, at least once, and
    the median of those is the repetition's yardstick time.  A
    repetition's scaled time is its wall time times ``REFERENCE_S`` over
    the mean of the yardstick times right before and right after it, or
    of the one after it for the first repetition, whose peak memory must
    not include the yardstick's."""
    argvs = [argv for _, argv in workloads.commands(inputs)]
    durations: list[float] = []
    scaled: list[float] = []
    sticks: list[list[tuple[float, float]]] = []
    stick_s: list[float] = []
    setups: list[float] = []
    layers: list[dict] = []
    spans: list[dict] = []
    failures: list[str] = []
    peak_rss_mb = None
    spent = last = 0.0
    reps = 0
    setup_seconds(inputs.config)  # untimed: fills the bytecode and file caches
    while not durations or (trace and not layers) or spent + last / 2 <= seconds:
        for _ in range(max(1, round(SETUP_PROBES * last / seconds))):
            setups.append(setup_seconds(inputs.config))
        began = time.perf_counter()
        shutil.rmtree(inputs.out, ignore_errors=True)
        tracer = None
        if trace and len(layers) < len(durations):
            tracer = tracing.Tracer(f"{inputs.workload}-seed{inputs.seed}-rep{len(layers)}")
            wall, codes = journey(cli, argvs, tracer)
            layers.append(tracing.layer_metrics(tracer, wall))
            spans += tracer.spans
        else:
            wall, codes = journey(cli, argvs)
        reps += 1
        if peak_rss_mb is None:
            # one job's peak in a fresh process; later repetitions add
            # allocator fragmentation that varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sticks.append([yardstick.measure() for _ in range(max(1, round(wall / STICK_EVERY_S)))])
        stick_s.append(statistics.median(sum(parts) for parts in sticks[-1]))
        if tracer is None and not (trace and reps == 1):
            durations.append(wall)
            scaled.append(wall * yardstick.REFERENCE_S / statistics.mean(stick_s[-2:]))
        failures += _operation_failures(inputs, codes, reference)
        last = time.perf_counter() - began
        spent += last
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(inputs.config))
    return {
        "durations": durations,
        "scaled": scaled,
        "sticks": sticks,
        "setups": setups,
        "peak_rss_mb": peak_rss_mb,
        "attempted": reps * len(argvs),
        "failures": failures,
        "layers": layers,
        "spans": spans,
    }


def blas_version(np) -> str | None:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np
    import cvforge
    from cvforge import cli

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(cvforge.__file__).resolve().parent.parent != src:
        print(f"cvforge was imported from {cvforge.__file__}, not {src}", file=sys.stderr)
        return 2

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = workloads.inputs_at(args.workload, args.seed, args.size, args.work)

    reps = run_reps(cli, inputs, reference, args.seconds, bool(args.trace))
    failures = reps["failures"]
    stick_s = statistics.median(sum(parts) for rep in reps["sticks"] for parts in rep)
    result = {
        "task_s": statistics.median(reps["scaled"]),
        "task_wall_s": statistics.median(reps["durations"]),
        "setup_s": statistics.median(reps["setups"]) * yardstick.REFERENCE_S / stick_s,
        "setup_wall_s": statistics.median(reps["setups"]),
        "yardstick_s": stick_s,
        "peak_rss_mb": reps["peak_rss_mb"],
        "durations": reps["durations"],
        "scaled": reps["scaled"],
        "sticks": reps["sticks"],
        "setup_runs": reps["setups"],
    }
    if args.trace:
        # both sides in wall seconds: the per-layer times are not scaled
        layers = dict(tracing.median_rep(reps["layers"]))
        layers["trace.overhead_s"] = layers["trace.task_s"] - result["task_wall_s"]
        result["layers"] = layers
        spans_path = args.work / "spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(reps["spans"], fh)

    for failure, times in collections.Counter(failures).items():
        print(f"check failed ({times}x): {failure}", file=sys.stderr)
    result.update(
        attempted=reps["attempted"],
        failed=len(failures),
        env={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_version(np),
            "cvforge": getattr(cvforge, "__version__", None),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
