"""Entry point of the pipeline benchmark.

    python3 benchmarks/pipeline/run.py --workload upload_durable \\
        --seed 2016 --seconds 16 --trace 0

measures one workload in this process and prints, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Without ``--workload`` every workload runs in turn,
each in a subprocess of its own (so ``peak_rss_mb`` is per workload).
``--smoke`` is a quick all-workloads run with every check on;
``--selfcheck`` runs everything twice and compares the two.

Every invocation appends one line to ``results/history.jsonl``; a
traced run also writes ``results/trace-<workload>.jsonl``.  Datasets
and stores live in one temporary directory under ``results/`` that is
removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")

#: Times the dataset is set up per run; ``setup_s`` is the median.
SETUP_REPETITIONS = 3
#: Ticks of the reference kernel behind the calibration at either end
#: of a run.
CALIBRATION_TICKS = 16
SMOKE_SCALE = 0.002
SMOKE_SECONDS = 1.0


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.pipeline`` importable from a
    bare ``python3 benchmarks/pipeline/run.py``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("error: the program under test is missing: no "
                 "package at %s" % os.path.join(src, "repro"))
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload, in this process ------------------------------------------


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _default_sigterm() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def measure(args: argparse.Namespace) -> int:
    # A terminated run must still remove its temporary directory.  The
    # program's forked pool workers must not inherit that: a worker
    # that takes Pool.terminate()'s SIGTERM in the instant before it
    # blocks on the task queue's lock would note the signal, never run
    # the handler, and be joined forever.
    signal.signal(signal.SIGTERM, _terminated)
    os.register_at_fork(after_in_child=_default_sigterm)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args: argparse.Namespace, workdir: str) -> int:
    from benchmarks.pipeline import metrics, workloads
    from benchmarks.pipeline.host import Host
    from benchmarks.pipeline.trace import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    kind = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    host = Host()
    ctx = _set_up(args, workdir, kind.stream_blocks(sizes), tracer,
                  host)
    # The load generator's own objects are not the program's garbage:
    # keep the collector from walking them inside the timed loops.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    traced = _run_passes(args, kind(ctx, sizes), ctx, tracer)
    measured_s = time.perf_counter() - started
    ctx.rec.repetition("peak_rss_mb", [resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0])

    if args.trace:
        stats = metrics.per_layer(ctx, tracer, traced)
        tracer.write(os.path.join(RESULTS,
                                  "trace-%s.jsonl" % args.workload))
    else:
        stats = metrics.end_to_end(ctx)
    rec = ctx.rec
    correct = rec.failed == 0
    for name, stat in stats.items():
        spread = "" if stat.q1 is None else \
            "  q1=%.6g q3=%.6g n=%d" % (stat.q1, stat.q3, stat.n)
        print("%-20s %-40s %14.6g %-10s%s"
              % (args.workload, name, stat.value, stat.unit, spread))
    print("%-20s passes=%d measured_s=%.2f attempted=%d failed=%d "
          "failed_share=%.6g"
          % (args.workload, len(rec.passes), measured_s,
             rec.attempted, rec.failed, rec.failed / rec.attempted))
    for problem in rec.problems:
        print("%s: FAILED: %s" % (args.workload, problem),
              file=sys.stderr)
    _append_history({
        "workload": args.workload, "seed": args.seed,
        "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "passes": len(rec.passes),
        "measured_s": measured_s, "correct": correct,
        "attempted": rec.attempted, "failed": rec.failed,
        "calibration_start_ms": 1000.0 * metrics.median(
            host.ticks[:CALIBRATION_TICKS]),
        "calibration_end_ms": 1000.0 * metrics.median(
            host.ticks[-CALIBRATION_TICKS:]),
        "calibration_ms": 1000.0 * metrics.median(host.ticks),
        "metrics": {name: stat._asdict()
                    for name, stat in stats.items()}})
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": stat.value, "unit": stat.unit}
                    for name, stat in stats.items()}}))
    return 0 if correct else 1


def _set_up(args: argparse.Namespace, workdir: str, stream_blocks,
            tracer, host):
    """Build the dataset (several times: ``setup_s`` is the median),
    the reference and the panel stream; returns the run's context
    with the set-up's own timings already recorded."""
    from benchmarks.pipeline import dataset as datasets
    from benchmarks.pipeline import phases

    timings = []
    dataset = None
    for index in range(1 if args.smoke else SETUP_REPETITIONS):
        dataset = None                  # one copy in memory at a time
        directory = os.path.join(workdir, "dataset-%d" % index)
        dataset = datasets.build(args.seed, args.scale, directory,
                                 host)
        timings.append({"setup_s": dataset.setup_s,
                        "generate_s": dataset.generate_s,
                        "decode_s": dataset.decode_s,
                        "encode_s": dataset.encode_s})
        if index:
            shutil.rmtree(os.path.join(workdir,
                                       "dataset-%d" % (index - 1)))
    reference, digest, add_s, digest_s = \
        datasets.reference(dataset.records, host)
    timings.append({"rollup_add_s": add_s,
                    "rollup_digest_s": digest_s})
    stream = datasets.panel_stream(dataset.records, args.seed,
                                   stream_blocks)
    ctx = phases.Context(dataset, reference, digest, stream, workdir,
                         tracer, host)
    for timing in timings:
        for name, seconds in timing.items():
            ctx.rec.repetition(name, [seconds])
    return ctx


def _run_passes(args: argparse.Namespace, workload, ctx, tracer
                ) -> List[int]:
    """Warm up, then pass after pass until ``--seconds`` are used;
    returns the indices of the passes that ran traced."""
    min_passes = 1 if args.smoke else 2
    traced: List[int] = []
    pass_s: List[float] = []
    started = time.perf_counter()
    try:
        with ctx.host.device():
            workload.prepare()
            with ctx.discarding():
                workload.warm_up()
            while _another_pass(pass_s, min_passes,
                                time.perf_counter() - started,
                                args.seconds):
                index = tracer.region = len(pass_s)
                pass_started = time.perf_counter()
                ctx.rec.begin_pass()
                # Every pass feeds the program the same inputs: the
                # first pays for the expensive checks, on behalf of
                # all.
                ctx.checking = index == 0
                # Odd passes are traced, even ones not, so one process
                # yields both sides of trace.overhead_ratio (the smoke
                # run has a single pass, and traces it).
                if args.trace and (index % 2 or args.smoke):
                    tracer.install()
                    traced.append(index)
                workload.one_pass()
                tracer.uninstall()
                pass_s.append(time.perf_counter() - pass_started)
    finally:
        tracer.uninstall()
        workload.close()
    return traced


def _another_pass(pass_s: List[float], min_passes: int,
                  elapsed: float, seconds: float) -> bool:
    """Whether to start one more pass: always up to ``min_passes``,
    then while a pass as long as the last would end within
    ``seconds``.  (The first pass is the longest: it pays for the
    checks.)"""
    return len(pass_s) < min_passes or \
        elapsed + pass_s[-1] <= seconds


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _append_history(entry: dict) -> None:
    import numpy

    stamp = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "commit": _commit(), "nproc": os.cpu_count(),
             "python": platform.python_version(),
             "numpy": numpy.__version__}
    stamp.update(entry)
    with open(os.path.join(RESULTS, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(stamp, sort_keys=True) + "\n")


# -- every workload, each in its own process --------------------------------


def _spawn(args: argparse.Namespace, workload: str, trace: int
           ) -> subprocess.Popen:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _collect(child: subprocess.Popen) -> Optional[dict]:
    """Wait for a workload's subprocess, pass its report through and
    return its result line (``None`` if it printed none)."""
    lines = child.communicate()[0].splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    print("\n".join(lines[:-1] if result else lines))
    return result


def run_all(args: argparse.Namespace, traces=(0,)
            ) -> Dict[int, Dict[str, Optional[dict]]]:
    """Every workload, each in a subprocess of its own, one after the
    other; ``{trace: {workload: result}}``.  A workload's runs for the
    different ``traces`` share the machine -- only the smoke run,
    which reads no timing, asks for more than one."""
    results: Dict[int, Dict[str, Optional[dict]]] = {
        trace: {} for trace in traces}
    for spec in _spec()["workloads"]:
        children = [(trace, _spawn(args, spec["name"], trace))
                    for trace in traces]
        for trace, child in children:
            results[trace][spec["name"]] = _collect(child)
    return results


def _all_correct(results: Dict[int, Dict[str, Optional[dict]]]) -> bool:
    return all(result is not None and result["correct"]
               for by_workload in results.values()
               for result in by_workload.values())


def selfcheck(args: argparse.Namespace) -> int:
    """The whole set twice on the same code.  Fails if an end-to-end
    metric differs between the two by more than its own bound, or a
    count differs at all: a bound tighter than the benchmark's own
    noise would reject changes that changed nothing."""
    from benchmarks.pipeline.metrics import EXACT

    rounds = []
    for _ in range(2):
        rounds.append({**run_all(args, (0,)), **run_all(args, (1,))})
    bounds = {metric["name"]: metric["bound"]
              for metric in _spec()["end_to_end"]}
    ok = all(_all_correct(results) for results in rounds)
    for trace in (0, 1):
        for workload, first in rounds[0][trace].items():
            second = rounds[1][trace][workload]
            if first is None or second is None:
                continue
            for name, metric in first["metrics"].items():
                a, b = metric["value"], second["metrics"][name]["value"]
                if name in bounds:
                    limit = bounds[name]
                elif name in EXACT:
                    limit = 0.0
                else:
                    continue
                difference = abs(a - b) / max(abs(a), abs(b)) \
                    if a != b else 0.0
                verdict = "ok" if difference <= limit else "DIFFERS"
                ok = ok and difference <= limit
                print("selfcheck %-20s %-40s %12.6g %12.6g  "
                      "diff %6.2f%% (allowed %.0f%%) %s"
                      % (workload, name, a, b, difference * 100.0,
                         limit * 100.0, verdict))
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="measure this workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", type=float, default=None,
                        help="nominal campaign scale (default: "
                             "dataset.SCALE; 0.002 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one repetition, all checks")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare")
    args = parser.parse_args(argv)
    from benchmarks.pipeline.dataset import SCALE
    if args.scale is None:
        args.scale = SMOKE_SCALE if args.smoke else SCALE
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(spec["run_seconds"])
    if args.workload:
        return measure(args)
    if args.selfcheck:
        return selfcheck(args)
    ok = _all_correct(run_all(
        args, (0, 1) if args.smoke else (args.trace,)))
    print("pipeline benchmark: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
