"""Benchmark runner for gradedmod: one workload, one process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload family|decide|workspace \
        --seed N --seconds S --trace 0|1

The program is imported from `src/` next to this directory.  Set-up
(import, then building and validating the inputs) is timed in this process
and in four fresh interpreters, and `setup_s` is their median.  Then whole
passes over the workload's fixed task list run one after another, one task
at a time, until the next pass would end after S seconds (at least one pass
always runs).  `pass_s` is the fastest pass and `task_geomean_s` the
geometric mean over tasks of each task's fastest time: on a shared host
whose speed drifts by tens of percent within a run, the fastest of several
repetitions varies half as much from run to run as their median.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  With `--trace 1` the first half of the time runs
untraced passes and the second half traced ones; the JSON then holds the
per-layer metrics per traced pass, and the spans and per-layer table are
written to `.perfbench_out/trace-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("family", "decide", "workspace"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import gradedmod and build the workload's tasks; (tasks, seconds)."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "gradedmod", "cli.py")):
        raise SystemExit(f"gradedmod sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    from gradedmod import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported gradedmod from {cli.__file__}, "
                         f"not from {SRC}")
    import workloads
    os.makedirs(OUTDIR, exist_ok=True)
    tasks = workloads.WORKLOADS[workload](seed, OUTDIR)
    return tasks, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """Set-up times measured in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


class Outcomes:
    """Per-task outcome bookkeeping across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}     # task name -> message (first seen)
        self.digests = {}      # task name -> digest of the first pass

    def record(self, task, digest, error):
        import workloads
        self.attempted += 1
        if error is None:
            if self.digests.setdefault(task.name, digest) != digest:
                self.correct = False
                self.failures.setdefault(task.name, "output changed "
                                                    "between passes")
            return
        self.failed += 1
        self.failures.setdefault(task.name, error)
        if not (task.known_fault and error.startswith(
                workloads.CheckFailed.__name__)):
            self.correct = False


def run_pass(tasks, outcomes, tracer=None):
    """One pass over the task list; (pass seconds, per-task seconds)."""
    import workloads
    times = []
    start = time.perf_counter()
    for idx, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = idx + 1
        t0 = time.perf_counter()
        digest, error = None, None
        try:
            digest = task.run()
        except workloads.CheckFailed as exc:
            error = f"CheckFailed: {exc}"
        except Exception as exc:  # a crash is a wrong answer, recorded
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outcomes.record(task, digest, error)
    return time.perf_counter() - start, times


def run_passes(tasks, outcomes, seconds, tracer=None):
    """Whole passes until the next one would overrun `seconds`.

    Returns the pass times and, per task, its fastest time.
    """
    pass_times, fastest = [], [math.inf] * len(tasks)
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap state
        total, times = run_pass(tasks, outcomes, tracer)
        pass_times.append(total)
        fastest = [min(a, b) for a, b in zip(fastest, times)]
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_times) > seconds:
            return pass_times, fastest


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    tasks, setup_here = setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup_here:.9f}")
        return 0
    outcomes = Outcomes()
    if not args.trace:
        setups = [setup_here] + probe_setup(args)
        pass_times, fastest = run_passes(tasks, outcomes, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "pass_s": metric(min(pass_times), "s"),
            "task_geomean_s": metric(geomean(fastest), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        detail = {"passes": len(pass_times), "tasks": len(tasks),
                  "pass_samples": pass_times, "setup_samples": setups}
    else:
        import tracer as tracing
        plain, _ = run_passes(tasks, outcomes, args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, _ = run_passes(tasks, outcomes, args.seconds / 2, tr)
        finally:
            tr.uninstall()
        overhead = min(traced) - min(plain)
        table = tr.per_layer(len(traced), overhead)
        metrics = {name: metric(value, tracing.PER_LAYER[name][0])
                   for name, value in table.items()}
        path = os.path.join(OUTDIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tr.write(path, {"workload": args.workload, "seed": args.seed,
                        "untraced_pass_s": min(plain),
                        "traced_pass_s": min(traced),
                        "traced_passes": len(traced),
                        "tasks": [t.name for t in tasks]}, table)
        detail = {"untraced_passes": len(plain), "traced_passes": len(traced),
                  "tasks": len(tasks), "trace_file": os.path.relpath(path,
                                                                     ROOT)}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **detail, "failures": outcomes.failures}))
    print(json.dumps({"correct": outcomes.correct,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
