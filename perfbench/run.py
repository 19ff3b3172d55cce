"""Benchmark of the qcclab simulate and state-vector pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload flagship-p2 --seed 1 --seconds 15 --trace 0

The program is imported from `src/` of the same checkout. Load is a closed
loop: this one process makes one library call at a time, with one BLAS
thread.

Times are CPU seconds of this process. On a virtual machine whose neighbours
take a varying share of the CPU, wall time drifts with their load, while CPU
time counts only the work; with one BLAS thread no idle worker thread spins
into it. Wall times are printed alongside for reference.

Untraced (`--trace 0`): the workload's set-up runs several times and reports
its median as `setup_s`; passes then repeat until `--seconds` of wall time
have elapsed and at least three have run, and `pass_cpu_s` and
`items_per_cpu_s` are medians over the passes. `peak_rss_mb` is the peak
resident memory of this process.

Traced (`--trace 1`): set-up plus one pass repeat untraced until `--seconds`
have elapsed, for reference; then span wrappers are installed, set-up, one
pass and the checks run once under them, and the wrappers are removed.
`trace.overhead_ratio` compares the CPU time of the traced set-up and pass
with the reference. Per-layer metrics come from the spans, which are also written to
`.perfbench/trace-<workload>-seed<seed>.json`.

Either way, the outputs are checked after the timed region, a digest of the
results is printed, and the last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the median of three passes already discounts one slow pass
MIN_PASSES = 3


def _load_program():
    """Import qcclab from this checkout's src/ with one BLAS thread.

    Returns None when the checkout holds no program to measure."""
    if not (SRC / "qcclab" / "__init__.py").is_file():
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qcclab

    return qcclab


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _repeat(step, seconds: float, min_runs: int, label: str):
    """Call step() at least `min_runs` times and until `seconds` of wall
    time have elapsed; returns its results and the CPU time of each call."""
    results, cpu, wall = [], [], []
    deadline = time.perf_counter() + seconds
    while len(cpu) < min_runs or time.perf_counter() < deadline:
        w0, c0 = time.perf_counter(), time.process_time()
        results.append(step())
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    print(f"{label} cpu_s {[round(t, 4) for t in cpu]} wall_s {[round(t, 4) for t in wall]}")
    return results, cpu


def measure(workload, seed: int, seconds: float):
    """Untraced run: returns (end-to-end metrics, checks, digest)."""
    contexts, setup_times = _repeat(workload.setup, 0, workload.setup_reps, "setup")
    ctx = contexts[-1]
    outcomes, pass_times = _repeat(lambda: workload.run_pass(ctx, seed), seconds, MIN_PASSES,
                                   "pass")

    checks, digest = workload.check(ctx, seed, outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_cpu_s": (statistics.median(pass_times), "s"),
        "items_per_cpu_s": (statistics.median(o.items / o.cpu_s for o in outcomes), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, checks, digest


def measure_traced(qcclab, workload, seed: int, seconds: float):
    """Traced run: returns (per-layer metrics, checks, digest, tracer)."""
    _, ref_times = _repeat(lambda: workload.run_pass(workload.setup(), seed), seconds, 1,
                           "reference")

    tracer = tracing.Tracer()
    tracer.install(qcclab)
    try:
        c0 = time.process_time()
        tracer.phase = "setup"
        ctx = workload.setup()
        tracer.phase = "pass"
        outcome = workload.run_pass(ctx, seed)
        traced = time.process_time() - c0
        tracer.phase = "checks"
        checks, digest = workload.check(ctx, seed, [outcome])
    finally:
        tracer.uninstall()
    left = tracing.installed_wrappers(qcclab)
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")

    values = tracing.layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced / statistics.median(ref_times)
    metrics = {key: (values[key], tracing.layer_unit(key)) for key in tracing.LAYER_METRICS}
    print(f"computed, not measured: {', '.join(tracing.COMPUTED)}")
    return metrics, checks, digest, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qcclab = _load_program()
    if qcclab is None:
        print(f"error: no qcclab sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    try:
        if args.trace:
            metrics, checks, digest, tracer = measure_traced(
                qcclab, workload, args.seed, args.seconds)
            tracer.dump(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics, checks, digest = measure(workload, args.seed, args.seconds)
    except Exception:
        # an exception fails every check of the run
        traceback.print_exc()
        n = workload.planned_checks()
        print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
        return 1

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAIL {name}")
    digest = {"workload": args.workload, "seed": args.seed, **digest,
              "fail_ratio": len(failed) / len(checks)}
    text = json.dumps(digest, sort_keys=True)
    print(f"digest {text}")
    print(f"digest_sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
