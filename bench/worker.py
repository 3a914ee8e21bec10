"""One measuring process of the benchmark (started by run.py).

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --t0 MONOTONIC [--setup-only]

--t0 is the launcher's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start, ``import sumsetlab`` and building the workload's inputs. The worker
prints one JSON object as the last line of its stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def load_golden(workload) -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_pass(ops, checker, seam, tracer=None):
    """Run the op list once, in order.

    Returns (units, the seconds inside each op, latencies, sizes). A hunt's
    units and latencies are its evaluated instances. With a tracer, the
    results are checked after the pass and after the tracer is removed, so
    that the checks stay out of the counters; sizes then lists each op's
    (stdout bytes, log bytes), and is empty otherwise.
    """
    latencies = array("d")
    op_times = array("d")
    units = 0
    deferred = []
    if tracer is not None:
        tracer.install()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        error = result = None
        start = time.perf_counter()
        try:
            result = workloads.run_op(op)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            error = exc
        elapsed = time.perf_counter() - start
        op_times.append(elapsed)
        if op.kind == "hunt":
            n = max(1, len(seam.latencies))
            latencies.extend(seam.latencies)
            del seam.latencies[:]
        else:
            n = 1
            latencies.append(elapsed)
        units += n
        if tracer is None:
            checker.check(op, result, error, n)
        else:
            deferred.append((op, result, error, n))
    if tracer is not None:
        tracer.uninstall()
    sizes = [checker.check(*args) for args in deferred]
    return units, op_times, latencies, sizes


# A run makes at least this many passes, so that every median has a middle.
MIN_PASSES = 3


def measure(ops, checker, seconds) -> dict:
    """End-to-end metrics from an untraced closed loop of whole passes over
    the op list, until `seconds` have passed.

    Every pass runs the same ops, so each op, and each latency slot (an op,
    or a hunt instance), has one sample per pass. Each takes the median of
    its samples: ops_per_s divides a pass's units by the sum of the ops'
    median times, and the latency percentiles are taken over the slots'
    medians. A stretch of the run in which the host is busy elsewhere
    therefore moves no metric unless it covers half of the passes.
    """
    op_times, slot_times = [], []
    deadline = time.perf_counter() + seconds
    with workloads.EvalSeam() as seam:
        while len(op_times) < MIN_PASSES or time.perf_counter() < deadline:
            units, times, latencies, _ = run_pass(ops, checker, seam)
            op_times.append(times)
            slot_times.append(latencies)
    slots = sorted(map(statistics.median, zip(*slot_times)))
    return {
        "ops_per_s": units / sum(map(statistics.median, zip(*op_times))),
        "latency_p50_ms": statistics.median(slots) * 1e3,
        "latency_p99_ms": percentile(slots, 0.99) * 1e3,
        "latency_samples": sum(map(len, slot_times)),
        "passes": len(op_times),
    }


def trace(ops, checker, workload, seed) -> dict:
    """Per-layer metrics from one traced pass over the op list. An untraced
    pass over the same list first gives the baseline for the overhead: the
    time inside the ops, traced minus untraced."""
    with workloads.EvalSeam() as seam:
        _, untraced, _, _ = run_pass(ops, checker, seam)
        tracer = tracing.Tracer()
        gc.collect()
        _, traced, _, sizes = run_pass(ops, checker, seam, tracer=tracer)
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = sum(out for out, _ in sizes)
    metrics["hunts.log_bytes"] = sum(log for _, log in sizes)
    metrics["bench.trace_overhead_s"] = sum(traced) - sum(untraced)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(TRACE_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checker = workloads.Checker(load_golden(args.workload), args.seed)
        gc.collect()
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            if args.trace:
                metrics = trace(ops, checker, args.workload, args.seed)
                result["per_layer"] = {
                    name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER
                }
            else:
                result.update(measure(ops, checker, args.seconds))
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["attempted"] = checker.attempted
            result["failed"] = checker.failed
            result["failures"] = checker.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
