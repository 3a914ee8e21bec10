"""The sumsetlab benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads: growth-scan, hunt-q1-sym3, hunt-q2-int, verify-corpus (see
bench/README.md). With --trace 0 a worker process runs the workload as a
closed loop for --seconds and reports ops_per_s, latency_p50_ms,
latency_p99_ms and peak_rss_mib; setup_s is the median over several fresh
processes. With --trace 1 the worker makes one untraced and one traced pass
over the workload's op list and reports the per-layer metrics. Every output
is checked; the failure share is printed with the metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("growth-scan", "hunt-q1-sym3", "hunt-q2-int", "verify-corpus")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# Fresh processes that only set up, besides the measuring one; setup_s is
# the median over all of them.
SETUP_PROBES = 10
# A fixed string-hash seed keeps dict and set layouts, and so their timing,
# the same from run to run.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
RUN_LIMIT_S = 170


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def spawn(args, deadline) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args, "--t0", repr(t0)],
            capture_output=True,
            text=True,
            env=WORKER_ENV,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    """The result object for one workload."""
    common = ["--workload", workload, "--seed", str(seed)]
    probes = []
    if not trace:
        probes = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    main = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if trace:
        metrics = main["per_layer"]
    else:
        main["setup_s"] = statistics.median(probes + [main["setup_s"]])
        metrics = {name: {"value": main[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "failures": main["failures"],
        "samples": main.get("latency_samples"),
        "passes": main.get("passes"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(workload, result, out):
    failed, attempted = result["failed"], result["attempted"]
    print(f"{workload}:", file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}", file=out)
    print(f"  {'failure_share':32s} {failed / attempted:>16.6g} ({failed} of {attempted} ops)", file=out)
    if result["samples"] is not None:
        print(f"  {'latency samples':32s} {result['samples']:>16d} in {result['passes']} passes", file=out)
    for line in result["failures"]:
        print(f"  FAILED {line}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    print(
        f"sumsetlab benchmark: seed {args.seed}, {args.seconds} s per workload, "
        f"trace {args.trace}; Python {platform.python_version()}, "
        f"{os.cpu_count()} CPUs, {cpu_model()}",
        file=sys.stderr,
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            if len(names) > 1:
                deadline = time.monotonic() + RUN_LIMIT_S
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            describe(workload, results[workload], sys.stderr)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
