"""Record bench/golden.json from the code at hand.

    python3 bench/record_golden.py

Runs one pass over each workload's op list for the default seed (0) and
stores, per operation input digest, the exit code and stdout digest of each
command, each hunt's log digest, and each growth-scan witness mask. Every
result must first pass the brute-force oracle. Re-record only when outputs
are meant to change; the benchmark fails any operation whose output differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import worker
import workloads

SEED = 0


def record(workload) -> dict:
    os.makedirs(worker.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=worker.WORK_ROOT)
    try:
        ops = workloads.WORKLOADS[workload](SEED, workdir)
        checker = workloads.Checker({}, SEED)
        golden = {}
        with workloads.EvalSeam():
            for op in ops:
                result = workloads.run_op(op)
                value, _, log = checker.observed(op, result)
                problems = checker.problems(op, result, value, log)
                if problems:
                    raise SystemExit(f"{workload}: {op.argv or op.key}: {problems[0]}")
                golden[op.key] = value
        return golden
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    body = {"seed": SEED, "workloads": {w: record(w) for w in workloads.WORKLOADS}}
    with open(worker.GOLDEN_PATH, "w") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, entries in body["workloads"].items():
        print(f"{w}: {len(entries)} golden entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
