"""Tests for the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import sumsetlab.hunts  # noqa: E402
import sumsetlab.inequalities  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sumsetlab import FiniteSet  # noqa: E402

ALL = sorted(workloads.WORKLOADS)
SEEDED = [w for w in ALL if w != "hunt-q1-sym3"]


def build(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(exist_ok=True)
    return workloads.WORKLOADS[workload](seed, str(workdir))


def one_pass(ops, golden, seed):
    checker = workloads.Checker(golden, seed)
    with workloads.EvalSeam() as seam:
        worker.run_pass(ops, checker, seam)
    return checker


@pytest.mark.parametrize("workload", ALL)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.inputs_digest(build(workload, 3, tmp_path))
    assert workloads.inputs_digest(build(workload, 3, tmp_path)) == first


@pytest.mark.parametrize("workload", SEEDED)
def test_another_seed_gives_other_inputs(workload, tmp_path):
    assert workloads.inputs_digest(build(workload, 0, tmp_path)) != workloads.inputs_digest(
        build(workload, 1, tmp_path)
    )


def test_q1_space_does_not_depend_on_the_seed(tmp_path):
    assert workloads.inputs_digest(build("hunt-q1-sym3", 0, tmp_path)) == workloads.inputs_digest(
        build("hunt-q1-sym3", 1, tmp_path)
    )


@pytest.mark.parametrize("workload", ALL)
def test_default_seed_matches_every_golden_digest(workload, tmp_path):
    ops = build(workload, 0, tmp_path)
    golden = worker.load_golden(workload)
    assert {op.key for op in ops} <= set(golden)
    checker = one_pass(ops, golden, 0)
    assert checker.failed == 0, checker.failures


@pytest.mark.parametrize("workload", SEEDED)
def test_second_seed_passes_the_oracle(workload, tmp_path):
    ops = build(workload, 1, tmp_path)
    golden = worker.load_golden(workload)
    # Inputs the default seed never generated are checked by the oracle alone.
    assert {op.key for op in ops} - set(golden)
    checker = one_pass(ops, golden, 1)
    assert checker.attempted >= len(ops)
    assert checker.failed == 0, checker.failures


@pytest.mark.parametrize("workload", ["growth-scan", "hunt-q2-int", "verify-corpus"])
def test_corrupted_golden_digest_is_a_failure(workload, tmp_path):
    ops = build(workload, 0, tmp_path)
    golden = dict(worker.load_golden(workload))
    key = ops[0].key
    golden[key] = {name: "0" * 16 for name in golden[key]}
    checker = one_pass(ops[:1], golden, 0)
    assert checker.failed / checker.attempted > 0


def _drops_smallest(real):
    def wrong(structure, sets):
        out = real(structure, sets)
        return FiniteSet(structure, out.elements[1:]) if len(out) > 1 else out

    return wrong


@pytest.mark.parametrize(
    "module, workload",
    [
        (sumsetlab.inequalities, "growth-scan"),
        (sumsetlab.inequalities, "verify-corpus"),
        (sumsetlab.hunts, "hunt-q2-int"),
    ],
)
def test_wrong_sumset_is_caught_by_the_oracle(module, workload, monkeypatch, tmp_path):
    ops = build(workload, 7, tmp_path)[:40]
    monkeypatch.setattr(module, "sumset", _drops_smallest(module.sumset))
    checker = one_pass(ops, {}, 7)
    assert checker.failed / checker.attempted > 0


def _traced_counts(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "TRACE_DIR", str(tmp_path / "trace"))
    ops = build(workload, 0, tmp_path)
    metrics = worker.trace(ops, workloads.Checker({}, 0), workload, 0)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", ["growth-scan", "verify-corpus"])
def test_traced_counts_repeat_exactly(workload, tmp_path, monkeypatch):
    first = _traced_counts(workload, tmp_path, monkeypatch)
    assert _traced_counts(workload, tmp_path, monkeypatch) == first


def test_tracer_restores_every_wrapped_name():
    before = {(id(m), n): getattr(m, n) for m, n, _ in tracing.Tracer().targets()}
    with tracing.Tracer():
        pass
    after = {(id(m), n): getattr(m, n) for m, n, _ in tracing.Tracer().targets()}
    assert after == before


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
