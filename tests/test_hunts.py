"""Hunt engine: evaluators, determinism, logging, checkpoint resume."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import signal
import time
import tracemalloc

import pytest

from sumsetlab import hunts
from sumsetlab import (
    DirectPower,
    FiniteSet,
    HuntConfig,
    Integers,
    Permutations,
    eval_question1,
    eval_question2,
    replay,
    run_hunt,
    sumset,
)
from sumsetlab.cli import main

from conftest import int_set, random_int_set, random_subset


def test_q1_singletons_give_equality():
    sym = Permutations(3)
    e = FiniteSet(sym, (sym.identity(),))
    record = eval_question1(sym, [e, e, e])
    assert record.lhs == 1 and record.rhs == 1
    assert record.slack == 0 and not record.violation

    x = FiniteSet(sym, ((2, 1, 3),))
    record2 = eval_question1(sym, [x, e, x])
    assert record2.lhs == 1 and record2.rhs == 1


def test_q1_rejects_commutative():
    with pytest.raises(ValueError, match="noncommutative"):
        eval_question1(Integers(), [int_set(0, 1)] * 3)
    with pytest.raises(ValueError, match="noncommutative"):
        eval_question1(Permutations(2), [FiniteSet(Permutations(2), ((1, 2),))] * 3)


def test_q1_matches_bruteforce(rng):
    sym = Permutations(3)
    perms = list(sym.elements())
    for _ in range(60):
        k = rng.choice([3, 4])
        sets = [
            FiniteSet(sym, tuple(rng.sample(perms, rng.randrange(1, 3))))
            for _ in range(k)
        ]
        record = eval_question1(sym, sets)
        # oracle: full product for S; pinned products for each n_i
        def fold(combo):
            v = combo[0]
            for c in combo[1:]:
                v = sym.compose(v, c)
            return v

        big = {fold(c) for c in itertools.product(*[s.elements for s in sets])}
        rhs = 1
        for i, s in enumerate(sets):
            best = 0
            for x in s:
                pools = [list(t.elements) for t in sets]
                pools[i] = [x]
                best = max(best, len({fold(c) for c in itertools.product(*pools)}))
            rhs *= best
        assert record.lhs == len(big) ** (k - 1)
        assert record.rhs == rhs
        assert record.violation == (record.lhs > record.rhs)
        assert not record.violation  # k = 3, 4 over a group: no violations expected


def test_q2_example():
    b = int_set(0, 1)
    record = eval_question2(int_set(0, 1), [b, b, b], int_set(0, 3))
    assert record.lhs == 64 and record.rhs == 128
    assert not record.violation


def test_q2_preconditions():
    b = int_set(0, 1)
    with pytest.raises(ValueError, match="three B-sets"):
        eval_question2(int_set(0), [b, b], int_set(0))
    with pytest.raises(ValueError, match="subset of B1"):
        eval_question2(int_set(0), [b, b, b], int_set(9))
    with pytest.raises(ValueError, match="nonempty"):
        eval_question2(int_set(0), [b, b, b], FiniteSet(Integers(), ()))


def test_q2_random_instances_hold(rng):
    z = Integers()
    for _ in range(200):
        a = random_int_set(rng, max_size=5, lo=0, hi=40)
        bs = [random_int_set(rng, max_size=5, lo=0, hi=40) for _ in range(3)]
        carrier = sumset(z, bs)
        s = FiniteSet(z, random_subset(rng, carrier.elements, 5))
        record = eval_question2(a, bs, s)
        assert not record.violation
        assert record.slack >= 0


def test_replay_reproduces_records(rng):
    sym = Permutations(3)
    perms = list(sym.elements())
    sets = [FiniteSet(sym, tuple(rng.sample(perms, 2))) for _ in range(3)]
    record = eval_question1(sym, sets, instance_index=7)
    again = replay(record.instance, instance_index=7)
    assert again == record

    b = int_set(0, 2)
    record2 = eval_question2(int_set(0, 1), [b, b, b], int_set(0, 4), instance_index=3)
    assert replay(record2.instance, instance_index=3) == record2

    # a malformed logged element is named by its path in the record
    with pytest.raises(ValueError, match=r"^sets\[2\]\[1\]: "):
        replay(dict(record.instance, sets=[[[1, 2, 3]], [[1, 2, 3]], [[1, 2, 3], [1, 1, 2]]]))
    with pytest.raises(ValueError, match=r"^Bs\[1\]\[0\]: "):
        replay(dict(record2.instance, Bs=[[0, 2], ["x"], [0, 2]]))
    with pytest.raises(ValueError, match=r"^A: expected an array"):
        replay(dict(record2.instance, A=5))
    q1_without_structure = {k: v for k, v in record.instance.items() if k != "structure"}
    with pytest.raises(ValueError, match="missing required field 'structure'"):
        replay(q1_without_structure)
    q2_without_bs = {k: v for k, v in record2.instance.items() if k != "Bs"}
    with pytest.raises(ValueError, match="missing required field 'Bs'"):
        replay(q2_without_bs)
    with pytest.raises(ValueError, match=r"^Bs: expected an array"):
        replay(dict(record2.instance, Bs=5))
    with pytest.raises(ValueError, match=r"^instance: expected a JSON object"):
        replay([record2.instance])
    with pytest.raises(ValueError, match=r"^structure: unknown structure encoding 7$"):
        replay(dict(record2.instance, structure=7))
    with pytest.raises(ValueError, match=r"^unknown question 'Q3'$"):
        replay({"question": "Q3", "structure": "Z"})


def test_config_validation():
    with pytest.raises(ValueError, match="noncommutative"):
        HuntConfig(question="Q1", structure=Integers(), k=3)
    with pytest.raises(ValueError, match="k >= 3"):
        HuntConfig(question="Q1", structure=Permutations(3), k=2)
    with pytest.raises(ValueError, match="value_range"):
        HuntConfig(question="Q2", structure=Integers(), k=3)
    with pytest.raises(ValueError, match="over the integers"):
        HuntConfig(question="Q2", structure=Permutations(3), k=3, value_range=10)
    with pytest.raises(ValueError, match="k <= 64"):
        HuntConfig(question="Q1", structure=Permutations(3), k=65)
    for value_range in (-1, hunts.MAX_VALUE_RANGE + 1):
        with pytest.raises(ValueError, match=f"value_range in 0..{hunts.MAX_VALUE_RANGE}"):
            HuntConfig(question="Q2", structure=Integers(), k=3, value_range=value_range)
    assert HuntConfig(question="Q2", structure=Integers(), k=64, value_range=hunts.MAX_VALUE_RANGE).k == 64
    config = HuntConfig(question="Q1", structure=Permutations(3), k=3, size_caps=2)
    assert config.size_caps == (2, 2, 2)
    config2 = HuntConfig(question="Q2", structure=Integers(), k=3, size_caps=4, value_range=10)
    assert config2.size_caps == (4,) * 5


@pytest.mark.parametrize("base, power", [(Permutations(3), 2**70), (Permutations(3), 10**6),
                                         (Permutations(8), 3), (Permutations(3), 6)],
                         ids=["Sym3^2^70", "Sym3^10^6", "Sym8^3", "Sym3^6"])
def test_q1_carriers_past_the_cap_are_refused_at_once(base, power):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"carrier of at most {hunts.MAX_CARRIER} elements"):
        HuntConfig(question="Q1", structure=DirectPower(base, power), k=3)
    assert time.perf_counter() - start < 1


def test_q1_hunts_run_over_direct_powers():
    # 6^5 = 7,776 elements, the largest power of Sym(3) under the cap
    config = HuntConfig(question="Q1", structure=DirectPower(Permutations(3), 5), k=3, size_caps=3,
                        seed=2, instance_budget=20)
    summary = run_hunt(config)
    assert summary.instances_run == 20 and not summary.violations


@pytest.mark.parametrize("size_caps", [200, 2000])
def test_oversized_draw_tables_are_refused_before_the_log_opens(tmp_path, size_caps):
    # Sym(8) has 40,320 elements: 40,321 rows of size_caps + 1 columns
    log = tmp_path / "hunt.jsonl"
    config = HuntConfig(question="Q1", structure=Permutations(8), k=3, size_caps=size_caps,
                        instance_budget=1, log_path=str(log))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {hunts.MAX_DRAW_TABLE}"):
        run_hunt(config)
    assert time.perf_counter() - start < 1
    assert not log.exists()


def test_a_random_hunt_leaves_no_draw_table_behind():
    """The draw table of Sym(7) at caps 12 (5,041 rows of 13 columns) takes
    megabytes; it is the hunt's own and goes when the hunt returns."""
    config = HuntConfig(question="Q1", structure=Permutations(7), k=3, size_caps=12, instance_budget=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run_hunt(config).instances_run == 1
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_budget_zero_is_empty(tmp_path):
    log = tmp_path / "hunt.jsonl"
    config = HuntConfig(
        question="Q1",
        structure=Permutations(3),
        k=3,
        size_caps=2,
        mode="exhaustive",
        instance_budget=0,
        log_path=str(log),
    )
    summary = run_hunt(config)
    assert summary.instances_run == 0
    assert summary.min_slack is None and not summary.violations
    assert log.read_text() == ""


def test_exhaustive_q1_deterministic_and_clean(tmp_path):
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        config = HuntConfig(
            question="Q1",
            structure=Permutations(3),
            k=3,
            size_caps=2,
            mode="exhaustive",
            seed=1,
            instance_budget=400,
            log_path=str(tmp_path / name),
        )
        summary = run_hunt(config)
        assert summary.instances_run == 400
        assert not summary.violations
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]
    lines = logs[0].decode().splitlines()
    assert len(lines) == 400
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["instance_index"] == i
        redo = replay(obj["instance"], obj["instance_index"])
        assert str(redo.lhs) == obj["lhs"] and str(redo.slack) == obj["slack"]


def test_random_q2_deterministic(tmp_path):
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        config = HuntConfig(
            question="Q2",
            structure=Integers(),
            k=3,
            size_caps=4,
            value_range=20,
            mode="random",
            seed=99,
            instance_budget=200,
            log_path=str(tmp_path / name),
        )
        summary = run_hunt(config)
        assert summary.instances_run == 200 and not summary.violations
        digests.append((tmp_path / name).read_bytes())
    assert digests[0] == digests[1]


def _reference_draw(rng, carrier, cap):
    """The subset draw written with math.comb, as hunt logs were first made."""
    n = len(carrier)
    cap = min(cap, n)
    counts = [math.comb(n, s) for s in range(1, cap + 1)]
    r = rng.randrange(sum(counts))
    size = 1
    for c in counts:
        if r < c:
            break
        r -= c
        size += 1
    out, x = [], 0
    for pos in range(size):
        while r >= math.comb(n - x - 1, size - pos - 1):
            r -= math.comb(n - x - 1, size - pos - 1)
            x += 1
        out.append(x)
        x += 1
    return [carrier[i] for i in out]


def test_draws_match_the_math_comb_reference():
    # |B_1 + B_2 + B_3| reaches 121 at value_range 40, so S draws from carriers
    # that large. A hunt's one table serves carriers of every smaller length.
    # The totals by (length, cap) are shared by every draw, as in a hunt.
    cols, totals = hunts._columns(130, 6), {}
    for n in range(1, 131):
        carrier = list(range(100, 100 + n))
        for cap in range(1, 7):
            ours, ref = random.Random(n * 7 + cap), random.Random(n * 7 + cap)
            for _ in range(25):
                assert hunts._draw_subset(ours, carrier, cap, cols, totals) == _reference_draw(ref, carrier, cap)
            assert ours.getstate() == ref.getstate()  # the same randrange calls


def test_unranking_lists_combinations_in_order():
    for n in range(1, 9):
        for s in range(1, n + 1):
            cols = hunts._columns(n, s)
            ranked = [hunts._unrank_combination(n, s, r, cols) for r in range(math.comb(n, s))]
            assert ranked == [list(c) for c in itertools.combinations(range(n), s)]


def test_exhaustive_subsets_are_made_as_read():
    tracemalloc.start()
    try:
        subsets = hunts._subsets_in_canonical_order(list(range(40)), 4, 10**6)
        first = next(iter(subsets))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [0]
    # all 102,090 subsets of at most 4 of the 40 elements would take megabytes
    assert peak < 256 * 1024


@pytest.mark.parametrize("n", range(13))
def test_exhaustive_subsets_match_the_plain_mask_filter(n):
    carrier = [10 * j for j in range(n)]
    for cap in range(1, n + 2):
        masks = [m for m in range(1, 1 << n) if m.bit_count() <= cap]
        expected = [[carrier[j] for j in range(n) if m >> j & 1] for m in masks]
        for limit in (0, 1, 7, len(masks) + 1):
            assert list(hunts._subsets_in_canonical_order(carrier, cap, limit)) == expected[:limit]


CONFIG_JSON = [
    (dict(question="Q1", structure=Permutations(3), k=4, size_caps=[1, 2, 3, 2], mode="exhaustive",
          seed=5, instance_budget=300, checkpoint_path="q1.ckpt"),
     '{"question": "Q1", "structure": {"Sym": 3}, "k": 4, "size_caps": [1, 2, 3, 2], "mode": "exhaustive", '
     '"seed": 5, "instance_budget": 300, "value_range": null, "log_path": null, "checkpoint_path": "q1.ckpt"}'),
    (dict(question="Q2", structure=Integers(), k=3, size_caps=5, value_range=40, seed=20260808,
          instance_budget=400, log_path="q2.jsonl"),
     '{"question": "Q2", "structure": "Z", "k": 3, "size_caps": [5, 5, 5, 5, 5], "mode": "random", '
     '"seed": 20260808, "instance_budget": 400, "value_range": 40, "log_path": "q2.jsonl", "checkpoint_path": null}'),
]


@pytest.mark.parametrize("fields,text", CONFIG_JSON, ids=["Q1", "Q2"])
def test_config_json_is_pinned_and_round_trips(fields, text):
    """Checkpoints store this encoding, so its key order and values are fixed."""
    config = HuntConfig(**fields)
    assert json.dumps(config.to_json()) == text
    assert HuntConfig.from_json(json.loads(text)) == config


def test_config_from_a_minimal_object_takes_the_defaults():
    minimal = {"question": "Q1", "structure": {"Sym": 3}, "k": 3, "comment": "ignored"}
    assert HuntConfig.from_json(minimal) == HuntConfig(question="Q1", structure=Permutations(3), k=3)
    for key in ("question", "structure", "k"):
        with pytest.raises(ValueError, match=f"missing required field '{key}'"):
            HuntConfig.from_json({k: v for k, v in minimal.items() if k != key})


def test_different_seeds_differ(tmp_path):
    out = []
    for seed in (1, 2):
        config = HuntConfig(
            question="Q2",
            structure=Integers(),
            k=3,
            size_caps=3,
            value_range=15,
            mode="random",
            seed=seed,
            instance_budget=50,
            log_path=str(tmp_path / f"s{seed}.jsonl"),
        )
        run_hunt(config)
        out.append((tmp_path / f"s{seed}.jsonl").read_bytes())
    assert out[0] != out[1]


def test_checkpoint_resume_matches_single_run(tmp_path):
    def config(budget, log, checkpoint=None):
        return HuntConfig(
            question="Q1",
            structure=Permutations(3),
            k=3,
            size_caps=2,
            mode="exhaustive",
            instance_budget=budget,
            log_path=str(log),
            checkpoint_path=None if checkpoint is None else str(checkpoint),
        )

    oneshot = tmp_path / "oneshot.jsonl"
    run_hunt(config(120, oneshot))

    staged = tmp_path / "staged.jsonl"
    ckpt = tmp_path / "ckpt.json"
    first = run_hunt(config(50, staged, ckpt))
    assert first.instances_run == 50
    stream = {
        "question": "Q1", "structure": {"Sym": 3}, "k": 3, "size_caps": [2, 2, 2],
        "mode": "exhaustive", "seed": 0, "value_range": None,
    }
    assert json.loads(ckpt.read_text()) == {"config": stream, "next_index": 50}
    second = run_hunt(config(120, staged, ckpt))
    assert second.instances_run == 70
    assert json.loads(ckpt.read_text()) == {"config": stream, "next_index": 120}
    assert staged.read_bytes() == oneshot.read_bytes()


def test_interrupted_resume_leaves_no_duplicate_records(tmp_path, monkeypatch):
    def config(budget, log, checkpoint=None):
        return HuntConfig(
            question="Q2",
            structure=Integers(),
            k=3,
            size_caps=3,
            value_range=15,
            seed=4,
            instance_budget=budget,
            log_path=str(log),
            checkpoint_path=None if checkpoint is None else str(checkpoint),
        )

    clean = tmp_path / "clean.jsonl"
    run_hunt(config(200, clean))

    staged, ckpt = tmp_path / "staged.jsonl", tmp_path / "ckpt.json"
    run_hunt(config(100, staged, ckpt))
    evaluate = hunts.eval_question2

    def interrupted(*args, instance_index):
        if instance_index == 150:
            raise KeyboardInterrupt
        return evaluate(*args, instance_index=instance_index)

    monkeypatch.setattr(hunts, "eval_question2", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_hunt(config(200, staged, ckpt))
    assert len(staged.read_bytes().splitlines()) == 150
    stream = {
        "question": "Q2", "structure": "Z", "k": 3, "size_caps": [3, 3, 3, 3, 3],
        "mode": "random", "seed": 4, "value_range": 15,
    }
    assert json.loads(ckpt.read_text()) == {"config": stream, "next_index": 100}
    monkeypatch.undo()

    assert run_hunt(config(200, staged, ckpt)).instances_run == 100
    assert json.loads(ckpt.read_text()) == {"config": stream, "next_index": 200}
    assert staged.read_bytes() == clean.read_bytes()


def test_resume_refuses_a_log_shorter_than_the_checkpoint(tmp_path):
    log, ckpt = tmp_path / "log.jsonl", tmp_path / "ckpt.json"
    config = HuntConfig(
        question="Q2",
        structure=Integers(),
        k=3,
        value_range=5,
        instance_budget=10,
        log_path=str(log),
        checkpoint_path=str(ckpt),
    )
    stream = {
        "question": "Q2", "structure": "Z", "k": 3, "size_caps": [3, 3, 3, 3, 3],
        "mode": "random", "seed": 0, "value_range": 5,
    }
    ckpt.write_text(json.dumps({"config": stream, "next_index": 5}))
    log.write_text("{}\n" * 4)
    with pytest.raises(ValueError, match="fewer than the checkpoint's 5 records"):
        run_hunt(config)
    assert log.read_text() == "{}\n" * 4


def test_resume_refuses_a_deleted_log(tmp_path):
    log, ckpt = tmp_path / "log.jsonl", tmp_path / "ckpt.json"
    config = HuntConfig(
        question="Q2",
        structure=Integers(),
        k=3,
        value_range=5,
        instance_budget=2,
        log_path=str(log),
        checkpoint_path=str(ckpt),
    )
    run_hunt(config)
    log.unlink()
    body = ckpt.read_text()
    with pytest.raises(ValueError, match="holds fewer than the checkpoint's 2 records"):
        run_hunt(dataclasses.replace(config, instance_budget=4))
    assert not log.exists() and ckpt.read_text() == body


def test_resume_refuses_a_budget_below_the_checkpoint(tmp_path):
    """A single run at budget 50 writes 50 records, so a checkpoint at 100
    cannot be resumed at 50; the log and the checkpoint stay as they were."""
    log, ckpt = tmp_path / "log.jsonl", tmp_path / "ckpt.json"
    config = HuntConfig(
        question="Q2",
        structure=Integers(),
        k=3,
        value_range=15,
        instance_budget=100,
        log_path=str(log),
        checkpoint_path=str(ckpt),
    )
    run_hunt(config)
    written, body = log.read_bytes(), ckpt.read_text()
    with pytest.raises(ValueError, match="100 records exceed instance_budget 50$"):
        run_hunt(dataclasses.replace(config, instance_budget=50))
    assert log.read_bytes() == written and ckpt.read_text() == body
    assert run_hunt(dataclasses.replace(config, instance_budget=100)).instances_run == 0
    assert log.read_bytes() == written


@pytest.mark.parametrize(
    "changes,named",
    [
        ({"seed": 1}, "seed"),
        ({"value_range": 10}, "value_range"),
        ({"seed": 1, "value_range": 10}, "seed, value_range"),
        ({"size_caps": 4}, "size_caps"),
    ],
)
def test_resume_refuses_a_changed_config(tmp_path, changes, named):
    log, ckpt = tmp_path / "log.jsonl", tmp_path / "ckpt.json"
    config = HuntConfig(
        question="Q2",
        structure=Integers(),
        k=3,
        size_caps=3,
        value_range=15,
        seed=0,
        instance_budget=50,
        log_path=str(log),
        checkpoint_path=str(ckpt),
    )
    run_hunt(config)
    written, body = log.read_bytes(), ckpt.read_text()
    changed = dataclasses.replace(config, instance_budget=120, **changes)
    with pytest.raises(ValueError, match=f"config that differs in {named}$"):
        run_hunt(changed)
    assert log.read_bytes() == written and ckpt.read_text() == body


@pytest.mark.parametrize(
    "body,message",
    [
        ({"next_index": 5}, "missing required field 'config'"),
        ({"config": "Q2", "next_index": 5}, "missing required field 'config'"),
        ({"config": {"question": "Q2"}, "next_index": -1}, "next_index: expected a nonnegative integer"),
        # JSON text, nested past what json.load decodes
        pytest.param("[" * 100_000 + "]" * 100_000, "ckpt.json: JSON nested too deeply", id="nested-too-deeply"),
    ],
)
def test_resume_refuses_a_malformed_checkpoint(tmp_path, body, message):
    log, ckpt = tmp_path / "log.jsonl", tmp_path / "ckpt.json"
    ckpt.write_text(body if isinstance(body, str) else json.dumps(body))
    log.write_text("{}\n" * 5)
    config = HuntConfig(
        question="Q2",
        structure=Integers(),
        k=3,
        value_range=5,
        instance_budget=10,
        log_path=str(log),
        checkpoint_path=str(ckpt),
    )
    with pytest.raises(ValueError, match=message):
        run_hunt(config)
    assert log.read_text() == "{}\n" * 5


def test_exhaustive_q2_at_the_largest_value_range_is_quick():
    """An exhaustive subset is decoded over its mask's bits, not over the
    whole carrier: at MAX_VALUE_RANGE, 1,000 instances take well under 5 s
    (decoding each mask over range(10^5 + 1) took about 19 s)."""
    config = HuntConfig(question="Q2", structure=Integers(), k=3, size_caps=2, mode="exhaustive",
                        value_range=hunts.MAX_VALUE_RANGE, instance_budget=1000)

    def hung(signum, frame):
        pytest.fail("an exhaustive Q2 hunt at MAX_VALUE_RANGE ran past 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        summary = run_hunt(config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert summary.instances_run == 1000 and summary.violations == []


def test_a_violation_is_logged_counted_and_exits_2(tmp_path, capsys, monkeypatch):
    """A record with lhs > rhs is a finding: it is logged with
    "violation":true, counted in the summary, sets a negative min_slack, and
    the hunt command exits 2."""
    evaluate = hunts.eval_question2

    def one_violation(*args, instance_index):
        record = evaluate(*args, instance_index=instance_index)
        if instance_index != 3:
            return record
        lhs = record.rhs + 1
        return hunts.HuntRecord(record.instance, lhs, record.rhs, record.rhs - lhs, lhs > record.rhs, instance_index)

    monkeypatch.setattr(hunts, "eval_question2", one_violation)
    config, log = tmp_path / "hunt.json", tmp_path / "hunt.jsonl"
    config.write_text(json.dumps({"question": "Q2", "structure": "Z", "k": 3, "size_caps": 3,
                                  "value_range": 12, "seed": 7, "instance_budget": 10}))
    code = main(["hunt", "--instance", str(config), "--log", str(log)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 2
    assert summary["instances_run"] == 10 and summary["violation_count"] == 1
    assert summary["min_slack"] == "-1" and summary["min_slack_instance"]["instance_index"] == 3
    assert [v["instance_index"] for v in summary["violations"]] == [3]
    flagged = [i for i, line in enumerate(log.read_text().splitlines()) if '"violation":true' in line]
    assert flagged == [3]


def test_min_slack_identifies_closest_call(tmp_path):
    config = HuntConfig(
        question="Q1",
        structure=Permutations(3),
        k=3,
        size_caps=1,
        mode="exhaustive",
        instance_budget=30,
    )
    summary = run_hunt(config)
    # singleton sets give |S| = 1 and every n_i = 1: slack 0 on every instance
    assert summary.min_slack == 0
    assert summary.min_slack_record.instance_index == 0


# sha256(log)[:16] of one hunt per (question, mode) pair, with both k = 3 and
# k = 4 and with caps that differ by position, so any change to the order in
# which instances are enumerated, drawn or logged shows here.
PINNED_LOGS = [
    (dict(question="Q1", structure=Permutations(3), k=3, size_caps=2,
          mode="exhaustive", instance_budget=500), "49d7fa5edec19f89"),
    (dict(question="Q1", structure=Permutations(3), k=4, size_caps=[1, 2, 3, 2],
          mode="random", seed=5, instance_budget=300), "0c5d62e4322ea4ea"),
    (dict(question="Q2", structure=Integers(), k=3, size_caps=5, value_range=40,
          mode="random", seed=20260808, instance_budget=400), "bd6666ccb3cdbf3f"),
    (dict(question="Q2", structure=Integers(), k=3, size_caps=[2, 1, 2, 2, 3], value_range=6,
          mode="exhaustive", instance_budget=2000), "37e761e5b9ed4765"),
    (dict(question="Q2", structure=Integers(), k=4, size_caps=2, value_range=5,
          mode="exhaustive", instance_budget=700), "006afe75c736752f"),
    # Random Q2 rows where each bound on |B_1 + ... + B_k| binds in the draw
    # table: k value_range + 1 = 9 below 5^4, and the B caps' product 2 below 201.
    (dict(question="Q2", structure=Integers(), k=4, size_caps=5, value_range=2,
          mode="random", seed=11, instance_budget=300), "52aa22d134000b74"),
    (dict(question="Q2", structure=Integers(), k=5, size_caps=[5, 1, 1, 1, 2, 1, 5], value_range=40,
          mode="random", seed=7, instance_budget=300), "0e6d776a2b829a31"),
]


@pytest.mark.parametrize(
    "fields,digest", PINNED_LOGS, ids=[f"{f['question']}-{f['mode']}-k{f['k']}" for f, _ in PINNED_LOGS]
)
def test_hunt_logs_are_pinned(tmp_path, fields, digest):
    log = tmp_path / "hunt.jsonl"
    summary = run_hunt(HuntConfig(log_path=str(log), **fields))
    assert summary.instances_run == fields["instance_budget"]
    assert hashlib.sha256(log.read_bytes()).hexdigest()[:16] == digest


def test_run_hunt_calls_the_evaluator_seam_once_per_instance(monkeypatch):
    """Wrappers set on hunts.eval_question1/eval_question2 see every call a
    hunt makes; the benchmark's per-instance latencies rely on this."""
    calls = {"eval_question1": [], "eval_question2": []}
    for name, seen in calls.items():
        evaluate = getattr(hunts, name)

        def counting(*args, instance_index, _evaluate=evaluate, _seen=seen):
            _seen.append(instance_index)
            return _evaluate(*args, instance_index=instance_index)

        monkeypatch.setattr(hunts, name, counting)
    q1 = HuntConfig(question="Q1", structure=Permutations(3), k=3, size_caps=2,
                    mode="exhaustive", instance_budget=40)
    q2 = HuntConfig(question="Q2", structure=Integers(), k=3, size_caps=3, value_range=10,
                    seed=3, instance_budget=30)
    assert run_hunt(q1).instances_run == 40
    assert calls == {"eval_question1": list(range(40)), "eval_question2": []}
    assert run_hunt(q2).instances_run == 30
    assert calls == {"eval_question1": list(range(40)), "eval_question2": list(range(30))}
