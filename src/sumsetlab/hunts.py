"""Counterexample hunts for two open sumset inequalities.

Question 1: over a noncommutative group, with n_i the largest sumset obtained
by pinning position i to a single element, is |S|^(k-1) <= prod n_i?

Question 2: for integer sets with S inside B_1 + ... + B_k (k >= 3), is
|S+A|^k <= |S| prod_i |A + sum of the B_j for j != i|?

Both are open; the engine evaluates instances exactly, logs every record to
JSONL, and reports the minimum-slack instance (the closest call). A violation
is a finding, never an error: hunts run to budget and the CLI signals findings
through its exit status.

Determinism contract: given the same config (seed included), two runs produce
byte-identical logs. One instance stream, _instances, serves both questions
and both modes: exhaustive mode lists the subsets under each cap by ascending
bitmask, and random mode draws them through randrange-based subset unranking
only: a draw makes one randrange call and unranks its result by bisecting
Pascal columns, one bisection per element. Each random-mode hunt builds its
own table of those columns before its first draw, with a row for every size
a drawn-from set can reach (the carrier and, for Q2, B_1 + ... + B_k), so its
size is known from the config and it is freed when the hunt ends; a hunt
whose table would pass MAX_DRAW_TABLE entries is refused. A checkpoint
records the config that fixes the stream, and a resume under any other config
is refused, so a resumed log is always one a single run would write. replay
re-evaluates a logged instance and names the field of a malformed one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

from .algebra import (
    MAX_PERMUTATION_DEGREE,
    AmbientStructure,
    DirectPower,
    Integers,
    _is_int,
    structure_from_json,
    structure_to_json,
)
from .sumsets import MAX_SUMMANDS, FiniteSet, _require_nonempty, _set_from_json, sumset


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
MAX_VALUE_RANGE = 10**5  # the largest Q2 value_range: the draw table grows with the carrier
MAX_CARRIER = math.factorial(MAX_PERMUTATION_DEGREE)  # the largest Q1 carrier: |Sym(8)| = 40,320
# The largest random-mode draw table, in entries: enough for sets of up to 25
# elements of Sym(8), and of up to 9 at MAX_VALUE_RANGE.
MAX_DRAW_TABLE = 2**20


def _carrier_size(structure: AmbientStructure) -> int | None:
    """structure.size, None for an infinite carrier. A direct power is
    multiplied out one factor at a time and stops once past MAX_CARRIER, so
    a huge power costs no more than a small one."""
    if not isinstance(structure, DirectPower):
        return structure.size
    base = _carrier_size(structure.base)
    if base is None or base < 2:
        return base
    size = 1
    for _ in range(structure.power):
        size *= base
        if size > MAX_CARRIER:
            break
    return size


@dataclass(frozen=True)
class HuntConfig:
    """Parameters of one hunt.

    size_caps gives the per-set cardinality cap: k entries for Q1; for Q2 the
    caps broadcast over (A, B_1..B_k, S), k + 2 entries. A single int
    broadcasts to all positions. value_range bounds the integer carrier
    [0, value_range] for Q2; it is at most MAX_VALUE_RANGE, and k is at most
    MAX_SUMMANDS.
    """

    question: str
    structure: AmbientStructure
    k: int
    size_caps: tuple = (3,)
    mode: str = "random"
    seed: int = 0
    instance_budget: int = 0
    value_range: int | None = None
    log_path: str | None = None
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("k", "seed", "instance_budget", "value_range"):
            v = getattr(self, name)
            if not _is_int(v) and not (name == "value_range" and v is None):
                raise ValueError(f"{name}: expected an integer, got {v!r}")
        for name in ("log_path", "checkpoint_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name}: expected a path string")
        if self.question not in ("Q1", "Q2"):
            raise ValueError("question must be Q1 or Q2")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError("mode must be exhaustive or random")
        if not 3 <= self.k <= MAX_SUMMANDS:
            raise ValueError(f"hunts need k >= 3 (smaller cases are settled) and k <= {MAX_SUMMANDS}")
        if self.instance_budget < 0:
            raise ValueError("instance budget must be >= 0")
        n_positions = self.k if self.question == "Q1" else self.k + 2
        caps = self.size_caps
        if _is_int(caps):
            caps = (caps,) * n_positions
        else:
            if not isinstance(caps, (tuple, list)) or not all(_is_int(c) for c in caps):
                raise ValueError("size_caps: expected an integer or an array of integers")
            caps = tuple(caps)
            if len(caps) == 1:
                caps = caps * n_positions
        if len(caps) != n_positions or any(c < 1 for c in caps):
            raise ValueError(f"need {n_positions} positive size caps")
        object.__setattr__(self, "size_caps", caps)
        if self.question == "Q1":
            if self.structure.is_commutative:
                raise ValueError("Question 1 targets noncommutative structures")
            size = _carrier_size(self.structure)
            if size is None:
                raise ValueError("Question 1 needs a finite carrier")
            if size > MAX_CARRIER:
                raise ValueError(f"Question 1 needs a carrier of at most {MAX_CARRIER} elements")
        else:
            if not isinstance(self.structure, Integers):
                raise ValueError("Question 2 runs over the integers")
            if self.value_range is None or not 0 <= self.value_range <= MAX_VALUE_RANGE:
                raise ValueError(f"Question 2 needs a value_range in 0..{MAX_VALUE_RANGE}")

    def to_json(self):
        obj = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        obj["structure"] = structure_to_json(self.structure)
        obj["size_caps"] = list(self.size_caps)
        return obj

    @classmethod
    def from_json(cls, obj):
        """Parse a hunt config; a malformed one raises ValueError naming the
        field. Keys that name no field are ignored."""
        if not isinstance(obj, dict):
            raise ValueError("hunt config: expected a JSON object")
        args = {}
        for f in dataclasses.fields(cls):
            if f.name in obj:
                args[f.name] = obj[f.name]
            elif f.default is dataclasses.MISSING:
                raise ValueError(f"hunt config is missing required field {f.name!r}")
        args["structure"] = structure_from_json(args["structure"])
        return cls(**args)


@dataclass(frozen=True)
class HuntRecord:
    """One evaluated instance: exact cross-multiplied sides and the verdict."""

    instance: dict
    lhs: int
    rhs: int
    slack: int
    violation: bool
    instance_index: int

    def to_json(self):
        return {
            "instance": self.instance,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "slack": str(self.slack),
            "violation": self.violation,
            "instance_index": self.instance_index,
        }

    def json_line(self) -> str:
        return _RECORD_ENCODER.encode(self.to_json())


def eval_question1(structure: AmbientStructure, sets: list[FiniteSet], instance_index: int = 0) -> HuntRecord:
    """Evaluate |S|^(k-1) against prod n_i, composing in list order."""
    if structure.is_commutative:
        raise ValueError("Question 1 targets noncommutative structures")
    _require_nonempty(sets)
    k = len(sets)
    big = sumset(structure, sets)
    rhs = 1
    for i, s in enumerate(sets):
        best = 0
        for x in s:
            pinned = sets[:i] + [FiniteSet._unchecked(structure, (x,))] + sets[i + 1 :]
            best = max(best, len(sumset(structure, pinned)))
        rhs *= best
    lhs = len(big) ** (k - 1)
    instance = {
        "question": "Q1",
        "structure": structure_to_json(structure),
        "sets": [s.to_json() for s in sets],
    }
    return HuntRecord(instance, lhs, rhs, rhs - lhs, lhs > rhs, instance_index)


def eval_question2(a: FiniteSet, bs: list[FiniteSet], s: FiniteSet, instance_index: int = 0) -> HuntRecord:
    """Evaluate |S+A|^k against |S| prod_i |A + sum of B_j, j != i|."""
    k = len(bs)
    if k < 3:
        raise ValueError("Question 2 needs at least three B-sets")
    structure = a.structure
    if not isinstance(structure, Integers):
        raise ValueError("Question 2 runs over the integers")
    _require_nonempty([a, s, *bs])
    total = sumset(structure, list(bs))
    if not set(total.elements).issuperset(s.elements):
        raise ValueError("S must be a subset of B1+...+Bk")
    lhs = len(sumset(structure, [s, a])) ** k
    rhs = len(s)
    for i in range(k):
        rhs *= len(sumset(structure, [a, *bs[:i], *bs[i + 1 :]]))
    instance = {
        "question": "Q2",
        "structure": structure_to_json(structure),
        "A": a.to_json(),
        "Bs": [b.to_json() for b in bs],
        "S": s.to_json(),
    }
    return HuntRecord(instance, lhs, rhs, rhs - lhs, lhs > rhs, instance_index)


def replay(instance: dict, instance_index: int = 0) -> HuntRecord:
    """Re-evaluate a logged instance dict; reproduces lhs/rhs/slack exactly.
    A malformed instance raises ValueError naming the field."""
    if not isinstance(instance, dict):
        raise ValueError("instance: expected a JSON object")
    question = instance.get("question")
    fields = ("sets",) if question == "Q1" else ("A", "Bs", "S") if question == "Q2" else ()
    for key in ("question", "structure", *fields):
        if key not in instance:
            raise ValueError(f"instance is missing required field {key!r}")
    if not fields:
        raise ValueError(f"unknown question {question!r}")
    structure = structure_from_json(instance["structure"])

    def sets(key):
        if not isinstance(instance[key], list):
            raise ValueError(f"{key}: expected an array of element arrays")
        return [_set_from_json(structure, vs, f"{key}[{i}]") for i, vs in enumerate(instance[key])]

    if question == "Q1":
        return eval_question1(structure, sets("sets"), instance_index)
    a, bs = _set_from_json(structure, instance["A"], "A"), sets("Bs")
    return eval_question2(a, bs, _set_from_json(structure, instance["S"], "S"), instance_index)


# --- Instance generation -------------------------------------------------------


def _subsets_in_canonical_order(carrier: Sequence, cap: int, limit: int):
    """Up to `limit` nonempty subsets of the carrier with at most cap
    elements, by ascending bitmask over the canonical element order, made one
    at a time as they are read. A mask past the cap steps by its lowest set
    bit: every mask it skips keeps the same high bits and adds more."""
    n, mask = len(carrier), 1
    for _ in range(limit):
        if mask >> n:
            return
        yield [carrier[j] for j in range(mask.bit_length()) if mask >> j & 1]
        mask += 1
        while mask.bit_count() > cap:
            mask += mask & -mask


def _columns(n: int, cap: int) -> list:
    """cols with cols[m][j] = C(j, m) for all m <= cap and j <= n, by the
    Pascal recurrence: the draw table of one hunt, built before its first
    draw and freed with it."""
    cols = [[1] * (n + 1)]
    for _ in range(cap):
        cols.append([0, *itertools.accumulate(cols[-1][:-1])])
    return cols


def _unrank_combination(n: int, s: int, r: int, cols: list) -> list:
    """The r-th s-element subset of range(n) in lexicographic order; cols is
    _columns(n, cap) for some cap >= s.

    With x0 the next free element and m elements still to pick, C(n-x0, m) -
    C(n-x, m) of the remaining subsets start below x (hockey stick), so the
    next element is n - j for the least j with C(j, m) >= C(n-x0, m) - r: one
    bisection of column m."""
    out = []
    j = n
    for m in range(s, 0, -1):
        col = cols[m]
        t = col[j] - r
        j = bisect_left(col, t, 0, j)
        r = col[j] - t
        out.append(n - j)
        j -= 1
    return out


def _draw_subset(rng: random.Random, carrier: Sequence, cap: int, cols: list) -> list:
    """A uniform draw among the nonempty subsets of the carrier with at most
    cap elements; cols is the hunt's table, _columns(N, c) with N >= the
    carrier's length n and c >= min(cap, n). Uses only randrange, for
    cross-version stability: one call picks the rank among all sizes, and
    _unrank_combination bisects Pascal columns to turn it into a subset."""
    n = len(carrier)
    counts = [col[n] for col in cols[1 : min(cap, n) + 1]]
    r = rng.randrange(sum(counts))
    size = 1
    for c in counts:
        if r < c:
            break
        r -= c
        size += 1
    return [carrier[i] for i in _unrank_combination(n, size, r, cols)]


def _instances(config: HuntConfig):
    """The budget's instances in log order, each the argument tuple of its
    question's evaluator: (structure, sets) for Q1, (A, Bs, S) for Q2, with S
    taken from B_1 + ... + B_k under the last cap. Exhaustive mode takes the
    product of the canonical-order pools, read whole, and lists every S;
    random mode builds the hunt's draw table, then draws A, B_1..B_k and S.
    The table's rows cover the carrier and, for Q2, |B_1 + ... + B_k|, which
    is at most min(prod of the B caps, k value_range + 1); a table past
    MAX_DRAW_TABLE entries raises ValueError. All of this happens on the
    call, before the first instance is read. The sets are ascending subsets
    of sorted carriers of valid elements, so they are built unchecked."""
    structure, budget = config.structure, config.instance_budget
    exhaustive, caps = config.mode == "exhaustive", config.size_caps
    if config.question == "Q1":
        carrier = sorted(structure.elements())
    else:
        carrier, caps, cap_s = range(config.value_range + 1), caps[:-1], caps[-1]
    if exhaustive:
        draws = itertools.product(*[_subsets_in_canonical_order(carrier, cap, budget) for cap in caps])
    else:
        n = len(carrier)
        if config.question == "Q2":
            n = max(n, min(math.prod(caps[1:]), config.k * config.value_range + 1))
        m = min(max(config.size_caps), n)
        if (n + 1) * (m + 1) > MAX_DRAW_TABLE:
            raise ValueError(
                f"size_caps: random draws of up to {m} of {n} elements need a table of "
                f"{(n + 1) * (m + 1)} entries, more than {MAX_DRAW_TABLE}"
            )
        cols = _columns(n, m)
        rng = random.Random(config.seed)
        draws = ([_draw_subset(rng, carrier, cap, cols) for cap in caps] for _ in itertools.count())

    def stream():
        for draw in draws:
            sets = [FiniteSet._unchecked(structure, tuple(xs)) for xs in draw]
            if config.question == "Q1":
                yield structure, sets
                continue
            a, *bs = sets
            total = sumset(structure, bs).elements
            if exhaustive:
                s_subsets = _subsets_in_canonical_order(total, cap_s, budget)
            else:
                s_subsets = (_draw_subset(rng, total, cap_s, cols),)
            for s in s_subsets:
                yield a, bs, FiniteSet._unchecked(structure, tuple(s))

    return itertools.islice(stream(), budget)


@dataclass
class HuntSummary:
    """Outcome of a hunt: counts, the closest call, and any findings."""

    config: HuntConfig
    instances_run: int = 0
    min_slack: int | None = None
    min_slack_record: HuntRecord | None = None
    violations: list = field(default_factory=list)

    def to_json(self):
        return {
            "question": self.config.question,
            "instances_run": self.instances_run,
            "min_slack": None if self.min_slack is None else str(self.min_slack),
            "min_slack_instance": (
                None if self.min_slack_record is None else self.min_slack_record.to_json()
            ),
            "violation_count": len(self.violations),
            "violations": [v.to_json() for v in self.violations],
        }


def _truncate_log(path: str, records: int) -> None:
    """Cut a hunt log back to its first `records` lines, dropping anything an
    interrupted run appended after the checkpoint."""
    short = ValueError(f"{path}: the log holds fewer than the checkpoint's {records} records")
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        raise short from None
    with fh:
        for _ in range(records):
            if not fh.readline().endswith(b"\n"):
                raise short
        fh.truncate()


def _stream_config(config: HuntConfig) -> dict:
    """The config fields that fix the instance stream. The budget is not one:
    the first B records of every budget >= B are the same."""
    run_only = ("instance_budget", "log_path", "checkpoint_path")
    return {k: v for k, v in config.to_json().items() if k not in run_only}


def _read_checkpoint(config: HuntConfig) -> int:
    """The checkpoint's next_index, 0 when there is no checkpoint file. A
    checkpoint written for another instance stream raises ValueError naming
    the fields that differ."""
    path = config.checkpoint_path
    try:
        with open(path) as fh:
            body = json.load(fh)
    except FileNotFoundError:
        return 0
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(body, dict) or not isinstance(body.get("config"), dict):
        raise ValueError(f"{path}: checkpoint is missing required field 'config'")
    next_index, stored = body.get("next_index"), body["config"]
    if not _is_int(next_index) or next_index < 0:
        raise ValueError(f"{path}: next_index: expected a nonnegative integer")
    current = _stream_config(config)
    changed = [k for k in sorted(current.keys() | stored.keys()) if stored.get(k) != current.get(k)]
    if changed:
        raise ValueError(
            f"{path}: the checkpoint was written for a config that differs in {', '.join(changed)}"
        )
    return next_index


def _write_checkpoint(config: HuntConfig, next_index: int) -> None:
    """Replace the checkpoint atomically: a reader sees the old or the new one."""
    tmp = config.checkpoint_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"config": _stream_config(config), "next_index": next_index}, fh)
    os.replace(tmp, config.checkpoint_path)


def run_hunt(config: HuntConfig) -> HuntSummary:
    """Evaluate instances up to the budget, logging one JSONL record each.

    Deterministic for a fixed config: identical logs byte for byte. Resumes
    from the checkpoint file when one exists: the log is cut back to the
    checkpoint's record count, the instance stream is replayed up to the
    recorded index, and the log is appended to. A resume raises ValueError
    when the checkpoint was written for another config (any field but the
    budget and the paths) or the log holds fewer records than it. A draw
    table past MAX_DRAW_TABLE raises ValueError before any file is touched.
    """
    instances = _instances(config)
    start_index = _read_checkpoint(config) if config.checkpoint_path else 0
    if start_index and config.log_path:
        _truncate_log(config.log_path, start_index)

    # Looked up per run, so a wrapper set on the module name sees every call.
    evaluate = eval_question1 if config.question == "Q1" else eval_question2
    summary = HuntSummary(config)
    log = open(config.log_path, "a" if start_index else "w") if config.log_path else None
    try:
        for index, inst in enumerate(itertools.islice(instances, start_index, None), start_index):
            record = evaluate(*inst, instance_index=index)
            if log is not None:
                log.write(record.json_line() + "\n")
            summary.instances_run += 1
            if record.violation:
                summary.violations.append(record)
            if summary.min_slack is None or record.slack < summary.min_slack:
                summary.min_slack = record.slack
                summary.min_slack_record = record
    finally:
        if log is not None:
            log.close()

    if config.checkpoint_path:
        _write_checkpoint(config, start_index + summary.instances_run)
    return summary
