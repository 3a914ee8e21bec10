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
byte-identical logs. Randomness goes exclusively through randrange-based
subset unranking, and instances are enumerated or drawn in a fixed order.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass, field

from .algebra import (
    AmbientStructure,
    Integers,
    structure_from_json,
    structure_to_json,
)
from .sumsets import FiniteSet, _require_nonempty, leave_one_out, sumset


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class HuntConfig:
    """Parameters of one hunt.

    size_caps gives the per-set cardinality cap: k entries for Q1; for Q2 the
    caps broadcast over (A, B_1..B_k, S), k + 2 entries. A single int
    broadcasts to all positions. value_range bounds the integer carrier
    [0, value_range] for Q2.
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
        if self.k < 3:
            raise ValueError("hunts need k >= 3 (smaller cases are settled)")
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
            if self.structure.size is None:
                raise ValueError("Question 1 needs a finite carrier")
        else:
            if not isinstance(self.structure, Integers):
                raise ValueError("Question 2 runs over the integers")
            if self.value_range is None or self.value_range < 0:
                raise ValueError("Question 2 needs a nonnegative value_range")

    def to_json(self):
        return {
            "question": self.question,
            "structure": structure_to_json(self.structure),
            "k": self.k,
            "size_caps": list(self.size_caps),
            "mode": self.mode,
            "seed": self.seed,
            "instance_budget": self.instance_budget,
            "value_range": self.value_range,
            "log_path": self.log_path,
            "checkpoint_path": self.checkpoint_path,
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a hunt config; a malformed one raises ValueError naming the field."""
        if not isinstance(obj, dict):
            raise ValueError("hunt config: expected a JSON object")
        for key in ("question", "structure", "k"):
            if key not in obj:
                raise ValueError(f"hunt config is missing required field {key!r}")
        return cls(
            question=obj["question"],
            structure=structure_from_json(obj["structure"]),
            k=obj["k"],
            size_caps=obj.get("size_caps", 3),
            mode=obj.get("mode", "random"),
            seed=obj.get("seed", 0),
            instance_budget=obj.get("instance_budget", 0),
            value_range=obj.get("value_range"),
            log_path=obj.get("log_path"),
            checkpoint_path=obj.get("checkpoint_path"),
        )


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
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


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
            pinned = sets[:i] + [FiniteSet(structure, (x,))] + sets[i + 1 :]
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
    if not set(s) <= set(total):
        raise ValueError("S must be a subset of B1+...+Bk")
    lhs = len(sumset(structure, [s, a])) ** k
    rhs = len(s)
    for i in range(1, k + 1):
        rest = leave_one_out(structure, list(bs), i)
        rhs *= len(sumset(structure, [a, rest]))
    instance = {
        "question": "Q2",
        "structure": structure_to_json(structure),
        "A": a.to_json(),
        "Bs": [b.to_json() for b in bs],
        "S": s.to_json(),
    }
    return HuntRecord(instance, lhs, rhs, rhs - lhs, lhs > rhs, instance_index)


def replay(instance: dict, instance_index: int = 0) -> HuntRecord:
    """Re-evaluate a logged instance dict; reproduces lhs/rhs/slack exactly."""
    structure = structure_from_json(instance["structure"])
    if instance["question"] == "Q1":
        sets = [FiniteSet.from_json(structure, vs) for vs in instance["sets"]]
        return eval_question1(structure, sets, instance_index)
    if instance["question"] == "Q2":
        a = FiniteSet.from_json(structure, instance["A"])
        bs = [FiniteSet.from_json(structure, vs) for vs in instance["Bs"]]
        s = FiniteSet.from_json(structure, instance["S"])
        return eval_question2(a, bs, s, instance_index)
    raise ValueError(f"unknown question {instance.get('question')!r}")


# --- Instance generation -------------------------------------------------------


def _masks_by_value(n: int, cap: int):
    """All nonzero n-bit masks with popcount <= cap, in ascending value."""

    def same_popcount(s):
        v = (1 << s) - 1
        top = 1 << n
        while v < top:
            yield v
            c = v & -v
            r = v + c
            v = (((r ^ v) >> 2) // c) | r

    return heapq.merge(*(same_popcount(s) for s in range(1, min(cap, n) + 1)))


def _subsets_in_canonical_order(carrier: list, cap: int, limit: int) -> list:
    """Up to `limit` subsets of the carrier, by ascending bitmask over the
    canonical element order."""
    out = []
    for mask in _masks_by_value(len(carrier), cap):
        out.append([carrier[j] for j in range(len(carrier)) if mask >> j & 1])
        if len(out) >= limit:
            break
    return out


def _unrank_combination(n: int, s: int, r: int) -> list:
    """The r-th s-element subset of range(n) in lexicographic order."""
    out = []
    x = 0
    for pos in range(s):
        while True:
            rest = math.comb(n - x - 1, s - pos - 1)
            if r < rest:
                out.append(x)
                x += 1
                break
            r -= rest
            x += 1
    return out


def _draw_subset(rng: random.Random, carrier: list, cap: int) -> list:
    """A uniform draw among the nonempty subsets of the carrier with at most
    cap elements. Uses only randrange, for cross-version stability."""
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
    return [carrier[i] for i in _unrank_combination(n, size, r)]


def _q1_instances(config: HuntConfig):
    structure = config.structure
    carrier = list(structure.elements())
    budget = config.instance_budget
    if config.mode == "exhaustive":
        pools = [
            _subsets_in_canonical_order(carrier, cap, budget)
            for cap in config.size_caps
        ]
        gen = itertools.product(*pools)
    else:
        rng = random.Random(config.seed)

        def randoms():
            while True:
                yield tuple(
                    _draw_subset(rng, carrier, cap) for cap in config.size_caps
                )

        gen = randoms()
    for combo in itertools.islice(gen, budget):
        yield [FiniteSet(structure, tuple(xs)) for xs in combo]


def _q2_instances(config: HuntConfig):
    structure = config.structure
    carrier = list(range(config.value_range + 1))
    budget = config.instance_budget
    cap_a, *cap_bs, cap_s = config.size_caps

    def build(a_elems, bs_elems, rng=None):
        a = FiniteSet(structure, tuple(a_elems))
        bs = [FiniteSet(structure, tuple(e)) for e in bs_elems]
        total = list(sumset(structure, bs))
        if rng is None:
            for s_elems in _subsets_in_canonical_order(total, cap_s, budget):
                yield a, bs, FiniteSet(structure, tuple(s_elems))
        else:
            yield a, bs, FiniteSet(structure, tuple(_draw_subset(rng, total, cap_s)))

    if config.mode == "exhaustive":
        a_pool = _subsets_in_canonical_order(carrier, cap_a, budget)
        b_pools = [_subsets_in_canonical_order(carrier, c, budget) for c in cap_bs]

        def gen():
            for combo in itertools.product(a_pool, *b_pools):
                yield from build(combo[0], combo[1:])

        yield from itertools.islice(gen(), budget)
    else:
        rng = random.Random(config.seed)

        def gen():
            while True:
                a_elems = _draw_subset(rng, carrier, cap_a)
                bs_elems = [_draw_subset(rng, carrier, c) for c in cap_bs]
                yield from build(a_elems, bs_elems, rng)

        yield from itertools.islice(gen(), budget)


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


def run_hunt(config: HuntConfig) -> HuntSummary:
    """Evaluate instances up to the budget, logging one JSONL record each.

    Deterministic for a fixed config: identical logs byte for byte. Resumes
    from the checkpoint file when one exists (the instance stream is
    replayed up to the recorded index, and the log is appended to).
    """
    start_index = 0
    if config.checkpoint_path:
        try:
            with open(config.checkpoint_path) as fh:
                start_index = json.load(fh)["next_index"]
        except FileNotFoundError:
            start_index = 0

    if config.question == "Q1":
        instances = _q1_instances(config)
        evaluate = lambda inst, idx: eval_question1(config.structure, inst, idx)
    else:
        instances = _q2_instances(config)
        evaluate = lambda inst, idx: eval_question2(*inst, instance_index=idx)

    summary = HuntSummary(config)
    log = open(config.log_path, "a" if start_index else "w") if config.log_path else None
    try:
        for index, inst in enumerate(instances):
            if index < start_index:
                continue
            record = evaluate(inst, index)
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
        processed = start_index + summary.instances_run
        with open(config.checkpoint_path, "w") as fh:
            json.dump({"next_index": processed}, fh)
    return summary
