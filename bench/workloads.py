"""Seeded workload inputs, the operations that run them, and their checks.

Each workload turns a seed into a fixed list of operations. The measuring
loop runs the list in order, and starts again at the top until its time is
up, one operation after the previous one returns (a closed loop with one
client). The inputs are built through the library's own constructors
(structures, ``FiniteSet``, ``AdditionGraph``, ``HuntConfig``); the program
sees only the generated inputs, never the seed.

Operations:

* ``search``: one ``find_plunnecke_subset`` / ``find_plunnecke_subset_multi``
  call through the package's public names.
* ``cli``: one ``sumsetlab.cli.main`` call (``verify``, ``witness`` or
  ``family``) with stdout captured.
* ``hunt``: one ``sumsetlab.cli.main(["hunt", ...])`` call; it counts as one
  operation per evaluated instance.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import oracle
import sumsetlab
import sumsetlab.cli
import sumsetlab.hunts
from sumsetlab import (
    AdditionGraph,
    DirectPower,
    FiniteSet,
    HuntConfig,
    Integers,
    IntersectionSemigroup,
    Lattice,
    Permutations,
    Residues,
    instance_to_json,
    structure_to_json,
)

Z = Integers()


def digest(obj) -> str:
    """A short stable digest of a JSON-encodable value or of bytes."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()[:16]


@dataclass
class Op:
    """One benchmark operation. key digests its inputs; golden digests are
    keyed by it, so any seed that regenerates an input is checked against
    the recorded output."""

    kind: str
    key: str
    spec: dict
    argv: list = field(default_factory=list)


# --- growth-scan ----------------------------------------------------------------

GROWTH_SIZES = range(4, 15)
GROWTH_PRIMES = (29, 31, 37, 41, 43)
GROWTH_ROUNDS = 8


def _growth_sets(rng, structure, n, progression, b_sizes):
    """A of size n and B sets of the given sizes.

    A progression A is searched with B sets along the same difference, which
    pushes the first valid mask to about 2^n - 1; a random A stops within a
    few hundred masks.
    """
    p = structure.modulus if isinstance(structure, Residues) else None
    if progression:
        d = rng.randrange(1, p) if p else rng.randrange(1, 8)
        start = rng.randrange(p) if p else rng.randrange(-50, 50)
        a = [start + d * j for j in range(n)]
        offsets = [rng.randrange(-20, 20) for _ in b_sizes]
        bs = [[o + d * t for t in range(size)] for o, size in zip(offsets, b_sizes)]
    else:
        a = rng.sample(range(p) if p else range(-60, 60), n)
        bs = [rng.sample(range(p) if p else range(-10, 10), size) for size in b_sizes]
    if p:
        a = [x % p for x in a]
        bs = [[x % p for x in b] for b in bs]
    return FiniteSet(structure, tuple(a)), [FiniteSet(structure, tuple(b)) for b in bs]


def growth_scan(seed, workdir):
    """Witness searches over Z and Z/p, |A| in 4..14, half progressions."""
    rng = random.Random(seed)
    ops = []
    for r in range(GROWTH_ROUNDS):
        for n in GROWTH_SIZES:
            # The modulus is fixed by the round and the size, not drawn: a
            # progression's scan cost depends on p, and the slowest searches
            # set latency_p99_ms, so it must not depend on the seed.
            zp = Residues(GROWTH_PRIMES[(r + n) % len(GROWTH_PRIMES)])
            for progression in (True, False):
                for structure, single in ((Z, True), (Z, False), (zp, False)):
                    b_sizes = (3,) if single else (3, 2)
                    a, bs = _growth_sets(rng, structure, n, progression, b_sizes)
                    spec = {"single": single, "A": a, "Bs": bs}
                    key = digest(
                        {
                            "search": "single" if single else "multi",
                            "structure": structure_to_json(structure),
                            "sets": [s.to_json() for s in [a] + bs],
                        }
                    )
                    ops.append(Op("search", key, spec))
    rng.shuffle(ops)
    return ops


# --- hunts ------------------------------------------------------------------------

Q2_COMMANDS = 4
Q2_BUDGET = 2000


def _hunt_op(workdir, name, config):
    path = os.path.join(workdir, f"{name}.json")
    log = os.path.join(workdir, f"{name}.jsonl")
    body = config.to_json()
    with open(path, "w") as fh:
        json.dump(body, fh)
    spec = {"structure": config.structure, "budget": config.instance_budget, "log": log}
    return Op("hunt", digest(body), spec, ["hunt", "--instance", path, "--log", log])


def hunt_q1_sym3(seed, workdir):
    """Q1 over Sym(3), k=3, size caps 2: the whole 21^3 = 9261 instance space.
    The space is exhaustive, so the inputs do not depend on the seed."""
    config = HuntConfig(
        question="Q1",
        structure=Permutations(3),
        k=3,
        size_caps=2,
        mode="exhaustive",
        seed=0,
        instance_budget=10**4,
    )
    return [_hunt_op(workdir, "q1", config)]


def hunt_q2_int(seed, workdir):
    """Q2 over Z, k=3, size caps 5, value range 40, random draws; the first
    hunt uses the workload seed, the others seeds drawn from it."""
    rng = random.Random(seed)
    seeds = [seed] + [rng.randrange(2**32) for _ in range(Q2_COMMANDS - 1)]
    ops = []
    for j, s in enumerate(seeds):
        config = HuntConfig(
            question="Q2",
            structure=Z,
            k=3,
            size_caps=5,
            mode="random",
            seed=s,
            instance_budget=Q2_BUDGET,
            value_range=40,
        )
        ops.append(_hunt_op(workdir, f"q2-{j}", config))
    return ops


# --- verify-corpus ----------------------------------------------------------------

WITNESS_CAPABLE = {
    "superadd", "superadd-tf", "submult", "plunnecke", "plunnecke-multi", "plunnecke-large",
}
FAMILY_SIZES = ((60, 4), (120, 6))
# Rounds of the template list: with about 250 commands a pass, the slowest
# 1% of commands spans several instances, not one.
CORPUS_ROUNDS = 3


def _sample(rng, structure, pool, size):
    return FiniteSet(structure, tuple(rng.sample(pool, size)))


def _carrier(structure):
    if isinstance(structure, Integers):
        return list(range(0, 30))
    return list(structure.elements())


def _sub_sumset(rng, structure, sets, size):
    """A random S of the given size inside the sum of the given sets."""
    pool = sorted(oracle.fold(structure, [s.elements for s in sets]))
    return FiniteSet(structure, tuple(rng.sample(pool, min(len(pool), size))))


def _corpus_instances(rng):
    """(inequality, structure, sets, graph, extras) for one corpus pass.

    Every template has fixed set sizes; the seed draws only the elements (and
    the graph edges), so the cost of a pass barely depends on the seed. The
    sizes keep every instance within a few milliseconds, so that no single
    inequality takes most of the time.
    """
    zmod = Residues(11)
    prime = Residues(13)
    inter = IntersectionSemigroup(5)
    z2 = Lattice(2)
    z3 = Lattice(3)
    box2 = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    cube = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    sym3 = Permutations(3)
    sym4 = Permutations(4)
    out = []

    def add(name, structure, sets, graph=None, **extras):
        out.append((name, structure, sets, graph, extras))

    def sets(structure, sizes, pool=None):
        pool = _carrier(structure) if pool is None else pool
        return [_sample(rng, structure, pool, n) for n in sizes]

    for sizes in ((5, 5, 5), (4, 4, 4), (3, 3, 3, 3)):
        add("superadd", Z, sets(Z, sizes, range(40)))
    for _ in range(2):
        add("superadd-tf", z2, sets(z2, (3, 3, 3), box2))
    for structure, sizes in ((Z, (4, 4, 4)), (zmod, (3, 3, 3)), (inter, (3, 3, 3)),
                             (DirectPower(Residues(5), 2), (4, 4))):
        add("submult", structure, sets(structure, sizes))
    add("projection", z3, sets(z3, (14,), cube))
    power = DirectPower(Z, 3)
    add("projection", power, sets(power, (14,), cube))
    for structure in (Z, zmod, z2):
        abb = sets(structure, (3, 3, 3), box2 if structure is z2 else None)
        add("restsum", structure, abb + [_sub_sumset(rng, structure, abb[1:], 4)])
    for _ in range(2):
        add("cauchy-davenport", prime, sets(prime, (4, 5)))
    for i, k in ((1, 2), (1, 3)):
        add("plunnecke", Z, sets(Z, (7,), range(30)) + sets(Z, (3,), range(10)), i=i, k=k)
    # The Pluennecke bounds are theorems about commutative groups, so their
    # templates use groups only. The package also accepts the intersection
    # semigroup for them, where the bound can fail; it then raises
    # TheoremViolationError (see "Known defect" in bench/README.md).
    for structure in (Z, zmod, z2):
        add("plunnecke-multi", structure, sets(structure, (7, 3, 2), box2 if structure is z2 else None))
    for structure, k in ((Z, 2), (zmod, 3)):
        add("plunnecke-large", structure, sets(structure, (6, 2, 2)), k=k)
    for size in (5, 6):
        add("lev", Z, sets(Z, (size,)), kmax=4)
    for structure, k, size in ((Z, 2, 3), (sym3, 2, 3), (Residues(101), 3, 2)):
        add("tensor", structure, sets(structure, (size, size)), k=k)
    for _ in range(2):
        (a,) = sets(Z, (10,), range(60))
        edges = {(i, j) for i in range(10) for j in range(i, 10) if rng.random() < 0.35}
        add("graphsum", Z, [a], AdditionGraph(10, 10, frozenset(edges), symmetric=True))
    add("q1", sym3, sets(sym3, (2, 2, 2)))
    add("q1", sym4, sets(sym4, (3, 3, 3)))
    for _ in range(2):
        a_bs = sets(Z, (3,), range(20)) + sets(Z, (2, 2, 2), range(15))
        add("q2", Z, a_bs + [_sub_sumset(rng, Z, a_bs[1:], 4)])
    return out


def verify_corpus(seed, workdir):
    """verify (JSON and CSV) and witness commands over a seeded corpus of
    instance files, plus `family` commands."""
    rng = random.Random(seed)
    instances = [inst for _ in range(CORPUS_ROUNDS) for inst in _corpus_instances(rng)]
    ops = []
    for idx, (name, structure, sets, graph, extras) in enumerate(instances):
        body = instance_to_json(structure, sets, graph, **extras)
        path = os.path.join(workdir, f"inst-{idx:03d}.json")
        with open(path, "w") as fh:
            json.dump(body, fh)
        spec = {"inequality": name, "structure": structure, "sets": sets, "graph": graph, "extras": extras}
        if name == "tensor":
            spec["power"] = DirectPower(structure, extras["k"])
        commands = [("verify", "json")]
        if name not in ("q1", "q2"):
            commands.append(("verify", "csv"))
        if name in WITNESS_CAPABLE:
            commands.append(("witness", "json"))
        for command, out in commands:
            argv = [command, "--instance", path, "--inequality", name, "--out", out]
            key = digest({"argv": [command, name, out], "instance": body})
            ops.append(Op("cli", key, dict(spec, command=command, out=out), argv))
    for n, target in FAMILY_SIZES:
        argv = ["family", "--n", str(n), "--target-size", str(target)]
        ops.append(Op("cli", digest({"argv": argv}), {"command": "family", "n": n, "target": target}, argv))
    return ops


WORKLOADS = {
    "growth-scan": growth_scan,
    "hunt-q1-sym3": hunt_q1_sym3,
    "hunt-q2-int": hunt_q2_int,
    "verify-corpus": verify_corpus,
}


def inputs_digest(ops) -> str:
    """One digest over a workload's generated inputs (paths excluded)."""
    return digest([op.key for op in ops])


# --- running and checking -----------------------------------------------------------


class EvalSeam:
    """Times every eval_question1/eval_question2 call made by run_hunt.

    The wrappers replace the names in ``sumsetlab.hunts``, which is where
    run_hunt looks them up, so a hunt's per-instance latency is measured at
    the hunts module seam while the hunt runs unmodified.
    """

    NAMES = ("eval_question1", "eval_question2")

    def __init__(self):
        self.latencies = array("d")
        self._saved = []

    def _timed(self, fn):
        latencies = self.latencies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            latencies.append(perf_counter() - t0)
            return result

        return wrapper

    def __enter__(self):
        for name in self.NAMES:
            fn = getattr(sumsetlab.hunts, name)
            self._saved.append((name, fn))
            setattr(sumsetlab.hunts, name, self._timed(fn))
        return self

    def __exit__(self, *exc):
        for name, fn in reversed(self._saved):
            setattr(sumsetlab.hunts, name, fn)
        self._saved.clear()


def run_op(op):
    """Run one operation and return its raw result."""
    if op.kind == "search":
        a, bs = op.spec["A"], op.spec["Bs"]
        if op.spec["single"]:
            return sumsetlab.find_plunnecke_subset(a, bs[0], 1, 3)
        return sumsetlab.find_plunnecke_subset_multi(a, bs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sumsetlab.cli.main(op.argv)
    return code, out.getvalue()


def witness_mask(a, x_set) -> int:
    """The bitmask of X over the sorted elements of A."""
    index = {v: j for j, v in enumerate(a.elements)}
    return sum(1 << index[v] for v in x_set)


HUNT_SAMPLE = 64


class Checker:
    """Checks each result against the golden digests and the oracle.

    The oracle rechecks the first result of every distinct operation in
    full, and a seeded sample of each hunt log every time. A repeat of an
    operation must reproduce its first output exactly, and gets the first
    output's verdict.
    """

    def __init__(self, golden, seed):
        self.golden = golden
        self.rng = random.Random(seed)
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def observed(self, op, result) -> tuple:
        """(golden value, stdout bytes, hunt log bytes) of one result."""
        if op.kind == "search":
            return {"mask": witness_mask(op.spec["A"], result.x_set)}, b"", b""
        code, stdout = result
        out = stdout.encode()
        value = {"exit": code, "stdout": digest(out)}
        log = b""
        if op.kind == "hunt":
            with open(op.spec["log"], "rb") as fh:
                log = fh.read()
            value["log"] = digest(log)
        return value, out, log

    def problems(self, op, result, value, log) -> list:
        expected = self.golden.get(op.key)
        if expected is not None and expected != value:
            return [f"golden digest mismatch: {value} != {expected}"]
        if op.kind == "hunt":
            code, stdout = result

            def sample(n):
                return self.rng.sample(range(n), min(n, HUNT_SAMPLE))

            return oracle.check_hunt_log(
                op.spec["structure"], op.spec["budget"], code, stdout, log.decode(), sample
            )
        if op.key in self.first:
            first, found = self.first[op.key]
            return found if first == value else [f"output changed on repeat: {value} != {first}"]
        if op.kind == "search":
            found = oracle.check_search(op.spec, result)
        elif op.spec["command"] == "family":
            found = oracle.check_family(op.spec, *result)
        else:
            found = oracle.check_verify(op.spec, *result)
        self.first[op.key] = (value, found)
        return found

    def check(self, op, result, error, units) -> tuple:
        """Record one operation worth `units` ops; returns the byte counts of
        its stdout and its hunt log."""
        self.attempted += units
        out = log = b""
        if error is not None:
            found = [f"raised {type(error).__name__}: {error}"]
        else:
            value, out, log = self.observed(op, result)
            try:
                found = self.problems(op, result, value, log)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [f"output does not have the expected shape: {exc!r}"]
        if found:
            self.failed += units
            if len(self.failures) < 10:
                self.failures.append(f"{op.kind} {op.argv or op.key}: {found[0]}")
        return len(out), len(log)
