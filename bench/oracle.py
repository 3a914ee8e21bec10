"""Brute-force oracle for the benchmark's outputs.

Every sumset here is an ``itertools.product`` fold through
``structure.compose``, independent of the library's engines (bitset shifts,
subset-union tables, greedy decompositions). Each ``check_*`` function
returns a list of mismatch messages; an empty list means the output agrees.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from sumsetlab import Integers


def fold(structure, sets) -> set:
    """All compositions x_1 * ... * x_k with x_i drawn from sets[i], in order."""
    out = set()
    compose = structure.compose
    for combo in itertools.product(*sets):
        value = combo[0]
        for c in combo[1:]:
            value = compose(value, c)
        out.add(value)
    return out


def js(x):
    """The JSON shape of an element payload: tuples become lists."""
    if isinstance(x, tuple):
        return [js(c) for c in x]
    return x


def _elems(fs) -> list:
    return list(fs.elements)


def _int(v) -> int:
    return int(v, 10) if isinstance(v, str) else int(v)


def _frac(pair) -> Fraction:
    return Fraction(_int(pair[0]), _int(pair[1]))


def _slack(lhs, rhs, direction) -> Fraction:
    if direction == "<=":
        return rhs - lhs
    if direction == ">=":
        return lhs - rhs
    return -abs(lhs - rhs)


def _loo(structure, sets, i) -> set:
    return fold(structure, sets[:i] + sets[i + 1 :])


# --- Subset growth --------------------------------------------------------------


def _first_valid_mask(structure, a, target_sets, valid):
    """Smallest mask over sorted A whose X satisfies valid(|X + target|, |X|)."""
    for mask in range(1, 1 << len(a)):
        x = [a[j] for j in range(len(a)) if mask >> j & 1]
        if valid(len(fold(structure, [x] + target_sets)), len(x)):
            return mask, x
    return None, None


def growth_expectation(structure, a, bs, i=None, k=None):
    """(valid(count, |X|), bound(|X|), achieved(count), target sets) for a search.

    With i and k given this is find_plunnecke_subset's i-th-power form
    |X+kB|^i |A|^k <= |A+iB|^k |X|^i; otherwise the multi-summand form
    |X + B_1 + ... + B_h| m^h <= s |X| with s = prod |A + B_j|.
    """
    m = len(a)
    if i is not None:
        aib = len(fold(structure, [a] + [bs[0]] * i))
        kb = sorted(fold(structure, [bs[0]] * k))
        return (
            lambda c, xs: c**i * m**k <= aib**k * xs**i,
            lambda xs: Fraction(aib**k * xs**i, m**k),
            lambda c: Fraction(c**i),
            [kb],
        )
    h = len(bs)
    s = 1
    for b in bs:
        s *= len(fold(structure, [a, b]))
    total = sorted(fold(structure, bs))
    return (
        lambda c, xs: c * m**h <= s * xs,
        lambda xs: Fraction(s * xs, m**h),
        lambda c: Fraction(c),
        [total],
    )


MINIMALITY_MAX_SIZE = 8


def check_search(spec, witness) -> list:
    """Recheck a find_plunnecke_subset[_multi] witness on the benchmark's inputs."""
    structure = spec["A"].structure
    a = _elems(spec["A"])
    bs = [_elems(b) for b in spec["Bs"]]
    ik = (1, 3) if spec["single"] else (None, None)
    valid, bound, achieved, target = growth_expectation(structure, a, bs, *ik)
    x = _elems(witness.x_set)
    if not x or not set(x) <= set(a):
        return [f"witness X={x} is not a nonempty subset of A"]
    count = len(fold(structure, [x] + target))
    problems = []
    if witness.achieved != achieved(count):
        problems.append(f"achieved {witness.achieved} != {achieved(count)}")
    if witness.bound != bound(len(x)):
        problems.append(f"bound {witness.bound} != {bound(len(x))}")
    if not valid(count, len(x)):
        problems.append("witness violates its growth bound")
    if len(a) <= MINIMALITY_MAX_SIZE:
        mask = sum(1 << a.index(v) for v in x)
        first, _ = _first_valid_mask(structure, a, target, valid)
        if first != mask:
            problems.append(f"witness mask {mask} is not the smallest valid mask {first}")
    return problems


# --- Inequality reports -----------------------------------------------------------


def _superadd(structure, sets):
    k = len(sets)
    big = fold(structure, sets)
    rhs = sum(len(_loo(structure, sets, i)) for i in range(k)) - 1
    return [("superadd", (k - 1) * len(big), rhs, ">=")]


def _submult(structure, sets):
    k = len(sets)
    rhs = 1
    for i in range(k):
        rhs *= len(_loo(structure, sets, i))
    return [("submult", len(fold(structure, sets)) ** (k - 1), rhs, "<=")]


def _projection(points):
    d = len(points[0])
    rhs = 1
    for i in range(d):
        rhs *= len({p[:i] + p[i + 1 :] for p in points})
    return [("projection", len(points) ** (d - 1), rhs, "<=")]


def _restsum(structure, sets):
    a, b1, b2, s = sets
    lhs = len(fold(structure, [s, a])) ** 2
    rhs = len(s) * len(fold(structure, [a, b1])) * len(fold(structure, [a, b2]))
    return [("restsum", lhs, rhs, "<=")]


def _cauchy(structure, sets):
    a, b = sets
    rhs = min(len(a) + len(b) - 1, structure.modulus)
    return [("cauchy-davenport", len(fold(structure, [a, b])), rhs, ">=")]


def _lev(structure, a, kmax):
    sizes = {j: len(fold(structure, [a] * j)) for j in range(1, kmax + 1)}
    out = []
    for i in range(1, kmax + 1):
        for k in range(i + 1, kmax + 1):
            out.append((f"lev-linear i={i} k={k}", k * (sizes[i] - 1), i * (sizes[k] - 1), "<="))
            out.append((f"lev-root i={i} k={k}", sizes[k] ** i, sizes[i] ** k, "<="))
    return out


def _tensor(structure, power, sets, k):
    x, y = sets
    base = len(fold(structure, [x, y]))
    xp = list(itertools.product(x, repeat=k))
    yp = list(itertools.product(y, repeat=k))
    return [("tensor", len(fold(power, [xp, yp])), base**k, "==")]


def _graph_sums(structure, a, edges):
    compose = structure.compose
    n = len(a)
    pair = {compose(a[i], a[j]) for i, j in edges}
    triple = set()
    for i, j, l in itertools.product(range(n), repeat=3):
        if (i, j) in edges and (i, l) in edges and (j, l) in edges:
            triple.add(compose(compose(a[i], a[j]), a[l]))
    return pair, triple


def _large_subset(structure, a, bs, k):
    """construct_large_subset, restated on brute-force folds."""

    def smallest(rest):
        valid, _, _, target = growth_expectation(structure, rest, bs)
        _, x = _first_valid_mask(structure, rest, target, valid)
        return x

    h = len(bs)
    m = len(a)
    s = 1
    for b in bs:
        s *= len(fold(structure, [a, b]))
    x = set(smallest(a))
    while len(x) < k:
        x |= set(smallest(sorted(set(a) - x)))
    total = sorted(fold(structure, bs))
    achieved = len(fold(structure, [sorted(x), total]))
    bound = sum(Fraction(s, (m - r) ** h) for r in range(k))
    bound += (len(x) - k) * Fraction(s, (m - k + 1) ** h)
    return sorted(x), bound, Fraction(achieved)


def _growth_witness(structure, a, bs, i=None, k=None):
    valid, bound, achieved, target = growth_expectation(structure, a, bs, i, k)
    _, x = _first_valid_mask(structure, a, target, valid)
    count = len(fold(structure, [x] + target))
    return x, bound(len(x)), achieved(count)


def expected_reports(spec):
    """(reports, witness) for a verify/witness instance, from brute force.

    reports are (name, lhs, rhs, direction); witness is the expected witness
    bundle for the plunnecke family, or a checking function for the others.
    """
    name = spec["inequality"]
    structure = spec["structure"]
    sets = [_elems(s) for s in spec["sets"]]
    extras = spec["extras"]
    if name == "superadd":
        return _superadd(structure, sets), lambda w, r: _check_superadd_witness(structure, sets, w, r)
    if name == "superadd-tf":
        reports = [("superadd-tf",) + _superadd(structure, sets)[0][1:]]
        return reports, lambda w, r: _check_tf_witness(structure, sets, w, r)
    if name == "submult":
        return _submult(structure, sets), lambda w, r: _check_lex_witness(structure, sets, w)
    if name == "projection":
        return _projection(sets[0]), None
    if name == "restsum":
        return _restsum(structure, sets), None
    if name == "cauchy-davenport":
        return _cauchy(structure, sets), None
    if name == "lev":
        return _lev(structure, sets[0], extras.get("kmax", 4)), None
    if name == "tensor":
        k = extras.get("k", 2)
        return _tensor(structure, spec["power"], sets, k), None
    if name == "graphsum":
        edges = {(i, j) for i, j in spec["graph"].edges}
        pair, triple = _graph_sums(structure, sets[0], edges)
        return [("graphsum", len(triple) ** 2, len(pair) ** 3, "<=")], None
    if name == "plunnecke":
        x, bound, achieved = _growth_witness(structure, sets[0], sets[1:], extras["i"], extras["k"])
    elif name == "plunnecke-multi":
        x, bound, achieved = _growth_witness(structure, sets[0], sets[1:])
    elif name == "plunnecke-large":
        x, bound, achieved = _large_subset(structure, sets[0], sets[1:], extras["k"])
    else:
        raise ValueError(f"no oracle for {name!r}")
    witness = {
        "x_set": [js(v) for v in x],
        "bound": [bound.numerator, bound.denominator],
        "achieved": [achieved.numerator, achieved.denominator],
    }
    return [(name, achieved, bound, "<=")], witness


def _check_superadd_witness(structure, sets, w, rhs) -> list:
    tsets = [[x - s[0] for x in s] for s in sets]
    a = [t[-1] for t in tsets]
    parts = [
        sorted(fold(structure, tsets[:j] + [sorted({0, a[j]})] + tsets[j + 1 :]))
        for j in range(len(sets))
    ]
    sprime = set().union(*parts)
    problems = []
    if w["endpoint_sets"] != [sorted({s[0], s[-1]}) for s in sets]:
        problems.append("endpoint sets differ")
    if w["a_values"] != a:
        problems.append("a_values differ")
    if w["s_prime_parts"] != parts or w["s_prime"] != sorted(sprime):
        problems.append("S' differs")
    marks = w["marked"]
    if sum(len(c) for c in marks) != rhs:
        problems.append("mark count differs from sum |S_i| - 1")
    if any(len(set(c)) != len(c) or not set(c) <= sprime for c in marks):
        problems.append("a marked copy repeats a mark or leaves S'")
    return problems


def _check_tf_witness(structure, sets, w, rhs) -> list:
    k = len(sets)
    m = w["m"]
    m0 = 1 + 2 * k * max(abs(c) for s in sets for z in s for c in z)
    if m < m0 or m % m0 or (m // m0) & (m // m0 - 1):
        return [f"multiplier {m} is not {m0} times a power of two"]

    def phi(z):
        return sum(c * m ** (j + 1) for j, c in enumerate(z))

    full = fold(structure, sets)
    if len({phi(z) for z in full}) != len(full):
        return ["the multiplier is not injective on the full sumset"]
    images = [sorted(phi(z) for z in s) for s in sets]
    problems = []
    if w["images"] != images:
        problems.append("images differ")
    preimages = [
        [js(z) for z in s if phi(z) in (img[0], img[-1])] for s, img in zip(sets, images)
    ]
    if w["endpoint_preimages"] != preimages:
        problems.append("endpoint preimages differ")
    return problems + _check_superadd_witness(Integers(), images, w, rhs)


def _check_lex_witness(structure, sets, w) -> list:
    mapping = {}
    for idx in itertools.product(*(range(len(s)) for s in sets)):
        value = fold(structure, [[s[i]] for s, i in zip(sets, idx)]).pop()
        mapping.setdefault(value, tuple(i + 1 for i in idx))
    expected_map = [[js(v), list(t)] for v, t in sorted(mapping.items())]
    problems = []
    if w["element_orders"] != [[js(x) for x in s] for s in sets]:
        problems.append("element orders differ")
    if w["map"] != expected_map:
        problems.append("lex-min decompositions differ")
    if w["b_set"] != sorted(list(t) for t in mapping.values()):
        problems.append("b_set differs")
    return problems


def _parse_reports(out_format, stdout):
    """[(name, lhs, rhs, holds, slack)] and the witness (JSON only)."""
    if out_format == "csv":
        lines = stdout.splitlines()
        if not lines or lines[0].split(",") != [
            "name", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "holds", "slack_num", "slack_den",
        ]:
            raise ValueError("bad CSV header")
        rows = []
        for line in lines[1:]:
            f = line.split(",")
            rows.append(
                (f[0], Fraction(int(f[1]), int(f[2])), Fraction(int(f[3]), int(f[4])),
                 {"true": True, "false": False}[f[5]], Fraction(int(f[6]), int(f[7])))
            )
        return rows, None
    obj = json.loads(stdout)
    body = obj["reports"] if "reports" in obj else [obj]
    rows = [
        (r["name"], _frac(r["lhs"]), _frac(r["rhs"]), r["holds"], _frac(r["slack"]))
        for r in body
    ]
    return rows, obj.get("witness")


def _compare_reports(expected, rows) -> list:
    if [e[0] for e in expected] != [r[0] for r in rows]:
        return [f"report names {[r[0] for r in rows]} != {[e[0] for e in expected]}"]
    problems = []
    for (name, lhs, rhs, direction), (_, got_lhs, got_rhs, holds, slack) in zip(expected, rows):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        want = _slack(lhs, rhs, direction)
        if (got_lhs, got_rhs, slack, holds) != (lhs, rhs, want, want >= 0):
            problems.append(
                f"{name}: got lhs={got_lhs} rhs={got_rhs} slack={slack} holds={holds}, "
                f"expected lhs={lhs} rhs={rhs} slack={want}"
            )
    return problems


def _expected_code(all_hold) -> int:
    return 0 if all_hold else 2


def check_verify(spec, code, stdout) -> list:
    """Recheck a `verify` or `witness` command's stdout and exit code."""
    name = spec["inequality"]
    if name in ("q1", "q2"):
        return _check_question(spec, code, stdout)
    expected, witness = expected_reports(spec)
    try:
        rows, got_witness = _parse_reports(spec["out"], stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    problems = _compare_reports(expected, rows)
    holds = all(_slack(Fraction(e[1]), Fraction(e[2]), e[3]) >= 0 for e in expected)
    if code != _expected_code(holds):
        problems.append(f"exit code {code}, expected {_expected_code(holds)}")
    if spec["command"] == "witness" and spec["out"] == "json":
        if got_witness is None:
            problems.append("witness missing")
        elif isinstance(witness, dict):
            if got_witness != witness:
                problems.append(f"witness {got_witness} != {witness}")
        else:
            problems += witness(got_witness, expected[0][2])
    return problems


# --- Hunt questions ---------------------------------------------------------------


def question1(structure, sets):
    """(lhs, rhs) of Question 1: |S|^(k-1) against prod over i of max pinned |S|."""
    k = len(sets)
    rhs = 1
    for i, s in enumerate(sets):
        rhs *= max(len(fold(structure, sets[:i] + [[x]] + sets[i + 1 :])) for x in s)
    return len(fold(structure, sets)) ** (k - 1), rhs


def question2(structure, a, bs, s):
    """(lhs, rhs) of Question 2, or None when S is not inside B_1 + ... + B_k."""
    if not set(s) <= fold(structure, bs):
        return None
    k = len(bs)
    rhs = len(s)
    for i in range(k):
        rhs *= len(fold(structure, [a, sorted(_loo(structure, bs, i))]))
    return len(fold(structure, [s, a])) ** k, rhs


def check_record(structure, record) -> list:
    """Recheck one hunt record (a JSONL log line or a q1/q2 verify output)."""
    inst = record["instance"]
    dec = structure.element_from_json
    if inst["question"] == "Q1":
        sets = [sorted(dec(v) for v in vs) for vs in inst["sets"]]
        sides = question1(structure, sets)
    else:
        a = sorted(dec(v) for v in inst["A"])
        bs = [sorted(dec(v) for v in vs) for vs in inst["Bs"]]
        sides = question2(structure, a, bs, sorted(dec(v) for v in inst["S"]))
        if sides is None:
            return ["S is not inside B_1 + ... + B_k"]
    lhs, rhs = sides
    got = (_int(record["lhs"]), _int(record["rhs"]), _int(record["slack"]), record["violation"])
    if got != (lhs, rhs, rhs - lhs, lhs > rhs):
        return [f"record {record['instance_index']}: got {got}, expected {(lhs, rhs, rhs - lhs, lhs > rhs)}"]
    return []


def _check_question(spec, code, stdout) -> list:
    structure = spec["structure"]
    sets = spec["sets"]
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    if spec["inequality"] == "q1":
        instance = {"question": "Q1", "sets": [[js(x) for x in s] for s in sets]}
    else:
        instance = {
            "question": "Q2",
            "A": _elems(sets[0]),
            "Bs": [_elems(b) for b in sets[1:-1]],
            "S": _elems(sets[-1]),
        }
    got = {k: v for k, v in record["instance"].items() if k != "structure"}
    problems = [] if got == instance else [f"record instance {got} != {instance}"]
    problems += check_record(structure, record)
    if code != _expected_code(not record["violation"]):
        problems.append(f"exit code {code} disagrees with the record")
    return problems


def check_hunt_log(structure, budget, code, stdout, log_text, sample) -> list:
    """Recheck a hunt's summary against its JSONL log, and a sample of records.

    sample(n) returns the record indices to recompute by brute force. Lines
    are parsed one at a time, so the check holds one record in memory.
    """
    n = log_text.count("\n")
    chosen = set(sample(n)) if n else set()
    problems = []
    violations = 0
    min_slack = None
    try:
        summary = json.loads(stdout)
        for index, line in enumerate(log_text.splitlines()):
            record = json.loads(line)
            if record["instance_index"] != index:
                problems.append(f"line {index} holds instance {record['instance_index']}")
                break
            violations += record["violation"]
            slack = _int(record["slack"])
            min_slack = slack if min_slack is None else min(min_slack, slack)
            if index in chosen:
                problems += check_record(structure, record)
    except (ValueError, KeyError) as exc:
        return [f"unparsable hunt output: {exc}"]
    if n == 0 or n > budget:
        problems.append(f"{n} records for a budget of {budget}")
    if summary["instances_run"] != n or summary["violation_count"] != violations:
        problems.append("summary counts disagree with the log")
    if summary["min_slack"] is not None and _int(summary["min_slack"]) != min_slack:
        problems.append("summary min_slack disagrees with the log")
    if code != _expected_code(violations == 0):
        problems.append(f"exit code {code} with {violations} violations")
    return problems


# --- Graph family -----------------------------------------------------------------


def check_family(spec, code, stdout) -> list:
    """Recheck `family --n N --target-size T` (JSON): the chosen S and both counts."""
    n = spec["n"]
    try:
        obj = json.loads(stdout)
        s = [_int(v) for v in obj["s"]]
        rows, _ = _parse_reports("json", json.dumps(obj["report"]))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    pairs = [x + y for x, y in itertools.combinations(s, 2)]
    triples = [x + y + z for x, y, z in itertools.combinations(s, 3)]
    if (
        len(s) != spec["target"]
        or any(v % 2 or not 2 * n < 3 * v < 4 * n for v in s)
        or len(set(pairs)) != len(pairs)
        or len(set(triples)) != len(triples)
    ):
        problems.append(f"S={s} does not qualify for n={n}")
    adj = {x: set() for x in range(1, n + 1)}
    for x in range(1, n + 1):
        for v in s:
            if 1 <= v - x <= n:
                adj[x].add(v - x)
    pair = {x + y for x in adj for y in adj[x]}
    triple = {x + y + z for x in adj for y in adj[x] for z in adj[x] & adj[y]}
    problems += _compare_reports([("graphsum", len(triple) ** 2, len(pair) ** 3, "<=")], rows)
    if (obj["pair_sum_count"], obj["triple_sum_count"]) != (len(pair), len(triple)):
        problems.append("pair/triple counts differ")
    if code != _expected_code(len(triple) ** 2 <= len(pair) ** 3):
        problems.append(f"exit code {code}")
    return problems
