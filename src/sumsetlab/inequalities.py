"""Exact verification of sumset cardinality inequalities, with witnesses.

Every verdict is computed in integer or rational arithmetic; inequalities
stated with fractional exponents or divisions are restated as integer
cross-multiplications (for example |S|^(k-1) <= prod |S_i| instead of a
(k-1)-th root), so no verdict ever depends on floating point.

Witness constructions mirror the proofs they certify:

  * superadditivity: k-1 marked copies of S inside S', after translating
    every summand's minimum to 0. The parts of S' are read off the
    leave-one-out sums: part j is S_j together with S_j + a_j, with a_j the
    translated maximum of A_j. The mark count, distinct marks in each copy
    and S' inside S are rechecked. Lattice sets are carried from Z^d to Z by
    z -> m z_1 + ... + m^d z_d with m = 1 + 2k max|coordinate|, injective on
    every sum of at most k summands by uniqueness of balanced base-m digits;
  * submultiplicativity: the lexicographically minimal decomposition of each
    sumset element, whose coordinate-deleting projections have pairwise
    distinct sums;
  * subset growth: an explicit nonempty X inside A realizing the growth
    bound, found by an ascending bitmask search that skips the subset sizes
    ruled out by a proven lower bound on |X + T| (|X| + |T| - 1 in Z and
    Z^d, min(p, |X| + |T| - 1) in Z/p for p prime, max(|X|, |T|) in any
    other group) and reads each union from two half tables of 2^(|A|/2)
    entries. Every union is an int bitmask: integers by shifting while the
    span is at most 64 |A| |T|, and wider integer sets and every other group
    by an index that gives each element of A + T the next bit the first time
    it appears.

Failures of proven statements raise TheoremViolationError: they signal an
implementation bug, never a mathematical discovery.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AmbientStructure,
    Integers,
    Lattice,
    Residues,
    _encode_int,
)
from .sumsets import (
    MAX_SUMMANDS,
    AdditionGraph,
    FiniteSet,
    _require_nonempty,
    _require_same_structure,
    direct_power,
    graph_triple_sumset,
    instance_to_json,
    iterated_sum,
    leave_one_out,
    restricted_pair_sumset,
    sumset,
)

SUBSET_SEARCH_CAP = 20


class TheoremViolationError(RuntimeError):
    """A proven inequality failed: the implementation is broken."""


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _instance_digest(structure, sets, graph=None, **extras) -> str:
    """The digest of an instance, over its instance-file encoding."""
    return _digest(instance_to_json(structure, sets, graph, **extras))


def _frac_json(x: Fraction):
    return [_encode_int(x.numerator), _encode_int(x.denominator)]


@dataclass(frozen=True)
class InequalityReport:
    """Exact verdict for one inequality instance.

    slack is sign-normalized: for a "lhs <= rhs" inequality it is rhs - lhs,
    for "lhs >= rhs" it is lhs - rhs, and for an identity it is -|lhs - rhs|;
    in every case holds is equivalent to slack >= 0.
    """

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction
    instance_digest: str

    def to_json(self):
        return {
            "name": self.name,
            "lhs": _frac_json(self.lhs),
            "rhs": _frac_json(self.rhs),
            "holds": self.holds,
            "slack": _frac_json(self.slack),
            "instance_digest": self.instance_digest,
        }

    def csv_row(self):
        return [
            self.name,
            str(self.lhs.numerator),
            str(self.lhs.denominator),
            str(self.rhs.numerator),
            str(self.rhs.denominator),
            str(self.holds).lower(),
            str(self.slack.numerator),
            str(self.slack.denominator),
        ]


CSV_HEADER = ["name", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "holds", "slack_num", "slack_den"]


def _report(name, lhs, rhs, direction, digest) -> InequalityReport:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    if direction == "<=":
        slack = rhs - lhs
    elif direction == ">=":
        slack = lhs - rhs
    elif direction == "==":
        slack = -abs(lhs - rhs)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return InequalityReport(name, lhs, rhs, slack >= 0, slack, digest)


def _require_commutative(structure):
    if not structure.is_commutative:
        raise ValueError(f"{structure} is not commutative")


def _require_commutative_group(structure):
    """The subset-growth bounds are theorems about commutative groups; in a
    semigroup such as Intersect(u) they can fail."""
    _require_commutative(structure)
    if not structure.invertible:
        raise ValueError(f"{structure} is not a group; the growth bounds need a commutative group")


# --- Superadditive lower bound ----------------------------------------------


@dataclass(frozen=True)
class SuperadditivityWitness:
    """Marked-copy witness for the superadditive lower bound.

    endpoint_sets holds the one- or two-element {min, max} subsets of the
    original summands. Everything else lives in translated coordinates (each
    summand's minimum shifted to 0): a_values are the translated maxima,
    s_prime_parts are the sums with one summand replaced by its endpoint set,
    s_prime is their union, and marked lists the marked elements of each of
    the k-1 copies of S. The total number of marks equals sum |S_i| - 1 and
    every mark lies in s_prime.
    """

    endpoint_sets: tuple
    s_prime_parts: tuple
    s_prime: FiniteSet
    marked: tuple
    a_values: tuple

    def mark_count(self) -> int:
        return sum(len(copy) for copy in self.marked)

    def to_json(self):
        return {
            "endpoint_sets": [s.to_json() for s in self.endpoint_sets],
            "s_prime_parts": [s.to_json() for s in self.s_prime_parts],
            "s_prime": self.s_prime.to_json(),
            "marked": [[_encode_int(x) for x in copy] for copy in self.marked],
            "a_values": [_encode_int(x) for x in self.a_values],
        }


def endpoint_sets(sets: list[FiniteSet]) -> list[FiniteSet]:
    """The {min, max} subset of each integer set (a singleton when equal)."""
    _require_nonempty(sets)
    for s in sets:
        if not isinstance(s.structure, Integers):
            raise ValueError(
                "endpoint sets are defined for integer sets; reduce other "
                "structures with torsion_free_reduce first"
            )
    return [
        FiniteSet._unchecked(s.structure, (s.min(), s.max()) if len(s) > 1 else (s.min(),))
        for s in sets
    ]


def verify_superadditivity(sets: list[FiniteSet]):
    """Check (k-1)|S| >= sum |S_i| - 1 and build the marked-copy witness.

    Works on integer sets. The bound is certified constructively: after
    translating minima to 0, copy i of S (1 <= i <= k-1) is split at
    c_i = a_1 + ... + a_{k-i}; its first section marks the elements of
    S_{k-i+1} that are <= c_i, its second section marks a_{k-i} + x for the
    x in S_{k-i} with x > a_1 + ... + a_{k-i-1}. Marks are distinct within a
    copy, all lie in S', and number exactly sum |S_i| - 1. The j-th part of
    S' is S_j together with a_j + S_j, read off the leave-one-out sums.
    """
    k = len(sets)
    if k < 2:
        raise ValueError("need at least two summands")
    _require_nonempty(sets)
    structure = sets[0].structure
    if not isinstance(structure, Integers):
        raise ValueError(
            "superadditivity verifier works on integer sets; reduce other "
            "structures with torsion_free_reduce first"
        )

    originals = sets
    endpoints = endpoint_sets(originals)

    # Translated picture: every summand's minimum becomes 0.
    tsets = [FiniteSet._unchecked(structure, tuple(x - s.min() for x in s)) for s in sets]
    a = [t.max() for t in tsets]
    prefix = [0] * (k + 1)
    for j in range(1, k + 1):
        prefix[j] = prefix[j - 1] + a[j - 1]

    big = sumset(structure, tsets)
    sis = [leave_one_out(structure, tsets, i) for i in range(1, k + 1)]
    # Translated, summand j's endpoint set is {0, a_j}.
    sprime_parts = [
        FiniteSet._unchecked(structure, tuple(sorted(set(sj).union([x + aj for x in sj]))))
        for sj, aj in zip(sis, a)
    ]
    sprime_elems = set().union(*sprime_parts)
    sprime = FiniteSet._unchecked(structure, tuple(sorted(sprime_elems)))

    marked = []
    for i in range(1, k):
        c = prefix[k - i]
        first = [x for x in sis[k - i] if x <= c]
        shift = a[k - i - 1]
        second = [shift + x for x in sis[k - i - 1] if x > prefix[k - i - 1]]
        marked.append(tuple(first + second))

    witness = SuperadditivityWitness(
        endpoint_sets=tuple(endpoints),
        s_prime_parts=tuple(sprime_parts),
        s_prime=sprime,
        marked=tuple(marked),
        a_values=tuple(a),
    )

    rhs = sum(len(s) for s in sis) - 1
    if witness.mark_count() != rhs:
        raise TheoremViolationError(
            f"THEOREM VIOLATION: marked {witness.mark_count()} elements, expected {rhs}"
        )
    big_elems = set(big)
    if not sprime_elems <= big_elems:
        raise TheoremViolationError("THEOREM VIOLATION: S' is not contained in S")
    # Copy i's marks come from S_(k-i+1) and a_(k-i) + S_(k-i), inside parts
    # k-i+1 and k-i of S', so only their distinctness is checked.
    for copy in marked:
        if len(set(copy)) != len(copy):
            raise TheoremViolationError("THEOREM VIOLATION: bad marked copy")

    digest = _instance_digest(structure, originals)
    report = _report("superadd", (k - 1) * len(big), rhs, ">=", digest)
    return report, witness


def torsion_free_reduce(sets: list[FiniteSet]):
    """Collapse lattice sets to integer sets through z -> m z_1 + ... + m^d z_d.

    m = 1 + 2kB, with B the largest absolute coordinate. The summands, their
    full sum and its leave-one-out sums are sums of at most k summand points,
    whose coordinates lie in [-kB, kB], the range of balanced base-m digits;
    balanced expansions are unique, so the map is injective on them (the
    endpoint-replaced sums lie inside the full sum). Injectivity is still
    certified by enumeration, on the full sum S alone: the map is additive,
    and S_j + a and A_j + c lie in S for a in A_j and c a fixed sum of the
    other summands, so a collision in a summand or a leave-one-out sum
    would show, translated, as a collision in S. A failure raises
    TheoremViolationError. Returns (m, images, endpoint_preimages): the
    integer images of the summands and the at-most-two-element lattice
    preimages of each image's endpoints.
    """
    _require_nonempty(sets)
    structure = sets[0].structure
    if not isinstance(structure, Lattice):
        raise ValueError("torsion-free reduction expects lattice sets")
    k = len(sets)
    zint = Integers()
    m = 1 + 2 * k * max(abs(c) for s in sets for z in s for c in z)
    powers = [m ** (j + 1) for j in range(structure.dim)]

    big = sumset(structure, sets)
    phi = {z: sum(c * p for c, p in zip(z, powers)) for z in itertools.chain(big, *sets)}
    if len({phi[z] for z in big}) != len(big):
        raise TheoremViolationError(
            f"THEOREM VIOLATION: z -> m z_1 + ... + m^d z_d with m = {m} is not injective"
        )

    images = [FiniteSet._unchecked(zint, tuple(sorted([phi[z] for z in s]))) for s in sets]
    preimages = [
        FiniteSet._unchecked(structure, tuple([z for z in s if phi[z] in (img.min(), img.max())]))
        for s, img in zip(sets, images)
    ]
    return m, images, preimages


# --- Submultiplicative upper bound ------------------------------------------


@dataclass(frozen=True)
class LexDecomposition:
    """Lexicographically minimal decompositions of every sumset element.

    element_orders are the canonically sorted summands; mapping sends each
    sumset element to the smallest (1-based) index tuple that produces it;
    b_set is the sorted tuple of those index tuples, one per sumset element.
    """

    b_set: tuple
    mapping: dict
    element_orders: tuple

    def to_json(self):
        orders = self.element_orders
        return {
            "element_orders": [list(o) for o in orders],
            "b_set": [list(t) for t in self.b_set],
            "map": [[s, list(t)] for s, t in sorted(self.mapping.items())],
        }


def lex_min_decomposition(structure: AmbientStructure, sets: list[FiniteSet]) -> LexDecomposition:
    """For each s in the sumset, the lex-min index tuple decomposing it.

    One pass per summand from the right, over any commutative semigroup. The
    tail of a lex-min tuple is the lex-min tuple of its own suffix sum, so
    the table for A_j + ... + A_k maps each value to its lex-min tuple.
    Extending it by A_{j-1} visits the pairs (position, tail) in ascending
    lex order, and the first pair that hits a value is its minimum; no
    subtraction is needed. Raises TheoremViolationError if, for some
    coordinate j, two distinct projected tuples share the same element sum
    (they never do: replacing the j-th coordinate of the later tuple would
    produce a smaller decomposition of the same element).
    """
    if not structure.is_commutative:
        raise ValueError("lex decomposition defined for commutative structures only")
    if len(sets) < 2:
        raise ValueError("need at least two summands")
    _require_nonempty(sets)
    _require_same_structure(structure, sets)
    orders = [s.elements for s in sets]
    k = len(orders)
    compose = structure.compose

    # Insertion order is ascending lex order of the stored tuples.
    mapping = {c: (pos,) for pos, c in enumerate(orders[-1], 1)}
    for order in reversed(orders[:-1]):
        prefixed = {}
        for pos, c in enumerate(order, 1):
            for t, tail in mapping.items():
                s = compose(c, t)
                if s not in prefixed:
                    prefixed[s] = (pos,) + tail
        mapping = prefixed

    b_set = tuple(sorted(mapping.values()))

    # Distinct projections must have distinct element sums, coordinate by
    # coordinate; this is what caps |B_j| by the leave-one-out sumset size.
    for j in range(k):
        seen = {}
        for t in b_set:
            proj = t[:j] + t[j + 1 :]
            value = None
            for pos, l in zip(proj, (x for x in range(k) if x != j)):
                c = orders[l][pos - 1]
                value = c if value is None else compose(value, c)
            if value in seen and seen[value] != proj:
                raise TheoremViolationError(
                    "THEOREM VIOLATION: projected tuples share an element sum"
                )
            seen[value] = proj
    return LexDecomposition(b_set, mapping, tuple(orders))


def verify_submultiplicativity(structure: AmbientStructure, sets: list[FiniteSet]) -> InequalityReport:
    """Check |S|^(k-1) <= prod |S_i| over any commutative structure."""
    _require_commutative(structure)
    if len(sets) < 2:
        raise ValueError("need at least two summands")
    _require_nonempty(sets)
    k = len(sets)
    big = sumset(structure, sets)
    sis = [leave_one_out(structure, sets, i) for i in range(1, k + 1)]
    lhs = len(big) ** (k - 1)
    rhs = 1
    for s in sis:
        rhs *= len(s)
    digest = _instance_digest(structure, sets)
    return _report("submult", lhs, rhs, "<=", digest)


def verify_projection_lemma(points) -> InequalityReport:
    """Check |B|^(d-1) <= prod |B_i| for the d coordinate-deleting projections."""
    pts = set()
    for p in points:
        if not isinstance(p, (tuple, list)):
            raise ValueError(f"projection needs points that are d-tuples, got {p!r}")
        pts.add(tuple(p))
    if not pts:
        raise ValueError("nonempty sets required")
    arities = {len(p) for p in pts}
    if len(arities) != 1:
        raise ValueError("mixed arities in point set")
    d = arities.pop()
    if d < 2:
        raise ValueError("need arity at least 2")
    rhs = 1
    for i in range(d):
        rhs *= len({p[:i] + p[i + 1 :] for p in pts})
    lhs = len(pts) ** (d - 1)
    digest = _digest({"points": sorted(map(list, pts))})
    return _report("projection", lhs, rhs, "<=", digest)


# --- Restricted sums ----------------------------------------------------------


def verify_restricted_three_sum(
    structure: AmbientStructure,
    a: FiniteSet,
    b1: FiniteSet,
    b2: FiniteSet,
    s: FiniteSet,
) -> InequalityReport:
    """Check |S+A|^2 <= |S| |A+B1| |A+B2| for S inside B1+B2."""
    _require_commutative(structure)
    _require_nonempty([a, b1, b2, s])
    carrier = set(sumset(structure, [b1, b2]))
    if not set(s) <= carrier:
        raise ValueError("S must be a subset of B1+B2")
    lhs = len(sumset(structure, [s, a])) ** 2
    rhs = len(s) * len(sumset(structure, [a, b1])) * len(sumset(structure, [a, b2]))
    digest = _instance_digest(structure, [a, b1, b2, s])
    return _report("restsum", lhs, rhs, "<=", digest)


# Miller-Rabin with the first 13 primes as bases decides every n below
# _PRIME_TEST_LIMIT (Sorenson and Webster, arXiv:1509.00864).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < _PRIME_TEST_LIMIT: strong probable-prime
    tests to the bases _PRIME_BASES, which no composite below it passes."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cauchy_davenport_check(p: int, a: FiniteSet, b: FiniteSet) -> InequalityReport:
    """Check |A+B| >= min(|A|+|B|-1, p) over Z/pZ, p prime."""
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality is decided only for moduli below {_PRIME_TEST_LIMIT}")
    if not _is_prime(p):
        raise ValueError("modulus must be prime for Cauchy-Davenport")
    structure = Residues(p)
    for s in (a, b):
        if s.structure != structure:
            raise ValueError(f"set over {s.structure}, expected {structure}")
    _require_nonempty([a, b])
    lhs = len(sumset(structure, [a, b]))
    rhs = min(len(a) + len(b) - 1, p)
    digest = _instance_digest(structure, [a, b])
    return _report("cauchy-davenport", lhs, rhs, ">=", digest)


# --- Subset growth bounds -----------------------------------------------------


@dataclass(frozen=True)
class PlunneckeWitness:
    """A nonempty X inside A realizing a growth bound, with its exact margin.

    bound and achieved are the two sides of the verified comparison, as exact
    rationals with achieved <= bound. For the i-th-root inequality on
    |X + kB| the comparison is recorded in i-th-power form (the root itself
    is irrational in general): achieved = |X+kB|^i and
    bound = |A+iB|^k |X|^i / |A|^k.
    """

    x_set: FiniteSet
    bound: Fraction
    achieved: Fraction

    def to_json(self):
        return {
            "x_set": self.x_set.to_json(),
            "bound": _frac_json(self.bound),
            "achieved": _frac_json(self.achieved),
        }


def plunnecke_report(name, witness: PlunneckeWitness, structure, sets, **params) -> InequalityReport:
    """The report achieved <= bound for a witness found on the instance
    (structure, sets, params)."""
    digest = _instance_digest(structure, sets, **params)
    return _report(name, witness.achieved, witness.bound, "<=", digest)


def _first_valid_subset(structure, a: FiniteSet, target: FiniteSet, valid):
    """Scan nonempty X inside A by ascending bitmask; return the first mask
    (with |X + target|) whose counts satisfy `valid(count, |X|)`, or
    (None, None).

    Masks index the canonically sorted elements of A, so the first hit is the
    numerically smallest valid bitmask. `valid` must stay true when the count
    goes down; then no X of size p can be valid unless valid(lb(p), p) holds
    for a proven lower bound lb(p) on |X + T|, T = target:

      * p + |T| - 1 in Z and Z^d (torsion-free);
      * min(q, p + |T| - 1) in Z/q, q prime (Cauchy-Davenport), when q is
        below _PRIME_TEST_LIMIT, where primality is decided;
      * max(p, |T|) in any other group (X + t is a translate of X).

    The scan starts at the smallest popcount p0 passing that test and visits
    only masks with at least p0 bits. Each union of translates is
    lo[low half of mask] | hi[high half], from two tables of 2^(n/2) entries,
    and |X + T| is its popcount. A translate x + T is an int bitmask: T's
    bitmask shifted by x - min(A) in Z while span(A) + span(T) <= 64 |A| |T|;
    otherwise one bit per element of A + T, numbered in the order the
    elements first appear, so a wide span costs no more memory than the sums.
    Shifting builds the translates in |A| + |T| steps against the index's
    |A| |T| lookups, but its masks are as wide as the span. Measured on
    random sets, it is the faster branch for a scan that stops at its first
    mask up to a span of about 256-1024 |A| |T|, and the slower one for a
    full scan with |A| >= 10 from about 16 |A| |T|; 64 lies between.
    """
    n = len(a)
    if n > SUBSET_SEARCH_CAP:
        raise ValueError("exhaustive search cap exceeded")
    xs, ts = a.elements, target.elements
    t = len(ts)
    if isinstance(structure, Integers) and xs[-1] - xs[0] + ts[-1] - ts[0] <= 64 * n * t:
        tlo = ts[0]
        tbits = 0
        for x in ts:
            tbits |= 1 << (x - tlo)
        alo = xs[0]
        translates = [tbits << (x - alo) for x in xs]
        growth, cap = t - 1, n + t
    else:
        compose, index, translates = structure.compose, {}, []
        for x in xs:
            u = 0
            for y in ts:
                u |= 1 << index.setdefault(compose(x, y), len(index))
            translates.append(u)
        growth = t - 1 if isinstance(structure, (Integers, Lattice)) or (
            isinstance(structure, Residues) and structure.modulus < _PRIME_TEST_LIMIT
            and _is_prime(structure.modulus)
        ) else 0
        cap = structure.size or n + t
    # lb(p) = min(cap, max(p + growth, t)); cap = n + t never binds.
    p0 = 1
    while True:
        lb = p0 + growth if p0 + growth > t else t
        if valid(lb if lb < cap else cap, p0):
            break
        if p0 == n:
            return None, None
        p0 += 1
    # Translate r joins its half table when the scan reaches masks < 2^(r+1).
    h = n >> 1
    lo, hi = [0], [0]
    count = int.bit_count
    low = (1 << h) - 1
    mask, bits = (1 << p0) - 1, p0
    for r, u in enumerate(translates):
        table = lo if r < h else hi
        for v in table[:]:
            table.append(v | u)
        end = 2 << r
        while mask < end:
            cnt = count(lo[mask & low] | hi[mask >> h])
            if valid(cnt, bits):
                return mask, cnt
            # the next mask with at least p0 bits: fill the lowest clear bits
            mask += 1
            bits = mask.bit_count()
            while bits < p0:
                mask |= mask + 1
                bits += 1
    return None, None


def _smallest_valid_subset(a: FiniteSet, target: FiniteSet, valid):
    """(X, |X|, |X + target|) for the X inside A at the smallest valid
    bitmask of _first_valid_subset; X is an ascending subsequence of A. No
    valid X raises TheoremViolationError: the growth bounds are theorems."""
    mask, cnt = _first_valid_subset(a.structure, a, target, valid)
    if mask is None:
        raise TheoremViolationError("THEOREM VIOLATION: no subset satisfies the growth bound")
    xs = a.elements
    x = tuple([xs[j] for j in range(mask.bit_length()) if mask >> j & 1])
    return FiniteSet._unchecked(a.structure, x), len(x), cnt


def find_plunnecke_subset(a: FiniteSet, b: FiniteSet, i: int, k: int) -> PlunneckeWitness:
    """Find nonempty X in A with |X+kB|^i |A|^k <= |A+iB|^k |X|^i.

    This is the integer-exact restatement of |X+kB| <= alpha^(k/i) |X| with
    alpha = |A+iB| / |A|. The search is exhaustive over subsets of A (|A| is
    capped at 20) and returns the smallest valid bitmask.
    """
    if not 1 <= i < k:
        raise ValueError("need 1 <= i < k")
    _require_nonempty([a, b])
    structure = a.structure
    if not isinstance(structure, Integers):
        raise ValueError("expected integer sets")
    m = len(a)
    # kB first: its MAX_SUMMANDS refusal covers i < k before [b] * i is built
    kb = iterated_sum(structure, b, k)
    aib = len(sumset(structure, [a] + [b] * i))
    lhs_scale = m**k
    rhs_scale = aib**k

    x, xs, cnt = _smallest_valid_subset(
        a, kb, lambda c, xs: c**i * lhs_scale <= rhs_scale * xs**i
    )
    return PlunneckeWitness(x, Fraction(rhs_scale * xs**i, lhs_scale), Fraction(cnt**i))


def _multi_search(a: FiniteSet, bs: list[FiniteSet], total: FiniteSet):
    """(witness, s) for find_plunnecke_subset_multi on A, given
    total = B_1 + ... + B_h; s = prod |A + B_i| is folded here."""
    s = 1
    for b in bs:
        s *= len(sumset(a.structure, [a, b]))
    scale = len(a) ** len(bs)
    x, xs, cnt = _smallest_valid_subset(a, total, lambda c, xs: c * scale <= s * xs)
    return PlunneckeWitness(x, Fraction(s * xs, scale), Fraction(cnt)), s


def find_plunnecke_subset_multi(a: FiniteSet, bs: list[FiniteSet]) -> PlunneckeWitness:
    """Find nonempty X in A with |X + B_1 + ... + B_h| m^h <= s |X|,

    where m = |A| and s = prod |A + B_i|, over a commutative group.
    Exhaustive over subsets of A, smallest valid bitmask returned.
    """
    _require_nonempty([a] + list(bs))
    _require_commutative_group(a.structure)
    return _multi_search(a, bs, sumset(a.structure, list(bs)))[0]


def construct_large_subset(a: FiniteSet, bs: list[FiniteSet], k: int) -> PlunneckeWitness:
    """Grow a witness X with |X| >= k by repeatedly extending from A minus X.

    Starts from an empty X and, while |X| < k, runs the search on what is
    left of A (all of A on the first pass), unioning in each new witness. The
    final X satisfies

        |X+B| <= s/m^h + s/(m-1)^h + ... + s/(m-k+1)^h + (|X|-k) s/(m-k+1)^h

    with B = B_1 + ... + B_h, folded once, verified exactly in rational
    arithmetic.
    """
    _require_nonempty([a] + list(bs))
    if not 1 <= k <= len(a):
        raise ValueError("need 1 <= k <= |A|")
    structure = a.structure
    _require_commutative_group(structure)
    h = len(bs)
    m = len(a)
    total = sumset(structure, list(bs))

    x, s = set(), None
    while len(x) < k:
        rest = FiniteSet._unchecked(structure, tuple([v for v in a.elements if v not in x]))
        witness, rest_s = _multi_search(rest, bs, total)
        s = s or rest_s  # s(A), from the first pass, whose rest is A
        x |= set(witness.x_set)

    x_set = FiniteSet._unchecked(structure, tuple(sorted(x)))
    achieved = len(sumset(structure, [x_set, total]))
    bound = sum(Fraction(s, (m - r) ** h) for r in range(k))
    bound += (len(x) - k) * Fraction(s, (m - k + 1) ** h)
    if achieved > bound:
        raise TheoremViolationError(
            "THEOREM VIOLATION: grown subset exceeds its growth bound"
        )
    return PlunneckeWitness(
        x_set=x_set,
        bound=bound,
        achieved=Fraction(achieved),
    )


def smoothed_growth_bound(m: int, s: int, h: int, t, x_size: int) -> Fraction:
    """The smoothed form of the grown-subset bound, for |X| = x_size > t:

        s/(h-1) (1/(m-t)^(h-1) - 1/m^(h-1)) + (|X|-t) s/(m-t)^h.

    t must be rational with 0 <= t < m. At t = 0 this degenerates to
    |X| s/m^h for every h >= 1; for t > 0 it requires h >= 2 (at h = 1 the
    underlying integral is logarithmic, not rational).
    """
    t = Fraction(t)
    if not 0 <= t < m:
        raise ValueError("need 0 <= t < m")
    if t == 0:
        return Fraction(s * x_size, m**h)
    if h < 2:
        raise ValueError("t > 0 requires h >= 2")
    first = Fraction(s, h - 1) * (Fraction(1, (m - t) ** (h - 1)) - Fraction(1, m ** (h - 1)))
    return first + (x_size - t) * Fraction(s, (m - t) ** h)


# --- Monotonicity of iterated sums -------------------------------------------


def verify_lev_monotonicity(a: FiniteSet, kmax: int) -> list[InequalityReport]:
    """Check both monotonicity chains for |iA| up to kmax.

    For every 1 <= i < k <= kmax: the linear chain k(|iA|-1) <= i(|kA|-1)
    (so (|kA|-1)/k is nondecreasing in k) and the root chain
    |kA|^i <= |iA|^k (so |kA|^(1/k) is nonincreasing).
    """
    _require_nonempty([a])
    if not 2 <= kmax <= MAX_SUMMANDS:
        raise ValueError(f"kmax must be in 2..{MAX_SUMMANDS}")
    structure = a.structure
    if not isinstance(structure, Integers):
        raise ValueError("expected integer sets")
    sizes = {1: len(a)}
    acc = a
    for j in range(2, kmax + 1):
        acc = sumset(structure, [acc, a])
        sizes[j] = len(acc)
    digest = _instance_digest(structure, [a], kmax=kmax)
    reports = []
    for i in range(1, kmax + 1):
        for k in range(i + 1, kmax + 1):
            reports.append(
                _report(
                    f"lev-linear i={i} k={k}",
                    k * (sizes[i] - 1),
                    i * (sizes[k] - 1),
                    "<=",
                    digest,
                )
            )
            reports.append(
                _report(
                    f"lev-root i={i} k={k}",
                    sizes[k] ** i,
                    sizes[i] ** k,
                    "<=",
                    digest,
                )
            )
    return reports


# --- Graph-restricted counterexample family -----------------------------------


def build_graph_counterexample(n: int, s: FiniteSet):
    """Build A = [1, n] with edges {(a, a') : a + a' in S} and compare
    |triple sums|^2 against |pair sums|^3.

    S must consist of even integers strictly inside (2n/3, 4n/3) with all
    3-subset sums distinct. For such S the proposed inequality fails: every
    multiset {s1, s2, s3} from S is realized by a pairwise-connected triple
    with element sum (s1+s2+s3)/2, so the triple-sum set outgrows the cube of
    the pair-sum set. Loop edges (a, a) are included whenever 2a is in S.

    Returns (A, graph, report); report.holds is False exactly when the
    counterexample fires.
    """
    if n < 6:
        raise ValueError("need n >= 6")
    _require_nonempty([s])
    if not isinstance(s.structure, Integers):
        raise ValueError("expected integer sets")
    values = s.elements
    for v in values:
        if v % 2 != 0:
            raise ValueError("S must consist of even integers")
        if not (3 * v > 2 * n and 3 * v < 4 * n):
            raise ValueError("S must lie strictly inside (2n/3, 4n/3)")
    triple_sums = [sum(c) for c in itertools.combinations(values, 3)]
    if len(set(triple_sums)) != len(triple_sums):
        raise ValueError("S must have pairwise distinct 3-subset sums")

    zint = Integers()
    a = FiniteSet._unchecked(zint, tuple(range(1, n + 1)))
    edges = set()
    for v in values:
        lo = max(1, v - n)
        for x in range(lo, v // 2 + 1):
            y = v - x
            if 1 <= y <= n:
                edges.add((x - 1, y - 1))
    graph = AdditionGraph(n, n, frozenset(edges), symmetric=True, loops_allowed=True)

    return a, graph, _graph_sum_report(zint, a, graph, _instance_digest(zint, [s], n=n))


def _graph_sum_report(structure, a, graph, digest) -> InequalityReport:
    pair = restricted_pair_sumset(structure, a, a, graph)
    triple = graph_triple_sumset(a, graph)
    return _report("graphsum", len(triple) ** 2, len(pair) ** 3, "<=", digest)


def verify_graph_sum(structure: AmbientStructure, a: FiniteSet, graph: AdditionGraph) -> InequalityReport:
    """Check |triple sums|^2 <= |pair sums|^3 over the edges of a symmetric
    graph on A."""
    return _graph_sum_report(structure, a, graph, _instance_digest(structure, [a], graph))


def greedy_distinct_triple_sums(n: int, target_size: int) -> FiniteSet:
    """Greedily pick even integers strictly inside (2n/3, 4n/3) whose pair
    sums and 3-subset sums stay pairwise distinct, until target_size is hit.

    Candidates are scanned in ascending order. Rejecting pair-sum collisions
    as well as triple-sum collisions keeps the set extensible; accepting a
    pair collision (e.g. 82+88 = 84+86) would poison every later candidate.
    """
    if target_size < 1:
        raise ValueError("target size must be positive")
    chosen = []
    for c in range(2 * n // 3 + 1, 2 * n):
        if c % 2 != 0 or not (3 * c > 2 * n and 3 * c < 4 * n):
            continue
        trial = chosen + [c]
        pairs = [x + y for x, y in itertools.combinations(trial, 2)]
        triples = [x + y + z for x, y, z in itertools.combinations(trial, 3)]
        if len(set(pairs)) == len(pairs) and len(set(triples)) == len(triples):
            chosen = trial
            if len(chosen) == target_size:
                return FiniteSet._unchecked(Integers(), tuple(chosen))
    raise ValueError(
        f"no qualifying set of size {target_size} found inside (2n/3, 4n/3) for n={n}"
    )


# --- Direct-power identity ----------------------------------------------------


def verify_tensor_power(
    structure: AmbientStructure, x: FiniteSet, y: FiniteSet, k: int
) -> InequalityReport:
    """Check |X^k + Y^k| = |X+Y|^k in the k-th direct power (k <= 3, sets of
    at most 6 elements)."""
    if not 1 <= k <= 3:
        raise ValueError("k must be in 1..3")
    _require_nonempty([x, y])
    if len(x) > 6 or len(y) > 6:
        raise ValueError("size cap exceeded (sets of at most 6 elements)")
    base = len(sumset(structure, [x, y]))
    xp = direct_power(structure, x, k)
    yp = direct_power(structure, y, k)
    power = len(sumset(xp.structure, [xp, yp]))
    return _report("tensor", power, base**k, "==", _instance_digest(structure, [x, y], k=k))


def tensor_power_identity_check(
    structure: AmbientStructure, x: FiniteSet, y: FiniteSet, k: int
) -> bool:
    """True iff |X^k + Y^k| = |X+Y|^k in the k-th direct power."""
    return verify_tensor_power(structure, x, y, k).holds
