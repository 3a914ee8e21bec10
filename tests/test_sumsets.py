"""Sumset engines, graph-restricted sums, direct powers, instance JSON."""

import itertools
import json
import math
import random
import re
import tracemalloc

import pytest

from sumsetlab import (
    AdditionGraph,
    DirectPower,
    FiniteSet,
    Integers,
    IntersectionSemigroup,
    Lattice,
    Permutations,
    Residues,
    StructureMismatchError,
    direct_power,
    graph_triple_sumset,
    instance_from_json,
    instance_to_json,
    iterated_sum,
    leave_one_out,
    restricted_pair_sumset,
    sumset,
)
from sumsetlab import sumsets

from conftest import brute_sumset, int_set, random_int_set


def test_finite_set_normalizes():
    s = int_set(3, 1, 2, 2, 3)
    assert s.elements == (1, 2, 3)
    assert len(s) == 3 and 2 in s and 5 not in s
    assert list(s) == [1, 2, 3]


def test_finite_set_validates_payloads():
    with pytest.raises(StructureMismatchError):
        FiniteSet(Integers(), (1, (2, 3)))
    with pytest.raises(StructureMismatchError):
        FiniteSet(Residues(5), (0, 5))
    FiniteSet(Integers(), ())  # empty sets are representable


def test_sumset_examples():
    z = Integers()
    assert sumset(z, [int_set(0, 2), int_set(0, 1), int_set(0, 3)]).elements == (0, 1, 2, 3, 4, 5, 6)
    assert sumset(z, [int_set(0), int_set(0)]).elements == (0,)
    zmod = Residues(5)
    a = FiniteSet(zmod, (0, 1, 2))
    assert sumset(zmod, [a, a]).elements == (0, 1, 2, 3, 4)


def test_sumset_errors():
    z = Integers()
    with pytest.raises(ValueError, match="nonempty sets required"):
        sumset(z, [])
    with pytest.raises(ValueError, match="nonempty sets required"):
        sumset(z, [int_set(1), FiniteSet(z, ())])
    with pytest.raises(StructureMismatchError):
        sumset(z, [int_set(1), FiniteSet(Residues(5), (1,))])


def test_sumset_respects_list_order_for_noncommutative():
    sym = Permutations(3)
    x = FiniteSet(sym, ((2, 1, 3),))
    y = FiniteSet(sym, ((2, 3, 1),))
    assert sumset(sym, [x, y]).elements == (sym.compose((2, 1, 3), (2, 3, 1)),)
    assert sumset(sym, [x, y]) != sumset(sym, [y, x])


def test_leave_one_out_examples():
    z = Integers()
    triple = [int_set(0, 2), int_set(0, 1), int_set(0, 3)]
    assert leave_one_out(z, triple, 1).elements == (0, 1, 3, 4)
    assert leave_one_out(z, triple, 3).elements == (0, 1, 2, 3)
    assert leave_one_out(z, [int_set(0), int_set(5)], 1).elements == (5,)
    with pytest.raises(ValueError, match="need at least two summands"):
        leave_one_out(z, [int_set(0)], 1)
    with pytest.raises(ValueError, match="out of range"):
        leave_one_out(z, triple, 4)


def test_iterated_sum_examples():
    z = Integers()
    a = int_set(0, 1, 3)
    assert iterated_sum(z, a, 1) == a
    assert iterated_sum(z, a, 2).elements == (0, 1, 2, 3, 4, 6)
    assert iterated_sum(z, a, 3).elements == (0, 1, 2, 3, 4, 5, 6, 7, 9)
    assert iterated_sum(z, int_set(7), 5).elements == (35,)
    with pytest.raises(ValueError, match="k must be positive"):
        iterated_sum(z, a, 0)
    assert iterated_sum(z, int_set(0, 1), 64).elements == tuple(range(65))
    with pytest.raises(ValueError, match="k must be at most 64"):
        iterated_sum(z, a, 65)


def test_sumset_matches_bruteforce_across_structures(rng):
    cases = []
    z = Integers()
    for _ in range(60):
        k = rng.randrange(2, 5)
        cases.append((z, [random_int_set(rng, max_size=5, lo=-20, hi=20) for _ in range(k)]))
    zmod = Residues(13)
    for _ in range(40):
        sets = [
            FiniteSet(zmod, tuple(rng.sample(range(13), rng.randrange(1, 5))))
            for _ in range(rng.randrange(2, 4))
        ]
        cases.append((zmod, sets))
    lat = Lattice(2)
    for _ in range(40):
        sets = [
            FiniteSet(lat, tuple((rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 5))))
            for _ in range(rng.randrange(2, 4))
        ]
        cases.append((lat, sets))
    sym = Permutations(4)
    perms = list(sym.elements())
    for _ in range(30):
        sets = [
            FiniteSet(sym, tuple(rng.sample(perms, rng.randrange(1, 4))))
            for _ in range(rng.randrange(2, 4))
        ]
        cases.append((sym, sets))
    semi = IntersectionSemigroup(5)
    for _ in range(30):
        sets = [
            FiniteSet(semi, tuple(rng.sample(range(32), rng.randrange(1, 5))))
            for _ in range(rng.randrange(2, 4))
        ]
        cases.append((semi, sets))
    power = DirectPower(Residues(5), 2)
    pairs = list(power.elements())
    for _ in range(30):
        sets = [
            FiniteSet(power, tuple(rng.sample(pairs, rng.randrange(1, 5))))
            for _ in range(rng.randrange(2, 4))
        ]
        cases.append((power, sets))
    for structure, sets in cases:
        assert sumset(structure, sets) == FiniteSet(structure, tuple(brute_sumset(structure, sets)))


def test_integer_engines_match_bruteforce(rng, monkeypatch):
    """Integer sumsets take the bitmask fold while the total spread is at most
    the bound on the number of sums (the product of the set sizes when no
    summand equals the one before it), and the hash fold past it."""
    z = Integers()
    outcomes = []
    bitmask_fold = sumsets._integer_fold

    def recorded_fold(sets):
        outcomes.append(bitmask_fold(sets))
        return outcomes[-1]

    monkeypatch.setattr(sumsets, "_integer_fold", recorded_fold)

    def took_bitmask(sets):
        assert sumset(z, sets) == FiniteSet(z, tuple(brute_sumset(z, sets)))
        return outcomes[-1] is not None

    engines = []
    for _ in range(600):
        k = rng.randrange(1, 5)
        lo, hi = rng.choice([(-40, 40), (-10**6, 10**6)])  # dense and sparse-wide
        sets = [random_int_set(rng, max_size=6, lo=lo, hi=rng.randrange(lo, hi + 1)) for _ in range(k)]
        engines.append(took_bitmask(sets))
    assert any(engines) and not all(engines)

    assert took_bitmask([int_set(-7)])
    assert took_bitmask([int_set(5), int_set(-3), int_set(0, -1)])
    for k in range(1, 5):
        for _ in range(20):
            # Heads {lo, lo + 2^j} have distinct partial sums, so every check
            # sees the product of the sizes.
            heads = [int_set(lo, lo + 2**j) for j, lo in enumerate(rng.sample(range(-9, 10), k - 1))]
            size = rng.randrange(3, 8)
            spread = 2 ** (k - 1) * size - (2 ** (k - 1) - 1)
            for past, bitmask in ((0, True), (1, False)):
                lo = rng.randrange(-50, 1)
                top = lo + spread + past
                last = FiniteSet(z, (lo, *rng.sample(range(lo + 1, top), size - 2), top))
                assert took_bitmask([*heads, last]) == bitmask

    # Progressions with a common difference: dense by the product of the
    # sizes, but four equal summands have at most C(8, 4) = 70 sums, fewer
    # than the spread 320, so the hash fold takes them.
    assert not took_bitmask([FiniteSet(z, tuple(range(-40, 60, 20)))] * 4)


@pytest.mark.parametrize("k, m", [(2, 3), (3, 4), (4, 2), (5, 5), (16, 1)])
def test_a_run_of_equal_summands_counts_as_multisets(k, m):
    """k adjacent equal m-sets have at most C(k + m - 1, k) sums. After a
    leading {0, d} the bound is 2 C(k + m - 1, k): a spread of exactly that
    takes the bitmask fold and one more the hash fold, whether the run repeats
    one set or holds equal-valued copies."""
    z = Integers()
    bound = 2 * math.comb(k + m - 1, k)
    a = int_set(*range(m))
    for d, bitmask in ((bound - k * (m - 1), True), (bound - k * (m - 1) + 1, False)):
        for run in ([a] * k, [int_set(*range(m)) for _ in range(k)]):
            sets = [int_set(0, d), *run]
            assert sum(s.max() - s.min() for s in sets) == bound + (not bitmask)
            assert (sumsets._integer_fold(sets) is not None) == bitmask
            assert sumset(z, sets).elements == tuple(sorted(brute_sumset(z, sets)))


def test_equal_summands_apart_count_by_the_product():
    """Only adjacent equal summands make a run: [a, b, a] is bounded by
    |a| |b| |a|, so a spread of exactly that takes the bitmask fold."""
    z = Integers()
    a = int_set(0, 1, 2, 3)
    for d, bitmask in ((26, True), (27, False)):  # spread 3 + d + 3 against 4 * 2 * 4
        sets = [a, int_set(0, d), a]
        assert (sumsets._integer_fold(sets) is not None) == bitmask
        assert sumset(z, sets).elements == tuple(sorted(brute_sumset(z, sets)))


def test_runs_of_summands_match_bruteforce(rng):
    """Sums built from runs of repeated summands, dense and sparse, agree
    with the oracle on both engines."""
    z = Integers()
    engines = []
    for _ in range(300):
        sets = []
        while len(sets) < 5:
            lo = rng.randrange(-30, 30)
            s = random_int_set(rng, max_size=4, lo=lo, hi=lo + rng.choice([3, 12, 40, 10**6]))
            r = rng.randrange(1, 6 - len(sets))
            sets += rng.choice([[s] * r, [FiniteSet(z, s.elements) for _ in range(r)]])
            if rng.random() < 0.3:
                break
        folded = sumsets._integer_fold(sets)
        expected = tuple(sorted(brute_sumset(z, sets)))
        assert folded in (None, expected)
        assert sumset(z, sets).elements == expected
        engines.append(folded is not None)
    assert any(engines) and not all(engines)


def test_iterated_sums_of_a_sidon_like_set_stay_small():
    """12B for B = {13^j : j < 8} has C(19, 7) = 50,388 sums over a spread
    of about 7.5 * 10^8: counted as a multiset, the run of equal summands
    goes to the hash fold rather than a mask that wide."""
    z = Integers()
    b = FiniteSet(z, tuple(13**j for j in range(8)))
    tracemalloc.start()
    try:
        total = iterated_sum(z, b, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(total) == math.comb(19, 7) == 50388
    assert peak < 16 * 2**20


def _spanning_set(rng, lo, span, size):
    """`size` integers from lo to lo + span, both ends included."""
    return FiniteSet(Integers(), (lo, lo + span, *rng.sample(range(lo + 1, lo + span), size - 2)))


# Per summand count k, the summand size that keeps a sum spanning the given
# number of bits on the bitmask fold.
DENSE_SIZES = {1: {600: 600, 5000: 5000}, 2: {600: 30, 5000: 80}, 3: {600: 10, 5000: 25}, 4: {600: 6, 5000: 12}}


@pytest.mark.parametrize("offset", [0, -1, -4097, 2**63 - 2, 2**63 + 7, -(2**63) - 3, -(2**70)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bitmask_decode_matches_bruteforce(offset, k):
    """The decode gives every sum of a dense fold whose span passes 512 and
    4,096 bits, at offsets past one machine word and below zero."""
    z = Integers()
    rng = random.Random(offset * 10 + k)
    for total_span, size in DENSE_SIZES[k].items():
        span = total_span // k
        sets = [_spanning_set(rng, rng.randrange(-30, 30), span, min(size, span + 1)) for _ in range(k - 1)]
        sets.insert(0, _spanning_set(rng, offset, span, min(size, span + 1)))
        folded = sumsets._integer_fold(sets)
        assert folded is not None  # the bitmask fold, not the hash fold
        assert folded[-1] - folded[0] >= total_span - k
        assert folded == tuple(sorted(brute_sumset(z, sets)))
        assert sumset(z, sets).elements == folded


@pytest.mark.parametrize("offset", [0, -5, 2**64 + 1, -(2**63) - 1])
def test_bitmask_decode_of_singletons(offset):
    z = Integers()
    for k in range(1, 5):
        singles = [int_set(offset + 3 * j) for j in range(k)]
        assert sumsets._integer_fold(singles) == (k * offset + 3 * k * (k - 1) // 2,)
        mixed = [*singles[:-1], int_set(-2, -1, 1)]
        assert sumsets._integer_fold(mixed) == tuple(sorted(brute_sumset(z, mixed))) == sumset(z, mixed).elements


def test_integer_cardinality_bounds_on_1000_instances(rng):
    z = Integers()
    for _ in range(1000):
        a = random_int_set(rng, max_size=7, lo=0, hi=60)
        b = random_int_set(rng, max_size=7, lo=0, hi=60)
        total = sumset(z, [a, b])
        assert len(total) >= len(a) + len(b) - 1
        assert len(total) >= max(len(a), len(b))
        assert len(total) <= len(a) * len(b)


def test_product_cardinality_upper_bound(rng):
    zmod = Residues(9)
    for _ in range(100):
        sets = [
            FiniteSet(zmod, tuple(rng.sample(range(9), rng.randrange(1, 5))))
            for _ in range(3)
        ]
        prod = 1
        for s in sets:
            prod *= len(s)
        assert len(sumset(zmod, sets)) <= prod


def test_restricted_pair_examples():
    z = Integers()
    a = int_set(1, 2)
    g = AdditionGraph(2, 2, frozenset({(0, 1)}), symmetric=True, loops_allowed=False)
    assert restricted_pair_sumset(z, a, a, g).elements == (3,)
    complete = AdditionGraph.complete(2, 2)
    assert restricted_pair_sumset(z, a, a, complete).elements == (2, 3, 4)
    empty = AdditionGraph(2, 2, frozenset(), symmetric=True)
    assert len(restricted_pair_sumset(z, a, a, empty)) == 0


def test_restricted_pair_sum_in_target_set():
    # connect a, a' in [1, 120] exactly when a + a' lies in a fixed 6-element set
    z = Integers()
    target = {82, 84, 88, 96, 112, 144}
    a = FiniteSet(z, tuple(range(1, 121)))
    edges = {
        (i, j)
        for i in range(120)
        for j in range(120)
        if (i + 1) + (j + 1) in target
    }
    g = AdditionGraph(120, 120, frozenset(edges), symmetric=True)
    assert set(restricted_pair_sumset(z, a, a, g)) == target


def test_restricted_pair_dimension_mismatch():
    z = Integers()
    g = AdditionGraph.complete(2, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        restricted_pair_sumset(z, int_set(1, 2, 3), int_set(1, 2), g)


def test_complete_graph_restriction_equals_sumset(rng):
    z = Integers()
    for _ in range(50):
        a = random_int_set(rng, max_size=6, lo=0, hi=30)
        b = random_int_set(rng, max_size=6, lo=0, hi=30)
        g = AdditionGraph.complete(len(a), len(b))
        assert restricted_pair_sumset(z, a, b, g) == sumset(z, [a, b])


def test_graph_triple_examples():
    z = Integers()
    a = int_set(1, 2, 3)
    triangle = AdditionGraph(
        3, 3, frozenset({(0, 1), (0, 2), (1, 2)}), symmetric=True, loops_allowed=False
    )
    assert graph_triple_sumset(a, triangle).elements == (6,)
    empty = AdditionGraph(3, 3, frozenset(), symmetric=True)
    assert len(graph_triple_sumset(a, empty)) == 0
    directed = AdditionGraph(3, 3, frozenset({(0, 1)}), symmetric=False)
    with pytest.raises(ValueError, match="non-symmetric"):
        graph_triple_sumset(a, directed)


def test_graph_triple_with_loops_allows_repeats():
    z = Integers()
    a = int_set(1, 2)
    g = AdditionGraph(2, 2, frozenset({(0, 0), (0, 1)}), symmetric=True)
    # (1,1,1) needs (0,0) three times; (1,1,2) needs (0,0) and (0,1) twice
    assert graph_triple_sumset(a, g).elements == (3, 4)


def test_graph_triple_matches_bruteforce(rng):
    z = Integers()
    for _ in range(40):
        n = rng.randrange(2, 7)
        a = FiniteSet(z, tuple(rng.sample(range(0, 30), n)))
        edges = set()
        for i in range(n):
            for j in range(i, n):
                if rng.randrange(2):
                    edges.add((i, j))
        g = AdditionGraph(n, n, frozenset(edges), symmetric=True)
        expected = set()
        es = set(g.edges)
        xs = a.elements
        for i, j, k in itertools.combinations_with_replacement(range(n), 3):
            if (i, j) in es and (i, k) in es and (j, k) in es:
                expected.add(xs[i] + xs[j] + xs[k])
        assert graph_triple_sumset(a, g) == FiniteSet(z, tuple(expected))


def test_graph_triple_memory_grows_with_the_edges():
    """A sparse graph on many elements: 20,000 elements, 10,000 edge pairs."""
    n = 20_000
    a = FiniteSet(Integers(), tuple(range(n)))
    g = AdditionGraph(n, n, frozenset((i, n - 1 - i) for i in range(n // 2)), symmetric=True)
    tracemalloc.start()
    try:
        triple = graph_triple_sumset(a, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a matching has no triangles; n-bit adjacency masks would take about 26 MiB
    assert len(triple) == 0
    assert peak < 8 * 1024 * 1024


def direct_triple_sums(a, g):
    """Fold x_i x_j x_k over every i <= j <= k whose three pairs are edges."""
    compose = a.structure.compose
    xs = a.elements
    return {
        compose(compose(xs[i], xs[j]), xs[k])
        for i, j, k in itertools.combinations_with_replacement(range(len(xs)), 3)
        if {(i, j), (i, k), (j, k)} <= g.edges
    }


def random_symmetric_graph(rng, n, density, loops):
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i if loops else i + 1, n)
        if rng.random() < density
    }
    return AdditionGraph(n, n, frozenset(edges), symmetric=True, loops_allowed=loops)


@pytest.mark.parametrize("loops", [True, False], ids=["loops", "no-loops"])
@pytest.mark.parametrize("density", [0.1, 0.7], ids=["sparse", "dense"])
@pytest.mark.parametrize(
    "structure", [Integers(), Residues(7), Permutations(3)], ids=["Z", "Zmod7", "Sym3"]
)
def test_graph_triple_matches_direct_enumeration(structure, density, loops, rng):
    if isinstance(structure, Integers):
        # 80 indices: wider than the small pools, with rows of many neighbours
        pools = [range(-40, 41)] * 12 + [range(200)]
        sizes = [rng.randrange(1, 13) for _ in range(12)] + [80]
    else:
        pools = [list(structure.elements())] * 12
        sizes = [rng.randrange(1, len(pools[0]) + 1) for _ in range(12)]
    for pool, n in zip(pools, sizes):
        a = FiniteSet(structure, tuple(rng.sample(list(pool), n)))
        g = random_symmetric_graph(rng, n, density, loops)
        assert set(graph_triple_sumset(a, g).elements) == direct_triple_sums(a, g)


def test_addition_graph_validation():
    with pytest.raises(ValueError, match="out of range"):
        AdditionGraph(2, 2, frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="loop edge"):
        AdditionGraph(2, 2, frozenset({(0, 0)}), loops_allowed=False)
    with pytest.raises(ValueError, match="equal side sizes"):
        AdditionGraph(2, 3, frozenset(), symmetric=True)
    g = AdditionGraph(3, 3, frozenset({(0, 1)}), symmetric=True)
    assert (1, 0) in g.edges  # symmetric closure


@pytest.mark.parametrize(
    "args, kwargs, named",
    [
        ((2, 2, frozenset({(0.9, 1.7)})), {}, "edge (0.9, 1.7)"),
        ((2, 2, frozenset({(True, "1")})), {}, "edge (True, '1')"),
        ((2, 2, frozenset({(0, 1.0)})), {"symmetric": True}, "edge (0, 1.0)"),
        ((2.0, 2, frozenset()), {}, "left_size"),
        ((2, True, frozenset()), {}, "right_size"),
    ],
    ids=["float-edge", "bool-str-edge", "symmetric-float-edge", "float-size", "bool-size"],
)
def test_addition_graph_refuses_non_integer_sizes_and_indices(args, kwargs, named):
    """Indices are not coerced: (0.9, 1.7) would become the edge (0, 1)."""
    with pytest.raises(ValueError, match=re.escape(named)):
        AdditionGraph(*args, **kwargs)


def test_direct_power_examples():
    z = Integers()
    p = direct_power(z, int_set(0, 1), 2)
    assert p.structure == DirectPower(z, 2)
    assert p.elements == ((0, 0), (0, 1), (1, 0), (1, 1))
    one = direct_power(z, int_set(4, 7), 1)
    assert one.elements == ((4,), (7,))
    assert len(direct_power(z, int_set(0, 1, 3), 2)) == 9
    with pytest.raises(ValueError):
        direct_power(z, int_set(0, 1), 0)


def test_power_sumset_identity_small(rng):
    z = Integers()
    for k in (2, 3):
        for _ in range(20):
            x = random_int_set(rng, max_size=4, lo=0, hi=12)
            y = random_int_set(rng, max_size=4, lo=0, hi=12)
            xp = direct_power(z, x, k)
            yp = direct_power(z, y, k)
            assert len(sumset(xp.structure, [xp, yp])) == len(sumset(z, [x, y])) ** k


def test_instance_json_roundtrip_with_one_based_graph():
    z = Integers()
    sets = [int_set(1, 2), int_set(1, 2)]
    g = AdditionGraph(2, 2, frozenset({(0, 1)}), symmetric=True, loops_allowed=False)
    obj = instance_to_json(z, sets, g, k=3)
    assert obj["graph"]["edges"] == [[1, 2], [2, 1]]
    structure, sets2, g2, extras = instance_from_json(obj)
    assert structure == z
    assert [s.elements for s in sets2] == [(1, 2), (1, 2)]
    assert g2 == g
    assert extras == {"k": 3}


J = 2**53


@pytest.mark.parametrize(
    "elements",
    [
        (),
        (7,),
        (-(J - 1), 0, J - 1),
        (-J, 0, 5),
        (0, 5, J),
        (-J - 1, -3, 1, J + 1),
        (-(2**70), 2**70),
        (-J,),
        (J,),
    ],
)
def test_integer_to_json_matches_element_encoding(elements):
    """Integer sets encode as plain lists only while every element is a JSON
    int; |x| >= 2^53 turns the whole set over to per-element encoding."""
    z = Integers()
    s = FiniteSet(z, elements)
    expected = [z.element_to_json(x) for x in s.elements]
    assert json.dumps(s.to_json()) == json.dumps(expected)
    assert [type(v) for v in s.to_json()] == [type(v) for v in expected]


def test_integer_to_json_at_the_2_53_edge():
    z = Integers()
    assert FiniteSet(z, (-(J - 1), J - 1)).to_json() == [-(J - 1), J - 1]
    assert FiniteSet(z, (-J, J)).to_json() == [str(-J), str(J)]
    assert FiniteSet(z, (-J, 1, 2)).to_json() == [str(-J), 1, 2]  # only the first element is out
    assert FiniteSet(z, (1, 2, J)).to_json() == [1, 2, str(J)]  # only the last element is out


def test_direct_power_to_json_keeps_element_encoding():
    power = DirectPower(Integers(), 2)
    s = FiniteSet(power, ((-J, 0), (1, 2), (3, J + 5)))
    assert s.to_json() == [[str(-J), 0], [1, 2], [3, str(J + 5)]]
    assert json.dumps(s.to_json()) == json.dumps([power.element_to_json(x) for x in s.elements])
