"""Graph-restricted counterexample family: builder, greedy generator, oracles."""

import itertools

import pytest

from sumsetlab import (
    FiniteSet,
    Integers,
    build_graph_counterexample,
    graph_triple_sumset,
    greedy_distinct_triple_sums,
    restricted_pair_sumset,
)

from conftest import int_set


def brute_family_counts(n, values):
    """Independent enumeration of connected pair/triple sums on [1, n]."""
    target = set(values)
    elems = range(1, n + 1)
    edges = set()
    pair_sums = set()
    for a, b in itertools.combinations_with_replacement(elems, 2):
        if a + b in target:
            edges.add((a, b))
            pair_sums.add(a + b)
    triple_sums = set()
    for a, b, c in itertools.combinations_with_replacement(elems, 3):
        if (a, b) in edges and (a, c) in edges and (b, c) in edges:
            triple_sums.add(a + b + c)
    return pair_sums, triple_sums


def test_binary_spaced_family_fails_spectacularly():
    s = int_set(82, 84, 88, 96, 112, 144)  # 80 + 2*{1,2,4,8,16,32}
    a, graph, report = build_graph_counterexample(120, s)
    pair = restricted_pair_sumset(Integers(), a, a, graph)
    triple = graph_triple_sumset(a, graph)
    assert set(pair) == set(s)
    assert len(pair) == 6
    assert len(triple) == 46  # contains the 20 distinct 3-subset half-sums
    half_sums = {sum(c) // 2 for c in itertools.combinations(s.elements, 3)}
    assert len(half_sums) == 20 and half_sums <= set(triple)
    assert report.lhs == 46**2 and report.rhs == 6**3
    assert not report.holds and report.slack < 0


def test_builders_return_canonical_sets():
    z = Integers()
    for n, size in ((18, 3), (120, 6), (300, 7)):
        s = greedy_distinct_triple_sums(n, size)
        assert s == FiniteSet(z, tuple(reversed(s.elements))) and len(s) == size
        a, _, _ = build_graph_counterexample(n, s)
        assert a == FiniteSet(z, tuple(range(n, 0, -1)))


def test_family_counts_match_bruteforce_oracle():
    for n, values in ((120, (82, 84, 88, 96, 112, 144)), (30, (22, 24, 28)), (18, (14, 16, 20))):
        a, graph, report = build_graph_counterexample(n, int_set(*values))
        pair = restricted_pair_sumset(Integers(), a, a, graph)
        triple = graph_triple_sumset(a, graph)
        expected_pairs, expected_triples = brute_family_counts(n, values)
        assert set(pair) == expected_pairs
        assert set(triple) == expected_triples


def test_three_element_family_under_loop_convention():
    # With loop edges included whenever 2a lands in S, repeated-element
    # triples contribute too: a 3-element S yields 9 distinct triple sums,
    # so even this small family already violates the proposed inequality.
    s = int_set(82, 84, 88)
    _, _, report = build_graph_counterexample(120, s)
    assert report.lhs == 81 and report.rhs == 27
    assert not report.holds


def test_family_precondition_errors():
    with pytest.raises(ValueError, match="nonempty"):
        build_graph_counterexample(120, FiniteSet(Integers(), ()))
    with pytest.raises(ValueError, match="even"):
        build_graph_counterexample(120, int_set(82, 85))
    with pytest.raises(ValueError, match="2n/3"):
        build_graph_counterexample(120, int_set(80, 84))  # 80 is not strictly inside
    with pytest.raises(ValueError, match="2n/3"):
        build_graph_counterexample(120, int_set(82, 160))
    with pytest.raises(ValueError, match="distinct"):
        # 82+84+90 = 82+86+88
        build_graph_counterexample(120, int_set(82, 84, 86, 88, 90))
    with pytest.raises(ValueError, match="n >= 6"):
        build_graph_counterexample(5, int_set(4))


def test_greedy_generator_n120():
    s = greedy_distinct_triple_sums(120, 6)
    assert s.elements == (82, 84, 86, 90, 96, 108)
    # qualifying: even, inside the interval, distinct 3-subset sums
    _, _, report = build_graph_counterexample(120, s)
    assert not report.holds
    assert report.lhs >= 400 and report.rhs == 216


def test_greedy_generator_small_targets():
    s = greedy_distinct_triple_sums(120, 3)
    assert len(s) == 3
    assert greedy_distinct_triple_sums(60, 4).elements == (42, 44, 46, 50)


def test_greedy_generator_unreachable_target():
    with pytest.raises(ValueError, match="no qualifying set"):
        greedy_distinct_triple_sums(9, 6)
    with pytest.raises(ValueError, match="target size"):
        greedy_distinct_triple_sums(120, 0)
