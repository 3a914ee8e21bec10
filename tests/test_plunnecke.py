"""Subset growth bounds: witness search, grown subsets, monotonicity chains."""

import itertools
import random
from fractions import Fraction

import pytest

from sumsetlab import (
    FiniteSet,
    Integers,
    IntersectionSemigroup,
    Residues,
    construct_large_subset,
    find_plunnecke_subset,
    find_plunnecke_subset_multi,
    iterated_sum,
    smoothed_growth_bound,
    sumset,
    verify_lev_monotonicity,
)

from conftest import int_set, random_int_set


def test_single_b_examples():
    w = find_plunnecke_subset(int_set(0), int_set(0, 1, 3), 1, 2)
    assert w.x_set.elements == (0,)
    assert w.achieved == 6 and w.bound == 9  # |2B| = 6 <= alpha^2 = 9

    trivial = find_plunnecke_subset(int_set(0), int_set(0), 1, 2)
    assert trivial.x_set.elements == (0,)
    assert trivial.achieved == 1 and trivial.bound == 1

    w2 = find_plunnecke_subset(int_set(0, 5), int_set(0, 1), 1, 3)
    assert len(w2.x_set) >= 1 and w2.achieved <= w2.bound


def test_single_b_errors():
    with pytest.raises(ValueError, match="1 <= i < k"):
        find_plunnecke_subset(int_set(0), int_set(0, 1), 2, 2)
    with pytest.raises(ValueError, match="cap exceeded"):
        find_plunnecke_subset(int_set(*range(21)), int_set(0, 1), 1, 2)
    with pytest.raises(ValueError, match="nonempty"):
        find_plunnecke_subset(FiniteSet(Integers(), ()), int_set(0), 1, 2)


def test_single_b_returns_smallest_valid_mask(rng):
    z = Integers()
    for _ in range(80):
        a = random_int_set(rng, max_size=4, lo=0, hi=10)
        b = random_int_set(rng, max_size=4, lo=0, hi=8)
        i, k = 1, rng.choice([2, 3])
        witness = find_plunnecke_subset(a, b, i, k)
        m = len(a)
        aib = len(sumset(z, [a, iterated_sum(z, b, i)]))
        kb = iterated_sum(z, b, k)
        # brute force: first bitmask over sorted elements passing the bound
        expected = None
        for mask in range(1, 1 << m):
            xs = [a.elements[j] for j in range(m) if mask >> j & 1]
            cnt = len({x + t for x in xs for t in kb})
            if cnt**i * m**k <= aib**k * len(xs) ** i:
                expected = (tuple(xs), cnt)
                break
        assert expected is not None
        assert witness.x_set.elements == expected[0]
        assert witness.achieved == Fraction(expected[1] ** i)


def test_multi_examples():
    w = find_plunnecke_subset_multi(int_set(0, 1), [int_set(0, 1), int_set(0, 2)])
    assert w.x_set.elements == (0, 1)
    assert w.achieved == 5  # X+B1+B2 = {0..4}, checked as 5*4 <= 12*2
    assert w.bound == Fraction(12 * 2, 4)

    single = find_plunnecke_subset_multi(int_set(0), [int_set(0, 1)])
    assert single.x_set.elements == (0,)
    assert single.achieved == 2 and single.bound == 2

    w3 = find_plunnecke_subset_multi(int_set(0, 1, 4), [int_set(0, 1), int_set(0, 3)])
    assert w3.x_set.elements == (0, 1, 4)  # the full set is the first valid subset
    assert w3.achieved <= w3.bound


def test_multi_works_over_residues(rng):
    zmod = Residues(13)
    for _ in range(40):
        a = FiniteSet(zmod, tuple(rng.sample(range(13), rng.randrange(1, 5))))
        bs = [
            FiniteSet(zmod, tuple(rng.sample(range(13), rng.randrange(1, 4))))
            for _ in range(rng.choice([1, 2]))
        ]
        w = find_plunnecke_subset_multi(a, bs)
        assert len(w.x_set) >= 1 and w.achieved <= w.bound


def test_large_subset_base_case_matches_multi():
    a = int_set(0, 2, 7)
    bs = [int_set(0, 1), int_set(0, 4)]
    base = find_plunnecke_subset_multi(a, bs)
    grown = construct_large_subset(a, bs, 1)
    assert grown.x_set == base.x_set
    assert grown.achieved == base.achieved


def test_large_subset_example():
    w = construct_large_subset(int_set(0, 1), [int_set(0, 1), int_set(0, 2)], 2)
    assert w.x_set.elements == (0, 1)
    assert w.achieved == 5
    assert w.bound == Fraction(12, 4) + Fraction(12, 1)  # s/m^2 + s/(m-1)^2 = 15


def test_large_subset_reaches_requested_size(rng):
    z = Integers()
    for _ in range(60):
        a = random_int_set(rng, max_size=6, lo=0, hi=12)
        bs = [random_int_set(rng, max_size=3, lo=0, hi=8) for _ in range(rng.choice([1, 2]))]
        k = rng.randrange(1, len(a) + 1)
        w = construct_large_subset(a, bs, k)
        assert len(w.x_set) >= k
        assert set(w.x_set) <= set(a)
        assert w.achieved <= w.bound
        total = sumset(z, list(bs))
        assert w.achieved == len(sumset(z, [w.x_set, total]))


def test_large_subset_errors():
    with pytest.raises(ValueError, match="1 <= k <= "):
        construct_large_subset(int_set(0, 1), [int_set(0)], 3)


def test_growth_searches_reject_semigroups():
    # In Intersect(5) no X satisfies the multi-summand bound for this
    # instance (the best ratio is 7/6); the searches must refuse it up front.
    semi = IntersectionSemigroup(5)
    a = FiniteSet(semi, (0, 1, 5, 7, 26, 27, 29))
    bs = [FiniteSet(semi, (0, 10, 28)), FiniteSet(semi, (4, 24))]
    with pytest.raises(ValueError, match="not a group"):
        find_plunnecke_subset_multi(a, bs)
    with pytest.raises(ValueError, match="not a group"):
        construct_large_subset(a, bs, 2)


def test_smoothed_bound_degenerates_at_zero():
    # at t = 0 the integral term vanishes and the bound is |X| s / m^h
    assert smoothed_growth_bound(2, 12, 2, 0, 2) == Fraction(24, 4)
    assert smoothed_growth_bound(5, 7, 1, 0, 3) == Fraction(21, 5)


def test_smoothed_bound_value_and_validation():
    # m=3, s=10, h=2, t=1/2: 10*(1/(5/2) - 1/3) + (2 - 1/2)*10/(5/2)^2
    expected = Fraction(10, 1) * (Fraction(2, 5) - Fraction(1, 3)) + Fraction(3, 2) * Fraction(10, Fraction(25, 4))
    assert smoothed_growth_bound(3, 10, 2, Fraction(1, 2), 2) == expected
    with pytest.raises(ValueError, match="0 <= t < m"):
        smoothed_growth_bound(3, 10, 2, 3, 3)
    with pytest.raises(ValueError, match="h >= 2"):
        smoothed_growth_bound(3, 10, 1, Fraction(1, 2), 2)


def test_smoothed_bound_dominates_stepwise_bound(rng):
    # the smoothed form upper-bounds the stepwise sum at k = floor(t) + 1
    for _ in range(200):
        m = rng.randrange(2, 9)
        s = rng.randrange(1, 50)
        h = rng.randrange(2, 5)
        t = Fraction(rng.randrange(0, 4 * (m - 1)), 4)
        k = int(t) + 1
        if k > m:
            continue
        for x_size in range(k, m + 1):
            step = sum(Fraction(s, (m - r) ** h) for r in range(k))
            step += (x_size - k) * Fraction(s, (m - k + 1) ** h)
            assert smoothed_growth_bound(m, s, h, t, x_size) >= step


def test_lev_monotonicity_examples():
    reports = verify_lev_monotonicity(int_set(0, 1, 3), 3)
    by_name = {r.name: r for r in reports}
    linear = by_name["lev-linear i=2 k=3"]
    assert linear.lhs == 15 and linear.rhs == 16 and linear.holds
    root = by_name["lev-root i=2 k=3"]
    assert root.lhs == 81 and root.rhs == 216 and root.holds
    assert all(r.holds for r in reports)

    flat = verify_lev_monotonicity(int_set(0), 3)
    for r in flat:
        assert r.holds and (r.lhs == 0 or r.lhs == 1)

    ap = verify_lev_monotonicity(int_set(0, 1), 4)
    assert all(r.holds for r in ap)  # |kA| = k + 1 along the chain


def test_lev_monotonicity_random(rng):
    for _ in range(200):
        a = random_int_set(rng, max_size=6, lo=0, hi=25)
        reports = verify_lev_monotonicity(a, 5)
        assert len(reports) == 2 * len(list(itertools.combinations(range(1, 6), 2)))
        assert all(r.holds for r in reports)


def test_lev_monotonicity_errors():
    with pytest.raises(ValueError, match="nonempty"):
        verify_lev_monotonicity(FiniteSet(Integers(), ()), 3)
    with pytest.raises(ValueError, match="kmax"):
        verify_lev_monotonicity(int_set(0, 1), 1)
