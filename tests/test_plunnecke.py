"""Subset growth bounds: witness search, grown subsets, monotonicity chains."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from sumsetlab import (
    DirectPower,
    FiniteSet,
    Integers,
    IntersectionSemigroup,
    Lattice,
    Permutations,
    Residues,
    TheoremViolationError,
    construct_large_subset,
    find_plunnecke_subset,
    find_plunnecke_subset_multi,
    iterated_sum,
    smoothed_growth_bound,
    sumset,
    verify_lev_monotonicity,
)
from sumsetlab import inequalities, sumsets
from sumsetlab.inequalities import SUBSET_SEARCH_CAP, _first_valid_subset

from conftest import brute_sumset, int_set, random_int_set


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
    for _ in range(150):
        a = random_int_set(rng, max_size=8, lo=-15, hi=15)
        b = random_int_set(rng, max_size=4, lo=0, hi=8)
        i = rng.choice([1, 2])
        k = rng.randrange(i + 1, 5)
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


def _reference_scan(structure, a, target, valid):
    """Every mask in ascending order, each sum enumerated by brute force."""
    xs = a.elements
    for mask in range(1, 1 << len(xs)):
        x_set = FiniteSet(structure, tuple(xs[j] for j in range(len(xs)) if mask >> j & 1))
        cnt = len(brute_sumset(structure, [x_set, target]))
        if valid(cnt, mask.bit_count()):
            return mask, cnt
    return None, None


SCAN_STRUCTURES = {
    "Z": (Integers(), lambda rng: rng.randrange(-12, 13)),
    # spans past 64 |A| |T| take the index branch, as the other groups do
    "sparse Z": (Integers(), lambda rng: rng.randrange(-12, 13) * 10**6),
    "Z/7": (Residues(7), lambda rng: rng.randrange(7)),
    "Z/13": (Residues(13), lambda rng: rng.randrange(13)),
    "Z/12": (Residues(12), lambda rng: rng.randrange(12)),
    # inside the subgroup {0, 3, 6, 9}, where |X + T| can be below |X| + |T| - 1
    "3Z/12": (Residues(12), lambda rng: rng.randrange(0, 12, 3)),
    "Z^2": (Lattice(2), lambda rng: (rng.randrange(-3, 4), rng.randrange(-3, 4))),
    "(Z/5)^2": (DirectPower(Residues(5), 2), lambda rng: (rng.randrange(5), rng.randrange(5))),
    "Z/101": (Residues(101), lambda rng: rng.randrange(101)),
    # a prime where the Cauchy-Davenport bound applies, and one past where
    # primality is decided, so the scan uses the translate bound
    "Z/(2^61-1)": (Residues(2**61 - 1), lambda rng: rng.randrange(-12, 13) % (2**61 - 1)),
    "Z/(2^89-1)": (Residues(2**89 - 1), lambda rng: rng.randrange(-12, 13) % (2**89 - 1)),
    "Z^3": (Lattice(3), lambda rng: tuple(rng.randrange(-2, 3) for _ in range(3))),
    "Z x Z": (DirectPower(Integers(), 2), lambda rng: (rng.randrange(-4, 5), rng.randrange(-4, 5))),
    "Sym(2)": (Permutations(2), lambda rng: rng.choice([(1, 2), (2, 1)])),
}


@pytest.mark.parametrize("structure,draw", SCAN_STRUCTURES.values(), ids=SCAN_STRUCTURES.keys())
def test_pruned_scan_matches_reference_scan(structure, draw, rng):
    """The scan skips popcounts that a proven lower bound on |X + T| rules
    out; it must still return the first valid mask of a plain scan. The
    thresholds u/v sweep the first allowed popcount over 1..|A| and past it."""
    for _ in range(60):
        a = FiniteSet(structure, tuple(draw(rng) for _ in range(rng.randrange(1, 9))))
        target = FiniteSet(structure, tuple(draw(rng) for _ in range(rng.randrange(1, 5))))
        u, v = rng.randrange(1, 8), rng.randrange(1, 40)
        valid = lambda c, xs: c * u <= v * xs
        assert _first_valid_subset(structure, a, target, valid) == _reference_scan(structure, a, target, valid)

        bs = [FiniteSet(structure, tuple(draw(rng) for _ in range(rng.randrange(1, 4))))
              for _ in range(rng.choice([1, 2]))]
        s = 1
        for b in bs:
            s *= len(sumset(structure, [a, b]))
        scale = len(a) ** len(bs)
        total = FiniteSet(structure, tuple(brute_sumset(structure, bs)))
        mask, cnt = _reference_scan(structure, a, total, lambda c, xs: c * scale <= s * xs)
        w = find_plunnecke_subset_multi(a, bs)
        assert w.x_set.elements == tuple(x for j, x in enumerate(a.elements) if mask >> j & 1)
        assert w.achieved == cnt


def test_scan_index_past_one_machine_word(rng):
    """In Z/101, A = s + d{0..11} and T = s' + 12d{0..7} give 96 distinct
    sums, so the bits of A + T run past 64. Every X has |X + T| = 8|X|: a
    threshold just below that leaves no X valid, so the scan checks every
    mask, and two colliding bits would show as a smaller count."""
    zp = Residues(101)
    for _ in range(6):
        d, s, s2 = rng.randrange(1, 101), rng.randrange(101), rng.randrange(101)
        a = FiniteSet(zp, tuple((s + d * j) % 101 for j in range(12)))
        target = FiniteSet(zp, tuple((s2 + 12 * d * j) % 101 for j in range(8)))
        assert len(brute_sumset(zp, [a, target])) == 96
        below = lambda c, xs: c < 8 * xs
        assert _first_valid_subset(zp, a, target, below) == _reference_scan(zp, a, target, below) == (None, None)
        assert _first_valid_subset(zp, a, target, lambda c, xs: xs == 12) == ((1 << 12) - 1, 96)


def test_residue_progressions_match_reference_scan(rng):
    """Progressions in Z/p with B sets along the same difference, as in the
    benchmark's growth scan: the first valid mask is near 2^|A| - 1, so the
    index-built unions are checked on almost every mask."""
    for p in (29, 31, 37, 41, 43):
        zp = Residues(p)
        for n in range(4, 12):
            d, start = rng.randrange(1, p), rng.randrange(p)
            a = FiniteSet(zp, tuple((start + d * j) % p for j in range(n)))
            bs = [FiniteSet(zp, tuple((rng.randrange(-20, 20) + d * j) % p for j in range(size)))
                  for size in (3, 2)]
            s = len(sumset(zp, [a, bs[0]])) * len(sumset(zp, [a, bs[1]]))
            valid = lambda c, xs: c * n**2 <= s * xs
            total = FiniteSet(zp, tuple(brute_sumset(zp, bs)))
            mask, cnt = _reference_scan(zp, a, total, valid)
            assert _first_valid_subset(zp, a, total, valid) == (mask, cnt)
            w = find_plunnecke_subset_multi(a, bs)
            assert w.x_set.elements == tuple(x for j, x in enumerate(a.elements) if mask >> j & 1)
            assert w.achieved == cnt


def test_residue_progression_keeps_no_set_tables():
    """In Z/43, A = {0..19} passes only as a whole (Cauchy-Davenport rules
    out every smaller X), and its half tables hold ints, not sets."""
    zp = Residues(43)
    a = FiniteSet(zp, tuple(range(20)))
    tracemalloc.start()
    try:
        multi = find_plunnecke_subset_multi(a, [FiniteSet(zp, (0, 1)), FiniteSet(zp, (0, 1, 2))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert multi.x_set == a and multi.achieved == 23
    assert peak < 256 * 1024


def test_scan_memory_follows_the_sets_not_their_span():
    """|A| = 20 spread evenly over the span; the search stops at mask 1. Past
    64 |A| |T| the translates take one bit per sum, not one per integer of the
    span, and a span of 2^70 gives a result where shifted masks could not."""
    b = int_set(0, 1, 3)
    peaks = {}
    for span in (10**3, 10**7, 2**70):
        a = int_set(*(j * span // 19 for j in range(20)))
        tracemalloc.start()
        try:
            witness = find_plunnecke_subset(a, b, 1, 2)
            peaks[span] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness.x_set == int_set(0) and witness.achieved == 6
    assert peaks[10**7] <= 2 * peaks[10**3]
    assert peaks[2**70] <= 2 * peaks[10**3]


@pytest.mark.parametrize("n", [6, 13, SUBSET_SEARCH_CAP])
def test_progressions_scan_only_the_full_mask(n):
    """For A = {0..n-1} every X with |X| < n is ruled out by |X + T| >=
    |X| + |T| - 1, so the scan checks one mask and keeps no 2^n table. The
    progressions with difference 10^6 take the index branch, which uses the
    same bound."""
    for d in (1, 10**6):
        a = int_set(*range(0, n * d, d))
        tracemalloc.start()
        try:
            single = find_plunnecke_subset(a, int_set(0, d), 1, 2)
            multi = find_plunnecke_subset_multi(a, [int_set(0, d), int_set(0, d, 2 * d)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert single.x_set == a and single.achieved == n + 2
        assert multi.x_set == a and multi.achieved == n + 3
        assert peak < 256 * 1024  # a 2^20-entry list alone takes 8 MiB
        calls = []
        valid = lambda c, xs: calls.append(xs) or c * n**2 <= (n + 1) ** 2 * xs
        assert _first_valid_subset(Integers(), a, int_set(0, d, 2 * d), valid) == ((1 << n) - 1, n + 2)
        assert len(calls) == n + 1  # the popcount tests for 1..n, then the full mask
    # Even at the lower bound every smaller X fails both searches' tests.
    for p in range(1, n):
        assert (p + 2) * n**2 > (n + 1) ** 2 * p
        assert (p + 3) * n**2 > (n + 1) * (n + 2) * p


def test_multi_search_cap_still_applies():
    with pytest.raises(ValueError, match="cap exceeded"):
        find_plunnecke_subset_multi(int_set(*range(SUBSET_SEARCH_CAP + 1)), [int_set(0, 1)])


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


def _count_sumsets(monkeypatch):
    """The summand count of every sumset call, from inequalities and from
    the iterated sums it asks sumsets for."""
    calls, honest = [], sumsets.sumset

    def counted(structure, sets):
        calls.append(len(sets))
        return honest(structure, sets)

    for module in (inequalities, sumsets):
        monkeypatch.setattr(module, "sumset", counted)
    return calls


def test_growth_searches_fold_each_sum_once(monkeypatch):
    """B_1 + ... + B_h is folded once for every growth pass and the final
    check, and |A + iB| in one fold of A and i copies of B."""
    a, b = int_set(*range(0, 40, 3)), int_set(0, 1, 5)
    calls = _count_sumsets(monkeypatch)
    w = construct_large_subset(a, [b, int_set(0, 2)], 14)
    assert len(w.x_set) >= 14 and w.achieved <= w.bound
    assert len(calls) <= 30  # 46 when every pass folded the B total again

    for i, folds in ((1, [3, 2]), (2, [3, 3])):
        calls.clear()
        w = find_plunnecke_subset(a, b, i, 3)
        assert w.achieved <= w.bound
        assert calls == folds  # 3B, then A + iB in one fold


def test_grown_subset_self_check_catches_a_wrong_sum(monkeypatch):
    """construct_large_subset rechecks |X + B| against its bound; a sumset
    that inflates that one sum makes it raise TheoremViolationError."""
    a, bs = int_set(0, 1), [int_set(0, 1), int_set(0, 2)]
    total = sumset(Integers(), bs)
    honest = inequalities.sumset

    def inflated(structure, sets):
        out = honest(structure, sets)
        if sets[-1] != total:
            return out
        return FiniteSet(structure, out.elements + tuple(range(100, 120)))

    monkeypatch.setattr(inequalities, "sumset", inflated)
    with pytest.raises(TheoremViolationError, match="grown subset exceeds its growth bound"):
        construct_large_subset(a, bs, 2)


def test_searches_raise_when_no_subset_is_valid(monkeypatch):
    """Both searches, and the grown subset through them, raise the one
    growth-bound violation when the scan finds no valid mask."""
    monkeypatch.setattr(inequalities, "_first_valid_subset", lambda *args: (None, None))
    a, bs = int_set(0, 1), [int_set(0, 1), int_set(0, 2)]
    for search in (
        lambda: find_plunnecke_subset(a, bs[0], 1, 2),
        lambda: find_plunnecke_subset_multi(a, bs),
        lambda: construct_large_subset(a, bs, 2),
    ):
        with pytest.raises(TheoremViolationError, match="^THEOREM VIOLATION: no subset satisfies the growth bound$"):
            search()


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
    for kmax in (1, 65):
        with pytest.raises(ValueError, match="kmax must be in 2..64"):
            verify_lev_monotonicity(int_set(0, 1), kmax)
    assert len(verify_lev_monotonicity(int_set(0, 1), 64)) == 64 * 63
