"""Superadditive lower bound: report, marked-copy witness, lattice reduction."""

import random

import pytest

from sumsetlab import inequalities
from sumsetlab import (
    FiniteSet,
    Integers,
    Lattice,
    Residues,
    TheoremViolationError,
    endpoint_sets,
    leave_one_out,
    sumset,
    torsion_free_reduce,
    verify_superadditivity,
)

from conftest import brute_sumset, int_set, random_int_set


def test_endpoint_sets_examples():
    assert endpoint_sets([int_set(0, 1, 3)])[0].elements == (0, 3)
    assert endpoint_sets([int_set(5)])[0].elements == (5,)
    eps = endpoint_sets([int_set(0, 2), int_set(0, 1), int_set(0, 3)])
    assert [e.elements for e in eps] == [(0, 2), (0, 1), (0, 3)]
    with pytest.raises(ValueError, match="torsion_free_reduce"):
        endpoint_sets([FiniteSet(Residues(5), (0, 1))])


def test_endpoint_sets_match_the_validated_sets(rng):
    z = Integers()
    sets = [int_set(-(2**64)), int_set(3, 3), int_set(-5, 0, 9)]
    sets += [random_int_set(rng, max_size=4, lo=-20, hi=20) for _ in range(200)]
    for s, ends in zip(sets, endpoint_sets(sets)):
        assert ends == FiniteSet(z, (s.min(), s.max()))
        assert len(ends) == (2 if len(s) > 1 else 1)


def test_triple_example_report_and_witness():
    sets = [int_set(0, 2), int_set(0, 1), int_set(0, 3)]
    report, witness = verify_superadditivity(sets)
    # |S| = 7, sum |S_i| - 1 = 11, compared as 2*7 >= 11
    assert report.lhs == 14 and report.rhs == 11 and report.holds
    assert report.slack == 3
    assert witness.mark_count() == 11
    assert len(witness.marked) == 2
    assert witness.a_values == (2, 1, 3)
    marks = {x for copy in witness.marked for x in copy}
    assert marks <= set(witness.s_prime)


def test_singleton_equality():
    report, witness = verify_superadditivity([int_set(0), int_set(0)])
    assert report.lhs == 1 and report.rhs == 1 and report.slack == 0
    assert witness.mark_count() == 1


def test_identical_summands_example():
    a = int_set(0, 1, 3)
    report, _ = verify_superadditivity([a, a, a])
    # |3A| = 9, |2A| = 6 three times: 2*9 - (3*6 - 1) = 1
    assert report.lhs == 18 and report.rhs == 17 and report.slack == 1


def test_translation_invariance_with_negative_values():
    base = [int_set(0, 2, 9), int_set(0, 4), int_set(0, 1, 2)]
    shifted = [
        FiniteSet(Integers(), tuple(x - 7 for x in base[0])),
        FiniteSet(Integers(), tuple(x + 13 for x in base[1])),
        FiniteSet(Integers(), tuple(x - 1 for x in base[2])),
    ]
    r1, w1 = verify_superadditivity(base)
    r2, w2 = verify_superadditivity(shifted)
    assert (r1.lhs, r1.rhs) == (r2.lhs, r2.rhs)
    assert w1.marked == w2.marked  # witness lives in translated coordinates


def test_errors():
    with pytest.raises(ValueError, match="two summands"):
        verify_superadditivity([int_set(0, 1)])
    with pytest.raises(ValueError, match="nonempty"):
        verify_superadditivity([int_set(0, 1), FiniteSet(Integers(), ())])
    with pytest.raises(ValueError, match="torsion_free_reduce"):
        verify_superadditivity([FiniteSet(Lattice(2), ((0, 0),))] * 2)


def _last_sum_with(extra):
    """A leave_one_out that appends `extra` to the k-th sum only, the one
    whose marks are the elements up to a_1 + ... + a_(k-1)."""
    honest = inequalities.leave_one_out

    def wrong(structure, sets, i):
        out = honest(structure, sets, i)
        if i < len(sets):
            return out
        return FiniteSet._unchecked(structure, out.elements + (extra(out),))

    return wrong


def _full_sum_missing_its_max():
    """A sumset whose first call, the full sum S, drops its largest element;
    the endpoint-replaced sums that make S' still reach it."""
    honest, calls = inequalities.sumset, []

    def wrong(structure, sets):
        out = honest(structure, sets)
        calls.append(out)
        return out if len(calls) > 1 else FiniteSet._unchecked(structure, out.elements[:-1])

    return wrong


@pytest.mark.parametrize(
    "name, wrong, message",
    [
        # a sum above every split point: counted in the bound, never marked
        ("leave_one_out", lambda: _last_sum_with(lambda out: out.max() + 100), "marked 11 elements, expected 12"),
        ("sumset", _full_sum_missing_its_max, "S' is not contained in S"),
        # a repeated sum: counted twice and marked twice in one copy
        ("leave_one_out", lambda: _last_sum_with(lambda out: out.min()), "bad marked copy"),
    ],
    ids=["mark-count", "s-prime-inside-s", "marked-copy"],
)
def test_witness_self_checks_catch_a_wrong_sum(monkeypatch, name, wrong, message):
    """Each witness invariant that verify_superadditivity rechecks raises
    TheoremViolationError, which python -O keeps, when the sums it reads are
    wrong."""
    monkeypatch.setattr(inequalities, name, wrong())
    with pytest.raises(TheoremViolationError, match=message):
        verify_superadditivity([int_set(0, 2), int_set(0, 1), int_set(0, 3)])


def test_superadditivity_folds_s_and_each_leave_one_out_sum_once(monkeypatch):
    """S is folded once and each S_j once; the parts of S' are read off the
    S_j, not folded again."""
    calls = {"sumset": 0, "leave_one_out": 0}
    for name in calls:
        honest = getattr(inequalities, name)

        def counted(*args, name=name, honest=honest):
            calls[name] += 1
            return honest(*args)

        monkeypatch.setattr(inequalities, name, counted)
    verify_superadditivity([int_set(0, 2), int_set(0, 1, 5), int_set(3), int_set(-1, 4, 6)])
    assert calls == {"sumset": 1, "leave_one_out": 4}


def _check_witness(sets, report, witness):
    z = Integers()
    tsets = [FiniteSet(z, tuple(x - s.min() for x in s)) for s in sets]
    big = brute_sumset(z, tsets)
    sis = [brute_sumset(z, tsets[:j] + tsets[j + 1 :]) for j in range(len(sets))]
    rhs = sum(len(s) for s in sis) - 1
    assert report.rhs == rhs
    assert report.lhs == (len(sets) - 1) * len(big)
    assert report.holds
    assert witness.mark_count() == rhs
    sprime = set(witness.s_prime)
    assert sprime <= big
    assert (len(sets) - 1) * len(sprime) >= rhs
    for ep, s in zip(witness.endpoint_sets, sets):
        assert 1 <= len(ep) <= 2
        assert ep.elements == tuple(sorted({s.min(), s.max()}))
    for copy in witness.marked:
        assert len(set(copy)) == len(copy)
        assert set(copy) <= sprime
    # part j of S' is the sum with the j-th translated summand replaced by {0, a_j}
    parts = [
        brute_sumset(z, tsets[:j] + [int_set(0, t.max())] + tsets[j + 1 :]) for j, t in enumerate(tsets)
    ]
    assert [p.elements for p in witness.s_prime_parts] == [tuple(sorted(p)) for p in parts]
    assert witness.s_prime.elements == tuple(sorted(set().union(*parts)))


def test_property_suite_seeded():
    rng = random.Random(314159)
    for _ in range(300):
        k = rng.choice([2, 3, 4])
        sets = [random_int_set(rng, max_size=8, lo=0, hi=50) for _ in range(k)]
        report, witness = verify_superadditivity(sets)
        _check_witness(sets, report, witness)


def test_property_suite_larger_k():
    rng = random.Random(271828)
    for _ in range(40):
        k = rng.choice([5, 6])
        sets = [random_int_set(rng, max_size=5, lo=0, hi=30) for _ in range(k)]
        report, witness = verify_superadditivity(sets)
        _check_witness(sets, report, witness)


# --- Lattice reduction -------------------------------------------------------


def _phi(m, z):
    return sum(c * m ** (j + 1) for j, c in enumerate(z))


def test_reduce_dimension_one_accepts_first_multiplier():
    lat = Lattice(1)
    sets = [FiniteSet(lat, ((0,), (3,))), FiniteSet(lat, ((1,), (5,)))]
    m, images, preimages = torsion_free_reduce(sets)
    # m = 1 + 2kB with k = 2 summands and largest absolute coordinate B = 5
    assert m == 1 + 2 * 2 * 5
    assert [i.elements for i in images] == [(0, 3 * m), (m, 5 * m)]
    assert [p.elements for p in preimages] == [((0,), (3,)), ((1,), (5,))]


def test_reduce_two_dim_example():
    lat = Lattice(2)
    sets = [FiniteSet(lat, ((0, 0), (1, 0))), FiniteSet(lat, ((0, 0), (0, 1)))]
    m, images, preimages = torsion_free_reduce(sets)
    assert [i.elements for i in images] == [(0, m), (0, m * m)]
    assert [p.elements for p in preimages] == [((0, 0), (1, 0)), ((0, 0), (0, 1))]
    # the embedding at m = 10 sends these sets to {0, 10} and {0, 100}
    assert [sorted(_phi(10, z) for z in s) for s in sets] == [[0, 10], [0, 100]]


def test_reduce_multiplier_is_tight():
    # at m = 4 the full sum's points (-2, 1) and (2, 0) both map to 8
    lat = Lattice(2)
    sets = [FiniteSet(lat, ((-1, 0), (1, 0))), FiniteSet(lat, ((-1, 1), (1, 0)))]
    m, _, _ = torsion_free_reduce(sets)
    assert m == 1 + 2 * 2 * 1
    full = brute_sumset(lat, sets)
    assert len({_phi(m - 1, z) for z in full}) < len(full)
    assert len({_phi(m, z) for z in full}) == len(full)


def test_reduce_certificate_failure_raises(monkeypatch):
    # (-4, 1) and (1, 0) both map to 5 at m = 5
    lat = Lattice(2)
    sets = [FiniteSet(lat, ((0, 0), (1, 0))), FiniteSet(lat, ((0, 0), (0, 1)))]
    honest = inequalities.leave_one_out

    def leave_one_out_with_collision(structure, sets, i):
        return FiniteSet(structure, honest(structure, sets, i).elements + ((-4, 1),))

    monkeypatch.setattr(inequalities, "leave_one_out", leave_one_out_with_collision)
    with pytest.raises(TheoremViolationError, match="not injective"):
        torsion_free_reduce(sets)


def test_reduce_singletons_any_multiplier():
    lat = Lattice(2)
    sets = [FiniteSet(lat, ((1, 1),)), FiniteSet(lat, ((2, 3),))]
    m, images, preimages = torsion_free_reduce(sets)
    assert [len(p) for p in preimages] == [1, 1]
    assert [p.elements for p in preimages] == [((1, 1),), ((2, 3),)]


def _random_lattice_sets(rng, lat, k, corner):
    """k random sets in [-B, B]^d, B drawn from 1..5. A corner instance puts
    the points (B, ..., B) and (-B, ..., -B) in every set, so its sums reach
    the coordinates kB and -kB."""
    bound = rng.randrange(1, 6)
    draws = (-bound, bound) if corner else range(-bound, bound + 1)
    extremes = ((bound,) * lat.dim, (-bound,) * lat.dim) if corner else ()
    return [
        FiniteSet(
            lat,
            extremes + tuple(
                tuple(rng.choice(draws) for _ in range(lat.dim))
                for _ in range(rng.randrange(1, 4))
            ),
        )
        for _ in range(k)
    ]


def test_reduce_certifies_injectivity_and_feeds_superadditivity():
    rng = random.Random(1618)
    for n in range(192):
        lat = Lattice(1 + n % 4)
        k = 1 + n // 4 % 4
        sets = _random_lattice_sets(rng, lat, k, corner=n % 32 >= 16)
        m, images, preimages = torsion_free_reduce(sets)
        assert m == 1 + 2 * k * max(abs(c) for s in sets for z in s for c in z)
        assert all(1 <= len(p) <= 2 for p in preimages)
        # independent injectivity recheck on every relevant point set
        relevant = set().union(*[set(s) for s in sets])
        relevant |= brute_sumset(lat, sets)
        for j in range(k):
            if k > 1:
                relevant |= brute_sumset(lat, sets[:j] + sets[j + 1 :])
            relevant |= brute_sumset(lat, sets[:j] + [preimages[j]] + sets[j + 1 :])
        assert len({_phi(m, z) for z in relevant}) == len(relevant)
        # images are the embedded sets
        assert [img.elements for img in images] == [
            tuple(sorted(_phi(m, z) for z in s)) for s in sets
        ]
        assert [p.elements for p in preimages] == [
            tuple(z for z in s if _phi(m, z) in (img.min(), img.max()))
            for s, img in zip(sets, images)
        ]
        if k == 1:
            continue
        # the lattice-side bound holds through the endpoint preimages
        big = len(sumset(lat, sets))
        sprime = set()
        sis_total = 0
        for j in range(k):
            sprime |= set(sumset(lat, sets[:j] + [preimages[j]] + sets[j + 1 :]))
            sis_total += len(leave_one_out(lat, sets, j + 1))
        assert big >= len(sprime)
        assert (k - 1) * len(sprime) >= sis_total - 1
        # and the integer images satisfy the integer-side bound
        report, _ = verify_superadditivity(images)
        assert report.holds


def test_reduce_errors():
    with pytest.raises(ValueError, match="lattice"):
        torsion_free_reduce([int_set(0, 1)])
    lat = Lattice(2)
    with pytest.raises(ValueError, match="nonempty"):
        torsion_free_reduce([FiniteSet(lat, ())])
