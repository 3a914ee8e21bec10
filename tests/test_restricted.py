"""Restricted three-sum bound and the prime-modulus lower bound."""

import math
import random

import pytest

from sumsetlab import (
    FiniteSet,
    Integers,
    Permutations,
    Residues,
    cauchy_davenport_check,
    sumset,
    verify_restricted_three_sum,
)
from sumsetlab.inequalities import _PRIME_TEST_LIMIT, _is_prime

from conftest import int_set, random_int_set, random_subset


def test_three_sum_example():
    z = Integers()
    report = verify_restricted_three_sum(z, int_set(0, 1), int_set(0, 1), int_set(0, 2), int_set(0, 3))
    # S+A = {0,1,3,4}: 16 <= 2*3*4
    assert report.lhs == 16 and report.rhs == 24 and report.holds


def test_three_sum_unrestricted_singletons():
    z = Integers()
    report = verify_restricted_three_sum(z, int_set(0), int_set(2), int_set(5), int_set(7))
    assert report.lhs == 1 and report.rhs == 1 and report.slack == 0


def test_three_sum_subset_precondition():
    z = Integers()
    with pytest.raises(ValueError, match="subset of B1\\+B2"):
        verify_restricted_three_sum(z, int_set(0), int_set(0, 1), int_set(0, 1), int_set(5))
    with pytest.raises(ValueError, match="nonempty"):
        verify_restricted_three_sum(z, int_set(0), int_set(0), int_set(0), FiniteSet(z, ()))
    sym = Permutations(3)
    e = FiniteSet(sym, (sym.identity(),))
    with pytest.raises(ValueError, match="not commutative"):
        verify_restricted_three_sum(sym, e, e, e, e)


def test_three_sum_random_integer_instances(rng):
    z = Integers()
    for _ in range(300):
        a = random_int_set(rng, max_size=6, lo=0, hi=30)
        b1 = random_int_set(rng, max_size=6, lo=0, hi=30)
        b2 = random_int_set(rng, max_size=6, lo=0, hi=30)
        carrier = sumset(z, [b1, b2])
        s = FiniteSet(z, random_subset(rng, carrier.elements, 6))
        report = verify_restricted_three_sum(z, a, b1, b2, s)
        assert report.holds
        assert report.lhs == len(sumset(z, [s, a])) ** 2


def test_three_sum_random_residue_instances(rng):
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29])
        zmod = Residues(p)
        draw = lambda: FiniteSet(zmod, tuple(rng.sample(range(p), rng.randrange(1, min(6, p) + 1))))
        a, b1, b2 = draw(), draw(), draw()
        carrier = sumset(zmod, [b1, b2])
        s = FiniteSet(zmod, random_subset(rng, carrier.elements, 6))
        assert verify_restricted_three_sum(zmod, a, b1, b2, s).holds


def test_cauchy_davenport_examples():
    zmod5 = Residues(5)
    a = FiniteSet(zmod5, (0, 1, 2))
    report = cauchy_davenport_check(5, a, a)
    assert report.lhs == 5 and report.rhs == 5 and report.holds

    zmod7 = Residues(7)
    single = FiniteSet(zmod7, (0,))
    report7 = cauchy_davenport_check(7, single, single)
    assert report7.lhs == 1 and report7.rhs == 1

    zmod3 = Residues(3)
    ab = FiniteSet(zmod3, (0, 1))
    report3 = cauchy_davenport_check(3, ab, ab)
    assert report3.lhs == 3 and report3.rhs == 3


def test_cauchy_davenport_rejects_composite_and_mismatch():
    zmod6 = Residues(6)
    a = FiniteSet(zmod6, (0, 1))
    with pytest.raises(ValueError, match="must be prime"):
        cauchy_davenport_check(6, a, a)
    zmod5 = Residues(5)
    b = FiniteSet(zmod5, (0, 1))
    with pytest.raises(ValueError, match="expected"):
        cauchy_davenport_check(7, b, b)


def test_cauchy_davenport_random_primes(rng):
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        zmod = Residues(p)
        a = FiniteSet(zmod, tuple(rng.sample(range(p), rng.randrange(1, p + 1))))
        b = FiniteSet(zmod, tuple(rng.sample(range(p), rng.randrange(1, p + 1))))
        report = cauchy_davenport_check(p, a, b)
        assert report.holds
        assert report.lhs == len(sumset(zmod, [a, b]))
        assert report.rhs == min(len(a) + len(b) - 1, p)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if _trial_division(n)]


@pytest.mark.parametrize("n, prime", [
    (561, False),  # a Carmichael number
    (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # a strong pseudoprime to every prime base up to 23
    (2**61 - 1, True),
])
def test_primality_past_small_bases(n, prime):
    assert _is_prime(n) is prime


def test_cauchy_davenport_refuses_moduli_past_the_primality_test():
    p = 2**89 - 1  # prime, but past where the bases decide primality
    assert p >= _PRIME_TEST_LIMIT
    a = FiniteSet(Residues(p), (0, 1))
    with pytest.raises(ValueError, match="primality is decided only for moduli below"):
        cauchy_davenport_check(p, a, a)
    q = 2**61 - 1
    b = FiniteSet(Residues(q), (0, 1))
    assert cauchy_davenport_check(q, b, b).lhs == 3
