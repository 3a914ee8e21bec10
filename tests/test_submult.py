"""Submultiplicative upper bound, lex-min decompositions, projection bound."""

import itertools
import random

import pytest

from sumsetlab import (
    AmbientStructure,
    DirectPower,
    FiniteSet,
    Integers,
    IntersectionSemigroup,
    Lattice,
    Permutations,
    Residues,
    TheoremViolationError,
    leave_one_out,
    lex_min_decomposition,
    sumset,
    verify_projection_lemma,
    verify_submultiplicativity,
)

from conftest import brute_sumset, int_set


def brute_lex_map(structure, sets):
    """Enumerate index tuples in lex order; first hit per sum is the minimum."""
    orders = [s.elements for s in sets]
    mapping = {}
    for idx in itertools.product(*(range(len(o)) for o in orders)):
        value = orders[0][idx[0]]
        for j in range(1, len(orders)):
            value = structure.compose(value, orders[j][idx[j]])
        mapping.setdefault(value, tuple(i + 1 for i in idx))
    return mapping


def test_lex_decomposition_examples():
    z = Integers()
    lex = lex_min_decomposition(z, [int_set(0, 1), int_set(0, 1)])
    assert lex.mapping == {0: (1, 1), 1: (1, 2), 2: (2, 2)}
    assert lex.b_set == ((1, 1), (1, 2), (2, 2))

    singles = lex_min_decomposition(z, [int_set(3), int_set(4)])
    assert singles.mapping == {7: (1, 1)}

    semi = IntersectionSemigroup(2)
    a1 = FiniteSet(semi, (semi.mask([1]), semi.mask([1, 2])))
    a2 = FiniteSet(semi, (semi.mask([1, 2]),))
    lex2 = lex_min_decomposition(semi, [a1, a2])
    assert lex2.mapping == {semi.mask([1]): (1, 1), semi.mask([1, 2]): (2, 1)}


def test_lex_decomposition_rejects_noncommutative_and_bad_input():
    sym = Permutations(3)
    sets = [FiniteSet(sym, (sym.identity(),))] * 2
    with pytest.raises(ValueError, match="commutative"):
        lex_min_decomposition(sym, sets)
    z = Integers()
    with pytest.raises(ValueError, match="two summands"):
        lex_min_decomposition(z, [int_set(0, 1)])
    with pytest.raises(ValueError, match="nonempty"):
        lex_min_decomposition(z, [int_set(0, 1), FiniteSet(z, ())])


class _ShiftedProductMod7(AmbientStructure):
    """x * y = (xy + 1) mod 7: commutative but not associative, so the
    right-to-left table and the left-to-right projection sums disagree."""

    is_commutative = True

    def compose(self, x, y):
        return (x * y + 1) % 7

    def validate(self, x):
        if x not in range(7):
            raise ValueError(f"{x!r} is not in 0..6")


def test_lex_decomposition_projection_check_fires_on_a_nonassociative_law():
    law = _ShiftedProductMod7()
    sets = [FiniteSet(law, (0, 1))] * 3
    # b_set is (1,1,1), (2,1,1), (2,2,2); deleting coordinate 2 leaves
    # (1,1) and (2,1), whose left-to-right sums are both 1
    with pytest.raises(TheoremViolationError, match="projected tuples share an element sum"):
        lex_min_decomposition(law, sets)


def _random_sets(rng, structure, k, max_size):
    if isinstance(structure, Integers):
        pool = range(0, 40)
        pick = lambda: rng.sample(pool, rng.randrange(1, max_size + 1))
    elif isinstance(structure, Residues):
        pool = range(structure.modulus)
        pick = lambda: rng.sample(pool, rng.randrange(1, min(max_size, structure.modulus) + 1))
    elif isinstance(structure, Lattice):
        pick = lambda: [
            (rng.randrange(0, 9), rng.randrange(0, 9))
            for _ in range(rng.randrange(1, max_size + 1))
        ]
    elif isinstance(structure, IntersectionSemigroup):
        pool = range(1 << structure.universe)
        pick = lambda: rng.sample(pool, rng.randrange(1, max_size + 1))
    elif isinstance(structure, DirectPower):
        pool = list(structure.elements())
        pick = lambda: rng.sample(pool, rng.randrange(1, max_size + 1))
    else:
        raise AssertionError(structure)
    return [FiniteSet(structure, tuple(pick())) for _ in range(k)]


def test_lex_decomposition_matches_enumeration_oracle():
    rng = random.Random(99)
    structures = (
        Integers(),
        Residues(11),
        Lattice(2),
        IntersectionSemigroup(6),
        DirectPower(Residues(5), 2),
    )
    for structure in structures:
        for _ in range(70):
            sets = _random_sets(rng, structure, rng.choice([2, 3, 4]), 5)
            lex = lex_min_decomposition(structure, sets)
            assert lex.mapping == brute_lex_map(structure, sets)


def test_lex_decomposition_over_abelian_permutations():
    # Sym(d) is abelian only for d <= 2, so Sym(2) is the one nontrivial case
    sym = Permutations(2)
    e, t = (1, 2), (2, 1)
    sets = [FiniteSet(sym, (e, t)), FiniteSet(sym, (e, t))]
    lex = lex_min_decomposition(sym, sets)
    assert lex.mapping == brute_lex_map(sym, sets)
    assert lex.mapping[e] == (1, 1) and lex.mapping[t] == (1, 2)


def test_lex_decomposition_invariants(rng):
    structures = [Integers(), Residues(17), Lattice(2), IntersectionSemigroup(6)]
    for structure in structures:
        for _ in range(50):
            sets = _random_sets(rng, structure, rng.choice([2, 3]), 5)
            lex = lex_min_decomposition(structure, sets)
            big = brute_sumset(structure, sets)
            assert len(lex.b_set) == len(big)
            assert set(lex.mapping) == big
            # every stored tuple decomposes its key
            for s, idx in lex.mapping.items():
                value = lex.element_orders[0][idx[0] - 1]
                for j in range(1, len(idx)):
                    value = structure.compose(value, lex.element_orders[j][idx[j] - 1])
                assert value == s
            # distinct projections have distinct element sums, per coordinate
            k = len(sets)
            for j in range(k):
                seen = {}
                for t in lex.b_set:
                    proj = t[:j] + t[j + 1 :]
                    keep = [x for x in range(k) if x != j]
                    value = lex.element_orders[keep[0]][proj[0] - 1]
                    for pos, l in zip(proj[1:], keep[1:]):
                        value = structure.compose(value, lex.element_orders[l][pos - 1])
                    assert seen.setdefault(value, proj) == proj


def test_submultiplicativity_examples():
    z = Integers()
    report = verify_submultiplicativity(z, [int_set(0, 2), int_set(0, 1), int_set(0, 3)])
    assert report.lhs == 49 and report.rhs == 64 and report.holds

    singles = verify_submultiplicativity(z, [int_set(3), int_set(4)])
    assert singles.lhs == 1 and singles.rhs == 1 and singles.slack == 0

    a = int_set(0, 1, 3)
    report3 = verify_submultiplicativity(z, [a, a, a])
    assert report3.lhs == 81 and report3.rhs == 216 and report3.holds


def test_submultiplicativity_rejects_noncommutative():
    sym = Permutations(3)
    sets = [FiniteSet(sym, (sym.identity(),))] * 2
    with pytest.raises(ValueError, match="not commutative"):
        verify_submultiplicativity(sym, sets)


def test_submultiplicativity_property_suite(rng):
    structures = [Integers(), Residues(23), Lattice(2), IntersectionSemigroup(6)]
    for structure in structures:
        for _ in range(80):
            k = rng.choice([2, 3])
            sets = _random_sets(rng, structure, k, 6)
            report = verify_submultiplicativity(structure, sets)
            assert report.holds
            # cross-check sides against the enumeration oracle
            big = brute_sumset(structure, sets)
            assert report.lhs == len(big) ** (k - 1)
            rhs = 1
            for i in range(1, k + 1):
                rhs *= len(leave_one_out(structure, sets, i))
            assert report.rhs == rhs


def test_projection_examples():
    assert verify_projection_lemma([(0, 0, 0)]).holds
    box = list(itertools.product((0, 1), repeat=3))
    report = verify_projection_lemma(box)
    assert report.lhs == 64 and report.rhs == 64 and report.slack == 0


def test_projection_errors():
    with pytest.raises(ValueError, match="nonempty"):
        verify_projection_lemma([])
    with pytest.raises(ValueError, match="mixed arities"):
        verify_projection_lemma([(0, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="arity at least 2"):
        verify_projection_lemma([(0,), (1,)])


def test_projection_random_subsets(rng):
    points = list(itertools.product((0, 1, 2), repeat=4))
    for _ in range(200):
        size = rng.randrange(1, 30)
        b = rng.sample(points, size)
        report = verify_projection_lemma(b)
        assert report.holds
        # oracle recomputation of both sides
        pts = set(b)
        rhs = 1
        for i in range(4):
            rhs *= len({p[:i] + p[i + 1 :] for p in pts})
        assert report.lhs == len(pts) ** 3 and report.rhs == rhs


def test_projection_full_boxes_achieve_equality():
    for d, side in ((2, 3), (3, 2), (4, 2)):
        box = list(itertools.product(range(side), repeat=d))
        report = verify_projection_lemma(box)
        assert report.slack == 0 and report.holds
