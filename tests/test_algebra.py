"""Structure laws: composition, commutativity flags, canonical order, JSON."""

import itertools
import random

import pytest

from sumsetlab import (
    DirectPower,
    Integers,
    IntersectionSemigroup,
    Lattice,
    Permutations,
    Residues,
    StructureMismatchError,
    canonical_order,
    compose,
    is_commutative,
    structure_from_json,
    structure_to_json,
)


def test_compose_examples():
    assert compose(Integers(), 2, 3) == 5
    assert compose(Residues(5), 3, 4) == 2
    semi = IntersectionSemigroup(4)
    assert compose(semi, semi.mask([1, 2, 3]), semi.mask([2, 3, 4])) == semi.mask([2, 3])
    assert compose(Lattice(2), (1, 2), (3, 4)) == (4, 6)


def test_permutation_compose_applies_left_then_right():
    sym = Permutations(3)
    # x sends 1->2->3->1; y swaps 1 and 2
    x = (2, 3, 1)
    y = (2, 1, 3)
    assert compose(sym, x, y) == (1, 3, 2)
    assert compose(sym, y, x) == (3, 2, 1)
    assert compose(sym, x, sym.identity()) == x


def test_compose_structure_mismatch():
    with pytest.raises(StructureMismatchError):
        compose(Integers(), 1, (1, 2))
    with pytest.raises(StructureMismatchError):
        compose(Residues(5), 5, 0)
    with pytest.raises(StructureMismatchError):
        compose(Permutations(3), (1, 1, 2), (1, 2, 3))
    with pytest.raises(StructureMismatchError):
        compose(IntersectionSemigroup(2), 4, 1)
    with pytest.raises(StructureMismatchError):
        compose(Lattice(2), (1, 2), (1, 2, 3))
    with pytest.raises(StructureMismatchError):
        compose(DirectPower(Residues(5), 2), (0, 1), (0, 5))


def test_commutativity_flags():
    assert is_commutative(Integers())
    assert is_commutative(Permutations(2))
    assert not is_commutative(Permutations(3))
    assert is_commutative(IntersectionSemigroup(5))
    assert not is_commutative(DirectPower(Permutations(4), 2))
    assert is_commutative(DirectPower(Residues(6), 3))


def test_commutativity_flag_matches_exhaustive_pair_check():
    structures = (
        [Residues(n) for n in (1, 2, 7, 12, 30)]
        + [IntersectionSemigroup(u) for u in (1, 3, 6)]
        + [Permutations(d) for d in range(1, 8)]  # Sym(7) has 5040 elements
        + [DirectPower(Permutations(3), 2)]
    )
    for structure in structures:
        assert structure.size is not None and structure.size <= 5040
        elems = list(structure.elements())
        pairs = itertools.product(elems, repeat=2)
        all_commute = all(
            structure.compose(x, y) == structure.compose(y, x) for x, y in pairs
        )
        assert all_commute == structure.is_commutative, structure


def _sampler(structure, rng):
    if isinstance(structure, Integers):
        return lambda: rng.randrange(-1000, 1001)
    if isinstance(structure, Lattice):
        return lambda: tuple(rng.randrange(-50, 51) for _ in range(structure.dim))
    if isinstance(structure, Residues):
        return lambda: rng.randrange(structure.modulus)
    if isinstance(structure, Permutations):
        elems = list(structure.elements())
        return lambda: elems[rng.randrange(len(elems))]
    if isinstance(structure, IntersectionSemigroup):
        return lambda: rng.randrange(1 << structure.universe)
    if isinstance(structure, DirectPower):
        base = _sampler(structure.base, rng)
        return lambda: tuple(base() for _ in range(structure.power))
    raise AssertionError(structure)


def test_associativity_500_random_triples_per_structure():
    rng = random.Random(1)
    structures = [
        Integers(),
        Lattice(3),
        Residues(17),
        Permutations(5),
        IntersectionSemigroup(8),
        DirectPower(Residues(6), 2),
        DirectPower(Permutations(3), 2),
    ]
    for structure in structures:
        draw = _sampler(structure, rng)
        for _ in range(500):
            x, y, z = draw(), draw(), draw()
            left = structure.compose(structure.compose(x, y), z)
            right = structure.compose(x, structure.compose(y, z))
            assert left == right


def test_canonical_order_examples():
    assert canonical_order(Integers(), [3, 1, 2]) == [1, 2, 3]
    assert canonical_order(Lattice(2), [(1, 0), (0, 9)]) == [(0, 9), (1, 0)]
    assert canonical_order(Permutations(3), [(2, 3, 1), (1, 2, 3)]) == [(1, 2, 3), (2, 3, 1)]
    assert canonical_order(IntersectionSemigroup(3), [5, 1, 4]) == [1, 4, 5]


def test_canonical_order_idempotent_and_permutation_invariant():
    rng = random.Random(2)
    structure = Lattice(2)
    xs = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(40)]
    once = canonical_order(structure, xs)
    assert canonical_order(structure, once) == once
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert canonical_order(structure, shuffled) == once


def test_structure_validation_bounds():
    with pytest.raises(ValueError):
        Residues(0)
    with pytest.raises(ValueError):
        Permutations(9)
    with pytest.raises(ValueError):
        Permutations(0)
    with pytest.raises(ValueError):
        IntersectionSemigroup(17)
    with pytest.raises(ValueError):
        Lattice(0)
    with pytest.raises(ValueError):
        DirectPower(Integers(), 0)


@pytest.mark.parametrize("value", [7.0, 2.5, True, "3"])
@pytest.mark.parametrize(
    "make, name",
    [
        (Lattice, "dim"),
        (Residues, "modulus"),
        (Permutations, "degree"),
        (IntersectionSemigroup, "universe"),
        (lambda v: DirectPower(Residues(5), v), "power"),
    ],
    ids=["Lattice", "Residues", "Permutations", "IntersectionSemigroup", "DirectPower"],
)
def test_structure_parameters_must_be_integers(make, name, value):
    """A float or bool parameter would reach elements (Residues(7.0) sums to
    1.0) and sizes (a power of 2.5); it is refused by name."""
    with pytest.raises(ValueError, match=f"^{name}: expected an integer, got {value!r}$"):
        make(value)


def test_structure_json_roundtrip():
    structures = [
        Integers(),
        Lattice(4),
        Residues(11),
        Permutations(6),
        IntersectionSemigroup(9),
        DirectPower(Lattice(2), 3),
        DirectPower(DirectPower(Residues(5), 2), 2),
    ]
    for structure in structures:
        assert structure_from_json(structure_to_json(structure)) == structure
    assert structure_to_json(Integers()) == "Z"
    assert structure_to_json(Lattice(2)) == {"Zd": 2}
    assert structure_to_json(Residues(7)) == {"Zmod": 7}
    assert structure_to_json(Permutations(3)) == {"Sym": 3}
    with pytest.raises(ValueError):
        structure_from_json({"Huh": 3})


def test_element_json_big_integers_as_decimal_strings():
    z = Integers()
    big = 10**30
    assert z.element_to_json(big) == str(big)
    assert z.element_to_json(-big) == str(-big)
    assert z.element_to_json(42) == 42
    assert z.element_from_json(str(big)) == big
    assert z.element_from_json(str(-big)) == -big
    lat = Lattice(2)
    assert lat.element_to_json((big, 1)) == [str(big), 1]
    assert lat.element_from_json([str(big), 1]) == (big, 1)


def test_element_json_residue_reduction_and_permutations():
    zmod = Residues(7)
    assert zmod.element_from_json(12) == 5
    assert zmod.element_from_json(-1) == 6
    sym = Permutations(3)
    assert sym.element_from_json([2, 3, 1]) == (2, 3, 1)
    with pytest.raises(StructureMismatchError):
        sym.element_from_json([1, 1, 2])


def test_carrier_enumeration_in_canonical_order():
    assert list(Residues(4).elements()) == [0, 1, 2, 3]
    perms = list(Permutations(3).elements())
    assert perms == sorted(perms) and len(perms) == 6
    assert perms[0] == (1, 2, 3)
    power = DirectPower(Residues(2), 2)
    assert list(power.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        list(Integers().elements())
