"""Ambient algebraic structures for sumset computation.

Every structure bundles an associative composition law, a commutativity flag,
payload validation, and a canonical total order on its elements. Payloads are
plain hashable Python values (ints and tuples of ints), so element sets are
ordinary Python sets and ``sorted()`` realizes the canonical order:

  integers / residues      int              numeric order
  lattice points           tuple of ints    lexicographic on coordinates
  permutations             tuple (one-line) lexicographic on one-line notation
  intersection semigroup   int bitmask      numeric order on the mask
  direct powers            tuple            lexicographic on components

Integer payloads are arbitrary precision throughout; lattice-to-integer
embeddings produce values up to m**d, which would overflow any fixed width.

Elements are validated where they enter: the ``FiniteSet`` constructor, the JSON
decoders and the module-level ``compose``. A structure's ``compose`` method is
the unchecked law; composing valid elements yields a valid element.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

MAX_PERMUTATION_DEGREE = 8
MAX_INTERSECTION_UNIVERSE = 16

# JSON numbers above this are emitted as decimal strings so consumers that
# parse into 64-bit floats cannot silently lose precision.
_JSON_INT_LIMIT = 2**53


class StructureMismatchError(ValueError):
    """An element does not belong to the structure it is used with."""


def _mismatch(structure, x) -> StructureMismatchError:
    return StructureMismatchError(
        f"element/structure mismatch: {x!r} is not an element of {structure}"
    )


class AmbientStructure:
    """Base class for the ambient structures below.

    Subclasses provide ``compose`` (the associative law, unchecked),
    ``validate`` and the carrier metadata.
    """

    is_commutative: bool = True
    invertible: bool = False
    size: int | None = None  # None means an infinite carrier

    def compose(self, x, y):
        raise NotImplementedError

    def validate(self, x):
        raise NotImplementedError

    def elements(self):
        """Yield the full carrier in canonical order (finite structures only)."""
        raise ValueError(f"{self} has an infinite carrier")

    def element_to_json(self, x):
        raise NotImplementedError

    def element_from_json(self, v):
        raise NotImplementedError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int(name: str, v) -> None:
    """Refuse a size parameter that is not an int (a bool included), so no
    float reaches an element, a size or a verdict."""
    if not _is_int(v):
        raise ValueError(f"{name}: expected an integer, got {v!r}")


def _decode_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    # only what _encode_int writes: an optional "-" and ASCII digits
    if isinstance(v, str) and (digits := v.removeprefix("-")).isascii() and digits.isdigit():
        return int(v)
    raise ValueError(f"expected an integer or decimal string, got {v!r}")


def _encode_int(x: int):
    return x if abs(x) < _JSON_INT_LIMIT else str(x)


@dataclass(frozen=True)
class Integers(AmbientStructure):
    """The additive group of integers."""

    invertible = True

    def compose(self, x, y):
        return x + y

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool):
            raise _mismatch(self, x)

    def element_to_json(self, x):
        return _encode_int(x)

    def element_from_json(self, v):
        return _decode_int(v)

    def __str__(self):
        return "Z"


@dataclass(frozen=True)
class Lattice(AmbientStructure):
    """Z^d with componentwise addition, d >= 1."""

    dim: int

    invertible = True

    def __post_init__(self):
        _require_int("dim", self.dim)
        if self.dim < 1:
            raise ValueError("lattice dimension must be >= 1")

    def compose(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.dim
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in x)
        ):
            raise _mismatch(self, x)

    def element_to_json(self, x):
        return [_encode_int(c) for c in x]

    def element_from_json(self, v):
        if not isinstance(v, list) or len(v) != self.dim:
            raise ValueError(f"expected a {self.dim}-vector, got {v!r}")
        return tuple(_decode_int(c) for c in v)

    def __str__(self):
        return f"Z^{self.dim}"


@dataclass(frozen=True)
class Residues(AmbientStructure):
    """Z/nZ with addition mod n, payloads reduced to [0, n)."""

    modulus: int

    invertible = True

    def __post_init__(self):
        _require_int("modulus", self.modulus)
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    @property
    def size(self):
        return self.modulus

    def compose(self, x, y):
        return (x + y) % self.modulus

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.modulus:
            raise _mismatch(self, x)

    def elements(self):
        return iter(range(self.modulus))

    def element_to_json(self, x):
        return _encode_int(x)

    def element_from_json(self, v):
        return _decode_int(v) % self.modulus

    def __str__(self):
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class Permutations(AmbientStructure):
    """The symmetric group on {1..degree}, degree <= 8.

    Elements are one-line tuples p = (p(1), ..., p(degree)). Composition is
    left-to-right application: compose(x, y) applies x first, then y.
    """

    degree: int

    invertible = True

    def __post_init__(self):
        _require_int("degree", self.degree)
        if not 1 <= self.degree <= MAX_PERMUTATION_DEGREE:
            raise ValueError(
                f"permutation degree must be in 1..{MAX_PERMUTATION_DEGREE}"
            )

    @property
    def is_commutative(self):
        return self.degree <= 2

    @property
    def size(self):
        return math.factorial(self.degree)

    def compose(self, x, y):
        return tuple(y[i - 1] for i in x)

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.degree
            or sorted(x) != list(range(1, self.degree + 1))
        ):
            raise _mismatch(self, x)

    def identity(self):
        return tuple(range(1, self.degree + 1))

    def elements(self):
        return itertools.permutations(range(1, self.degree + 1))

    def element_to_json(self, x):
        return list(x)

    def element_from_json(self, v):
        if not isinstance(v, list):
            raise ValueError(f"expected a one-line permutation array, got {v!r}")
        p = tuple(_decode_int(c) for c in v)
        self.validate(p)
        return p

    def __str__(self):
        return f"Sym({self.degree})"


@dataclass(frozen=True)
class IntersectionSemigroup(AmbientStructure):
    """Subsets of a universe {1..u}, u <= 16, under intersection.

    Elements are bitmasks; bit i-1 encodes membership of i. Every element is
    idempotent and there is no identity-free assumption anywhere: this
    structure exists to exercise the semigroup generality of the verifiers.
    """

    universe: int

    def __post_init__(self):
        _require_int("universe", self.universe)
        if not 1 <= self.universe <= MAX_INTERSECTION_UNIVERSE:
            raise ValueError(
                f"universe size must be in 1..{MAX_INTERSECTION_UNIVERSE}"
            )

    @property
    def size(self):
        return 1 << self.universe

    def compose(self, x, y):
        return x & y

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < (1 << self.universe):
            raise _mismatch(self, x)

    def mask(self, members) -> int:
        """Bitmask for an iterable of members drawn from {1..u}."""
        m = 0
        for i in members:
            if not 1 <= i <= self.universe:
                raise ValueError(f"member {i} outside universe 1..{self.universe}")
            m |= 1 << (i - 1)
        return m

    def elements(self):
        return iter(range(1 << self.universe))

    def element_to_json(self, x):
        return _encode_int(x)

    def element_from_json(self, v):
        x = _decode_int(v)
        self.validate(x)
        return x

    def __str__(self):
        return f"Intersect({self.universe})"


@dataclass(frozen=True)
class DirectPower(AmbientStructure):
    """The k-th direct power of a base structure, composing componentwise."""

    base: AmbientStructure
    power: int

    def __post_init__(self):
        _require_int("power", self.power)
        if self.power < 1:
            raise ValueError("direct power must be >= 1")

    @property
    def is_commutative(self):
        return self.base.is_commutative

    @property
    def invertible(self):
        return self.base.invertible

    @property
    def size(self):
        return None if self.base.size is None else self.base.size**self.power

    def compose(self, x, y):
        return tuple(self.base.compose(a, b) for a, b in zip(x, y))

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != self.power:
            raise _mismatch(self, x)
        for c in x:
            self.base.validate(c)

    def elements(self):
        return itertools.product(self.base.elements(), repeat=self.power)

    def element_to_json(self, x):
        return [self.base.element_to_json(c) for c in x]

    def element_from_json(self, v):
        if not isinstance(v, list) or len(v) != self.power:
            raise ValueError(f"expected a {self.power}-tuple, got {v!r}")
        return tuple(self.base.element_from_json(c) for c in v)

    def __str__(self):
        return f"({self.base})^{self.power}"


def compose(structure: AmbientStructure, x, y):
    """Compose two elements under the structure's law, validating both."""
    structure.validate(x)
    structure.validate(y)
    return structure.compose(x, y)


def is_commutative(structure: AmbientStructure) -> bool:
    return structure.is_commutative


def canonical_order(structure: AmbientStructure, xs) -> list:
    """Sort elements into the structure's canonical total order.

    Idempotent and independent of the input order; duplicates are kept
    (deduplication belongs to FiniteSet construction).
    """
    xs = list(xs)
    for x in xs:
        structure.validate(x)
    return sorted(xs)


# --- JSON encoding of structures -------------------------------------------
#
#   "Z" | {"Zd": d} | {"Zmod": n} | {"Sym": degree} | {"Intersect": u}
#       | {"Power": {"base": <structure>, "k": k}}

# tag -> (class, parameter) for the structures with one integer parameter
_TAGGED_STRUCTURES = {
    "Zd": (Lattice, "dim"),
    "Zmod": (Residues, "modulus"),
    "Sym": (Permutations, "degree"),
    "Intersect": (IntersectionSemigroup, "universe"),
}


def structure_to_json(structure: AmbientStructure):
    if isinstance(structure, Integers):
        return "Z"
    for tag, (cls, param) in _TAGGED_STRUCTURES.items():
        if isinstance(structure, cls):
            return {tag: getattr(structure, param)}
    if isinstance(structure, DirectPower):
        return {"Power": {"base": structure_to_json(structure.base), "k": structure.power}}
    raise ValueError(f"unknown structure {structure!r}")


def structure_from_json(obj) -> AmbientStructure:
    """Decode a structure; a malformed one raises ValueError prefixed with
    the field name ``structure``."""
    try:
        return _structure_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"structure: {exc}") from None


def _structure_from_json(obj) -> AmbientStructure:
    if obj == "Z":
        return Integers()
    if isinstance(obj, dict) and len(obj) == 1:
        (tag, arg), = obj.items()
        if tag in _TAGGED_STRUCTURES:
            return _TAGGED_STRUCTURES[tag][0](_decode_int(arg))
        if tag == "Power":
            if not isinstance(arg, dict) or not {"base", "k"} <= arg.keys():
                raise ValueError(f"Power structure needs an object with 'base' and 'k', got {arg!r}")
            return DirectPower(_structure_from_json(arg["base"]), _decode_int(arg["k"]))
    raise ValueError(f"unknown structure encoding {obj!r}")
