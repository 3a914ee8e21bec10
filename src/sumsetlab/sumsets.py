"""Finite sets over an ambient structure and their n-fold sumsets.

Sumsets fold left to right through a hash/set fold. An integer sumset folds
all summands into one offset and bitmask by shift-or when its sums are
dense: the total spread sum(max - min) is at most a bound on the number of
sums, taken once before the fold. The bound is the product over runs of
adjacent equal summands: a run of r copies of an m-set has at most
C(r + m - 1, r) sums, counted as multisets, and a lone summand contributes
its size. The engine choice is internal; results are identical element for
element.

A sumset is decoded on first read. It keeps what its fold made, the offset
and bitmask or the Python set, so len() is a popcount or the set's size and
`x in s` probes the mask or the set. The first read of `elements` builds the
sorted tuple and drops the fold's payload. The mask decode runs in C: the
bit string, reversed and translated to 0/1 bytes, selects the sums from a
range with itertools.compress.

Restricted sums are driven by an AdditionGraph, an index-level edge relation
on the operand sets. Graph indices are 0-based in memory and 1-based in the
JSON instance format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import (
    _JSON_INT_LIMIT,
    AmbientStructure,
    DirectPower,
    Integers,
    StructureMismatchError,
    _decode_int,
    _is_int,
    _require_int,
    structure_from_json,
    structure_to_json,
)

# The most summands one parameter may ask for: iterated_sum's k (so
# plunnecke's i and k), lev's kmax and a hunt's k. A larger value is refused
# with a ValueError rather than folded for as long as it asks.
MAX_SUMMANDS = 64


@dataclass(frozen=True)
class FiniteSet:
    """A deduplicated, canonically ordered finite set of elements.

    May be empty (restricted sums can produce empty results); operations that
    realize theorem statements reject empty inputs at their own boundary.
    """

    structure: AmbientStructure
    elements: tuple = ()

    def __post_init__(self):
        for x in self.elements:
            self.structure.validate(x)
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def _unchecked(cls, structure, elements: tuple):
        """Wrap a tuple of valid, distinct elements in canonical order as is."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "structure", structure)
        object.__setattr__(fs, "elements", elements)
        return fs

    def __eq__(self, other):
        # Equal sets are equal whatever the subclass, so a sumset not yet
        # decoded equals the FiniteSet of its elements; the sizes, which
        # never force a decode, settle most unequal pairs.
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return len(self) == len(other) and self.structure == other.structure and self.elements == other.elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def min(self):
        return self.elements[0]

    def max(self):
        return self.elements[-1]

    def to_json(self):
        xs = self.elements
        # Integers inside +-2^53 encode as themselves, so the sorted ends decide.
        if isinstance(self.structure, Integers) and (
            not xs or -_JSON_INT_LIMIT < xs[0] and xs[-1] < _JSON_INT_LIMIT
        ):
            return list(xs)
        return [self.structure.element_to_json(x) for x in xs]


@dataclass(frozen=True)
class AdditionGraph:
    """An edge relation on index pairs restricting which elements may be added.

    Indices are 0-based. A symmetric graph stores the symmetric closure of the
    supplied edges; symmetric graphs are required whenever both operand sets
    are the same set. Loop edges (i, i) are only legal when loops_allowed.
    """

    left_size: int
    right_size: int
    edges: frozenset = field(default_factory=frozenset)
    symmetric: bool = False
    loops_allowed: bool = True

    def __post_init__(self):
        for name in ("left_size", "right_size"):
            _require_int(name, getattr(self, name))
        if self.symmetric and self.left_size != self.right_size:
            raise ValueError("graph: symmetric graph requires equal side sizes")
        edges = set(self.edges)
        for i, j in edges:
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge {(i, j)!r}: expected integer indices")
            if not (0 <= i < self.left_size and 0 <= j < self.right_size):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j and not self.loops_allowed:
                raise ValueError(f"loop edge ({i},{i}) but loops are disallowed")
        if self.symmetric:
            edges |= {(j, i) for i, j in edges}
        object.__setattr__(self, "edges", frozenset(edges))

    @classmethod
    def complete(cls, left_size, right_size, loops_allowed=True):
        symmetric = left_size == right_size
        edges = {
            (i, j)
            for i in range(left_size)
            for j in range(right_size)
            if loops_allowed or i != j
        }
        return cls(left_size, right_size, frozenset(edges), symmetric, loops_allowed)

    def to_json(self):
        return {
            "edges": sorted([i + 1, j + 1] for i, j in self.edges),
            "symmetric": self.symmetric,
            "loops": self.loops_allowed,
        }

    @classmethod
    def from_json(cls, obj, left_size, right_size):
        edges = obj.get("edges") if isinstance(obj, dict) else None
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("graph: expected {\"edges\": [[i, j], ...]} with 1-based indices")
        symmetric, loops = obj.get("symmetric", False), obj.get("loops", True)
        for key, flag in (("symmetric", symmetric), ("loops", loops)):
            if not isinstance(flag, bool):
                raise ValueError(f"graph: {key!r} must be true or false, got {flag!r}")
        decoded = set()
        for edge in edges:
            try:
                i, j = map(_decode_int, edge)
            except ValueError as exc:
                raise ValueError(f"graph: edge {edge}: {exc}") from None
            if not (1 <= i <= left_size and 1 <= j <= right_size):
                raise ValueError(f"graph: edge {edge} out of range 1..{left_size} x 1..{right_size}")
            if i == j and not loops:
                raise ValueError(f"graph: edge {edge} is a loop but loops are disallowed")
            decoded.add((i - 1, j - 1))
        return cls(left_size, right_size, frozenset(decoded), symmetric, loops)


def _require_same_structure(structure, sets):
    for s in sets:
        if s.structure is not structure and s.structure != structure:
            raise StructureMismatchError(
                f"set over {s.structure} used with {structure}"
            )


def _require_nonempty(sets):
    if not sets or not all(map(len, sets)):
        raise ValueError("nonempty sets required")


def _pair_sumset_generic(structure, xs, ys) -> set:
    if isinstance(structure, Integers):
        return {x + y for x in xs for y in ys}
    compose = structure.compose
    return {compose(x, y) for x in xs for y in ys}


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _integer_fold(sets) -> tuple | None:
    """Integer sumset by one shift-or fold: (offset, bits), where bit i is
    set when offset + i is a sum. None, leaving it to the hash fold, when the
    spread exceeds the module docstring's bound on the number of sums, so the
    mask would hold more bits than there can be sums (as for progressions
    with a large difference, or iterated sums of a Sidon-like set)."""
    spread, bound, run, prev = 0, 1, 0, None
    for s in sets:
        xs = s.elements
        spread += xs[-1] - xs[0]
        run = run + 1 if xs == prev else 1
        # C(r + m - 1, r) = C(r + m - 2, r - 1) * (r + m - 1) / r; the division
        # is exact, as the product so far holds C(r + m - 2, r - 1) as a factor
        bound = bound * (run + len(xs) - 1) // run
        prev = xs
    if spread > bound:
        return None
    offset, bits = 0, 1
    for s in sets:
        xs = s.elements
        lo = xs[0]
        offset += lo
        acc = 0
        for x in xs:
            acc |= bits << (x - lo)
        bits = acc
    return offset, bits


def _decode(payload) -> tuple:
    """The sorted elements of a fold's payload: an (offset, bits) mask or a
    set of sums.

    The mask decode maps bit i to the flag byte i and lets compress pick the
    sums from range(offset, offset + bit_length). The list is built before
    the tuple: a tuple made straight from the iterator, whose length is
    unknown, grows by resizing and fragments the heap."""
    if type(payload) is tuple:
        offset, bits = payload
        flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
        return tuple(list(itertools.compress(range(offset, offset + len(flags)), flags)))
    return tuple(sorted(payload))


class _DecodedOnRead:
    """The `elements` of a _Sumset: a non-data descriptor, so the tuple it
    stores in the instance dict on the first read answers every later read
    as a plain attribute, and the payload it decodes is dropped.

    The tuple is stored before the payload is dropped, so a thread that
    finds no payload finds the tuple; two threads that both decode store
    equal tuples."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        attrs = obj.__dict__
        payload = attrs.get("_payload")
        if payload is None:
            return attrs["elements"]
        elements = attrs["elements"] = _decode(payload)
        attrs.pop("_payload", None)
        return elements


class _Sumset(FiniteSet):
    """A sumset that holds its fold's payload until `elements` is read.

    Counting and membership read the payload while it is there; a decoded
    _Sumset holds what a FiniteSet holds and answers as one."""

    elements = _DecodedOnRead()

    @classmethod
    def _of(cls, structure, payload):
        fs = object.__new__(cls)
        attrs = fs.__dict__
        attrs["structure"] = structure
        attrs["_payload"] = payload
        return fs

    def __len__(self):
        payload = self.__dict__.get("_payload")
        if payload is None:
            return len(self.elements)
        return payload[1].bit_count() if type(payload) is tuple else len(payload)

    def __contains__(self, x):
        payload = self.__dict__.get("_payload")
        if type(payload) is tuple:
            if isinstance(x, int):
                offset, bits = payload
                return x >= offset and bits >> (x - offset) & 1 == 1
        elif payload is not None:
            try:
                return x in payload
            except TypeError:  # unhashable: a tuple compares it by equality
                pass
        return x in self.elements


def sumset(structure: AmbientStructure, sets: list[FiniteSet]) -> FiniteSet:
    """The n-fold sumset A_1 + ... + A_k, decoded on first read.

    For noncommutative structures the composition order is the list order
    (elements of sets[0] compose first).
    """
    _require_nonempty(sets)
    _require_same_structure(structure, sets)
    if isinstance(structure, Integers):
        payload = _integer_fold(sets)
        if payload is not None:
            return _Sumset._of(structure, payload)
    acc = set(sets[0].elements)
    for nxt in sets[1:]:
        acc = _pair_sumset_generic(structure, acc, nxt.elements)
    return _Sumset._of(structure, acc)


def leave_one_out(structure: AmbientStructure, sets: list[FiniteSet], i: int) -> FiniteSet:
    """The sumset of all sets except the i-th (1-based), preserving list order."""
    if len(sets) < 2:
        raise ValueError("need at least two summands")
    if not 1 <= i <= len(sets):
        raise ValueError(f"index {i} out of range 1..{len(sets)}")
    return sumset(structure, sets[: i - 1] + sets[i:])


def iterated_sum(structure: AmbientStructure, a: FiniteSet, k: int) -> FiniteSet:
    """The k-fold sum A + A + ... + A; 1A = A."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_SUMMANDS:
        raise ValueError(f"k must be at most {MAX_SUMMANDS}")
    return sumset(structure, [a] * k)


def restricted_pair_sumset(
    structure: AmbientStructure, a: FiniteSet, b: FiniteSet, g: AdditionGraph
) -> FiniteSet:
    """Sums A[i] + B[j] over the edges of g only. May be empty."""
    _require_same_structure(structure, [a, b])
    if g.left_size != len(a) or g.right_size != len(b):
        raise ValueError("dimension mismatch between graph and operand sets")
    xs, ys = a.elements, b.elements
    sums = {structure.compose(xs[i], ys[j]) for i, j in g.edges}
    return FiniteSet._unchecked(structure, tuple(sorted(sums)))


def graph_triple_sumset(a: FiniteSet, g: AdditionGraph) -> FiniteSet:
    """Sums a_1 + a_2 + a_3 over triples of A in which every pair is an edge.

    Requires a symmetric self-graph. Triples may repeat an element when the
    corresponding loop edge is present. Sums compose in ascending index order
    i <= j <= k. Each index keeps the set of its neighbours at or above it,
    so memory grows with |A| and the edges, not with |A|^2.
    """
    if not g.symmetric:
        raise ValueError("non-symmetric graph")
    if g.left_size != len(a) or g.right_size != len(a):
        raise ValueError("dimension mismatch between graph and operand set")
    # up[i]: the neighbours j >= i of i, so k in up[i] & up[j] has i <= j <= k
    up = [set() for _ in a.elements]
    for i, j in g.edges:
        if i <= j:
            up[i].add(j)
    xs = a.elements
    compose = a.structure.compose
    out = set()
    for i, row in enumerate(up):
        for j in row:
            for k in row & up[j]:
                out.add(compose(compose(xs[i], xs[j]), xs[k]))
    return FiniteSet._unchecked(a.structure, tuple(sorted(out)))


def direct_power(structure: AmbientStructure, x: FiniteSet, k: int) -> FiniteSet:
    """The k-fold Cartesian power of X inside DirectPower(structure, k)."""
    if k < 1:
        raise ValueError("k must be positive")
    _require_nonempty([x])
    _require_same_structure(structure, [x])
    power = DirectPower(structure, k)
    # The product of a sorted tuple comes out in lexicographic, canonical order.
    return FiniteSet._unchecked(power, tuple(itertools.product(x.elements, repeat=k)))


# --- Instance files ----------------------------------------------------------
#
#   {"structure": <structure>, "sets": [[e, ...], ...],
#    "graph": {"edges": [[i, j], ...], "symmetric": true, "loops": true}?,
#    ...extra integer parameters for specific verifiers}
#
# Graph indices are 1-based in files.


def instance_to_json(structure, sets, graph=None, **extras):
    obj = {
        "structure": structure_to_json(structure),
        "sets": [s.to_json() for s in sets],
    }
    if graph is not None:
        obj["graph"] = graph.to_json()
    obj.update(extras)
    return obj


def _set_from_json(structure, values, path):
    """Decode a JSON element array, naming the path of a malformed element
    (path[j]). The element decoders validate what they return, so the set is
    built unchecked."""
    if not isinstance(values, list):
        raise ValueError(f"{path}: expected an array of elements")
    elements = set()
    for j, v in enumerate(values):
        try:
            elements.add(structure.element_from_json(v))
        except ValueError as exc:
            raise ValueError(f"{path}[{j}]: {exc}") from None
    return FiniteSet._unchecked(structure, tuple(sorted(elements)))


def instance_from_json(obj):
    """Parse an instance file body into (structure, sets, graph, extras).

    A malformed body raises ValueError naming the offending field.
    """
    if not isinstance(obj, dict):
        raise ValueError("instance: expected a JSON object")
    for key in ("structure", "sets"):
        if key not in obj:
            raise ValueError(f"instance is missing required field {key!r}")
    structure = structure_from_json(obj["structure"])
    sets = obj["sets"]
    if not isinstance(sets, list) or not all(isinstance(vs, list) for vs in sets):
        raise ValueError("sets: expected an array of element arrays")
    sets = [_set_from_json(structure, vs, f"sets[{i}]") for i, vs in enumerate(sets)]
    graph = None
    if obj.get("graph") is not None:
        if not sets:
            raise ValueError("graph: the instance has no sets")
        left = len(sets[0])
        right = len(sets[1]) if len(sets) > 1 else len(sets[0])
        graph = AdditionGraph.from_json(obj["graph"], left, right)
    extras = {
        k: v for k, v in obj.items() if k not in ("structure", "sets", "graph")
    }
    return structure, sets, graph, extras
