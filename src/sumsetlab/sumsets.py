"""Finite sets over an ambient structure and their n-fold sumsets.

Two engines compute integer pairwise sumsets: a generic hash/set fold, and a
bitset-shift engine used when both operands fit a bounded window. The engine
choice is internal; results are identical element for element.

Restricted sums are driven by an AdditionGraph, an index-level edge relation
on the operand sets. Graph indices are 0-based in memory and 1-based in the
JSON instance format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import (
    AmbientStructure,
    DirectPower,
    Integers,
    StructureMismatchError,
    _decode_int,
    structure_from_json,
    structure_to_json,
)

# Maximum combined value spread for the integer bitset engine.
BITSET_WINDOW = 1 << 20


@dataclass(frozen=True)
class FiniteSet:
    """A deduplicated, canonically ordered finite set of elements.

    May be empty (restricted sums can produce empty results); operations that
    realize theorem statements reject empty inputs at their own boundary.
    """

    structure: AmbientStructure
    elements: tuple = ()

    def __post_init__(self):
        xs = self.elements
        for x in xs:
            self.structure.validate(x)
        object.__setattr__(self, "elements", tuple(sorted(set(xs))))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in set(self.elements)

    def min(self):
        return self.elements[0]

    def max(self):
        return self.elements[-1]

    def to_json(self):
        return [self.structure.element_to_json(x) for x in self.elements]

    @classmethod
    def from_json(cls, structure, values):
        return cls(structure, tuple(structure.element_from_json(v) for v in values))


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
        edges = {(int(i), int(j)) for i, j in self.edges}
        if self.symmetric:
            if self.left_size != self.right_size:
                raise ValueError("symmetric graph requires equal side sizes")
            edges |= {(j, i) for i, j in edges}
        for i, j in edges:
            if not (0 <= i < self.left_size and 0 <= j < self.right_size):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j and not self.loops_allowed:
                raise ValueError(f"loop edge ({i},{i}) but loops are disallowed")
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
        edges = frozenset((_decode_int(i) - 1, _decode_int(j) - 1) for i, j in edges)
        return cls(
            left_size,
            right_size,
            edges,
            bool(obj.get("symmetric", False)),
            bool(obj.get("loops", True)),
        )


def _require_same_structure(structure, sets):
    for s in sets:
        if s.structure != structure:
            raise StructureMismatchError(
                f"set over {s.structure} used with {structure}"
            )


def _require_nonempty(sets):
    if not sets or any(len(s) == 0 for s in sets):
        raise ValueError("nonempty sets required")


def _pair_sumset_generic(structure, xs, ys) -> set:
    compose = structure.compose
    return {compose(x, y) for x in xs for y in ys}


def _bitset_ok(xs, ys) -> bool:
    return (max(xs) - min(xs)) + (max(ys) - min(ys)) < BITSET_WINDOW


def _pair_sumset_bitset(xs, ys) -> set:
    """Integer pairwise sumset via big-int bitmask shifts."""
    if len(xs) > len(ys):
        xs, ys = ys, xs
    xlo = min(xs)
    ylo = min(ys)
    ybits = 0
    for y in ys:
        ybits |= 1 << (y - ylo)
    bits = 0
    for x in xs:
        bits |= ybits << (x - xlo)
    base = xlo + ylo
    out = set()
    while bits:
        low = bits & -bits
        out.add(base + low.bit_length() - 1)
        bits ^= low
    return out


def _pair_sumset(structure, xs, ys) -> set:
    if isinstance(structure, Integers) and _bitset_ok(xs, ys):
        return _pair_sumset_bitset(xs, ys)
    return _pair_sumset_generic(structure, xs, ys)


def sumset(structure: AmbientStructure, sets: list[FiniteSet]) -> FiniteSet:
    """The n-fold sumset A_1 + ... + A_k.

    For noncommutative structures the composition order is the list order
    (elements of sets[0] compose first).
    """
    _require_nonempty(sets)
    _require_same_structure(structure, sets)
    acc = set(sets[0])
    for nxt in sets[1:]:
        acc = _pair_sumset(structure, acc, nxt.elements)
    return FiniteSet(structure, tuple(acc))


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
    return sumset(structure, [a] * k)


def restricted_pair_sumset(
    structure: AmbientStructure, a: FiniteSet, b: FiniteSet, g: AdditionGraph
) -> FiniteSet:
    """Sums A[i] + B[j] over the edges of g only. May be empty."""
    _require_same_structure(structure, [a, b])
    if g.left_size != len(a) or g.right_size != len(b):
        raise ValueError("dimension mismatch between graph and operand sets")
    xs = a.elements
    ys = b.elements
    compose = structure.compose
    return FiniteSet(structure, tuple(compose(xs[i], ys[j]) for i, j in g.edges))


def graph_triple_sumset(a: FiniteSet, g: AdditionGraph) -> FiniteSet:
    """Sums a_1 + a_2 + a_3 over triples of A in which every pair is an edge.

    Requires a symmetric self-graph. Triples may repeat an element when the
    corresponding loop edge is present. Sums compose in ascending index order.
    """
    if not g.symmetric:
        raise ValueError("non-symmetric graph")
    if g.left_size != len(a) or g.right_size != len(a):
        raise ValueError("dimension mismatch between graph and operand set")
    n = len(a)
    adj = [0] * n
    for i, j in g.edges:
        adj[i] |= 1 << j
    xs = a.elements
    compose = a.structure.compose
    out = set()
    for i in range(n):
        for j in range(i, n):
            if not adj[i] >> j & 1:
                continue
            common = adj[i] & adj[j] & (-1 << j)
            while common:
                low = common & -common
                k = low.bit_length() - 1
                out.add(compose(compose(xs[i], xs[j]), xs[k]))
                common ^= low
    return FiniteSet(a.structure, tuple(out))


def direct_power(structure: AmbientStructure, x: FiniteSet, k: int) -> FiniteSet:
    """The k-fold Cartesian power of X inside DirectPower(structure, k)."""
    if k < 1:
        raise ValueError("k must be positive")
    _require_nonempty([x])
    _require_same_structure(structure, [x])
    power = DirectPower(structure, k)
    return FiniteSet(power, tuple(itertools.product(x.elements, repeat=k)))


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
    sets = [FiniteSet.from_json(structure, vs) for vs in sets]
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
