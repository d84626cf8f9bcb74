"""Finite relational structures: restriction, isomorphism, canonical codes, ages, autonomy.

A structure is a finite domain {0..m-1} together with one set of fixed-arity
tuples per relation symbol.  Values are immutable and hashable; equality is
literal (same domain size, same tuple sets), never up to isomorphism.
Isomorphism is decided through canonical codes.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from . import canon


@dataclass(frozen=True)
class Signature:
    """Arities of the relation symbols, one entry per symbol.  May be empty."""

    arities: tuple[int, ...]

    def __post_init__(self):
        if any(a < 1 for a in self.arities):
            raise ValueError(f"arities must be positive: {self.arities}")

    def __len__(self):
        return len(self.arities)


@dataclass(frozen=True)
class RelStruct:
    """A finite relational structure on domain {0..domain_size-1}.

    Direct construction is trusted (used on hot enumeration paths); build
    through ``make_struct`` to get the tuples validated.
    """

    signature: Signature
    domain_size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]

    @property
    def domain(self) -> range:
        return range(self.domain_size)


def make_struct(arities, domain_size, relations) -> RelStruct:
    """Validating constructor from plain iterables."""
    struct = RelStruct(
        Signature(tuple(arities)),
        domain_size,
        tuple(frozenset(map(tuple, rel)) for rel in relations),
    )
    if struct.domain_size < 0:
        raise ValueError("domain_size must be non-negative")
    if len(struct.relations) != len(struct.signature):
        raise ValueError("one tuple set per symbol required")
    for arity, rel in zip(struct.signature.arities, struct.relations):
        for t in rel:
            if len(t) != arity:
                raise ValueError(f"tuple {t} does not match arity {arity}")
            if any(not (0 <= x < struct.domain_size) for x in t):
                raise ValueError(f"tuple {t} out of domain range {struct.domain_size}")
    return struct


def restrict(struct: RelStruct, subset) -> RelStruct:
    """Induced substructure on a subset, re-indexed to {0..|A|-1} in domain order."""
    vertices = sorted(set(subset))
    if vertices and not (0 <= vertices[0] and vertices[-1] < struct.domain_size):
        raise IndexError(f"subset {vertices} not within domain of size {struct.domain_size}")
    position = {v: i for i, v in enumerate(vertices)}
    keep = set(vertices)
    rels = tuple(
        frozenset(tuple(position[x] for x in t) for t in rel if keep.issuperset(t))
        for rel in struct.relations
    )
    return RelStruct(struct.signature, len(vertices), rels)  # trusted: re-indexed


@functools.lru_cache(maxsize=262144)
def canonical_code(struct: RelStruct) -> bytes:
    """Deterministic code, equal for two structures iff they are isomorphic."""
    return canon.canonical_code_bytes(
        struct.signature.arities, struct.domain_size, struct.relations
    )


def with_marks(signature: Signature, relations: tuple, labels) -> tuple:
    """(Sorted distinct labels, signature, relations) of the structure with
    one unary mark per label, where ``labels[i]`` is element i's label and
    None means it has none.  Two structures of one signature are isomorphic
    by a map that keeps every element's label iff the labels match and the
    marked structures are isomorphic.  With no label, or with the one label
    present on every element, a mark tells nothing, and the signature and
    relations are returned as given."""
    present = tuple(sorted({label for label in labels if label is not None}))
    if not present or len(present) == 1 and None not in labels:
        return present, signature, relations
    marks = tuple(frozenset((i,) for i, label in enumerate(labels) if label == mark)
                  for mark in present)
    return present, Signature(signature.arities + (1,) * len(present)), relations + marks


class Age(Mapping):
    """Level n of an age: code -> representative, in code order.  Its length
    is the type count and needs no code.  The engine that found the level
    supplies one handle per type (``types``), ``coder``, which maps them to
    (code -> handle, in code order) on the first access to the codes, and
    ``build``, which builds a representative from its handle; or it
    supplies (code -> handle) whole as ``codes``.  Every reader computes the
    same codes, so a race costs work, not values."""

    __slots__ = ("_types", "_coder", "_build", "_codes")

    def __init__(self, build, types=(), coder=None, codes=None):
        self._build, self._types, self._coder, self._codes = build, types, coder, codes

    def __len__(self):
        codes = self._codes
        return len(self._types) if codes is None else len(codes)

    def __iter__(self):
        return iter(self._coded())

    def __contains__(self, code):
        return code in self._coded()

    def __getitem__(self, code) -> RelStruct:
        return self._build(self._coded()[code])

    def _coded(self) -> dict:
        codes = self._codes
        if codes is None:
            codes = self._codes = self._coder(self._types)
        return codes


def are_isomorphic(left: RelStruct, right: RelStruct) -> bool:
    if left.signature != right.signature:
        raise ValueError("signature mismatch")
    if left.domain_size != right.domain_size:
        return False
    return canonical_code(left) == canonical_code(right)


def is_local_iso(left: RelStruct, right: RelStruct, mapping: dict[int, int]) -> bool:
    """True iff the partial map is an isomorphism between the two restrictions."""
    if left.signature != right.signature:
        raise ValueError("signature mismatch")
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ValueError("mapping is not injective")
    for v in mapping:
        if not 0 <= v < left.domain_size:
            raise IndexError(f"source {v} out of range")
    for w in values:
        if not 0 <= w < right.domain_size:
            raise IndexError(f"target {w} out of range")
    dom = list(mapping)
    for arity, lrel, rrel in zip(left.signature.arities, left.relations, right.relations):
        for t in itertools.product(dom, repeat=arity):
            if (t in lrel) != (tuple(mapping[x] for x in t) in rrel):
                return False
    return True


def _single_binary(struct: RelStruct) -> frozenset:
    if struct.signature.arities != (2,):
        raise ValueError(f"one binary relation required, signature {struct.signature.arities}")
    return struct.relations[0]


def is_autonomous(graph: RelStruct, subset) -> bool:
    """Module test for a directed graph: members of the subset are
    indistinguishable, in both arc directions, from every outside vertex."""
    arcs = _single_binary(graph)
    inside = sorted(set(subset))
    for v in inside:
        if not 0 <= v < graph.domain_size:
            raise IndexError(f"vertex {v} out of range")
    outside = [y for y in graph.domain if y not in set(inside)]
    for x, xp in itertools.combinations(inside, 2):
        for y in outside:
            if ((x, y) in arcs) != ((xp, y) in arcs):
                return False
            if ((y, x) in arcs) != ((y, xp) in arcs):
                return False
    return True


# ---------------------------------------------------------------------------
# Common structure builders (single binary symbol unless noted)
# ---------------------------------------------------------------------------


def graph_from_edges(n: int, edges) -> RelStruct:
    """Symmetric irreflexive graph: each edge stored as both ordered pairs."""
    arcs = set()
    for u, v in edges:
        if u == v:
            raise ValueError("graphs are irreflexive")
        arcs.add((u, v))
        arcs.add((v, u))
    return make_struct((2,), n, [arcs])


def digraph(n: int, arcs) -> RelStruct:
    return make_struct((2,), n, [set(map(tuple, arcs))])


def clique_graph(n: int) -> RelStruct:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def independent_graph(n: int) -> RelStruct:
    return graph_from_edges(n, [])


def path_graph(n: int) -> RelStruct:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def acyclic_tournament(n: int) -> RelStruct:
    return digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cyclic_tournament_3() -> RelStruct:
    return digraph(3, [(0, 1), (1, 2), (2, 0)])


def two_linear_orders(permutation) -> RelStruct:
    """Two strict linear orders: the natural one, and one ordering position i
    below j iff permutation[i] < permutation[j].  Restrictions realize the
    patterns of the permutation."""
    perm = tuple(permutation)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("need a permutation of 0..n-1")
    n = len(perm)
    natural = {(i, j) for i in range(n) for j in range(i + 1, n)}
    second = {(i, j) for i in range(n) for j in range(n) if perm[i] < perm[j]}
    return make_struct((2, 2), n, [natural, second])


def disjoint_union(left: RelStruct, right: RelStruct) -> RelStruct:
    if left.signature != right.signature:
        raise ValueError("signature mismatch")
    shift = left.domain_size
    rels = tuple(
        frozenset(lrel) | frozenset(tuple(x + shift for x in t) for t in rrel)
        for lrel, rrel in zip(left.relations, right.relations)
    )
    return RelStruct(left.signature, shift + right.domain_size, rels)
