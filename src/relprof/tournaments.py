"""Acyclic components of tournaments and the growth dichotomy classification.

A tournament's profile growth is either polynomial (exactly when it is a
lexicographic sum of acyclic tournaments over a finite tournament, i.e. has
finitely many acyclic components) or at least exponential.  Acyclic
components come from autonomous closures: y shares x's component exactly
when the smallest autonomous set holding both is acyclic, so finding them
takes pair closures, not a scan of all vertex subsets.  Lexicographic sum
presentations are classified structurally from their block kinds; for
multichain presentations the acyclic components of growing window
truncations decide the matter, with the window evidence attached to the
report (the published list of twelve obstruction tournaments is not
reproduced here, so no embedding test is attempted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decomposition import predict_growth_degree, presentation_decomposition
from .presentations import (
    ACYCLIC,
    OMEGA,
    LexSumPresentation,
    MultichainPresentation,
    Word,
    block_relation,
    realize,
)
from .structures import RelStruct, is_autonomous

POLYNOMIAL = "lexsum-of-acyclic"
EXPONENTIAL = "embeds-obstruction"
FINITE = "finite-trivial"


@dataclass(frozen=True)
class TournamentReport:
    classification: str  # POLYNOMIAL | EXPONENTIAL | FINITE
    degree: int | None
    acyclic_component_partition: tuple | None
    evidence: str


def is_tournament(struct: RelStruct) -> bool:
    """Exactly one arc per unordered pair, no loops."""
    if struct.signature.arities != (2,):
        raise ValueError("a tournament carries a single binary relation")
    arcs = struct.relations[0]
    if any((v, v) in arcs for v in struct.domain):
        return False
    for u, v in itertools.combinations(struct.domain, 2):
        if ((u, v) in arcs) + ((v, u) in arcs) != 1:
            return False
    return True


def _is_acyclic(struct: RelStruct, subset) -> bool:
    subset = list(subset)
    arcs = struct.relations[0]
    index = {v: i for i, v in enumerate(subset)}
    indeg = [0] * len(subset)
    out = [[] for _ in subset]
    for (u, v) in arcs:
        if u in index and v in index and u != v:
            out[index[u]].append(index[v])
            indeg[index[v]] += 1
    queue = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return seen == len(subset)


def _autonomous_closure(struct: RelStruct, members) -> set:
    """The smallest autonomous set containing the members: keep adding each
    outside vertex that tells two members apart."""
    arcs = struct.relations[0]
    closure = set(members)
    grew = True
    while grew:
        grew = False
        for z in struct.domain:
            if z not in closure and len({((z, a) in arcs, (a, z) in arcs) for a in closure}) > 1:
                closure.add(z)
                grew = True
    return closure


def acyclic_components(struct: RelStruct) -> tuple:
    """The maximal acyclic autonomous subsets; they partition the vertices.

    Autonomous sets are closed under intersection, so an acyclic autonomous
    set holds both x and y exactly when the autonomous closure of {x, y} is
    acyclic; x's component is x plus every such y.  Each component is
    re-verified to be acyclic and autonomous and the family to be a
    partition, since anything else would contradict the partition property
    and indicates a bug.
    """
    if not is_tournament(struct):
        raise ValueError("acyclic components are defined for tournaments")
    m = struct.domain_size
    components = []
    seen = set()
    for x in range(m):
        if x in seen:
            continue
        component = frozenset(
            y for y in range(m)
            if y == x or _is_acyclic(struct, _autonomous_closure(struct, {x, y}))
        )
        if not (_is_acyclic(struct, component) and is_autonomous(struct, component)):
            raise AssertionError(
                f"union of acyclic autonomous sets through {x} is not one itself; "
                "contradicts the component partition property"
            )
        components.append(component)
        seen |= component
    if sum(len(c) for c in components) != m:
        raise AssertionError("acyclic components failed to partition the vertex set")
    return tuple(tuple(sorted(c)) for c in components)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _lexsum_is_tournament(pres: LexSumPresentation) -> bool:
    if not is_tournament(pres.index):
        return False
    for kind, size in pres.blocks:
        n = 2 if size is OMEGA else min(size, 2)
        rel = block_relation(kind, n)
        probe = RelStruct(pres.index.signature, n, (frozenset(rel),))
        if not is_tournament(probe):
            return False
    return True


def _multichain_window(pres: MultichainPresentation, slices: int) -> RelStruct:
    full_f = tuple(range(pres.f_size))
    letters = (frozenset(range(pres.v_size)),) * slices
    return realize(pres, Word(full_f, letters))


def classify(source) -> TournamentReport:
    """Growth-regime report for a tournament or tournament presentation."""
    if isinstance(source, RelStruct):
        if not is_tournament(source):
            raise ValueError("not a tournament")
        components = acyclic_components(source)
        return TournamentReport(
            FINITE, None, components,
            f"finite tournament on {source.domain_size} vertices, "
            f"{len(components)} acyclic components",
        )
    if isinstance(source, LexSumPresentation):
        if not _lexsum_is_tournament(source):
            raise ValueError("presentation does not present a tournament")
        if all(kind == ACYCLIC or size == 1 for kind, size in source.blocks):
            decomp = presentation_decomposition(source)
            degree = predict_growth_degree(decomp)
            return TournamentReport(
                POLYNOMIAL, degree, None,
                f"all blocks acyclic over a finite tournament index; "
                f"{decomp.infinite_count} infinite coarsest blocks",
            )
        # non-acyclic infinite blocks cannot occur among tournament-valued
        # kinds, so reaching here means a block failed the structural shape
        raise ValueError("tournament lexsum blocks must be acyclic or singletons")
    if isinstance(source, MultichainPresentation):
        probe = _multichain_window(source, 2)
        if not is_tournament(probe):
            raise ValueError("presentation does not present a tournament")
        small = acyclic_components(probe)
        large = acyclic_components(_multichain_window(source, 3))
        if len(large) > len(small):
            return TournamentReport(
                EXPONENTIAL, None, None,
                f"acyclic components grow with the window "
                f"({len(small)} at 2 slices, {len(large)} at 3): infinitely many "
                "components, so the profile is at least exponential "
                "(window evidence)",
            )
        spanning = _spanning_components(source, 3, large)
        degree = spanning - 1
        return TournamentReport(
            POLYNOMIAL, degree, None,
            f"acyclic components stable at {len(large)} across windows, "
            f"{spanning} of them absorb the chain direction (window evidence)",
        )
    raise TypeError(f"cannot classify {source!r}")


def _spanning_components(pres: MultichainPresentation, slices: int, components) -> int:
    """Components holding slice elements from several positions grow with the
    chain, i.e. are infinite in the presented tournament."""
    f = pres.f_size
    spanning = 0
    for component in components:
        positions = {(v - f) // pres.v_size for v in component if v >= f}
        if len(positions) >= 2:
            spanning += 1
    return spanning
