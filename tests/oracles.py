"""Brute-force definitions that the tests compare relprof's fast paths against.

Each function recomputes one of the library's objects straight from its
definition, by exhaustive search, so it is only usable on small inputs:

* ``brute_force_form`` - the canonical form of ``relprof.canon``, as the
  minimum over all m! orderings;
* ``are_isomorphic_brute_force`` - isomorphism by trying every bijection;
* ``are_label_isomorphic_brute_force`` - the same, keeping a label per
  element, as ``structures.marked_code`` compares structures;
* ``realize_oracle`` - a multichain word's realization, pair by pair from
  the rule tables;
* ``brute_profile_presented`` - a presentation's profile, by realizing every
  word (by ``realize_oracle``) or composition and deduplicating by pairwise
  isomorphism;
* ``is_monomorphic_part_oracle`` - the full pairwise definition of a
  monomorphic part, without the pair test;
* ``rank_mod_p_oracle`` - the rank over GF(p) by textbook Gauss-Jordan
  elimination on Python ints, reducing every entry at every step;
* ``restriction_codes`` - the canonical code of every n-subset's
  restriction, each restricted and coded on its own;
* ``split_counter_rows`` - the age algebra's split counts as one Counter of
  (part position, complement position) per type, from ``restriction_codes``.
"""

from __future__ import annotations

import itertools
from collections import Counter

from relprof.canon import refined_colors, staged_relations
from relprof.presentations import (
    MultichainPresentation,
    Word,
    compositions_of_size,
    realize_composition,
    words_of_size,
)
from relprof.structures import RelStruct, canonical_code, restrict

PERMUTATION_SWEEP_LIMIT = 8


def ordered_form(arities, m, relations, colors, labeling=None):
    if labeling is None:
        color_seq = tuple(colors)
    else:
        inverse = [0] * m
        for v, pos in enumerate(labeling):
            inverse[pos] = v
        color_seq = tuple(colors[inverse[p]] for p in range(m))
    return (tuple(arities), m, color_seq, staged_relations(m, relations, labeling))


def brute_force_form(arities, m, relations):
    """Minimal (colors, staged) serialization over all m! orderings."""
    if m > PERMUTATION_SWEEP_LIMIT:
        raise ValueError(f"permutation sweep limited to m <= {PERMUTATION_SWEEP_LIMIT}, got {m}")
    colors = refined_colors(m, relations)
    best = None
    for perm in itertools.permutations(range(m)):
        form = ordered_form(arities, m, relations, colors, perm)
        if best is None or form < best:
            best = form
    return best if best is not None else ordered_form(arities, 0, relations, [])


def are_isomorphic_brute_force(left: RelStruct, right: RelStruct) -> bool:
    """Independent oracle: exhaust all bijections.  Small domains only."""
    if left.signature != right.signature:
        raise ValueError("signature mismatch")
    m = left.domain_size
    if m != right.domain_size:
        return False
    for perm in itertools.permutations(range(m)):
        if all(
            frozenset(tuple(perm[x] for x in t) for t in lrel) == rrel
            for lrel, rrel in zip(left.relations, right.relations)
        ):
            return True
    return False


def are_label_isomorphic_brute_force(left: RelStruct, left_labels,
                                     right: RelStruct, right_labels) -> bool:
    """Independent oracle: some bijection maps left's relations onto right's
    and each element to one with the same label (None included)."""
    m = left.domain_size
    if left.signature != right.signature or m != right.domain_size:
        return False
    for perm in itertools.permutations(range(m)):
        if all(left_labels[v] == right_labels[perm[v]] for v in range(m)) and all(
            frozenset(tuple(perm[x] for x in t) for t in lrel) == rrel
            for lrel, rrel in zip(left.relations, right.relations)
        ):
            return True
    return False


def realize_oracle(pres: MultichainPresentation, word: Word) -> RelStruct:
    """The word's restriction, as ``presentations.realize`` orders it: the F
    part, then each letter in slice order.  Every pair of elements is looked
    up in the rule tables: '<', '=' or '>' by how the positions compare, the
    fv and vf rules between F and a slice, the finite part inside F."""
    f_elems = sorted(word.f_subset)
    f_pos = {a: i for i, a in enumerate(f_elems)}
    slice_elems = [(x, i) for i, letter in enumerate(word.letters) for x in sorted(letter)]
    offset = len(f_elems)
    relations = []
    for sym, arity in enumerate(pres.signature.arities):
        if arity == 1:
            rel = {(f_pos[a],) for (a,) in pres.finite_part.relations[sym] if a in f_pos}
            slice_rule = pres.unary_slices[sym]
            rel |= {(offset + k,) for k, (x, _) in enumerate(slice_elems) if x in slice_rule}
        else:
            fp_rel = pres.finite_part.relations[sym]
            vv, fv, vf = pres.vv_true[sym], pres.fv_true[sym], pres.vf_true[sym]
            rel = {(f_pos[a], f_pos[b]) for (a, b) in fp_rel if a in f_pos and b in f_pos}
            for fi, a in enumerate(f_elems):
                for k, (x, _) in enumerate(slice_elems):
                    if (a, x) in fv:
                        rel.add((fi, offset + k))
                    if (x, a) in vf:
                        rel.add((offset + k, fi))
            for k, (x, i) in enumerate(slice_elems):
                for l, (y, j) in enumerate(slice_elems):
                    cmp = "=" if i == j else ("<" if i < j else ">")
                    if (x, y, cmp) in vv:
                        rel.add((offset + k, offset + l))
        relations.append(frozenset(rel))
    return RelStruct(pres.signature, offset + len(slice_elems), tuple(relations))


def brute_profile_presented(pres, n: int) -> int:
    """Oracle path: realize every word, deduplicate by pairwise isomorphism."""
    reps = []
    if isinstance(pres, MultichainPresentation):
        realizations = [realize_oracle(pres, w) for w in words_of_size(pres, n)]
    else:
        realizations = [
            realize_composition(pres, c) for c in compositions_of_size(pres, n)
        ]
    for struct in realizations:
        if not any(are_isomorphic_brute_force(struct, r) for r in reps):
            reps.append(struct)
    return len(reps)


def is_monomorphic_part_oracle(struct: RelStruct, block) -> bool:
    """Full definition, no swap shortcut: all pairs A, A' with A-B = A'-B."""
    block = frozenset(block)
    m = struct.domain_size
    outside = [v for v in range(m) if v not in block]
    inside = sorted(block)
    for out_r in range(len(outside) + 1):
        for out_choice in itertools.combinations(outside, out_r):
            for in_r in range(1, len(inside) + 1):
                codes = {
                    canonical_code(restrict(struct, set(out_choice) | set(in_choice)))
                    for in_choice in itertools.combinations(inside, in_r)
                }
                if len(codes) > 1:
                    return False
    return True


def rank_mod_p_oracle(matrix, p: int) -> int:
    """Rank over GF(p) of a matrix of Python ints, p prime, any entry size."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def restriction_codes(struct: RelStruct, n: int) -> dict:
    """Vertex bitmask -> canonical code of the restriction, for every
    n-subset in lexicographic order."""
    return {sum(1 << v for v in subset): canonical_code(restrict(struct, subset))
            for subset in itertools.combinations(range(struct.domain_size), n)}


def split_counter_rows(basis, degree: int, part: int) -> list:
    """Per type of the degree: Counter of (part position, complement
    position) over the part-subsets of its representative."""
    full = (1 << degree) - 1
    rows = []
    for rep in basis.levels[degree].values():
        left = restriction_codes(rep, part)
        right = restriction_codes(rep, degree - part)
        rows.append(Counter((basis.index_of(code)[1], basis.index_of(right[full ^ mask])[1])
                            for mask, code in left.items()))
    return rows
