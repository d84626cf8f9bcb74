"""Monomorphic parts, the coarsest decomposition, and leading monomials.

A subset B is a monomorphic part when restriction types depend only on how
many elements are taken inside B.  One pair relation carries everything:
x ~ y when R|F+x and R|F+y are isomorphic for every F avoiding x and y.  B
is a part exactly when x ~ y for every pair of B: swapping b for b' in a
subset S is the pair test of {b, b'} at F = S-b, any two admissible subsets
are connected by such swaps, and isomorphism is transitive (the full
pairwise definition is kept as a test oracle in ``tests/oracles.py``).

Many passing pairs need no restriction at all.  x and y are swap twins when
the map sending x to y and fixing every other vertex carries R|(V-y) onto
R|(V-x), i.e. per symbol {t[x->y] : t in R, y not in t} equals
{t in R : x not in t}.  For any F avoiding x and y that map restricts to an
isomorphism R|F+x -> R|F+y, so twins satisfy x ~ y; the rule speaks of
whole tuples, so loops, unary symbols, repeated entries and any arity need
no special case.  Only tuples through x or y can differ between the two
sides, so twins are found from per-vertex incidence sets, and a union-find
over twin pairs gives classes that each lie inside one ~-class.  Since
x ~ root(x), the pair test of x and y is the walk of their class roots,
run once per root pair.  A walk visits the sets F smallest first, so a
failing pair usually stops early, and restriction codes come from a lazy
memo keyed by vertex bitmask.  Unions of largest parts give the coarsest
decomposition; every block-wise monomorphic partition refines it.

For presented structures, blocks come from the presentation slots.  The
grouping is recovered from the coarsest decomposition of a window
truncation, which also merges finite slots that fuse in the presented
structure (e.g. two singletons completing each other across a cycle); the
infinite slots are exactly the blocks the index structure promises when it
has no 2-element autonomous subset.

Each exponent vector (elements taken per block) is a monomial; the leading
monomial of a type is the largest vector realizing it under shape-first
degree-reverse-lexicographic order with lexicographic tie break.  Leading
monomials must be closed under multiplying by a chain-support layer unless
the layer saturates a finite block; ``verify_addlayer`` checks that closure
on a window and reports counterexamples instead of asserting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .presentations import (
    LexSumPresentation,
    OMEGA,
    _sweep_of,
    compositions_of_size,
    realize_composition,
)
from .structures import RelStruct, canonical_code, is_autonomous, restrict


@dataclass(frozen=True)
class Decomposition:
    """Blocks of a monomorphic decomposition with declared sizes.

    ``members`` are vertex ids for finite structures and presentation slot
    ids for presented ones; ``size`` is an integer or OMEGA.
    """

    blocks: tuple  # tuple[(members: tuple, size: int | OMEGA), ...]

    def __post_init__(self):
        seen = set()
        for members, _ in self.blocks:
            for x in members:
                if x in seen:
                    raise ValueError(f"blocks overlap at {x!r}")
                seen.add(x)

    @property
    def infinite_count(self) -> int:
        return sum(1 for _, size in self.blocks if size is OMEGA)

    @property
    def finite_total(self) -> int:
        return sum(size for _, size in self.blocks if size is not OMEGA)


class _SubsetCodes:
    """Lazy per-structure memo of restriction codes, keyed by vertex bitmask,
    and of the swap-twin classes, found on the first pair test."""

    def __init__(self, struct: RelStruct):
        self.struct = struct
        self.codes = {}
        self.pairs = {}  # (x, y) with x < y -> x ~ y
        self.root = None  # vertex -> least vertex of its swap-twin class

    def code(self, mask: int) -> bytes:
        got = self.codes.get(mask)
        if got is None:
            vertices = [v for v in range(self.struct.domain_size) if mask >> v & 1]
            got = canonical_code(restrict(self.struct, vertices))
            self.codes[mask] = got
        return got

    def equivalent(self, x: int, y: int) -> bool:
        """x ~ y: R|F+x and R|F+y are isomorphic for every F avoiding x, y.
        Swap twins pass with no walk; otherwise the class roots are walked,
        each unordered root pair once (x ~ root(x), and ~ is transitive)."""
        if self.root is None:
            self.root = self._twin_roots()
        x, y = self.root[x], self.root[y]
        if x == y:
            return True
        pair = (x, y) if x < y else (y, x)
        got = self.pairs.get(pair)
        if got is None:
            got = self.pairs[pair] = self._walk(*pair)
        return got

    def _twin_roots(self) -> list:
        """Union-find over swap twins (see the module docstring): per symbol
        the tuples through x but not y, x marked, must equal those through y
        but not x, y marked.  Tuples through both count for each, so twins
        have equal degrees, which is checked first."""
        m = self.struct.domain_size
        marked = []  # per symbol: vertex -> {t with v replaced by -1 : v in t}
        for rel in self.struct.relations:
            through = [set() for _ in range(m)]
            for t in rel:
                for v in set(t):
                    through[v].add(tuple(-1 if u == v else u for u in t))
            marked.append(through)
        root = list(range(m))

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for x in range(m):
            for y in range(x + 1, m):
                rx, ry = find(x), find(y)
                if rx != ry and all(
                    len(through[x]) == len(through[y])
                    and {t for t in through[x] if y not in t}
                    == {t for t in through[y] if x not in t}
                    for through in marked
                ):
                    root[max(rx, ry)] = min(rx, ry)
        return [find(v) for v in range(m)]

    def _walk(self, x: int, y: int) -> bool:
        bx, by = 1 << x, 1 << y
        others = [1 << v for v in range(self.struct.domain_size) if v != x and v != y]
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                f = sum(combo)
                if self.code(f | bx) != self.code(f | by):
                    return False
        return True


def is_monomorphic_part(struct: RelStruct, block, _cache: _SubsetCodes | None = None) -> bool:
    """Pair test: x ~ y for every two elements x, y of the block."""
    block = sorted(set(block))
    if block and not (0 <= block[0] and block[-1] < struct.domain_size):
        raise IndexError(f"block {block} not within domain of size {struct.domain_size}")
    cache = _cache or _SubsetCodes(struct)
    return all(cache.equivalent(x, y) for x, y in itertools.combinations(block, 2))


def largest_monomorphic_part(struct: RelStruct, x: int, _cache=None) -> frozenset:
    """{x} plus every y with x ~ y.

    Subsets of monomorphic parts are parts, so y lies in some part
    containing x exactly when the pair {x, y} is one; the union of all parts
    through x is therefore recovered from pair tests alone.
    """
    if not 0 <= x < struct.domain_size:
        raise IndexError(f"vertex {x} out of range")
    cache = _cache or _SubsetCodes(struct)
    return frozenset(y for y in struct.domain if y == x or cache.equivalent(x, y))


def canonical_decomposition(struct: RelStruct) -> Decomposition:
    """The coarsest monomorphic decomposition of a finite structure."""
    cache = _SubsetCodes(struct)
    parts = []
    seen = set()
    for x in struct.domain:
        if x in seen:
            continue
        part = largest_monomorphic_part(struct, x, cache)
        parts.append(part)
        seen |= part
    cover = set().union(*parts) if parts else set()
    if cover != set(struct.domain) or sum(len(p) for p in parts) != struct.domain_size:
        raise AssertionError(
            "largest monomorphic parts failed to partition the domain; "
            "this contradicts their defining property and indicates a bug"
        )
    for part in parts:
        if not is_monomorphic_part(struct, part, cache):
            raise AssertionError(f"computed part {sorted(part)} fails the pair test")
    blocks = tuple(
        (tuple(sorted(p)), len(p)) for p in sorted(parts, key=min)
    )
    return Decomposition(blocks)


# ---------------------------------------------------------------------------
# Presented structures
# ---------------------------------------------------------------------------


def _truncation(pres: LexSumPresentation, window: int):
    counts = tuple(
        window if size is OMEGA else size for (_, size) in pres.blocks
    )
    struct = realize_composition(pres, counts)
    slot_of = []
    for slot, c in enumerate(counts):
        slot_of.extend([slot] * c)
    return struct, counts, slot_of


def presentation_decomposition(pres: LexSumPresentation, window: int = 4) -> Decomposition:
    """Blocks of the presented structure, one per index vertex after merging.

    Mergers are decided on a window truncation via the coarsest finite
    decomposition: index vertices whose truncated copies land in one
    coarsest part fuse into one block (this covers both the 2-element
    autonomous index subsets the structure theorem warns about and finite
    slots fusing with each other).  A coarsest part must never split a
    slot's copies; that would contradict slot monomorphy.  The window must
    be at least 2: with one copy per omega slot no part can show two copies
    of a slot.
    """
    if window < 2:
        raise ValueError(
            f"truncation window {window} is below 2: each omega slot needs "
            "two copies for its block to be seen"
        )
    index_has_pair = any(
        is_autonomous(pres.index, {i, j})
        for i, j in itertools.combinations(range(pres.index.domain_size), 2)
    )
    struct, counts, slot_of = _truncation(pres, window)
    fine = canonical_decomposition(struct)
    slot_groups = []
    for members, _ in fine.blocks:
        slots = {slot_of[v] for v in members}
        for slot in slots:
            copies = [v for v, s in enumerate(slot_of) if s == slot]
            if not set(copies) <= set(members):
                raise AssertionError(
                    f"coarsest part splits slot {slot}; truncation window {window} "
                    "is inconsistent with slot monomorphy"
                )
        slot_groups.append(tuple(sorted(slots)))
    if not index_has_pair:
        for group in slot_groups:
            infinite = [s for s in group if pres.blocks[s][1] is OMEGA]
            if len(infinite) > 1:
                raise AssertionError(
                    "two infinite slots merged although the index has no "
                    "2-element autonomous subset; contradicts the lex-sum "
                    "structure theorem"
                )
    blocks = []
    for group in sorted(slot_groups, key=min):
        if any(pres.blocks[s][1] is OMEGA for s in group):
            size = OMEGA
        else:
            size = sum(pres.blocks[s][1] for s in group)
        blocks.append((group, size))
    return Decomposition(tuple(blocks))


def predict_growth_degree(decomp: Decomposition) -> int:
    """k-1 for k infinite blocks of a coarsest decomposition."""
    k = decomp.infinite_count
    if k == 0:
        raise ValueError("finite structure: no growth degree")
    return k - 1


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """An exponent vector over the blocks of a decomposition."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def shape(self) -> tuple[int, ...]:
        return tuple(sorted(self.exponents, reverse=True))

    def chain_support(self):
        """The unique factorization into nested support sets.

        Returns pairs (support, multiplicity) with strictly increasing
        supports; multiplying x_support back multiplicity times
        reconstructs the exponents.
        """
        levels = sorted({e for e in self.exponents if e}, reverse=True)
        out = []
        for i, level in enumerate(levels):
            support = tuple(j for j, e in enumerate(self.exponents) if e >= level)
            mult = level - (levels[i + 1] if i + 1 < len(levels) else 0)
            out.append((support, mult))
        return out

    def times_support(self, support) -> "Monomial":
        exps = list(self.exponents)
        for i in support:
            exps[i] += 1
        return Monomial(tuple(exps))


def _degrevlex_shape_greater(a: Monomial, b: Monomial) -> bool:
    sa, sb = a.shape(), b.shape()
    if sa == sb:
        return False
    diff = [x - y for x, y in zip(sa, sb)]
    last = max(i for i, d in enumerate(diff) if d)
    return diff[last] < 0


def monomial_greater(a: Monomial, b: Monomial) -> bool:
    """Shape-first degree-reverse-lexicographic order, exponent lex tie break."""
    if a.degree != b.degree:
        raise ValueError("monomial order compares equal degrees only")
    if a.shape() != b.shape():
        return _degrevlex_shape_greater(a, b)
    return a.exponents > b.exponents


def _composition_of(pres: LexSumPresentation, decomp: Decomposition, exponents) -> tuple:
    """The composition that fills the slots of each block in order."""
    counts = [0] * len(pres.blocks)
    for (slots, _), e in zip(decomp.blocks, exponents):
        remaining = e
        for s in slots:
            cap = pres.blocks[s][1]
            take = remaining if cap is OMEGA else min(cap, remaining)
            counts[s] = take
            remaining -= take
        if remaining:
            raise ValueError(f"exponent {e} exceeds block capacity {slots}")
    return tuple(counts)


def leading_monomials(pres: LexSumPresentation, decomp: Decomposition, degree: int) -> dict:
    """Map type code -> its leading monomial, typed by its composition's code."""
    code_of = dict(zip(compositions_of_size(pres, degree), _sweep_of(pres).codes(degree)))
    best = {}
    for vec in compositions_of_size(decomp, degree):
        mono = Monomial(vec)
        code = code_of[_composition_of(pres, decomp, vec)]
        cur = best.get(code)
        if cur is None or monomial_greater(mono, cur):
            best[code] = mono
    return best


def leading_monomial(pres: LexSumPresentation, decomp: Decomposition, type_code: bytes,
                     degree: int) -> Monomial:
    table = leading_monomials(pres, decomp, degree)
    if type_code not in table:
        raise KeyError(f"type not realized at degree {degree}")
    return table[type_code]


@dataclass(frozen=True)
class AddLayerReport:
    checked: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_addlayer(pres: LexSumPresentation, decomp: Decomposition, max_degree: int) -> AddLayerReport:
    """For every leading monomial of degree < max_degree and every chain
    support layer: a finite block in the layer is saturated, or multiplying
    by the layer gives a leading monomial again."""
    sizes = [size for (_, size) in decomp.blocks]
    lm_by_degree = {
        d: set(leading_monomials(pres, decomp, d).values())
        for d in range(max_degree + len(decomp.blocks) + 1)
    }
    checked = 0
    bad = []
    for d in range(max_degree):
        for mono in lm_by_degree[d]:
            for support, _ in mono.chain_support():
                checked += 1
                saturated = any(
                    sizes[i] is not OMEGA and mono.exponents[i] == sizes[i]
                    for i in support
                )
                if saturated:
                    continue
                lifted = mono.times_support(support)
                if lifted not in lm_by_degree[lifted.degree]:
                    bad.append((mono, support))
    return AddLayerReport(checked, tuple(bad))
