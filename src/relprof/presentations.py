"""Finite presentations of infinite relational structures and their ages.

Two presentation forms are supported, both restricted to unary/binary
signatures:

* multichain: the domain is F + V x omega for a finite part F and a finite
  slice set V.  Relations between slice elements depend only on the V
  coordinates and on how the positions compare (<, =, >); relations touching
  F depend only on the F element and the V coordinate.  Finite restrictions
  are encoded by words: an F subset plus a sequence of non-empty subsets of
  V, one per occupied position.

* lexicographic sum: a finite index digraph with one block per vertex, each
  block one of the six monomorphic directed-graph kinds (acyclic tournament,
  clique, independent set, chain, reflexive clique, antichain) of finite or
  infinite size.  Finite restrictions are encoded by size compositions.

Ages are enumerated exactly, each level by the presentation's sweep
(``_sweep_of``), which realizes and codes its candidates; ``enumerate_age``
keeps the first candidate of each code.  A lexicographic sum's candidates
are the compositions of total size n, each realized once and each distinct
realization coded once.  A multichain's prefix sweep (``_PrefixSweep``)
keeps one prefix per type of its realization with each element marked by
its interface to later positions, and extends the prefixes kept at smaller
levels by one letter; while the words of size n are no more than its
candidates, the words are realized instead, one letter at a time by the
same letter table.  Both give the same codes; which realization represents
a type is not fixed.  The age algebra reads each sweep's codes and splits.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

from .structures import (
    RelStruct,
    Signature,
    canonical_code,
    digraph,
    make_struct,
    marked_code,
    restrict,
)

COMPARATORS = ("<", "=", ">")

# Block kinds for lexicographic sums
ACYCLIC = "acyclic"
CLIQUE = "clique"
INDEPENDENT = "independent"
CHAIN = "chain"
REFLEXIVE_CLIQUE = "reflexive-clique"
ANTICHAIN = "antichain"
BLOCK_KINDS = (ACYCLIC, CLIQUE, INDEPENDENT, CHAIN, REFLEXIVE_CLIQUE, ANTICHAIN)

#: Block-size marker for an infinite block.
OMEGA = None


@dataclass(frozen=True)
class Word:
    """A finite restriction pattern: an F subset plus non-empty V letters."""

    f_subset: tuple[int, ...]
    letters: tuple[frozenset[int], ...]

    def __post_init__(self):
        if any(not letter for letter in self.letters):
            raise ValueError("letters must be non-empty")

    @property
    def total_size(self) -> int:
        return len(self.f_subset) + sum(len(s) for s in self.letters)


@dataclass(frozen=True)
class MultichainPresentation:
    """Rule tables presenting a structure on F + V x omega.

    ``vv_true[s]`` holds triples (x, y, cmp) for which the ordered pair from
    slice x at position i to slice y at position j is in relation s whenever
    cmp(i, j); the diagonal (x, x, '=') governs loops.  ``fv_true[s]`` /
    ``vf_true[s]`` hold the position-independent pairs between F elements and
    slices.  Relations inside F live in ``finite_part``.
    """

    signature: Signature
    finite_part: RelStruct
    v_size: int
    unary_slices: tuple
    vv_true: tuple
    fv_true: tuple
    vf_true: tuple
    name: str = ""

    def __post_init__(self):
        if self.v_size < 1:
            raise ValueError("at least one slice required")
        if self.finite_part.signature != self.signature:
            raise ValueError("finite part must share the signature")
        if any(a not in (1, 2) for a in self.signature.arities):
            raise ValueError("presentations support arities 1 and 2 only")
        slices, f_elts = range(self.v_size), range(self.f_size)
        for sym, arity in enumerate(self.signature.arities):
            if arity == 1:
                if self.unary_slices[sym] is None:
                    raise ValueError(f"unary symbol {sym} needs a slice rule")
                for x in self.unary_slices[sym]:
                    if x not in slices:
                        raise ValueError(f"bad unary slice {x} for symbol {sym}")
            else:
                if self.vv_true[sym] is None:
                    raise ValueError(f"binary symbol {sym} needs comparator rules")
                for x, y, cmp in self.vv_true[sym]:
                    if cmp not in COMPARATORS or x not in slices or y not in slices:
                        raise ValueError(f"bad rule ({x},{y},{cmp}) for symbol {sym}")
                for a, x in self.fv_true[sym] or ():
                    if a not in f_elts or x not in slices:
                        raise ValueError(f"bad fv rule ({a},{x}) for symbol {sym}")
                for x, a in self.vf_true[sym] or ():
                    if x not in slices or a not in f_elts:
                        raise ValueError(f"bad vf rule ({x},{a}) for symbol {sym}")

    @property
    def f_size(self) -> int:
        return self.finite_part.domain_size


def multichain(arities, f_struct, v_size, unary_slices=None, vv=None, fv=None, vf=None, name=""):
    """Convenience constructor with per-symbol dicts of truthy rules; a rule
    key must be a symbol of the rule's arity (1 for unary_slices, else 2)."""
    arities = tuple(arities)
    n = len(arities)
    unary_slices = dict(unary_slices or {})
    vv = dict(vv or {})
    fv = dict(fv or {})
    vf = dict(vf or {})
    for rule, rules, arity in (("unary_slices", unary_slices, 1), ("vv", vv, 2),
                               ("fv", fv, 2), ("vf", vf, 2)):
        for s in rules:
            if s not in range(n) or arities[s] != arity:
                raise ValueError(f"{rule} rule for {s!r}: not a symbol of arity {arity}")
    return MultichainPresentation(
        Signature(arities),
        f_struct,
        v_size,
        tuple(frozenset(unary_slices.get(s, ())) if arities[s] == 1 else None for s in range(n)),
        tuple(frozenset(map(tuple, vv.get(s, ()))) if arities[s] == 2 else None for s in range(n)),
        tuple(frozenset(map(tuple, fv.get(s, ()))) if arities[s] == 2 else None for s in range(n)),
        tuple(frozenset(map(tuple, vf.get(s, ()))) if arities[s] == 2 else None for s in range(n)),
        name,
    )


def empty_finite_part(arities) -> RelStruct:
    return make_struct(arities, 0, [set() for _ in arities])


@dataclass(frozen=True)
class LexSumPresentation:
    """A finite index digraph with one block (kind, size) per index vertex."""

    index: RelStruct
    blocks: tuple  # tuple[(kind, size | OMEGA), ...]
    name: str = ""

    def __post_init__(self):
        if self.index.signature.arities != (2,):
            raise ValueError("index must carry a single binary relation")
        if self.index.domain_size != len(self.blocks):
            raise ValueError("one block per index vertex")
        if not self.blocks:
            raise ValueError("at least one block")
        for kind, size in self.blocks:
            if kind not in BLOCK_KINDS:
                raise ValueError(f"unknown block kind {kind!r}")
            if size is not OMEGA and (not isinstance(size, int) or size < 1):
                raise ValueError(f"block size must be omega or a positive integer, got {size!r}")


def block_relation(kind: str, n: int) -> set:
    arcs = set()
    if kind == ACYCLIC:
        arcs = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == CLIQUE:
        arcs = {(i, j) for i in range(n) for j in range(n) if i != j}
    elif kind == INDEPENDENT:
        arcs = set()
    elif kind == CHAIN:
        arcs = {(i, j) for i in range(n) for j in range(i, n)}
    elif kind == REFLEXIVE_CLIQUE:
        arcs = {(i, j) for i in range(n) for j in range(n)}
    elif kind == ANTICHAIN:
        arcs = {(i, i) for i in range(n)}
    return arcs


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def realize(pres: MultichainPresentation, word: Word) -> RelStruct:
    """The finite restriction named by a word.

    Elements are the chosen F part followed by the letters in position
    order, each letter listed in slice order.  Ordered pairs across
    positions i < j use the '<' rules, pairs inside one position the '='
    rules (the diagonal giving loops), and pairs with i > j the '>' rules.
    """
    if any(not (0 <= a < pres.f_size) for a in word.f_subset):
        raise ValueError(f"F subset {word.f_subset} out of range")
    if len(set(word.f_subset)) != len(word.f_subset):
        raise ValueError("repeated F elements")
    for letter in word.letters:
        if any(not (0 <= x < pres.v_size) for x in letter):
            raise ValueError(f"letter {set(letter)} out of range")
    return RelStruct(pres.signature, word.total_size, _sweep_of(pres).realized(word))


def realize_composition(pres: LexSumPresentation, counts) -> RelStruct:
    """The restriction taking counts[i] elements inside block i."""
    counts = tuple(counts)
    if len(counts) != len(pres.blocks):
        raise ValueError("one count per block")
    offsets = []
    total = 0
    for c, (kind, size) in zip(counts, pres.blocks):
        if c < 0 or (size is not OMEGA and c > size):
            raise ValueError(f"count {c} exceeds block size {size}")
        offsets.append(total)
        total += c
    arcs = set()
    index_arcs = pres.index.relations[0]
    for bi, (kind, _) in enumerate(pres.blocks):
        base = offsets[bi]
        arcs |= {(base + u, base + v) for (u, v) in block_relation(kind, counts[bi])}
    for bi in range(len(counts)):
        for bj in range(len(counts)):
            if bi != bj and (bi, bj) in index_arcs:
                arcs |= {
                    (offsets[bi] + u, offsets[bj] + v)
                    for u in range(counts[bi])
                    for v in range(counts[bj])
                }
    return RelStruct(Signature((2,)), total, (frozenset(arcs),))  # trusted: in range


# ---------------------------------------------------------------------------
# Word and composition enumeration
# ---------------------------------------------------------------------------


def letter_sequences(elements, total: int):
    """All sequences of non-empty subsets of ``elements`` whose sizes sum to ``total``.

    Letters are frozensets ordered by bitmask over the sorted elements;
    sequences come by length, then by their letters in that order.
    """
    elems = sorted(elements)
    letters = [
        frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        for mask in range(1, 1 << len(elems))
    ]

    def rec(remaining, slots):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for letter in letters:
            size = len(letter)
            if size <= remaining - (slots - 1):
                for rest in rec(remaining - size, slots - 1):
                    yield (letter,) + rest

    for length in range(total + 1):
        yield from rec(total, length)


def words_of_size(pres: MultichainPresentation, n: int):
    """All words of total size n: F subsets in bitmask-rank order, then letters."""
    f = pres.f_size
    for mask in range(1 << f):
        subset = tuple(a for a in range(f) if mask >> a & 1)
        if len(subset) > n:
            continue
        for letters in letter_sequences(range(pres.v_size), n - len(subset)):
            yield Word(subset, letters)


def compositions_of_size(pres, n: int):
    """Size vectors of total n, one entry per block, in lexicographic order.

    ``pres`` is any object whose ``.blocks`` are (label, size | OMEGA) pairs:
    a ``LexSumPresentation`` or a monomorphic ``Decomposition``.
    """
    caps = [n if size is OMEGA else min(size, n) for (_, size) in pres.blocks]

    def rec(i, remaining):
        if i == len(caps):
            if remaining == 0:
                yield ()
            return
        tail_cap = sum(caps[i + 1:])
        for c in range(max(0, remaining - tail_cap), min(caps[i], remaining) + 1):
            for rest in rec(i + 1, remaining - c):
                yield (c,) + rest

    yield from rec(0, n)


@functools.lru_cache(maxsize=4096)
def enumerate_age(pres, n: int):
    """Isomorphism types of the n-element restrictions, as (code -> representative).

    The mapping is ordered by canonical code.  A representative is some
    realization of its type (a word's realization for a multichain, a
    composition's for a lexicographic sum); which one is not part of the
    contract, only its isomorphism type is.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(pres, MultichainPresentation):
        signature = pres.signature
    elif isinstance(pres, LexSumPresentation):
        signature = pres.index.signature
    else:
        raise TypeError(f"not a presentation: {pres!r}")
    sweep = _sweep_of(pres)
    level = sweep.level(n)
    if level is None:  # a multichain's words: each distinct realization coded once
        found = dict.fromkeys(sweep.realized(w) for w in words_of_size(pres, n))
        coded = ((rels, canonical_code(RelStruct(signature, n, rels))) for rels in found)
    else:
        coded = zip((rels for rels, _ in level), sweep.codes(n))
    first = {}
    for rels, code in coded:
        first.setdefault(code, rels)
    return {code: RelStruct(signature, n, first[code]) for code in sorted(first)}


@dataclass
class _CompositionSweep:
    """A lexicographic sum's ``level``, ``codes`` and ``split``; a candidate
    of level n is a composition, in ``compositions_of_size`` order.  Blocks
    are monomorphic, so a type depends only on its composition c, and c has
    prod C(c_i, b_i) subsets of each sub-composition b.  Each level and its
    codes are published whole, so readers need no lock."""

    pres: LexSumPresentation
    levels: dict = field(default_factory=dict)  # level -> (relations, composition) each
    plain: dict = field(default_factory=dict)  # level -> each composition's code

    def level(self, n: int) -> list:
        """Level n's compositions, each with the relations of its realization."""
        if n not in self.levels:
            self.levels[n] = [(realize_composition(self.pres, c).relations, c)
                              for c in compositions_of_size(self.pres, n)]
        return self.levels[n]

    def codes(self, n: int) -> list:
        """Level n's code of each composition; equal realizations are coded once."""
        if n not in self.plain:
            sig, level = self.pres.index.signature, self.level(n)
            coded = {rels: canonical_code(RelStruct(sig, n, rels))
                     for rels in dict.fromkeys(rels for rels, _ in level)}
            self.plain[n] = [coded[rels] for rels, _ in level]
        return self.plain[n]

    def split(self, top: int, part: int) -> tuple:
        """As four lists, the candidates of c, b and c - b and the count, for
        each type's first composition c and every b <= c with |b| = part."""
        wholes = [c for _, c in self.level(top)]
        first = {code: c for c, code in reversed(list(enumerate(self.codes(top))))}
        parts = list(enumerate(b for _, b in self.level(part)))
        rests = {b: j for j, (_, b) in enumerate(self.level(top - part))}
        rows, left, right, counts = [], [], [], []
        for c in first.values():
            for i, b in parts:
                j = rests.get(tuple(x - y for x, y in zip(wholes[c], b)))
                if j is not None:  # b <= c
                    rows.append(c)
                    left.append(i)
                    right.append(j)
                    counts.append(math.prod(map(math.comb, wholes[c], b)))
        return rows, left, right, counts


# ---------------------------------------------------------------------------
# Prefix sweep for multichain ages
# ---------------------------------------------------------------------------


class _PrefixSweep:
    """The types of a multichain presentation's restrictions, level by level.

    A *state* is a prefix of a word: an F subset plus letters at positions
    0..p-1, held as its realization (relations in ``realize``'s element
    order) and the interface class of each element.  The interface of a
    placed element is the set of (slice y, symbol, direction) through which
    it relates to any element (y, j) at a later position j; for a slice
    element x it comes from the '<' rules (x, y) and the '>' rules (y, x),
    for an F element from its fv and vf rules.  Extending a state appends
    one letter at a new last position, so every element already placed
    meets the new ones through its interface alone.  Two states whose
    realizations are isomorphic by a map that keeps each element's class
    therefore have isomorphic completions by every suffix, and one of them
    is kept.  Level n is built from the F subsets of size n and the kept
    states of levels n - v..n - 1, extended by letters of the missing size.

    The pass records itself as an automaton: each candidate's first origin
    (a kept state and letter, or an F subset), the candidate each F subset
    and each (kept state, letter) made, and the kept state each candidate
    lands on by ``marked_code``.  It also keeps each candidate's plain code
    (``codes``).  From an F subset, the moves give the kept state of any
    word below the top level, so ``split`` splits each type's word with no
    canon call.  Whoever builds or reads a level holds ``lock``; the same
    steps realize any word (``realized``), with no lock.
    """

    def __init__(self, pres: MultichainPresentation):
        self.pres = pres
        arities = pres.signature.arities
        v, f = pres.v_size, pres.f_size
        slice_faces = [set() for _ in range(v)]
        f_faces = [set() for _ in range(f)]
        for s, arity in enumerate(arities):
            if arity != 2:
                continue
            for x, y, cmp in pres.vv_true[s]:
                if cmp == "<":  # (x, i) -> (y, j) for i < j
                    slice_faces[x].add((y, s, 0))
                elif cmp == ">":  # (x, i) -> (y, j) for i > j
                    slice_faces[y].add((x, s, 1))
            for a, y in pres.fv_true[s] or ():
                f_faces[a].add((y, s, 0))
            for y, a in pres.vf_true[s] or ():
                f_faces[a].add((y, s, 1))
        faces = [frozenset(face) for face in slice_faces + f_faces]
        interfaces = sorted(set(faces), key=sorted)
        class_of = [interfaces.index(face) for face in faces]
        slice_class, self.f_class = class_of[:v], class_of[v:]
        # letters by size, each size in bitmask order, as (bitmask, classes of
        # the new elements, per symbol the tuples among them, per placed class
        # and symbol the new indices it points to and those pointing to it)
        self.letters = [[] for _ in range(v + 1)]
        for mask in range(1, 1 << v):
            xs = [x for x in range(v) if mask >> x & 1]
            inner, cross = [], [[] for _ in interfaces]
            for s, arity in enumerate(arities):
                if arity == 1:
                    inner.append([(k,) for k, x in enumerate(xs) if x in pres.unary_slices[s]])
                    for per_class in cross:
                        per_class.append(((), ()))
                    continue
                vv = pres.vv_true[s]
                inner.append([(k, l) for k, x in enumerate(xs) for l, y in enumerate(xs)
                              if (x, y, "=") in vv])
                for per_class, face in zip(cross, interfaces):
                    per_class.append((
                        tuple(k for k, x in enumerate(xs) if (x, s, 0) in face),
                        tuple(k for k, x in enumerate(xs) if (x, s, 1) in face),
                    ))
            classes = tuple(slice_class[x] for x in xs)
            self.letters[len(xs)].append((mask, classes, inner, cross))
        self.letter_of = {letter[0]: letter for size in self.letters for letter in size}
        self.f_roots = {}  # F bitmask -> its state with no letter
        self.levels = []  # level -> candidates
        # level -> per candidate its first origin: the index s << v | letter of
        # ``moves`` that made it, or ~mask for the F subset of that bitmask
        self.origins = []
        self.roots = {}  # F bitmask -> its candidate at level |F|
        self.states = []  # level -> candidate index of each kept state, one per marked type
        self.landing = []  # level -> per candidate, the kept state of its marked type
        self.moves = []  # level -> per s << v | letter, kept state s's child candidate
        self.plain = []  # level -> per candidate its plain code, None until known
        self.lock = threading.Lock()  # levels are appended in order, one caller at a time

    def level(self, n: int):
        """Level n's candidates, or None when the words of size n are no more
        than they are and should be walked instead."""
        with self.lock:
            if self.word_count(n) <= self.candidate_count(n):
                return None
            return self.candidates(n)

    def word_count(self, n: int) -> int:
        """W(n): the words of total size n, in closed form."""
        v, f = self.pres.v_size, self.pres.f_size
        letters = [1]  # letter sequences of each total size
        for t in range(1, n + 1):
            letters.append(sum(math.comb(v, j) * letters[t - j] for j in range(1, min(v, t) + 1)))
        return sum(math.comb(f, a) * letters[n - a] for a in range(min(f, n) + 1))

    def candidate_count(self, n: int) -> int:
        """E(n): the F roots of size n plus one child per kept state and letter."""
        v, f = self.pres.v_size, self.pres.f_size
        return math.comb(f, n) + sum(
            len(self._states(n - j)) * math.comb(v, j) for j in range(1, min(v, n) + 1)
        )

    def candidates(self, n: int) -> list:
        """Level n's (relations, classes): the F roots of size n, then each kept
        state of level n - j extended by each letter of size j; duplicates
        dropped.  Building a level records its origins and moves."""
        v = self.pres.v_size
        while len(self.levels) <= n:
            level = len(self.levels)
            found, origins = {}, []
            for mask, root in self._roots(level):
                at = self.roots[mask] = found.setdefault(root, len(found))
                if at == len(origins):
                    origins.append(~mask)
            for j in range(1, min(v, level) + 1):
                kept = self._states(level - j)
                below, moves = self.levels[level - j], self.moves[level - j]
                for s, c in enumerate(kept):
                    rels, classes = below[c]
                    for letter in self.letters[j]:
                        at = found.setdefault(self._extend(rels, classes, letter), len(found))
                        moves[s << v | letter[0]] = at
                        if at == len(origins):
                            origins.append(s << v | letter[0])
            self.levels.append(list(found))
            self.origins.append(origins)
            self.plain.append([None] * len(found))
        return self.levels[n]

    def codes(self, n: int) -> list:
        """Level n's plain code of each candidate.  ``_states`` keeps it where
        the marked code is the plain one; any other is computed here, once."""
        with self.lock:
            sig, cands = self.pres.signature, self.candidates(n)
            codes = self.plain[n] = [code or canonical_code(RelStruct(sig, n, rels))
                                     for code, (rels, _) in zip(self.plain[n], cands)]
            return codes

    def split(self, top: int, part: int) -> tuple:
        """The splittings of each type's first word at level top into a part
        of size part, 0 < part < top, and its complement, as four lists: the
        word's candidate, the kept states (as candidates) of levels part and
        top - part that the two sides land on, and the count.  Words are
        taken in the order of their chains of kept states, so the pairs
        (part level, part state, complement level, complement state) ->
        count of a shared prefix are found once.  A step splits the F subset
        or the letter into two sides, either possibly empty, and equal pairs
        merge: equal states have isomorphic completions by every suffix."""
        v, rest = self.pres.v_size, top - part
        # the first candidate of each code is the first word of a type
        first = {code: c for c, code in reversed(list(enumerate(self.codes(top))))}
        with self.lock:
            origins, states, landing, moves, roots = (
                self.origins, self.states, self.landing, self.moves, self.roots)
            chains = []
            for c in first.values():
                chain = [(top, c)]
                origin = origins[top][c]
                while origin >= 0:
                    n = chain[-1][0] - (origin & ((1 << v) - 1)).bit_count()
                    chain.append((n, states[n][origin >> v]))
                    origin = origins[n][chain[-1][1]]
                chains.append(chain[::-1])
            rows, left, right, counts = [], [], [], []
            path, stack = [], []  # the last chain taken, and the pairs of its prefixes
            for chain in sorted(chains):
                shared = 0
                while shared < min(len(path), len(chain)) and path[shared] == chain[shared]:
                    shared += 1
                del path[shared:], stack[shared:]
                for n, c in chain[shared:]:
                    origin = origins[n][c]
                    whole = ~origin if origin < 0 else origin & ((1 << v) - 1)
                    grown = {}
                    for p in range(whole + 1):
                        if p & whole != p:
                            continue
                        q = whole ^ p
                        i, j = p.bit_count(), q.bit_count()
                        if origin < 0:
                            if i <= part and j <= rest:
                                key = (i, landing[i][roots[p]], j, landing[j][roots[q]])
                                grown[key] = grown.get(key, 0) + 1
                            continue
                        for (a, s, b, r), count in stack[-1].items():
                            if a + i <= part and b + j <= rest:
                                key = (a + i, landing[a + i][moves[a][s << v | p]] if i else s,
                                       b + j, landing[b + j][moves[b][r << v | q]] if j else r)
                                grown[key] = grown.get(key, 0) + count
                    stack.append(grown)
                    path.append((n, c))
                for (_, s, _, r), count in stack[-1].items():
                    rows.append(chain[-1][1])
                    left.append(states[part][s])
                    right.append(states[rest][r])
                    counts.append(count)
        return rows, left, right, counts

    def realized(self, word: Word) -> tuple:
        """The relations of ``realize(pres, word)``: the state of the word's
        F subset, extended by each letter in turn."""
        rels, classes = self._root(sum(1 << a for a in word.f_subset))
        for xs in word.letters:
            rels, classes = self._extend(rels, classes, self.letter_of[sum(1 << x for x in xs)])
        return rels

    def _roots(self, n: int):
        """The states with no letter, as (bitmask, state): the F subsets of
        size n in bitmask order."""
        for mask in range(1 << self.pres.f_size):
            if mask.bit_count() == n:
                yield mask, self._root(mask)

    def _root(self, mask: int) -> tuple:
        """The state of the F subset of a bitmask, built once."""
        if mask not in self.f_roots:  # a race builds an equal state twice
            subset = [a for a in range(self.pres.f_size) if mask >> a & 1]
            self.f_roots[mask] = (restrict(self.pres.finite_part, subset).relations,
                                  tuple(self.f_class[a] for a in subset))
        return self.f_roots[mask]

    def _extend(self, rels: tuple, classes: tuple, letter) -> tuple:
        """The child state after one letter at a new last position."""
        _, new_classes, inner, cross = letter
        base = len(classes)
        out = []
        for s, rel in enumerate(rels):
            added = [tuple(base + k for k in t) for t in inner[s]]
            for i, c in enumerate(classes):
                outs, ins = cross[c][s]
                added += [(i, base + k) for k in outs]
                added += [(base + k, i) for k in ins]
            out.append(rel.union(added) if added else rel)
        return tuple(out), classes + new_classes

    def _states(self, n: int) -> list:
        """Level n's kept states, as candidate indices: the first candidate per
        ``marked_code`` of the realization labelled by interface class.  Every
        element has a class, so with one class present the code is the
        candidate's plain code, and it is kept."""
        while len(self.states) <= n:
            level = len(self.states)
            sig = self.pres.signature
            kept, landing, states = {}, [], []
            for c, (rels, classes) in enumerate(self.candidates(level)):
                present, code = marked_code(sig, level, rels, classes)
                if len(present) <= 1:  # one class present: the plain code
                    self.plain[level][c] = code
                s = kept.setdefault((present, code), len(kept))
                if s == len(states):
                    states.append(c)
                landing.append(s)
            self.landing.append(landing)
            self.moves.append([None] * (len(states) << self.pres.v_size))
            self.states.append(states)
        return self.states[n]


@functools.lru_cache(maxsize=64)
def _sweep_of(pres):
    """One sweep per presentation, so levels built for one request serve the
    next; the age algebra reads its ``codes`` and ``split`` alone."""
    if isinstance(pres, MultichainPresentation):
        return _PrefixSweep(pres)
    return _CompositionSweep(pres)


# ---------------------------------------------------------------------------
# Window-bounded kernel probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelProbe:
    status: str  # "in-kernel" | "undetected"
    witness_size: int | None
    note: str = ""


def _without_f_element(pres: MultichainPresentation, drop: int) -> MultichainPresentation:
    keep = [a for a in range(pres.f_size) if a != drop]
    new_index = {a: i for i, a in enumerate(keep)}
    f_struct = restrict(pres.finite_part, keep)
    remap_fv = tuple(
        frozenset((new_index[a], x) for (a, x) in fv if a != drop) if fv is not None else None
        for fv in pres.fv_true
    )
    remap_vf = tuple(
        frozenset((x, new_index[a]) for (x, a) in vf if a != drop) if vf is not None else None
        for vf in pres.vf_true
    )
    return MultichainPresentation(
        pres.signature, f_struct, pres.v_size, pres.unary_slices,
        pres.vv_true, remap_fv, remap_vf, name=f"{pres.name}-minus-f{drop}",
    )


def _without_one_block_element(pres: LexSumPresentation, block: int) -> LexSumPresentation:
    kind, size = pres.blocks[block]
    if size == 1:
        keep = [v for v in range(len(pres.blocks)) if v != block]
        index = restrict(pres.index, keep)
        blocks = tuple(pres.blocks[v] for v in keep)
        if not blocks:
            raise ValueError("cannot probe the only element of a presentation")
        return LexSumPresentation(index, blocks, name=f"{pres.name}-minus-b{block}")
    blocks = list(pres.blocks)
    blocks[block] = (kind, size - 1)
    return LexSumPresentation(pres.index, tuple(blocks), name=f"{pres.name}-minus-b{block}")


def kernel_probe(pres, element_class, window: int) -> KernelProbe:
    """One-sided probe: does deleting one element of the class shrink the age?

    Sound for membership only; a clean window never certifies absence, so the
    negative answer is always reported as ``undetected``.
    """
    kind, which = element_class
    if isinstance(pres, MultichainPresentation):
        if kind == "slice":
            # each slice class has one element per chain position; removing a
            # single element leaves an order-isomorphic chain, so every word
            # stays realizable and the age cannot change
            return KernelProbe("undetected", None, "slice classes repeat along the chain")
        if kind != "F":
            raise ValueError(f"unknown element class {element_class!r}")
        if not 0 <= which < pres.f_size:
            raise IndexError(f"F element {which} out of range 0..{pres.f_size - 1}")
        reduced = _without_f_element(pres, which)
    elif isinstance(pres, LexSumPresentation):
        if kind != "block":
            raise ValueError(f"unknown element class {element_class!r}")
        if not 0 <= which < len(pres.blocks):
            raise IndexError(f"block {which} out of range 0..{len(pres.blocks) - 1}")
        if pres.blocks[which][1] is OMEGA:
            return KernelProbe("undetected", None, "infinite block, deletion absorbed")
        reduced = _without_one_block_element(pres, which)
    else:
        raise TypeError(f"not a presentation: {pres!r}")
    for n in range(window + 1):
        if enumerate_age(pres, n).keys() != enumerate_age(reduced, n).keys():
            return KernelProbe("in-kernel", n)
    return KernelProbe("undetected", None, f"ages agree up to n={window}")


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------


def colored_dense_chain(k: int) -> MultichainPresentation:
    """A dense linear order split into k colors, every color between any two points.

    Signature: one strict order plus k unary colors.  Slice x carries color
    x; position order is primary, the fixed slice order breaks ties inside a
    position.  The profile is exactly k^n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    arities = (2,) + (1,) * k
    vv = {0: set()}
    for x in range(k):
        for y in range(k):
            vv[0].add((x, y, "<"))
            if x < y:
                vv[0].add((x, y, "="))
    unary = {1 + c: {c} for c in range(k)}
    return multichain(arities, empty_finite_part(arities), k, unary, vv, name=f"colored-chain:{k}")


def interval_division_chain(k: int) -> MultichainPresentation:
    """A dense linear order cut into k+1 consecutive intervals by k marks.

    Slices are the intervals: cross-slice pairs are ordered by slice, so a
    restriction's type is just the count of points per interval, giving the
    binomial profile C(n+k, k) exactly.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    arities = (2,) + (1,) * k
    vv = {0: {(x, x, "<") for x in range(k + 1)}}
    for x in range(k + 1):
        for y in range(x + 1, k + 1):
            vv[0] |= {(x, y, cmp) for cmp in COMPARATORS}
    unary = {1 + i: {1 + i} for i in range(k)}
    return multichain(
        arities, empty_finite_part(arities), k + 1, unary, vv,
        name=f"interval-chain:{k}",
    )


def product_of(struct: RelStruct) -> MultichainPresentation:
    """The product of a finite structure with an infinite chain.

    Every slice carries a copy of the structure and relations between
    distinct positions replicate it as well, so order-preserving maps of the
    chain act as local isomorphisms.
    """
    if any(a not in (1, 2) for a in struct.signature.arities):
        raise ValueError("products support arities 1 and 2 only")
    arities = struct.signature.arities
    vv = {}
    unary = {}
    for sym, arity in enumerate(arities):
        if arity == 1:
            unary[sym] = {x for (x,) in struct.relations[sym]}
        else:
            vv[sym] = {
                (x, y, cmp) for (x, y) in struct.relations[sym] for cmp in COMPARATORS
            }
    return multichain(
        arities, empty_finite_part(arities), struct.domain_size, unary, vv,
        name=f"chain-product:{struct.domain_size}",
    )


def reflexive_chain(n: int) -> RelStruct:
    return make_struct((2,), n, [{(i, j) for i in range(n) for j in range(i, n)}])


_C3_ARCS = ((0, 1), (1, 2), (2, 0))


def tournament_fixtures(name: str) -> MultichainPresentation:
    """Named infinite tournaments over a 3-cycle pattern.

    ``omega`` is the increasing enumeration of the naturals; ``T1``/``T2``/
    ``T3`` replace 1/2/3 vertices of the 3-cycle by omega; ``C3omega`` stacks
    infinitely many 3-cycles along a chain, all arcs running forward.
    """
    arities = (2,)
    if name == "omega":
        return multichain(arities, empty_finite_part(arities), 1,
                          vv={0: {(0, 0, "<")}}, name="omega")
    if name in ("T1", "T2", "T3"):
        blown = int(name[1])  # vertices of the 3-cycle replaced by omega
        omega_vertices = list(range(blown))
        finite_vertices = list(range(blown, 3))
        f_index = {v: i for i, v in enumerate(finite_vertices)}
        f_arcs = {
            (f_index[a], f_index[b])
            for (a, b) in _C3_ARCS
            if a in f_index and b in f_index
        }
        f_struct = make_struct(arities, len(finite_vertices), [f_arcs])
        vv = {0: set()}
        fv = {0: set()}
        vf = {0: set()}
        for x in omega_vertices:
            vv[0].add((x, x, "<"))
        for (a, b) in _C3_ARCS:
            if a in f_index and b not in f_index:
                fv[0].add((f_index[a], b))
            elif a not in f_index and b in f_index:
                vf[0].add((a, f_index[b]))
            elif a not in f_index and b not in f_index:
                vv[0] |= {(a, b, cmp) for cmp in COMPARATORS}
        return multichain(arities, f_struct, max(blown, 1), vv=vv, fv=fv, vf=vf, name=name)
    if name == "C3omega":
        forward = {(x, y, "<") for x in range(3) for y in range(3)}
        vv = {0: forward | {(a, b, "=") for (a, b) in _C3_ARCS}}
        return multichain(arities, empty_finite_part(arities), 3, vv=vv, name="C3omega")
    raise ValueError(f"unknown tournament fixture {name!r}")


def half_complete_bipartite(tilde: bool = False) -> MultichainPresentation:
    """The graph on two chains with an edge from (0, i) to (1, j) iff i < j.

    With ``tilde`` all pairs inside the second chain are also edges.
    """
    vv = {0: {(0, 1, "<"), (1, 0, ">")}}
    if tilde:
        vv[0] |= {(1, 1, "<"), (1, 1, ">")}
    name = "half-bipartite-tilde" if tilde else "half-bipartite"
    return multichain((2,), empty_finite_part((2,)), 2, vv=vv, name=name)


def sum_of_cliques(k: int) -> LexSumPresentation:
    """Disjoint union of k infinite cliques (edgeless index)."""
    return LexSumPresentation(
        digraph(k, []), tuple((CLIQUE, OMEGA) for _ in range(k)), name=f"cliques:{k}"
    )


def lexsum_tournament_fixture(name: str) -> LexSumPresentation:
    """Lexicographic-sum forms of omega/T1/T2/T3 for wide enumeration windows."""
    if name == "omega":
        return LexSumPresentation(digraph(1, []), ((ACYCLIC, OMEGA),), name="omega")
    if name in ("T1", "T2", "T3"):
        blown = int(name[1])
        blocks = tuple(
            (ACYCLIC, OMEGA if v < blown else 1) for v in range(3)
        )
        return LexSumPresentation(digraph(3, _C3_ARCS), blocks, name=name)
    raise ValueError(f"unknown tournament fixture {name!r}")


def slow_profile_structure(values, domain_size: int) -> RelStruct:
    """A finite structure whose profile follows a prescribed slow function.

    ``values`` gives f(0..N) with N = domain_size; f must be non-decreasing
    with 1 <= f(n) <= n+1.  For each n with f(n+1) > f(n) the structure gets
    an (n+1)-ary symbol holding exactly on tuples enumerating {0..n}; the
    resulting profile equals f wherever the window is wide enough.
    """
    values = list(values)
    if len(values) != domain_size + 1:
        raise ValueError("need f(0..N) for domain size N")
    for n, v in enumerate(values):
        if not 1 <= v <= n + 1:
            raise ValueError(f"f({n})={v} outside [1, {n + 1}]")
        if n and v < values[n - 1]:
            raise ValueError("f must be non-decreasing")
    levels = [n for n in range(domain_size) if values[n + 1] > values[n]]
    arities = tuple(n + 1 for n in levels)
    relations = [set(itertools.permutations(range(n + 1))) for n in levels]
    return make_struct(arities, domain_size, relations)
