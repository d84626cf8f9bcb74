"""Profile sequences and the universal profile inequalities.

The profile of a structure counts, for each n, the isomorphism types of its
n-element restrictions.  For presentations it defers to exact age
enumeration.  A finite structure keeps one cache entry, and one pass of its
engine fills every level 0..n of it; later levels up to n are read from the
entry, so a window costs one pass when its top level is asked first, as
``profile_sequence`` and ``AgeBasis.build`` do.  A level is the read-only
``FiniteAge`` that ``age_of_finite`` returns; its length needs no code, so
a profile serializes nothing.  A finite structure takes one of two engines:

* the *interface-coloured vertex sweep*, when every arity is <= 2 and the
  interface width (see ``interface_width``) is <= ``SWEEP_MAX_WIDTH``.  It
  walks the vertices in order and keeps one chosen set of at most n
  vertices per class of "same type once each vertex is coloured by its
  arcs to vertices not yet processed"; such sets have the same completions,
  so a 30-vertex path at n <= 8 keys 6,546 states instead of visiting 5.8
  million subsets;
* otherwise the subset walk, depth first over all subsets of size <= n,
  building the relabelled relations one vertex at a time; pre-order visits
  each level's subsets in lexicographic order, and the first subset per
  type is kept, so each representative is the least n-subset of its type.
  Each node carries its type's *name* and a canonical order (subset index
  -> position in a minimizing ordering).  The name is the level and the
  *canonical image*: per symbol, one bit per tuple at the index its
  canonical positions make read as digits in base ``top``, the pass's top
  level.  Positions are below ``top``, so one name is one type (the level
  keeps the all-zero image of an edgeless type to one level).  A child
  S = S' + t, t largest, is keyed by the name of S' and, per symbol, the
  tuples of t inside S encoded likewise at key coordinates (the parent's
  canonical positions, t last), so subsets with one key relabel to one
  structure.  A memo, local to the pass unless the caller shares it, maps
  a key to the child's name, the map from key coordinates to canonical
  positions and the colour sequence, so canon's labelling step runs once
  per key (McKay's canonical augmentation, J. Algorithms 26, 1998), and
  relations are built only on a miss or a descent.  A new type keeps its
  bitmask and labelling, and its code is serialized when first read: on
  G(16, 1/2) at n <= 7 one pass of 26,332 nodes makes 5,189 labelling
  calls (16,624 restrictions) and no serialization.  When an age basis
  asks (``_walked_codes``), the pass also records every subset's type by
  bitmask, in walk order, and serializes each type once after the pass;
  a finite basis reads its split tables from that record.  Asked for some
  sizes, it visits only the subsets that can grow to one: for the splits
  of representatives on the sweep, isomorphy partitions and the incidence
  lab's type indicators.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .canon import canonical_labelling, form_bytes, labelled_form
from .presentations import enumerate_age
from .series import TruncatedSeries
from .structures import RelStruct, Signature, marked_code

# Above this interface width the subset walk is faster: measured crossover
# between widths 2 and 3 for m = 18, n <= 7.
SWEEP_MAX_WIDTH = 2


@dataclass(frozen=True)
class ProfileSequence(TruncatedSeries):
    """Exact values phi(0..N) with a record of where they came from."""

    source: str
    infinite_source: bool

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("phi(0) = 1: the empty restriction always exists")


# ---------------------------------------------------------------------------
# Finite structures
# ---------------------------------------------------------------------------


def _masked(struct: RelStruct) -> list:
    """Per symbol, (tuple, vertex bitmask) of each tuple."""
    return [[(tup, sum(1 << x for x in set(tup))) for tup in rel] for rel in struct.relations]


def _tuples_by_last(struct: RelStruct) -> list:
    """t -> per symbol, (tuple, vertex bitmask) of the tuples whose largest vertex is t."""
    back = [[[] for _ in struct.relations] for _ in range(struct.domain_size)]
    for s, tuples in enumerate(_masked(struct)):
        for tup, mask in tuples:
            back[mask.bit_length() - 1][s].append((tup, mask))
    return back


def _relabelled(added: list, position, inside: int) -> list:
    """Per symbol, the tuples of ``added`` (per symbol, (tuple, vertex
    bitmask) pairs, such as ``_tuples_by_last`` at a chosen set's new
    largest vertex) that lie inside the chosen set, the bitmask ``inside``,
    relabelled by ``position`` (chosen vertex -> its new label)."""
    return [[tuple([position[x] for x in tup]) for tup, mask in tuples if mask & inside == mask]
            for tuples in added]


def _joined(rels: tuple, added: list) -> tuple:
    """The relations with each symbol's list of new relabelled tuples added."""
    return tuple(rel.union(new) if new else rel for rel, new in zip(rels, added))


def _restriction(masked: list, inside: int, label) -> list:
    """Per symbol, the tuples (``_masked``) inside the vertex bitmask
    ``inside``, the vertex of rank i in the set relabelled ``label[i]``."""
    position = {}
    for v in range(inside.bit_length()):
        if inside >> v & 1:
            position[v] = label[len(position)]
    return _relabelled(masked, position, inside)


def _code(arities: tuple, masked: list, n: int, inside: int, color_seq: tuple, order: tuple):
    """The code of the n-subset ``inside`` from its labelling: the serializer,
    on relations relabelled into canonical positions as they are built."""
    rels = _restriction(masked, inside, order)
    return form_bytes(labelled_form(arities, n, rels, color_seq, None))


def _check_level(struct: RelStruct, n: int):
    if not 0 <= n <= struct.domain_size:
        raise ValueError(f"n={n} outside 0..{struct.domain_size}")


class FiniteAge(Mapping):
    """Level n of a finite age: code -> representative, in code order.  It
    holds the walk's (bitmask, colour sequence, canonical order) per type,
    and serializes, sorts and keeps the codes on first access to them, or
    holds the codes (code -> bitmask) from the start.  A representative is
    built from its bitmask when read."""

    __slots__ = ("struct", "size", "_types", "_codes", "_masked")

    def __init__(self, struct: RelStruct, size: int, types: tuple = (), codes: dict = None):
        self.struct, self.size = struct, size
        self._types, self._codes, self._masked = types, codes, None

    def __len__(self):
        codes = self._codes
        return len(self._types) if codes is None else len(codes)

    def __iter__(self):
        return iter(self._coded())

    def __contains__(self, code):
        return code in self._coded()

    def __getitem__(self, code) -> RelStruct:
        rels = _restriction(self._tuples(), self._coded()[code], range(self.size))
        return RelStruct(self.struct.signature, self.size, tuple(map(frozenset, rels)))

    def _tuples(self) -> list:
        if self._masked is None:
            self._masked = _masked(self.struct)
        return self._masked

    def _coded(self) -> dict:
        # every reader computes the same dict, so a race costs work, not values
        codes = self._codes
        if codes is None:
            arities, masked = self.struct.signature.arities, self._tuples()
            codes = self._codes = dict(sorted(
                (_code(arities, masked, self.size, *labelled), labelled[0])
                for labelled in self._types))
        return codes


@functools.lru_cache(maxsize=64)
def _finite_cache(struct: RelStruct) -> tuple:
    """One cache entry per structure: the levels filled so far (n ->
    ``FiniteAge``; on the subset walk it holds bitmasks and labellings, and
    keeps its codes once they are read) and the subset walk's record (n ->
    (source bitmask of each type's representative, in code order; n-subset
    bitmask -> code, in walk order)), kept only for the levels an age basis
    asked for.  Neither needs a lock: a level, its codes and a record are
    published whole, and every pass publishes the same values."""
    return {}, {}


def _subset_walk(struct: RelStruct, top: int, record: bool, sizes=None, memo=None) -> tuple:
    """Levels 0..top of the age, or those of ``sizes`` (each at most top and
    m), by one depth-first pass over the subsets (see the module docstring).
    One ``memo`` serves passes over structures of one signature and top.
    Returns the levels, each a tuple of (representative bitmask, colour
    sequence, canonical order) per type in walk order, and, when ``record``
    is set, per requested size its codes (code -> representative bitmask,
    in code order) and every visited subset's code (bitmask -> code, in
    walk order), else None."""
    arities = struct.signature.arities
    m = struct.domain_size
    sizes = range(top + 1) if sizes is None else sorted(set(sizes))
    # per depth, the least size above it; past the largest, m + 1 leaves no vertex
    reach = [next((n for n in sizes if n > depth), m + 1) for depth in range(top + 1)]
    back = _tuples_by_last(struct)
    position = [0] * m  # vertex -> index in the current subset
    # extension key -> (child name, key coordinate -> canonical position, colour sequence)
    memo = {} if memo is None else memo
    empty = tuple(frozenset() for _ in arities)
    root = (0,) + (0,) * len(arities)
    levels = [{root: (0, *canonical_labelling(arities, 0, empty))}] + [{} for _ in range(top)]
    # per recorded size: subset bitmask -> name
    names = [{} if record and n in sizes else None for n in range(top + 1)]
    if names[0] is not None:
        names[0][0] = root

    def walk(start, depth, inside, rels, name, order):
        # order: subset index -> canonical position; the new vertex goes last
        ext = order + (depth,)
        kept, walked = levels[depth + 1], names[depth + 1]
        # a child at t descends while t leaves room for the next requested size
        deepest = m - reach[depth + 1] + depth + 1
        for t in range(start, m - reach[depth] + depth + 1):
            position[t] = depth
            inner = inside | 1 << t
            key = [name]
            for tuples in back[t]:
                bits = 0
                for tup, mask in tuples:
                    if mask & inner == mask:
                        i = 0
                        for x in tup:
                            i = i * top + ext[position[x]]
                        bits |= 1 << i
                key.append(bits)
            key = tuple(key)
            hit = memo.get(key)
            descend = t < deepest
            if hit is None or descend:
                joined = _joined(rels, _relabelled(back[t], position, inner))
            if hit is None:
                color_seq, found = canonical_labelling(arities, depth + 1, joined)
                image = [depth + 1]
                for rel in joined:
                    bits = 0
                    for tup in rel:
                        i = 0
                        for x in tup:
                            i = i * top + found[x]
                        bits |= 1 << i
                    image.append(bits)
                lam = [0] * (depth + 1)  # key coordinate -> canonical position
                for k, p in zip(ext, found):
                    lam[k] = p
                hit = memo[key] = tuple(image), tuple(lam), color_seq
            child, lam, color_seq = hit
            if walked is not None:
                walked[inner] = child
            new = child not in kept
            if new or descend:
                child_order = tuple([lam[k] for k in ext])
                if new:
                    kept[child] = inner, color_seq, child_order
                if descend:
                    walk(t + 1, depth + 1, inner, joined, child, child_order)

    if reach[0] <= m:
        walk(0, 0, 0, empty, root, ())
    del walk  # it refers to itself, which would keep the memo until a cyclic collection
    codes = None
    if record:  # names become codes, one serialization per type
        codes, masked = {}, _masked(struct)
        for n in sizes:
            code_of = {child: _code(arities, masked, n, *labelled)
                       for child, labelled in levels[n].items()}
            coded = sorted((code, levels[n][child][0]) for child, code in code_of.items())
            codes[n] = dict(coded), {inner: code_of[child] for inner, child in names[n].items()}
    return [tuple(kept.values()) for kept in levels], codes


def _open_sets(struct: RelStruct):
    """For each vertex t in the given order, the open set at t: the vertices
    v <= t that share a binary tuple with some w > t, in increasing order."""
    m = struct.domain_size
    last = list(range(m))  # v -> largest w sharing a binary tuple with v
    for arity, rel in zip(struct.signature.arities, struct.relations):
        if arity == 2:
            for u, w in rel:
                if u > w:
                    u, w = w, u
                if w > last[u]:
                    last[u] = w
    opened = []
    for t in range(m):
        opened = [v for v in opened + [t] if last[v] > t]
        yield opened


def interface_width(struct: RelStruct) -> int:
    """Max over t of the size of the open set at t (``_open_sets``), in the
    given vertex order; O(tuples + m * (width + 1))."""
    return max(map(len, _open_sets(struct)), default=0)


def _interface_levels(struct: RelStruct, top: int) -> list:
    """Every level 0..top of the age of an arity <= 2 structure by one vertex
    sweep, as (code -> representative bitmask) per level.

    Vertices are processed in order; a state is a chosen vertex tuple of at
    most top vertices, and at step t each state skips t or takes it.  The
    *interface* of a chosen v at step t is the literal set of (w, symbol,
    direction) over its binary tuples with w > t.  States are keyed by the
    ``marked_code`` of the restriction labelled by non-empty interface; the
    code holds the number of chosen vertices, so states of different sizes
    never share a key.  Equal keys mean an isomorphism of the chosen sets
    that keeps every literal interface, so (arity <= 2) both sets have
    isomorphic completions by every later set, and one per key suffices.
    The lexicographically least chosen tuple is kept, so each type's
    representative is its least subset, as on the subset walk.
    """
    m = struct.domain_size
    back = _tuples_by_last(struct)
    arcs = [[] for _ in range(m)]  # v -> sorted (w, symbol, direction) with w > v
    for s, rel in enumerate(struct.relations):
        for tup in rel:
            if len(tup) == 2 and tup[0] != tup[1]:
                u, w = tup
                if u < w:
                    arcs[u].append((w, s, 0))
                else:
                    arcs[w].append((u, s, 1))
    for a in arcs:
        a.sort()
    sig = struct.signature
    states = {}
    _keep(states, (), tuple(frozenset() for _ in sig.arities), {}, sig)
    for t, opened in enumerate(_open_sets(struct)):
        # chosen or not, each open vertex's interface at step t
        interfaces = {v: tuple(a for a in arcs[v] if a[0] > t) for v in opened}
        new = {}
        for chosen, rels in states.values():
            _keep(new, chosen, rels, interfaces, sig)
            if len(chosen) < top:
                position = {v: i for i, v in enumerate(chosen)}
                position[t] = len(chosen)
                inside = sum(1 << v for v in position)
                added = _relabelled(back[t], position, inside)
                _keep(new, chosen + (t,), _joined(rels, added), interfaces, sig)
        states = new
    levels = [{} for _ in range(top + 1)]
    for (_, code), (chosen, _) in states.items():
        levels[len(chosen)][code] = sum(1 << v for v in chosen)
    return levels


def _keep(states: dict, chosen: tuple, rels: tuple, interfaces: dict, sig: Signature):
    """Add a sweep state under its interface-labelled key, keeping the least
    chosen tuple per key; ``interfaces`` maps each open vertex to its
    interface at the step, and a chosen vertex that is not open has none."""
    key = marked_code(sig, len(chosen), rels, [interfaces.get(v) for v in chosen])
    kept = states.get(key)
    if kept is None or chosen < kept[0]:
        states[key] = (chosen, rels)


def age_of_finite(struct: RelStruct, n: int) -> FiniteAge:
    """Types of the n-element restrictions, code -> representative in code
    order.  Level n is read from the structure's cache entry; on a miss one
    pass fills every level 0..n.  A representative is the lexicographically
    least n-subset of its type, on either engine."""
    return _level(struct, n)


def _level(struct: RelStruct, n: int) -> FiniteAge:
    """Level n of the structure's cache entry; on a miss one pass fills
    every level 0..n.  The levels below a window are read through it, so a
    window makes one ``age_of_finite`` call."""
    _check_level(struct, n)
    level = _finite_cache(struct)[0].get(n)
    if level is None:
        level = _fill_levels(struct, n, record=False)[0][n]
    return level


def _fill_levels(struct: RelStruct, top: int, record: bool) -> tuple:
    """One pass of the structure's engine over levels 0..top, published to
    its cache entry level by level, and with ``record`` on the subset walk
    each level's record too (None on the sweep, which visits no subsets).
    The sweep's levels, and a recording pass's, hold their codes."""
    levels, records = _finite_cache(struct)
    codes = None
    if _sweeps(struct):
        found = [FiniteAge(struct, n, codes=dict(sorted(level.items())))
                 for n, level in enumerate(_interface_levels(struct, top))]
    else:
        types, codes = _subset_walk(struct, top, record)
        found = [FiniteAge(struct, n, level, None if codes is None else codes[n][0])
                 for n, level in enumerate(types)]
    levels.update(enumerate(found))
    if codes is not None:
        codes = {n: (tuple(coded.values()), walked) for n, (coded, walked) in codes.items()}
        records.update(codes)
    return found, codes


def _walked_codes(struct: RelStruct, top: int) -> dict:
    """Fill levels 0..top, one pass when they are missing, and return the
    subset walk's record of them: level -> (source bitmask of each type's
    representative, in code order; subset bitmask -> code, in walk order).
    Empty when the structure takes the interface sweep, which visits no
    subsets."""
    levels, records = _finite_cache(struct)
    sweeps = _sweeps(struct)
    if top not in levels or not sweeps and any(n not in records for n in range(top + 1)):
        return _fill_levels(struct, top, record=True)[1] or {}
    return {} if sweeps else {n: records[n] for n in range(top + 1)}


def _sweeps(struct: RelStruct) -> bool:
    """Whether ``age_of_finite`` takes the interface sweep for the structure."""
    narrow = max(struct.signature.arities, default=0) <= 2
    return narrow and interface_width(struct) <= SWEEP_MAX_WIDTH


def profile_finite(struct: RelStruct, n: int) -> int:
    return len(age_of_finite(struct, n))


def profile_presented(pres, n: int) -> int:
    return len(enumerate_age(pres, n))


def profile_sequence(source, window: int, name: str = "") -> ProfileSequence:
    if window < 0:
        raise ValueError("window must be non-negative")
    if isinstance(source, RelStruct):
        if window > source.domain_size:
            raise ValueError("window exceeds domain size")
        top = profile_finite(source, window)  # one pass fills every level
        values = tuple(len(_level(source, n)) for n in range(window)) + (top,)
        return ProfileSequence(values, name or f"finite[{source.domain_size}]", False)
    values = tuple(profile_presented(source, n) for n in range(window + 1))
    return ProfileSequence(values, name or getattr(source, "name", "") or "presentation", True)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    label: str
    violations: tuple
    applicable: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def check_basic_inequality(seq: ProfileSequence) -> CheckReport:
    """phi(n) <= (n+1) * phi(n+1) for every n in the window."""
    bad = tuple(
        n for n in range(seq.window) if seq[n] > (n + 1) * seq[n + 1]
    )
    return CheckReport("phi(n) <= (n+1)phi(n+1)", bad)


def check_monotone(seq: ProfileSequence) -> CheckReport:
    """Non-decreasing profile; meaningful only for infinite sources."""
    if not seq.infinite_source:
        return CheckReport("non-decreasing profile", (), applicable=False)
    bad = tuple(n for n in range(seq.window) if seq[n] > seq[n + 1])
    return CheckReport("non-decreasing profile", bad)


def check_linalg_inequality(struct: RelStruct, n: int, k: int) -> bool:
    """phi(n) <= phi(n+k) whenever the domain has at least 2n+k elements."""
    if struct.domain_size < 2 * n + k:
        raise ValueError(f"need domain size >= {2 * n + k}, got {struct.domain_size}")
    larger = profile_finite(struct, n + k)  # one pass fills level n too
    return len(_level(struct, n)) <= larger


def check_binomial_bound(seq: ProfileSequence, k: int) -> bool:
    """phi(n) <= C(n+k, k); the caller asserts the source is a chain product
    of the matching degree."""
    return all(seq[n] <= math.comb(n + k, k) for n in range(seq.window + 1))


def check_eq10_bound(seq: ProfileSequence, r: int, k: int) -> bool:
    """phi(n) <= 2^r * C(n+k-1, k-1) for a decomposition with k infinite
    blocks and r elements in finite blocks."""
    return all(
        seq[n] <= (2 ** r) * math.comb(n + k - 1, k - 1) for n in range(seq.window + 1)
    )
