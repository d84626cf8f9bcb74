"""Canonical forms for finite relational structures of arbitrary finite signature.

A structure's canonical form is the lexicographic minimum, over all vertex
orderings, of the pair

    (refinement colors along the ordering,  staged relation serialization)

where the colors come from iterated tuple-incidence refinement (degree
refinement for any arity; isomorphism-invariant) and stage p of the
serialization lists, per symbol, the relabeled tuples whose largest entry
is p.  A call has two steps: the *labelling* (``canonical_labelling``:
refinement, the twin test and the search) gives the color sequence and a
minimizing ordering, and the *serializer* (``labelled_form``) relabels by
it into the form, whose code is ``form_bytes``.  ``canonical_order``,
``canonical_form`` and ``canonical_code_bytes`` run both.  The engines of
``profiles`` and ``presentations`` run them apart: each names a type by its
``canonical_image`` under the labelling, and serializes each type once,
when its codes are read.

The color sequence compares first, so every minimizing ordering sorts the
vertices by color.  When refinement is discrete (every color class a
singleton, as for a transitive tournament) one ordering does, and no search
runs; a discrete coloring is also stable, so refinement stops as soon as it
reaches one.  Otherwise each color class is split into twin classes: x and
y are twins when the transposition (x y) maps every relation onto itself,
an equivalence.  When there are as many twin classes as color classes,
every color-sorted ordering gives the same form and no search runs: the
ordering takes each class in vertex order, as the search's first leaf does,
since twins have equal stages.  Else a backtracking branch-and-bound fills
positions color class by color class:

* bound pruning - a staged prefix already above the best form cannot win;
* automorphism pruning - candidates in one orbit of the known automorphisms
  (fixing the prefix pointwise) yield identical subtrees.  A twin class of
  k vertices gives k - 1 of them before the search, the transpositions of
  its consecutive members; equal leaves certify more.  An explored
  candidate's orbit is taken after its subtree, so automorphisms found
  there prune its siblings.  Pruning by any group of automorphisms leaves
  the minimum, and the first leaf that reaches it, unchanged.

When every arity is at most 2, refinement and search run on integers.  An
incidence of v is one int, (3 * symbol + kind) * m + the color of the other
end (kind 0 for an arc out of v, 1 for a loop or unary tuple, whose other end
counts as 0, 2 for an arc into v); among vertices of one color these sort
like the generic (symbol, positions, color pattern) entries, so both
refinements give the same colors.  A candidate's stage at position p becomes,
per symbol, the sorted positions a of arcs (a, p), then p + 1 + b for arcs
(p, b), then 2p + 1 for its loop or unary tuple: an order-preserving image of
the relabeled tuples, so the search takes the same branches.

The tests recompute the same minimum by a plain sweep over all m!
orderings (``brute_force_form`` in ``tests/oracles.py``) and require both
to agree exactly on small domains.
"""

from __future__ import annotations

from itertools import groupby
from operator import add, itemgetter


def staged_relations(m, relations, labeling=None):
    """Relation serialization under a relabeling, grouped by largest entry."""
    if not relations:
        return ((),) * m
    columns = []  # per symbol: stage -> its sorted tuples
    for rel in relations:
        if labeling is not None:
            rel = [tuple(map(labeling.__getitem__, t)) for t in rel]
        column = [()] * m
        for p, group in groupby(sorted(zip(map(max, rel), rel)), itemgetter(0)):
            column[p] = tuple(map(itemgetter(1), group))
        columns.append(column)
    return tuple(zip(*columns))


# ---------------------------------------------------------------------------
# Color refinement
# ---------------------------------------------------------------------------


def _normalize(sigs):
    ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ids[s] for s in sigs]


def _initial_colors(m, relations):
    """Colors by incidence counts: per vertex, the (key, count) pairs of the
    (symbol, position) slots it fills, in one flat tuple.  Keys number the
    slots in (symbol, position) order, so the flat tuples sort like the
    tuples of ((symbol, position), count) items."""
    per_vertex = [[] for _ in range(m)]
    key = 0
    for rel in relations:
        for column in zip(*rel):  # one per position
            counts = [0] * m
            for x in column:
                counts[x] += 1
            for x, count in enumerate(counts):
                if count:
                    per_vertex[x] += (key, count)
            key += 1
    return _normalize([tuple(sig) for sig in per_vertex])


def refined_colors(m, relations):
    """Stable coloring under iterated tuple-incidence refinement."""
    colors = _initial_colors(m, relations)
    # a discrete coloring is stable: a round keeps each color, as it sorts first
    if len(set(colors)) == m:
        return colors
    if all(len(next(iter(rel))) <= 2 for rel in relations if rel):
        return _refine_pairs(m, relations, colors)
    return _refine_tuples(m, relations, colors)


def _refine_tuples(m, relations, colors):
    """Refinement rounds from ``colors`` on tuples of any arity."""
    # each tuple with its distinct entries and the positions each occupies,
    # found once: only the color pattern changes between rounds
    incidences = [
        (ri, t,
         [(x, (q,)) for q, x in enumerate(t)] if len(set(t)) == len(t) else
         [(x, tuple(q for q, y in enumerate(t) if y == x)) for x in dict.fromkeys(t)])
        for ri, rel in enumerate(relations)
        for t in rel
    ]
    while True:
        per_vertex = [[] for _ in range(m)]
        for ri, t, members in incidences:
            pat = tuple(map(colors.__getitem__, t))
            for x, positions in members:
                per_vertex[x].append((ri, positions, pat))
        new = _normalize([(colors[v], tuple(sorted(per_vertex[v]))) for v in range(m)])
        if new == colors or len(set(new)) == m:
            return new
        colors = new


def _refine_pairs(m, relations, colors):
    """Refinement rounds from ``colors`` when every arity is at most 2, with
    each incidence one int (see the module docstring)."""
    fixed = [[] for _ in range(m)]  # v -> keys of its loops and unary tuples
    offsets = [[] for _ in range(m)]  # v -> key offset of each arc at v
    ends = [[] for _ in range(m)]  # v -> the other end of that arc
    for ri, rel in enumerate(relations):
        base = 3 * ri * m
        for t in rel:
            x, y = t[0], t[-1]
            if x == y:
                fixed[x].append(base + m)
            else:
                offsets[x].append(base)
                ends[x].append(y)
                offsets[y].append(base + 2 * m)
                ends[y].append(x)
    while True:
        at = colors.__getitem__
        new = _normalize([
            (colors[v], tuple(sorted([*fixed[v], *map(add, offsets[v], map(at, ends[v]))])))
            for v in range(m)
        ])
        if new == colors or len(set(new)) == m:
            return new
        colors = new


# ---------------------------------------------------------------------------
# Branch and bound search (color-class compatible orderings)
# ---------------------------------------------------------------------------


def _orbit(v, generators):
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _twin_groups(classes, swappable):
    """The color classes split into twin classes, in vertex order.  Being
    twins is an equivalence, as (x z) = (x y)(y z)(x y), so each vertex is
    tested against the first member of each group found so far."""
    groups = []
    for cls in classes:
        twins = []
        for y in cls:
            for group in twins:
                if swappable(group[0], y):
                    group.append(y)
                    break
            else:
                twins.append([y])
        groups += twins
    return groups


def _tuple_search(m, relations, assigned):
    """(stage_of, swappable) for any arities.  stage_of(v, p) is, per symbol,
    the sorted relabeled tuples of v whose entries are all placed once v goes
    to position p; swappable(x, y) tells whether (x y) maps every relation
    onto itself, from the tuples through x and through y."""
    incident = [[[] for _ in relations] for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            for x in set(t):
                incident[x][ri].append(t)

    def stage_of(v, p):
        # places v at p while relabeling and frees it again before returning
        assigned[v] = p
        stage = []
        for tuples in incident[v]:
            out = []
            for t in tuples:
                relabeled = tuple(map(assigned.__getitem__, t))
                if -1 not in relabeled:
                    out.append(relabeled)
            out.sort()
            stage.append(tuple(out))
        assigned[v] = -1
        return tuple(stage)

    relsets = [frozenset(rel) for rel in relations]
    swap = list(range(m))

    def swappable(x, y):
        swap[x], swap[y] = y, x
        ok = all(tuple(map(swap.__getitem__, t)) in relset
                 for relset, xs, ys in zip(relsets, incident[x], incident[y])
                 for t in xs + ys)
        swap[x], swap[y] = x, y
        return ok

    return stage_of, swappable


def _pair_search(m, relations, assigned):
    """(stage_of, swappable) of ``_tuple_search`` when every arity is at
    most 2.  stage_of gives the integer image of the module docstring as one
    flat tuple with -1 between symbols (a separator below every value keeps
    the order of the per-symbol sequences); swappable compares the
    neighbours of x and y."""
    # v -> per symbol [sources a of arcs (a, v), targets b of arcs (v, b), closed]
    rows = [[[[], [], False] for _ in relations] for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            x, y = t[0], t[-1]
            if x == y:
                rows[x][ri][2] = True  # a loop or unary tuple
            else:
                rows[x][ri][1].append(y)
                rows[y][ri][0].append(x)
    at = assigned.__getitem__

    def stage_of(v, p):
        stage = []
        for i, (ins, outs, closed) in enumerate(rows[v]):
            if i:
                stage.append(-1)
            vals = [q for q in map(at, ins) if q >= 0]
            vals += [p + 1 + q for q in map(at, outs) if q >= 0]
            vals.sort()
            stage += vals
            if closed:
                stage.append(2 * p + 1)
        return tuple(stage)

    def swappable(x, y):
        for (ix, ox, cx), (iy, oy, cy) in zip(rows[x], rows[y]):
            # same loops, (x, y) an arc iff (y, x) is, same arcs to every third vertex
            if (cx != cy or (y in ox) != (x in oy)
                    or {x, y, *ix} != {x, y, *iy} or {x, y, *ox} != {x, y, *oy}):
                return False
        return True

    return stage_of, swappable


def canonical_labelling(arities, m, relations):
    """The labelling step (refinement, the twin test and the search): the
    form's color sequence and a minimizing ordering, ``order[v]`` being
    vertex v's position."""
    colors = refined_colors(m, relations)
    if len(set(colors)) == m:
        # discrete: the colors themselves are the only color-sorted ordering
        return tuple(range(m)), tuple(colors)
    color = colors.__getitem__
    class_order = [list(cls) for _, cls in groupby(sorted(range(m), key=color), color)]
    assigned = [-1] * m
    parts = _pair_search if max(arities, default=0) <= 2 else _tuple_search
    stage_of, swappable = parts(m, relations, assigned)
    twins = _twin_groups(class_order, swappable)
    if len(twins) == len(class_order):
        # every color class is one twin class: the search's first leaf
        best_chosen = [v for cls in class_order for v in cls]
    else:
        best_chosen = _search(m, class_order, twins, assigned, stage_of)
    order = [0] * m
    for p, v in enumerate(best_chosen):
        order[v] = p
    return tuple(sorted(colors)), tuple(order)


def _search(m, class_order, twins, assigned, stage_of):
    """The vertices of the least color-sorted ordering, in position order."""
    automorphisms = {}  # g -> its fixed points
    for group in twins:
        for x, y in zip(group, group[1:]):
            g = list(range(m))
            g[x], g[y] = y, x
            automorphisms[tuple(g)] = set(range(m)).difference((x, y))
    cell = [cls for cls in class_order for _ in cls]  # position -> its color class
    chosen = []
    stages = []
    best = None  # list of stage values
    best_chosen = None

    def search(p):
        nonlocal best, best_chosen
        tight = False
        if best is not None:
            prefix = best[:p]
            if stages > prefix:
                return  # best improved since this branch was entered
            tight = stages == prefix
        if p == m:
            if best is None or stages < best:
                best = list(stages)
                best_chosen = list(chosen)
            elif tight:
                g = tuple(best_chosen[assigned[v]] for v in range(m))
                fixed = {v for v in range(m) if g[v] == v}
                if len(fixed) < m:
                    automorphisms[g] = fixed
            return
        ranked = sorted((stage_of(v, p), v) for v in cell[p] if assigned[v] < 0)
        done = set()
        for i, (val, v) in enumerate(ranked, 1):
            if tight and val > best[p]:
                break  # sorted ascending; later candidates cannot do better
            if v in done:
                continue
            assigned[v] = p
            chosen.append(v)
            stages.append(val)
            search(p + 1)
            stages.pop()
            chosen.pop()
            assigned[v] = -1
            if i < len(ranked):
                # the orbit of v under automorphisms fixing the prefix, including
                # those just found below v, holds only subtrees equal to v's
                fixing = [g for g, fixed in automorphisms.items() if fixed.issuperset(chosen)]
                if fixing:
                    done |= _orbit(v, fixing)

    search(0)
    del search  # it refers to itself
    return best_chosen


def canonical_image(relations, order, base: int) -> tuple:
    """Per symbol, the relabelled tuples as one bitmask: a tuple sets the bit
    at the index its positions ``order[x]`` make read as digits in ``base``.
    With every position below ``base``, equal images of one signature and
    size mean equal relabelled structures, so under a canonical ``order`` an
    image names its isomorphism type as the code does, with no serializing."""
    image = []
    for rel in relations:
        bits = 0
        for tup in rel:
            i = 0
            for x in tup:
                i = i * base + order[x]
            bits |= 1 << i
        image.append(bits)
    return tuple(image)


def labelled_form(arities, m, relations, color_seq, order):
    """The serializer: the form of the structure relabelled by ``order``."""
    return tuple(arities), m, color_seq, staged_relations(m, relations, order)


def canonical_order(arities, m, relations):
    """The canonical form and the minimizing ordering it relabels by."""
    color_seq, order = canonical_labelling(arities, m, relations)
    return labelled_form(arities, m, relations, color_seq, order), order


def canonical_form(arities, m, relations):
    """The minimal (colors, staged) serialization: equal iff isomorphic."""
    return canonical_order(arities, m, relations)[0]


def form_bytes(form) -> bytes:
    """The code of a canonical form: equal iff the forms are equal."""
    return repr(form).encode()


def canonical_code_bytes(arities, m, relations):
    return form_bytes(canonical_form(arities, m, relations))
