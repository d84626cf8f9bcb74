"""Canonical forms for finite relational structures of arbitrary finite signature.

A structure's canonical form is the lexicographic minimum, over all vertex
orderings, of the pair

    (refinement colors along the ordering,  staged relation serialization)

where the colors come from iterated tuple-incidence refinement (the usual
degree refinement generalized to arbitrary arity; isomorphism-invariant)
and stage p of the serialization lists, per symbol, the relabeled tuples
whose largest entry is p.  Because the color sequence compares first, every
minimizing ordering sorts vertices by color, so the minimum is found by a
backtracking branch-and-bound that fills positions color class by color
class:

* bound pruning - a staged prefix already above the best form cannot win;
* automorphism pruning - candidates in one orbit of the known automorphisms
  (fixing the prefix pointwise) yield identical subtrees.  Before the search,
  every transposition (x y) of two same-color vertices that maps each
  relation onto itself is known: such twins fall into classes, and each
  class of k twins gives k - 1 generators, its consecutive members in vertex
  order.  When there are m minus (number of colors) of them, every color
  class is one twin class, so every color-sorted ordering gives the same
  form, and no search runs: the form is that of each class in vertex order,
  the ordering the search's first leaf takes, as twins have equal stages.
  During the search, equal leaves certify further automorphisms.  An
  explored candidate's orbit is taken after its subtree, so automorphisms
  found there prune its siblings.  Pruning by any group of automorphisms
  leaves the minimum, and the first leaf that reaches it, unchanged.

Refinement does the heavy lifting on near-rigid structures while
automorphism pruning absorbs the symmetric ones (cliques, independent sets,
empty signatures).  When refinement is discrete (every color class a
singleton, as for a transitive tournament) exactly one ordering sorts the
vertices by color, so the form is that ordering's staged serialization and
no search runs.  A discrete coloring is also stable, so refinement stops as
soon as it reaches one.  ``canonical_order`` returns the form together with
a minimizing ordering, for callers that extend a structure from its
canonical labelling (the subset walk of ``profiles``).

When every arity is at most 2, refinement and search run on integers.  An
incidence of v is one int, (3 * symbol + kind) * m + the color of the other
end (kind 0 for an arc out of v, 1 for a loop or unary tuple, whose other end
counts as 0, 2 for an arc into v); among vertices of one color these sort
like the generic (symbol, positions, color pattern) entries, so both
refinements give the same colors.  A candidate's stage at position p becomes,
per symbol, the sorted positions a of arcs (a, p), then p + 1 + b for arcs
(p, b), then 2p + 1 for its loop or unary tuple: an order-preserving image of
the relabeled tuples, so the search takes the same branches.  On either path
the form's stages are built once, from the best ordering.

The tests recompute the same minimum by a plain sweep over all m!
orderings (``brute_force_form`` in ``tests/oracles.py``) and require both
to agree exactly on small domains.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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
        arity = len(next(iter(rel))) if rel else 0
        for p in range(arity):
            for x, count in Counter(map(itemgetter(p), rel)).items():
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


def _twin_transpositions(m, classes, swappable):
    """Transpositions (x y) of same-color vertices that map every relation
    onto itself, as automorphism -> fixed points.  Being such twins is an
    equivalence, as (x z) = (x y)(y z)(x y), so each vertex is tested against
    the first member of each twin class found so far, and a class of k twins
    gives its k - 1 consecutive transpositions in vertex order."""
    automorphisms = {}
    for cls in classes:
        twins = []
        for y in cls:
            for group in twins:
                if swappable(group[0], y):
                    group.append(y)
                    break
            else:
                twins.append([y])
        for group in twins:
            for x, y in zip(group, group[1:]):
                g = list(range(m))
                g[x], g[y] = y, x
                automorphisms[tuple(g)] = set(range(m)).difference((x, y))
    return automorphisms


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


def canonical_form(arities, m, relations):
    """The minimal (colors, staged) serialization: equal iff isomorphic."""
    return canonical_order(arities, m, relations)[0]


def canonical_order(arities, m, relations):
    """The canonical form with a minimizing ordering: ``order[v]`` is vertex
    v's position, so relabelling by ``order`` gives the form's staged
    relations and color sequence."""
    arities = tuple(arities)
    if m == 0:
        return (arities, 0, (), ()), ()

    colors = refined_colors(m, relations)
    if len(set(colors)) == m:
        # discrete: the colors themselves are the only color-sorted ordering
        form = (arities, m, tuple(range(m)), staged_relations(m, relations, colors))
        return form, tuple(colors)
    color_seq = tuple(sorted(colors))
    by_color = defaultdict(list)
    for v, c in enumerate(colors):
        by_color[c].append(v)
    class_order = [by_color[c] for c in sorted(by_color)]
    class_start = []
    start = 0
    for cls in class_order:
        class_start.append(start)
        start += len(cls)

    assigned = [-1] * m
    chosen = []
    stages = []
    best = None  # list of stage values
    best_chosen = None
    parts = _pair_search if max(arities, default=0) <= 2 else _tuple_search
    stage_of, swappable = parts(m, relations, assigned)
    automorphisms = _twin_transpositions(m, class_order, swappable)  # g -> its fixed points

    def search(p, class_index):
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
        if class_index + 1 < len(class_start) and p == class_start[class_index + 1]:
            class_index += 1
        ranked = sorted((stage_of(v, p), v) for v in class_order[class_index] if assigned[v] < 0)
        done = set()
        for i, (val, v) in enumerate(ranked, 1):
            if tight and val > best[p]:
                break  # sorted ascending; later candidates cannot do better
            if v in done:
                continue
            assigned[v] = p
            chosen.append(v)
            stages.append(val)
            search(p + 1, class_index)
            stages.pop()
            chosen.pop()
            assigned[v] = -1
            if i < len(ranked):
                # the orbit of v under automorphisms fixing the prefix, including
                # those just found below v, holds only subtrees equal to v's
                fixing = [g for g, fixed in automorphisms.items() if fixed.issuperset(chosen)]
                if fixing:
                    done |= _orbit(v, fixing)

    if len(automorphisms) == m - len(class_order):
        # every color class is one twin class: the search's first leaf
        best_chosen = [v for cls in class_order for v in cls]
    else:
        search(0, 0)
    order = [0] * m
    for p, v in enumerate(best_chosen):
        order[v] = p
    return (arities, m, color_seq, staged_relations(m, relations, order)), tuple(order)


def form_bytes(form) -> bytes:
    """The code of a canonical form: equal iff the forms are equal."""
    return repr(form).encode()


def canonical_code_bytes(arities, m, relations):
    return form_bytes(canonical_form(arities, m, relations))
