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
* automorphism pruning - equal leaves certify an automorphism, and
  candidates in one orbit of the discovered group (fixing the prefix
  pointwise) yield identical subtrees.

Refinement does the heavy lifting on near-rigid structures (a transitive
tournament refines to singleton classes and the search degenerates to one
path) while automorphism pruning absorbs the symmetric ones (cliques,
independent sets, empty signatures).

``brute_force_form`` recomputes the same minimum by a plain sweep over all
m! orderings and serves as the independent oracle for small domains; both
paths agree exactly, which is tested.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

PERMUTATION_SWEEP_LIMIT = 8


def staged_relations(m, relations, labeling=None):
    """Relation serialization under a relabeling, grouped by largest entry."""
    nsym = len(relations)
    stages = [[[] for _ in range(nsym)] for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            tt = t if labeling is None else tuple(labeling[x] for x in t)
            stages[max(tt)][ri].append(tt)
    return tuple(tuple(tuple(sorted(sym)) for sym in stage) for stage in stages)


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


# ---------------------------------------------------------------------------
# Color refinement
# ---------------------------------------------------------------------------


def _normalize(sigs):
    ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ids[s] for s in sigs]


def _initial_colors(m, relations):
    per_vertex = [defaultdict(int) for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            for p, x in enumerate(t):
                per_vertex[x][(ri, p)] += 1
    return _normalize([tuple(sorted(per_vertex[v].items())) for v in range(m)])


def refined_colors(m, relations):
    """Stable coloring under iterated tuple-incidence refinement."""
    colors = _initial_colors(m, relations)
    while True:
        per_vertex = [[] for _ in range(m)]
        for ri, rel in enumerate(relations):
            for t in rel:
                pat = tuple(colors[x] for x in t)
                seen = set()
                for x in t:
                    if x in seen:
                        continue
                    seen.add(x)
                    positions = tuple(q for q, y in enumerate(t) if y == x)
                    per_vertex[x].append((ri, positions, pat))
        new = _normalize([(colors[v], tuple(sorted(per_vertex[v]))) for v in range(m)])
        if new == colors:
            return colors
        colors = new


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


# ---------------------------------------------------------------------------
# Branch and bound search (color-class compatible orderings)
# ---------------------------------------------------------------------------


def canonical_form(arities, m, relations):
    """The minimal (colors, staged) serialization: equal iff isomorphic."""
    arities = tuple(arities)
    if m == 0:
        return ordered_form(arities, 0, relations, [])

    colors = refined_colors(m, relations)
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

    nsym = len(relations)
    tuples_with = [defaultdict(list) for _ in range(nsym)]
    for ri, rel in enumerate(relations):
        for t in rel:
            for x in set(t):
                tuples_with[ri][x].append(t)

    assigned = [-1] * m
    chosen = []
    stages = []
    best = None  # list of stage values
    best_chosen = None
    automorphisms = []

    def stage_of(v, p):
        per_symbol = []
        for ri in range(nsym):
            out = []
            for t in tuples_with[ri].get(v, ()):
                relabeled = []
                for x in t:
                    q = p if x == v else assigned[x]
                    if q < 0:
                        break
                    relabeled.append(q)
                else:
                    out.append(tuple(relabeled))
            per_symbol.append(tuple(sorted(out)))
        return tuple(per_symbol)

    def search(p, class_index):
        nonlocal best, best_chosen
        tight = False
        if best is not None:
            for q in range(p):
                if stages[q] != best[q]:
                    if stages[q] > best[q]:
                        return  # best improved since this branch was entered
                    break
            else:
                tight = True
        if p == m:
            if best is None or stages < best:
                best = list(stages)
                best_chosen = list(chosen)
            elif tight:
                g = tuple(best_chosen[assigned[v]] for v in range(m))
                if any(g[v] != v for v in range(m)) and g not in automorphisms:
                    automorphisms.append(g)
            return
        if class_index + 1 < len(class_start) and p == class_start[class_index + 1]:
            class_index += 1
        candidates = [v for v in class_order[class_index] if assigned[v] < 0]
        vals = {v: stage_of(v, p) for v in candidates}
        candidates.sort(key=lambda v: (vals[v], v))
        done = set()
        for v in candidates:
            if tight and best is not None and vals[v] > best[p]:
                break  # sorted ascending; later candidates cannot do better
            if v in done:
                continue
            fixing = [g for g in automorphisms if all(g[u] == u for u in chosen)]
            done |= _orbit(v, fixing) if fixing else {v}
            assigned[v] = p
            chosen.append(v)
            stages.append(vals[v])
            search(p + 1, class_index)
            stages.pop()
            chosen.pop()
            assigned[v] = -1

    search(0, 0)
    return (arities, m, color_seq, tuple(best))


def canonical_code_bytes(arities, m, relations):
    return repr(canonical_form(arities, m, relations)).encode()
