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
  pointwise) yield identical subtrees.  An explored candidate's orbit is
  taken after its subtree, so automorphisms found there prune its siblings.

Refinement does the heavy lifting on near-rigid structures while
automorphism pruning absorbs the symmetric ones (cliques, independent sets,
empty signatures).  When refinement is discrete (every color class a
singleton, as for a transitive tournament) exactly one ordering sorts the
vertices by color, so the form is that ordering's staged serialization and
no search runs.  A discrete coloring is also stable, so refinement stops as
soon as it reaches one.  ``canonical_order`` returns the form together with
a minimizing ordering, for callers that extend a structure from its
canonical labelling (the subset walk of ``profiles``).

The tests recompute the same minimum by a plain sweep over all m!
orderings (``brute_force_form`` in ``tests/oracles.py``) and require both
to agree exactly on small domains.
"""

from __future__ import annotations

from collections import defaultdict


def staged_relations(m, relations, labeling=None):
    """Relation serialization under a relabeling, grouped by largest entry."""
    nsym = len(relations)
    stages = [[[] for _ in range(nsym)] for _ in range(m)]
    for ri, rel in enumerate(relations):
        if labeling is not None:
            rel = [tuple(map(labeling.__getitem__, t)) for t in rel]
        for t in rel:
            stages[max(t)][ri].append(t)
    return tuple(tuple(tuple(sorted(sym)) for sym in stage) for stage in stages)


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
    # a discrete coloring is stable: a round keeps each color, as it sorts first
    if len(set(colors)) == m:
        return colors
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

    nsym = len(relations)
    incident = [[[] for _ in range(nsym)] for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            for x in set(t):
                incident[x][ri].append(t)

    assigned = [-1] * m
    chosen = []
    stages = []
    best = None  # list of stage values
    best_chosen = None
    automorphisms = {}  # permutation -> its fixed points

    def stage_of(v, p):
        """Tuples of v whose entries are all placed once v goes to position p.

        Places v at p while relabeling and frees it again before returning."""
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

    search(0, 0)
    order = [0] * m
    for p, v in enumerate(best_chosen):
        order[v] = p
    return (arities, m, color_seq, tuple(best)), tuple(order)


def form_bytes(form) -> bytes:
    """The code of a canonical form: equal iff the forms are equal."""
    return repr(form).encode()


def canonical_code_bytes(arities, m, relations):
    return form_bytes(canonical_form(arities, m, relations))
