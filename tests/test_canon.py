import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from oracles import brute_force_form, ordered_form
from relprof import canon
from relprof.structures import (
    acyclic_tournament,
    canonical_code,
    clique_graph,
    disjoint_union,
    independent_graph,
    make_struct,
    path_graph,
)


def test_search_agrees_with_permutation_sweep_on_random_structures():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(0, 6)
        arcs = {
            (rng.randrange(m), rng.randrange(m))
            for _ in range(rng.randint(0, m * m))
        } if m else set()
        marks = {(v,) for v in range(m) if rng.random() < 0.4}
        arities = (2, 1)
        rels = (frozenset(arcs), frozenset(marks))
        assert canon.canonical_form(arities, m, rels) == brute_force_form(
            arities, m, rels
        )


def test_search_agrees_with_sweep_ternary():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 5)
        triples = {
            tuple(rng.randrange(m) for _ in range(3)) for _ in range(rng.randint(0, 8))
        }
        rels = (frozenset(triples),)
        assert canon.canonical_form((3,), m, rels) == brute_force_form((3,), m, rels)


def test_highly_symmetric_structures_terminate_quickly():
    # cliques, independent sets and empty signatures have huge automorphism
    # groups; automorphism pruning must keep these cheap
    for n in (6, 9, 12):
        canonical_code(clique_graph(n))
        canonical_code(independent_graph(n))
        canonical_code(make_struct((), n, []))
    # twins seed the search with their transpositions: with automorphisms
    # found only at leaves, 3.K_16 took about 5 s and one triple among 29
    # isolated vertices about 0.5 s; both now take a few milliseconds
    start = time.process_time()
    three_cliques = disjoint_union(disjoint_union(clique_graph(16), clique_graph(16)),
                                   clique_graph(16))
    canon.canonical_code_bytes((2,), 48, three_cliques.relations)
    canon.canonical_code_bytes((3,), 32, (frozenset({(0, 1, 2)}),))
    assert time.process_time() - start < 2.0


def test_clique_codes_differ_by_size():
    codes = {canonical_code(clique_graph(n)) for n in range(6)}
    assert len(codes) == 6


def test_code_invariance_exhaustive_small():
    structs = [
        path_graph(4),
        clique_graph(4),
        acyclic_tournament(4),
        make_struct((2, 1), 3, [[(0, 1), (1, 2)], [(2,)]]),
    ]
    for s in structs:
        base = canonical_code(s)
        for perm in itertools.permutations(range(s.domain_size)):
            rels = [
                [tuple(perm[x] for x in t) for t in rel] for rel in s.relations
            ]
            relabeled = make_struct(s.signature.arities, s.domain_size, rels)
            assert canonical_code(relabeled) == base


def _discrete(m, relations):
    return len(set(canon.refined_colors(m, relations))) == m


def _sweep_limit_cases():
    """The sweep's limit: dense digraphs with loops and a mark (refinement
    discrete, so the form comes from the color order alone) and symmetric
    ones whose ties the search must break."""
    rng = random.Random(13)
    cases = []
    for m in (7, 8):
        arcs = frozenset((rng.randrange(m), rng.randrange(m)) for _ in range(2 * m))
        cases.append(((2, 1), m, (arcs, frozenset({(0,), (3,)}))))
    cycle = frozenset((x, (x + 1) % 8) for x in range(8))
    cases.append(((2, 1), 8, (cycle, frozenset({(0,)}))))
    # one color class each, where vertex order is not the minimum
    cases.append(((2, 1), 7, (frozenset((x, (x + 1) % 7) for x in range(7)), frozenset())))
    residues = {1, 2, 4}
    tournament = frozenset((x, y) for x in range(7) for y in range(7) if (y - x) % 7 in residues)
    cases.append(((2,), 7, (tournament,)))
    cases.append(((3,), 7, (frozenset({(0, 1, 1), (1, 2, 2), (3, 4, 5), (5, 4, 3)}),)))
    cases.append(((2, 1), 7, (frozenset({(0, 1), (1, 0), (2, 2)}), frozenset({(4,), (5,)}))))
    return cases


def test_search_agrees_with_sweep_up_to_eight_vertices():
    cases = _sweep_limit_cases()
    assert {_discrete(m, rels) for _, m, rels in cases} == {True, False}
    for arities, m, rels in cases:
        assert canon.canonical_form(arities, m, rels) == brute_force_form(arities, m, rels)


def _digest_structures():
    """Seeded structures on 0..16 vertices, arities 1-3, with loops and
    repeated entries; refinement is discrete on about half of them."""
    rng = random.Random(20261018)
    out = []
    for m in range(17):
        perm = list(range(m))
        rng.shuffle(perm)
        for arities in ((1,), (2,), (3,), (2, 1), (3, 2, 1)):
            rels = []
            for a in arities:
                count = rng.randint(0, 2 * m + 2) if m else 0
                rels.append(frozenset(
                    tuple(rng.randrange(m) for _ in range(a)) for _ in range(count)
                ))
            out.append((arities, m, tuple(rels)))
        cycle = frozenset((perm[x], perm[(x + 1) % m]) for x in range(m))
        loops = frozenset((perm[x], perm[x]) for x in range(0, m, 2))
        triples = frozenset(
            (perm[x], perm[(x + 1) % m], perm[(x + 1) % m]) for x in range(m)
        )
        halves = frozenset(
            (perm[x], perm[y]) for x in range(m) for y in range(m)
            if x != y and (x < m // 2) == (y < m // 2)
        )
        if m <= 11:  # cycles branch widely: the form puts non-neighbours first
            out.append(((2,), m, (cycle,)))
            out.append(((2, 2), m, (cycle, loops)))
        out.append(((3, 1), m, (triples, frozenset((perm[x],) for x in range(0, m, 3)))))
        out.append(((2,), m, (halves,)))
        out.append(((1, 2, 3), m, (frozenset(), frozenset(), frozenset())))
    return out


def test_code_bytes_pinned_beyond_the_sweep_limit():
    # digest recorded before the discrete shortcut and the once-per-refinement
    # tuple positions went in: codes, and so type order, must not move
    structures = _digest_structures()
    assert sum(_discrete(m, rels) for _, m, rels in structures) == 79
    assert len(structures) == 160
    digest = hashlib.sha256()
    for arities, m, rels in structures:
        digest.update(canon.canonical_code_bytes(arities, m, rels))
    assert digest.hexdigest() == (
        "0777caae8a3f9bd92002aa7a8044b0da3508930da1776cc30df43e1b40719dba"
    )


def test_canonical_order_relabels_to_the_form():
    # relabelling by the returned order gives back the form's color sequence
    # and staged relations, on the search path and the discrete one
    cases = _digest_structures() + _sweep_limit_cases()
    for arities, m, rels in cases:
        form, order = canon.canonical_order(arities, m, rels)
        assert sorted(order) == list(range(m))
        colors = canon.refined_colors(m, rels)
        assert ordered_form(arities, m, rels, colors, order) == form, (arities, m)


# ---------------------------------------------------------------------------
# Differential test against networkx (m up to 40)
# ---------------------------------------------------------------------------


def _relabeled(m, relations, rng):
    label = list(range(m))
    rng.shuffle(label)
    return tuple(frozenset(tuple(label[x] for x in t) for t in rel) for rel in relations)


def _random_digraph(rng, m):
    density = rng.choice((0.02, 0.05, 0.15, 0.5))
    arcs = {(x, y) for x in range(m) for y in range(m) if rng.random() < density}
    marks = {(v,) for v in range(m) if rng.random() < 0.3}
    return frozenset(arcs), frozenset(marks)


def _perturbed_digraph(rng, m, relations):
    arcs, marks = map(set, relations)
    if rng.random() < 0.25:
        marks ^= {(rng.randrange(m),)}
    else:
        arcs ^= {(rng.randrange(m), rng.randrange(m))}
    return frozenset(arcs), frozenset(marks)


def _nx_digraph(nx, m, relations):
    arcs, marks = relations
    g = nx.DiGraph()
    g.add_nodes_from((v, {"mark": (v,) in marks}) for v in range(m))
    g.add_edges_from(arcs)
    return g


def _random_ternary(rng, m):
    count = rng.randint(m // 2, 3 * m)
    return (frozenset(tuple(rng.randrange(m) for _ in range(3)) for _ in range(count)),)


def _perturbed_ternary(rng, m, relations):
    triples = set(relations[0])
    if triples and rng.random() < 0.5:
        triples.remove(rng.choice(sorted(triples)))
    triples.add(tuple(rng.randrange(m) for _ in range(3)))
    return (frozenset(triples),)


def _nx_incidence(nx, m, relations):
    """Vertex and tuple nodes; an edge carries the positions the vertex holds."""
    g = nx.Graph()
    g.add_nodes_from((("v", x), {"kind": "vertex"}) for x in range(m))
    for j, t in enumerate(relations[0]):
        g.add_node(("t", j), kind="tuple")
        for x in set(t):
            g.add_edge(("t", j), ("v", x), positions=tuple(q for q, y in enumerate(t) if y == x))
    return g


def _agree_with_networkx(rng, arities, draw, perturb, is_isomorphic, trials, small):
    """Odd trials draw two structures on at most `small` vertices, so both
    answers occur; even trials perturb one on up to 40 vertices."""
    answers = []
    for trial in range(trials):
        m = rng.randint(1, small) if trial % 2 else rng.randint(small + 1, 40)
        rels = draw(rng, m)
        code = canon.canonical_code_bytes(arities, m, rels)
        assert canon.canonical_code_bytes(arities, m, _relabeled(m, rels, rng)) == code
        other = _relabeled(m, perturb(rng, m, rels) if trial % 2 == 0 else draw(rng, m), rng)
        iso = is_isomorphic(m, rels, other)
        assert (canon.canonical_code_bytes(arities, m, other) == code) == iso, (m, rels, other)
        answers.append(iso)
    return answers


def test_digraph_codes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    mark = nx.algorithms.isomorphism.categorical_node_match("mark", None)

    def is_isomorphic(m, left, right):
        g, h = _nx_digraph(nx, m, left), _nx_digraph(nx, m, right)
        # VF2++ orders by labels and degrees; plain VF2 backtracks for more
        # than a minute over the isolated vertices of some 29-vertex pairs,
        # so it only cross-checks the small ones
        iso = nx.vf2pp_is_isomorphic(g, h, node_label="mark")
        if m <= 6:
            assert nx.is_isomorphic(g, h, node_match=mark) == iso
        return iso

    answers = _agree_with_networkx(
        random.Random(41), (2, 1), _random_digraph, _perturbed_digraph, is_isomorphic, 200, 3
    )
    assert 0 < sum(answers) < len(answers)


def test_ternary_codes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    iso_ = nx.algorithms.isomorphism
    kind = iso_.categorical_node_match("kind", None)
    positions = iso_.categorical_edge_match("positions", None)

    def is_isomorphic(m, left, right):
        return nx.is_isomorphic(
            _nx_incidence(nx, m, left), _nx_incidence(nx, m, right),
            node_match=kind, edge_match=positions,
        )

    answers = _agree_with_networkx(
        random.Random(43), (3,), _random_ternary, _perturbed_ternary, is_isomorphic, 120, 3
    )
    assert 0 < sum(answers) < len(answers)


def _symmetric_arcs(edges):
    edges = list(edges)
    return frozenset(edges) | frozenset((y, x) for x, y in edges)


def test_rook_graph_and_shrikhande_graph_codes_differ():
    # both strongly regular (16, 6, 2, 2): refinement leaves one class
    cells = [(a, b) for a in range(4) for b in range(4)]
    index = {cell: i for i, cell in enumerate(cells)}
    rook = _symmetric_arcs(
        (index[x], index[y]) for x in cells for y in cells
        if x != y and (x[0] == y[0] or x[1] == y[1])
    )
    steps = {(0, 1), (1, 0), (1, 1)}
    shrikhande = _symmetric_arcs(
        (index[(a, b)], index[((a + da) % 4, (b + db) % 4)])
        for a, b in cells for da, db in steps
    )
    assert len(rook) == len(shrikhande) == 96
    assert len(set(canon.refined_colors(16, (rook,)))) == 1
    assert len(set(canon.refined_colors(16, (shrikhande,)))) == 1
    assert canon.canonical_code_bytes((2,), 16, (rook,)) != canon.canonical_code_bytes(
        (2,), 16, (shrikhande,)
    )
    nx = pytest.importorskip("networkx")
    assert not nx.is_isomorphic(nx.DiGraph(list(rook)), nx.DiGraph(list(shrikhande)))


def test_paley13_code_invariant_under_relabelings():
    squares = {x * x % 13 for x in range(1, 13)}
    paley = frozenset((x, y) for x in range(13) for y in range(13) if (x - y) % 13 in squares)
    code = canon.canonical_code_bytes((2,), 13, (paley,))
    rng = random.Random(13)
    for _ in range(10):
        assert canon.canonical_code_bytes((2,), 13, _relabeled(13, (paley,), rng)) == code
    # one edge flipped both ways: no longer vertex-transitive, a different code
    x, y = next(iter(paley))
    assert canon.canonical_code_bytes((2,), 13, (paley - {(x, y), (y, x)},)) != code


# ---------------------------------------------------------------------------
# Twin transpositions beyond the sweep limit (m up to 40)
# ---------------------------------------------------------------------------


def _blown_up(rng, arities, base_m, base_rels, sizes=None):
    """Each base vertex becomes 2-4 twins (``sizes`` when given) that share
    its tuples; on a binary symbol the twins of one vertex also form a clique
    or an independent set."""
    sizes = sizes or [rng.randint(2, 4) for _ in range(base_m)]
    members, m = [], 0
    for k in sizes:
        members.append(range(m, m + k))
        m += k
    rels = []
    for arity, rel in zip(arities, base_rels):
        out = {t for b in rel for t in itertools.product(*(members[x] for x in b))}
        if arity == 2:
            for group in members:
                if rng.random() < 0.5:
                    out |= {(x, y) for x in group for y in group if x != y}
        rels.append(frozenset(out))
    return m, tuple(rels), sizes


def _base_digraph(rng, kind):
    """A G(6, 1/2), or a tournament on 6 vertices, with a few loops and a unary mark."""
    pairs = itertools.combinations(range(6), 2)
    if kind == "graph":
        arcs = {a for x, y in pairs if rng.random() < 0.5 for a in ((x, y), (y, x))}
    else:
        arcs = {(x, y) if rng.random() < 0.5 else (y, x) for x, y in pairs}
    arcs |= {(v, v) for v in range(6) if rng.random() < 0.2}
    return (frozenset(arcs), frozenset((v,) for v in range(6) if rng.random() < 0.3))


def _cliques(sizes, looped=(), marked=()):
    """Disjoint cliques of the given sizes; clique i gets loops if i is in
    ``looped`` and the unary mark if i is in ``marked``."""
    arcs, marks, start = set(), set(), 0
    for i, r in enumerate(sizes):
        block = range(start, start + r)
        arcs |= {(x, y) for x in block for y in block if x != y or i in looped}
        marks |= {(x,) for x in block if i in marked}
        start += r
    return start, (frozenset(arcs), frozenset(marks))


def _complete_bipartite(a, b, marked_side=False):
    arcs = {e for x in range(a) for y in range(a, a + b) for e in ((x, y), (y, x))}
    return a + b, (frozenset(arcs), frozenset((x,) for x in range(a) if marked_side))


def _twin_rich_digraphs(rng):
    """(m, relations, partner) triples of signature (2, 1), m <= 40: blown-up
    G(6, 1/2) and tournaments, m.K_r and K_{a,b}, with loops and a unary
    mark; the partner is a structure on the same m that may or may not be
    isomorphic."""
    cases = []
    for kind in ("graph", "tournament") * 4:
        base = _base_digraph(rng, kind)
        m, rels, sizes = _blown_up(rng, (2, 1), 6, base)
        shuffled = sizes[:]
        rng.shuffle(shuffled)
        cases.append((m, rels, _blown_up(random.Random(rng.random()), (2, 1), 6, base, shuffled)[1]))
        cases.append((m, rels, _perturbed_digraph(rng, m, rels)))
    for sizes in ((10,) * 4, (5,) * 8, (8,) * 5, (13, 13, 14)):
        m, rels = _cliques(sizes)
        cases.append((m, rels, _perturbed_digraph(rng, m, rels)))
        cases.append((m, _cliques(sizes, looped=(0,))[1], _cliques(sizes, looped=(1,))[1]))
        cases.append((m, _cliques(sizes, marked=(0,))[1], _cliques(sizes, looped=(0,))[1]))
    cases.append((40, _cliques((12, 12, 16), marked=(0,))[1], _cliques((12, 12, 16), marked=(1,))[1]))
    for a, b in ((20, 20), (13, 27), (3, 37)):
        m, rels = _complete_bipartite(a, b)
        cases.append((m, rels, _perturbed_digraph(rng, m, rels)))
        cases.append((m, _complete_bipartite(a, b, True)[1], _complete_bipartite(b, a, True)[1]))
    return cases


def test_twin_rich_digraph_codes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(22)
    answers = []
    for m, rels, partner in _twin_rich_digraphs(rng):
        # vertices 0 and 1 are twins: copies of one base vertex, or one clique or side
        assert m <= 40 and canon._pair_search(m, rels, [-1] * m)[1](0, 1)
        code = canon.canonical_code_bytes((2, 1), m, rels)
        for _ in range(2):
            assert canon.canonical_code_bytes((2, 1), m, _relabeled(m, rels, rng)) == code
        other = _relabeled(m, partner, rng)
        iso = nx.vf2pp_is_isomorphic(_nx_digraph(nx, m, rels), _nx_digraph(nx, m, other),
                                     node_label="mark")
        assert (canon.canonical_code_bytes((2, 1), m, other) == code) == iso, (m, rels, other)
        answers.append(iso)
    assert 0 < sum(answers) < len(answers)


def test_twin_rich_ternary_codes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    iso_ = nx.algorithms.isomorphism
    kind = iso_.categorical_node_match("kind", None)
    positions = iso_.categorical_edge_match("positions", None)
    rng = random.Random(23)
    answers = []
    for _ in range(8):
        base = (frozenset(tuple(rng.randrange(5) for _ in range(3)) for _ in range(4)),)
        m, rels, sizes = _blown_up(rng, (3,), 5, base)
        shuffled = sizes[:]
        rng.shuffle(shuffled)
        code = canon.canonical_code_bytes((3,), m, rels)
        assert canon.canonical_code_bytes((3,), m, _relabeled(m, rels, rng)) == code
        for partner in (_blown_up(rng, (3,), 5, base, shuffled)[1],
                        _perturbed_ternary(rng, m, rels)):
            other = _relabeled(m, partner, rng)
            iso = nx.is_isomorphic(_nx_incidence(nx, m, rels), _nx_incidence(nx, m, other),
                                   node_match=kind, edge_match=positions)
            assert (canon.canonical_code_bytes((3,), m, other) == code) == iso, (m, rels, other)
            answers.append(iso)
    assert 0 < sum(answers) < len(answers)


# ---------------------------------------------------------------------------
# Colour classes that are twin classes: the form with no search
# ---------------------------------------------------------------------------


def _class_twins(arities, m, relations):
    """Per colour class of two or more vertices, whether all its members are
    mutual twins (checked against the class's first member; being twins is
    an equivalence)."""
    classes = {}
    for v, c in enumerate(canon.refined_colors(m, relations)):
        classes.setdefault(c, []).append(v)
    parts = canon._pair_search if max(arities, default=0) <= 2 else canon._tuple_search
    swappable = parts(m, relations, [-1] * m)[1]
    return [all(swappable(cls[0], y) for y in cls[1:]) for cls in classes.values() if len(cls) > 1]


def _small_twin_rich(rng):
    """(arities, m, relations) with m <= 8: blow-ups of random digraphs on
    two or three vertices with loops and a unary mark, r.K_s with loops or a
    mark on one clique, ternary blow-ups, and unions in which some colour
    classes are twin classes and others are not; each seededly relabelled."""
    cases = []
    for _ in range(12):
        base_m = rng.choice((2, 3))
        arcs = {(x, y) for x in range(base_m) for y in range(base_m) if rng.random() < 0.4}
        marks = {(v,) for v in range(base_m) if rng.random() < 0.4}
        sizes = [rng.randint(1, 2 if base_m == 3 else 3) for _ in range(base_m)]
        m, rels, _ = _blown_up(rng, (2, 1), base_m, (arcs, marks), sizes)
        cases.append(((2, 1), m, rels))
    for sizes in ((2, 2), (3, 3), (2, 2, 2), (2, 4), (2, 3), (1, 2, 3)):
        for looped, marked in (((), ()), ((0,), ()), ((), (1,))):
            m, rels = _cliques(sizes, looped, marked)
            cases.append(((2, 1), m, rels))
    for _ in range(8):
        base_m = rng.choice((2, 3))
        base = (frozenset(tuple(rng.randrange(base_m) for _ in range(3)) for _ in range(3)),)
        m, rels, _ = _blown_up(rng, (3,), base_m, base, [rng.randint(1, 2) for _ in range(base_m)])
        cases.append(((3,), m, rels))
    # a marked triangle (one twin class) beside an unmarked 5-cycle (one
    # class, no twins); a looped pair beside a directed 3-cycle; a ternary
    # twin pair beside a cyclic ternary structure on four vertices of one colour
    cycle5 = {(3 + x, 3 + (x + 1) % 5) for x in range(5)}
    cases.append(((2, 1), 8, (frozenset(cycle5 | {e[::-1] for e in cycle5}
                                        | {(x, y) for x in range(3) for y in range(3) if x != y}),
                              frozenset({(0,), (1,), (2,)}))))
    cases.append(((2, 1), 7, (frozenset({(0, 0), (1, 1), (0, 1), (1, 0), (2, 3), (3, 4), (4, 2),
                                         (5, 6), (6, 5)}), frozenset({(5,), (6,)}))))
    cases.append(((3,), 7, (frozenset({(0, 0, 2), (1, 1, 2), (0, 1, 2), (1, 0, 2),
                                       (3, 4, 5), (4, 5, 6), (5, 6, 3), (6, 3, 4)}),)))
    return [(arities, m, _relabeled(m, rels, rng)) for arities, m, rels in cases]


def test_twin_class_forms_match_the_permutation_sweep():
    # where every colour class is one twin class no search runs; the form and
    # the returned order must still be the sweep's minimum and relabel to it
    shortcut = partial = 0
    for arities, m, rels in _small_twin_rich(random.Random(28)):
        assert m <= 8
        twins = _class_twins(arities, m, rels)
        shortcut += bool(twins) and all(twins)
        partial += any(twins) and not all(twins)
        form, order = canon.canonical_order(arities, m, rels)
        assert form == brute_force_form(arities, m, rels), (arities, m, rels)
        assert ordered_form(arities, m, rels, canon.refined_colors(m, rels), order) == form
    assert shortcut >= 20 and partial >= 5, (shortcut, partial)


def test_labelling_and_serializer_give_the_sweep_form():
    # the subset walk calls the labelling step and the serializer on their
    # own: together they must give canonical_order's form and order, and the
    # sweep's minimum, on both search paths, twin classes and m = 0
    rng = random.Random(30)
    cases = [(arities, 0, tuple(frozenset() for _ in arities))
             for arities in ((), (1,), (2, 1), (3, 2, 1))]
    for m in [1, 2, 3, 4, 5, 6] * 8 + [7, 8]:
        arities, rels = _random_narrow(rng, m)
        cases.append((arities, m, rels))
        cases.append(((3, 1), m, (
            frozenset(tuple(rng.randrange(m) for _ in range(3)) for _ in range(m)),
            frozenset((v,) for v in range(m) if rng.random() < 0.3))))
    cases += _small_twin_rich(random.Random(28))
    searched = 0
    for arities, m, rels in cases:
        color_seq, order = canon.canonical_labelling(arities, m, rels)
        form = canon.labelled_form(arities, m, rels, color_seq, order)
        assert (form, order) == canon.canonical_order(arities, m, rels), (arities, m, rels)
        assert form == brute_force_form(arities, m, rels), (arities, m, rels)
        assert canon.canonical_code_bytes(arities, m, rels) == canon.form_bytes(form)
        searched += not _discrete(m, rels)
    assert len(cases) == 145 and searched >= 50, searched


def _twin_rich_up_to_twenty(rng):
    """(arities, m, relations) with 8 < m <= 20 where colour classes are
    often twin classes: blown-up digraphs and ternary structures, r.K_s,
    K_{a,b} and, as controls, blow-ups of 5-cycles."""
    cases = []
    for kind in ("graph", "tournament") * 3:
        sizes = [rng.randint(1, 3) for _ in range(6)]
        m, rels, _ = _blown_up(rng, (2, 1), 6, _base_digraph(rng, kind), sizes)
        cases.append(((2, 1), m, rels))
    for _ in range(6):
        base = (frozenset(tuple(rng.randrange(5) for _ in range(3)) for _ in range(5)),)
        m, rels, _ = _blown_up(rng, (3,), 5, base)
        cases.append(((3,), m, rels))
    for sizes in ((5,) * 4, (2,) * 10, (7, 7, 6), (3, 4, 5, 6)):
        cases.append(((2, 1), *_cliques(sizes)))
        cases.append(((2, 1), *_cliques(sizes, looped=(0,), marked=(1,))))
    for a, b in ((10, 10), (4, 16)):
        cases.append(((2, 1), *_complete_bipartite(a, b, True)))
    cycle5 = (frozenset(e for x in range(5) for e in ((x, (x + 1) % 5), ((x + 1) % 5, x))),
              frozenset())
    for _ in range(2):
        m, rels, _ = _blown_up(rng, (2, 1), 5, cycle5, [rng.randint(2, 4) for _ in range(5)])
        cases.append(((2, 1), m, rels))
    return cases


def test_twin_class_codes_invariant_up_to_twenty_vertices():
    rng = random.Random(29)
    shortcut = 0
    for arities, m, rels in _twin_rich_up_to_twenty(rng):
        assert 8 < m <= 20, m
        twins = _class_twins(arities, m, rels)
        shortcut += bool(twins) and all(twins)
        form, order = canon.canonical_order(arities, m, rels)
        assert ordered_form(arities, m, rels, canon.refined_colors(m, rels), order) == form
        code = canon.form_bytes(form)
        for _ in range(3):
            other = _relabeled(m, rels, rng)
            other_form, other_order = canon.canonical_order(arities, m, other)
            assert canon.form_bytes(other_form) == code, (arities, m, rels)
            colors = canon.refined_colors(m, other)
            assert ordered_form(arities, m, other, colors, other_order) == other_form
    assert shortcut >= 15, shortcut


# ---------------------------------------------------------------------------
# The integer path for arities <= 2 against the generic one
# ---------------------------------------------------------------------------


def _reference_initial_colors(m, relations):
    """Per vertex, the sorted ((symbol, position), count) items, numbered in order."""
    per_vertex = [Counter() for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            for p, x in enumerate(t):
                per_vertex[x][(ri, p)] += 1
    sigs = [tuple(sorted(c.items())) for c in per_vertex]
    ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [ids[sig] for sig in sigs]


def _reference_staged(m, relations, labeling=None):
    """Per stage p, per symbol, the sorted relabeled tuples whose largest entry is p."""
    stages = [[[] for _ in relations] for _ in range(m)]
    for ri, rel in enumerate(relations):
        for t in rel:
            if labeling is not None:
                t = tuple(labeling[x] for x in t)
            stages[max(t)][ri].append(t)
    return tuple(tuple(tuple(sorted(sym)) for sym in stage) for stage in stages)


def _random_narrow(rng, m):
    """Arities <= 2 with several symbols, loops and unary marks; the arcs of
    some symbols are symmetric, so refinement often leaves ties."""
    arities = rng.choice(((2,), (2, 1), (1, 2, 2), (2, 2, 1, 1), (1,)))
    rels = []
    for arity in arities:
        if arity == 1:
            rels.append(frozenset((v,) for v in range(m) if rng.random() < 0.3))
            continue
        density = rng.choice((0.03, 0.1, 0.3, 0.6))
        arcs = {(x, y) for x in range(m) for y in range(m) if rng.random() < density}
        if rng.random() < 0.5:
            arcs |= {(y, x) for x, y in arcs}
        rels.append(frozenset(arcs))
    return arities, tuple(rels)


def test_integer_refinement_matches_tuple_refinement():
    rng = random.Random(31)
    ties = 0
    for trial in range(150):
        m = rng.randint(1, 40) if trial % 3 else rng.randint(1, 8)
        arities, rels = _random_narrow(rng, m)
        if trial % 3 == 0:  # twins: blow up a small base
            m, rels, _ = _blown_up(rng, arities, m, rels)
        colors = canon.refined_colors(m, rels)
        assert colors == canon._refine_tuples(m, rels, canon._initial_colors(m, rels))
        ties += len(set(colors)) < m
    assert ties > 50


def test_initial_colors_and_stages_match_reference():
    rng = random.Random(37)
    for _ in range(150):
        m = rng.randint(1, 40)
        if rng.random() < 0.3:
            arities = (3, 1)
            rels = (frozenset(tuple(rng.randrange(m) for _ in range(3)) for _ in range(2 * m)),
                    frozenset((v,) for v in range(m) if rng.random() < 0.3))
        else:
            arities, rels = _random_narrow(rng, m)
        assert canon._initial_colors(m, rels) == _reference_initial_colors(m, rels)
        labeling = list(range(m))
        rng.shuffle(labeling)
        assert canon.staged_relations(m, rels) == _reference_staged(m, rels)
        assert canon.staged_relations(m, rels, labeling) == _reference_staged(m, rels, labeling)
    assert canon.staged_relations(3, ()) == _reference_staged(3, ()) == ((), (), ())


def _sign(a, b):
    return (a > b) - (a < b)


def test_integer_stages_and_twin_tests_order_like_tuple_ones():
    # on every partial placement, the integer stages rank the candidates for
    # the next position exactly as the relabeled tuples do, and both twin
    # tests agree on every pair
    rng = random.Random(41)
    for _ in range(120):
        m = rng.randint(2, 12)
        _, rels = _random_narrow(rng, m)
        placed = rng.sample(range(m), rng.randint(0, m - 1))
        assigned = [-1] * m
        for p, v in enumerate(placed):
            assigned[v] = p
        pair_stage, pair_swappable = canon._pair_search(m, rels, assigned)
        tuple_stage, tuple_swappable = canon._tuple_search(m, rels, assigned)
        p = len(placed)
        free = [v for v in range(m) if assigned[v] < 0]
        pairs = {v: pair_stage(v, p) for v in free}
        tuples = {v: tuple_stage(v, p) for v in free}
        for u in free:
            for v in free:
                assert _sign(pairs[u], pairs[v]) == _sign(tuples[u], tuples[v])
        for x, y in itertools.combinations(range(m), 2):
            assert pair_swappable(x, y) == tuple_swappable(x, y)
