import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import are_isomorphic_brute_force, are_label_isomorphic_brute_force
from relprof.structures import (
    RelStruct,
    Signature,
    acyclic_tournament,
    are_isomorphic,
    canonical_code,
    clique_graph,
    cyclic_tournament_3,
    digraph,
    disjoint_union,
    graph_from_edges,
    independent_graph,
    is_autonomous,
    is_local_iso,
    make_struct,
    marked_code,
    path_graph,
    restrict,
)


def relabel(struct, perm):
    rels = [
        [tuple(perm[x] for x in t) for t in rel]
        for rel in struct.relations
    ]
    return make_struct(struct.signature.arities, struct.domain_size, rels)


def test_signature_rejects_nonpositive_arity():
    with pytest.raises(ValueError):
        Signature((2, 0))


def test_relstruct_validation():
    with pytest.raises(ValueError):
        make_struct((2,), 3, [[(0, 1, 2)]])
    with pytest.raises(ValueError):
        make_struct((2,), 2, [[(0, 3)]])


def test_restrict_clique_pair_gives_edge():
    k2 = restrict(clique_graph(4), {0, 1})
    assert k2 == clique_graph(2)


def test_restrict_full_domain_is_identity():
    p = path_graph(5)
    assert restrict(p, range(5)) == p


def test_restrict_path_six_to_013_has_one_edge():
    # vertices 0-1 adjacent, 3 isolated after restriction
    r = restrict(path_graph(6), {0, 1, 3})
    assert r == graph_from_edges(3, [(0, 1)])


def test_restrict_rejects_out_of_range():
    with pytest.raises(IndexError):
        restrict(path_graph(3), {0, 5})


def test_restrict_functorial():
    p = path_graph(6)
    inner = restrict(restrict(p, {0, 2, 3, 5}), {0, 2, 3})
    # image of {0,2,3} in the re-indexed {0,2,3,5} is {0,3,5}
    assert are_isomorphic(inner, restrict(p, {0, 3, 5}))


def test_iso_k3_relabelings():
    k3 = clique_graph(3)
    for perm in itertools.permutations(range(3)):
        assert are_isomorphic(k3, relabel(k3, perm))


def test_iso_cycle_vs_acyclic_tournament():
    assert not are_isomorphic(cyclic_tournament_3(), acyclic_tournament(3))
    assert not are_isomorphic_brute_force(cyclic_tournament_3(), acyclic_tournament(3))


def test_iso_empty_structures():
    e1 = make_struct((2,), 0, [[]])
    e2 = make_struct((2,), 0, [[]])
    assert are_isomorphic(e1, e2)


def test_iso_signature_mismatch():
    with pytest.raises(ValueError):
        are_isomorphic(make_struct((2,), 1, [[]]), make_struct((1,), 1, [[]]))


def test_code_constant_for_empty_structure():
    assert canonical_code(make_struct((), 0, [])) == canonical_code(make_struct((), 0, []))


def test_code_distinguishes_tournaments():
    assert canonical_code(cyclic_tournament_3()) != canonical_code(acyclic_tournament(3))


def test_local_iso_identity_and_empty():
    p = path_graph(4)
    assert is_local_iso(p, p, {0: 0, 1: 1})
    assert is_local_iso(p, p, {})


def test_local_iso_order_reversal_fails():
    chain = digraph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_local_iso(chain, chain, {0: 1, 1: 0})
    assert is_local_iso(chain, chain, {0: 0, 1: 1})


def test_local_iso_rejects_non_injective():
    p = path_graph(3)
    with pytest.raises(ValueError):
        is_local_iso(p, p, {0: 1, 2: 1})


def test_autonomous_trivial_cases():
    p = path_graph(3)
    assert is_autonomous(p, set())
    assert is_autonomous(p, {1})
    assert is_autonomous(p, {0, 1, 2})


def test_autonomous_module_of_three_path():
    # in the 3-path both endpoints attach to the middle vertex, so {0,2} is a
    # module; a fourth vertex breaks it
    assert is_autonomous(path_graph(3), {0, 2})
    assert not is_autonomous(path_graph(4), {0, 2})
    assert not is_autonomous(path_graph(4), {0, 1})


def test_autonomous_requires_binary():
    with pytest.raises(ValueError):
        is_autonomous(make_struct((1,), 2, [[(0,)]]), {0})


small_structs = st.integers(min_value=0, max_value=5).flatmap(
    lambda m: st.builds(
        lambda arcs, marks: make_struct(
            (2, 1),
            m,
            [set(arcs), set(marks)],
        ),
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=max(m - 1, 0)),
                st.integers(min_value=0, max_value=max(m - 1, 0)),
            ),
            max_size=12,
        )
        if m
        else st.just(set()),
        st.sets(
            st.tuples(st.integers(min_value=0, max_value=max(m - 1, 0))), max_size=5
        )
        if m
        else st.just(set()),
    )
)


@settings(max_examples=150, deadline=None)
@given(small_structs, st.randoms(use_true_random=False))
def test_code_invariant_under_relabeling(struct, rng):
    perm = list(range(struct.domain_size))
    rng.shuffle(perm)
    assert canonical_code(struct) == canonical_code(relabel(struct, perm))


@settings(max_examples=80, deadline=None)
@given(small_structs, small_structs)
def test_iso_agrees_with_brute_force(left, right):
    if left.signature != right.signature:
        return
    assert are_isomorphic(left, right) == are_isomorphic_brute_force(left, right)


def test_disjoint_union_clique_independent():
    g = disjoint_union(clique_graph(3), independent_graph(3))
    assert g.domain_size == 6
    assert are_isomorphic(restrict(g, {0, 1, 2}), clique_graph(3))
    assert are_isomorphic(restrict(g, {3, 4, 5}), independent_graph(3))


def _labelled(rng, arities, m):
    """A random structure on m <= 6 elements, loops included, and a label
    (or None) per element."""
    rels = [{tuple(rng.randrange(m) for _ in range(a)) for _ in range(rng.randrange(2 * m + 1))}
            if m else set() for a in arities]
    return make_struct(arities, m, rels), [rng.choice((None, "a", "b")) for _ in range(m)]


def _marked_key(struct, labels):
    return marked_code(struct.signature, struct.domain_size, struct.relations, labels)


def test_marked_code_is_invariant_under_relabeling():
    rng = random.Random("marked-code:relabel")
    for trial in range(80):
        m = rng.randrange(7)
        s, labels = _labelled(rng, rng.choice(((2, 1), (3,), (2,))), m)
        perm = list(range(m))
        rng.shuffle(perm)
        moved = [None] * m
        for v in range(m):
            moved[perm[v]] = labels[v]
        t = relabel(s, perm)
        assert are_label_isomorphic_brute_force(s, labels, t, moved)
        assert _marked_key(s, labels) == _marked_key(t, moved), trial


def test_marked_code_tells_labelled_structures_apart_as_the_oracle():
    # equal keys iff some isomorphism keeps every label: after one label
    # moves to an unlabelled element, and between independent draws
    p = path_graph(3)
    assert _marked_key(p, ["a", None, None]) != _marked_key(p, [None, "a", None])
    assert _marked_key(p, ["a", None, None]) == _marked_key(p, [None, None, "a"])
    rng = random.Random("marked-code:moves")
    differ = 0
    for trial in range(150):
        m = rng.randrange(2, 7)
        arities = rng.choice(((2,), (2, 1), (3,)))
        s, labels = _labelled(rng, arities, m)
        empty, full = rng.sample(range(m), 2)
        labels[empty], labels[full] = None, "a"
        source = rng.choice([v for v in range(m) if labels[v] is not None])
        target = rng.choice([v for v in range(m) if labels[v] is None])
        moved = list(labels)
        moved[source], moved[target] = None, labels[source]
        same = _marked_key(s, labels) == _marked_key(s, moved)
        assert same == are_label_isomorphic_brute_force(s, labels, s, moved), trial
        differ += not same
        t, other = _labelled(rng, arities, m)
        assert (_marked_key(s, labels) == _marked_key(t, other)) == \
            are_label_isomorphic_brute_force(s, labels, t, other), trial
    assert differ > 100


def test_one_label_on_every_element_groups_as_marking_would():
    # the unmarked code of a structure whose elements all carry one label
    # groups structures as the code with that label marked does, and never
    # meets the key of the label on fewer elements
    rng = random.Random("marked-code:one-label")
    drawn = [_labelled(rng, (2, 1), rng.randrange(1, 6))[0] for _ in range(60)]
    keys, marked = [], []
    for s in drawn:
        m = s.domain_size
        key = _marked_key(s, ["a"] * m)
        assert key == (("a",), canonical_code(s))
        keys.append(key)
        mark = frozenset((v,) for v in range(m))
        marked.append(canonical_code(RelStruct(Signature((2, 1, 1)), m, s.relations + (mark,))))
        partial = ["a"] * m
        partial[rng.randrange(m)] = None
        assert _marked_key(s, partial) != key
    for i, j in itertools.combinations(range(len(drawn)), 2):
        assert (keys[i] == keys[j]) == (marked[i] == marked[j]), (i, j)
    assert len(set(keys)) < len(keys)  # some draws do share a key


def test_marked_codes_of_different_signatures_never_collide():
    # no signature here is another plus one unary symbol, the one case where
    # a one-label plain code could equal a marked one (see marked_code)
    rng = random.Random("marked-code:signatures")
    seen = {}
    for arities in ((2,), (3,), (2, 2), (1, 2)):
        for _ in range(60):
            s, labels = _labelled(rng, arities, rng.randrange(5))
            if rng.random() < 0.3:
                labels = ["a"] * len(labels)
            seen.setdefault(_marked_key(s, labels), set()).add(arities)
    assert all(len(sigs) == 1 for sigs in seen.values())
