import itertools
import random

import pytest

from oracles import is_monomorphic_part_oracle
from relprof.decomposition import (
    AddLayerReport,
    Decomposition,
    Monomial,
    _SubsetCodes,
    canonical_decomposition,
    is_monomorphic_part,
    largest_monomorphic_part,
    leading_monomial,
    leading_monomials,
    monomial_greater,
    predict_growth_degree,
    presentation_decomposition,
    verify_addlayer,
)
from relprof.fileformat import builtin
from relprof.presentations import (
    ACYCLIC,
    CLIQUE,
    INDEPENDENT,
    OMEGA,
    LexSumPresentation,
    compositions_of_size,
    enumerate_age,
    lexsum_tournament_fixture,
    realize_composition,
    slow_profile_structure,
    sum_of_cliques,
)
from relprof.structures import (
    acyclic_tournament,
    canonical_code,
    clique_graph,
    cyclic_tournament_3,
    digraph,
    disjoint_union,
    independent_graph,
    make_struct,
    path_graph,
)


def all_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


def test_monomorphic_part_trivial():
    p = path_graph(4)
    assert is_monomorphic_part(p, set())
    assert is_monomorphic_part(p, {2})


def test_monomorphic_part_path_pairs():
    # in the 3-path the endpoint pair is a part; in the 4-path no 2-subset is
    # (e.g. swapping 0 for 3 next to vertex 1 turns an edge into a non-edge)
    assert is_monomorphic_part(path_graph(3), {0, 2})
    p = path_graph(4)
    assert not is_monomorphic_part(p, {0, 3})
    assert not is_monomorphic_part(p, {0, 1})


def test_swap_test_matches_full_oracle():
    structs = [
        path_graph(4),
        clique_graph(4),
        cyclic_tournament_3(),
        disjoint_union(clique_graph(2), independent_graph(2)),
        acyclic_tournament(4),
    ]
    for s in structs:
        vertices = range(s.domain_size)
        for r in range(s.domain_size + 1):
            for block in itertools.combinations(vertices, r):
                assert is_monomorphic_part(s, block) == is_monomorphic_part_oracle(
                    s, block
                ), (s, block)


def test_subset_closure_of_parts():
    structs = [
        path_graph(5),
        disjoint_union(clique_graph(3), independent_graph(3)),
        acyclic_tournament(5),
    ]
    for s in structs:
        for r in range(s.domain_size + 1):
            for block in itertools.combinations(range(s.domain_size), r):
                if is_monomorphic_part(s, block):
                    for sub in itertools.combinations(block, max(r - 1, 0)):
                        assert is_monomorphic_part(s, sub)


def relabel(struct, perm):
    return make_struct(
        struct.signature.arities,
        struct.domain_size,
        [[tuple(perm[x] for x in t) for t in rel] for rel in struct.relations],
    )


def shuffled_lexsum_truncation(rng, m):
    """A random lexsum over a random index digraph, truncated to m vertices
    and relabelled; each block takes at least one vertex."""
    k = rng.randint(1, min(m, 4))
    arcs = [(i, j) for i in range(k) for j in range(k) if i != j and rng.random() < 0.5]
    kinds = [rng.choice((ACYCLIC, CLIQUE, INDEPENDENT)) for _ in range(k)]
    pres = LexSumPresentation(digraph(k, arcs), tuple((kind, OMEGA) for kind in kinds))
    counts = [1] * k
    for _ in range(m - k):
        counts[rng.randrange(k)] += 1
    perm = list(range(m))
    rng.shuffle(perm)
    return relabel(realize_composition(pres, counts), perm)


def marked_lexsum(rng, m):
    """A shuffled lexsum truncation with a random unary mark on top."""
    base = shuffled_lexsum_truncation(rng, m)
    marks = {(v,) for v in range(m) if rng.random() < 0.5}
    return make_struct((2, 1), m, [base.relations[0], marks])


def oracle_structures():
    rng = random.Random(14)
    structs = [shuffled_lexsum_truncation(rng, rng.randint(4, 8)) for _ in range(8)]
    structs += [marked_lexsum(rng, rng.randint(4, 7)) for _ in range(4)]
    structs.append(slow_profile_structure([1, 1, 2, 2, 3, 3, 3, 3], 7))
    return rng, structs


def blown_up_structure(rng):
    """A seeded random structure on at most 9 vertices, drawn so that swap
    twins occur: each vertex belongs to a class, and whether a tuple holds
    depends on its classes and the order pattern of its entries within a
    class (equal entries included, so loops and repeated entries occur),
    with a little noise on top.  Transposing two adjacent class members then
    preserves every tuple that does not contain both, and the vertices are
    relabelled at random."""
    arities = rng.choice(((1,), (2,), (2, 1), (3,), (2, 3)))
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    while sum(sizes) > 9:
        sizes.pop()
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    m = len(cls)
    relations = []
    for arity in arities:
        holds = {}
        rel = set()
        for t in itertools.product(range(m), repeat=arity):
            pattern = tuple(
                (a > b) - (a < b) if cls[a] == cls[b] else None
                for a, b in itertools.combinations(t, 2)
            )
            key = (tuple(cls[v] for v in t), pattern)
            if key not in holds:
                holds[key] = rng.random() < 0.5
            if holds[key] != (rng.random() < 0.03):
                rel.add(t)
        relations.append(rel)
    perm = list(range(m))
    rng.shuffle(perm)
    return relabel(make_struct(arities, m, relations), perm)


def walked_partition(s):
    """Classes of ~ with every pair walked and no twin certificate."""
    cache = _SubsetCodes(s)
    classes = []
    for x in range(s.domain_size):
        for members in classes:
            if cache._walk(min(members), x):
                members.add(x)
                break
        else:
            classes.append({x})
    return {frozenset(members) for members in classes}


def test_canonical_decomposition_matches_the_twin_free_walk():
    rng = random.Random(18)
    nontrivial = 0
    for _ in range(60):
        s = blown_up_structure(rng)
        blocks = {frozenset(members) for members, _ in canonical_decomposition(s).blocks}
        assert blocks == walked_partition(s), s
        nontrivial += any(len(b) > 1 for b in blocks)
        for block in blocks:
            assert is_monomorphic_part_oracle(s, block), (s, sorted(block))
        firsts = sorted(min(b) for b in blocks)
        for x, y in itertools.combinations(firsts, 2):
            assert not is_monomorphic_part_oracle(s, {x, y}), (s, x, y)
    assert nontrivial >= 20


def test_twin_certified_pairs_pass_the_walk():
    rng = random.Random(81)
    certified = 0
    for _ in range(60):
        s = blown_up_structure(rng)
        cache = _SubsetCodes(s)
        root = cache._twin_roots()
        for x, y in itertools.combinations(range(s.domain_size), 2):
            if root[x] == root[y]:
                certified += 1
                assert cache._walk(x, y), (s, x, y)
    assert certified >= 50


def test_swap_twin_classes_of_known_structures():
    def classes(s):
        root = _SubsetCodes(s)._twin_roots()
        return sorted(sorted(v for v in s.domain if root[v] == r) for r in set(root))

    # adjacent elements of a chain are twins, and so are all members of a clique
    assert classes(acyclic_tournament(5)) == [[0, 1, 2, 3, 4]]
    assert classes(disjoint_union(clique_graph(3), independent_graph(2))) == [[0, 1, 2], [3, 4]]
    # a loop or a unary mark tells vertices apart; the 3-cycle has no twins
    looped = make_struct((2,), 3, [{(0, 0), (1, 1)}])
    assert classes(looped) == [[0, 1], [2]]
    marked = make_struct((2, 1), 3, [{(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}, {(1,)}])
    assert classes(marked) == [[0, 2], [1]]
    assert classes(cyclic_tournament_3()) == [[0], [1], [2]]
    # a repeated entry marks both occurrences of the moved vertex
    ternary = make_struct((3,), 3, [{(0, 0, 2), (1, 1, 2)}])
    assert classes(ternary) == [[0, 1], [2]]


def test_is_monomorphic_part_rejects_vertices_out_of_range():
    p = path_graph(3)
    for block in ({99, 100}, {-1, -2}, {0, 99}, {-1}, {3}):
        with pytest.raises(IndexError):
            is_monomorphic_part(p, block)


def test_pair_test_matches_full_oracle_on_seeded_structures():
    rng, structs = oracle_structures()
    for s in structs:
        m = s.domain_size
        blocks = [set(pair) for pair in itertools.combinations(range(m), 2)]
        blocks += [{v for v in range(m) if rng.random() < 0.5} for _ in range(10)]
        blocks += [set(members) for members, _ in canonical_decomposition(s).blocks]
        for block in blocks:
            assert is_monomorphic_part(s, block) == is_monomorphic_part_oracle(s, block), (
                s, sorted(block))


def test_canonical_decomposition_invariant_under_relabelling():
    rng, structs = oracle_structures()
    for s in structs:
        perm = list(range(s.domain_size))
        rng.shuffle(perm)
        blocks = {frozenset(perm[v] for v in members) for members, _ in
                  canonical_decomposition(s).blocks}
        moved = canonical_decomposition(relabel(s, perm))
        assert {frozenset(members) for members, _ in moved.blocks} == blocks, s


def test_largest_part_acyclic_tournament():
    t = acyclic_tournament(4)
    for x in range(4):
        assert largest_monomorphic_part(t, x) == frozenset(range(4))


def test_largest_part_three_cycle():
    c = cyclic_tournament_3()
    for x in range(3):
        assert largest_monomorphic_part(c, x) == frozenset(range(3))


def test_largest_part_clique_plus_independent():
    g = disjoint_union(clique_graph(3), independent_graph(3))
    assert largest_monomorphic_part(g, 0) == frozenset({0, 1, 2})
    assert largest_monomorphic_part(g, 4) == frozenset({3, 4, 5})


def test_canonical_decomposition_clique():
    d = canonical_decomposition(clique_graph(4))
    assert len(d.blocks) == 1


def test_canonical_decomposition_two_block_graph():
    d = canonical_decomposition(disjoint_union(clique_graph(6), independent_graph(6)))
    assert len(d.blocks) == 2
    assert {members for members, _ in d.blocks} == {
        tuple(range(6)),
        tuple(range(6, 12)),
    }


def test_canonical_decomposition_walks_each_pair_once(monkeypatch):
    walked = []
    walk = _SubsetCodes._walk

    def counting(self, x, y):
        walked.append((x, y))
        return walk(self, x, y)

    monkeypatch.setattr(_SubsetCodes, "_walk", counting)
    cliques = disjoint_union(disjoint_union(clique_graph(6), clique_graph(4)), clique_graph(3))
    d = canonical_decomposition(cliques)
    assert [members for members, _ in d.blocks] == [
        tuple(range(6)), tuple(range(6, 10)), tuple(range(10, 13))]
    # the cliques are swap-twin classes, so only their least vertices are walked
    assert walked == [(0, 6), (0, 10), (6, 10)]
    assert len(walked) == len(set(walked))


def test_canonical_decomposition_k20_plus_i20_relabelled():
    rng = random.Random(20)
    perm = list(range(40))
    rng.shuffle(perm)
    s = relabel(disjoint_union(clique_graph(20), independent_graph(20)), perm)
    d = canonical_decomposition(s)
    assert {frozenset(members) for members, _ in d.blocks} == {
        frozenset(perm[v] for v in range(20)), frozenset(perm[v] for v in range(20, 40))}


def test_canonical_decomposition_path_is_discrete():
    d = canonical_decomposition(path_graph(6))
    assert len(d.blocks) == 6
    assert all(size == 1 for _, size in d.blocks)


def test_every_blockwise_partition_refines_canonical():
    structs = [
        path_graph(5),
        clique_graph(5),
        disjoint_union(clique_graph(3), independent_graph(3)),
        acyclic_tournament(6),
        cyclic_tournament_3(),
    ]
    for s in structs:
        coarse = canonical_decomposition(s)
        coarse_of = {}
        for members, _ in coarse.blocks:
            for v in members:
                coarse_of[v] = members
        for partition in all_partitions(list(range(s.domain_size))):
            if all(is_monomorphic_part(s, block) for block in partition):
                for block in partition:
                    targets = {coarse_of[v] for v in block}
                    assert len(targets) == 1, (s, partition, block)


def test_presentation_decomposition_fixtures():
    t3 = presentation_decomposition(lexsum_tournament_fixture("T3"))
    assert [size for _, size in t3.blocks] == [OMEGA, OMEGA, OMEGA]

    t2 = presentation_decomposition(lexsum_tournament_fixture("T2"))
    assert sorted((len(g), size is OMEGA) for g, size in t2.blocks) == [
        (1, False),
        (1, True),
        (1, True),
    ]

    two = presentation_decomposition(sum_of_cliques(2))
    assert [size for _, size in two.blocks] == [OMEGA, OMEGA]


def test_presentation_decomposition_merges_fused_singletons():
    # one vertex of the 3-cycle blown up: the two finite vertices fuse into a
    # single 2-element monomorphic block of the presented tournament
    t1 = presentation_decomposition(lexsum_tournament_fixture("T1"))
    assert sorted((g, size) for g, size in t1.blocks) == [((0,), OMEGA), ((1, 2), 2)]


def test_presentation_decomposition_merges_chained_omegas():
    # omega followed by omega with all arcs forward is again omega
    pres = LexSumPresentation(
        digraph(2, [(0, 1)]), ((ACYCLIC, OMEGA), (ACYCLIC, OMEGA)), name="omega+omega"
    )
    d = presentation_decomposition(pres)
    assert len(d.blocks) == 1
    assert d.blocks[0] == ((0, 1), OMEGA)


def test_presentation_decomposition_agrees_with_truncations():
    for name in ("T1", "T2", "T3"):
        pres = lexsum_tournament_fixture(name)
        decomp = presentation_decomposition(pres, window=3)
        wide = presentation_decomposition(pres, window=8)
        assert [sorted(g) for g, _ in decomp.blocks] == [sorted(g) for g, _ in wide.blocks]
        assert wide == presentation_decomposition(pres)


def test_presentation_decomposition_window_two_equals_four():
    for name in ("omega", "T1", "T2", "T3", "two-cliques", "three-cliques"):
        pres = builtin(name)
        assert presentation_decomposition(pres, window=2) == presentation_decomposition(
            pres, window=4), name


@pytest.mark.parametrize("window", [0, 1, -1])
def test_presentation_decomposition_rejects_windows_below_two(window):
    for name in ("T1", "T3", "two-cliques"):
        with pytest.raises(ValueError, match="below 2"):
            presentation_decomposition(builtin(name), window=window)


def test_predict_growth_degree():
    assert predict_growth_degree(presentation_decomposition(lexsum_tournament_fixture("T3"))) == 2
    assert predict_growth_degree(presentation_decomposition(lexsum_tournament_fixture("T2"))) == 1
    single = LexSumPresentation(digraph(1, []), ((CLIQUE, OMEGA),))
    assert predict_growth_degree(presentation_decomposition(single)) == 0
    with pytest.raises(ValueError):
        predict_growth_degree(Decomposition((((0,), 3),)))


def test_predicted_degree_matches_series_fitting():
    # the least k whose denominator (1-x)...(1-x^k) fits the window recovers
    # the same degree k-1 that the decomposition predicts
    from relprof.profiles import profile_sequence
    from relprof.series import fit_rational

    for name in ("omega", "T2", "T3"):
        pres = lexsum_tournament_fixture(name)
        predicted = predict_growth_degree(presentation_decomposition(pres))
        seq = profile_sequence(pres, 14)
        fitted = None
        for k in range(1, 5):
            if fit_rational(seq, denominator_exponents=tuple(range(1, k + 1))).success:
                fitted = k - 1
                break
        assert fitted == predicted, (name, fitted, predicted)


def test_monomial_shape_and_chain_support():
    m = Monomial((3, 1, 0, 1))
    assert m.shape() == (3, 1, 1, 0)
    support = m.chain_support()
    assert support == [((0,), 2), ((0, 1, 3), 1)]
    rebuilt = Monomial((0, 0, 0, 0))
    for s, mult in support:
        for _ in range(mult):
            rebuilt = rebuilt.times_support(s)
    assert rebuilt == m


def test_monomial_order():
    # shapes equal: lexicographic on exponents
    assert monomial_greater(Monomial((1, 0)), Monomial((0, 1)))
    # shape (2,0) vs (1,1): degrevlex compares sorted vectors
    assert monomial_greater(Monomial((2, 0)), Monomial((1, 1))) != monomial_greater(
        Monomial((1, 1)), Monomial((2, 0))
    )
    with pytest.raises(ValueError):
        monomial_greater(Monomial((1,)), Monomial((2,)))


def test_leading_monomial_two_cliques():
    pres = sum_of_cliques(2)
    decomp = presentation_decomposition(pres)
    ages = enumerate_age(pres, 1)
    (code,) = ages
    assert leading_monomial(pres, decomp, code, 1) == Monomial((1, 0))
    # degree-2 all-edge type: realized by (2,0) and (0,2); leading is (2,0)
    pair_types = leading_monomials(pres, decomp, 2)
    edge_code = canonical_code(clique_graph(2))
    assert pair_types[edge_code] == Monomial((2, 0))
    # empty type
    (zero_code,) = enumerate_age(pres, 0)
    assert leading_monomial(pres, decomp, zero_code, 0) == Monomial((0, 0))


def _leading_monomials_oracle(pres, decomp, degree):
    """code -> largest block-total vector over every composition of the
    degree, each realized and coded: blocks are monomorphic, so compositions
    with equal block totals have one type."""
    slot_block = {s: i for i, (slots, _) in enumerate(decomp.blocks) for s in slots}
    best = {}
    for counts in compositions_of_size(pres, degree):
        vec = [0] * len(decomp.blocks)
        for s, c in enumerate(counts):
            vec[slot_block[s]] += c
        mono = Monomial(tuple(vec))
        code = canonical_code(realize_composition(pres, counts))
        if code not in best or monomial_greater(mono, best[code]):
            best[code] = mono
    return best


@pytest.mark.parametrize("name", ["two-cliques", "three-cliques", "T1", "T2", "T3"])
def test_leading_monomials_read_the_composition_codes(monkeypatch, name):
    # once the age is enumerated, each exponent vector's type is the code
    # kept for its composition: no realization and no canon call
    from relprof import presentations, structures

    pres = builtin(name)
    decomp = presentation_decomposition(pres)
    expected = [_leading_monomials_oracle(pres, decomp, d) for d in range(8)]
    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    for d in range(8):
        enumerate_age(pres, d)

    def refuse(*args, **kwargs):
        raise AssertionError("called while reading leading monomials")

    for module, attr in ((presentations, "realize_composition"),
                         (presentations, "canonical_code"), (structures, "canonical_code")):
        monkeypatch.setattr(module, attr, refuse)
    assert [leading_monomials(pres, decomp, d) for d in range(8)] == expected


def test_leading_monomial_unknown_type():
    pres = sum_of_cliques(2)
    decomp = presentation_decomposition(pres)
    with pytest.raises(KeyError):
        leading_monomial(pres, decomp, b"nope", 2)


def test_addlayer_two_cliques_clean():
    pres = sum_of_cliques(2)
    decomp = presentation_decomposition(pres)
    report = verify_addlayer(pres, decomp, 5)
    assert isinstance(report, AddLayerReport)
    assert report.ok and report.checked > 0


def test_addlayer_t2_saturation_branch():
    pres = lexsum_tournament_fixture("T2")
    decomp = presentation_decomposition(pres)
    report = verify_addlayer(pres, decomp, 5)
    assert report.ok
    # the cycle type at degree 3 is realized only by one element per block,
    # so its leading monomial saturates the singleton block and exercises
    # the first disjunct of the closure condition
    finite_pos = [i for i, (_, size) in enumerate(decomp.blocks) if size == 1]
    assert finite_pos
    lm3 = leading_monomials(pres, decomp, 3)
    assert any(m.exponents[finite_pos[0]] == 1 for m in lm3.values())
