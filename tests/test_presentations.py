import math
import sys
import threading

import pytest
from hypothesis import example, given, settings

from oracles import are_isomorphic_brute_force, realize_oracle
from relprof.presentations import (
    ACYCLIC,
    CLIQUE,
    OMEGA,
    LexSumPresentation,
    Word,
    _PrefixSweep,
    colored_dense_chain,
    empty_finite_part,
    enumerate_age,
    half_complete_bipartite,
    interval_division_chain,
    lexsum_tournament_fixture,
    multichain,
    product_of,
    realize,
    realize_composition,
    reflexive_chain,
    slow_profile_structure,
    sum_of_cliques,
    tournament_fixtures,
    words_of_size,
)
from relprof.structures import (
    RelStruct,
    acyclic_tournament,
    are_isomorphic,
    canonical_code,
    cyclic_tournament_3,
    digraph,
    graph_from_edges,
    make_struct,
    restrict,
)
from relprof.series import RationalForm, expand
from test_profiles import small_multichains


def test_word_validation():
    with pytest.raises(ValueError):
        Word((), (frozenset(),))
    w = Word((0,), (frozenset({1}), frozenset({0, 2})))
    assert w.total_size == 4


def test_realize_omega_word_is_transitive_tournament():
    omega = tournament_fixtures("omega")
    w = Word((), (frozenset({0}),) * 3)
    assert are_isomorphic(realize(omega, w), acyclic_tournament(3))


def test_realize_half_bipartite_orientation():
    kc = half_complete_bipartite()
    one_edge = realize(kc, Word((), (frozenset({0}), frozenset({1}))))
    assert are_isomorphic(one_edge, graph_from_edges(2, [(0, 1)]))
    no_edge = realize(kc, Word((), (frozenset({1}), frozenset({0}))))
    assert are_isomorphic(no_edge, graph_from_edges(2, []))


def test_realize_c3_letter_is_cycle():
    pres = tournament_fixtures("C3omega")
    cyc = realize(pres, Word((), (frozenset({0, 1, 2}),)))
    assert are_isomorphic(cyc, cyclic_tournament_3())


def test_realize_rejects_bad_words():
    omega = tournament_fixtures("omega")
    with pytest.raises(ValueError):
        realize(omega, Word((0,), ()))  # no finite part in omega
    with pytest.raises(ValueError):
        realize(omega, Word((), (frozenset({3}),)))


def test_enumerate_age_empty_size():
    for pres in (tournament_fixtures("T2"), sum_of_cliques(2)):
        ages = enumerate_age(pres, 0)
        assert len(ages) == 1
        (rep,) = ages.values()
        assert rep.domain_size == 0


def test_two_cliques_age_sizes():
    pres = sum_of_cliques(2)
    assert len(enumerate_age(pres, 5)) == 3  # pairs of clique sizes: 5, 4+1, 3+2


def test_colored_chain_age_is_k_pow_n():
    for k in (1, 2, 3):
        pres = colored_dense_chain(k)
        for n in range(5):
            assert len(enumerate_age(pres, n)) == k ** n


def test_word_dedup_agrees_with_pairwise_isomorphism():
    fixtures = [
        tournament_fixtures("omega"),
        tournament_fixtures("T1"),
        tournament_fixtures("T2"),
        tournament_fixtures("C3omega"),
        half_complete_bipartite(),
        colored_dense_chain(2),
    ]
    for pres in fixtures:
        for n in range(5):
            reps = []
            for w in words_of_size(pres, n):
                s = realize_oracle(pres, w)
                if not any(are_isomorphic_brute_force(s, r) for r in reps):
                    reps.append(s)
            assert len(enumerate_age(pres, n)) == len(reps), (pres.name, n)


def test_lexsum_block_subsets_are_monomorphic():
    # inside one block, equal-size choices (others fixed) give isomorphic
    # restrictions: the defining property of a monomorphic decomposition
    import itertools

    fixtures = [
        sum_of_cliques(2),
        lexsum_tournament_fixture("T2"),
        lexsum_tournament_fixture("T3"),
    ]
    for pres in fixtures:
        counts = tuple(4 if size is OMEGA else size for (_, size) in pres.blocks)
        full = realize_composition(pres, counts)
        offsets = [sum(counts[:i]) for i in range(len(counts))]
        for bi, c in enumerate(counts):
            block = list(range(offsets[bi], offsets[bi] + c))
            outside = [v for v in range(full.domain_size) if v not in block]
            fixed = outside[::2]
            for k in range(1, c + 1):
                codes = {
                    canonical_code(restrict(full, fixed + list(inner)))
                    for inner in itertools.combinations(block, k)
                }
                assert len(codes) == 1, (pres.name, bi, k)


def test_tournament_fixture_t3_equals_lexsum_form():
    multi = tournament_fixtures("T3")
    lex = lexsum_tournament_fixture("T3")
    for n in range(13):
        assert set(enumerate_age(multi, n)) == set(enumerate_age(lex, n)), n


def test_tournament_fixture_t1_t2_match_lexsum():
    for name in ("omega", "T1", "T2"):
        multi = tournament_fixtures(name)
        lex = lexsum_tournament_fixture(name)
        for n in range(13):
            assert set(enumerate_age(multi, n)) == set(enumerate_age(lex, n)), (name, n)


MULTICHAIN_FIXTURES = [
    *(tournament_fixtures(name) for name in ("omega", "T1", "T2", "T3", "C3omega")),
    half_complete_bipartite(),
    half_complete_bipartite(tilde=True),
    colored_dense_chain(2),
    colored_dense_chain(3),
    interval_division_chain(2),
    product_of(reflexive_chain(3)),
]


@pytest.mark.parametrize("pres", MULTICHAIN_FIXTURES, ids=lambda pres: pres.name)
def test_prefix_sweep_matches_word_realizations(pres):
    # every word realized from the rule tables; the sweep merges prefixes by
    # their interface-marked types and must reach exactly the same codes
    sweep = _PrefixSweep(pres)
    for n in range(7):
        words = {canonical_code(realize_oracle(pres, w)) for w in words_of_size(pres, n)}
        swept = {canonical_code(RelStruct(pres.signature, n, rels))
                 for rels, _ in sweep.candidates(n)}
        assert swept == words, n
        assert set(enumerate_age(pres, n)) == words, n


def _with_every_fixture(test):
    for pres in MULTICHAIN_FIXTURES:
        test = example(pres)(test)
    return test


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@_with_every_fixture
@given(small_multichains())
def test_realize_equals_the_rule_table_oracle(pres):
    # realize extends the word's F subset one letter at a time through the
    # sweep's letter table; the oracle looks every pair up in the rule tables
    for n in range(6):
        for w in words_of_size(pres, n):
            assert realize(pres, w) == realize_oracle(pres, w), (pres.name, w)


def test_prefix_sweep_shared_by_threads_builds_each_level_once():
    def codes(sweep, n):
        level = sweep.level(n)
        return None if level is None else {
            canonical_code(RelStruct(sweep.pres.signature, n, rels)) for rels, _ in level}

    pres = half_complete_bipartite()
    alone = _PrefixSweep(pres)
    expected = [codes(alone, n) for n in range(8)]
    shared = _PrefixSweep(pres)
    results = [None] * 4

    def work(i):
        results[i] = [codes(shared, n) for n in range(8)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
    assert len(shared.levels) == len(alone.levels) and len(shared.states) == len(alone.states)


def _c3omega_values(window):
    values = [1, 1, 1]
    while len(values) <= window:
        values.append(values[-1] + values[-3])
    return values


# criterion 04's rational form
_HALF_BIPARTITE = RationalForm((1, -2, -1, 3, -1), denominator_poly=(1, -3, 0, 6, -4))


@pytest.mark.parametrize("pres, expected", [
    pytest.param(tournament_fixtures("C3omega"), _c3omega_values(16), id="C3omega"),
    pytest.param(interval_division_chain(2), [math.comb(n + 2, 2) for n in range(15)],
                 id="interval-chain:2"),
    pytest.param(product_of(reflexive_chain(3)), [1 + math.comb(n, 2) for n in range(11)],
                 id="chain-product:3"),
    pytest.param(half_complete_bipartite(), list(expand(_HALF_BIPARTITE, 10).coeffs),
                 id="half-bipartite"),
    pytest.param(half_complete_bipartite(tilde=True), [1] + [2 ** (n - 1) for n in range(1, 11)],
                 id="half-bipartite-tilde"),
    pytest.param(colored_dense_chain(3), [3 ** n for n in range(9)], id="colored-chain:3"),
])
def test_multichain_closed_forms_past_the_word_windows(pres, expected):
    assert [len(enumerate_age(pres, n)) for n in range(len(expected))] == expected


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        tournament_fixtures("T4")


def test_interval_chain_binomial_profile():
    import math

    for k in (0, 1, 2, 3):
        pres = interval_division_chain(k)
        for n in range(6):
            assert len(enumerate_age(pres, n)) == math.comb(n + k, k), (k, n)


def test_two_linear_orders_factorial_window():
    from relprof.profiles import profile_finite
    from relprof.structures import two_linear_orders

    # 2 5 3 1 4 contains every pattern of size <= 3, so the profile hits n!
    universal = two_linear_orders((1, 4, 2, 0, 3))
    for n in range(4):
        assert profile_finite(universal, n) == math_factorial(n)
    # identity permutation: both orders agree, profile collapses to 1
    identity = two_linear_orders((0, 1, 2, 3))
    assert profile_finite(identity, 3) == 1


def math_factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_product_of_three_chain_profile_four():
    # compositions of 4 into at most 3 parts
    pres = product_of(reflexive_chain(3))
    assert len(enumerate_age(pres, 4)) == 7


def test_product_of_point_is_monomorphic():
    bare = product_of(make_struct((2,), 1, [set()]))
    looped = product_of(reflexive_chain(1))
    for n in range(5):
        assert len(enumerate_age(bare, n)) == 1
        assert len(enumerate_age(looped, n)) == 1


def test_product_of_single_position_recovers_age():
    # restricting the product to one chain position (single-letter words)
    # realizes exactly the age of the base structure, up to its size
    import itertools

    from relprof.profiles import age_of_finite

    s = digraph(3, [(0, 1), (1, 2), (0, 2)])
    pres = product_of(s)
    for n in range(4):
        codes = set()
        for letter in itertools.combinations(range(3), n):
            if n == 0:
                codes.add(canonical_code(realize(pres, Word((), ()))))
            else:
                codes.add(canonical_code(realize(pres, Word((), (frozenset(letter),)))))
        assert codes == set(age_of_finite(s, n))


def test_lexsum_validation():
    with pytest.raises(ValueError):
        LexSumPresentation(digraph(1, []), ())
    with pytest.raises(ValueError):
        LexSumPresentation(digraph(1, []), (("hexagon", OMEGA),))
    with pytest.raises(ValueError):
        LexSumPresentation(digraph(2, []), ((ACYCLIC, OMEGA),))
    with pytest.raises(ValueError):
        LexSumPresentation(digraph(1, []), ((CLIQUE, 0),))


@pytest.mark.parametrize("rules, message", [
    ({"vv": {1: {(0, 0, "<")}}}, "vv rule for 1: not a symbol of arity 2"),
    ({"vv": {3: {(0, 0, "<")}}}, "vv rule for 3: not a symbol of arity 2"),
    ({"fv": {1: set()}}, "fv rule for 1: not a symbol of arity 2"),
    ({"vf": {1: set()}}, "vf rule for 1: not a symbol of arity 2"),
    ({"unary_slices": {0: {0}}}, "unary_slices rule for 0: not a symbol of arity 1"),
])
def test_multichain_rejects_rules_for_a_symbol_of_another_arity(rules, message):
    # a rule keyed by a unary symbol, a binary one or no symbol at all would
    # otherwise be dropped without a word
    arities = (2, 1)
    base = {"unary_slices": {1: {0}}, "vv": {0: {(0, 0, "<")}}}
    with pytest.raises(ValueError, match=message):
        multichain(arities, empty_finite_part(arities), 1, **{**base, **rules})


def test_slow_profile_structure_shapes():
    # f identically 1: empty signature
    s = slow_profile_structure([1] * 11, 10)
    assert s.signature.arities == ()
    # f(n) = min(n+1, 3): unary marking 0 and binary marking {0,1}
    f = [min(n + 1, 3) for n in range(11)]
    s = slow_profile_structure(f, 10)
    assert s.signature.arities == (1, 2)
    assert s.relations[0] == frozenset({(0,)})
    assert s.relations[1] == frozenset({(0, 1), (1, 0)})
    # f(n) = n+1: one symbol per level
    s = slow_profile_structure(list(range(1, 7)), 5)
    assert s.signature.arities == (1, 2, 3, 4, 5)


def test_slow_profile_structure_validation():
    with pytest.raises(ValueError):
        slow_profile_structure([2, 2, 2], 2)  # f(0) > 1
    with pytest.raises(ValueError):
        slow_profile_structure([1, 2, 1], 2)  # decreasing


def test_enumerate_age_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_age(sum_of_cliques(2), -1)


def test_realize_composition_cross_arcs():
    pres = lexsum_tournament_fixture("T2")
    r = realize_composition(pres, (1, 1, 1))
    assert are_isomorphic(r, cyclic_tournament_3())
