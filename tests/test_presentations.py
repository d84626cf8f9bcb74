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
    _without_f_element,
    colored_dense_chain,
    empty_finite_part,
    enumerate_age,
    half_complete_bipartite,
    interval_division_chain,
    kernel_probe,
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


def _key_set_witness(pres, which, window):
    """The least n <= window at which deleting F element ``which`` changes the
    set of codes of the age, else None."""
    reduced = _without_f_element(pres, which)
    for n in range(window + 1):
        full, less = set(enumerate_age(pres, n)), set(enumerate_age(reduced, n))
        assert less <= full, n  # an induced substructure's age lies inside
        if less != full:
            return n
    return None


# a point below every point of omega: deleting it leaves omega's age
_POINT_BELOW_OMEGA = multichain((2,), make_struct((2,), 1, [set()]), 1,
                                vv={0: {(0, 0, "<")}}, fv={0: {(0, 0)}}, name="1+omega")


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@_with_every_fixture
@example(_POINT_BELOW_OMEGA)
@given(small_multichains())
def test_kernel_probe_by_counts_matches_the_key_set_oracle(pres):
    # kernel_probe compares level sizes: the reduced age lies inside the full
    # one, so the sizes differ exactly where the code sets do
    for which in range(pres.f_size):
        probe = kernel_probe(pres, ("F", which), 5)
        witness = _key_set_witness(pres, which, 5)
        status = "undetected" if witness is None else "in-kernel"
        assert (probe.status, probe.witness_size) == (status, witness), (pres.name, which)


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


# sha256 over the enumerate_age items of every pinned presentation at n <= 6,
# recorded before the prefix sweep named its candidates by canonical image:
# codes, type order and representatives must not move
_PRESENTED_DIGEST = """
import hashlib
from relprof.presentations import enumerate_age, lexsum_tournament_fixture, sum_of_cliques
from test_presentations import MULTICHAIN_FIXTURES
pinned = [*MULTICHAIN_FIXTURES, sum_of_cliques(3),
          *(lexsum_tournament_fixture(name) for name in ("omega", "T1", "T2", "T3"))]
digest = hashlib.sha256()
for pres in pinned:
    for n in range(7):
        for code, rep in enumerate_age(pres, n).items():
            digest.update(code)
            digest.update(repr(tuple(sorted(rel) for rel in rep.relations)).encode())
print(digest.hexdigest())
"""


def test_presented_codes_pinned_under_two_hash_seeds():
    import os
    import subprocess
    from pathlib import Path

    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here.parent / "src"), str(here),
                                       os.environ.get("PYTHONPATH")) if p)
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _PRESENTED_DIGEST], env=env,
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == (
            "659b604f7b40d30597a603c9b72704be5f382b03db9fd93b0a1773db84bcf07b"
        ), hashseed


def test_a_presented_profile_serializes_no_code(monkeypatch):
    # the sweep names candidates by canonical image: counting serializes
    # nothing, reading a level's codes serializes each of its types once, and
    # candidates with the relations of an earlier one are not labelled again
    from relprof import presentations
    from relprof.profiles import profile_sequence

    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    serialized = []
    form = presentations.labelled_form
    monkeypatch.setattr(presentations, "labelled_form",
                        lambda *args: serialized.append(args[1]) or form(*args))
    t3 = tournament_fixtures("T3")
    labelled = []  # every realization the sweep labels, marked or plain
    plain = {}  # level -> relations of each plain labelling of T3's candidates
    label = presentations.canonical_labelling

    def counted(arities, m, rels):
        labelled.append((arities, m, rels))
        if arities == t3.signature.arities:
            plain.setdefault(m, []).append(rels)
        return label(arities, m, rels)

    monkeypatch.setattr(presentations, "canonical_labelling", counted)
    profile_sequence(t3, 8)
    monkeypatch.setattr(presentations, "canonical_labelling", label)
    windows = ((colored_dense_chain(3), 7), (half_complete_bipartite(), 9), (t3, 8))
    seqs = [profile_sequence(pres, top).coeffs for pres, top in windows]
    assert seqs[0] == tuple(3 ** n for n in range(8))
    assert seqs[1] == tuple(expand(_HALF_BIPARTITE, 9).coeffs)
    assert serialized == []
    for (pres, top), seq in zip(windows, seqs):
        assert len(list(enumerate_age(pres, top))) == seq[top]
        assert serialized == [top] * seq[top]
        list(enumerate_age(pres, top).items())  # the sweep keeps its codes
        assert len(serialized) == seq[top]
        serialized.clear()
    sweep = presentations._sweep_of(t3)
    swept = range(3, 9)  # the levels read from the sweep, not from words
    assert [sweep.level(n) is None for n in range(9)] == [True] * 3 + [False] * 6
    candidates = [[rels for rels, _ in sweep.candidates(n)] for n in swept]
    distinct = [list(dict.fromkeys(level)) for level in candidates]
    assert sum(map(len, candidates)) == 608
    assert sum(map(len, candidates)) - sum(map(len, distinct)) == 221
    assert [plain[n] for n in swept] == distinct  # one labelling per relations
    assert len(set(labelled)) == len(labelled) == 764


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
