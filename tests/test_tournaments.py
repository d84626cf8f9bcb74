import itertools
import random

import pytest

from relprof.presentations import (
    CLIQUE,
    OMEGA,
    LexSumPresentation,
    lexsum_tournament_fixture,
    tournament_fixtures,
)
from relprof.profiles import profile_presented
from relprof.series import classify_growth, series_from
from relprof.structures import (
    acyclic_tournament,
    cyclic_tournament_3,
    digraph,
    is_autonomous,
    make_struct,
)
from relprof.tournaments import (
    EXPONENTIAL,
    FINITE,
    POLYNOMIAL,
    _is_acyclic,
    acyclic_components,
    classify,
    is_tournament,
)


def random_tournament(n, rng):
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return digraph(n, arcs)


def lexsum_c3_of_chains(length):
    arcs = set()
    blocks = [list(range(i * length, (i + 1) * length)) for i in range(3)]
    for block in blocks:
        arcs |= {(u, v) for u in block for v in block if u < v}
    for (bi, bj) in [(0, 1), (1, 2), (2, 0)]:
        arcs |= {(u, v) for u in blocks[bi] for v in blocks[bj]}
    return digraph(3 * length, arcs)


def test_is_tournament():
    assert is_tournament(cyclic_tournament_3())
    assert is_tournament(acyclic_tournament(4))
    assert not is_tournament(digraph(2, [(0, 1), (1, 0)]))
    assert not is_tournament(digraph(2, [(0, 1), (0, 0)]))
    with pytest.raises(ValueError):
        is_tournament(make_struct((1,), 2, [[(0,)]]))


def test_acyclic_components_basic():
    assert acyclic_components(acyclic_tournament(5)) == (tuple(range(5)),)
    assert acyclic_components(cyclic_tournament_3()) == ((0,), (1,), (2,))


def test_acyclic_components_lexsum_of_chains():
    t = lexsum_c3_of_chains(3)
    comps = acyclic_components(t)
    assert sorted(comps) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


def test_acyclic_components_maximality_exhaustive():
    rng = random.Random(23)
    tournaments = [random_tournament(5, rng) for _ in range(20)]
    tournaments += [random_tournament(7, rng) for _ in range(5)]
    for t in tournaments:
        comps = acyclic_components(t)
        for c in comps:
            assert _is_acyclic(t, c) and is_autonomous(t, c)
        for a, b in itertools.combinations(comps, 2):
            union = set(a) | set(b)
            assert not (_is_acyclic(t, union) and is_autonomous(t, union)), (t, a, b)


def acyclic_components_oracle(t):
    """The 2^m definition: each vertex's component is the union of every
    acyclic autonomous subset holding it."""
    m = t.domain_size
    good = [
        set(subset)
        for r in range(1, m + 1)
        for subset in itertools.combinations(range(m), r)
        if _is_acyclic(t, subset) and is_autonomous(t, subset)
    ]
    components = {frozenset().union(*(s for s in good if x in s)) for x in range(m)}
    return tuple(sorted(tuple(sorted(c)) for c in components))


def shuffled_lexsum_of_chains(index, sizes, rng):
    """Acyclic blocks of the given sizes over an index tournament, vertices
    shuffled; returns the tournament and its blocks as sorted tuples."""
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    blocks, start = [], 0
    for size in sizes:
        blocks.append([label[v] for v in range(start, start + size)])
        start += size
    arcs = set()
    for block in blocks:
        arcs |= {(u, v) for i, u in enumerate(block) for v in block[i + 1:]}
    for i, j in index.relations[0]:
        arcs |= {(u, v) for u in blocks[i] for v in blocks[j]}
    return digraph(len(label), arcs), sorted(tuple(sorted(b)) for b in blocks)


def test_acyclic_components_match_subset_oracle():
    rng = random.Random(14)
    tournaments = [random_tournament(rng.randint(1, 9), rng) for _ in range(30)]
    for _ in range(15):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        while sum(sizes) > 9:
            sizes.pop()
        t, _ = shuffled_lexsum_of_chains(random_tournament(len(sizes), rng), sizes, rng)
        tournaments.append(t)
    for t in tournaments:
        assert acyclic_components(t) == acyclic_components_oracle(t), t


def test_acyclic_components_forty_vertex_lexsum():
    t, blocks = shuffled_lexsum_of_chains(cyclic_tournament_3(), (17, 13, 10), random.Random(5))
    assert t.domain_size == 40
    assert sorted(acyclic_components(t)) == blocks


def test_classify_finite():
    report = classify(cyclic_tournament_3())
    assert report.classification == FINITE
    assert len(report.acyclic_component_partition) == 3


def test_classify_rejects_non_tournament():
    with pytest.raises(ValueError):
        classify(digraph(2, [(0, 1), (1, 0)]))
    with pytest.raises(ValueError):
        classify(LexSumPresentation(digraph(1, []), ((CLIQUE, OMEGA),)))


def test_classify_lexsum_fixtures():
    t3 = classify(lexsum_tournament_fixture("T3"))
    assert t3.classification == POLYNOMIAL and t3.degree == 2
    t2 = classify(lexsum_tournament_fixture("T2"))
    assert t2.classification == POLYNOMIAL and t2.degree == 1
    single = classify(lexsum_tournament_fixture("omega"))
    assert single.classification == POLYNOMIAL and single.degree == 0


def test_classify_multichain_fixtures():
    c3w = classify(tournament_fixtures("C3omega"))
    assert c3w.classification == EXPONENTIAL
    omega = classify(tournament_fixtures("omega"))
    assert omega.classification == POLYNOMIAL and omega.degree == 0
    t2 = classify(tournament_fixtures("T2"))
    assert t2.classification == POLYNOMIAL and t2.degree == 1
    t3 = classify(tournament_fixtures("T3"))
    assert t3.classification == POLYNOMIAL and t3.degree == 2


def test_polynomial_regime_matches_growth_classifier():
    cases = [("omega", 0), ("T1", 0), ("T2", 1), ("T3", 2)]
    for name, degree in cases:
        pres = lexsum_tournament_fixture(name)
        report = classify(pres)
        assert report.degree == degree
        window = 24 if degree >= 2 else 12
        seq = series_from(
            [profile_presented(pres, n) for n in range(window + 1)]
        )
        growth = classify_growth(seq)
        assert growth.kind in ("constant", "polynomial")
        assert (growth.degree or 0) == degree, (name, growth)


def test_c3omega_dominates_exponential_window():
    pres = tournament_fixtures("C3omega")
    for n in range(6, 10):
        assert profile_presented(pres, n) > 1.3 ** n
