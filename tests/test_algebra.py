import itertools
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from relprof.algebra import (
    AgeBasis,
    AlgebraElement,
    DegreeOverflowError,
    _mult_matrix,
    cardinality_partition,
    check_e_regular,
    e_element,
    e_matrix,
    e_rank,
    isomorphy_partition,
    is_hereditary,
    multiply,
    power,
    search_zero_divisors,
    structure_constants,
    type_element,
    unit_element,
)
from relprof.fileformat import load_source
from relprof.presentations import (
    colored_dense_chain,
    half_complete_bipartite,
    interval_division_chain,
    lexsum_tournament_fixture,
    product_of,
    reflexive_chain,
    sum_of_cliques,
    tournament_fixtures,
)
from relprof.linalg import nullspace, rank_bareiss
from oracles import split_counter_rows
from test_profiles import small_lexsums, small_multichains
from relprof import profiles
from relprof.profiles import profile_presented
from relprof.structures import (
    acyclic_tournament,
    canonical_code,
    clique_graph,
    digraph,
    graph_from_edges,
    make_struct,
    path_graph,
    restrict,
)

DATA = Path(__file__).resolve().parent / "data"


def basis_of(pres, degree):
    return AgeBasis.build(pres, degree)


def test_single_clique_pair_split():
    basis = basis_of(sum_of_cliques(1), 4)
    (one_type,) = basis.codes(1)
    constants = structure_constants(basis, one_type, one_type)
    assert list(constants.values()) == [2]  # two ways to split a pair


def test_unit_is_neutral():
    basis = basis_of(lexsum_tournament_fixture("T2"), 4)
    for code in basis.codes(2):
        sigma = type_element(basis, code)
        assert multiply(basis, unit_element(), sigma) == sigma
        assert multiply(basis, sigma, unit_element()) == sigma


def test_degree_overflow_refused():
    basis = basis_of(sum_of_cliques(2), 3)
    (two_type,) = basis.codes(1)
    with pytest.raises(DegreeOverflowError):
        structure_constants(basis, basis.codes(2)[0], basis.codes(2)[0])
    with pytest.raises(DegreeOverflowError):
        power(basis, e_element(basis), 4)


def test_negative_exponent_and_degree_refused():
    basis = basis_of(sum_of_cliques(2), 3)
    assert power(basis, e_element(basis), 0) == unit_element()
    with pytest.raises(ValueError, match="exponent must be non-negative, got -1"):
        power(basis, e_element(basis), -1)
    for call in (e_matrix, e_rank, check_e_regular):
        with pytest.raises(ValueError, match="degree must be non-negative, got -1"):
            call(basis, -1)


def test_multiply_commutative_and_graded():
    rng = random.Random(2)
    basis = basis_of(colored_dense_chain(2), 5)
    for _ in range(8):
        a = rng.randint(1, 2)
        b = rng.randint(1, 3 - a)
        u = AlgebraElement.from_dict(
            {(a, rng.randrange(basis.dimension(a))): Fraction(rng.randint(-3, 3) or 1)
             for _ in range(2)}
        )
        v = AlgebraElement.from_dict(
            {(b, rng.randrange(basis.dimension(b))): Fraction(rng.randint(-3, 3) or 1)
             for _ in range(2)}
        )
        uv = multiply(basis, u, v)
        vu = multiply(basis, v, u)
        assert uv == vu
        if not uv.is_zero:
            assert uv.degrees() == [a + b]


def test_multiply_associative_small():
    basis = basis_of(lexsum_tournament_fixture("T2"), 4)
    e = e_element(basis)
    types1 = [type_element(basis, c) for c in basis.codes(1)]
    for u in types1:
        left = multiply(basis, multiply(basis, u, e), e)
        right = multiply(basis, u, multiply(basis, e, e))
        assert left == right


def _recounted_splits(basis, rep, part):
    """(part position, complement position) counts over the part-subsets of
    rep, recounted with restrict and canonical_code."""
    domain = range(rep.domain_size)
    counts = Counter()
    for subset in itertools.combinations(domain, part):
        left = canonical_code(restrict(rep, subset))
        right = canonical_code(restrict(rep, [v for v in domain if v not in subset]))
        counts[(basis.index_of(left)[1], basis.index_of(right)[1])] += 1
    return counts


def _splits_of(table, pos):
    """The split table's (part position, complement position) counts for the
    type at pos of the product degree."""
    counts = Counter()
    for sigma, (rho, tau, count) in enumerate(table):
        for r, t, c in zip(rho.tolist(), tau.tolist(), count.tolist()):
            if r == pos:
                counts[(sigma, t)] += c
    return counts


def test_structure_constants_representative_independent():
    # recount the splittings on alternative representatives of each type:
    # every composition of T2, and every subset of a seeded 7-vertex graph
    from relprof.presentations import compositions_of_size, realize_composition

    pres = lexsum_tournament_fixture("T2")
    basis = basis_of(pres, 5)
    degree, part = 4, 2
    table = basis.split_table(degree, part)
    for comp in compositions_of_size(pres, degree):
        rep = realize_composition(pres, comp)
        pos = basis.index_of(canonical_code(rep))[1]
        assert _recounted_splits(basis, rep, part) == _splits_of(table, pos), comp
    rng = random.Random(7)
    edges = [e for e in itertools.combinations(range(7), 2) if rng.random() < 0.5]
    graph = graph_from_edges(7, edges)
    basis = AgeBasis.build(graph, 7)
    for degree in range(8):
        for subset in itertools.combinations(range(7), degree):
            rep = restrict(graph, subset)
            pos = basis.index_of(canonical_code(rep))[1]
            for part in range(degree + 1):
                table = basis.split_table(degree, part)
                assert _recounted_splits(basis, rep, part) == _splits_of(table, pos), (subset, part)


def test_a_finite_basis_builds_a_representative_when_asked(monkeypatch):
    # the build reads each level's codes; a representative is built from its
    # bitmask by representative() alone
    from relprof import structures

    built = []
    getitem = structures.Age.__getitem__
    monkeypatch.setattr(structures.Age, "__getitem__",
                        lambda level, code: built.append(code) or getitem(level, code))
    rng = random.Random(5)
    graph = graph_from_edges(8, [e for e in itertools.combinations(range(8), 2)
                                 if rng.random() < 0.5])
    basis = AgeBasis.build(graph, 6)
    basis.split_table(6, 2)
    assert built == []
    code = basis.codes(4)[1]
    assert canonical_code(basis.representative(4, 1)) == code and built == [code]


def test_split_table_reads_each_representative_tuples_once(monkeypatch):
    # both sizes of a representative's splits, its parts and their
    # complements, come from one walk and one _tuples_by_last.  A finite
    # basis on the interface sweep keeps the representative walks (a
    # presentation reads its sweep, a source on the subset walk its record)
    from relprof import profiles

    calls = Counter()
    original = profiles._tuples_by_last

    def counted(struct):
        calls[struct] += 1
        return original(struct)

    basis = AgeBasis.build(path_graph(9), 5)
    assert not basis._walked and basis._sweep is None
    monkeypatch.setattr(profiles, "_tuples_by_last", counted)
    for degree, part in ((5, 1), (4, 2), (5, 3)):
        calls.clear()
        basis.split_table(degree, part)
        reps = list(basis.levels[degree].values())
        assert calls == Counter(reps), (degree, part)


def test_e_matrix_entries_match_restrict_oracle():
    # entry (r, c): the number of vertices of type r's representative whose
    # deletion leaves a restriction of type c
    rng = random.Random(11)
    edges = [e for e in itertools.combinations(range(7), 2) if rng.random() < 0.5]
    bases = [
        AgeBasis.build(graph_from_edges(7, edges), 7),
        basis_of(colored_dense_chain(2), 5),
        basis_of(tournament_fixtures("C3omega"), 6),
    ]
    for basis in bases:
        for degree in range(basis.max_degree):
            col_index = {code: j for j, code in enumerate(basis.codes(degree))}
            expected = []
            for rep in basis.levels[degree + 1].values():
                row = [0] * len(col_index)
                for x in rep.domain:
                    rest = restrict(rep, [v for v in rep.domain if v != x])
                    row[col_index[canonical_code(rest)]] += 1
                expected.append(row)
            assert e_matrix(basis, degree).tolist() == expected, (basis.source_name, degree)


def test_e_element_contents():
    assert len(e_element(basis_of(sum_of_cliques(1), 2)).coeffs) == 1
    assert len(e_element(basis_of(colored_dense_chain(2), 2)).coeffs) == 2
    basis = basis_of(lexsum_tournament_fixture("T2"), 2)
    assert len(e_element(basis).coeffs) == profile_presented(
        lexsum_tournament_fixture("T2"), 1
    )


def test_e_squared_counts_pairs():
    # e*e puts coefficient 2 on every 2-type in any age
    for pres in (colored_dense_chain(2), lexsum_tournament_fixture("T3")):
        basis = basis_of(pres, 3)
        ee = multiply(basis, e_element(basis), e_element(basis))
        assert ee.as_dict() == {
            (2, pos): Fraction(2) for pos in range(basis.dimension(2))
        }


def test_tournament_identity_e_power():
    # e^n = n! * (acyclic type + sum of cycle-containing types)
    for name in ("T2", "T3"):
        pres = lexsum_tournament_fixture(name)
        basis = basis_of(pres, 5)
        for n in range(1, 6):
            en = power(basis, e_element(basis), n)
            expected = {
                (n, pos): Fraction(math.factorial(n))
                for pos in range(basis.dimension(n))
            }
            assert en.as_dict() == expected
            # exactly one degree-n type is the acyclic one
            acyclic = canonical_code(acyclic_tournament(n))
            assert sum(1 for c in basis.codes(n) if c == acyclic) == 1


def test_e_regular_small_fixtures():
    fixtures = [
        colored_dense_chain(2),
        sum_of_cliques(2),
        lexsum_tournament_fixture("T2"),
        tournament_fixtures("C3omega"),
        product_of(reflexive_chain(3)),
    ]
    for pres in fixtures:
        basis = basis_of(pres, 5)
        for n in range(5):
            assert check_e_regular(basis, n), (basis.source_name, n)
            # injectivity forces the profile to grow
            assert e_rank(basis, n) == basis.dimension(n) <= basis.dimension(n + 1)


def test_e_regular_degree_zero():
    basis = basis_of(sum_of_cliques(2), 1)
    assert check_e_regular(basis, 0)
    # the empty structure has no points: e is zero and degree 1 has no types
    basis = AgeBasis.build(make_struct((2,), 0, [[]]), 2)
    assert e_matrix(basis, 0).tolist() == [] and not check_e_regular(basis, 0)


def test_e_rank_equals_profile():
    pres = lexsum_tournament_fixture("T3")
    basis = basis_of(pres, 5)
    for n in range(5):
        assert e_rank(basis, n) == profile_presented(pres, n)


def test_zero_divisor_search_empty_kernel_fixtures():
    for pres in (colored_dense_chain(2), sum_of_cliques(2)):
        basis = basis_of(pres, 4)
        report = search_zero_divisors(basis, 4, random_probes=5)
        assert not report.found
        assert report.kernels_checked > 0 and report.random_probes > 0


def test_zero_divisor_search_finds_planted_divisor():
    # a finite source has zero divisors as soon as a product overflows the
    # structure: two disjoint 2-subsets of a 3-element path cannot coexist
    basis = AgeBasis.build(path_graph(3), 3, name="P3")
    report = search_zero_divisors(basis, 3, random_probes=0)
    assert report.found
    u, v = report.witness
    assert multiply(basis, u, v).is_zero and not u.is_zero and not v.is_zero


def test_zero_divisor_search_when_the_product_degree_has_no_types():
    # P2 has no 3-element restriction, so point * edge is zero: the kernel is
    # the whole degree-2 space although the multiplication matrix has no rows
    basis = AgeBasis.build(path_graph(2), 3, name="P2")
    assert basis.dimension(3) == 0
    report = search_zero_divisors(basis, 3, random_probes=0)
    assert report.found
    u, v = report.witness
    assert multiply(basis, u, v).is_zero and not u.is_zero and not v.is_zero


def test_zero_divisor_search_skips_probes_of_a_degree_without_types():
    # the empty structure has no type of degree 1, so a random probe of
    # degree 1 would be the zero element
    basis = AgeBasis.build(make_struct((2,), 0, [[]]), 2)
    report = search_zero_divisors(basis, 2, random_probes=1)
    assert not report.found and report.random_probes == 0


def test_mult_matrix_is_scaled_integer_product():
    # fractional weights: the matrix is lcm(2, 3) = 6 times the product's columns
    basis = basis_of(colored_dense_chain(2), 4)
    u = AlgebraElement.from_dict({(2, 0): Fraction(1, 2), (2, 3): Fraction(-2, 3)})
    matrix = _mult_matrix(basis, u, 2).tolist()
    assert len(matrix) == basis.dimension(4)
    assert all(type(x) is int for row in matrix for x in row)
    for j in range(basis.dimension(2)):
        product = multiply(basis, u, AlgebraElement.from_dict({(2, j): 1})).as_dict()
        column = [row[j] for row in matrix]
        assert column == [6 * product.get((4, r), 0) for r in range(basis.dimension(4))]
        assert any(column)


def _counter_row_product(rows, weights, n_cols):
    """sum_sigma w_sigma T[sigma] from the Counter rows of a split table."""
    out = []
    for counts in rows:
        row = [0] * n_cols
        for (sigma, tau), c in counts.items():
            row[tau] += weights.get(sigma, 0) * c
        out.append(row)
    return out


def test_split_arrays_match_counter_rows():
    # every (t, a) of two bases: pure types and seeded Fraction-weighted probes
    rng = random.Random(17)
    for pres, top in ((half_complete_bipartite(), 7), (colored_dense_chain(2), 6)):
        basis = basis_of(pres, top)
        for t in range(top + 1):
            for a in range(t + 1):
                rows = split_counter_rows(basis, t, a)
                dim_a, dim_b = basis.dimension(a), basis.dimension(t - a)
                probes = [{pos: Fraction(1)} for pos in range(dim_a)]
                for _ in range(3):
                    support = rng.sample(range(dim_a), k=min(dim_a, rng.randint(1, 3)))
                    probes.append({pos: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                                   for pos in support})
                for coeffs in probes:
                    u = AlgebraElement.from_dict({(a, pos): c for pos, c in coeffs.items()})
                    scale = math.lcm(*(c.denominator for c in coeffs.values()))
                    weights = {pos: int(c * scale) for pos, c in coeffs.items()}
                    matrix = _mult_matrix(basis, u, t - a)
                    assert matrix.shape == (basis.dimension(t), dim_b)
                    assert matrix.tolist() == _counter_row_product(rows, weights, dim_b), \
                        (pres.name, t, a, coeffs)


def test_mult_matrix_keeps_entries_beyond_int64_exact():
    basis = basis_of(colored_dense_chain(2), 4)
    big = 2 ** 70 + 1
    u = AlgebraElement.from_dict({(2, 0): big, (2, 3): -big + 2})
    rows = split_counter_rows(basis, 4, 2)
    matrix = _mult_matrix(basis, u, 2)
    assert matrix.tolist() == _counter_row_product(rows, {0: big, 3: -big + 2}, 4)
    assert nullspace(matrix) == nullspace(matrix.tolist())


def test_mult_matrix_kernel_vectors_annihilate_with_non_unit_weights():
    # on P4, u = 2*edge - 3*non-edge maps the two 2-types onto the single
    # 4-type, so its kernel is non-trivial and nullspace takes the elimination path
    basis = AgeBasis.build(path_graph(4), 4, name="P4")
    assert basis.dimension(2) == 2 and basis.dimension(4) == 1
    edge = 0 if basis.representative(2, 0).relations[0] else 1
    u = AlgebraElement.from_dict({(2, edge): 2, (2, 1 - edge): -3})
    kernel = nullspace(_mult_matrix(basis, u, 2))
    assert len(kernel) == 1
    for vec in kernel:
        v = AlgebraElement.from_dict({(2, j): c for j, c in enumerate(vec)})
        assert not v.is_zero and multiply(basis, u, v).is_zero


def test_hereditary_isomorphy_partition():
    for struct in (path_graph(4), clique_graph(3)):
        assert is_hereditary(struct.domain_size, isomorphy_partition(struct))


def test_hereditary_cardinality_partition():
    assert is_hereditary(4, cardinality_partition(4))


def test_hereditary_rejects_mixed_sizes():
    classes = cardinality_partition(3)
    merged = [classes[0], classes[1] + classes[2], classes[3]]
    assert not is_hereditary(3, merged)


def test_hereditary_rejects_uneven_counts():
    # split the 1-subsets of a 2-element set: {0} and {1} are separated, so
    # the 2-set class counts them differently from... it does not: both
    # appear once.  Build a genuinely failing partition on m=3 instead:
    # separate {0} from {1},{2} but keep all 2-subsets together; then {0,1}
    # contains one subset of the first class, {1,2} contains none.
    classes = [
        [frozenset()],
        [frozenset({0})],
        [frozenset({1}), frozenset({2})],
        [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})],
        [frozenset({0, 1, 2})],
    ]
    assert not is_hereditary(3, classes)


def test_hereditary_validates_partition():
    with pytest.raises(ValueError):
        is_hereditary(2, [[frozenset()], [frozenset({0})]])


def test_e_rank_agrees_with_bareiss_when_dimension_drops():
    # a finite 8-vertex graph has dim(n+1) < dim(n) near the top degrees, so
    # e_matrix has fewer rows than columns and the certificate bound is rows
    rng = random.Random(8)
    edges = [e for e in itertools.combinations(range(8), 2) if rng.random() < 0.5]
    basis = AgeBasis.build(graph_from_edges(8, edges), 8)
    drops = [n for n in range(8) if basis.dimension(n + 1) < basis.dimension(n)]
    assert drops
    for n in range(8):
        assert e_rank(basis, n) == rank_bareiss(e_matrix(basis, n)), n


@pytest.mark.parametrize("degree, part, error", [
    (3, 5, ValueError),  # part above the degree
    (3, -1, ValueError),  # negative part
    (6, 2, DegreeOverflowError),  # degree above the window
    (-1, 0, ValueError),  # negative degree
])
def test_split_table_refuses_degrees_outside_the_window(degree, part, error):
    basis = AgeBasis.build(path_graph(6), 4)
    with pytest.raises(error):
        basis.split_table(degree, part)


def test_build_refuses_a_negative_max_degree():
    with pytest.raises(ValueError, match="max_degree must be non-negative, got -1"):
        AgeBasis.build(path_graph(6), -1)


def _table_rows(basis, degree, part):
    """A split table as per-type Counters of (part position, complement
    position), the form of ``split_counter_rows``."""
    rows = [Counter() for _ in range(basis.dimension(degree))]
    for sigma, (rho, tau, count) in enumerate(basis.split_table(degree, part)):
        for r, t, c in zip(rho.tolist(), tau.tolist(), count.tolist()):
            rows[r][(sigma, t)] += c
    return rows


def _assert_tables_match_oracle(basis, top):
    for t in range(top + 1):
        for a in range(t + 1):
            assert _table_rows(basis, t, a) == split_counter_rows(basis, t, a), \
                (basis.source_name, t, a)


def _walk_structure(kind, rng, m):
    pairs = list(itertools.combinations(range(m), 2))
    if kind == "graph":
        return graph_from_edges(m, [e for e in pairs if rng.random() < 0.5])
    if kind == "tournament":
        return digraph(m, [(u, w) if rng.random() < 0.5 else (w, u) for u, w in pairs])
    if kind == "loops-mark":
        arcs = {(rng.randrange(m), rng.randrange(m)) for _ in range(2 * m)}
        arcs |= {(v, v) for v in range(m) if rng.random() < 0.3}
        return make_struct((2, 1), m, [arcs, {(v,) for v in range(m) if rng.random() < 0.4}])
    return make_struct((3,), m, [{t for t in itertools.combinations(range(m), 3)
                                  if rng.random() < 0.5}])


@pytest.mark.parametrize("kind, m", [
    ("graph", 10), ("graph", 7), ("tournament", 10), ("loops-mark", 10), ("ternary", 10),
])
def test_split_tables_from_the_walk_record_match_the_oracle(kind, m):
    # every table of a finite basis on the subset walk, read from the walk's
    # record of codes, against recounted splittings of each representative
    source = _walk_structure(kind, random.Random(f"split-record:{kind}:{m}"), m)
    basis = AgeBasis.build(source, m, name=f"{kind}{m}")
    assert sorted(basis._walked) == list(range(m + 1))  # the record path
    _assert_tables_match_oracle(basis, m)


def test_split_tables_of_a_sweep_source_take_the_representative_walks():
    # a path has interface width 1, so its levels come from the vertex sweep
    basis = AgeBasis.build(path_graph(6), 6)
    assert not basis._walked
    _assert_tables_match_oracle(basis, 6)


def _spider(legs, length):
    """Legs of the given length from vertex 0, numbered leg by leg."""
    edges, v = [], 1
    for _ in range(legs):
        edges += [(0 if k == 0 else v + k - 1, v + k) for k in range(length)]
        v += length
    return graph_from_edges(v, edges)


@pytest.mark.parametrize("source, top", [
    pytest.param(graph_from_edges(12, [(i, (i + 1) % 12) for i in range(12)]), 7, id="C_12"),
    pytest.param(_spider(3, 4), 7, id="spider-3x4"),
    pytest.param(digraph(10, [(i, (i + 1) % 10) for i in range(10)] + [(3, 3), (7, 7)]), 6,
                 id="directed-C_10-loops"),
])
def test_split_tables_of_sweep_sources_match_the_oracle(source, top):
    # every representative walked over the two sizes of each split, with one
    # memo for all walks of the basis
    assert profiles._sweeps(source)
    basis = AgeBasis.build(source, top)
    assert not basis._walked and basis._sweep is None
    _assert_tables_match_oracle(basis, top)
    assert basis._memo


def test_split_tables_outlive_the_walk_record_cache_entry():
    source = _walk_structure("graph", random.Random("split-record:evicted"), 8)
    basis = AgeBasis.build(source, 8)
    profiles._finite_cache.cache_clear()
    assert sorted(basis._walked) == list(range(9))
    _assert_tables_match_oracle(basis, 8)


def _all_tables(basis):
    return [[(rho.tolist(), tau.tolist(), count.tolist())
             for rho, tau, count in basis.split_table(t, a)]
            for t in range(basis.max_degree + 1) for a in range(t + 1)]


def test_split_tables_of_bases_built_by_two_threads():
    # two bases built at once on one structure share its walk record while
    # it is written; each must read the tables of a basis built alone
    source = _walk_structure("graph", random.Random("split-record:threads"), 10)
    assert profiles.interface_width(source) > profiles.SWEEP_MAX_WIDTH
    barrier = threading.Barrier(2)
    results = [None, None]

    def run(i):
        barrier.wait()
        results[i] = _all_tables(AgeBasis.build(source, 10))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    profiles._finite_cache.cache_clear()
    expected = _all_tables(AgeBasis.build(source, 10))
    assert results == [expected, expected]


def test_threads_that_count_beside_threads_that_read_codes():
    # two threads only count profile windows while two others read the codes
    # of the same structure's levels and build a basis on it; levels and
    # codes are published whole, so each reads what a run alone reads
    source = _walk_structure("graph", random.Random("split-record:threads"), 10)
    profiles._finite_cache.cache_clear()
    counts = profiles.profile_sequence(source, 10).coeffs
    codes = [list(profiles.age_of_finite(source, n)) for n in range(11)]
    tables = _all_tables(AgeBasis.build(source, 10))
    profiles._finite_cache.cache_clear()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait()
        if i % 2 == 0:
            results[i] = [profiles.profile_sequence(source, top).coeffs for top in (10, 6, 10)]
        else:
            read = [list(profiles.age_of_finite(source, n)) for n in range(10, -1, -1)][::-1]
            results[i] = read, _all_tables(AgeBasis.build(source, 10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[counts, counts[:7], counts], (codes, tables)] * 2


def test_threads_that_count_a_presentation_beside_threads_that_read_its_codes():
    # the same on a presentation's prefix sweep: names, kept labellings and
    # codes are written under the sweep's lock, so counting threads and
    # threads that read codes and build a basis each see a run alone
    from relprof import presentations

    pres = colored_dense_chain(3)

    def fresh():
        presentations._sweep_of.cache_clear()
        presentations.enumerate_age.cache_clear()

    fresh()
    counts = profiles.profile_sequence(pres, 6).coeffs
    codes = [list(presentations.enumerate_age(pres, n)) for n in range(7)]
    tables = _all_tables(AgeBasis.build(pres, 6))
    fresh()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait()
        if i % 2 == 0:
            results[i] = [profiles.profile_sequence(pres, top).coeffs for top in (6, 4, 6)]
        else:
            read = [list(presentations.enumerate_age(pres, n)) for n in range(6, -1, -1)][::-1]
            results[i] = read, _all_tables(AgeBasis.build(pres, 6))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[counts, counts[:5], counts], (codes, tables)] * 2


def _marked_chain_product():
    from test_shuffle import marked_chain_product

    return marked_chain_product(2)


# multichain sources whose split tables come from the prefix sweep; T1 and
# T2 have an F part with fv/vf rules, the marked product unary symbols
MULTICHAIN_SPLIT_SOURCES = [
    pytest.param(half_complete_bipartite, 8, id="half-bipartite"),
    pytest.param(lambda: half_complete_bipartite(tilde=True), 7, id="half-bipartite-tilde"),
    pytest.param(lambda: colored_dense_chain(2), 7, id="colored-chain:2"),
    pytest.param(lambda: colored_dense_chain(3), 5, id="colored-chain:3"),
    pytest.param(lambda: tournament_fixtures("C3omega"), 9, id="C3omega"),
    pytest.param(lambda: interval_division_chain(2), 6, id="interval-chain:2"),
    pytest.param(lambda: product_of(reflexive_chain(2)), 6, id="chain-product:2"),
    pytest.param(lambda: tournament_fixtures("T1"), 8, id="T1"),
    pytest.param(lambda: tournament_fixtures("T2"), 8, id="T2"),
    pytest.param(lambda: tournament_fixtures("T3"), 8, id="T3"),
    pytest.param(_marked_chain_product, 6, id="marked-product"),
]


@pytest.mark.parametrize("make, top", MULTICHAIN_SPLIT_SOURCES)
def test_multichain_split_tables_match_the_oracle(make, top):
    # every (t, a) read from the sweep's moves, against recounted splittings
    # of each representative
    basis = AgeBasis.build(make(), top)
    assert basis._sweep is not None and not basis._walked
    _assert_tables_match_oracle(basis, top)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_multichains())
def test_random_multichain_split_tables_match_the_oracle(pres):
    # arbitrary rule tables, F parts of up to two elements and up to three
    # slices, beyond the named fixtures
    basis = AgeBasis.build(pres, 5)
    _assert_tables_match_oracle(basis, 5)


# lexicographic sums, whose split tables come from their compositions
LEXSUM_SPLIT_SOURCES = [
    pytest.param(lambda: sum_of_cliques(2), 10, id="two-cliques"),
    pytest.param(lambda: sum_of_cliques(3), 10, id="three-cliques"),
    *(pytest.param(lambda name=name: lexsum_tournament_fixture(name), 9, id=f"lexsum-{name}")
      for name in ("omega", "T1", "T2", "T3")),
    pytest.param(lambda: load_source(str(DATA / "clique-plus-point.txt")), 8,
                 id="clique-plus-point"),
]


@pytest.mark.parametrize("make, top", LEXSUM_SPLIT_SOURCES)
def test_lexsum_split_tables_match_the_oracle(make, top):
    # every (t, a) from the sub-compositions of each type's first
    # composition, against recounted splittings of each representative
    basis = AgeBasis.build(make(), top)
    assert basis._sweep is not None and not basis._walked
    _assert_tables_match_oracle(basis, top)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_lexsums())
def test_random_lexsum_split_tables_match_the_oracle(pres):
    # every block kind, finite and infinite blocks, on index digraphs of one
    # to three vertices
    basis = AgeBasis.build(pres, 6)
    _assert_tables_match_oracle(basis, 6)


def test_a_multichain_basis_builds_its_tables_with_no_walk_and_no_canon(monkeypatch):
    # and a lexicographic sum's basis, which splits its compositions with no
    # realization either
    from relprof import algebra, canon, presentations, structures

    presentations._sweep_of.cache_clear()
    multichains = [AgeBasis.build(tournament_fixtures("T1"), 7),
                   AgeBasis.build(half_complete_bipartite(), 7),
                   AgeBasis.build(colored_dense_chain(3), 5)]
    for basis in multichains:
        assert len(basis._sweep.states) == basis.max_degree  # no marked code at the top
    lexsums = [AgeBasis.build(sum_of_cliques(3), 9),
               AgeBasis.build(lexsum_tournament_fixture("T2"), 8)]

    def refuse(*args, **kwargs):
        raise AssertionError("called while building split tables")

    for module, name in ((algebra, "_subset_walk"), (presentations, "canonical_code"),
                         (presentations, "canonical_labelling"),
                         (presentations, "realize_composition"),
                         (structures, "canonical_code"), (canon, "canonical_order"),
                         (canon, "canonical_labelling"), (profiles, "canonical_labelling")):
        monkeypatch.setattr(module, name, refuse)
    for basis in multichains + lexsums:
        _all_tables(basis)


def test_a_multichain_basis_reads_its_positions_from_the_codes_the_sweep_keeps():
    # the profile named every candidate of the sweep's levels: mapping kept
    # states and top candidates to basis positions, and splitting, asks the
    # canon cache nothing
    from relprof import presentations, structures

    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    profiles.profile_sequence(colored_dense_chain(2), 7)
    before = structures.canonical_code.cache_info()
    _all_tables(AgeBasis.build(colored_dense_chain(2), 7))
    assert structures.canonical_code.cache_info() == before


def test_a_finite_basis_builds_its_tables_with_no_walk_and_no_canon(monkeypatch):
    # the recording pass leaves every split of a finite basis in its record:
    # reading the tables needs no second walk and no canonical labelling
    from relprof import algebra, canon, structures

    g = _walk_structure("graph", random.Random("work-count:g12"), 12)
    assert not profiles._sweeps(g)
    profiles._finite_cache.cache_clear()
    basis = AgeBasis.build(g, 8)
    assert sorted(basis._walked) == list(range(9))

    def refuse(*args, **kwargs):
        raise AssertionError("called while building split tables")

    for module, name in ((algebra, "_subset_walk"), (structures, "canonical_code"),
                         (canon, "canonical_labelling"), (profiles, "canonical_labelling")):
        monkeypatch.setattr(module, name, refuse)
    tables = _all_tables(basis)
    assert len(tables) == 45 and all(tables)


def test_multichain_tables_of_bases_built_by_several_threads():
    # bases built at once on one fresh presentation share its sweep while
    # it is built and read; each must read the tables of a basis built alone
    import sys

    from relprof import presentations

    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    pres = half_complete_bipartite(tilde=True)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait()
        results[i] = _all_tables(AgeBasis.build(pres, 7))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    expected = _all_tables(AgeBasis.build(pres, 7))
    assert results == [expected] * 4


_TABLES_DIGEST = """
import hashlib
from relprof.algebra import AgeBasis
from relprof.presentations import half_complete_bipartite, tournament_fixtures
digest = hashlib.sha256()
for pres, top in ((tournament_fixtures("T1"), 6), (half_complete_bipartite(), 7)):
    basis = AgeBasis.build(pres, top)
    for t in range(top + 1):
        for a in range(t + 1):
            for rho, tau, count in basis.split_table(t, a):
                digest.update(repr((rho.tolist(), tau.tolist(), count.tolist())).encode())
print(digest.hexdigest())
"""


def test_multichain_tables_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", _TABLES_DIGEST], env=env,
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]
