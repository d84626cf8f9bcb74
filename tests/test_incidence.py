import math
import random
from fractions import Fraction

import numpy as np
import pytest

from relprof.incidence import (
    build_incidence,
    colex_subsets,
    dump_matrix,
    matrix_rank,
    profile_inequality_via_incidence,
    type_indicator_matrix,
    verify_kantor,
)
from relprof.linalg import MOD_PRIME, nullspace, rank_bareiss, rank_exact, rank_mod_p
from relprof.structures import graph_from_edges, path_graph
from oracles import rank_mod_p_oracle


def test_colex_order():
    assert colex_subsets(4, 2) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_build_incidence_shapes():
    m = build_incidence(2, 1, 1)
    assert m.shape == (2, 1)
    assert m.entries == ((1,), (1,))
    assert build_incidence(5, 2, 1).shape == (10, 10)
    row = build_incidence(4, 0, 2)
    assert row.shape == (1, 6)
    assert all(x == 1 for x in row.entries[0])


def test_build_incidence_matches_frozenset_definition():
    for m in range(8):
        for n in range(m + 1):
            for k in range(m - n + 1):
                mat = build_incidence(m, n, k)
                want = tuple(
                    tuple(1 if frozenset(col) >= frozenset(row) else 0 for col in mat.col_labels)
                    for row in mat.row_labels
                )
                assert mat.array.dtype == np.uint8
                assert mat.entries == want, (m, n, k)
                assert all(type(x) is int for row in mat.entries for x in row)


def test_build_incidence_beyond_int64_masks():
    # from m = 63 on, subset bitmasks no longer fit int64 and stay Python ints
    mat = build_incidence(64, 1, 1)
    assert mat.shape == (64, 2016)
    assert mat.array.sum(axis=1).tolist() == [63] * 64
    assert matrix_rank(mat) == 64


def test_build_incidence_validation():
    with pytest.raises(ValueError):
        build_incidence(3, 2, 2)


def test_rank_small_matrices():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank_exact(identity) == 3
    assert rank_exact([[1, 1], [1, 1]]) == 1
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([]) == 0


def test_rank_fraction_entries():
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank_exact(singular) == 1
    regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
    assert rank_exact(regular) == 2


def rank_fraction_oracle(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def test_rank_two_elimination_orders_agree():
    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [
            [rng.randint(-4, 4) if rng.random() > 0.25 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.3:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])  # force singularity
        want = rank_fraction_oracle(m)
        assert rank_bareiss(m) == rank_exact(m) == want, m


def test_nullspace_vectors_annihilate():
    rng = random.Random(9)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m)
        assert len(basis) == cols - rank_fraction_oracle(m)
        for v in basis:
            assert all(
                sum(Fraction(m[r][c]) * v[c] for c in range(cols)) == 0
                for r in range(rows)
            )


def _pivot_free_columns(m, cols):
    """Free columns of the reduced echelon form: those in the span of the
    columns before them, found from ranks of column prefixes."""
    free, prev = [], 0
    for c in range(cols):
        rank = rank_bareiss([row[:c + 1] for row in m])
        if rank == prev:
            free.append(c)
        prev = rank
    return free


def test_nullspace_certificate_and_elimination_branches():
    rng = random.Random(21)
    ranks_seen = set()
    for trial in range(136):
        kind = ("full", "deficient", "wide", "zero-column")[trial % 4]
        small = trial < 120  # later trials: up to 30 columns, entries beyond int64
        cols = rng.randint(1, 6) if small else rng.randint(8, 30)
        rows = (
            rng.randint(1, cols - 1) if kind == "wide" and cols > 1
            else rng.randint(cols, 7) if small else rng.randint(cols, cols + 2)
        )
        bound = 5 if small else 2 ** 70
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if trial % 8 >= 4:
            m = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in m]
        if kind == "deficient" and cols > 1 and small:
            a, b = rng.sample(range(cols), 2)
            factor = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for row in m:
                row[b] = row[a] * factor  # column b depends on column a
        if kind == "deficient" and not small:
            planted = rng.sample(range(cols), rng.randint(1, cols // 3))
            sources = [c for c in range(cols) if c not in planted]
            for b in planted:  # each planted column combines two source columns
                a, c = rng.sample(sources, 2)
                fa, fc = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
                for row in m:
                    row[b] = row[a] * fa + row[c] * fc
        if kind == "zero-column":
            z = rng.randrange(cols)
            for row in m:
                row[z] = 0
        rank = rank_bareiss(m)
        ranks_seen.add(rank == cols)
        basis = nullspace(m)
        assert len(basis) == cols - rank, m
        for v in basis:
            assert all(sum(Fraction(x) * y for x, y in zip(row, v)) == 0 for row in m)
        free = _pivot_free_columns(m, cols)
        assert len(free) == len(basis)
        for i, v in enumerate(basis):
            assert [v[c] for c in free] == [int(i == j) for j in range(len(free))], m
    assert ranks_seen == {True, False}  # both the certificate and the elimination ran


def test_modular_rank_beyond_int64():
    big = 2 ** 70
    assert rank_mod_p([[big, 1], [1, big]]) == 2
    assert rank_exact([[big, 2 * big], [1, 2]]) == 1
    assert nullspace([[big, 2 * big], [1, 2]]) == [(Fraction(-2), Fraction(1))]


def test_rank_mod_p_rejects_moduli_outside_int64():
    # (p-1)**2 must fit below 2**63, or a single update could overflow
    edge = math.isqrt(2 ** 63 - 1) + 1  # the largest p with (p-1)**2 < 2**63
    assert rank_mod_p([[1, 0], [0, 1]], edge) == 2
    assert rank_mod_p([[1, 2], [3, 4]], 3_037_000_493) == 2  # the largest such prime
    for p in (-7, 0, 1, edge + 1, 4_294_967_311):
        with pytest.raises(ValueError):
            rank_mod_p([[1, 2], [3, 4]], p)


def _seeded_matrices(rng, bound):
    """Random matrices with negative entries, some rank-deficient: a row is
    replaced by an integer combination of two others."""
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.6:
            a, b, c = rng.sample(range(rows), 3)
            fa, fb = rng.randint(-4, 4), rng.randint(-4, 4)
            m[c] = [fa * x + fb * y for x, y in zip(m[a], m[b])]
        yield m


def test_rank_mod_p_matches_elimination_oracle():
    # p = 2**31 - 1 allows two updates between block reductions, so the
    # periodic reduction runs; entries beyond int64 take the exact-reduction path
    rng = random.Random(31)
    primes = (2, 3, 5, 7919, MOD_PRIME, 2 ** 31 - 1)
    deficient = 0
    for bound in (1, 9, 2 ** 40, 2 ** 70):
        for m in _seeded_matrices(rng, bound):
            for p in primes:
                want = rank_mod_p_oracle(m, p)
                assert rank_mod_p(m, p) == want, (m, p)
                if bound < 2 ** 63:
                    assert rank_mod_p(np.array(m, dtype=np.int64), p) == want, (m, p)
                else:
                    assert rank_mod_p(np.array(m, dtype=object), p) == want, (m, p)
            assert rank_mod_p(m) == rank_mod_p_oracle(m, MOD_PRIME)
            assert rank_exact(m) == rank_bareiss(m) == rank_exact(np.array(m, dtype=object))
            deficient += rank_bareiss(m) < min(len(m), len(m[0]))
    assert deficient > 20


def test_rank_mod_p_periodic_reduction_on_dense_matrices():
    # wide dense matrices of rank 12 < rows: an entry takes up to 15 updates
    # before its column is reduced, so without the periodic block reduction
    # int64 would overflow and leave a dependent row non-zero
    rng = random.Random(5)
    for p in (2 ** 31 - 1, 3_037_000_493):
        for _ in range(10):
            m = [[rng.randrange(p) for _ in range(40)] for _ in range(12)]
            for _ in range(4):
                f, g = rng.randrange(p), rng.randrange(p)
                m.append([f * x + g * y for x, y in zip(*rng.sample(m, 2))])
            rng.shuffle(m)
            want = rank_mod_p_oracle(m, p)
            assert want == 12
            residues = np.array([[x % p for x in row] for row in m], dtype=np.int64)
            assert rank_mod_p(residues, p) == want


def test_modular_rank_is_lower_bound():
    rng = random.Random(5)
    for _ in range(40):
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        assert rank_mod_p(m) <= rank_bareiss(m)


def test_nullspace_basis():
    basis = nullspace([[1, 1, 0], [0, 0, 1]])
    assert len(basis) == 1
    (v,) = basis
    assert v[0] + v[1] == 0 and v[2] == 0 and any(v)
    assert nullspace([[1, 0], [0, 1]]) == []


def test_kantor_small_cases():
    assert verify_kantor(5, 2, 1)
    assert verify_kantor(3, 1, 1)
    assert matrix_rank(build_incidence(5, 2, 1)) == 10
    assert matrix_rank(build_incidence(3, 1, 1)) == 3


def test_kantor_hypothesis_unmet():
    with pytest.raises(ValueError):
        verify_kantor(2, 1, 1)
    # outside the hypothesis the rank genuinely drops
    assert matrix_rank(build_incidence(2, 1, 1)) == 1


def test_kantor_medium_sweep():
    for m in range(9):
        for n in range(m // 2 + 1):
            for k in range(m - 2 * n + 1):
                assert verify_kantor(m, n, k), (m, n, k)


def test_incidence_rank_alt_agrees():
    for (m, n, k) in [(5, 2, 1), (6, 2, 2), (7, 3, 1)]:
        mat = build_incidence(m, n, k)
        assert matrix_rank(mat) == rank_fraction_oracle(mat.entries)


def test_dump_format():
    mat = build_incidence(3, 1, 1)
    text = dump_matrix(mat, 3, 1, 1)
    lines = text.strip().splitlines()
    assert lines[0] == "3 1 1 3 3"
    assert len(lines) == 4
    assert all(set(line.split()) <= {"0", "1"} for line in lines[1:])


def test_type_indicator_full_row_rank():
    g = path_graph(6)
    t = type_indicator_matrix(g, 2)
    # indicator rows have disjoint supports, hence independent
    assert matrix_rank(t) == t.shape[0]
    assert sum(sum(r) for r in t.entries) == 15  # every 2-subset hits one type


def test_profile_inequality_via_incidence_cases():
    assert profile_inequality_via_incidence(path_graph(6), 2, 2)
    assert profile_inequality_via_incidence(path_graph(7), 0, 3)
    rng = random.Random(11)
    for _ in range(5):
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.5]
        g = graph_from_edges(7, edges)
        assert profile_inequality_via_incidence(g, 2, 1)


def test_profile_inequality_hypothesis():
    with pytest.raises(ValueError):
        profile_inequality_via_incidence(path_graph(4), 2, 1)
    # a level outside 0..m, with age_of_finite's message
    for n in (-1, 5):
        with pytest.raises(ValueError, match=rf"n={n} outside 0\.\.4"):
            type_indicator_matrix(path_graph(4), n)


def test_incidence_proof_agrees_with_direct_inequality():
    from relprof.profiles import check_linalg_inequality
    from relprof.structures import clique_graph, disjoint_union, independent_graph

    structs = [
        path_graph(7),
        clique_graph(7),
        disjoint_union(clique_graph(3), independent_graph(4)),
    ]
    for s in structs:
        for n in range(4):
            for k in range(8 - 2 * n):
                if 2 * n + k <= 7 and n + k <= 7:
                    assert profile_inequality_via_incidence(s, n, k)
                    assert check_linalg_inequality(s, n, k)


def _wilson_rank(m, t, k, p):
    """Rank over GF(p) of the t-subsets vs k-subsets inclusion matrix, for
    t <= min(k, m - k) (R. M. Wilson, Europ. J. Combin. 11, 1990)."""
    return sum(
        math.comb(m, i) - (math.comb(m, i - 1) if i else 0)
        for i in range(t + 1)
        if math.comb(k - i, t - i) % p
    )


def test_rank_mod_p_matches_wilson_small_primes():
    cases = 0
    deficient = 0
    for m in range(11):
        for k in range(m + 1):
            for t in range(min(k, m - k) + 1):
                entries = build_incidence(m, t, k - t).entries
                for p in (2, 3):
                    expected = _wilson_rank(m, t, k, p)
                    assert rank_mod_p(entries, p) == expected, (m, t, k, p)
                    cases += 1
                    deficient += expected < math.comb(m, t)
    assert cases == 322
    assert deficient > 0  # these primes reach the rank-deficient branch


def test_rank_bareiss_full_row_rank():
    for m in range(9):
        for k in range(m + 1):
            for t in range(min(k, m - k) + 1):
                entries = build_incidence(m, t, k - t).entries
                assert rank_bareiss(entries) == math.comb(m, t), (m, t, k)
