"""The structural peel of ``relprof.linalg`` against exact oracles.

``rank_exact`` counts the singleton lines it peels and ranks only the core
they leave; ``nullspace`` settles a trivial kernel the same way.  Both are
checked against Bareiss on the whole matrix: the rank against
``rank_bareiss``, the kernel against the basis back-solved from ``_echelon``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from relprof import linalg
from relprof.algebra import AgeBasis, check_e_regular, search_zero_divisors
from relprof.fileformat import builtin
from relprof.incidence import inclusion_rank
from relprof.linalg import (
    MOD_PRIME,
    _echelon,
    _int_array,
    _peel,
    nullspace,
    rank_bareiss,
    rank_exact,
    rank_mod_p,
)


def _back_solved_basis(matrix):
    """The reduced-echelon kernel basis from one Bareiss echelon of the
    whole matrix, each row scaled to integers through Fraction here."""
    rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        denom = math.lcm(*(f.denominator for f in row))
        rows.append([int(f * denom) for f in row])
    n_cols = len(rows[0])
    pivots = _echelon(rows)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in reversed(list(zip(rows, pivots))):
            vec[col] = Fraction(-sum(row[c] * vec[c] for c in range(col + 1, n_cols)), row[col])
        basis.append(tuple(vec))
    return basis


def _entry(rng, kind):
    """A non-zero entry of the given kind."""
    value = rng.choice((-1, 1)) * rng.randint(1, 2 ** 70 if kind == "big" else 5)
    if kind == "fraction":
        return Fraction(value, rng.randint(1, 4))
    if kind == "float":
        return value / rng.choice((1, 2, 4, 8))  # dyadic, so exact as a float
    return value


def _triangular(rng, n_rows, n_cols, kind):
    """A random matrix that is triangular up to row and column permutations,
    with some zero rows and columns: it peels to nothing."""
    tall = n_rows > n_cols
    if tall:
        n_rows, n_cols = n_cols, n_rows
    m = [[0] * n_cols for _ in range(n_rows)]
    for i in range(n_rows):
        if rng.random() < 0.15:
            continue  # a zero row
        m[i][i] = _entry(rng, kind)
        for j in range(i + 1, n_cols):
            if rng.random() < 0.4:
                m[i][j] = _entry(rng, kind)
    if tall:
        m = [list(col) for col in zip(*m)]
    rng.shuffle(m)
    order = rng.sample(range(len(m[0])), len(m[0]))
    return [[row[j] for j in order] for row in m]


def _with_core(rng, n_rows, n_cols, kind):
    """A triangular matrix with a dense block in its first rows and columns,
    which the peel cannot break up."""
    m = _triangular(rng, n_rows, n_cols, kind)
    size = min(n_rows, n_cols, rng.randint(2, 4))
    for i in range(size):
        for j in range(size):
            m[i][j] = _entry(rng, kind)
    if rng.random() < 0.5:  # a dependent row, so that the core is rank deficient
        m[size - 1] = list(m[0])
    return m


def _forms(m, kind):
    """The matrix as a list of rows and as the arrays a caller may pass."""
    yield m
    yield np.array(m, dtype=object)
    if kind in ("int", "float"):
        yield np.array(m)


@pytest.mark.parametrize("kind", ["int", "big", "fraction", "float"])
def test_peel_matches_bareiss_on_random_sparse_matrices(kind):
    # a mutant that also peels a column with two non-zeros fails here for
    # every kind: for "int" first on a matrix with a core and a repeated row
    # (rank_exact 4, Bareiss 3)
    rng = random.Random(30 + len(kind))
    cores = set()
    for trial in range(120):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        full = trial % 2 == 0
        m = (_triangular if full else _with_core)(rng, n_rows, n_cols, kind)
        rank = rank_bareiss(m)
        peeled, core = _peel(_int_array(m))
        if full:
            assert core is None and peeled == rank, m
        else:
            cores.add(core is not None)
            assert core is None or peeled + rank_bareiss(core) == rank, m
        basis = _back_solved_basis(m)
        for form in _forms(m, kind):
            got = rank_exact(form)
            assert type(got) is int and got == rank, m
            assert nullspace(form) == basis, m
    assert True in cores  # the core path ran


def test_zero_lines_and_empty_shapes():
    for m in ([[0, 0], [0, 0]], [[0, 3, 0], [0, 0, 0]], [[0], [0], [5]]):
        assert rank_exact(m) == rank_bareiss(m)
        assert nullspace(m) == _back_solved_basis(m)
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert rank_exact(np.zeros(shape, dtype=np.int64)) == 0
    # with no rows every unit vector is in the kernel; with no columns nothing is
    assert nullspace(np.zeros((0, 2), dtype=np.int64)) == [(1, 0), (0, 1)]
    assert nullspace(np.zeros((3, 0), dtype=np.int64)) == []
    assert rank_exact([]) == 0 and nullspace([]) == []


def test_floats_are_read_exactly():
    assert rank_exact([[0.5]]) == rank_bareiss([[0.5]]) == 1
    assert nullspace([[0.5, 1]]) == [(Fraction(-2), Fraction(1))]
    assert nullspace(np.array([[0.25, 0.75], [1, 3]])) == [(Fraction(-3), Fraction(1))]
    for bad in (math.nan, math.inf, -math.inf):
        for call in (rank_exact, rank_bareiss, nullspace):
            with pytest.raises(ValueError):
                call([[1, bad]])


def test_a_core_whose_rank_drops_mod_p():
    p = MOD_PRIME
    assert rank_exact([[p]]) == 1  # a singleton: peeled, never reduced mod p
    m = [[2 * p, p], [1, 1]]  # determinant p, and no singleton line
    # the mutant that peels a column with two non-zeros deletes both lines here
    assert _peel(_int_array(m))[0] == 0
    assert rank_mod_p(m) == 1
    assert rank_exact(m) == rank_bareiss(m) == 2
    assert nullspace(m) == []


def _count_mod_p_calls(monkeypatch):
    calls = []
    original = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda *args: calls.append(1) or original(*args))
    return calls


@pytest.mark.parametrize("name, degree", [("colored-chain:2", 6), ("half-bipartite", 7)])
def test_zero_divisor_searches_settle_every_kernel_by_the_peel(monkeypatch, name, degree):
    calls = _count_mod_p_calls(monkeypatch)
    report = search_zero_divisors(AgeBasis.build(builtin(name), degree), degree)
    assert not report.found and report.kernels_checked > 0
    assert calls == []


def test_e_regularity_settles_every_rank_by_the_peel(monkeypatch):
    calls = _count_mod_p_calls(monkeypatch)
    basis = AgeBasis.build(builtin("colored-chain:3"), 6)
    assert all(check_e_regular(basis, n) for n in range(6))
    assert calls == []


def test_an_inclusion_matrix_has_no_singleton_line(monkeypatch):
    # 21 non-zeros in every row and column: the peel hands the whole matrix
    # to one mod-p certificate
    calls = _count_mod_p_calls(monkeypatch)
    matrix, rank = inclusion_rank(12, 5, 2)
    assert rank == 792 and len(calls) == 1
    peeled, core = _peel(matrix.array)
    assert peeled == 0 and core is matrix.array
