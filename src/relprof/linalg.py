"""Exact rank and null spaces for integer/rational matrices.

One fraction-free (Bareiss) elimination over the integers gives both rank
and null space.  A modular certificate is the fast path: the rank over GF(p)
never exceeds the rational rank, so whenever elimination mod p yields full
rank min(rows, cols) the rational rank is pinned exactly without any
big-integer work.  Matrices with rational entries are scaled row-wise to
integers first (rank and kernel preserving).

Every routine takes a list of rows or a numpy array.  ``rank_mod_p`` keeps
an integer array as it is and eliminates on int64: each step updates only
the rows below the pivot with a non-zero entry in the pivot column, right
of that column, and reduces mod p only the pivot column and the pivot row.
The rest of the active block is left unreduced, since every update
subtracts a product of two residues, at most (p-1)**2; after
``_deferred_steps(p)`` = 2**63 // (p-1)**2 updates (about 2.3 million for
``MOD_PRIME``) the whole block is reduced again, so no entry leaves int64.
Bareiss and the back-substitution run on Python ints, from ``tolist()``
for an array.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

MOD_PRIME = 2_000_003
_INT64_SPAN = 2 ** 63  # an int64 holds [-2**63, 2**63)


def _to_int_rows(matrix):
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    rows = []
    for row in matrix:
        if all(type(x) is int for x in row):
            rows.append(row)  # already integer; no copy and no per-entry ABC check
            continue
        row = list(row)
        if any(isinstance(x, Fraction) for x in row):
            denom = 1
            for x in row:
                f = Fraction(x)
                denom = denom * f.denominator // gcd(denom, f.denominator)
            row = [int(Fraction(x) * denom) for x in row]
        else:
            row = [int(x) for x in row]
        rows.append(row)
    return rows


def _deferred_steps(p: int) -> int:
    """Updates a block of residues takes before an entry could leave int64."""
    if p < 2 or (p - 1) ** 2 >= _INT64_SPAN:
        raise ValueError(f"modulus must satisfy 2 <= p and (p-1)**2 < 2**63, got {p}")
    return _INT64_SPAN // (p - 1) ** 2


def _residues(matrix, p: int) -> np.ndarray:
    """The matrix mod p as a 2-d int64 array of entries in [0, p)."""
    if isinstance(matrix, np.ndarray) and np.can_cast(matrix.dtype, np.int64):
        return matrix.astype(np.int64) % p
    rows = _to_int_rows(matrix)
    shape = (len(rows), len(rows[0]) if rows else 0)
    try:
        return np.array(rows, dtype=np.int64).reshape(shape) % p
    except OverflowError:  # entries beyond int64: reduce them exactly first
        return np.array([[x % p for x in row] for row in rows], dtype=np.int64).reshape(shape)


def rank_mod_p(matrix, p: int = MOD_PRIME) -> int:
    """Rank over GF(p), p a prime with (p-1)**2 < 2**63: a lower bound for
    the rational rank."""
    period = _deferred_steps(p)
    a = _residues(matrix, p)
    n_rows, n_cols = a.shape
    rank = 0
    pending = 0  # updates since the active block was last reduced
    for col in range(n_cols):
        if rank == n_rows:
            break
        column = a[rank:, col]
        column %= p
        pivot_rows = np.flatnonzero(column)
        if pivot_rows.size == 0:
            continue
        pivot = rank + int(pivot_rows[0])
        if pivot != rank:
            a[[rank, pivot], col:] = a[[pivot, rank], col:]
        row = a[rank, col + 1:]
        row %= p
        row *= pow(int(a[rank, col]), -1, p)
        row %= p
        factors = a[rank + 1:, col]
        rank += 1
        nz = np.flatnonzero(factors)
        if nz.size == 0:
            continue
        if pending == period:
            a[rank:, col + 1:] %= p
            pending = 0
        a[rank + nz, col + 1:] -= factors[nz, None] * row
        pending += 1
    return rank


def _echelon(rows) -> list[int]:
    """Bareiss echelon form of a list of integer rows, in place, returning
    the pivot columns: row i has its pivot at column pivots[i] and the rows
    below the last pivot are zero.  Rows are replaced, never mutated, so
    rows shared with the caller stay unchanged."""
    if not rows or not rows[0]:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        candidates = [r for r in range(rank, n_rows) if rows[r][col] != 0]
        if not candidates:
            continue
        pivot = max(candidates, key=lambda r: abs(rows[r][col]))
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, n_rows):
            f = rows[r][col]
            row_r, row_p = rows[r], rows[rank]
            # exact by the fraction-free invariant; must run even when f == 0
            rows[r] = [(p * row_r[c] - f * row_p[c]) // prev for c in range(n_cols)]
        prev = p
        pivots.append(col)
    return pivots


def rank_bareiss(matrix) -> int:
    """Fraction-free elimination over the integers; always exact."""
    return len(_echelon(_to_int_rows(matrix)))


def rank_exact(matrix) -> int:
    """Exact rational rank: modular certificate first, Bareiss otherwise."""
    modular = rank_mod_p(matrix)
    if not len(matrix) or modular == min(len(matrix), len(matrix[0])):
        return modular  # rank_p <= rank_Q <= min(rows, cols) forces equality
    return rank_bareiss(matrix)


def nullspace(matrix):
    """A basis of the rational null space, as tuples of Fractions.

    The basis is the reduced-echelon one: vector i has 1 at the i-th free
    column and 0 at the other free columns.  A trivial kernel is settled by
    the mod-p certificate alone; otherwise one Bareiss echelon is solved
    back to front for each free column.
    """
    if not len(matrix) or rank_mod_p(matrix) == len(matrix[0]):
        return []
    a = _to_int_rows(matrix)  # row scaling leaves the kernel unchanged
    pivots = _echelon(a)
    n_cols = len(a[0])
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in reversed(list(zip(a, pivots))):
            rest = sum(row[c] * vec[c] for c in range(col + 1, n_cols))
            vec[col] = Fraction(-rest, row[col])
        basis.append(tuple(vec))
    return basis
