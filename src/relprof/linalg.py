"""Exact rank and null spaces for integer/rational matrices.

A rank takes up to three steps.  A structural peel deletes, again and
again, a column (row) with one non-zero left and that entry's row
(column); each deletion adds exactly one to the rational rank, with no
arithmetic, and the age algebra's multiplication matrices peel to nothing.
On the core left, a rank mod p that reaches min(rows, cols) is the rational
rank, since it is a lower bound; otherwise fraction-free (Bareiss)
elimination over the integers decides, and it also gives null spaces.
Rational entries are scaled row-wise to integers (rank and kernel
preserving); a float is read exactly, as the dyadic rational it is.

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
from math import lcm

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
        try:
            row = [Fraction(x) for x in row]  # exact, floats included
        except OverflowError as exc:  # an infinity; a nan raises ValueError itself
            raise ValueError(str(exc)) from None
        denom = lcm(*(f.denominator for f in row))
        rows.append([f.numerator * (denom // f.denominator) for f in row])
    return rows


def _int_array(matrix) -> np.ndarray:
    """The matrix as a 2-d array of integers: an integer array as it is,
    anything else row-scaled, as int64 when it fits and Python ints otherwise."""
    if isinstance(matrix, np.ndarray) and np.can_cast(matrix.dtype, np.int64):
        return matrix
    rows = _to_int_rows(matrix)
    shape = (len(rows), len(rows[0]) if rows else 0)
    try:
        return np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:  # entries beyond int64
        return np.array(rows, dtype=object).reshape(shape)


def _deferred_steps(p: int) -> int:
    """Updates a block of residues takes before an entry could leave int64."""
    if p < 2 or (p - 1) ** 2 >= _INT64_SPAN:
        raise ValueError(f"modulus must satisfy 2 <= p and (p-1)**2 < 2**63, got {p}")
    return _INT64_SPAN // (p - 1) ** 2


def _residues(matrix, p: int) -> np.ndarray:
    """The matrix mod p as a 2-d int64 array of entries in [0, p)."""
    a = _int_array(matrix)
    if a.dtype == object:  # entries beyond int64: reduce them exactly first
        return (a % p).astype(np.int64)
    a = a.astype(np.int64)  # a copy, so reducing it in place leaves the caller's alone
    a %= p
    return a


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
        # the swapped-out row was zero in this column, so the rows to clear
        # are the scan's other hits
        below = rank + pivot_rows[1:]
        rank += 1
        if below.size == 0:
            continue
        if pending == period:
            a[rank:, col + 1:] %= p
            pending = 0
        a[below, col + 1:] -= a[below, col, None] * row
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


def _peel(a: np.ndarray):
    """Delete a column with one live non-zero and that entry's row, else a
    row with one and that entry's column, until none is left.  Column (row)
    operations clear the rest of the pivot's row (column), so each deletion
    adds one to the rational rank.  A round deletes every singleton column
    (row) and counts their distinct rows (columns): the other singletons on
    a deleted line become zero lines.  Returns the count and the core: the
    submatrix of the lines with a live non-zero, the matrix itself when
    nothing was deleted, or None when nothing is left."""
    live = np.nonzero(a)  # (rows, columns) of the live non-zeros
    peeled = 0
    while live[0].size:
        for axis in (1, 0):
            single = np.bincount(live[axis])[live[axis]] == 1
            if single.any():
                break
        else:  # no singleton line: hand the rest on
            break
        other = live[1 - axis]
        deleted = np.zeros(a.shape[1 - axis], dtype=bool)
        deleted[other[single]] = True
        peeled += int(np.count_nonzero(deleted))
        keep = ~deleted[other]  # the singletons' own entries lie on deleted lines
        live = (live[0][keep], live[1][keep])
    if not live[0].size:
        return peeled, None
    return peeled, a[np.ix_(np.unique(live[0]), np.unique(live[1]))] if peeled else a


def rank_exact(matrix) -> int:
    """Exact rational rank: the peel, then on its core the modular
    certificate, and Bareiss when that falls short."""
    peeled, core = _peel(_int_array(matrix))
    if core is None:
        return peeled
    modular = rank_mod_p(core)
    if modular == min(core.shape):
        return peeled + modular  # rank_p <= rank_Q <= min(rows, cols) forces equality
    return peeled + rank_bareiss(core)


def nullspace(matrix):
    """A basis of the rational null space, as tuples of Fractions.

    The basis is the reduced-echelon one: vector i has 1 at the i-th free
    column and 0 at the other free columns.  A trivial kernel is settled by
    the peel and the mod-p certificate on its core; otherwise one Bareiss
    echelon of the whole matrix is solved back to front for each free column.
    """
    a = _int_array(matrix)
    n_cols = a.shape[1]
    peeled, core = _peel(a)
    if peeled + (0 if core is None else rank_mod_p(core)) == n_cols:
        return []
    a = a.tolist()  # row scaling leaves the kernel unchanged
    pivots = _echelon(a)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in reversed(list(zip(a, pivots))):
            rest = sum(row[c] * vec[c] for c in range(col + 1, n_cols))
            vec[col] = Fraction(-rest, row[col])
        basis.append(tuple(vec))
    return basis
