"""Exact rank and null spaces for integer/rational matrices.

Rank is computed fraction-free (Bareiss) over the integers, with a modular
certificate as a fast path: the rank over GF(p) never exceeds the rational
rank, so whenever elimination mod p yields full rank min(rows, cols) the
rational rank is pinned exactly without any big-integer work.  Matrices with
rational entries are scaled row-wise to integers first (rank preserving).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

MOD_PRIME = 2_000_003  # p**2 * cols stays well inside int64


def _to_int_rows(matrix):
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


def rank_mod_p(matrix, p: int = MOD_PRIME) -> int:
    """Rank over GF(p): a lower bound for the rational rank."""
    rows = _to_int_rows(matrix)
    if not rows or not rows[0]:
        return 0
    try:
        a = np.array(rows, dtype=np.int64) % p
    except OverflowError:  # entries beyond int64: reduce them exactly first
        a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_rows = np.nonzero(a[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = rank + int(pivot_rows[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        factors = a[rank + 1:, col].copy()
        nz = np.nonzero(factors)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz] - factors[nz, None] * a[rank]) % p
        rank += 1
    return rank


def rank_bareiss(matrix, pivot_by_magnitude: bool = True) -> int:
    """Fraction-free elimination over the integers; always exact."""
    a = _to_int_rows(matrix)
    if not a or not a[0]:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rank = 0
    prev = 1
    col = 0
    while rank < n_rows and col < n_cols:
        candidates = [r for r in range(rank, n_rows) if a[r][col] != 0]
        if not candidates:
            col += 1
            continue
        if pivot_by_magnitude:
            pivot = max(candidates, key=lambda r: abs(a[r][col]))
        else:
            pivot = candidates[0]
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for r in range(rank + 1, n_rows):
            f = a[r][col]
            row_r, row_p = a[r], a[rank]
            # exact by the fraction-free invariant; must run even when f == 0
            a[r] = [(p * row_r[c] - f * row_p[c]) // prev for c in range(n_cols)]
        prev = p
        rank += 1
        col += 1
    return rank


def rank_exact(matrix) -> int:
    """Exact rational rank: modular certificate first, Bareiss otherwise."""
    rows = _to_int_rows(matrix)
    if not rows or not rows[0]:
        return 0
    bound = min(len(rows), len(rows[0]))
    modular = rank_mod_p(rows)
    if modular == bound:
        return modular  # rank_p <= rank_Q <= bound forces equality
    return rank_bareiss(rows)


def nullspace(matrix):
    """A basis of the rational null space, as tuples of Fractions.

    The basis is the reduced-echelon one: vector i has 1 at the i-th free
    column and 0 at the other free columns.  A trivial kernel is settled by
    the rank certificate alone, without rational elimination.
    """
    if not matrix or rank_exact(matrix) == len(matrix[0]):
        return []
    a = [[Fraction(x) for x in row] for row in matrix]
    n_rows, n_cols = len(a), len(a[0])
    pivot_cols = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = a[rank][col]
        a[rank] = [x / inv for x in a[rank]]
        for r in range(n_rows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vec[col] = -a[r][free]
        basis.append(tuple(vec))
    return basis
