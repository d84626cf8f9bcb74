"""Subset-inclusion incidence matrices and exact rank verification.

M(n, n+k) over an m-set has rows indexed by the n-element subsets and
columns by the (n+k)-element subsets, entry 1 exactly at inclusions.  When
2n+k <= m the matrix has full row rank over the rationals, which is what
forces profiles to satisfy phi(n) <= phi(n+k) on large enough domains; both
the rank fact and the profile argument are reproduced computationally here.
Subsets are indexed colexicographically for reproducible dumps.  A matrix
is kept as a numpy array, built in one broadcast over subset bitmasks and
ranked as it is; its rows become Python tuples only when read through
``ExactMatrix.entries`` or dumped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import rank_exact
from .profiles import _check_level, _subset_walk, age_of_finite
from .structures import RelStruct


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    array: np.ndarray  # 2-d integer array, rows by columns
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        if self.array.shape != self.shape:
            raise ValueError(f"labels of shape {self.shape} for a {self.array.shape} matrix")

    @property
    def shape(self):
        return (len(self.row_labels), len(self.col_labels))

    @property
    def entries(self) -> tuple:
        """The rows as tuples of Python ints."""
        return tuple(map(tuple, self.array.tolist()))


def colex_subsets(m: int, size: int):
    """All size-subsets of {0..m-1} in colexicographic order."""
    subsets = [tuple(sorted(s)) for s in itertools.combinations(range(m), size)]
    subsets.sort(key=lambda s: tuple(reversed(s)))
    return subsets


def _masks(subsets, m: int) -> np.ndarray:
    """Vertex bitmasks of the subsets, as int64 while they fit."""
    return np.array([sum(1 << v for v in s) for s in subsets],
                    dtype=np.int64 if m < 63 else object)


def build_incidence(m: int, n: int, k: int) -> ExactMatrix:
    """The 0/1 inclusion matrix between n-subsets and (n+k)-subsets of {0..m-1}."""
    if n < 0 or k < 0 or n + k > m:
        raise ValueError(f"need 0 <= n, 0 <= k, n+k <= m; got m={m} n={n} k={k}")
    rows = colex_subsets(m, n)
    cols = colex_subsets(m, n + k)
    row_masks = _masks(rows, m)[:, None]
    inclusion = (_masks(cols, m)[None, :] & row_masks) == row_masks
    return ExactMatrix(inclusion.astype(np.uint8), tuple(rows), tuple(cols))


def matrix_rank(matrix: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    return rank_exact(matrix.array)


def inclusion_rank(m: int, n: int, k: int) -> tuple[ExactMatrix, int]:
    """The inclusion matrix M(n, n+k) over an m-set and its exact rank."""
    matrix = build_incidence(m, n, k)
    return matrix, matrix_rank(matrix)


def verify_kantor(m: int, n: int, k: int) -> bool:
    """Full row rank of the inclusion matrix under the hypothesis 2n+k <= m."""
    if 2 * n + k > m:
        raise ValueError(f"hypothesis 2n+k <= m unmet: 2*{n}+{k} > {m}")
    # rows <= cols here, so the mod-p certificate of rank_exact settles full rank
    matrix, rank = inclusion_rank(m, n, k)
    return rank == len(matrix.row_labels)


def dump_matrix(matrix: ExactMatrix, m: int, n: int, k: int) -> str:
    lines = [f"{m} {n} {k} {len(matrix.row_labels)} {len(matrix.col_labels)}"]
    for row in matrix.array.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def type_indicator_matrix(struct: RelStruct, n: int) -> ExactMatrix:
    """Rows: types of n-restrictions; columns: n-subsets (colex); entry 1 at matches."""
    _check_level(struct, n)
    types, codes = _subset_walk(struct, n, True, (n,))[1][n]
    types = list(types)  # the codes of age_of_finite, in its order
    index = {code: i for i, code in enumerate(types)}
    cols = colex_subsets(struct.domain_size, n)
    array = np.zeros((len(types), len(cols)), dtype=np.uint8)
    for j, subset in enumerate(cols):
        array[index[codes[sum(1 << v for v in subset)]], j] = 1
    return ExactMatrix(array, tuple(types), tuple(cols))


def profile_inequality_via_incidence(struct: RelStruct, n: int, k: int) -> bool:
    """Replay the incidence-matrix proof that phi(n) <= phi(n+k).

    Multiplies the type-by-subset indicator with the inclusion matrix; the
    product must keep full row rank phi(n), and distinct independent columns
    belong to distinct (n+k)-types, giving the inequality.  Returns True only
    when both the rank argument and the direct profile comparison hold.
    """
    m = struct.domain_size
    if m < 2 * n + k:
        raise ValueError(f"need domain size >= {2 * n + k}, got {m}")
    indicator = type_indicator_matrix(struct, n)
    inclusion = build_incidence(m, n, k).array
    product = indicator.array.astype(np.int64) @ inclusion.astype(np.int64)
    phi_n = len(indicator.row_labels)
    if rank_exact(product) != phi_n:
        return False
    phi_nk = len(age_of_finite(struct, n + k))
    return phi_n <= phi_nk
