"""The graded age algebra: type bases, the subset-splitting product, the sum
of points, regularity and zero-divisor experiments, hereditary equivalences.

The degree-n component has one basis element per isomorphism type of
n-element restrictions.  The product of two types counts, on a
representative of each result type, the splittings of its domain into a
piece of the first type and a complement of the second; heredity of the
isomorphy equivalence makes the count representative-independent (tested,
not assumed).  ``AgeBasis.split_table`` holds these counts keyed by basis
positions, as index arrays per type of the part, from the engine that
enumerated the types: a presentation's sweep splits a multichain's words
along its moves and a lexicographic sum's compositions into
sub-compositions, and a finite source reads a record of subset codes.
``_mult_matrix`` adds the tables up into the integer array of
multiplication by a homogeneous element, which gives the e-matrices and the
zero-divisor kernels; ``multiply``, and with it the structure constants,
reads the same tables.  All coefficients are exact rationals.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .linalg import nullspace, rank_exact
from .presentations import _sweep_of, enumerate_age
from .profiles import _subset_walk, _walked_codes, age_of_finite
from .structures import RelStruct


class DegreeOverflowError(ValueError):
    """Raised when a product would leave the truncated basis window."""


@dataclass
class AgeBasis:
    """Type bases of degrees 0..max_degree, with representative structures."""

    source_name: str
    max_degree: int
    levels: list = field(default_factory=list)  # per degree: code -> rep, in code order
    _codes: list = field(default_factory=list)  # per degree: the codes, by position
    _index: dict = field(default_factory=dict)  # code -> (degree, position)
    _split_tables: dict = field(default_factory=dict)
    # degree -> (source bitmask of each type's representative, by position,
    # and the subset walk's bitmask -> code), for a finite source on the walk
    _walked: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict)  # shared by the representatives' walks
    # for a presentation: its sweep, and per degree each candidate's position
    _sweep: object = None
    _positions: list = field(default_factory=list)

    @classmethod
    def build(cls, source, max_degree: int, name: str = "") -> "AgeBasis":
        if max_degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {max_degree}")
        basis = cls(name or getattr(source, "name", "") or "age", max_degree)
        if isinstance(source, RelStruct):
            # one pass fills every level, and records them on the subset walk
            basis._walked = _walked_codes(source, min(max_degree, source.domain_size))
        for n in range(max_degree + 1):
            if isinstance(source, RelStruct):
                level = age_of_finite(source, n) if n <= source.domain_size else {}
            else:
                level = enumerate_age(source, n)
            codes = list(level)  # both engines return code order
            basis.levels.append(level)  # a finite level builds a representative when read
            basis._codes.append(codes)
            basis._index.update((code, (n, pos)) for pos, code in enumerate(codes))
        if not isinstance(source, RelStruct):
            basis._sweep = sweep = _sweep_of(source)
            basis._positions = [
                np.array([basis._index[code][1] for code in sweep.codes(n)], dtype=np.int64)
                for n in range(max_degree + 1)]
        return basis

    def dimension(self, degree: int) -> int:
        return len(self._codes[degree])

    def codes(self, degree: int):
        return list(self._codes[degree])

    def representative(self, degree: int, pos: int) -> RelStruct:
        return self.levels[degree][self._codes[degree][pos]]

    def index_of(self, code: bytes):
        return self._index[code]

    def split_table(self, degree: int, part: int):
        """Per type sigma of degree part: the arrays (rho, tau, count) of its
        splittings, as basis positions.  The representative of the
        degree's type rho has count part-sized subsets of type sigma whose
        complement has type tau of degree - part; only non-zero counts are
        stored.  Parts 0 and degree give the identity.  A presentation's
        sweep splits each type with no canon call and no walk, and the
        basis maps its candidates to positions by their codes.  A finite
        source reads both sides of each split from a subset-walk record:
        the walk that gave its levels, whose subsets include every
        representative, or on the interface sweep a walk of each
        representative over the split's two sizes.  Each way gives the
        table of the complementary part with it, so both are stored at
        once.  ``multiply`` and ``_mult_matrix`` read every product from
        these tables."""
        table = self._split_tables.get((degree, part))
        if table is not None:
            return table
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        if degree > self.max_degree:
            raise DegreeOverflowError(
                f"degree {degree} exceeds basis window {self.max_degree}")
        if not 0 <= part <= degree:
            raise ValueError(f"part {part} outside 0..{degree}")
        dims = (self.dimension(part), self.dimension(degree), self.dimension(degree - part))
        index, walked = self._index, self._walked
        rho = counts = None
        if part in (0, degree):  # each type splits once into the empty type and itself
            rho = np.arange(dims[1], dtype=np.int64)
            empty = np.zeros_like(rho)
            sigma, tau = (empty, rho) if part == 0 else (rho, empty)
        elif self._sweep is not None:
            at = self._positions
            rows, left, right, counts = self._sweep.split(degree, part)
            rho, sigma, tau = at[degree][rows], at[part][left], at[degree - part][right]
            counts = np.array(counts, dtype=np.int64)
        else:  # (representative bitmask, record of its subsets' codes by level)
            if walked:  # every representative is a subset of the source
                pairs = [(walked[degree][0][pos], walked) for pos in range(dims[1])]
            else:
                pairs = (((1 << degree) - 1, _subset_walk(
                    rep, self.max_degree, True, (part, degree - part), self._memo)[1])
                    for rep in self.levels[degree].values())
            sigma, tau = [], []
            for whole, record in pairs:
                left, right = record[part][1], record[degree - part][1]
                bits = [1 << v for v in range(whole.bit_length()) if whole >> v & 1]
                for chosen in itertools.combinations(bits, part):
                    mask = sum(chosen)
                    sigma.append(index[left[mask]][1])
                    tau.append(index[right[whole ^ mask]][1])
        sigma, tau = np.array(sigma, dtype=np.int64), np.array(tau, dtype=np.int64)
        if rho is None:
            rho = np.repeat(np.arange(dims[1], dtype=np.int64), comb(degree, part))
        if 2 * part != degree:
            self._split_tables[(degree, degree - part)] = _grouped(
                tau, rho, sigma, dims[::-1], counts)
        table = self._split_tables[(degree, part)] = _grouped(sigma, rho, tau, dims, counts)
        return table


def _grouped(first, rho, second, dims, counts=None):
    """Sums of counts (one per entry when None) of each (first, rho, second)
    triple, split by first: per value of first, the arrays (rho, second,
    count) in increasing order."""
    n_first, n_rho, n_second = dims
    keys = (first * n_rho + rho) * n_second + second
    if counts is None:
        keys, counts = np.unique(keys, return_counts=True)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        counts, summed = np.zeros(len(keys), dtype=np.int64), counts
        np.add.at(counts, inverse, summed)
    first, rest = np.divmod(keys, n_rho * n_second)
    rho, second = np.divmod(rest, n_second)
    bounds = np.searchsorted(first, np.arange(n_first + 1)).tolist()
    return [(rho[lo:hi], second[lo:hi], counts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported rational combination of (degree, type position)."""

    coeffs: tuple  # tuple[((degree, pos), Fraction), ...] sorted, no zeros

    @classmethod
    def from_dict(cls, data) -> "AlgebraElement":
        items = tuple(
            sorted((k, Fraction(v)) for k, v in data.items() if Fraction(v) != 0)
        )
        return cls(items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self):
        return sorted({deg for (deg, _), _ in self.coeffs})


def type_element(basis: AgeBasis, code: bytes) -> AlgebraElement:
    return AlgebraElement.from_dict({basis.index_of(code): Fraction(1)})


def unit_element() -> AlgebraElement:
    return AlgebraElement.from_dict({(0, 0): Fraction(1)})


def e_element(basis: AgeBasis) -> AlgebraElement:
    """The sum of all degree-1 types with coefficient 1."""
    if basis.max_degree < 1:
        raise DegreeOverflowError("basis window has no degree 1")
    return AlgebraElement.from_dict(
        {(1, pos): Fraction(1) for pos in range(basis.dimension(1))}
    )


def structure_constants(basis: AgeBasis, sigma: bytes, tau: bytes) -> dict:
    """Counts of each product type in sigma * tau, as code -> integer."""
    product = multiply(basis, type_element(basis, sigma), type_element(basis, tau))
    return {basis._codes[deg][pos]: int(c) for (deg, pos), c in product.coeffs}


def multiply(basis: AgeBasis, left: AlgebraElement, right: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the subset-splitting product."""
    out = Counter()
    for (deg_l, pos_l), cl in left.coeffs:
        for (deg_r, pos_r), cr in right.coeffs:
            total = deg_l + deg_r
            if total > basis.max_degree:
                raise DegreeOverflowError(
                    f"product degree {total} exceeds basis window {basis.max_degree}"
                )
            rho, tau, count = basis.split_table(total, deg_l)[pos_l]
            hit = tau == pos_r
            for pos, c in zip(rho[hit].tolist(), count[hit].tolist()):
                out[(total, pos)] += cl * cr * c
    return AlgebraElement.from_dict(out)


def _mult_matrix(basis: AgeBasis, element: AlgebraElement, degree_in: int):
    """Integer array of v -> element*v from degree_in, element homogeneous
    (rows: types of the product degree, columns: types of degree_in).

    The element is scaled by the lcm of its coefficient denominators, which
    leaves the kernel unchanged.  Each type in its support adds its weight
    times its split counts; the array is int64 unless an entry could leave
    int64, and then holds Python ints."""
    (out_deg,) = element.degrees()
    scale = lcm(*(c.denominator for _, c in element.coeffs))
    weights = [(pos, int(c * scale)) for (_, pos), c in element.coeffs]
    total = out_deg + degree_in
    table = basis.split_table(total, out_deg)
    # an entry is at most sum |w| * C(total, out_deg); beyond int64 it stays a Python int
    bound = sum(abs(w) for _, w in weights) * comb(total, out_deg)
    dtype = np.int64 if bound < 2 ** 63 else object
    matrix = np.zeros((basis.dimension(total), basis.dimension(degree_in)), dtype=dtype)
    for sigma, w in weights:
        rho, tau, count = table[sigma]
        matrix[rho, tau] += w * count.astype(dtype, copy=False)
    return matrix


def power(basis: AgeBasis, element: AlgebraElement, exponent: int) -> AlgebraElement:
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    out = unit_element()
    for _ in range(exponent):
        out = multiply(basis, out, element)
    return out


# ---------------------------------------------------------------------------
# Multiplication-by-e and regularity
# ---------------------------------------------------------------------------


def e_matrix(basis: AgeBasis, degree: int):
    """Matrix of u -> e*u from degree to degree+1 (rows: targets)."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if degree + 1 > basis.max_degree:
        raise DegreeOverflowError("degree + 1 exceeds the basis window")
    e = e_element(basis)
    if not e.coeffs:  # without points no type has a positive degree: no rows
        return np.zeros((0, basis.dimension(degree)), dtype=np.int64)
    return _mult_matrix(basis, e, degree)


def e_rank(basis: AgeBasis, degree: int) -> int:
    """Exact rank of multiplication by e out of the given degree."""
    return rank_exact(e_matrix(basis, degree))


def check_e_regular(basis: AgeBasis, degree: int) -> bool:
    """Multiplication by e is injective out of the degree (trivial null space)."""
    return e_rank(basis, degree) == basis.dimension(degree)


# ---------------------------------------------------------------------------
# Zero-divisor search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroDivisorReport:
    witness: tuple | None  # (u, v) as AlgebraElements, or None
    pure_pairs_checked: int
    kernels_checked: int
    random_probes: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def _annihilated(basis: AgeBasis, u: AlgebraElement, b: int):
    """A non-zero v of degree b with u * v = 0, or None.  When the product
    degree has no types, every product is zero and v is the first type."""
    matrix = _mult_matrix(basis, u, b)
    if not len(matrix):
        kernel = [(Fraction(1),)] if basis.dimension(b) else []
    else:
        kernel = nullspace(matrix)
    if not kernel:
        return None
    return AlgebraElement.from_dict({(b, j): c for j, c in enumerate(kernel[0]) if c})


def search_zero_divisors(basis: AgeBasis, max_total_degree: int, random_probes: int = 20,
                         seed: int = 0) -> ZeroDivisorReport:
    """Falsification search for homogeneous u, v != 0 with u*v = 0.

    Exhaustive over single-type u (its full multiplication kernel is solved
    exactly, covering every possible v of the complementary degree), plus
    seeded random small-support u probes, each again with an exact kernel.
    Homogeneous products live in one degree, so a zero inside the window is
    a genuine zero, not a truncation artifact.  Finding nothing is evidence,
    never a proof.
    """
    if max_total_degree > basis.max_degree:
        raise DegreeOverflowError("search degree exceeds the basis window")
    rng = random.Random(seed)
    pure = 0
    kernels = 0
    probes = 0
    for a in range(1, max_total_degree):
        for b in range(1, max_total_degree - a + 1):
            for pos_s in range(basis.dimension(a)):
                u = AlgebraElement.from_dict({(a, pos_s): Fraction(1)})
                kernels += 1
                pure += basis.dimension(b)
                v = _annihilated(basis, u, b)
                if v is not None:
                    return ZeroDivisorReport((u, v), pure, kernels, probes)
            dim = basis.dimension(a)
            if not dim:
                continue  # no type of degree a, so every probe would be zero
            for _ in range(random_probes):
                support = rng.sample(range(dim), k=min(dim, rng.randint(1, 3)))
                u = AlgebraElement.from_dict(
                    {(a, pos): Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for pos in support}
                )
                probes += 1
                v = _annihilated(basis, u, b)
                if v is not None:
                    return ZeroDivisorReport((u, v), pure, kernels, probes)
    return ZeroDivisorReport(None, pure, kernels, probes)


# ---------------------------------------------------------------------------
# Hereditary equivalences
# ---------------------------------------------------------------------------


def is_hereditary(m: int, classes) -> bool:
    """Check the two conditions for an equivalence on the subsets of {0..m-1}:
    equivalent sets share a cardinality, and count each class equally often
    among their own subsets."""
    if m > 5:
        raise ValueError("exhaustive heredity check limited to m <= 5")
    classes = [frozenset(map(frozenset, cls)) for cls in classes]
    class_of = {}
    for ci, cls in enumerate(classes):
        for subset in cls:
            if subset in class_of:
                raise ValueError(f"{set(subset)} appears in two classes")
            class_of[subset] = ci
    universe = [
        frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)
    ]
    if set(class_of) != set(universe):
        raise ValueError("classes must partition all subsets of the domain")
    for cls in classes:
        if len({len(subset) for subset in cls}) > 1:
            return False
    for cls in classes:
        members = sorted(cls, key=sorted)
        baseline = None
        for d in members:
            counts = Counter()
            for r in range(len(d) + 1):
                for sub in itertools.combinations(sorted(d), r):
                    counts[class_of[frozenset(sub)]] += 1
            if baseline is None:
                baseline = counts
            elif counts != baseline:
                return False
    return True


def isomorphy_partition(struct: RelStruct):
    """The partition of all subsets of the domain by restriction type."""
    groups = {}
    for _, codes in _subset_walk(struct, struct.domain_size, True)[1].values():
        for mask, code in codes.items():
            groups.setdefault(code, []).append(frozenset(v for v in struct.domain if mask >> v & 1))
    return list(groups.values())


def cardinality_partition(m: int):
    return [
        [frozenset(c) for c in itertools.combinations(range(m), r)]
        for r in range(m + 1)
    ]
