"""Acceptance suite: every criterion at its stated tolerance (exact unless
noted), one printed pass/fail line per criterion.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import itertools
import random

import pytest

from relprof.algebra import AgeBasis, e_rank, search_zero_divisors
from relprof.decomposition import (
    canonical_decomposition,
    is_monomorphic_part,
    presentation_decomposition,
    verify_addlayer,
)
from relprof.incidence import verify_kantor
from relprof.presentations import (
    colored_dense_chain,
    half_complete_bipartite,
    interval_division_chain,
    lexsum_tournament_fixture,
    product_of,
    reflexive_chain,
    slow_profile_structure,
    sum_of_cliques,
    tournament_fixtures,
)
from relprof.profiles import (
    check_basic_inequality,
    check_binomial_bound,
    check_eq10_bound,
    check_monotone,
    profile_finite,
    profile_presented,
    profile_sequence,
)
from relprof.series import RationalForm, expand, fit_rational, series_from
from relprof.structures import (
    clique_graph,
    disjoint_union,
    graph_from_edges,
    independent_graph,
    make_struct,
    path_graph,
)

# Presentation fixture corpus.  Window checks (criteria 7 and 8) run over
# all of these; the zero-divisor search (criterion 9) over the empty-kernel ones.
PRESENTATION_FIXTURES = {
    "colored-chain:1": colored_dense_chain(1),
    "colored-chain:2": colored_dense_chain(2),
    "colored-chain:3": colored_dense_chain(3),
    "interval-chain:2": interval_division_chain(2),
    "two-cliques": sum_of_cliques(2),
    "three-cliques": sum_of_cliques(3),
    "half-bipartite": half_complete_bipartite(),
    "half-bipartite-tilde": half_complete_bipartite(tilde=True),
    "omega": lexsum_tournament_fixture("omega"),
    "T1": lexsum_tournament_fixture("T1"),
    "T2": lexsum_tournament_fixture("T2"),
    "T3": lexsum_tournament_fixture("T3"),
    "C3omega": tournament_fixtures("C3omega"),
    "chain-product:3": product_of(reflexive_chain(3)),
}

EMPTY_KERNEL_FIXTURES = (
    "colored-chain:1",
    "colored-chain:2",
    "colored-chain:3",
    "interval-chain:2",
    "two-cliques",
    "three-cliques",
    "half-bipartite",
    "half-bipartite-tilde",
    "omega",
    "C3omega",
    "chain-product:3",
)

LEXSUM_FIXTURES = ("two-cliques", "three-cliques", "omega", "T1", "T2", "T3")


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def partitions_count(n, max_parts=None, max_part=None):
    def rec(remaining, largest, parts):
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and parts == max_parts:
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from ((part,) + rest for rest in rec(remaining - part, part, parts + 1))

    return sum(1 for _ in rec(n, max_part or n, 0))


def test_criterion_01_colored_chain_exponential():
    ok = all(
        profile_presented(colored_dense_chain(k), n) == k ** n
        for k in (1, 2, 3)
        for n in range(8)
    )
    report(1, "colored chain profile is exactly k^n for k <= 3, n <= 7", ok)


def test_criterion_02_clique_sums():
    two = [profile_presented(sum_of_cliques(2), n) for n in range(11)]
    ok_two = two == [n // 2 + 1 for n in range(11)]
    fit = fit_rational(series_from(two), denominator_exponents=(1, 2))
    ok_fit = fit.success and fit.numerator == (1,)
    three = [profile_presented(sum_of_cliques(3), n) for n in range(9)]
    ok_three = three == [partitions_count(n, max_parts=3) for n in range(9)]
    report(
        2,
        "two cliques give floor(n/2)+1 with numerator 1 over (1-x)(1-x^2); "
        "three cliques match the partitions-into-<=3-parts oracle",
        ok_two and ok_fit and ok_three,
    )


def test_criterion_03_path_partition_function():
    # 30 vertices suffice for n <= 8: a partition of n realized by disjoint
    # subpaths needs at most 2n - 1 vertices including the separating gaps
    p30 = path_graph(30)
    values = [profile_finite(p30, n) for n in range(9)]
    expected = [partitions_count(n) for n in range(9)]
    report(
        3,
        "30-vertex path profile equals the partition numbers p(n) for n <= 8",
        values == expected,
        f"phi={values}",
    )


def test_criterion_04_half_complete_bipartite():
    enum = [profile_presented(half_complete_bipartite(), n) for n in range(10)]
    stated = [1, 1, 2, 3, 6, 10, 20, 36, 72, 136]
    closed = expand(
        RationalForm((1, -2, -1, 3, -1), denominator_poly=(1, -3, 0, 6, -4)), 9
    ).coeffs
    discrepancies = []
    if enum != stated:
        discrepancies.append(f"enumeration {enum} vs stated {stated}")
    if tuple(enum) != closed:
        discrepancies.append(f"enumeration {enum} vs closed form {list(closed)}")
    bounds_ok = all(2 ** (n - 2) <= enum[n] <= 2 ** (n - 1) for n in range(2, 10))
    if not bounds_ok:
        discrepancies.append("exponential sandwich bounds fail on the window")
    tilde = [profile_presented(half_complete_bipartite(tilde=True), n) for n in range(10)]
    ok_tilde = all(tilde[n] == 2 ** (n - 1) for n in range(1, 10))
    report(
        4,
        "half-complete bipartite enumeration equals both the stated sequence "
        "and the closed-form expansion; tilde variant is 2^(n-1)",
        not discrepancies and ok_tilde,
        "; ".join(discrepancies) or "no discrepancy between enumeration and closed form",
    )


def test_criterion_05_tournament_sequences():
    t1 = [profile_presented(lexsum_tournament_fixture("T1"), n) for n in range(10)]
    ok_t1 = t1 == [1, 1, 1] + [2] * 7

    t2 = [profile_presented(lexsum_tournament_fixture("T2"), n) for n in range(10)]
    ok_t2 = t2[3] == 2 and all(t2[n] == n - 2 for n in range(4, 10))
    fit = fit_rational(series_from(t2), denominator_exponents=(1, 1))
    ok_t2_fit = fit.success and fit.numerator == (1, -1, 0, 1, -1, 1)

    t3 = [profile_presented(lexsum_tournament_fixture("T3"), n) for n in range(12)]
    ok_t3 = t3 == [1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16]

    c3w = [profile_presented(tournament_fixtures("C3omega"), n) for n in range(10)]
    ok_c3w = tuple(c3w) == expand(
        RationalForm((1,), denominator_poly=(1, -1, 0, -1)), 9
    ).coeffs

    report(
        5,
        "T1/T2/T3/C3.omega profiles match their exact sequences and forms",
        ok_t1 and ok_t2 and ok_t2_fit and ok_t3 and ok_c3w,
    )


def test_criterion_06_kantor_sweep():
    failures = [
        (m, n, k)
        for m in range(13)
        for n in range(m // 2 + 1)
        for k in range(m - 2 * n + 1)
        if not verify_kantor(m, n, k)
    ]
    report(
        6,
        "inclusion matrices have full row rank for all m <= 12, 2n+k <= m",
        not failures,
        f"{sum(1 for m in range(13) for n in range(m // 2 + 1) for _ in range(m - 2 * n + 1))} cases",
    )


def test_criterion_07_universal_inequalities():
    bad = []
    for name, pres in PRESENTATION_FIXTURES.items():
        seq = profile_sequence(pres, 8, name=name)
        if not check_basic_inequality(seq).ok:
            bad.append(f"{name}: basic inequality")
        monotone = check_monotone(seq)
        if not (monotone.applicable and monotone.ok):
            bad.append(f"{name}: monotonicity")
    rng = random.Random(20260810)
    fixtures = [
        path_graph(7),
        clique_graph(7),
        disjoint_union(clique_graph(3), independent_graph(4)),
    ]
    graphs = fixtures + [
        graph_from_edges(
            7, [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.5]
        )
        for _ in range(200)
    ]
    for g in graphs:
        profiles = [profile_finite(g, n) for n in range(8)]
        for n in range(4):
            for k in range(8 - 2 * n):
                if 2 * n + k <= 7 and n + k <= 7 and profiles[n] > profiles[n + k]:
                    bad.append(f"graph {g.relations[0]}: ({n},{k})")
    report(
        7,
        "basic inequality and monotonicity hold on every presentation window; "
        "phi(n) <= phi(n+k) holds exhaustively on 200 random 7-vertex graphs plus fixtures",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_08_e_regularity():
    bad = []
    for name, pres in PRESENTATION_FIXTURES.items():
        basis = AgeBasis.build(pres, 7, name=name)
        for n in range(7):
            rank = e_rank(basis, n)
            phi = profile_presented(pres, n)
            if rank != phi or basis.dimension(n) != phi:
                bad.append(f"{name} at degree {n}: rank {rank} vs phi {phi}")
    report(
        8,
        "multiplication by the point sum is injective up to degree 6 on every "
        "presentation fixture, with rank equal to the independently computed profile",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_09_zero_divisors():
    bad = []
    for name in EMPTY_KERNEL_FIXTURES:
        basis = AgeBasis.build(PRESENTATION_FIXTURES[name], 6, name=name)
        found = search_zero_divisors(basis, 6, random_probes=10, seed=1).found
        if found:
            bad.append(name)
    report(
        9,
        "no zero divisors found at degrees summing <= 6 on empty-kernel fixtures "
        "(property-based evidence, not a proof)",
        not bad,
        "; ".join(bad),
    )


def _all_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partition in _all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


def test_criterion_10_canonical_decomposition_coarsest():
    structs = {
        "path-6": path_graph(6),
        "clique-7": clique_graph(7),
        "clique3+independent3": disjoint_union(clique_graph(3), independent_graph(3)),
        "clique3+independent4": disjoint_union(clique_graph(3), independent_graph(4)),
        "3-cycle-tournament": make_struct((2,), 3, [{(0, 1), (1, 2), (2, 0)}]),
        "flat-slow-profile": slow_profile_structure([1, 2, 3, 3, 3, 3, 3, 3], 7),
    }
    bad = []
    for name, s in structs.items():
        coarse = canonical_decomposition(s)
        coarse_of = {}
        for members, _ in coarse.blocks:
            for v in members:
                coarse_of[v] = members
        for partition in _all_partitions(list(range(s.domain_size))):
            if all(is_monomorphic_part(s, block) for block in partition):
                if any(len({coarse_of[v] for v in block}) != 1 for block in partition):
                    bad.append(name)
                    break
    report(
        10,
        "every block-wise monomorphic partition of the m <= 7 fixtures refines "
        "the coarsest decomposition (exhaustive over set partitions)",
        not bad,
        "; ".join(bad),
    )


def test_criterion_11_leading_monomial_closure():
    bad = []
    for name in ("two-cliques", "T2"):
        pres = PRESENTATION_FIXTURES[name]
        decomp = presentation_decomposition(pres)
        result = verify_addlayer(pres, decomp, 6)
        if not result.ok:
            bad.append(f"{name}: {result.counterexamples[:2]}")
    report(
        11,
        "adding a chain-support layer to a leading monomial stays leading "
        "(or saturates a finite block) through degree 6 on both fixtures",
        not bad,
        "; ".join(bad),
    )


def test_criterion_12_slow_profile():
    bad = []
    for cap in (3, 4):
        f = [min(n + 1, cap) for n in range(13)]
        struct = slow_profile_structure(f, 12)
        got = [profile_finite(struct, n) for n in range(9)]
        if got != f[:9]:
            bad.append(f"cap {cap}: {got}")
    report(
        12,
        "prescribed slow profiles min(n+1,3) and min(n+1,4) are realized "
        "exactly for n <= 8",
        not bad,
        "; ".join(bad),
    )


def test_criterion_13_growth_bounds():
    product_cases = [
        ("chain-product:3", product_of(reflexive_chain(3)), 2),
        ("chain-product:2", product_of(reflexive_chain(2)), 1),
        ("colored-chain:1", colored_dense_chain(1), 0),
        ("interval-chain:2", interval_division_chain(2), 2),  # equality case
    ]
    bad = []
    for name, pres, k in product_cases:
        seq = profile_sequence(pres, 8, name=name)
        if not check_binomial_bound(seq, k):
            bad.append(f"{name}: binomial bound k={k}")
    for name in LEXSUM_FIXTURES:
        pres = PRESENTATION_FIXTURES[name]
        decomp = presentation_decomposition(pres)
        seq = profile_sequence(pres, 8, name=name)
        if not check_eq10_bound(seq, decomp.finite_total, decomp.infinite_count):
            bad.append(f"{name}: 2^r C(n+k-1,k-1) with r={decomp.finite_total} k={decomp.infinite_count}")
    report(
        13,
        "binomial bound holds on product fixtures with their degrees; the "
        "finite-decomposition bound holds on every lexsum fixture with its (r, k)",
        not bad,
        "; ".join(bad),
    )


def test_criterion_14_quasi_symmetric_dimension():
    compositions = [
        c
        for parts in range(1, 4)
        for c in itertools.product(range(1, 5), repeat=parts)
        if sum(c) == 4
    ]
    value = profile_presented(product_of(reflexive_chain(3)), 4)
    report(
        14,
        "chain-by-antichain product has profile 7 at n=4, the number of "
        "compositions of 4 into at most 3 parts",
        value == len(compositions) == 7,
        f"phi(4)={value}, oracle={len(compositions)}",
    )
