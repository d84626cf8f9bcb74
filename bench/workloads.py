"""Workloads of the relprof benchmark: seeded inputs, cases and output checks.

A case is one ``relprof.cli.main(argv)`` call (or, once, a short library
call) whose stdout is checked against closed forms from the paper and the
acceptance suite, against universal bounds, and against a golden copy.
Argument strings of the form ``{name}`` are replaced by the path of the
generated input file ``name``; the program sees nothing else of the seed.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1

# Closed forms and pinned sequences (phi(0), phi(1), ...).
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22)  # path:30, n <= 8: p(n)
C3OMEGA = (1, 1, 1, 2, 3, 4, 6, 9, 13, 19)  # 1 / (1 - x - x^3)
HALF_BIPARTITE = (1, 1, 2, 3, 6, 10, 20, 36, 72, 136)
T3 = (1, 1, 1, 2, 2, 3, 5, 6, 8)  # builtin lexsum T3, n <= 8
# Isomorphism types of graphs and of tournaments on n vertices (OEIS A000088, A000568).
GRAPH_TYPES = (1, 1, 2, 4, 11, 34, 156, 1044)
TOURNAMENT_TYPES = (1, 1, 1, 2, 4, 12, 56, 456)

CLIQUE_SIZES = (6, 4, 3)


# ---------------------------------------------------------------------------
# Seeded input files
# ---------------------------------------------------------------------------


def _structure_text(comment, m, name, arity, tuples):
    lines = [f"# {comment}", "structure", f"domain {m}", f"relation {name} {arity}"]
    lines += [" ".join(str(x) for x in t) for t in sorted(tuples)]
    lines.append("end")
    return "\n".join(lines) + "\n"


def _random_graph(rng, m):
    edges = set()
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() < 0.5:
            edges |= {(i, j), (j, i)}
    return edges


def _random_tournament(rng, m):
    pairs = itertools.combinations(range(m), 2)
    return {(i, j) if rng.random() < 0.5 else (j, i) for i, j in pairs}


def _random_ternary(rng, m):
    return {t for t in itertools.combinations(range(m), 3) if rng.random() < 0.5}


def _union_of_cliques():
    edges = set()
    start = 0
    for size in CLIQUE_SIZES:
        block = range(start, start + size)
        edges |= {(a, b) for a in block for b in block if a != b}
        start += size
    return edges


# The multichain form of the builtin T3: the 3-cycle with every vertex blown
# up into an omega chain (same rule table as presentations.tournament_fixtures).
T3_MULTICHAIN = """\
# T3 as a multichain presentation: 3 slices, empty finite part
presentation multichain
symbols arc 2
slices 3
fpart-domain 0
vv arc 0 0 <
vv arc 1 1 <
vv arc 2 2 <
vv arc 0 1 < = >
vv arc 1 2 < = >
vv arc 2 0 < = >
"""

# Index 0->1, 1->2, 2->3, 0->3; blocks clique omega, independent omega,
# acyclic omega, clique 2.
LEXSUM = """\
# lexicographic sum over a 4-vertex index digraph
presentation lexsum
index-domain 4
index-arcs
0 1
1 2
2 3
0 3
end
blocks
clique omega
independent omega
acyclic omega
clique 2
end
"""


# The random structures are drawn once, from fixed seeds; the workload seed
# relabels their vertices.  Every seed thus has the same isomorphism types,
# so the same profile and the same amount of canon work, and the golden copy
# holds at every seed; what the seed changes is the labelled input, and with
# it the subset order, the pattern dedupe and every canon input.
RANDOM_STRUCTURES = {
    # file name: (comment, domain size, relation name, arity, generator)
    "graph16.txt": ("G(16, 1/2)", 16, "edge", 2, _random_graph),
    "tournament15.txt": ("random tournament on 15 vertices", 15, "arc", 2, _random_tournament),
    "ternary14.txt": ("each sorted 3-subset of 14 vertices with probability 1/2", 14,
                      "triple", 3, _random_ternary),
    "graph11.txt": ("G(11, 1/2)", 11, "edge", 2, _random_graph),
}


def input_texts(seed: int) -> dict:
    """File name -> contents for every input of every workload."""
    texts = {}
    for name, (comment, m, relation, arity, draw) in RANDOM_STRUCTURES.items():
        tuples = draw(random.Random(f"relprof-bench:{name}"), m)
        label = list(range(m))
        random.Random(f"relprof-bench:{seed}:{name}").shuffle(label)
        relabeled = {tuple(label[x] for x in t) for t in tuples}
        texts[name] = _structure_text(
            f"{comment}, vertices relabeled by seed {seed}", m, relation, arity, relabeled)
    texts["t3-multichain.txt"] = T3_MULTICHAIN
    texts["lexsum.txt"] = LEXSUM
    texts["cliques.txt"] = _structure_text(
        "disjoint union of cliques of sizes 6, 4 and 3", 13, "edge", 2, _union_of_cliques())
    return texts


def write_inputs(seed: int, root: Path, folder: str) -> dict:
    """Write the inputs into root/folder; returns file stem -> path relative to root."""
    (root / folder).mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in input_texts(seed).items():
        (root / folder / name).write_text(text, encoding="utf-8")
        paths[name.rsplit(".", 1)[0]] = f"{folder}/{name}"
    return paths


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems (empty when the output is right)
# ---------------------------------------------------------------------------


def profile_values(stdout: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != "n\tphi":
        raise ValueError("missing 'n\\tphi' header")
    values = []
    for n, line in enumerate(lines[1:]):
        index, value = line.split("\t")
        if int(index) != n:
            raise ValueError(f"row {n} labelled {index}")
        values.append(int(value))
    return tuple(values)


def expect_profile(expected):
    def check(stdout):
        got = profile_values(stdout)
        return [] if got == tuple(expected) else [f"profile {got} != {tuple(expected)}"]

    return check


def bounded_profile(window, m, type_counts=None):
    """Seeded finite structures: phi(n) <= (n+1) phi(n+1), phi(n) <= C(m, n), and
    phi(n) <= the number of isomorphism types on n vertices when known."""

    def check(stdout):
        phi = profile_values(stdout)
        problems = []
        if len(phi) != window + 1 or phi[0] != 1:
            problems.append(f"window: {phi}")
        for n in range(len(phi) - 1):
            if phi[n] > (n + 1) * phi[n + 1]:
                problems.append(f"phi({n})={phi[n]} > {n + 1}*phi({n + 1})={phi[n + 1]}")
        for n, value in enumerate(phi):
            if value > math.comb(m, n):
                problems.append(f"phi({n})={value} > C({m},{n})")
            if type_counts is not None and value > type_counts[n]:
                problems.append(f"phi({n})={value} > {type_counts[n]} types on {n} vertices")
        return problems

    return check


def expect_lines(*required):
    def check(stdout):
        lines = stdout.splitlines()
        return [f"missing line {line!r}" for line in required if line not in lines]

    return check


def expect_incidence(m, n, k):
    rows, cols = math.comb(m, n), math.comb(m, n + k)
    rank = min(rows, cols)
    full = "FULL" if rank == rows else "NOT-FULL"
    met = "met" if 2 * n + k <= m else "unmet"
    return expect_lines(
        f"m={m} n={n} k={k} rows={rows} cols={cols} rank={rank} {full} hypothesis={met}"
    )


def expect_clique_blocks(stdout):
    blocks = set()
    for line in stdout.splitlines()[1:]:
        match = re.fullmatch(r"block size=(\d+) members=([\d,]+)", line)
        if not match:
            return [f"unexpected line {line!r}"]
        blocks.add(tuple(int(x) for x in match.group(2).split(",")))
    starts = itertools.accumulate((0,) + CLIQUE_SIZES)
    cliques = {tuple(range(s, s + size)) for s, size in zip(starts, CLIQUE_SIZES)}
    return [] if blocks == cliques else [f"blocks {sorted(blocks)} are not the cliques"]


def expect_e_ranks(m):
    """Library case on an m-vertex graph: e is injective out of degree n when
    2n + 1 <= m (Kantor); otherwise rank <= min(dim n, dim n+1)."""

    def check(stdout):
        problems = []
        lines = stdout.splitlines()
        if len(lines) != m:
            return [f"{len(lines)} rank lines, expected {m}"]
        for n, line in enumerate(lines):
            match = re.fullmatch(r"degree=(\d+) rank=(\d+) dim=(\d+) next=(\d+)", line)
            if not match or int(match.group(1)) != n:
                return [f"unexpected line {line!r}"]
            rank, dim, nxt = (int(match.group(i)) for i in (2, 3, 4))
            if 2 * n + 1 <= m and rank != dim:
                problems.append(f"degree {n}: rank {rank} != dim {dim} with 2n+1 <= {m}")
            if rank > min(dim, nxt):
                problems.append(f"degree {n}: rank {rank} > min({dim}, {nxt})")
        return problems

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple  # CLI arguments; ("library:<name>", input) for the library case
    check: Callable[[str], list]
    why: str


SPARSE_SWEEP = (
    Case("path30", ("profile", "path:30", "--max-n", "8"), expect_profile(PARTITIONS),
         "5.8M subsets at n = 8 collapse into 256 patterns; the numpy pattern pass dominates"),
    Case("c3omega-series",
         ("series", "C3omega", "--max-n", "9", "--denominator-poly", "1,-1,0,-1"),
         expect_lines("phi=" + ",".join(map(str, C3OMEGA)), "form=(1) / (1 - x - x^3)"),
         "201,604 multichain words give 326 canon calls: word realization and raw dedupe"),
    Case("t3-multichain", ("profile", "{t3-multichain}", "--max-n", "8"), expect_profile(T3),
         "T3 through the multichain word path instead of lexsum compositions"),
    Case("t3-check", ("check", "T3", "--max-n", "10"),
         expect_lines("phi(n) <= (n+1)phi(n+1): ok", "non-decreasing: ok"),
         "lexsum compositions and the universal inequalities"),
)

DENSE_TYPES = (
    Case("graph16", ("profile", "{graph16}", "--max-n", "7"),
         bounded_profile(7, 16, GRAPH_TYPES),
         "G(16, 1/2): nearly every subset is a new type, canon dominates"),
    Case("tournament15", ("profile", "{tournament15}", "--max-n", "7"),
         bounded_profile(7, 15, TOURNAMENT_TYPES),
         "random tournament: canon on asymmetric binary structures"),
    Case("ternary14", ("profile", "{ternary14}", "--max-n", "7"),
         bounded_profile(7, 14),
         "random ternary structure: the only case on the non-binary subset path"),
    Case("half-bipartite", ("profile", "half-bipartite", "--max-n", "9"),
         expect_profile(HALF_BIPARTITE),
         "4,059 words give 3,950 canon calls: presented structure with few collisions"),
    Case("colored-chain3", ("profile", "colored-chain:3", "--max-n", "7"),
         expect_profile(tuple(3 ** n for n in range(8))),
         "13,620 words give 3,280 canon calls, exponential profile 3^n"),
)

ALGEBRA_LAB = (
    Case("zd-colored-chain2",
         ("algebra", "colored-chain:2", "--check", "zero-divisors", "--max-degree", "6"),
         expect_lines("PASS none found at degrees summing <= 6"),
         "414 Fraction nullspace solves over cached split tables"),
    Case("zd-half-bipartite",
         ("algebra", "half-bipartite", "--check", "zero-divisors", "--max-degree", "7"),
         expect_lines("PASS none found at degrees summing <= 7"),
         "zero-divisor search on a graph age"),
    Case("e-regular-colored-chain3",
         ("algebra", "colored-chain:3", "--check", "e-regular", "--max-degree", "5"),
         expect_lines("PASS e-regular max-degree=5"),
         "e matrices and mod-p rank certificates"),
    Case("identity-T3",
         ("algebra", "T3", "--check", "tournament-identity", "--max-degree", "7"),
         expect_lines("PASS tournament-identity max-degree=7"),
         "powers of e through multiply and split tables"),
    Case("incidence-12-5-2", ("incidence", "--m", "12", "--n", "5", "--k", "2"),
         expect_incidence(12, 5, 2),
         "mod-p elimination of a 792x792 inclusion matrix, built and reduced twice"),
    Case("incidence-11-5-2", ("incidence", "--m", "11", "--n", "5", "--k", "2"),
         expect_incidence(11, 5, 2),
         "hypothesis unmet: one build, one rank"),
    Case("decompose-lexsum", ("decompose", "{lexsum}"),
         expect_lines("source=lexsum-file blocks=4", "block size=2 members=3"),
         "block merging on truncations: swap tests answered from the canon cache"),
    Case("decompose-cliques", ("decompose", "{cliques}"), expect_clique_blocks,
         "coarsest decomposition of a finite structure by swap tests"),
    Case("tournament-C3omega", ("tournament", "C3omega"),
         expect_lines("classification=embeds-obstruction"),
         "tournament classifier on acyclic components"),
    Case("e-ranks-graph11", ("library:e-ranks", "{graph11}"), expect_e_ranks(11),
         "AgeBasis.build on G(11, 1/2) to degree 11, e_rank at every degree: "
         "the only traffic that reaches Bareiss"),
)

WORKLOADS = {
    "sparse-sweep": SPARSE_SWEEP,
    "dense-types": DENSE_TYPES,
    "algebra-lab": ALGEBRA_LAB,
}

# Import site ("<module>.<name>" for a module-level copy, "bench.cli.main" for
# the benchmark's own call) -> the workload on which a traced run must record
# at least one call through it.  Each site goes to the workload the layer's
# metrics are meant for, or else to the one whose commands reach it.
EXPECTED_SITES = {
    **dict.fromkeys((
        "bench.cli.main", "cli.builtin", "cli.check_basic_inequality", "cli.check_monotone",
        "cli.fit_rational", "cli.format_poly", "cli.profile_sequence", "cli.series_from",
        "series.format_poly", "presentations.compositions_of_size",
        "presentations.words_of_size", "profiles.age_of_finite", "profiles.enumerate_age",
    ), "sparse-sweep"),
    **dict.fromkeys((
        "canon.canonical_code_bytes", "canon.refined_colors", "cli.load_source",
        "fileformat.parse_structure", "profiles.restrict",
    ), "dense-types"),
    **dict.fromkeys((
        "algebra.AgeBasis.build", "algebra.AgeBasis.split_table", "algebra.age_of_finite",
        "algebra.canonical_code", "algebra.e_matrix", "algebra.e_rank", "algebra.enumerate_age",
        "algebra.multiply", "algebra.nullspace", "algebra.rank_bareiss", "algebra.rank_mod_p",
        "algebra.restrict", "cli.build_incidence", "cli.canonical_decomposition",
        "cli.classify", "cli.e_element", "cli.e_rank", "cli.matrix_rank", "cli.power",
        "cli.presentation_decomposition", "cli.search_zero_divisors", "cli.verify_kantor",
        "decomposition.canonical_code", "decomposition.canonical_decomposition",
        "decomposition.is_monomorphic_part", "decomposition.restrict",
        "fileformat.load_source", "incidence.build_incidence", "incidence.rank_exact",
        "incidence.rank_mod_p", "linalg.rank_mod_p", "presentations.canonical_code",
        "profiles.canonical_code",
    ), "algebra-lab"),
}

# Wrapped import sites that no command of any workload reaches, and why.
UNREACHED_SITES = {
    **dict.fromkeys((
        "algebra.e_element", "algebra.power", "algebra.search_zero_divisors",
        "decomposition.presentation_decomposition", "fileformat.write_structure",
        "incidence.dump_matrix", "incidence.matrix_rank", "incidence.verify_kantor",
        "linalg.nullspace", "linalg.rank_exact", "presentations.enumerate_age",
        "profiles.check_basic_inequality", "profiles.check_monotone",
        "profiles.profile_sequence", "series.fit_rational", "series.series_from",
        "tournaments.classify",
    ), "defining module's own name; callers use their imported copies"),
    **dict.fromkeys(("incidence.rank_bareiss", "linalg.rank_bareiss"),
                    "the mod-p certificate settles every incidence rank"),
    "cli.dump_matrix": "no case passes --dump",
    "cli.parse_structure": "no case runs 'show'",
    "cli.write_structure": "no case runs 'show'",
    "fileformat.builtin": "no input is a 'builtin:' spec or builtin presentation file",
    "decomposition.enumerate_age": "leading monomials are not on a CLI path",
    "tournaments.presentation_decomposition": "no lexsum input to 'tournament'",
    "structures.canonical_code": "are_isomorphic is not on a CLI path",
    "structures.restrict": "no caller inside structures on a CLI path",
    **dict.fromkeys(("incidence.age_of_finite", "incidence.canonical_code",
                     "incidence.restrict"),
                    "type_indicator_matrix is not on a CLI path"),
    "profiles.words_of_size": "brute_profile_presented is a test oracle",
}
