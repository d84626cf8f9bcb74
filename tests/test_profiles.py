import gc
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_profile_presented, realize_oracle, restriction_codes
from relprof import profiles
from relprof.presentations import (
    BLOCK_KINDS,
    CLIQUE,
    COMPARATORS,
    OMEGA,
    LexSumPresentation,
    _PrefixSweep,
    colored_dense_chain,
    half_complete_bipartite,
    kernel_probe,
    lexsum_tournament_fixture,
    multichain,
    product_of,
    reflexive_chain,
    slow_profile_structure,
    sum_of_cliques,
    tournament_fixtures,
)
from relprof.profiles import (
    SWEEP_MAX_WIDTH,
    FiniteAge,
    ProfileSequence,
    _interface_levels,
    _subset_walk,
    age_of_finite,
    check_basic_inequality,
    check_binomial_bound,
    check_eq10_bound,
    check_linalg_inequality,
    check_monotone,
    interface_width,
    profile_finite,
    profile_presented,
    profile_sequence,
)
from relprof.structures import (
    RelStruct,
    canonical_code,
    clique_graph,
    digraph,
    graph_from_edges,
    make_struct,
    path_graph,
    restrict,
)


def partitions_oracle(n, max_part=None, max_parts=None):
    """Independent enumeration of partitions of n."""
    def rec(remaining, largest, parts):
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and parts == max_parts:
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part, parts + 1):
                yield (part,) + rest

    return sum(1 for _ in rec(n, max_part or n, 0))


def test_profile_finite_clique_and_path():
    assert profile_finite(clique_graph(4), 2) == 1
    assert profile_finite(path_graph(6), 2) == 2
    assert profile_finite(path_graph(6), 0) == 1


def test_profile_finite_range_errors():
    with pytest.raises(ValueError):
        profile_finite(path_graph(3), 4)


def test_path_profile_is_partition_function():
    p30 = path_graph(30)
    for n in range(7):
        assert profile_finite(p30, n) == partitions_oracle(n), n


def _restrict_oracle(struct, n):
    """Independent oracle: restrict every n-subset, keep the first per code."""
    by_code = {}
    for subset in itertools.combinations(range(struct.domain_size), n):
        r = restrict(struct, subset)
        by_code.setdefault(canonical_code(r), r)
    return dict(sorted(by_code.items()))


def _rep(struct, inside):
    """The restriction to the vertex bitmask ``inside``."""
    return restrict(struct, [v for v in struct.domain if inside >> v & 1])


def _coded_ages(struct, levels):
    """Levels of code -> representative bitmask as ages, code ->
    representative in code order."""
    return [{code: _rep(struct, level[code]) for code in sorted(level)} for level in levels]


def _walk_ages(struct, top):
    """Levels 0..top from one subset-walk pass, serialized as a level of
    the cache entry serializes them when its codes are read."""
    return [dict(FiniteAge(struct, n, types).items())
            for n, types in enumerate(_subset_walk(struct, top, False)[0])]


def _sweep_ages(struct, top):
    """Levels 0..top from one interface-sweep pass."""
    return _coded_ages(struct, _interface_levels(struct, top))


def _random_structure(rng, m):
    """Symbols of arities 1, 2, 3 and an empty binary one; each tuple draws its
    entries from one to arity vertices, so loops and tuples such as (x, x, y)
    are common."""
    arities = (1, 2, 3, 2)
    rels = []
    for arity in arities[:3]:
        rel = set()
        for _ in range(rng.randrange(2 * m + 1)):
            pool = rng.sample(range(m), rng.randint(1, min(arity, m)))
            rel.add(tuple(rng.choice(pool) for _ in range(arity)))
        rels.append(rel)
    return make_struct(arities, m, rels + [set()])


def test_subset_walk_matches_restrict_oracle():
    rng = random.Random(20070308)
    for trial in range(40):
        m = rng.randrange(9)
        s = _random_structure(rng, m)
        oracle = [_restrict_oracle(s, n) for n in range(m + 1)]
        profiles._finite_cache.cache_clear()
        # the counts first, top level first: one pass, and no code serialized
        ages = [age_of_finite(s, n) for n in range(m, -1, -1)][::-1]
        assert [len(age) for age in ages] == [len(level) for level in oracle], trial
        assert all(age._codes is None for age in ages), trial
        _, record = _subset_walk(s, m, True)
        for n in range(m + 1):
            # same codes in the same order, and the same least-subset representatives
            assert list(ages[n].items()) == list(oracle[n].items()), (trial, n)
            assert list(record[n][0]) == list(oracle[n]), (trial, n)
            # every n-subset's code, keyed by its vertex bitmask in lexicographic order
            assert list(record[n][1].items()) == list(restriction_codes(s, n).items()), \
                (trial, n)


def test_subset_walk_for_requested_sizes_matches_the_oracle():
    # one walk for several sizes, asked in any order and one of them twice,
    # visits every subset of those sizes; with a top above m and one memo
    # shared by the walks of seeded relabelings, as an age basis walks its
    # representatives
    rng = random.Random(20261021)
    for trial in range(40):
        m = rng.randrange(1, 9)
        base = _random_structure(rng, m)
        pick = random.Random(f"sizes:{trial}")
        sizes = pick.sample(range(m + 1), pick.randint(1, m + 1))
        top, memo = m + pick.randrange(3), {}
        for s in (base, _relabeled(base, rng), _relabeled(base, rng)):
            levels, record = _subset_walk(s, top, True, sizes + sizes[:1], memo)
            assert sorted(record) == sorted(set(sizes)), (trial, sizes)
            for n in sizes:
                coded, walked = record[n]
                assert list(walked.items()) == list(restriction_codes(s, n).items()), \
                    (trial, n, sizes)
                ages = {code: _rep(s, inside) for code, inside in coded.items()}
                assert list(ages.items()) == list(_restrict_oracle(s, n).items()), \
                    (trial, n, sizes)
                assert sorted(coded.values()) == sorted(inside for inside, _, _ in levels[n])
            # nothing beyond the largest requested size
            assert not any(levels[max(sizes) + 1:]), (trial, sizes)


def _least_subset_oracle(struct, n):
    """code -> restriction to the first n-subset of that code, read from
    restriction_codes (lexicographic subset order, one canonical code per
    subset)."""
    by_code = {}
    for mask, code in restriction_codes(struct, n).items():
        if code not in by_code:
            by_code[code] = _rep(struct, mask)
    return dict(sorted(by_code.items()))


def _relabeled(struct, rng):
    label = list(struct.domain)
    rng.shuffle(label)
    return make_struct(struct.signature.arities, struct.domain_size,
                       [{tuple(label[x] for x in t) for t in rel} for rel in struct.relations])


def _memo_walk_structure(kind, rng, m):
    pairs = list(itertools.combinations(range(m), 2))
    if kind == "graph":
        return graph_from_edges(m, [e for e in pairs if rng.random() < 0.5])
    if kind == "tournament":
        return digraph(m, [(u, w) if rng.random() < 0.5 else (w, u) for u, w in pairs])
    if kind == "digraph-loops-mark":
        arcs = {(rng.randrange(m), rng.randrange(m)) for _ in range(2 * m)}
        return make_struct((2, 1), m, [arcs, {(v,) for v in range(m) if rng.random() < 0.4}])
    if kind == "mixed":
        # arities 1, 2 and 3 in one structure, with loops and tuples such as
        # (x, x, y): the key's integers cover each arity's coordinates
        marks = {(v,) for v in range(m) if rng.random() < 0.4}
        arcs = {(rng.randrange(m), rng.randrange(m)) for _ in range(2 * m)}
        triples = set()
        for _ in range(2 * m):
            pool = rng.sample(range(m), rng.randint(1, 3))
            triples.add(tuple(rng.choice(pool) for _ in range(3)))
        return make_struct((1, 2, 3), m, [marks, arcs, triples])
    # ternary, each tuple drawn from one to three vertices: (x, x, y) and (x, x, x) occur
    triples = set()
    for _ in range(3 * m):
        pool = rng.sample(range(m), rng.randint(1, 3))
        triples.add(tuple(rng.choice(pool) for _ in range(3)))
    return make_struct((3,), m, [triples])


@pytest.mark.parametrize("kind", [
    "graph", "tournament", "digraph-loops-mark", "ternary", "mixed"])
def test_memo_walk_matches_subset_codes(kind):
    # the extension memo against one canonical code per subset: same codes in
    # the same order and the same least-subset representatives, on seeded
    # relabellings, every n, and with the memo shared across levels
    rng = random.Random(f"memo-walk:{kind}")
    for m in (4, 6, 8, 9, 10, 12):
        base = _memo_walk_structure(kind, rng, m)
        copies = [_relabeled(base, rng) for _ in range(2 if m < 12 else 1)]
        walks = [_walk_ages(s, m) for s in copies]
        for n in range(m + 1):
            ages = [walk[n] for walk in walks]
            assert list(ages[0].items()) == list(_least_subset_oracle(copies[0], n).items()), \
                (m, n)
            # a relabelled copy has the same types, each with its own representative
            assert all(list(age) == list(ages[0]) for age in ages), (m, n)
        for walk in walks[1:]:
            assert all(canonical_code(r) == code for code, r in walk[m // 2].items())
        if m < 12:
            # windows below m: at a window's top level the key coordinates
            # reach top - 1, the largest digit of the keys' base
            for top in range(1, m):
                assert _walk_ages(copies[0], top) == walks[0][:top + 1], (m, top)


def test_memo_walk_is_shared_by_concurrent_profiles():
    rng = random.Random(20261019)
    g = _memo_walk_structure("graph", rng, 12)
    assert interface_width(g) > SWEEP_MAX_WIDTH  # on the subset walk
    barrier = threading.Barrier(2)
    results = [None, None]

    def run(i):
        barrier.wait()
        results[i] = profile_sequence(g, 8).coeffs

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    expected = tuple(len(set(restriction_codes(g, n).values())) for n in range(9))
    assert results == [expected, expected]
    for n in range(9):
        assert age_of_finite(g, n) == _least_subset_oracle(g, n), n


def test_levels_are_published_whole_under_concurrent_passes():
    # six threads on two cores ask one structure for windows, single levels
    # and age bases at once, switching often; each must read whole levels
    # (and, for a basis, whole records) equal to those of a pass run alone
    from relprof.algebra import AgeBasis

    g = _memo_walk_structure("graph", random.Random("concurrent-levels"), 10)
    assert not profiles._sweeps(g)
    profiles._finite_cache.cache_clear()
    expected = [list(age_of_finite(g, n).items()) for n in range(11)]
    codes = {n: restriction_codes(g, n) for n in range(11)}
    profiles._finite_cache.cache_clear()
    barrier = threading.Barrier(6)
    failures = []

    def run(i):
        barrier.wait()
        try:
            check(i)
        except Exception as exc:  # a thread's error would otherwise be lost
            failures.append((i, repr(exc)))

    def check(i):
        for top in ((7, 3, 10), (10, 5), (2, 8), (6, 9, 4), (9,), (3, 10))[i]:
            if i % 2:
                basis = AgeBasis.build(g, top)
                got = [list(zip(basis.codes(n), (basis.representative(n, p)
                                                 for p in range(basis.dimension(n)))))
                       for n in range(top + 1)]
                if any(list(basis._walked[n][1].items()) != list(codes[n].items())
                       for n in range(top + 1)):
                    failures.append((i, top, "record"))
            else:
                got = [list(age_of_finite(g, n).items()) for n in range(top, -1, -1)][::-1]
            if got != expected[:top + 1]:
                failures.append((i, top))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def _random_narrow_structure(rng, m):
    """Two binary symbols and a unary one on m vertices: loops, directed arcs
    and symmetric edges, each pair added only while the width stays <= 2."""
    s = make_struct((2, 1, 2), m, [set(), set(), set()])
    pairs = list(itertools.combinations(range(m), 2))
    rng.shuffle(pairs)
    for u, w in pairs[: rng.randrange(len(pairs) + 1)]:
        symbol = rng.choice((0, 2))
        arcs = rng.choice(([(u, w)], [(w, u)], [(u, w), (w, u)]))
        rels = list(s.relations)
        rels[symbol] = rels[symbol] | set(arcs)
        wider = make_struct((2, 1, 2), m, rels)
        if interface_width(wider) <= SWEEP_MAX_WIDTH:
            s = wider
    loops = {(v, v) for v in range(m) if rng.random() < 0.3}
    unary = {(v,) for v in range(m) if rng.random() < 0.4}
    return make_struct((2, 1, 2), m, [s.relations[0] | loops, unary, s.relations[2]])


def test_interface_sweep_matches_subset_path():
    rng = random.Random(20070302)
    for trial in range(30):
        m = rng.randrange(1, 10)
        s = _random_narrow_structure(rng, m)
        assert interface_width(s) <= SWEEP_MAX_WIDTH
        # same codes in the same order, and the same least-subset representatives
        assert _sweep_ages(s, m) == _walk_ages(s, m), trial


def test_interface_sweep_matches_vectorized_path_on_digraphs():
    rng = random.Random(3)
    for trial in range(10):
        arcs = {(v, v + d) if rng.random() < 0.5 else (v + d, v)
                for v in range(11) for d in (1, 2) if v + d < 11 and rng.random() < 0.6}
        g = digraph(11, arcs)
        assert interface_width(g) <= SWEEP_MAX_WIDTH
        swept, walked = _sweep_ages(g, 8), _walk_ages(g, 8)
        for n in range(1, 9):
            assert list(swept[n]) == list(walked[n]), (trial, n)
            assert all(canonical_code(r) == code for code, r in swept[n].items())


def test_interface_sweep_is_sound_beyond_the_width_rule():
    g = graph_from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i * j) % 3])
    assert interface_width(g) > SWEEP_MAX_WIDTH
    swept, walked = _sweep_ages(g, 8), _walk_ages(g, 8)
    for n in range(9):
        assert list(swept[n]) == list(walked[n])


def test_interface_width_chooses_the_path(monkeypatch):
    rng = random.Random(16)
    g16 = graph_from_edges(
        16, [e for e in itertools.combinations(range(16), 2) if rng.random() < 0.5])
    assert interface_width(path_graph(30)) == 1
    assert interface_width(g16) > SWEEP_MAX_WIDTH
    ternary = make_struct((3,), 5, [{(0, 2, 4)}])
    assert interface_width(ternary) == 0  # but arity 3 keeps it on the subset path
    swept = []
    monkeypatch.setattr(
        profiles, "_interface_levels", lambda s, n: swept.append(s) or _interface_levels(s, n))
    profiles._finite_cache.cache_clear()  # levels cached by other tests would skip the engines
    for s in (path_graph(30), g16, ternary):
        age_of_finite(s, 3)
    assert swept == [path_graph(30)]


def _caterpillar(rng, spine):
    """A path of spine vertices, each followed in the vertex order by its
    0-2 legs, so the interface width stays 1."""
    edges, last, v = [], None, 0
    for _ in range(spine):
        if last is not None:
            edges.append((last, v))
        last, v = v, v + 1
        for _ in range(rng.randrange(3)):
            edges.append((last, v))
            v += 1
    return graph_from_edges(v, edges)


def _reversed(struct):
    m = struct.domain_size
    return make_struct(struct.signature.arities, m,
                       [{tuple(m - 1 - x for x in t) for t in rel} for rel in struct.relations])


def _interface_width_oracle(struct):
    """Max over t of the number of v <= t sharing a binary tuple with some w > t."""
    pairs = [set(tup) for arity, rel in zip(struct.signature.arities, struct.relations)
             if arity == 2 for tup in rel]
    return max((sum(any(v in pair and max(pair) > t for pair in pairs) for v in range(t + 1))
                for t in range(struct.domain_size)), default=0)


def _grid(rows, cols):
    """The rows x cols grid graph, numbered down each column."""
    edges = [(v, v + rows) for v in range(rows * (cols - 1))]
    edges += [(v, v + 1) for v in range(rows * cols) if v % rows < rows - 1]
    return graph_from_edges(rows * cols, edges)


def _bench_graph16():
    """The benchmark's graph16 input at its default seed."""
    from relprof.fileformat import parse_structure
    from test_bench_contract import _bench_module

    workloads = _bench_module("workloads")
    text = workloads.input_texts(workloads.DEFAULT_SEED)["graph16.txt"]
    return parse_structure(text).struct


def test_interface_width_matches_its_definition():
    # arities 1, 2 and 3 with loops and repeated entries, under seeded relabelings
    rng = random.Random("interface-width")
    structs = [_random_structure(rng, rng.randrange(12)) for _ in range(40)]
    structs += [_memo_walk_structure(kind, rng, m) for m in (3, 6, 9)
                for kind in ("graph", "tournament", "digraph-loops-mark", "ternary")]
    for trial, s in enumerate(structs):
        for copy in (s, _relabeled(s, rng), _reversed(s)):
            assert interface_width(copy) == _interface_width_oracle(copy), trial
    # the engine each pinned input takes
    pinned = [(path_graph(30), 1, True), (_grid(3, 10), 3, False),
              (_caterpillar(random.Random("caterpillar"), 8), 1, True),
              (_bench_graph16(), 12, False)]
    for struct, width, sweeps in pinned:
        assert interface_width(struct) == _interface_width_oracle(struct) == width
        assert profiles._sweeps(struct) == sweeps


def _one_pass_inputs():
    """(label, structure, top, takes the sweep) of every kind: arities 1-3
    and binary graphs on the subset walk, paths, caterpillars and width
    <= 2 digraphs on the sweep, seeded relabelings, m = 0, N = 0 and N = m."""
    rng = random.Random("one-pass")
    cases = [("empty", make_struct((2,), 0, [set()]), 0, True),
             ("arity-3-empty", make_struct((3,), 0, [set()]), 0, False)]
    for m in (1, 5, 8):
        s = _random_structure(rng, m)
        cases += [(f"arities-1-3:{m}", s, m, False),
                  (f"arities-1-3:{m}:relabeled", _relabeled(s, rng), m - 1, False),
                  (f"arities-1-3:{m}:top-0", s, 0, False)]
    for kind in ("graph", "tournament", "digraph-loops-mark", "ternary"):
        s = _memo_walk_structure(kind, rng, 9)
        cases += [(f"{kind}:9", s, 9, False),
                  (f"{kind}:9:relabeled", _relabeled(s, rng), 6, False)]
    cases += [("path:9", path_graph(9), 9, True),
              ("path:9:reversed", _reversed(path_graph(9)), 5, True),
              ("path:9:top-0", path_graph(9), 0, True),
              ("path:9:relabeled", _relabeled(path_graph(9), rng), 9, None)]
    for trial in range(3):
        s = _caterpillar(rng, 4)
        cases += [(f"caterpillar:{trial}", s, s.domain_size, True),
                  (f"caterpillar:{trial}:relabeled", _relabeled(s, rng), 4, None)]
    for trial in range(4):
        s = _random_narrow_structure(rng, 8)
        cases += [(f"narrow:{trial}", s, 8, True),
                  (f"narrow:{trial}:relabeled", _relabeled(s, rng), 8, None)]
    return cases


@pytest.mark.parametrize("struct, top, sweeps",
                         [pytest.param(*case, id=label) for label, *case in _one_pass_inputs()])
def test_one_call_fills_every_level_as_the_oracle(monkeypatch, struct, top, sweeps):
    # codes, their order and the least-subset representatives of every level
    # 0..top, all read from the one pass that the call for the top level ran
    if sweeps is not None:
        assert profiles._sweeps(struct) == sweeps
    profiles._finite_cache.cache_clear()
    passes = []
    fill = profiles._fill_levels
    monkeypatch.setattr(profiles, "_fill_levels",
                        lambda s, t, record: passes.append(t) or fill(s, t, record))
    ages = {top: age_of_finite(struct, top)}
    ages.update((n, age_of_finite(struct, n)) for n in range(top))
    assert passes == [top]
    for n in range(top + 1):
        assert list(ages[n].items()) == list(_restrict_oracle(struct, n).items()), n
    assert not profiles._finite_cache(struct)[1]  # no record without a basis


def test_a_basis_after_a_profile_records_every_level(monkeypatch):
    # the profile's pass records no codes, so the basis runs one recording
    # pass; its record and representatives are the walk's, level by level
    from relprof.algebra import AgeBasis

    g = _relabeled(_memo_walk_structure("graph", random.Random("record-after-profile"), 10),
                   random.Random(7))
    assert not profiles._sweeps(g)
    profiles._finite_cache.cache_clear()
    passes = []
    fill = profiles._fill_levels
    monkeypatch.setattr(profiles, "_fill_levels",
                        lambda s, t, record: passes.append((t, record)) or fill(s, t, record))
    seq = profile_sequence(g, 7)
    assert not profiles._finite_cache(g)[1]
    basis = AgeBasis.build(g, 7)
    assert passes == [(7, False), (7, True)]
    assert [basis.dimension(n) for n in range(8)] == list(seq.coeffs)
    assert sorted(basis._walked) == list(range(8))
    for n in range(8):
        masks, record = basis._walked[n]
        assert list(record.items()) == list(restriction_codes(g, n).items()), n
        for pos, code in enumerate(basis.codes(n)):
            assert record[masks[pos]] == code
            assert _rep(g, masks[pos]) == basis.representative(n, pos)
        assert list(basis.levels[n].items()) == list(_restrict_oracle(g, n).items()), n


def _g12():
    rng = random.Random("work-count:g12")
    g = graph_from_edges(12, [e for e in itertools.combinations(range(12), 2)
                              if rng.random() < 0.5])
    assert not profiles._sweeps(g)
    return g


def _count_canon_calls(monkeypatch):
    calls = []
    labelling = profiles.canonical_labelling
    monkeypatch.setattr(profiles, "canonical_labelling",
                        lambda *args: calls.append(args[1]) or labelling(*args))
    return calls


# canon calls of one subset-walk pass over the seeded G(12, 1/2) to n <= 8:
# one per distinct extension key plus the root; the pass visits 3,797 subsets
G12_WINDOW_CANON_CALLS = 1420


def test_one_profile_runs_canon_once_per_extension_key(monkeypatch):
    g = _g12()
    profiles._finite_cache.cache_clear()
    calls = _count_canon_calls(monkeypatch)
    profile_sequence(g, 8)
    assert len(calls) == G12_WINDOW_CANON_CALLS
    assert sum(math.comb(12, n) for n in range(9)) == 3797  # once per node would be more
    assert calls.count(0) == 1  # the root, once for the whole window


def test_a_profile_serializes_no_code_and_a_read_level_one_per_type(monkeypatch):
    # counting needs no code: the pass names types by canonical image, and a
    # level serializes its types when its codes are first read, once each;
    # a basis's recording pass serializes each type of its levels once
    from relprof.algebra import AgeBasis

    g = _g12()
    profiles._finite_cache.cache_clear()
    labellings = _count_canon_calls(monkeypatch)
    serialized = []
    form = profiles.labelled_form
    monkeypatch.setattr(profiles, "labelled_form",
                        lambda *args: serialized.append(args[1]) or form(*args))
    seq = profile_sequence(g, 8)
    assert seq.coeffs == (1, 1, 2, 4, 11, 30, 103, 295, 392)
    assert len(labellings) == G12_WINDOW_CANON_CALLS and serialized == []
    age = age_of_finite(g, 8)
    assert len(age) == 392 and serialized == []
    assert list(age) == sorted(set(restriction_codes(g, 8).values()))
    assert len(labellings) == G12_WINDOW_CANON_CALLS and serialized == [8] * 392
    list(age_of_finite(g, 8).items())  # the level keeps its codes
    assert len(serialized) == 392
    serialized.clear()
    AgeBasis.build(g, 8)
    assert len(serialized) == sum(seq.coeffs) == 839  # one per type of levels 0..8


def test_a_finished_pass_leaves_no_memo_in_the_cache_entry():
    # the entry holds the levels and the record, nothing of the pass's
    # extension memo, and no closure over the memo waits for a cyclic collection
    g = _g12()
    profiles._finite_cache.cache_clear()
    gc.collect()
    gc.disable()
    try:
        profile_sequence(g, 8)
        assert not any(getattr(o, "__qualname__", "") == "_subset_walk.<locals>.walk"
                       for o in gc.get_objects())
    finally:
        gc.enable()
    levels, records = profiles._finite_cache(g)
    assert sorted(levels) == list(range(9))
    # per level, each type's bitmask and labelling, and no code yet
    assert all(level._codes is None
               and all(isinstance(inside, int) for inside, _, _ in level._types)
               for level in levels.values())
    assert records == {}


def test_a_basis_after_a_profile_runs_one_recording_pass(monkeypatch):
    # the profile's memo ended with its pass, so the basis's recording pass
    # makes the same canon calls again; a second basis reads the record
    from relprof.algebra import AgeBasis

    g = _g12()
    profiles._finite_cache.cache_clear()
    passes = []
    fill = profiles._fill_levels
    monkeypatch.setattr(profiles, "_fill_levels",
                        lambda s, t, record: passes.append((t, record)) or fill(s, t, record))
    calls = _count_canon_calls(monkeypatch)
    profile_sequence(g, 8)
    AgeBasis.build(g, 8)
    assert passes == [(8, False), (8, True)]
    assert len(calls) == 2 * G12_WINDOW_CANON_CALLS
    AgeBasis.build(g, 8)
    assert len(passes) == 2 and len(calls) == 2 * G12_WINDOW_CANON_CALLS


def test_a_recorded_level_holds_every_subset():
    from relprof.algebra import AgeBasis

    g = _g12()
    profiles._finite_cache.cache_clear()
    basis = AgeBasis.build(g, 6)
    for n in range(7):
        record = basis._walked[n][1]
        assert len(record) == math.comb(12, n)
        assert list(record) == [sum(1 << v for v in subset)
                                for subset in itertools.combinations(range(12), n)]


def test_path_window_is_one_sweep_pass(monkeypatch):
    profiles._finite_cache.cache_clear()
    passes, kept = [], []
    sweep, keep = profiles._interface_levels, profiles._keep
    monkeypatch.setattr(profiles, "_interface_levels",
                        lambda s, top: passes.append(top) or sweep(s, top))
    monkeypatch.setattr(profiles, "_keep", lambda *args: kept.append(1) or keep(*args))
    assert profile_sequence(path_graph(30), 8).coeffs == tuple(
        partitions_oracle(n) for n in range(9))
    assert passes == [8]
    assert len(kept) == 6546


def test_canon_calls_of_a_profile_do_not_depend_on_the_hash_seed():
    # the subset walk's canon calls on a committed ternary structure, counted
    # in fresh interpreters under two PYTHONHASHSEED values
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from relprof import profiles\n"
        "from relprof.fileformat import load_source\n"
        "calls = []\n"
        "labelling = profiles.canonical_labelling\n"
        "profiles.canonical_labelling = lambda *args: calls.append(1) or labelling(*args)\n"
        "seq = profiles.profile_sequence(load_source(sys.argv[1]), 10)\n"
        "print(seq.coeffs, len(calls))\n"
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script, str(root / "tests" / "data" / "ternary10.txt")],
            env=env, capture_output=True, check=False, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert int(outputs[0].split()[-1]) > 0


def test_path_profile_reach_beyond_subset_sweep():
    # C(40, 10) ~ 8.5e8 subsets at n = 10; the sweep keys about 19,000 states
    assert profile_sequence(path_graph(40), 10).coeffs == tuple(
        partitions_oracle(n) for n in range(11))


def _gaussian_binomial(top, k):
    """Coefficients of [top choose k]_q by [N, k] = [N-1, k-1] + q^k [N-1, k]."""
    if k in (0, top):
        return [1]
    left, right = _gaussian_binomial(top - 1, k - 1), _gaussian_binomial(top - 1, k)
    out = [0] * (k * (top - k) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def _blown_up_cliques(m, r, complement=False, label=None):
    """m disjoint copies of K_r, or its complement, vertex v renamed label[v]."""
    label = label or list(range(m * r))
    edges = [(label[u], label[w]) for u, w in itertools.combinations(range(m * r), 2)
             if (u // r == w // r) != complement]
    return graph_from_edges(m * r, edges)


def test_blown_up_cliques_match_gaussian_binomial():
    # m.K_r and its complement are homogeneous: phi(n) counts the orbits of
    # S_r wr S_m on n-subsets, the coefficient of q^n in [m+r choose m]_q
    label = list(range(24))
    random.Random(1978).shuffle(label)
    cases = [
        (_blown_up_cliques(8, 3), 8, 3, True),  # width 2: the sweep
        (_blown_up_cliques(8, 3, label=label), 8, 3, False),  # the walk
        (_blown_up_cliques(5, 4, complement=True), 5, 4, False),
    ]
    for g, m, r, swept in cases:
        assert (interface_width(g) <= SWEEP_MAX_WIDTH) == swept
        assert profile_sequence(g, 6).coeffs == tuple(_gaussian_binomial(m + r, m)[:7])


def test_profile_presented_fixtures():
    assert profile_presented(sum_of_cliques(2), 6) == 4
    assert profile_presented(half_complete_bipartite(), 6) == 20
    assert profile_presented(half_complete_bipartite(tilde=True), 5) == 16


def test_profile_presented_matches_brute_oracle():
    fixtures = [
        tournament_fixtures("T1"),
        tournament_fixtures("C3omega"),
        colored_dense_chain(2),
        sum_of_cliques(2),
        lexsum_tournament_fixture("T2"),
    ]
    for pres in fixtures:
        for n in range(5):
            assert profile_presented(pres, n) == brute_profile_presented(pres, n)


def _subsets_of(elements):
    elements = list(elements)
    return st.sets(st.sampled_from(elements)) if elements else st.just(set())


@st.composite
def small_lexsums(draw):
    """An index digraph on 1-3 vertices with blocks of any kind, omega or finite."""
    k = draw(st.integers(1, 3))
    arcs = draw(_subsets_of((i, j) for i in range(k) for j in range(k) if i != j))
    blocks = tuple(
        (draw(st.sampled_from(BLOCK_KINDS)), draw(st.sampled_from((OMEGA, 1, 2))))
        for _ in range(k)
    )
    return LexSumPresentation(digraph(k, arcs), blocks)


@st.composite
def small_multichains(draw):
    """One or two binary symbols, maybe a unary one, a finite part of at most
    two elements and one to three slices, with arbitrary rule tables."""
    arities = draw(st.sampled_from(((2,), (2, 1), (1, 2), (2, 2))))
    f_size = draw(st.integers(0, 2))
    v_size = draw(st.integers(1, 3))
    f_elts, slices = range(f_size), range(v_size)
    f_rels = [
        draw(_subsets_of(itertools.product(f_elts, repeat=arity))) for arity in arities
    ]
    unary, vv, fv, vf = {}, {}, {}, {}
    for sym, arity in enumerate(arities):
        if arity == 1:
            unary[sym] = draw(_subsets_of(slices))
            continue
        vv[sym] = draw(_subsets_of(itertools.product(slices, slices, COMPARATORS)))
        fv[sym] = draw(_subsets_of(itertools.product(f_elts, slices)))
        vf[sym] = draw(_subsets_of(itertools.product(slices, f_elts)))
    return multichain(arities, make_struct(arities, f_size, f_rels), v_size,
                      unary, vv, fv, vf)


@settings(derandomize=True, database=None, max_examples=75, deadline=None)
@given(small_lexsums())
def test_random_lexsum_profile_matches_brute_oracle(pres):
    for n in range(5):
        assert profile_presented(pres, n) == brute_profile_presented(pres, n), n


@settings(derandomize=True, database=None, max_examples=75, deadline=None)
@given(small_multichains())
def test_random_multichain_profile_matches_brute_oracle(pres):
    sweep = _PrefixSweep(pres)
    for n in range(5):
        brute = brute_profile_presented(pres, n)
        assert profile_presented(pres, n) == brute, n
        swept = {canonical_code(RelStruct(pres.signature, n, rels))
                 for rels, _ in sweep.candidates(n)}
        assert len(swept) == brute, n


def test_profile_presented_matches_pairwise_dedup_oracle():
    # wider window: realize every word, deduplicate by pairwise isomorphism
    # tests (no canonical-code set shortcut)
    from relprof.presentations import (
        compositions_of_size,
        realize_composition,
        words_of_size,
    )
    from relprof.structures import are_isomorphic

    multichains = [
        tournament_fixtures("T2"),
        tournament_fixtures("C3omega"),
        half_complete_bipartite(),
    ]
    for pres in multichains:
        for n in range(6, 8):
            reps = []
            for w in words_of_size(pres, n):
                s = realize_oracle(pres, w)
                if not any(are_isomorphic(s, r) for r in reps):
                    reps.append(s)
            assert len(reps) == profile_presented(pres, n), (pres.name, n)
    for pres in (sum_of_cliques(2), lexsum_tournament_fixture("T3")):
        for n in range(6, 8):
            reps = []
            for c in compositions_of_size(pres, n):
                s = realize_composition(pres, c)
                if not any(are_isomorphic(s, r) for r in reps):
                    reps.append(s)
            assert len(reps) == profile_presented(pres, n), (pres.name, n)


def test_profile_sequence_t3():
    seq = profile_sequence(lexsum_tournament_fixture("T3"), 11)
    assert seq.coeffs == (1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16)
    assert seq.infinite_source


def test_profile_sequence_empty_structure():
    seq = profile_sequence(make_struct((), 0, []), 0)
    assert seq.coeffs == (1,)


def test_profile_sequence_c3omega_matches_recurrence():
    seq = profile_sequence(tournament_fixtures("C3omega"), 9)
    a = [1, 1, 1]
    for n in range(3, 10):
        a.append(a[n - 1] + a[n - 3])
    assert seq.coeffs == tuple(a)


def test_clique_plus_independent_linear_profile():
    # an infinite clique next to an infinite independent set: phi(n) = n,
    # generating series (1+x^3) / ((1-x)(1-x^2))
    from relprof.presentations import CLIQUE, INDEPENDENT
    from relprof.series import RationalForm, expand

    pres = LexSumPresentation(
        digraph(2, []), ((CLIQUE, OMEGA), (INDEPENDENT, OMEGA)), name="clique+empty"
    )
    seq = profile_sequence(pres, 9)
    assert seq.coeffs == (1,) + tuple(range(1, 10))
    form = RationalForm((1, 0, 0, 1), denominator_exponents=(1, 2))
    assert expand(form, 9).coeffs == seq.coeffs


def test_interval_chain_profile_and_bound_equality():
    import math

    from relprof.presentations import interval_division_chain

    for k in (1, 2):
        seq = profile_sequence(interval_division_chain(k), 7)
        assert seq.coeffs == tuple(math.comb(n + k, k) for n in range(8))
        assert check_binomial_bound(seq, k)  # met with equality


def test_basic_inequality_reports():
    seq = profile_sequence(lexsum_tournament_fixture("T2"), 8)
    assert check_basic_inequality(seq).ok
    bad = ProfileSequence((1, 3, 1), "bad", False)
    report = check_basic_inequality(bad)
    assert report.violations == (1,)
    assert check_basic_inequality(ProfileSequence((1,), "one", False)).ok


def test_monotone_reports():
    for name in ("T1", "T2", "T3"):
        seq = profile_sequence(lexsum_tournament_fixture(name), 8)
        report = check_monotone(seq)
        assert report.applicable and report.ok
    finite = profile_sequence(clique_graph(4), 4)
    report = check_monotone(finite)
    assert not report.applicable


def test_linalg_inequality_exhaustive_m7():
    import random

    rng = random.Random(17)
    for _ in range(12):
        edges = [
            (i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.5
        ]
        g = graph_from_edges(7, edges)
        for n in range(4):
            for k in range(8 - 2 * n):
                if 2 * n + k <= 7 and n + k <= 7:
                    assert check_linalg_inequality(g, n, k), (edges, n, k)


def test_linalg_inequality_hypothesis():
    with pytest.raises(ValueError):
        check_linalg_inequality(path_graph(4), 2, 1)


def test_binomial_bound_products():
    seq = profile_sequence(product_of(reflexive_chain(3)), 8)
    assert check_binomial_bound(seq, 2)
    flat = profile_sequence(colored_dense_chain(1), 6)
    assert check_binomial_bound(flat, 0)
    two = profile_sequence(sum_of_cliques(2), 8)
    assert check_binomial_bound(two, 1)


def test_eq10_bound_fixtures():
    cases = [
        (sum_of_cliques(2), 0, 2),
        (sum_of_cliques(1), 0, 1),
        (lexsum_tournament_fixture("T2"), 1, 2),
        (lexsum_tournament_fixture("T1"), 2, 1),
    ]
    for pres, r, k in cases:
        seq = profile_sequence(pres, 8)
        assert check_eq10_bound(seq, r, k), pres.name


def test_kernel_probe_t2_finite_vertex():
    pres = tournament_fixtures("T2")
    probe = kernel_probe(pres, ("F", 0), 4)
    assert probe.status == "in-kernel"
    assert probe.witness_size == 3  # the 3-cycle needs the finite vertex


def test_kernel_probe_dense_chain_slice():
    probe = kernel_probe(colored_dense_chain(2), ("slice", 0), 4)
    assert probe.status == "undetected"


def test_kernel_probe_lexsum_twin_block():
    # a finite clique glued onto an infinite one (complete index) is
    # invisible to deletion: the big clique absorbs the missing element
    pres = LexSumPresentation(
        digraph(2, [(0, 1), (1, 0)]),
        ((CLIQUE, OMEGA), (CLIQUE, 2)),
        name="fused-cliques",
    )
    probe = kernel_probe(pres, ("block", 1), 4)
    assert probe.status == "undetected"
    # without the fusing arcs the finite block is essential
    split = LexSumPresentation(
        digraph(2, []), ((CLIQUE, OMEGA), (CLIQUE, 2)), name="split-cliques"
    )
    probe = kernel_probe(split, ("block", 1), 4)
    assert probe.status == "in-kernel"


def test_kernel_probe_omega_block():
    pres = lexsum_tournament_fixture("T2")
    assert kernel_probe(pres, ("block", 0), 3).status == "undetected"


def test_kernel_probe_single_element_blocks_and_f_elements():
    # each finite vertex of the 3-cycle is a size-1 block of the lexsum form
    # and an F element of the multichain form; deleting it (the block drops
    # its index vertex) leaves no 3-cycle
    for name in ("T1", "T2"):
        lexsum = lexsum_tournament_fixture(name)
        chain = tournament_fixtures(name)
        probes = [kernel_probe(lexsum, ("block", b), 6)
                  for b, (_, size) in enumerate(lexsum.blocks) if size == 1]
        probes += [kernel_probe(chain, ("F", a), 6) for a in range(chain.f_size)]
        assert len(probes) == 2 * (3 - int(name[1])), name
        assert all((p.status, p.witness_size) == ("in-kernel", 3) for p in probes), name


def test_kernel_probe_rejects_missing_f_element():
    # half-bipartite has no finite part, so every F element is missing
    with pytest.raises(IndexError, match="F element 5"):
        kernel_probe(half_complete_bipartite(), ("F", 5), 4)
    pres = tournament_fixtures("T2")
    for which in (-1, pres.f_size):
        with pytest.raises(IndexError):
            kernel_probe(pres, ("F", which), 4)


def test_kernel_probe_rejects_missing_block():
    pres = lexsum_tournament_fixture("T3")
    for which in (-1, len(pres.blocks)):
        with pytest.raises(IndexError, match=f"block {which}"):
            kernel_probe(pres, ("block", which), 4)


def test_slow_profile_truncation_profiles():
    for cap in (3, 4):
        f = [min(n + 1, cap) for n in range(13)]
        struct = slow_profile_structure(f, 12)
        for n in range(7):
            assert profile_finite(struct, n) == f[n], (cap, n)


def test_slow_profile_flat_is_monomorphic():
    struct = slow_profile_structure([1] * 9, 8)
    for n in range(6):
        assert profile_finite(struct, n) == 1


def test_slow_profile_identity_growth():
    struct = slow_profile_structure(list(range(1, 8)), 6)
    for n in range(5):
        assert profile_finite(struct, n) == n + 1
