"""The names the traced benchmark looks up in relprof still exist.

``bench/tracing.py`` finds the functions it wraps by attribute,
``bench/worker.py`` reads the hits and misses of two ``lru_cache`` functions,
and a traced run requires calls through the import sites it expects, so a
renamed, un-cached or bypassed function would otherwise fail only a whole
benchmark run.  ``bench/`` is read here, never changed.
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACING = _bench_module("tracing")
TRACED = sorted(
    [f"{short}.{name}" for short, names in TRACING.SPANNED.items() for name in names]
    + list(TRACING.COUNTED)
)


def _resolve(dotted):
    short, *names = dotted.split(".")
    obj = importlib.import_module("relprof." + short)
    for name in names:
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", ["presentations.enumerate_age", "structures.canonical_code"])
def test_worker_caches_expose_cache_info(name):
    info = _resolve(name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _traced_worker(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    case = json.dumps({"argv": argv, "trace": True})
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), case],
        env=env, capture_output=True, check=False, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "error" not in result, result["error"]
    assert result["exit"] == 0
    return result


def test_traced_worker_runs_a_cli_case():
    result = _traced_worker(["tournament", "C3omega"])
    assert result["trace"]["functions"]


def test_traced_multichain_profile_reaches_the_word_and_age_sites():
    # a traced sparse-sweep run fails when an import site it expects records
    # no call; a multichain profile must still walk words at its smallest sizes
    result = _traced_worker(["profile", "C3omega", "--max-n", "4"])
    sites = result["trace"]["sites"]
    for site in ("presentations.words_of_size", "profiles.enumerate_age"):
        assert sites.get(site, 0) > 0, site


def test_traced_algebra_reaches_the_subset_code_site():
    # algebra-lab expects calls through profiles.canonical_code, which is gone:
    # a lexsum basis such as T3 splits its compositions, and no walk in
    # profiles codes a restriction through canonical_code.  A site that no
    # longer resolves is noted by the traced run, not failed.  e_matrix still
    # reads its counts from the split table
    from relprof import profiles

    assert not hasattr(profiles, "canonical_code")
    # nor restrict: a level builds its representatives from their vertex
    # bitmasks, which invites that import, and dense-types lists
    # profiles.restrict, so a copy that records no call would fail its traced runs
    assert not hasattr(profiles, "restrict")
    result = _traced_worker(
        ["algebra", "T3", "--check", "e-regular", "--max-degree", "3"])
    assert "profiles.canonical_code" not in result["present"]
    sites = result["trace"]["sites"]
    assert "profiles.canonical_code" not in sites
    for site in ("algebra.e_matrix", "algebra.AgeBasis.split_table"):
        assert sites.get(site, 0) > 0, site


def test_traced_finite_profile_reaches_the_refinement_site():
    # the subset walk searches through canon.canonical_labelling, which a
    # traced run sees only at canon.refined_colors
    result = _traced_worker(
        ["profile", str(ROOT / "tests" / "data" / "ternary10.txt"), "--max-n", "5"])
    sites = result["trace"]["sites"]
    for site in ("canon.refined_colors", "profiles.age_of_finite"):
        assert sites.get(site, 0) > 0, site


def test_traced_decompose_reaches_the_pair_test_sites():
    # a traced algebra-lab run fails when an import site it expects records no
    # call; a structure of several swap-twin classes still walks its root pairs
    result = _traced_worker(["decompose", str(ROOT / "tests" / "data" / "c3-lexsum12.txt")])
    sites = result["trace"]["sites"]
    for site in ("decomposition.restrict", "decomposition.canonical_code",
                 "decomposition.is_monomorphic_part", "cli.canonical_decomposition"):
        assert sites.get(site, 0) > 0, site


def test_traced_exact_rank_runs_reach_the_linalg_sites():
    # a traced algebra-lab run fails when an import site it expects records no
    # call; an incidence rank and every zero-divisor query still go through them
    result = _traced_worker(["incidence", "--m", "6", "--n", "2", "--k", "1"])
    sites = result["trace"]["sites"]
    for site in ("incidence.rank_exact", "linalg.rank_mod_p"):
        assert sites.get(site, 0) > 0, site
    result = _traced_worker(
        ["algebra", "colored-chain:2", "--check", "zero-divisors", "--max-degree", "3"])
    assert result["trace"]["sites"].get("algebra.nullspace", 0) > 0


def test_traced_library_case_reads_split_tables_from_the_walk(tmp_path):
    # the benchmark's one library case (algebra-lab's e-ranks-graph11) on a
    # seeded G(9, 1/2): e-matrices of a basis on the subset walk read their
    # splits from the walk's record, so no restriction goes through canon
    from relprof.profiles import SWEEP_MAX_WIDTH, interface_width
    from relprof.structures import graph_from_edges

    rng = random.Random("bench-contract:graph9")
    edges = [(i, j) for i in range(9) for j in range(i + 1, 9) if rng.random() < 0.5]
    assert interface_width(graph_from_edges(9, edges)) > SWEEP_MAX_WIDTH
    lines = ["structure", "domain 9", "relation edge 2"]
    lines += [f"{i} {j}" for i, j in edges] + [f"{j} {i}" for i, j in edges] + ["end"]
    path = tmp_path / "graph9.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = _traced_worker(["library:e-ranks", str(path)])
    assert _bench_module("workloads").expect_e_ranks(9)(result["stdout"]) == []
    sites = result["trace"]["sites"]
    for site in ("algebra.e_rank", "algebra.AgeBasis.split_table", "algebra.age_of_finite"):
        assert sites.get(site, 0) > 0, site
    assert result["trace"]["counters"]["structures.canonical_code.misses"] == 0
