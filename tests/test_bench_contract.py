"""The names the traced benchmark looks up in relprof still exist.

``bench/tracing.py`` finds the functions it wraps by attribute and
``bench/worker.py`` reads the hits and misses of two ``lru_cache`` functions,
so a renamed or un-cached function would otherwise fail only a whole
benchmark run.  ``bench/`` is read here, never changed.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
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


def test_traced_worker_runs_a_cli_case():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    case = json.dumps({"argv": ["tournament", "C3omega"], "trace": True})
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), case],
        env=env, capture_output=True, check=False, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "error" not in result, result["error"]
    assert result["exit"] == 0
    assert result["trace"]["functions"]
