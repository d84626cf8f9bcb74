"""Every name a relprof module imports is used in that module.

A left-over ``from .x import f`` keeps a second binding of ``f`` alive; the
traced benchmark rebinds every such copy and fails when one records no call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relprof"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_flags_an_unused_import():
    source = "import os\nfrom .a import b, c\n\nprint(c)\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def oracle_leaks(source: str):
    """Top-level names that read as test oracles (containing ``brute`` or
    ending in ``_oracle``) and imports of the test oracles: brute-force
    paths live in tests/oracles.py."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        found += [(node.lineno, name) for name in names
                  if "brute" in name or name.endswith("_oracle")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.split(".")[0] in ("oracles", "tests")]
    return found


def test_guard_flags_an_oracle_in_the_library():
    source = (
        "from oracles import brute_force_form\nimport tests.oracles\n"
        "from . import oracles\n\n"
        "def are_equal_brute_force(x):\n    return x\n\n"
        "def is_part_oracle(x):\n    def brute_inner():\n        pass\n    return x\n\n"
        "PART_ORACLE = 1\nbrute_limit: int = 8\n"
    )
    assert oracle_leaks(source) == [
        (5, "are_equal_brute_force"), (8, "is_part_oracle"), (14, "brute_limit"),
        (1, "oracles"), (2, "tests.oracles"), (3, "oracles"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_oracles_in_the_library(path):
    assert oracle_leaks(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_third_party_module_but_numpy():
    # numpy is the only runtime dependency: every command pays for importing
    # the CLI, which must not pull in networkx, hypothesis or scipy
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relprof.cli\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "relprof" in loaded
    assert {name for name in loaded
            if name != "relprof" and name not in sys.stdlib_module_names} == {"numpy"}


# The prefix sweep's record of its pass, and the steps that build it: outside
# presentations.py the sweep is read only through its ``split``, ``names``
# and ``codes``.
SWEEP_INTERNALS = {"origins", "roots", "states", "landing", "moves", "plain",
                   "named", "label_of", "labellings",
                   "_states", "_roots", "_root", "_extend", "_name"}


def sweep_internals_used(source: str):
    """Attributes named like the prefix sweep's record or its steps."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in SWEEP_INTERNALS)


def test_guard_flags_a_read_of_the_sweep_record():
    source = ("sweep.states[n]\nx = sweep.moves\nsweep._states(3)\n"
              "sweep.split(4, 2)\nsweep.codes(4)\nstates = 1\n")
    assert sweep_internals_used(source) == [(1, "states"), (2, "moves"), (3, "_states")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "presentations.py"), ids=lambda p: p.name)
def test_only_presentations_reads_the_sweep_record(path):
    assert sweep_internals_used(path.read_text(encoding="utf-8")) == []


# A level's codes have one writer, its sweep: inside presentations.py only the
# two sweep classes touch a sweep's codes (``plain``) or its ``lock``.
SWEEP_CLASSES = ("_PrefixSweep", "_CompositionSweep")


def sweep_state_outside_the_sweeps(source: str):
    """Uses of ``.plain`` or ``.lock`` outside the bodies of the sweep classes."""
    tree = ast.parse(source)
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name in SWEEP_CLASSES
              for node in ast.walk(cls)}
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("plain", "lock")
                  and id(node) not in inside)


def test_guard_flags_sweep_state_outside_the_sweeps():
    source = ("class _PrefixSweep:\n    def codes(self):\n        with self.lock:\n"
              "            return self.plain\n\n"
              "def enumerate_age(sweep):\n    with sweep.lock:\n        sweep.plain[0] = []\n\n"
              "class Other:\n    def f(self):\n        return self.plain\n")
    assert sweep_state_outside_the_sweeps(source) == [(7, "lock"), (8, "plain"), (12, "plain")]


def test_only_the_sweeps_write_their_codes():
    source = (PACKAGE / "presentations.py").read_text(encoding="utf-8")
    assert sweep_state_outside_the_sweeps(source) == []


def test_profiles_imports_no_cached_or_marked_code():
    # the finite engines name their types by canonical image and serialize
    # through canon: profiles never asks the process-wide code cache
    tree = ast.parse((PACKAGE / "profiles.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"marked_code", "canonical_code"}


def test_lexsum_levels_build_without_the_cached_code(monkeypatch):
    # a lexicographic sum's sweep names and codes its levels itself
    from relprof import presentations, structures
    from relprof.presentations import (
        compositions_of_size,
        lexsum_tournament_fixture,
        realize_composition,
        sum_of_cliques,
    )

    def refused(struct):
        raise AssertionError("presentations.canonical_code was asked")

    presentations._sweep_of.cache_clear()
    presentations.enumerate_age.cache_clear()
    monkeypatch.setattr(presentations, "canonical_code", refused)
    fixtures = [sum_of_cliques(2), sum_of_cliques(3),
                *(lexsum_tournament_fixture(name) for name in ("omega", "T1", "T2", "T3"))]
    for pres in fixtures:
        for n in range(7):
            age = presentations.enumerate_age(pres, n)
            assert all(structures.canonical_code(rep) == code for code, rep in age.items())
            assert set(age) == {structures.canonical_code(realize_composition(pres, c))
                                for c in compositions_of_size(pres, n)}
