"""The README's fast CLI commands, pinned byte for byte, a zero-divisor
search whose counts pin the search path, the profile of a committed
ternary structure, which pins the finite subset walk, and the tournament
and decomposition reports of a committed shuffled lexicographic sum, which
pin the acyclic components and the pair test.  Two multichain windows past
the word path's reach, C3omega to n = 14 and ``interval-chain:2`` to
n = 12, were written from their closed forms (a(n) = a(n-1) + a(n-3) and
C(n+2, 2)), not recorded, and must not be re-recorded.

Each command runs in a fresh interpreter under two ``PYTHONHASHSEED``
values, from the repository root; both stdouts must equal the file in
``tests/golden/``.  To re-record a file after an intended output change, run
the command from the repository root with
``PYTHONPATH=src python3 -m relprof.cli ... > tests/golden/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "profile-T3": ["profile", "T3", "--max-n", "11"],
    "profile-colored-chain-2": ["profile", "colored-chain:2", "--max-n", "5"],
    "series-T2": ["series", "T2", "--max-n", "9", "--denominator", "1,1"],
    "series-C3omega": [
        "series", "C3omega", "--max-n", "7", "--denominator-poly", "1,-1,0,-1",
    ],
    "series-C3omega-14": [
        "series", "C3omega", "--max-n", "14", "--denominator-poly", "1,-1,0,-1",
    ],
    "profile-interval-chain-2": ["profile", "interval-chain:2", "--max-n", "12"],
    "decompose-two-cliques": ["decompose", "two-cliques"],
    "algebra-colored-chain-2-e-regular": [
        "algebra", "colored-chain:2", "--check", "e-regular", "--max-degree", "6",
    ],
    "algebra-T2-tournament-identity": [
        "algebra", "T2", "--check", "tournament-identity", "--max-degree", "5",
    ],
    "algebra-half-bipartite-zero-divisors": [
        "algebra", "half-bipartite", "--check", "zero-divisors", "--max-degree", "5",
    ],
    "incidence-5-2-1": ["incidence", "--m", "5", "--n", "2", "--k", "1", "--dump", "-"],
    "tournament-C3omega": ["tournament", "C3omega"],
    "check-T3": ["check", "T3", "--max-n", "10"],
    "profile-ternary10": [
        "profile", str(ROOT / "tests" / "data" / "ternary10.txt"), "--max-n", "10",
    ],
    # the source path is echoed on stdout, so it is given relative to the root
    "tournament-c3-lexsum12": ["tournament", "tests/data/c3-lexsum12.txt"],
    "decompose-c3-lexsum12": ["decompose", "tests/data/c3-lexsum12.txt"],
}


def _stdout(argv, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "relprof.cli", *argv],
        env=env, cwd=ROOT, capture_output=True, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    for hashseed in (0, 1):
        assert _stdout(COMMANDS[name], hashseed) == expected, (name, hashseed)
