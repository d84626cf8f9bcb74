import dataclasses
import io
import sys
from pathlib import Path

import pytest

from relprof.cli import main
from relprof.fileformat import (
    FormatError,
    builtin,
    parse_presentation,
    parse_structure,
    write_structure,
)
from relprof.presentations import LexSumPresentation, MultichainPresentation, tournament_fixtures
from relprof.profiles import profile_presented
from relprof.structures import path_graph


DATA = Path(__file__).resolve().parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PATH6 = """\
structure
domain 6
relation edge 2
0 1
1 0
1 2
2 1
2 3
3 2
3 4
4 3
4 5
5 4
end
"""


def test_parse_structure_round_trip():
    named = parse_structure(PATH6)
    assert named.struct == path_graph(6)
    dumped = write_structure(named)
    assert parse_structure(dumped) == named
    # byte-identical on a second round trip
    assert write_structure(parse_structure(dumped)) == dumped


def test_parse_structure_diagnostics():
    with pytest.raises(FormatError) as err:
        parse_structure("structure\ndomain 2\nrelation edge 2\n0 7\nend\n")
    assert "line 4" in str(err.value)
    with pytest.raises(FormatError, match="line 4: relation 'edge' not closed"):
        parse_structure("structure\ndomain 2\nrelation edge 2\n0 1\n")  # no end
    # a file that ends early names its last line, after any comments
    with pytest.raises(FormatError, match="line 3: expected 'domain <m>'"):
        parse_structure("# header only\n\nstructure\n")


def test_parse_lexsum_presentation():
    text = """
presentation lexsum
index-domain 2
index-arcs
end
blocks
clique omega
clique omega
end
"""
    pres = parse_presentation(text)
    assert isinstance(pres, LexSumPresentation)
    assert profile_presented(pres, 6) == 4


def test_parse_multichain_presentation():
    text = """
presentation multichain
symbols edge 2
slices 2
fpart-domain 0
vv edge 0 1 <
vv edge 1 0 >
"""
    pres = parse_presentation(text)
    assert isinstance(pres, MultichainPresentation)
    assert [profile_presented(pres, n) for n in range(7)] == [1, 1, 2, 3, 6, 10, 20]


# T1 and T2 as rule tables: a 3-cycle with one or two vertices blown up to
# omega, the finite rest in an ``fpart`` block (empty for T2)
MULTICHAIN_T = {
    "T1": """\
presentation multichain
symbols arc 2
slices 1
fpart-domain 2
fpart arc
0 1
end
vv arc 0 0 <
fv arc 1 0
vf arc 0 0
""",
    "T2": """\
presentation multichain
symbols arc 2
slices 2
fpart-domain 1
fpart arc
end
vv arc 0 0 <
vv arc 1 1 <
vv arc 0 1 < = >
fv arc 0 0
vf arc 1 0
""",
}


@pytest.mark.parametrize("name, profile", [
    ("T1", [1, 1, 1, 2, 2, 2, 2, 2, 2]),
    ("T2", [1, 1, 1, 2, 2, 3, 4, 5, 6]),
])
def test_parse_multichain_file_with_fpart_block(name, profile):
    parsed = parse_presentation(MULTICHAIN_T[name])
    assert dataclasses.replace(parsed, name=name) == tournament_fixtures(name)
    assert [profile_presented(parsed, n) for n in range(9)] == profile


def test_parse_presentation_builtin():
    pres = parse_presentation("presentation builtin T2\n")
    assert profile_presented(pres, 6) == 4


def test_builtin_names():
    assert profile_presented(builtin("colored-chain:2"), 4) == 16
    assert builtin("path:5") == path_graph(5)
    with pytest.raises(ValueError):
        builtin("no-such-fixture")


def test_cli_profile_builtin_t3(capsys):
    code, out, _ = run_cli(["profile", "T3", "--max-n", "11"], capsys)
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16]


def test_cli_profile_three_cliques_reaches_sixteen(capsys):
    # partitions of n into at most 3 parts: round((n + 3)^2 / 12); the
    # realizations are unions of cliques, whose twins seed canon's search
    code, out, _ = run_cli(["profile", "three-cliques", "--max-n", "16"], capsys)
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [round((n + 3) ** 2 / 12) for n in range(17)]


def test_cli_profile_colored_chain(capsys):
    code, out, _ = run_cli(["profile", "colored-chain:2", "--max-n", "5"], capsys)
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [1, 2, 4, 8, 16, 32]


def test_cli_profile_record_format_deterministic(capsys):
    code1, out1, _ = run_cli(["profile", "T1", "--max-n", "6", "--format", "record"], capsys)
    code2, out2, _ = run_cli(["profile", "T1", "--max-n", "6", "--format", "record"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "phi=" in out1.splitlines()[1]


def test_cli_profile_empty_structure(capsys):
    code, out, _ = run_cli(["profile", "path:0", "--max-n", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0\t1"]


def test_cli_series_two_cliques(capsys):
    code, out, _ = run_cli(
        ["series", "two-cliques", "--max-n", "10", "--denominator", "1,2"], capsys
    )
    assert code == 0
    assert "numerator=1" in out


def test_cli_series_t2(capsys):
    code, out, _ = run_cli(
        ["series", "T2", "--max-n", "9", "--denominator", "1,1"], capsys
    )
    assert code == 0
    assert "numerator=1 - x + x^3 - x^4 + x^5" in out


def test_cli_series_mismatch_fails(capsys):
    code, out, _ = run_cli(
        ["series", "half-bipartite", "--max-n", "8", "--denominator", "1"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_cli_decompose(capsys, tmp_path):
    code, out, _ = run_cli(["decompose", "T2"], capsys)
    assert code == 0
    assert out.count("block size=omega") == 2
    assert out.count("block size=1") == 1

    target = tmp_path / "two_blocks.txt"
    target.write_text(
        "structure\ndomain 4\nrelation edge 2\n"
        "0 1\n1 0\n" "end\n"
    )
    code, out, _ = run_cli(["decompose", str(target)], capsys)
    assert code == 0
    assert out.count("block") >= 2

    code, out, _ = run_cli(["decompose", "clique:4"], capsys)
    assert code == 0
    assert out.count("block ") == 1


def test_cli_algebra_checks(capsys):
    code, out, _ = run_cli(
        ["algebra", "colored-chain:2", "--check", "e-regular", "--max-degree", "3"], capsys
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(
        ["algebra", "colored-chain:2", "--check", "zero-divisors", "--max-degree", "3"],
        capsys,
    )
    assert code == 0 and "none found" in out
    code, out, _ = run_cli(
        ["algebra", "T2", "--check", "tournament-identity", "--max-degree", "4"], capsys
    )
    assert code == 0 and "PASS" in out
    # a kernel the mod-p certificate cannot settle: the echelon path finds a witness
    code, out, _ = run_cli(
        ["algebra", str(DATA / "clique-plus-point.txt"), "--check", "zero-divisors",
         "--max-degree", "4"],
        capsys,
    )
    assert (code, out) == (
        1, "searched kernels=7 pure-pairs=11 random-probes=80\nFAIL witness found\n"
    )


@pytest.mark.parametrize("check", ["e-regular", "zero-divisors", "tournament-identity"])
def test_cli_algebra_negative_degree_is_input_error(capsys, check):
    code, out, err = run_cli(
        ["algebra", "T2", "--check", check, "--max-degree", "-1"], capsys
    )
    assert (code, out) == (2, "")
    assert "max-degree must be non-negative" in err


def test_cli_incidence(capsys):
    code, out, _ = run_cli(["incidence", "--m", "5", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    assert "rank=10 FULL hypothesis=met" in out
    code, out, _ = run_cli(["incidence", "--m", "2", "--n", "1", "--k", "1"], capsys)
    assert code == 0
    assert "rank=1" in out and "hypothesis=unmet" in out


def test_cli_incidence_dump(capsys, tmp_path):
    target = tmp_path / "matrix.txt"
    code, out, _ = run_cli(
        ["incidence", "--m", "3", "--n", "1", "--k", "1", "--dump", str(target)], capsys
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "3 1 1 3 3"


def test_cli_tournament(capsys):
    code, out, _ = run_cli(["tournament", "T3"], capsys)
    assert code == 0
    assert "classification=lexsum-of-acyclic" in out and "degree=2" in out
    code, out, _ = run_cli(["tournament", "C3omega"], capsys)
    assert code == 0
    assert "classification=embeds-obstruction" in out


def test_cli_tournament_finite(capsys, tmp_path):
    cycle = tmp_path / "c3.txt"
    cycle.write_text("structure\ndomain 3\nrelation arc 2\n0 1\n1 2\n2 0\nend\n")
    code, out, _ = run_cli(["tournament", str(cycle)], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("component")] == [
        "component 0", "component 1", "component 2"
    ]
    code, out, _ = run_cli(["tournament", "acyclic:4"], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("component")] == [
        "component 0,1,2,3"
    ]


def test_cli_check_inequalities(capsys):
    code, out, _ = run_cli(["check", "T2", "--max-n", "8"], capsys)
    assert code == 0
    assert "ok" in out
    code, out, _ = run_cli(["check", "path:6", "--max-n", "4"], capsys)
    assert code == 0
    assert "non-decreasing: not applicable (finite source)\n" in out


def test_cli_show_round_trip(capsys, tmp_path):
    target = tmp_path / "p6.txt"
    target.write_text(PATH6)
    code, out, _ = run_cli(["show", str(target)], capsys)
    assert code == 0
    assert parse_structure(out).struct == path_graph(6)


def test_cli_input_errors(capsys, tmp_path):
    code, _, err = run_cli(["profile", "definitely-not-a-fixture"], capsys)
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("structure\ndomain 2\nrelation edge 2\n0 9\nend\n")
    code, _, err = run_cli(["profile", str(bad)], capsys)
    assert code == 2 and "line 4" in err
    bad.write_text("structure\ndomain 2\nrelation e -1\nend\n")
    code, _, err = run_cli(["profile", str(bad)], capsys)
    assert code == 2 and "line 3: arity must be positive" in err, err
    bad.write_text("structure\ndomain 2\nrelation edge 2\nend\nrelation edge 2\n0 1\nend\n")
    code, out, err = run_cli(["show", str(bad)], capsys)
    assert code == 2 and out == ""
    assert "line 5: duplicate relation name 'edge'" in err, err
    bad.write_text("# a comment\nrelation edge 2\n")
    code, out, err = run_cli(["profile", str(bad)], capsys)
    assert code == 2 and out == ""
    assert "line 2: file must start with 'structure' or 'presentation <kind>'" in err, err



MULTICHAIN_HEAD = """\
presentation multichain
symbols arc 2 mark 1
slices 2
fpart-domain 1
vv arc 0 1 <
unary mark 0
"""


LEXSUM_HEAD = """\
presentation lexsum
index-domain 1
index-arcs
end
blocks
clique omega
end
"""

HEADER_KEYWORDS = ("symbols", "slices", "fpart-domain", "index-domain")


def _input_file(rule):
    """MULTICHAIN_HEAD with the rule appended.  A header rule ('symbols',
    'slices', 'fpart-domain', 'index-domain') replaces the head line of the
    same keyword instead, in LEXSUM_HEAD for 'index-domain'.  A rule that
    starts with 'presentation' is the whole file."""
    if rule.startswith("presentation"):
        return rule
    keyword = rule.split()[0]
    if keyword not in HEADER_KEYWORDS:
        return MULTICHAIN_HEAD + rule + "\n"
    head = LEXSUM_HEAD if keyword == "index-domain" else MULTICHAIN_HEAD
    return "".join(
        rule + "\n" if line.split()[0] == keyword else line
        for line in head.splitlines(keepends=True)
    )


@pytest.mark.parametrize("rule, where", [
    ("fv arc 0", "line 7"),
    ("vf arc 0", "line 7"),
    ("unary", "line 7"),
    ("fv arc 5 9", "line 7: F element 5 out of range 0..0"),
    ("fv arc 0 2", "line 7: slice 2 out of range 0..1"),
    ("vf arc 2 0", "line 7: slice 2 out of range 0..1"),
    ("vf arc 0 1", "line 7: F element 1 out of range 0..0"),
    ("unary mark 0 3", "line 7: slice 3 out of range 0..1"),
    # a rule out of range is reported at its own line, not at the file's last
    ("unary mark 5\nunary mark 0", "line 7: slice 5 out of range 0..1"),
    ("vv arc 0 7 <\nvv arc 1 0 >", "line 7: slice 7 out of range 0..1"),
    ("fv arc 3 0\nfv arc 0 1", "line 7: F element 3 out of range 0..0"),
    ("vf arc 0 4\nvf arc 1 0", "line 7: F element 4 out of range 0..0"),
    ("slices x", "line 3"),
    ("slices -1", "line 3"),
    ("slices 0", "line 3: at least one slice required"),
    ("fpart-domain x", "line 4"),
    ("index-domain x", "line 2"),
    ("unary mark x", "line 7"),
    ("vv arc x 1 <", "line 7"),
    ("vv arc 0 y <", "line 7"),
    ("fv arc z 0", "line 7"),
    ("fv arc 0 z", "line 7"),
    ("vf arc z 0", "line 7"),
    ("vf arc 0 z", "line 7"),
    ("fpart arc\n0 x\nend", "line 8"),
    ("fpart arc\n0\nend", "line 8"),
    ("fpart arc\n0 1\nend", "line 8"),
    ("fpart mark\n0 0\nend", "line 8"),
    ("fpart arc\n0 0", "line 8: fpart 'arc' not closed by 'end'"),
    ("symbols arc 2 arc 2 mark 1", "line 2: duplicate symbol names"),
    ("vv mark 0 1 <", "line 7: 'vv' needs a symbol of arity 2, 'mark' has arity 1"),
    ("fv mark 0 1", "line 7: 'fv' needs a symbol of arity 2, 'mark' has arity 1"),
    ("vf mark 1 0", "line 7: 'vf' needs a symbol of arity 2, 'mark' has arity 1"),
    ("unary arc 1", "line 7: 'unary' needs a symbol of arity 1, 'arc' has arity 2"),
    ("symbols arc 0 mark 1", "line 2: arity must be positive"),
    (LEXSUM_HEAD.removesuffix("end\n"), "line 6: blocks not closed by 'end'"),
    (LEXSUM_HEAD.replace("index-arcs\nend\n", "index-arcs\n"),
     "line 4: index-arcs not closed by 'end'"),
    (LEXSUM_HEAD + "clique omega\n", "line 8: unexpected line 'clique omega'"),
    ("presentation multichain\n# no symbols line\n",
     "line 1: expected 'symbols <name> <arity> ...'"),
])
def test_cli_malformed_multichain_rules_are_input_errors(capsys, tmp_path, rule, where):
    bad = tmp_path / "bad.txt"
    bad.write_text(_input_file(rule))
    code, out, err = run_cli(["profile", str(bad), "--max-n", "3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and where in err, err


def test_cli_multichain_rules_in_range_accepted(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(MULTICHAIN_HEAD + "fv arc 0 1\nvf arc 1 0\n")
    code, out, _ = run_cli(["profile", str(good), "--max-n", "2"], capsys)
    assert code == 0 and out.startswith("n\tphi\n0\t1\n")

def test_cli_bad_denominator_is_input_error(capsys):
    code, _, err = run_cli(
        ["series", "T2", "--max-n", "8", "--denominator", "1,x"], capsys
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flag, value, bad", [
    ("--denominator", "1,x", "'x'"),
    ("--denominator", "1,,2", "''"),
    ("--denominator-poly", "1,-1,0.5", "'0.5'"),
])
def test_cli_bad_denominator_entry_is_named(capsys, flag, value, bad):
    code, out, err = run_cli(["series", "T2", "--max-n", "8", flag, value], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {flag} entries must be integers, got {bad}\n", err


def test_cli_byte_identical_outputs(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(["profile", "two-cliques", "--max-n", "7"], capsys)
        outputs.add(out)
    assert len(outputs) == 1
