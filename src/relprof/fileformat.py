"""Line-oriented text files for structures and presentations.

Structure files::

    structure
    domain 6
    relation edge 2
    0 1
    1 2
    end

``structure`` then ``domain <m>``, then any number of ``relation <name>
<arity>`` blocks whose lines are whitespace-separated vertex tuples,
each closed by ``end``.  ``#`` starts a comment; blank lines are ignored.

Presentation files start with ``presentation <kind>``:

* ``presentation builtin <name>`` - a named fixture (see BUILTIN_NAMES).
* ``presentation lexsum`` - followed by ``index-domain <d>``, an
  ``index-arcs`` block of arc lines closed by ``end``, and a ``blocks``
  block with one ``<kind> <size>`` line per index vertex (kind one of
  acyclic, clique, independent, chain, reflexive-clique, antichain; size a
  positive integer or ``omega``), closed by ``end``.
* ``presentation multichain`` - ``symbols <name> <arity> ...``,
  ``slices <v>``, ``fpart-domain <f>``, optional ``fpart <name>`` tuple
  blocks closed by ``end``, and rule lines: ``unary <name> <slice...>``,
  ``vv <name> <x> <y> <cmp...>`` (cmp among ``< = >``),
  ``fv <name> <f-elt> <slice>``, ``vf <name> <slice> <f-elt>``.

Parsers raise ``FormatError`` carrying the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import (
    BLOCK_KINDS,
    OMEGA,
    LexSumPresentation,
    colored_dense_chain,
    half_complete_bipartite,
    interval_division_chain,
    lexsum_tournament_fixture,
    multichain,
    product_of,
    reflexive_chain,
    sum_of_cliques,
    tournament_fixtures,
)
from .structures import RelStruct, acyclic_tournament, clique_graph, digraph, make_struct, path_graph


class FormatError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class NamedStruct:
    struct: RelStruct
    relation_names: tuple[str, ...]


def _content_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _int(line_no, token, what):
    """One numeric field of an input line; a bad one is an error at that line."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(line_no, f"{what} must be an integer, got {token!r}") from None


def _arity(line_no, token):
    """An arity field; a relation symbol takes at least one entry."""
    arity = _int(line_no, token, "arity")
    if arity < 1:
        raise FormatError(line_no, f"arity must be positive, got {arity}")
    return arity


def _size_line(line_no, line, keyword, placeholder):
    """A '<keyword> <n>' line with n a non-negative integer."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(line_no, f"expected '{keyword} <{placeholder}>'")
    size = _int(line_no, parts[1], keyword)
    if size < 0:
        raise FormatError(line_no, f"{keyword} must be non-negative")
    return size


def _tuple_line(line_no, line, arity, size):
    """A whitespace-separated tuple of the given arity over 0..size-1."""
    entries = tuple(_int(line_no, x, "tuple entry") for x in line.split())
    if len(entries) != arity:
        raise FormatError(line_no, f"tuple {entries} does not match arity {arity}")
    if any(not 0 <= x < size for x in entries):
        raise FormatError(line_no, f"tuple {entries} out of domain 0..{size - 1}")
    return entries


def parse_structure(text: str) -> NamedStruct:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "structure":
        raise FormatError(lines[0][0] if lines else 1, "expected 'structure' header")
    if len(lines) < 2:
        raise FormatError(1, "expected 'domain <m>'")
    m = _size_line(*lines[1], "domain", "m")
    pos = 2
    names = []
    arities = []
    relations = []
    while pos < len(lines):
        line_no, line = lines[pos]
        parts = line.split()
        if parts[0] != "relation" or len(parts) != 3:
            raise FormatError(line_no, f"expected 'relation <name> <arity>', got {line!r}")
        name = parts[1]
        if name in names:
            raise FormatError(line_no, f"duplicate relation name {name!r}")
        arity = _arity(line_no, parts[2])
        pos += 1
        tuples = set()
        closed = False
        while pos < len(lines):
            line_no, line = lines[pos]
            if line == "end":
                closed = True
                pos += 1
                break
            tuples.add(_tuple_line(line_no, line, arity, m))
            pos += 1
        if not closed:
            raise FormatError(lines[-1][0], f"relation {name!r} not closed by 'end'")
        names.append(name)
        arities.append(arity)
        relations.append(tuples)
    return NamedStruct(make_struct(arities, m, relations), tuple(names))


def write_structure(named: NamedStruct) -> str:
    lines = ["structure", f"domain {named.struct.domain_size}"]
    for name, arity, rel in zip(
        named.relation_names, named.struct.signature.arities, named.struct.relations
    ):
        lines.append(f"relation {name} {arity}")
        for t in sorted(rel):
            lines.append(" ".join(str(x) for x in t))
        lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_size(line_no, token):
    if token == "omega":
        return OMEGA
    size = _int(line_no, token, "block size other than 'omega'")
    if size < 1:
        raise FormatError(line_no, "block sizes must be positive")
    return size


def parse_presentation(text: str):
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError(1, "empty presentation file")
    line_no, header = lines[0]
    parts = header.split()
    if parts[0] != "presentation" or len(parts) < 2:
        raise FormatError(line_no, "expected 'presentation <kind>'")
    kind = parts[1]
    if kind == "builtin":
        if len(parts) != 3:
            raise FormatError(line_no, "expected 'presentation builtin <name>'")
        return builtin(parts[2])
    if kind == "lexsum":
        return _parse_lexsum(lines[1:])
    if kind == "multichain":
        return _parse_multichain(lines[1:])
    raise FormatError(line_no, f"unknown presentation kind {kind!r}")


def _parse_lexsum(lines):
    it = iter(lines)
    line_no, line = next(it, (1, ""))
    d = _size_line(line_no, line, "index-domain", "d")
    line_no, line = next(it, (line_no, ""))
    if line != "index-arcs":
        raise FormatError(line_no, "expected 'index-arcs'")
    arcs = set()
    for line_no, line in it:
        if line in ("end", "blocks"):
            break
        arcs.add(_tuple_line(line_no, line, 2, d))
    if line != "end":
        raise FormatError(line_no, "index-arcs not closed by 'end'")
    line_no, line = next(it, (line_no, ""))
    if line != "blocks":
        raise FormatError(line_no, "expected 'blocks'")
    blocks = []
    for line_no, line in it:
        if line == "end":
            break
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(line_no, f"expected '<kind> <size>', got {line!r}")
        if parts[0] not in BLOCK_KINDS:
            raise FormatError(line_no, f"unknown block kind {parts[0]!r}")
        blocks.append((parts[0], _parse_size(line_no, parts[1])))
    if line != "end":
        raise FormatError(line_no, "blocks not closed by 'end'")
    if len(blocks) != d:
        raise FormatError(line_no, f"{d} blocks expected, got {len(blocks)}")
    extra = next(it, None)
    if extra is not None:
        raise FormatError(extra[0], f"unexpected line {extra[1]!r}")
    try:
        return LexSumPresentation(digraph(d, arcs), tuple(blocks), name="lexsum-file")
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None


def _parse_multichain(lines):
    it = iter(lines)
    line_no, line = next(it, (1, ""))
    parts = line.split()
    if len(parts) < 3 or parts[0] != "symbols" or len(parts) % 2 == 0:
        raise FormatError(line_no, "expected 'symbols <name> <arity> ...'")
    names = parts[1::2]
    arities = tuple(_arity(line_no, a) for a in parts[2::2])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise FormatError(line_no, "duplicate symbol names")
    line_no, line = next(it, (line_no, ""))
    v_size = _size_line(line_no, line, "slices", "v")
    line_no, line = next(it, (line_no, ""))
    f_size = _size_line(line_no, line, "fpart-domain", "f")
    f_rels = {name: set() for name in names}
    unary = {}
    vv = {}
    fv = {}
    vf = {}

    def symbol(line_no, name, rule=None, arity=None):
        """A declared symbol's index; a rule needs a symbol of its arity."""
        if name not in index:
            raise FormatError(line_no, f"unknown symbol {name!r}")
        s = index[name]
        if arity is not None and arities[s] != arity:
            raise FormatError(line_no, f"'{rule}' needs a symbol of arity {arity}, "
                                       f"{name!r} has arity {arities[s]}")
        return s

    rest = list(it)
    pos = 0
    while pos < len(rest):
        line_no, line = rest[pos]
        parts = line.split()
        if parts[0] == "fpart":
            if len(parts) != 2:
                raise FormatError(line_no, "expected 'fpart <name>'")
            sym = parts[1]
            arity = arities[symbol(line_no, sym)]
            pos += 1
            while pos < len(rest) and rest[pos][1] != "end":
                f_rels[sym].add(_tuple_line(*rest[pos], arity, f_size))
                pos += 1
            if pos == len(rest):
                raise FormatError(line_no, f"fpart {sym!r} not closed by 'end'")
            pos += 1
        elif parts[0] == "unary":
            if len(parts) < 2:
                raise FormatError(line_no, "expected 'unary <name> <slice...>'")
            s = symbol(line_no, parts[1], "unary", 1)
            unary.setdefault(s, set()).update(_int(line_no, x, "slice") for x in parts[2:])
            pos += 1
        elif parts[0] == "vv":
            if len(parts) < 5:
                raise FormatError(line_no, "expected 'vv <name> <x> <y> <cmp...>'")
            s = symbol(line_no, parts[1], "vv", 2)
            x, y = (_int(line_no, t, "slice") for t in parts[2:4])
            for cmp in parts[4:]:
                if cmp not in ("<", "=", ">"):
                    raise FormatError(line_no, f"bad comparator {cmp!r}")
                vv.setdefault(s, set()).add((x, y, cmp))
            pos += 1
        elif parts[0] in ("fv", "vf"):
            if len(parts) != 4:
                shape = "<f-elt> <slice>" if parts[0] == "fv" else "<slice> <f-elt>"
                raise FormatError(line_no, f"expected '{parts[0]} <name> {shape}'")
            s = symbol(line_no, parts[1], parts[0], 2)
            rules = fv if parts[0] == "fv" else vf
            fields = ("F element", "slice") if parts[0] == "fv" else ("slice", "F element")
            rules.setdefault(s, set()).add(
                tuple(_int(line_no, t, what) for t, what in zip(parts[2:], fields))
            )
            pos += 1
        else:
            raise FormatError(line_no, f"unexpected line {line!r}")
    f_struct = make_struct(arities, f_size, [f_rels[name] for name in names])
    try:
        return multichain(arities, f_struct, v_size, unary, vv, fv, vf, name="multichain-file")
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None


# ---------------------------------------------------------------------------
# Builtins: every named fixture used in the reports and acceptance runs
# ---------------------------------------------------------------------------

BUILTIN_NAMES = (
    "omega", "T1", "T2", "T3", "C3omega",
    "two-cliques", "three-cliques",
    "half-bipartite", "half-bipartite-tilde",
    "colored-chain:<k>", "interval-chain:<k>", "chain-product:<k>",
    "path:<n>", "clique:<n>", "acyclic:<n>",
)


def builtin(name: str):
    """Named sources: presentations for the infinite fixtures, finite
    structures for path:<n>, clique:<n> and acyclic:<n>."""
    if name == "omega":
        return lexsum_tournament_fixture("omega")
    if name in ("T1", "T2", "T3"):
        return lexsum_tournament_fixture(name)
    if name == "C3omega":
        return tournament_fixtures("C3omega")
    if name == "two-cliques":
        return sum_of_cliques(2)
    if name == "three-cliques":
        return sum_of_cliques(3)
    if name == "half-bipartite":
        return half_complete_bipartite()
    if name == "half-bipartite-tilde":
        return half_complete_bipartite(tilde=True)
    if ":" in name:
        head, _, arg = name.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"builtin {name!r}: {arg!r} is not an integer") from None
        if head == "colored-chain":
            return colored_dense_chain(k)
        if head == "interval-chain":
            return interval_division_chain(k)
        if head == "chain-product":
            return product_of(reflexive_chain(k))
        if head == "path":
            return path_graph(k)
        if head == "clique":
            return clique_graph(k)
        if head == "acyclic":
            return acyclic_tournament(k)
    raise ValueError(f"unknown builtin {name!r}")


def load_source(spec: str):
    """'builtin:<name>' or a path to a structure/presentation file."""
    if spec.startswith("builtin:"):
        return builtin(spec.split(":", 1)[1])
    with open(spec, encoding="utf-8") as handle:
        text = handle.read()
    for _, line in _content_lines(text):
        if line == "structure":
            return parse_structure(text).struct
        if line.startswith("presentation"):
            return parse_presentation(text)
        break
    raise FormatError(1, "file must start with 'structure' or 'presentation <kind>'")
