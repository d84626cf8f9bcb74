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

Every parse error is a ``FormatError`` that names the line it is about;
a file or section that ends early names its last line.
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


class _Lines:
    """A cursor over a file's lines, ``#`` comments and blank lines dropped.
    ``line_no`` is the number of the line last read (1 before the first) and
    every error is raised there, so a file or section that ends early names
    its last line."""

    def __init__(self, text):
        numbered = enumerate(text.splitlines(), start=1)
        self._lines = [(i, line) for i, raw in numbered if (line := raw.split("#", 1)[0].strip())]
        self._pos = 0
        self.line_no = 1

    def error(self, message):
        return FormatError(self.line_no, message)

    def next(self, missing=None):
        """The next line; the file ending before it is the error ``missing``."""
        if self._pos == len(self._lines):
            raise self.error(missing)
        self.line_no, line = self._lines[self._pos]
        self._pos += 1
        return line

    def __iter__(self):
        while self._pos < len(self._lines):
            yield self.next()

    def section(self, what, stop=()):
        """The lines up to ``end``; the file ending first, or a stop word,
        is an error at the line reached."""
        unclosed = f"{what} not closed by 'end'"
        while (line := self.next(unclosed)) != "end":
            if line in stop:
                raise self.error(unclosed)
            yield line

    def size(self, keyword, placeholder):
        """A '<keyword> <n>' line with n a non-negative integer."""
        expected = f"expected '{keyword} <{placeholder}>'"
        parts = self.next(expected).split()
        if len(parts) != 2 or parts[0] != keyword:
            raise self.error(expected)
        size = self.number(parts[1], keyword)
        if size < 0:
            raise self.error(f"{keyword} must be non-negative")
        return size

    def number(self, token, what, bound=None):
        """An integer field of the line, in 0..bound-1 when a bound is given."""
        try:
            value = int(token)
        except ValueError:
            raise self.error(f"{what} must be an integer, got {token!r}") from None
        if bound is not None and not 0 <= value < bound:
            raise self.error(f"{what} {value} out of range 0..{bound - 1}")
        return value

    def arity(self, token):
        """An arity field; a relation symbol takes at least one entry."""
        arity = self.number(token, "arity")
        if arity < 1:
            raise self.error(f"arity must be positive, got {arity}")
        return arity

    def entries(self, line, arity, size):
        """A whitespace-separated tuple of the given arity over 0..size-1."""
        entries = tuple(self.number(x, "tuple entry") for x in line.split())
        if len(entries) != arity:
            raise self.error(f"tuple {entries} does not match arity {arity}")
        if any(not 0 <= x < size for x in entries):
            raise self.error(f"tuple {entries} out of domain 0..{size - 1}")
        return entries


def parse_structure(text: str) -> NamedStruct:
    lines = _Lines(text)
    if lines.next("expected 'structure' header") != "structure":
        raise lines.error("expected 'structure' header")
    m = lines.size("domain", "m")
    names, arities, relations = [], [], []
    for line in lines:
        parts = line.split()
        if parts[0] != "relation" or len(parts) != 3:
            raise lines.error(f"expected 'relation <name> <arity>', got {line!r}")
        name = parts[1]
        if name in names:
            raise lines.error(f"duplicate relation name {name!r}")
        arity = lines.arity(parts[2])
        names.append(name)
        arities.append(arity)
        relations.append({lines.entries(t, arity, m) for t in lines.section(f"relation {name!r}")})
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


def parse_presentation(text: str):
    lines = _Lines(text)
    parts = lines.next("empty presentation file").split()
    if parts[0] != "presentation" or len(parts) < 2:
        raise lines.error("expected 'presentation <kind>'")
    kind = parts[1]
    if kind == "builtin":
        if len(parts) != 3:
            raise lines.error("expected 'presentation builtin <name>'")
        return builtin(parts[2])
    if kind == "lexsum":
        return _parse_lexsum(lines)
    if kind == "multichain":
        return _parse_multichain(lines)
    raise lines.error(f"unknown presentation kind {kind!r}")


def _parse_lexsum(lines):
    d = lines.size("index-domain", "d")
    if lines.next("expected 'index-arcs'") != "index-arcs":
        raise lines.error("expected 'index-arcs'")
    arcs = {lines.entries(arc, 2, d) for arc in lines.section("index-arcs", stop=("blocks",))}
    if lines.next("expected 'blocks'") != "blocks":
        raise lines.error("expected 'blocks'")
    blocks = []
    for line in lines.section("blocks"):
        parts = line.split()
        if len(parts) != 2:
            raise lines.error(f"expected '<kind> <size>', got {line!r}")
        if parts[0] not in BLOCK_KINDS:
            raise lines.error(f"unknown block kind {parts[0]!r}")
        size = OMEGA
        if parts[1] != "omega":
            size = lines.number(parts[1], "block size other than 'omega'")
            if size < 1:
                raise lines.error("block sizes must be positive")
        blocks.append((parts[0], size))
    if len(blocks) != d:
        raise lines.error(f"{d} blocks expected, got {len(blocks)}")
    for line in lines:
        raise lines.error(f"unexpected line {line!r}")
    try:
        return LexSumPresentation(digraph(d, arcs), tuple(blocks), name="lexsum-file")
    except ValueError as exc:
        raise lines.error(str(exc)) from None


def _parse_multichain(lines):
    expected = "expected 'symbols <name> <arity> ...'"
    parts = lines.next(expected).split()
    if len(parts) < 3 or parts[0] != "symbols" or len(parts) % 2 == 0:
        raise lines.error(expected)
    names = parts[1::2]
    arities = tuple(lines.arity(a) for a in parts[2::2])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise lines.error("duplicate symbol names")
    v_size = lines.size("slices", "v")
    if v_size < 1:
        raise lines.error("at least one slice required")
    f_size = lines.size("fpart-domain", "f")
    f_rels = {name: set() for name in names}
    unary, vv, fv, vf = {}, {}, {}, {}

    def symbol(name, rule=None, arity=None):
        """A declared symbol's index; a rule needs a symbol of its arity."""
        if name not in index:
            raise lines.error(f"unknown symbol {name!r}")
        s = index[name]
        if arity is not None and arities[s] != arity:
            raise lines.error(f"'{rule}' needs a symbol of arity {arity}, "
                              f"{name!r} has arity {arities[s]}")
        return s

    def slice_no(token):
        return lines.number(token, "slice", v_size)

    def f_elt(token):
        return lines.number(token, "F element", f_size)

    for line in lines:
        parts = line.split()
        if parts[0] == "fpart":
            if len(parts) != 2:
                raise lines.error("expected 'fpart <name>'")
            sym = parts[1]
            arity = arities[symbol(sym)]
            f_rels[sym].update(lines.entries(t, arity, f_size)
                               for t in lines.section(f"fpart {sym!r}"))
        elif parts[0] == "unary":
            if len(parts) < 2:
                raise lines.error("expected 'unary <name> <slice...>'")
            s = symbol(parts[1], "unary", 1)
            unary.setdefault(s, set()).update(map(slice_no, parts[2:]))
        elif parts[0] == "vv":
            if len(parts) < 5:
                raise lines.error("expected 'vv <name> <x> <y> <cmp...>'")
            s = symbol(parts[1], "vv", 2)
            x, y = map(slice_no, parts[2:4])
            for cmp in parts[4:]:
                if cmp not in ("<", "=", ">"):
                    raise lines.error(f"bad comparator {cmp!r}")
                vv.setdefault(s, set()).add((x, y, cmp))
        elif parts[0] in ("fv", "vf"):
            if len(parts) != 4:
                shape = "<f-elt> <slice>" if parts[0] == "fv" else "<slice> <f-elt>"
                raise lines.error(f"expected '{parts[0]} <name> {shape}'")
            s = symbol(parts[1], parts[0], 2)
            if parts[0] == "fv":
                fv.setdefault(s, set()).add((f_elt(parts[2]), slice_no(parts[3])))
            else:
                vf.setdefault(s, set()).add((slice_no(parts[2]), f_elt(parts[3])))
        else:
            raise lines.error(f"unexpected line {line!r}")
    f_struct = make_struct(arities, f_size, [f_rels[name] for name in names])
    try:
        return multichain(arities, f_struct, v_size, unary, vv, fv, vf, name="multichain-file")
    except ValueError as exc:
        raise lines.error(str(exc)) from None


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
    if name in ("omega", "T1", "T2", "T3"):
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
        families = {
            "colored-chain": colored_dense_chain, "interval-chain": interval_division_chain,
            "chain-product": lambda k: product_of(reflexive_chain(k)),
            "path": path_graph, "clique": clique_graph, "acyclic": acyclic_tournament,
        }
        if head in families:
            return families[head](k)
    raise ValueError(f"unknown builtin {name!r}")


def load_source(spec: str):
    """'builtin:<name>' or a path to a structure/presentation file."""
    if spec.startswith("builtin:"):
        return builtin(spec.split(":", 1)[1])
    with open(spec, encoding="utf-8") as handle:
        text = handle.read()
    lines = _Lines(text)
    first = next(iter(lines), "")
    if first == "structure":
        return parse_structure(text).struct
    if first.startswith("presentation"):
        return parse_presentation(text)
    raise lines.error("file must start with 'structure' or 'presentation <kind>'")
