"""Readers for every user input file, with one error type.

File formats (`#` starts a comment; blank lines are ignored):

  presentation   `gens: x y` line, then `rel <name> = <word>` lines.
                 Words are whitespace-separated tokens with caret powers
                 (`x^3`, `x^-1`); the bare token `1` is the empty word.
                 Relator words must be freely reduced as written.
  tree file      one edge per line: `<element-word> <generator>`.
  h1 file        one non-tree edge per line:
                 `<element-word> <generator> := <consequence>`.
  order file     `[level N]` sections list candidate tags (one
                 `<element-word> <name>` per line) to be reduced first,
                 in the listed order; `[xi N]` sections pin certificate
                 representatives for rejected tags:
                 `<element-word> <name> := [-] sym @ <element-word> [+/- ...]`.
                 Pins are validated by exact replay against the boundary.
  table file     |G| rows of |X| element indices: row g, column k holds
                 g.phi(x_k), and row 0 is the identity.

Every reader raises InputError, whose message starts with `path:line:`
for a fault on one line and with `path:` for a fault of the whole file
(a tree that does not span, an h1 entry with the wrong boundary, ...).
"""

from __future__ import annotations

from contextlib import contextmanager

from .crossed import parse_crossed
from .group_core import CayleyGraph, MaximalTree, Presentation, _validate_graph
from .words import Word, parse_letters, parse_word


class InputError(ValueError):
    """A problem with user-supplied files or options (exit status 2)."""


def read_text(path) -> str:
    """The file's text; a file that cannot be read or decoded is an
    InputError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _lines(text: str, source):
    """(`source:lineno`, line) for every line left non-blank once its
    `#` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{source}:{lineno}", line


@contextmanager
def whole_file(source):
    """Report a ValueError raised inside (a TreeError, TableError,
    PresentationError or H1Table's check) as an InputError on source."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from None


def _parse_tag(text, graph, where, last="name"):
    """`<element-word> <name>` -> (element index, name).  With
    last="generator" the name must be a generator, and the tag is the
    arrow (element index, generator index)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InputError(f"{where}: expected `<element-word> <{last}>`")
    try:
        name = graph.gen_index(tokens[-1]) if last == "generator" else tokens[-1]
        return graph.elt_by_name(" ".join(tokens[:-1])), name
    except (KeyError, ValueError) as exc:
        raise InputError(f"{where}: {exc.args[0]}") from None


def parse_presentation(text: str, source: str = "<presentation>") -> Presentation:
    """Parse the presentation grammar; errors carry line numbers."""
    gens = None
    relators = []
    seen = set()
    for where, line in _lines(text, source):
        if line.startswith("gens:"):
            if gens is not None:
                raise InputError(f"{where}: duplicate `gens:` line")
            gens = tuple(line[len("gens:"):].split())
            if not gens:
                raise InputError(f"{where}: `gens:` line names no generators")
            continue
        tokens = line.split()
        if tokens[0] != "rel":
            raise InputError(
                f"{where}: expected `gens: ...` or `rel <name> = <word>`")
        if gens is None:
            raise InputError(f"{where}: `gens:` line must come first")
        head, sep, body = line.partition("=")
        head_tokens = head.split()
        if not sep or len(head_tokens) != 2:
            raise InputError(f"{where}: expected `rel <name> = <word>`")
        name = head_tokens[1]
        if name in seen:
            raise InputError(f"{where}: duplicate relator name {name!r}")
        seen.add(name)
        word_text = body.strip()
        try:
            letters = parse_letters(word_text, set(gens))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        w = Word(letters)
        if w.is_empty():
            raise InputError(f"{where}: relator {name!r} is empty")
        if len(w) != len(letters):
            raise InputError(
                f"{where}: relator {name!r} is not freely reduced as written")
        relators.append((name, w))
    if gens is None:
        raise InputError(f"{source}: missing `gens:` line")
    with whole_file(source):
        return Presentation(gens, relators)


def tree_from_file(path, graph: CayleyGraph) -> MaximalTree:
    """Load tree edges, one per line: `<element-word> <generator>`."""
    edges = set()
    for where, line in _lines(read_text(path), path):
        edge = _parse_tag(line, graph, where, "generator")
        if edge in edges:
            raise InputError(f"{where}: duplicate tree edge")
        edges.add(edge)
    with whole_file(path):
        return MaximalTree(graph, edges)


def h1_entries(path, contraction) -> dict:
    """The h1 file's entries, {(g, k): consequence}, without the trivial
    entries it lists for tree arrows.  H1Table checks their boundaries."""
    graph = contraction.graph
    names = set(graph.presentation.relator_names())
    entries = {}
    for where, line in _lines(read_text(path), path):
        head, sep, body = line.partition(":=")
        if not sep:
            raise InputError(f"{where}: expected `<edge> := <consequence>`")
        g, k = _parse_tag(head, graph, where, "generator")
        try:
            c = parse_crossed(body.strip(), names, graph.gens)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if (g, k) in entries:
            raise InputError(
                f"{where}: duplicate h1 entry for edge "
                f"({graph.elt_name(g)!r}, {graph.gens[k]})")
        entries[(g, k)] = c
    return {e: c for e, c in entries.items()
            if not (e in contraction.tree and c.is_trivial())}


def load_table(path, pres: Presentation) -> CayleyGraph:
    """Load a Cayley table: |G| rows of |X| whitespace-separated element
    indices, row g column k holding g.phi(x_k).  Row 0 is the identity.

    Validates that every column is a permutation, the action is transitive
    from 0, every relator fixes every vertex, and all Schreier elements act
    trivially (a transitive action with those properties is the regular
    action of some quotient of the presented group; a proper quotient's own
    regular table is indistinguishable without enumerating, which this
    loader deliberately avoids).
    """
    rows = []
    for where, line in _lines(read_text(path), path):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise InputError(f"{where}: non-integer entry") from None
        if len(row) != len(pres.generators):
            raise InputError(
                f"{where}: expected {len(pres.generators)} entries, got {len(row)}")
        rows.append(row)
    n = len(rows)
    if n == 0:
        raise InputError(f"{path}: empty table")
    for g, row in enumerate(rows):
        for h in row:
            if not 0 <= h < n:
                raise InputError(f"{path}: entry {h} out of range at row {g}")
    for k, name in enumerate(pres.generators):
        if sorted(row[k] for row in rows) != list(range(n)):
            raise InputError(
                f"{path}: column for generator {name!r} is not a permutation")
    with whole_file(path):
        graph = CayleyGraph(pres, rows)
        _validate_graph(graph)
    return graph


def _parse_pin_terms(text, graph, where):
    """`[-] sym @ <element-word> [+/- sym @ <element-word> ...]`, with an
    optional integer multiplier before each symbol."""
    tokens = text.split()
    terms = []
    i = 0
    sign = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            i += 1
            continue
        coeff = sign
        try:
            coeff = sign * int(tok)
            i += 1
        except ValueError:
            pass
        if i >= len(tokens):
            raise InputError(f"{where}: dangling term in certificate pin")
        sym_tok = tokens[i]
        i += 1
        if "@" in sym_tok:
            sym, _, word_start = sym_tok.partition("@")
        else:
            sym, word_start = sym_tok, ""
            if i < len(tokens) and tokens[i].startswith("@"):
                word_start = tokens[i][1:]
                i += 1
            else:
                raise InputError(
                    f"{where}: expected `@ <element-word>` after {sym!r}")
        if not sym:
            raise InputError(f"{where}: missing symbol in certificate pin")
        word_tokens = [word_start] if word_start else []
        while i < len(tokens) and tokens[i] not in ("+", "-"):
            word_tokens.append(tokens[i])
            i += 1
        if not word_tokens:
            raise InputError(f"{where}: missing element word after {sym!r}")
        try:
            w = parse_word(" ".join(word_tokens), graph.gens)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        terms.append((coeff, sym, w))
        sign = 1
    if not terms:
        raise InputError(f"{where}: empty certificate pin")
    return terms


def parse_order_file(path, graph):
    """-> (explicit tag lists per level, certificate pins per level)."""
    explicit: dict[int, list] = {}
    overrides: dict[int, dict] = {}
    section = None  # ("level" | "xi", n)
    for where, line in _lines(read_text(path), path):
        if line.startswith("["):
            if not line.endswith("]"):
                raise InputError(f"{where}: malformed section header")
            tokens = line[1:-1].split()
            if len(tokens) != 2 or tokens[0] not in ("level", "xi"):
                raise InputError(f"{where}: expected `[level N]` or `[xi N]`")
            try:
                n = int(tokens[1])
            except ValueError:
                raise InputError(f"{where}: bad level number") from None
            if n < 3:
                raise InputError(f"{where}: levels start at 3")
            table = explicit if tokens[0] == "level" else overrides
            if n in table:
                raise InputError(f"{where}: duplicate [{tokens[0]} {n}] section")
            table[n] = [] if tokens[0] == "level" else {}
            section = (tokens[0], n)
            continue
        if section is None:
            raise InputError(f"{where}: line outside any section")
        kind, n = section
        if kind == "level":
            tag = _parse_tag(line, graph, where)
            if tag in explicit[n]:
                raise InputError(f"{where}: duplicate tag in [level {n}] section")
            explicit[n].append(tag)
        else:
            head, sep, body = line.partition(":=")
            if not sep:
                raise InputError(
                    f"{where}: expected `<element-word> <name> := <terms>`")
            tag = _parse_tag(head, graph, where)
            if tag in overrides[n]:
                raise InputError(
                    f"{where}: duplicate certificate pin in [xi {n}] section")
            overrides[n][tag] = _parse_pin_terms(body.strip(), graph, where)
    return explicit, overrides
