"""Readers for every user input file, with one error type.

File formats (`#` starts a comment; blank lines are ignored):

  presentation   `gens: x y` line, then `rel <name> = <word>` lines.
                 Words are whitespace-separated tokens with caret powers
                 (`x^3`, `x^-1`); the bare token `1` is the empty word.
                 Relator words must be freely reduced as written.
  tree file      one edge per line: `<element-word> <generator>`.
  h1 file        one non-tree edge per line:
                 `<element-word> <generator> := <consequence>`; a tree
                 edge may be listed only as `:= 1`.
  order file     `[level N]` sections list candidate tags (one
                 `<element-word> <name>` per line) to be reduced first,
                 in the listed order; `[xi N]` sections pin certificate
                 representatives for rejected tags:
                 `<element-word> <name> := [-] sym @ <element-word> [+/- ...]`:
                 standalone `+`/`-` tokens separate the terms, and an
                 optional integer multiplier must be followed by a `sym`.
                 Pins are validated by exact replay against the boundary.

Powers, multipliers and level numbers are ASCII decimal integers with an
optional `-` and no leading zero (`words.read_int`): `x^1_0`, `x^+2`,
`x^02` and `[level ３]` are refused.  A zero power still names a
generator: `x^0` is the empty word, `z^0` with no generator `z` is refused.
A word may expand to at most `words.MAX_WORD_LETTERS` (2^20) letters as
written, counted from its powers before any letter is built, so
`x^2000000` is refused at its line without the allocation.

Every reader raises InputError, whose message starts with `path:line:`
for a fault on one line and with `path:` for a fault of the whole file
(a tree that does not span, an h1 entry with the wrong boundary, ...).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import groupby

from .crossed import parse_crossed
from .group_core import CayleyGraph, MaximalTree, Presentation, check_name
from .words import Word, parse_letters, parse_word, read_int


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
    """Report a ValueError raised inside (a TreeError, PresentationError
    or H1Table's check) as an InputError on source."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from None


def _parse_tag(text, graph, where, last="name"):
    """`<element-word> <name>` -> (element index, name): the tag grammar
    of the tree, h1 and order files, and of the tags `import_json` reads.
    With last="generator" the name must be a generator, and the tag is
    the arrow (element index, generator index)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InputError(f"{where}: expected `<element-word> <{last}>`")
    try:
        name = graph.gen_index(tokens[-1]) if last == "generator" else tokens[-1]
        return graph.elt_by_name(" ".join(tokens[:-1])), name
    except (KeyError, ValueError) as exc:
        raise InputError(f"{where}: {exc.args[0]}") from None


def read_relator(name, text, generators) -> Word:
    """The relator `name` written as `text` on `generators`, read by the
    one rule of every presentation reader: caret-power word syntax, not
    empty and freely reduced as written.  Refused with a ValueError, which
    names the relator when the word is empty or not freely reduced."""
    letters = parse_letters(text, generators)
    w = Word(letters)
    if w.is_empty():
        raise ValueError(f"relator {name!r} is empty")
    if len(w) != len(letters):
        raise ValueError(f"relator {name!r} is not freely reduced as written")
    return w


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
            names: set = set()
            try:
                for name in gens:
                    check_name("generator", name, names)
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
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
        try:
            check_name("relator", name, seen)
            relators.append((name, read_relator(name, body.strip(), set(gens))))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
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
    """The h1 file's entries, {(g, k): consequence}, without the entries
    it lists for tree arrows, which must be trivial (h1 is the empty
    consequence there).  H1Table checks the boundaries of the rest."""
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
        if (g, k) in contraction.tree and not c.is_trivial():
            raise InputError(
                f"{where}: h1 entry for tree edge "
                f"({graph.elt_name(g)!r}, {graph.gens[k]}) must be 1")
        entries[(g, k)] = c
    return {e: c for e, c in entries.items() if e not in contraction.tree}


def _parse_pin_terms(text, graph, where):
    """A pin's [(coefficient, symbol, element word)], term by term."""
    terms, sign = [], None
    # groupby alternates sign runs and term runs; a sign signs the term
    # after it, so a sign run is one sign and a term must follow it
    for is_sign, run in groupby(text.split(), lambda tok: tok in ("+", "-")):
        run = list(run)
        if is_sign:
            if len(run) > 1:
                raise InputError(f"{where}: dangling sign in certificate pin")
            sign = run[0]
            continue
        coeff, sign = -1 if sign == "-" else 1, None
        n = read_int(run[0])
        if n is not None:
            coeff, run = coeff * n, run[1:]
        if not run:
            raise InputError(f"{where}: dangling term in certificate pin")
        head, at, word = " ".join(run).partition("@")
        sym, word = head.split(), " ".join(word.split())
        if not sym:
            raise InputError(f"{where}: missing symbol in certificate pin")
        if not at or len(sym) > 1:
            raise InputError(f"{where}: expected `@ <element-word>` after {sym[0]!r}")
        if not word:
            raise InputError(f"{where}: missing element word after {sym[0]!r}")
        try:
            terms.append((coeff, sym[0], parse_word(word, graph.gens)))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
    if not terms:
        raise InputError(f"{where}: empty certificate pin")
    if sign:
        raise InputError(f"{where}: dangling sign in certificate pin")
    return terms


class FileTag(tuple):
    """An (element index, name) tag read from a file.  It equals the plain
    tag, and `where` is the `path:line` it was read on, for a refusal
    made once the candidates are known."""

    def __new__(cls, tag, where):
        self = super().__new__(cls, tag)
        self.where = where
        return self


def parse_order_file(path, graph):
    """-> (explicit tag lists per level, certificate pins per level).  The
    listed tags and the pins' keys are FileTags, so a tag that is not a
    candidate of its level, or a pin that cannot be used, is refused
    naming its line."""
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
            n = read_int(tokens[1])
            if n is None:
                raise InputError(f"{where}: bad level number")
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
            tag = FileTag(_parse_tag(line, graph, where), where)
            if tag in explicit[n]:
                raise InputError(f"{where}: duplicate tag in [level {n}] section")
            explicit[n].append(tag)
        else:
            head, sep, body = line.partition(":=")
            if not sep:
                raise InputError(
                    f"{where}: expected `<element-word> <name> := <terms>`")
            tag = FileTag(_parse_tag(head, graph, where), where)
            if tag in overrides[n]:
                raise InputError(
                    f"{where}: duplicate certificate pin in [xi {n}] section")
            overrides[n][tag] = _parse_pin_terms(body.strip(), graph, where)
    return explicit, overrides
