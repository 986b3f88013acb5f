"""Command-line front end.

Input files:

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

Exit status: 0 on success (and, with --verify, all checks passing),
1 when --verify finds a failure, 2 on any input or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .group_core import Contraction0, Presentation, PresentationError, \
    bfs_tree, enumerate_presentation, tree_from_file
from .logged_rewriter import DEFAULT_LIMITS, FillLimits, build_h1
from .syzygy_engine import ResolutionState, export_json, extend_resolution, \
    render_tables, verify_state
from .words import Word, parse_letters, parse_word


class InputError(ValueError):
    """A problem with user-supplied files or options (exit status 2)."""


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_presentation(text: str, source: str = "<presentation>") -> Presentation:
    """Parse the presentation grammar; errors carry line numbers."""
    gens = None
    relators = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        where = f"{source}:{lineno}"
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
    try:
        return Presentation(gens, relators)
    except PresentationError as exc:
        raise InputError(f"{source}: {exc}") from None


def _parse_tag(tokens, graph, where):
    """`<element-word ...> <name>` -> (element index, name)."""
    if len(tokens) < 2:
        raise InputError(f"{where}: expected `<element-word> <name>`")
    name = tokens[-1]
    try:
        g = graph.elt_by_name(" ".join(tokens[:-1]))
    except (KeyError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None
    return (g, name)


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
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(str(exc)) from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("["):
                if not line.endswith("]"):
                    raise InputError(f"{where}: malformed section header")
                tokens = line[1:-1].split()
                if len(tokens) != 2 or tokens[0] not in ("level", "xi"):
                    raise InputError(
                        f"{where}: expected `[level N]` or `[xi N]`")
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
                tag = _parse_tag(line.split(), graph, where)
                if tag in explicit[n]:
                    raise InputError(
                        f"{where}: duplicate tag in [level {n}] section")
                explicit[n].append(tag)
            else:
                head, sep, body = line.partition(":=")
                if not sep:
                    raise InputError(
                        f"{where}: expected `<element-word> <name> := <terms>`")
                tag = _parse_tag(head.split(), graph, where)
                if tag in overrides[n]:
                    raise InputError(
                        f"{where}: duplicate certificate pin in [xi {n}] section")
                overrides[n][tag] = _parse_pin_terms(body.strip(), graph, where)
    return explicit, overrides


@dataclass
class RunConfig:
    presentation: str
    max_level: int = 3
    tree: str = "bfs"
    h1: str = "search"
    order: str = "declared"
    max_depth: int = DEFAULT_LIMITS.max_depth
    max_cosets: int = 100000
    format: str = "table"
    verify: bool = False
    out: str | None = None


def build_state(config: RunConfig) -> ResolutionState:
    if config.max_level < 3:
        raise InputError("--max-level must be at least 3")
    try:
        with open(config.presentation) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    pres = parse_presentation(text, config.presentation)
    graph = enumerate_presentation(pres, config.max_cosets)
    tree = (bfs_tree(graph) if config.tree == "bfs"
            else tree_from_file(config.tree, graph))
    contraction = Contraction0(graph, tree)
    limits = FillLimits(max_depth=config.max_depth)
    h1 = build_h1(contraction, "search" if config.h1 == "search" else config.h1,
                  limits)
    state = ResolutionState(pres, graph, tree, contraction, h1)
    policy, explicit, overrides = "declared", None, None
    if config.order == "support":
        policy = "support"
    elif config.order != "declared":
        explicit, overrides = parse_order_file(config.order, graph)
    extend_resolution(state, config.max_level, policy, explicit, overrides)
    return state


def render_verify_report(rows) -> str:
    by_check: dict[str, list] = {}
    for row in rows:
        by_check.setdefault(row[0], []).append(row)
    out = []
    for check in sorted(by_check):
        group = by_check[check]
        bad = [r for r in group if not r[3]]
        out.append(f"{'FAIL' if bad else 'ok  '} {check}: "
                   f"{len(group) - len(bad)}/{len(group)}")
        for _, level, element, _, detail in bad:
            out.append(f"     level {level}, {element}: {detail}")
    return "\n".join(out) + "\n"


def run(config: RunConfig) -> int:
    state = build_state(config)
    table_text = render_tables(state)
    json_text = export_json(state)
    if config.out is not None:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "tables.txt"), "w") as fh:
            fh.write(table_text)
        with open(os.path.join(config.out, "state.json"), "w") as fh:
            fh.write(json_text)
    else:
        sys.stdout.write(json_text if config.format == "json" else table_text)
    if config.verify:
        ok, rows = verify_state(state)
        report = render_verify_report(rows)
        sys.stdout.write(report)
        if config.out is not None:
            with open(os.path.join(config.out, "verify.txt"), "w") as fh:
                fh.write(report)
        if not ok:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossres",
        description="Compute identities among relations of a finite "
                    "presentation and extend them to a free crossed "
                    "resolution, in exact integer arithmetic.")
    parser.add_argument("presentation", help="presentation file")
    parser.add_argument("--max-level", type=int, default=3, metavar="N",
                        help="compute levels 3..N (default 3)")
    parser.add_argument("--tree", default="bfs", metavar="bfs|FILE",
                        help="spanning tree: breadth-first or an edge file")
    parser.add_argument("--h1", default="search", metavar="search|FILE",
                        help="level-1 homotopy: logged search or a table file")
    parser.add_argument("--order", default="declared",
                        metavar="declared|support|FILE",
                        help="candidate reduction order")
    parser.add_argument("--max-depth", type=int,
                        default=DEFAULT_LIMITS.max_depth, metavar="N",
                        help="logged-rewriting search depth limit")
    parser.add_argument("--max-cosets", type=int, default=100000, metavar="N",
                        help="coset enumeration size limit")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--verify", action="store_true",
                        help="replay all stored invariants; nonzero exit on failure")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write tables.txt, state.json (and verify.txt) to DIR")
    args = parser.parse_args(argv)
    config = RunConfig(
        presentation=args.presentation, max_level=args.max_level,
        tree=args.tree, h1=args.h1, order=args.order,
        max_depth=args.max_depth, max_cosets=args.max_cosets,
        format=args.format, verify=args.verify, out=args.out)
    try:
        return run(config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
