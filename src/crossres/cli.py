"""Command-line front end.  The input file formats are described in
`inputs`.

Exit status: 0 on success (and, with --verify, all checks passing),
1 when --verify finds a failure, 2 on any input or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .group_core import DEFAULT_MAX_COSETS, Contraction0, bfs_tree, \
    enumerate_presentation
from .inputs import InputError, parse_order_file, parse_presentation, read_text, \
    tree_from_file
from .logged_rewriter import DEFAULT_LIMITS, FillLimits, build_h1
from .syzygy_engine import ResolutionState, export_json, extend_resolution, \
    render_tables, verify_state
from .words import read_int


@dataclass
class RunConfig:
    presentation: str
    max_level: int = 3
    tree: str = "bfs"
    h1: str = "search"
    order: str = "declared"
    max_depth: int = DEFAULT_LIMITS.max_depth
    max_cosets: int = DEFAULT_MAX_COSETS
    format: str = "table"
    verify: bool = False
    out: str | None = None


def build_state(config: RunConfig) -> ResolutionState:
    if config.max_level < 3:
        raise InputError("--max-level must be at least 3")
    pres = parse_presentation(read_text(config.presentation), config.presentation)
    graph = enumerate_presentation(pres, config.max_cosets)
    tree = (bfs_tree(graph) if config.tree == "bfs"
            else tree_from_file(config.tree, graph))
    limits = FillLimits(max_depth=config.max_depth)
    state = ResolutionState(build_h1(Contraction0(graph, tree), config.h1, limits))
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


def _count(text: str) -> int:
    """An integer option's value, read by `read_int`."""
    n = read_int(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    return n


def main(argv=None) -> int:
    # RunConfig holds every default: an option left out is absent from the
    # parsed namespace, so the dataclass fills it in
    parser = argparse.ArgumentParser(
        prog="crossres", argument_default=argparse.SUPPRESS,
        description="Compute identities among relations of a finite "
                    "presentation and extend them to a free crossed "
                    "resolution, in exact integer arithmetic.")
    parser.add_argument("presentation", help="presentation file")
    parser.add_argument("--max-level", type=_count, metavar="N",
                        help=f"compute levels 3..N (default {RunConfig.max_level})")
    parser.add_argument("--tree", metavar="bfs|FILE",
                        help="spanning tree: breadth-first or an edge file")
    parser.add_argument("--h1", metavar="search|FILE",
                        help="level-1 homotopy: logged search or a table file")
    parser.add_argument("--order", metavar="declared|support|FILE",
                        help="candidate reduction order")
    parser.add_argument("--max-depth", type=_count, metavar="N",
                        help="logged-rewriting search depth limit")
    parser.add_argument("--max-cosets", type=_count, metavar="N",
                        help="coset enumeration size limit")
    parser.add_argument("--format", choices=("table", "json"))
    parser.add_argument("--verify", action="store_true",
                        help="replay all stored invariants; nonzero exit on failure")
    parser.add_argument("--out", metavar="DIR",
                        help="write tables.txt, state.json (and verify.txt) to DIR")
    args = parser.parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
