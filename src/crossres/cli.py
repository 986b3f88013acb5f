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

from .group_core import Contraction0, bfs_tree, enumerate_presentation
from .inputs import InputError, parse_order_file, parse_presentation, read_text, \
    tree_from_file
from .logged_rewriter import DEFAULT_LIMITS, FillLimits, build_h1
from .syzygy_engine import ResolutionState, export_json, extend_resolution, \
    render_tables, verify_state


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
    pres = parse_presentation(read_text(config.presentation), config.presentation)
    graph = enumerate_presentation(pres, config.max_cosets)
    tree = (bfs_tree(graph) if config.tree == "bfs"
            else tree_from_file(config.tree, graph))
    contraction = Contraction0(graph, tree)
    limits = FillLimits(max_depth=config.max_depth)
    h1 = build_h1(contraction, config.h1, limits)
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
