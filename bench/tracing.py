"""Spans and counts around the calls into each crossres module.

The wrappers are installed from the benchmark only, on the names the
program's callers look up at call time (module attributes such as
`crossres.syzygy_engine.member_solve`, and methods such as
`IntSpan.add`), and are removed again on exit from `Tracer.installed()`.
A span records its name, start, end, parent span and cell; spans stay in
memory until the benchmark writes them out once at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from crossres import cli, group_core, logged_rewriter, syzygy_engine, zg_lattice


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent, cell)
        self.counts: Counter = Counter()
        self.cell = None                # id shared by the spans of one cell
        self.lattices: list = []        # OrbitLattices of the current pass
        self._stack: list[int] = []
        self._cells_started = 0

    def start_cell(self, cell):
        self._cells_started += 1
        self.cell = f"{self._cells_started}:{cell.name}"

    def _timed(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cell)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _fill_loop(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except logged_rewriter.FillError:
                counts["logged_rewriter.fill_fail"] += 1
                raise
        return self._timed("logged_rewriter.fill_loop", wrapper)

    def _wrappers(self):
        """(owner, attribute, wrapper factory) for every traced callable."""
        counts, lattices = self.counts, self.lattices

        def candidates(args, result):
            counts["syzygy_engine.candidates"] += len(result)

        def kept(args, level):
            counts["syzygy_engine.kept"] += len(level.basis)

        def orbit_rows(args, _):
            lat = args[0]
            counts["zg_lattice.orbit_lattice_rows"] += len(lat.gens) * lat.graph.order
            lattices.append(lat)

        def json_bytes(args, text):
            counts["syzygy_engine.json_bytes"] += len(text)

        t = self._timed
        return [
            (cli, "build_state", lambda f: t("cli.build_state", f)),
            (cli, "parse_presentation", lambda f: t("cli.parse", f)),
            (cli, "parse_order_file", lambda f: t("cli.parse", f)),
            (cli, "enumerate_presentation", lambda f: t("group_core.enumerate", f)),
            (syzygy_engine, "enumerate_presentation",
             lambda f: t("group_core.enumerate", f)),
            (group_core.Contraction0, "__init__", lambda f: t("group_core.contraction", f)),
            (group_core.CayleyGraph, "mult", lambda f: self._counted("group_core.mult_calls", f)),
            (cli, "build_h1", lambda f: t("logged_rewriter.build_h1", f)),
            (logged_rewriter, "fill_loop", self._fill_loop),
            (syzygy_engine, "h1_eval", lambda f: self._counted("logged_rewriter.h1_eval_calls", f)),
            (syzygy_engine, "level3_candidates",
             lambda f: t("syzygy_engine.candidates", f, candidates)),
            (syzygy_engine, "next_candidates",
             lambda f: t("syzygy_engine.candidates", f, candidates)),
            (syzygy_engine, "reduce_level", lambda f: t("syzygy_engine.reduce_level", f, kept)),
            (syzygy_engine, "member_solve", lambda f: t("zg_lattice.member_solve", f)),
            (zg_lattice.IntSpan, "add", lambda f: t("zg_lattice.intspan_add", f)),
            (zg_lattice.IntSpan, "contains", lambda f: t("zg_lattice.intspan_contains", f)),
            (zg_lattice.OrbitLattice, "__init__",
             lambda f: t("zg_lattice.orbit_lattice", f, orbit_rows)),
            (syzygy_engine, "kernel_lattice", lambda f: t("zg_lattice.kernel_lattice", f)),
            (syzygy_engine, "apply_map", lambda f: t("crossed.apply_map", f)),
            (syzygy_engine, "verify_state", lambda f: t("syzygy_engine.verify_state", f)),
            (syzygy_engine, "render_tables", lambda f: t("syzygy_engine.render_tables", f)),
            (syzygy_engine, "export_json",
             lambda f: t("syzygy_engine.export_json", f, json_bytes)),
            (syzygy_engine, "import_json", lambda f: t("syzygy_engine.import_json", f)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; the original callables are restored on
        exit, whatever happens inside."""
        saved = []
        try:
            for owner, attr, make in self._wrappers():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """All spans, one JSON object per line."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, cell = span
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "cell": cell}) + "\n")


def max_entry_bits(lattices) -> int:
    """Largest |entry| in bits over the HNF rows, the transformation log and
    the relation rows of the given OrbitLattices."""
    return max((abs(x).bit_length()
                for lat in lattices
                for table in (lat.rows, lat.expr_rows, lat.kernel_rows)
                for row in table for x in row), default=0)


def layer_totals(spans, first=0) -> dict[str, float]:
    """Total seconds per span name over spans[first:], and self seconds
    (minus the time of direct children) under the `<name>_self` key."""
    total: Counter = Counter()
    child: Counter = Counter()
    done = [(i, s) for i, s in enumerate(spans[first:], first) if s is not None]
    for _, (name, start, end, parent, _) in done:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    for i, (name, start, end, _, _) in done:
        total[name + "_self"] += end - start - child[i]
    return dict(total)


def span_calls(spans, first=0) -> Counter:
    return Counter(s[0] for s in spans[first:] if s is not None)
