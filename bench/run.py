"""crossres benchmark: closed-loop passes over fixed lists of groups.

    python3 bench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

runs from the root of a crossres checkout with one process and one thread.
A pass runs every cell of the workload once, in an order drawn from the
seed; passes repeat while the next one is expected to end within
`--seconds`.  Every result is checked (see workloads.py).  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0`
the metrics are the end-to-end ones, each the median over passes of times
scaled to a reference speed (see `workloads.run_pass`); with
`--trace 1` untraced and traced passes alternate, and the metrics are the
per-layer ones from the traced passes, plus `trace_overhead`.

    python3 bench/run.py --regenerate

rewrites the stored h1 tables, the frozen replay states and their digest
manifest from the program in this checkout.  Nothing else writes them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is timed in this many fresh processes and reported as the median
SETUP_PROBES = 15


def metric_units(kind) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_program():
    """Import crossres from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "crossres", "__init__.py")):
        sys.exit(f"error: no crossres sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import crossres
    if os.path.dirname(os.path.dirname(os.path.abspath(crossres.__file__))) != SRC:
        sys.exit(f"error: crossres was imported from {crossres.__file__}, not {SRC}")


def measure_setup(workload) -> list[float]:
    """Seconds from process start to the first cell being ready (interpreter,
    `import crossres`, inputs read and checked), in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        out.append(elapsed)
    return out


def _time_left(start, seconds, durations) -> bool:
    """True while another pass is expected to end within `seconds`;
    `durations` are the whole earlier passes, reference loops included."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(cells, texts, seed, rng, seconds):
    from workloads import run_pass
    passes, durations = [], []
    start = time.perf_counter()
    while _time_left(start, seconds, durations):
        t = time.perf_counter()
        passes.append(run_pass(cells, seed, rng, texts))
        durations.append(time.perf_counter() - t)
    return passes


def run_traced(workload, cells, texts, seed, rng, seconds):
    """Alternate untraced and traced passes; returns both lists and the
    per-layer figures of each traced pass."""
    from workloads import run_pass
    from tracing import Tracer, layer_totals, max_entry_bits, span_calls
    tracer = Tracer()
    plain, traced, layers, durations = [], [], [], []
    start = time.perf_counter()
    while _time_left(start, seconds, durations):
        t = time.perf_counter()
        plain.append(run_pass(cells, seed, rng, texts))
        first, before = len(tracer.spans), Counter(tracer.counts)
        with tracer.installed():
            traced.append(run_pass(cells, seed, rng, texts, tracer.start_cell))
        totals = layer_totals(tracer.spans, first)
        calls = span_calls(tracer.spans, first)
        figures = dict.fromkeys(metric_units("per_layer"), 0)
        figures.update({name + "_s": v for name, v in totals.items()})
        figures.update({name + "_calls": v for name, v in calls.items()})
        figures.update({k: tracer.counts[k] - before[k] for k in tracer.counts})
        figures["zg_lattice.max_entry_bits"] = max_entry_bits(tracer.lattices)
        tracer.lattices.clear()
        cands = figures["syzygy_engine.candidates"]
        figures["syzygy_engine.kept_ratio"] = (
            figures["syzygy_engine.kept"] / cands if cands else 0.0)
        layers.append(figures)
        durations.append(time.perf_counter() - t)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    return plain, traced, layers


def regenerate():
    """Rewrite the stored h1 tables, the frozen replay states and the
    manifest from the program in this checkout."""
    import workloads as wl
    from crossres import cli, syzygy_engine
    from crossres.group_core import Contraction0, bfs_tree, enumerate_presentation
    from sweep import render_h1, sweep_h1
    os.makedirs(wl.H1, exist_ok=True)
    os.makedirs(wl.REPLAY, exist_ok=True)
    written = []
    for cell in wl.WORKLOADS["ladder"] + wl.WORKLOADS["replay"]:
        if cell.h1.startswith(wl.H1 + "/") and cell.h1 not in written:
            with open(cell.pres) as fh:
                pres = cli.parse_presentation(fh.read(), cell.pres)
            graph = enumerate_presentation(pres)
            table = sweep_h1(Contraction0(graph, bfs_tree(graph)))
            with open(cell.h1, "w") as fh:
                fh.write(render_h1(table))
            written.append(cell.h1)
    for cell in wl.WORKLOADS["replay"]:
        state = cli.build_state(cell.config())
        with open(cell.replay, "w") as fh:
            fh.write(syzygy_engine.export_json(state))
        written.append(cell.replay)
    with open(wl.MANIFEST, "w") as fh:
        for path in sorted(written):
            with open(path, "rb") as data:
                fh.write(f"{wl.digest(data.read())}  {path}\n")
    for path in sorted(written):
        print(f"wrote {path}")


def _table(rows):
    """Human-readable lines: name, median, min, max, samples, unit."""
    out = [f"{'metric':38} {'median':>12} {'min':>12} {'max':>12} {'n':>4}  unit"]
    for name, values, unit in rows:
        out.append(f"{name:38} {statistics.median(values):12.6g} {min(values):12.6g} "
                   f"{max(values):12.6g} {len(values):4}  {unit}")
    return "\n".join(out)


def end_to_end_rows(passes, setup):
    def at_reference(attr):
        return [sum(r.at_reference(attr) for r in p.cells) for p in passes]
    return [
        ("pass_s", at_reference("wall_s"), "s"),
        ("build_s", at_reference("build_s"), "s"),
        ("verify_s", at_reference("verify_s"), "s"),
        ("json_s", at_reference("json_s"), "s"),
        ("setup_s", setup, "s"),
        ("peak_rss_mb",
         [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
        ("done_frac", [1 - p.failed / len(p.cells) for p in passes], "ratio"),
        ("fail_frac", [p.failed / len(p.cells) for p in passes], "ratio"),
        ("wall pass_s", [p.pass_s for p in passes], "s"),
        ("reference_s", [r.ref_s for p in passes for r in p.cells], "s"),
    ]


def per_layer_rows(plain, traced, layers):
    units = metric_units("per_layer")
    rows = [(m, [f[m] for f in layers], units[m]) for m in units
            if m != "trace_overhead"]
    overhead = (statistics.median(p.pass_s for p in traced)
                / statistics.median(p.pass_s for p in plain))
    return rows + [
        ("trace_overhead", [overhead], "ratio"),
        ("untraced pass_s", [p.pass_s for p in plain], "s"),
        ("traced pass_s", [p.pass_s for p in traced], "s"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ladder", "auto", "replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the stored inputs and their manifest")
    args = parser.parse_args(argv)
    if not args.regenerate and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    import_program()
    import workloads as wl
    if args.regenerate:
        regenerate()
        return 0
    cells = wl.WORKLOADS[args.workload]
    try:
        texts = wl.load_inputs(ROOT, cells)
    except (OSError, wl.WrongResult) as exc:
        sys.exit(f"error: {exc}")
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    rng = random.Random(args.seed)
    passes, rows = [], []
    correct = False
    try:
        setup = measure_setup(args.workload)
        if args.trace:
            plain, traced, layers = run_traced(args.workload, cells, texts,
                                               args.seed, rng, args.seconds)
            passes = plain + traced
            rows = per_layer_rows(plain, traced, layers)
        else:
            passes = run_untraced(cells, texts, args.seed, rng, args.seconds)
            rows = end_to_end_rows(passes, setup)
        wl.check_digests(passes)
        wl.check_cyclic_oracle(passes)
        correct = True
    except wl.WrongResult as exc:
        print(f"wrong result: {exc}", file=sys.stderr)

    for r in passes[0].cells if passes else ():
        if r.error:
            print(f"failed cell {r.cell.name}: {r.error}")
    metrics = {}
    if correct:
        print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
              f"of {len(cells)} cells, trace {args.trace}")
        print(_table(rows))
        by_name = {name: (values, unit) for name, values, unit in rows}
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {name: {"value": statistics.median(by_name[name][0]),
                          "unit": by_name[name][1]}
                   for name in metric_units(kind)}
    print(json.dumps({"correct": correct,
                      "attempted": sum(len(p.cells) for p in passes),
                      "failed": sum(p.failed for p in passes),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
