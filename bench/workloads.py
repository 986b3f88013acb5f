"""The benchmark's workloads and the pipeline it runs on every cell.

A cell is one group at one level.  On `ladder` and `auto` a cell runs what
`crossres PRES --verify --out DIR` runs, plus a round trip:

    build_state -> verify_state -> render_tables + export_json
                -> import_json + export_json

On `replay` a cell starts from a frozen state.json instead, and reading it
is what builds the state:

    import_json -> verify_state -> export_json

The program's own calls are looked up through their modules at call time,
so the trace wrappers in `tracing.py` see them.  Paths are relative to the
repository root.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import signal
import time
from dataclasses import dataclass, field

from crossres import cli, syzygy_engine

PRES = "bench/data/pres"
H1 = "bench/data/h1"
REPLAY = "bench/data/replay"
MANIFEST = "bench/data/MANIFEST"

# A cell that runs longer than this counts as failed.  The slowest cell at
# the time the benchmark was written took about 2 s.
CELL_CAP_S = 15.0

# Median time of `reference_loop` on the 2-core VM the benchmark was
# calibrated on.  Timings are reported at this reference speed (see
# `CellResult.at_reference`).
REF_S = 0.025

# The errors `cli.main` maps to exit status 2: a cell that raises one of
# them has failed, it has not produced a wrong result.
PROGRAM_ERRORS = (ValueError, RuntimeError, OSError)


@dataclass(frozen=True)
class Cell:
    name: str
    order: int              # known order of the group, independent of crossres
    pres: str
    level: int
    h1: str = "search"
    tree: str = "bfs"
    order_file: str = "declared"
    replay: str | None = None   # frozen state.json; the cell then only reads

    def config(self) -> cli.RunConfig:
        return cli.RunConfig(presentation=self.pres, max_level=self.level,
                             tree=self.tree, h1=self.h1, order=self.order_file)


def _ladder(name, order, stem, level, pres=None):
    return Cell(f"{name}-L{level}", order, pres or f"{PRES}/{stem}.pres", level,
                h1=f"{H1}/{stem}.h1")


def _auto(name, order, stem, pres=None):
    return Cell(f"{name}-L3", order, pres or f"{PRES}/{stem}.pres", 3)


def _replay(name, order, stem, level, pres=None):
    return Cell(f"{name}-L{level}", order, pres or f"{PRES}/{stem}.pres", level,
                h1=f"{H1}/{stem}.h1",
                replay=f"{REPLAY}/{stem}-L{level}.json")


WORKLOADS = {
    # Reduction-bound: greedy certificates and span membership dominate.
    # h1 comes from stored sweep tables, so the h1 search is bypassed; S3
    # covers the tree, h1 and order files with certificate pins.
    "ladder": (
        _ladder("C12", 12, "c12", 5),
        _ladder("Q8", 8, "q8", 5, pres="tests/data/q8.pres"),
        _ladder("A4", 12, "a4", 4),
        _ladder("D6", 12, "d6", 5),
        _ladder("SL23", 24, "sl23", 5),
        _ladder("S4", 24, "s4", 4),
        _ladder("A5", 60, "a5", 3),
        Cell("S3-L4", 6, "tests/data/s3.pres", 4, h1="tests/data/s3.h1",
             tree="tests/data/s3.tree", order_file="tests/data/s3.order"),
    ),
    # Search-bound: CLI defaults, so the logged h1 search dominates.  D6
    # fails in that search and stays in as a counted failure.
    "auto": (
        _auto("D4", 8, "d4"),
        _auto("D5", 10, "d5"),
        _auto("A4p", 12, "a4p"),
        _auto("Q8", 8, "q8", pres="tests/data/q8.pres"),
        _auto("Q12", 12, "q12"),
        _auto("C3xC3", 9, "c3c3"),
        _auto("C2xC2xC2", 8, "c2c2c2"),
        _auto("C4xC2", 8, "c4c2"),
        _auto("C12", 12, "c12"),
        _auto("D6", 12, "d6"),
    ),
    # Reader side: verification and JSON only, no greedy work, no search.
    "replay": (
        _replay("Q8", 8, "q8", 5, pres="tests/data/q8.pres"),
        _replay("D6", 12, "d6", 5),
        _replay("SL23", 24, "sl23", 5),
        _replay("S4", 24, "s4", 4),
        _replay("A5", 60, "a5", 3),
    ),
}


class WrongResult(Exception):
    """The program returned a result that fails a correctness gate."""


class CapHit(Exception):
    """A cell ran past CELL_CAP_S."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_manifest(root) -> dict[str, str]:
    """path -> sha256 of every stored input the sweep and the seed program
    wrote (`run.py --regenerate` rewrites them)."""
    out = {}
    with open(os.path.join(root, MANIFEST)) as fh:
        for line in fh:
            sha, path = line.split()
            out[path] = sha
    return out


def load_inputs(root, cells) -> dict[str, str]:
    """Read every input file the cells name and check the stored ones
    against the manifest.  Returns the replay texts by path."""
    manifest = read_manifest(root)
    texts = {}
    for cell in cells:
        for path in (cell.pres, cell.h1, cell.tree, cell.order_file, cell.replay):
            if path in (None, "search", "bfs", "declared"):
                continue
            with open(os.path.join(root, path), "rb") as fh:
                data = fh.read()
            if path.startswith((H1 + "/", REPLAY + "/")):
                if manifest.get(path) != digest(data):
                    raise WrongResult(f"{path}: digest does not match {MANIFEST}")
            if path == cell.replay:
                texts[path] = data.decode()
    return texts


@dataclass
class CellResult:
    cell: Cell
    build_s: float = 0.0
    verify_s: float = 0.0
    json_s: float = 0.0
    error: str | None = None
    digest: str | None = None
    kept: tuple = ()
    wall_s: float = 0.0     # the whole cell, set by run_pass
    ref_s: float = REF_S    # reference_loop time next to the cell, set by run_pass

    def at_reference(self, attr) -> float:
        """`attr` seconds scaled to the reference speed: the host's speed
        drifts between minutes, and the reference loop run on either side
        of the cell drifts with it."""
        return getattr(self, attr) * REF_S / self.ref_s


def _on_alarm(signum, frame):
    raise CapHit(f"cell exceeded the {CELL_CAP_S:g} s cap")


def run_cell(cell: Cell, seed: int, replay_text: str | None = None) -> CellResult:
    """Run one cell under the cap.  A program error or a cap hit is
    recorded in `error`; a wrong result raises WrongResult."""
    res = CellResult(cell)
    clock = time.perf_counter
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CELL_CAP_S)
    stage, t = "build_s", clock()
    try:
        if cell.replay is None:
            state = cli.build_state(cell.config())
        else:
            state = syzygy_engine.import_json(replay_text)
        res.build_s = clock() - t
        stage, t = "verify_s", clock()
        ok, rows = syzygy_engine.verify_state(state, seed=seed)
        res.verify_s = clock() - t
        stage, t = "json_s", clock()
        if cell.replay is None:
            syzygy_engine.render_tables(state)
        text = syzygy_engine.export_json(state)
        if cell.replay is None:
            again = syzygy_engine.export_json(syzygy_engine.import_json(text))
        res.json_s = clock() - t
    except (CapHit, *PROGRAM_ERRORS) as exc:
        setattr(res, stage, clock() - t)
        res.error = f"{type(exc).__name__}: {exc}"
        return res
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not ok:
        bad = next(r for r in rows if not r[3])
        raise WrongResult(f"{cell.name}: verify_state failed: {bad}")
    if cell.replay is None and again != text:
        raise WrongResult(f"{cell.name}: export -> import -> export changed state.json")
    if cell.replay is not None and text != replay_text:
        raise WrongResult(f"{cell.name}: re-export differs from the frozen input")
    if state.graph.order != cell.order:
        raise WrongResult(f"{cell.name}: group order {state.graph.order}, "
                          f"expected {cell.order}")
    res.digest = digest(text.encode())
    res.kept = tuple(len(state.levels[n].basis) for n in sorted(state.levels))
    return res


def reference_loop() -> int:
    """A fixed piece of pure-Python work in the program's mix (tuple-keyed
    dicts, row operations on small integers, integers to text) that uses
    nothing from crossres, so no change to the program moves its time."""
    table: dict = {}
    for i in range(24000):
        key = ((i * 7919) % 4099, i % 13)
        table[key] = table.get(key, 0) + i
    rows = [[(i * j + 3) % 97 - 48 for j in range(24)] for i in range(90)]
    for p in range(24):
        pivot = rows[p]
        for row in rows[p + 1:]:
            if row[p]:
                a, f = pivot[p] or 1, row[p]
                row[:] = [(x * a - f * y) % 10007 for x, y in zip(row, pivot)]
    text = ",".join(map(str, table.values()))
    return len(text) + sum(x for row in rows for x in row)


def time_reference() -> float:
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


@dataclass
class PassResult:
    pass_s: float           # sum of the cells' wall times
    cells: list[CellResult] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if c.error is not None)


def run_pass(cells, seed: int, rng: random.Random, replay_texts,
             on_cell=None) -> PassResult:
    """Run every cell once, in an order drawn from `rng`; `on_cell` is
    called with each cell before it runs.  Before each cell the garbage
    collector is emptied, as in a fresh `crossres` process, and the
    reference loop is timed; it is timed once more after the last cell, and
    each cell gets the mean of the two reference times around it.  None of
    that is in the cell's times."""
    order = rng.sample(list(cells), len(cells))
    results, refs = [], []
    for cell in order:
        if on_cell is not None:
            on_cell(cell)
        gc.collect()
        refs.append(time_reference())
        t = time.perf_counter()
        res = run_cell(cell, seed, replay_texts.get(cell.replay))
        res.wall_s = time.perf_counter() - t
        results.append(res)
    refs.append(time_reference())
    for i, res in enumerate(results):
        res.ref_s = (refs[i] + refs[i + 1]) / 2
    return PassResult(sum(r.wall_s for r in results), results)


def check_digests(passes) -> None:
    """Every pass must write the same state.json for the same cell."""
    seen: dict[str, str] = {}
    for p in passes:
        for r in p.cells:
            if r.digest is None:
                continue
            if seen.setdefault(r.cell.name, r.digest) != r.digest:
                raise WrongResult(f"{r.cell.name}: state.json differs between passes")


def check_cyclic_oracle(passes) -> None:
    """Kept counts of the cyclic cells must match the closed-form cyclic
    resolution, one generator per level."""
    from crossres.oracles import cyclic_resolution
    expected = {}
    for p in passes:
        for r in p.cells:
            if not r.cell.name.startswith("C12-") or r.error is not None:
                continue
            if r.cell.level not in expected:
                oracle = cyclic_resolution(12, r.cell.level)
                expected[r.cell.level] = tuple(
                    len(oracle.levels[n].basis) for n in sorted(oracle.levels))
            if r.kept != expected[r.cell.level]:
                raise WrongResult(f"{r.cell.name}: kept counts {r.kept}, cyclic "
                                  f"oracle {expected[r.cell.level]}")
