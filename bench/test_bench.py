"""Tests for the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from crossres import cli, logged_rewriter  # noqa: E402
from crossres.group_core import Contraction0, bfs_tree, enumerate_presentation  # noqa: E402

import workloads as wl  # noqa: E402
from sweep import render_h1, sweep_h1  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _cell(workload, name):
    return next(c for c in wl.WORKLOADS[workload] if c.name == name)


SWEPT = [c for c in wl.WORKLOADS["ladder"] if c.h1.startswith(wl.H1 + "/")]


@pytest.mark.parametrize("cell", SWEPT, ids=lambda c: c.name)
def test_sweep_fills_every_non_tree_arrow_and_matches_stored_table(cell):
    with open(cell.pres) as fh:
        graph = enumerate_presentation(cli.parse_presentation(fh.read(), cell.pres))
    contraction = Contraction0(graph, bfs_tree(graph))
    table = sweep_h1(contraction)
    assert len(table.entries) == graph.order * len(graph.gens) - (graph.order - 1)
    with open(cell.h1) as fh:
        assert render_h1(table) == fh.read()
    # the stored file goes through H1Table's boundary check on load
    assert logged_rewriter.build_h1(contraction, cell.h1).entries == table.entries


def test_stored_inputs_match_manifest():
    for cells in wl.WORKLOADS.values():
        wl.load_inputs(ROOT, cells)


def test_tampered_replay_input_is_refused(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench", "data"), tmp_path / "bench" / "data")
    cell = _cell("replay", "D6-L5")
    with open(tmp_path / cell.replay, "a") as fh:
        fh.write(" ")
    with pytest.raises(wl.WrongResult, match="digest"):
        wl.load_inputs(str(tmp_path), [cell])


def test_trace_wrappers_are_removed_and_leave_state_unchanged():
    cell = _cell("ladder", "Q8-L5")
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in Tracer()._wrappers()]
    plain = wl.run_cell(cell, 0)
    tracer = Tracer()
    with tracer.installed():
        traced = wl.run_cell(cell, 0)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert plain.error is None and traced.digest == plain.digest
    totals = layer_totals(tracer.spans)
    for name in ("cli.build_state", "syzygy_engine.reduce_level",
                 "zg_lattice.member_solve", "syzygy_engine.verify_state"):
        assert totals[name] > 0
    assert totals["syzygy_engine.reduce_level"] >= totals["zg_lattice.member_solve"]
    assert tracer.counts["group_core.mult_calls"] > 0

    with pytest.raises(KeyError):
        with Tracer().installed():
            raise KeyError("inside")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_failing_auto_cell_is_counted_not_dropped():
    cells = [_cell("auto", "D6-L3"), _cell("auto", "C12-L3")]
    result = wl.run_pass(cells, 0, random.Random(0), {})
    assert len(result.cells) == 2 and result.failed == 1
    d6 = next(r for r in result.cells if r.cell.name == "D6-L3")
    assert d6.error.startswith("FillError") and d6.build_s > 0


def test_pass_scales_cell_times_by_the_reference_loop_beside_them():
    cells = [_cell("auto", "C12-L3"), _cell("auto", "Q8-L3")]
    result = wl.run_pass(cells, 0, random.Random(0), {})
    assert result.pass_s == sum(r.wall_s for r in result.cells)
    for r in result.cells:
        assert r.ref_s > 0 and r.wall_s >= r.build_s + r.verify_s + r.json_s
        assert r.at_reference("build_s") == pytest.approx(r.build_s * wl.REF_S / r.ref_s)
    assert wl.reference_loop() == wl.reference_loop()


def test_cap_hit_counts_as_failed(monkeypatch):
    monkeypatch.setattr(wl, "CELL_CAP_S", 0.01)
    result = wl.run_cell(_cell("ladder", "S4-L4"), 0)
    assert result.error.startswith("CapHit") and result.digest is None


def test_seed_shuffles_order_but_not_results():
    cells = [_cell("auto", n) for n in ("D4-L3", "Q8-L3", "C12-L3", "C3xC3-L3")]
    a = wl.run_pass(cells, 1, random.Random(1), {})
    b = wl.run_pass(cells, 2, random.Random(2), {})
    assert [r.cell.name for r in a.cells] != [r.cell.name for r in b.cells]
    assert ({r.cell.name: r.digest for r in a.cells}
            == {r.cell.name: r.digest for r in b.cells})
    wl.check_cyclic_oracle([a, b])


def test_wrong_group_order_is_a_wrong_result():
    cell = dataclasses.replace(_cell("auto", "C12-L3"), order=11)
    with pytest.raises(wl.WrongResult, match="order"):
        wl.run_cell(cell, 0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
