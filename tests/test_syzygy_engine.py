import functools
import glob
import hashlib
import json
import os
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crossres import (RunConfig, build_state, export_json, import_json,
                      render_tables, syzygy_engine, verify_state, zg_lattice)
from crossres.crossed import (CrossedElt, ModuleElt, abelianise, apply_map,
                              boundary2, render_crossed, unit)
from crossres.group_core import Presentation, enumerate_presentation
from crossres.inputs import FileTag
from crossres.logged_rewriter import h1_eval
from crossres.syzygy_engine import (Candidate, ResolutionState,
                                    compute_delta3, extend_resolution,
                                    fox_matrix_map, level3_candidates,
                                    next_candidates, order_candidates,
                                    reduce_level)
from crossres.words import EMPTY, GroupRingElt, parse_word, word
from crossres.zg_lattice import OrbitLattice, kernel_lattice
from conftest import data_path, s3_config, scaled


def homotopy_eval(graph, xi, g: int, chain: ModuleElt) -> ModuleElt:
    """Reference additive homotopy, one term at a time:
    h(g, sum c . e_prev . g') = sum c . xi[(g.g'^-1, prev)]."""
    total: dict[str, dict[int, int]] = {}
    for prev, ring in chain.coords.items():
        for gp, c in ring.coeffs.items():
            entry = xi[(graph.mult(g, graph.inv_elt(gp)), prev)]
            for sym, r in entry.coords.items():
                row = total.setdefault(sym, {})
                for h, d in r.coeffs.items():
                    row[h] = row.get(h, 0) + c * d
    return ModuleElt({sym: GroupRingElt(row) for sym, row in total.items()})


def fresh_state(**kw):
    return build_state(s3_config(**kw))


class TestDelta3:
    def test_frozen_crossed_forms(self, s3_state):
        # generator rows of the worked example, in its own tree and h1
        assert render_crossed(compute_delta3(s3_state, 2, "r")) \
            == "r^-1@1 r^+1@x"
        assert render_crossed(compute_delta3(s3_state, 1, "r")) \
            == "r^-1@1 r^+1@x^-1"
        assert render_crossed(compute_delta3(s3_state, 0, "r")) == "1"

    def test_every_tag_is_an_identity(self, s3_state):
        pres = s3_state.presentation
        for g in range(s3_state.graph.order):
            for rname in pres.relator_names():
                c = compute_delta3(s3_state, g, rname)
                assert boundary2(c, pres).is_empty()

    def test_candidate_list_order(self, s3_state):
        cands = level3_candidates(s3_state)
        assert len(cands) == 18
        assert [c.tag for c in cands[:4]] \
            == [(0, "r"), (0, "s"), (0, "t"), (1, "r")]
        for c in cands:
            assert abelianise(c.crossed_form, s3_state.graph) == c.form


class TestOrdering:
    def test_explicit_prefix(self, s3_state):
        cands = level3_candidates(s3_state)
        ordered = order_candidates(cands, explicit=[(2, "r"), (3, "s")])
        assert [c.tag for c in ordered[:2]] == [(2, "r"), (3, "s")]
        assert len(ordered) == 18

    def test_explicit_errors(self, s3_state):
        cands = level3_candidates(s3_state)
        with pytest.raises(ValueError):
            order_candidates(cands, explicit=[(99, "r")])
        with pytest.raises(ValueError):
            order_candidates(cands, explicit=[(2, "r"), (2, "r")])
        with pytest.raises(ValueError):
            order_candidates(cands, policy="frequency")

    def test_explicit_errors_name_the_file_line(self, s3_state):
        cands = level3_candidates(s3_state)
        twice = [FileTag((2, "r"), "f.order:2"), FileTag((2, "r"), "f.order:3")]
        with pytest.raises(ValueError, match=r"^f\.order:3: duplicate tag in "
                                             r"order file: \(x\^2, r\)$"):
            order_candidates(cands, explicit=twice, graph=s3_state.graph)
        # an element outside the group is shown as its index
        with pytest.raises(ValueError, match=r"^unknown tag in order file: "
                                             r"\(99, 'r'\)$"):
            order_candidates(cands, explicit=[(99, "r")], graph=s3_state.graph)

    def test_support_policy(self):
        state = fresh_state(order="support", tree="bfs", h1="search")
        assert {n: len(state.levels[n].basis) for n in state.levels} \
            == {3: 4, 4: 5}
        ok, _ = verify_state(state, samples=5)
        assert ok


class TestReduction:
    def test_fixture_state_shape(self, s3_state):
        graph = s3_state.graph
        lvl3, lvl4 = s3_state.levels[3], s3_state.levels[4]
        assert [(graph.elt_name(t[0]), t[1]) for _, t in lvl3.basis] \
            == [("x^2", "r"), ("y", "s"), ("x^2", "s"), ("x", "t")]
        assert [(graph.elt_name(t[0]), t[1]) for _, t in lvl4.basis] \
            == [("x^2", "b3_1"), ("y", "b3_2"), ("y x", "b3_3"),
                ("x^2", "b3_4"), ("y", "b3_4")]

    def test_certificates_replay(self, s3_state):
        graph = s3_state.graph
        for n, level in s3_state.levels.items():
            for cand in level.candidates:
                got = apply_map(graph, level.boundary, level.xi[cand.tag])
                assert got == cand.form

    def test_accepted_tags_map_to_units(self, s3_state):
        for level in s3_state.levels.values():
            for sym, tag in level.basis:
                assert level.xi[tag] == unit(sym)

    def test_bogus_pin_rejected(self, s3_state):
        cands = order_candidates(level3_candidates(s3_state))
        scratch = ResolutionState(s3_state.h1)
        # in declared order (x, r) is accepted, so (x^2, r) is rejected
        bad = {(2, "r"): [(1, "b3_1", parse_word("1"))]}
        with pytest.raises(ValueError, match="replay"):
            reduce_level(scratch, 3, cands, bad)

    def test_pin_for_accepted_tag_rejected(self, s3_state):
        cands = order_candidates(level3_candidates(s3_state))
        scratch = ResolutionState(s3_state.h1)
        # (x, r) is the first nonzero candidate in declared order
        bad = {(1, "r"): [(1, "b3_1", parse_word("1"))]}
        with pytest.raises(ValueError, match="not rejected"):
            reduce_level(scratch, 3, cands, bad)

    def test_pin_for_unknown_tag_rejected(self, s3_state):
        cands = order_candidates(level3_candidates(s3_state))
        scratch = ResolutionState(s3_state.h1)
        bad = {(0, "nope"): [(1, "b3_1", parse_word("1"))]}
        with pytest.raises(ValueError, match="not rejected"):
            reduce_level(scratch, 3, cands, bad)


class TestHomotopyEval:
    def test_additive_in_chain(self, s3_state):
        graph = s3_state.graph
        xi = s3_state.levels[3].xi
        a = unit("r", 2) - unit("s", 3, 2)
        b = unit("t", 1)
        for g in range(graph.order):
            assert homotopy_eval(graph, xi, g, a + b) \
                == homotopy_eval(graph, xi, g, a) \
                + homotopy_eval(graph, xi, g, b)

    def test_action_killing_rule(self, s3_state):
        # h(g . g', e_prev . g') depends only on g
        graph = s3_state.graph
        xi = s3_state.levels[3].xi
        for g in range(graph.order):
            for gp in range(graph.order):
                chain = ModuleElt({"r": GroupRingElt({gp: 1})})
                assert homotopy_eval(graph, xi, graph.mult(g, gp), chain) \
                    == xi[(g, "r")]

    @pytest.mark.parametrize("n", [3, 4])
    @given(data=st.data())
    def test_matches_the_reference_sum(self, s3_state, n, data):
        """h(g, chain) is sum c . xi[(g.g'^-1, prev)] with every coefficient
        c, not only +-1; a sign error that keeps h additive shows here."""
        graph, level = s3_state.graph, s3_state.levels[n]
        rings = st.dictionaries(st.integers(0, graph.order - 1),
                                st.integers(-3, 3), max_size=4)
        coords = data.draw(st.dictionaries(st.sampled_from(level.codomain), rings))
        chain = ModuleElt({p: GroupRingElt(r) for p, r in coords.items()})
        g = data.draw(st.integers(0, graph.order - 1))
        want = ModuleElt()
        for prev, ring in chain.items():
            for gp, c in ring.items():
                entry = level.xi[(graph.mult(g, graph.inv_elt(gp)), prev)]
                want = want + ModuleElt(
                    {s: scaled(r, c) for s, r in entry.coords.items()})
        assert homotopy_eval(graph, level.xi, g, chain) == want


_BENCH_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "data")
_REPLAY_STATES = sorted(glob.glob(os.path.join(_BENCH_DATA, "replay", "*.json")))


def _bench_config(stem, level) -> RunConfig:
    """A stored group to `level`: its presentation and sweep h1 table, a
    BFS tree and the declared order."""
    pres = (data_path("q8.pres") if stem == "q8"
            else os.path.join(_BENCH_DATA, "pres", f"{stem}.pres"))
    return RunConfig(presentation=pres, max_level=level,
                     h1=os.path.join(_BENCH_DATA, "h1", f"{stem}.h1"))


def _replay_config(path) -> RunConfig:
    """The settings a frozen `<stem>-L<level>.json` was built with."""
    stem, level = os.path.basename(path)[:-len(".json")].rsplit("-L", 1)
    return _bench_config(stem, int(level))

json_trees = st.recursive(
    st.text(), lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids))


def emitted(doc):
    out = []
    syzygy_engine._emit(doc, "", out)
    return "".join(out)


class TestJsonEmitter:
    @given(json_trees)
    @example({})
    @example([])
    @example({"": [], "b": {}, "a": ["\u00e9\u4e2d\U0001d11e", '"', "\\", "\x00\x1f\n\t\x7f"]})
    def test_matches_json_dumps(self, doc):
        assert emitted(doc) == json.dumps(doc, sort_keys=True, indent=1)

    @pytest.mark.parametrize("doc", [1, 1.5, ["x", 2], {"x": 0.5}, {1: "x"}])
    def test_rejects_other_types(self, doc):
        with pytest.raises(TypeError):
            emitted(doc)


def _graph(gens, relators):
    return enumerate_presentation(Presentation(
        gens, [(f"r{i}", parse_word(w)) for i, w in enumerate(relators)]))


# S3 and C12 both name their elements in an order that is not the index
# order: "x y" < "x^2" and "x^10" < "x^2"
_S3, _C12 = _graph(["x", "y"], ["x^3", "y^2", "x y x y"]), _graph(["x"], ["x^12"])


def _module_as_dict(graph, m):
    """The form state.json gives a module: {symbol: {name: str(coeff)}}."""
    return {sym: {graph.elt_name(g): str(c) for g, c in ring.items()}
            for sym, ring in m.items()}


@st.composite
def graphs_and_modules(draw):
    graph = draw(st.sampled_from([_S3, _C12]))
    rings = st.dictionaries(st.integers(0, graph.order - 1),
                            st.integers(-10 ** 12, 10 ** 12).filter(bool),
                            min_size=1)
    symbols = (st.sampled_from(["b3_1", "b3_2", "b3_10", "b4_11", "r", "s"])
               | st.text(max_size=4))
    coords = draw(st.dictionaries(symbols, rings, max_size=5))
    return graph, ModuleElt({sym: GroupRingElt(r) for sym, r in coords.items()})


class TestModuleWriter:
    """export_json writes each ModuleElt straight to its text; it must be
    the text json.dumps gives for the module's dict form, at any depth."""

    @given(graphs_and_modules(), st.integers(0, 3))
    @example((_S3, ModuleElt()), 0)
    @example((_S3, ModuleElt()), 2)
    @example((_S3, ModuleElt({"b3_10": GroupRingElt({4: -12, 2: 3}),
                              "b3_2": GroupRingElt({5: 1, 0: 100})})), 1)
    def test_matches_json_dumps_of_the_dict_form(self, graph_module, depth):
        graph, m = graph_module
        doc, want = m, _module_as_dict(graph, m)
        for _ in range(depth):
            doc, want = {"k": [doc]}, {"k": [want]}
        out = []
        syzygy_engine._emit(doc, "", out, syzygy_engine._element_keys(graph))
        assert "".join(out) == json.dumps(want, sort_keys=True, indent=1)

    def test_element_keys_rank_names_in_string_order(self):
        keys, rank = syzygy_engine._element_keys(_S3)
        assert [_S3.elt_name(g) for g in range(6)] \
            == ["1", "x", "x^2", "y", "x y", "y x"]
        assert sorted(range(6), key=rank.__getitem__) == [0, 1, 4, 2, 3, 5]
        assert keys[4] == '"x y": "'

    def test_export_is_json_dumps_of_its_own_parse(self, s3_state, tmp_path):
        """Byte identity of the writer on the S3 fixture, a Q8 level-5
        build, every frozen replay state and a level 3 that keeps no
        generator."""
        pres = tmp_path / "trivial.pres"
        pres.write_text("gens: x\nrel r = x\n")
        trivial = build_state(RunConfig(presentation=str(pres)))
        assert trivial.levels[3].basis == []
        q8 = build_state(RunConfig(presentation=data_path("q8.pres"), max_level=5,
                                   h1=os.path.join(_BENCH_DATA, "h1", "q8.h1")))
        states = [s3_state, q8, trivial]
        for path in _REPLAY_STATES:
            with open(path) as fh:
                states.append(import_json(fh.read()))
        assert len(states) == 8
        for state in states:
            text = export_json(state)
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      indent=1) + "\n"


class TestVerifyAndSerialize:
    def test_verify_fixture(self, s3_state):
        ok, rows = verify_state(s3_state)
        assert ok
        checks = {r[0] for r in rows}
        assert checks == {"retr2", "retr3", "consistency", "dd", "retr32",
                          "retr4", "retr5", "exactness"}

    def test_export_import_round_trip(self, s3_state):
        text = export_json(s3_state)
        state2 = import_json(text)
        assert export_json(state2) == text
        ok, _ = verify_state(state2, samples=5)
        assert ok

    def test_import_reads_non_canonical_names(self, s3_state):
        # y^2 = 1 in S3, so "y^2 w" names the same element as w; only the
        # element list must stay canonical
        def respell(text):
            return "y^2" if text == "1" else f"y^2 {text}"

        def respell_module(data):
            return {sym: {respell(w): c for w, c in ring.items()}
                    for sym, ring in data.items()}

        def respell_key(key):
            head, name = key.rsplit(" ", 1)
            return f"{respell(head)} {name}"

        text = export_json(s3_state)
        doc = json.loads(text)
        doc["tree"] = [[respell(w), x] for w, x in doc["tree"]]
        doc["h1"] = {respell_key(k): v for k, v in doc["h1"].items()}
        for entry in doc["levels"].values():
            entry["boundary"] = {sym: respell_module(m)
                                 for sym, m in entry["boundary"].items()}
            for cand in entry["candidates"]:
                cand["form"] = respell_module(cand["form"])
            entry["xi"] = {respell_key(k): respell_module(m)
                           for k, m in entry["xi"].items()}
        respelled = json.dumps(doc)
        assert '"y^2 x"' in respelled
        assert export_json(import_json(respelled)) == text

    @pytest.mark.parametrize("path", _REPLAY_STATES,
                             ids=[os.path.basename(p) for p in _REPLAY_STATES])
    def test_frozen_states_re_export_byte_for_byte(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        assert export_json(import_json(data.decode())).encode() == data

    @pytest.mark.parametrize("path", _REPLAY_STATES,
                             ids=[os.path.basename(p) for p in _REPLAY_STATES])
    def test_frozen_states_build_byte_for_byte(self, path):
        """Building each frozen state from its inputs writes the file
        again.  D6 L5, S4 L4 and A5 L3 take the most certificates from
        the HNF fallback, so the relation lattice decides many bytes."""
        with open(path, "rb") as fh:
            data = fh.read()
        assert export_json(build_state(_replay_config(path))).encode() == data

    @pytest.mark.parametrize("gens, rels", [
        ("x", ["x"]), ("x y", ["x", "y"]), ("x", ["x^2", "x^4"])],
        ids=["trivial", "trivial-two-gens", "c2-redundant"])
    @pytest.mark.parametrize("level", [3, 4])
    def test_round_trip_of_redundant_presentations(self, tmp_path, gens, rels,
                                                   level):
        """Presentations with a redundant generator or relator, where level
        3 may keep no generator: the built state and its imported copy
        both verify, and the two exports are the same bytes."""
        pres = tmp_path / "g.pres"
        pres.write_text(f"gens: {gens}\n" + "".join(
            f"rel r{i} = {w}\n" for i, w in enumerate(rels)))
        state = build_state(RunConfig(presentation=str(pres), max_level=level))
        assert verify_state(state)[0]
        text = export_json(state)
        again = import_json(text)
        assert verify_state(again)[0]
        assert export_json(again) == text

    def test_import_rejects_corruption(self, s3_state):
        text = export_json(s3_state)
        with pytest.raises(ValueError):
            import_json(text.replace("crossres-state/1", "crossres-state/9"))
        with pytest.raises(ValueError):
            import_json(text.replace('"x y"', '"y^2 x"', 1))
        # a kept symbol's stored crossed form or boundary that is not its
        # candidate's is refused, naming the level and the symbol
        for n, field in ((3, "crossed"), (4, "boundary")):
            doc = json.loads(text)
            stored = doc["levels"][str(n)][field]
            stored[f"b{n}_1"] = stored[f"b{n}_2"]
            with pytest.raises(ValueError, match=f"level {n}: .* b{n}_1 "):
                import_json(json.dumps(doc))

    @staticmethod
    def _c4_l4_doc():
        return json.loads(export_json(build_state(
            RunConfig(presentation=data_path("c4.pres"), max_level=4))))

    def test_import_rejects_a_candidate_without_xi(self):
        """A level whose xi lacks a candidate's tag is refused, naming the
        level and the tag; verify_state would fail on it with a KeyError."""
        doc = self._c4_l4_doc()
        xi = doc["levels"]["4"]["xi"]
        key = sorted(xi)[0]
        del xi[key]
        head, name = key.rsplit(" ", 1)
        with pytest.raises(ValueError,
                           match=rf"level 4: tag \({head}, {name}\) is a "
                                 rf"candidate with no xi entry"):
            import_json(json.dumps(doc))

    def test_import_rejects_xi_for_a_non_candidate(self):
        doc = self._c4_l4_doc()
        doc["levels"]["4"]["xi"]["x b3_9"] = {}
        with pytest.raises(ValueError,
                           match=r"level 4: tag \(x, b3_9\) has an xi entry "
                                 r"but is not a candidate"):
            import_json(json.dumps(doc))

    def test_import_rejects_two_xi_keys_for_one_tag(self):
        """x^4 = 1 in C4, so "x^4 b3_1" spells the tag of "1 b3_1"."""
        doc = self._c4_l4_doc()
        xi = doc["levels"]["4"]["xi"]
        assert "1 b3_1" in xi
        xi["x^4 b3_1"] = {}
        with pytest.raises(ValueError,
                           match=r"level 4: tag \(1, b3_1\) has two xi entries"):
            import_json(json.dumps(doc))

    def test_import_rejects_a_ring_that_names_an_element_twice(self, s3_state):
        """y^2 = 1 in S3, so {"1": "1", "y^2": "2"} names the identity twice."""
        doc = json.loads(export_json(s3_state))
        doc["levels"]["3"]["candidates"][0]["form"] = {"r": {"1": "1", "y^2": "2"}}
        with pytest.raises(ValueError,
                           match=r"level 3: a ring of r names element 1 twice"):
            import_json(json.dumps(doc))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _q8_l4_text():
        return export_json(build_state(
            RunConfig(presentation=data_path("q8.pres"), max_level=4)))

    @pytest.mark.parametrize("field", ["xi", "form"])
    @pytest.mark.parametrize("bad", ["0", "-0", "+1", " 1", "1 ", "01", "1_0",
                                     "\u0661", "", "-", "1.0", 1, None])
    def test_import_refuses_a_coefficient_text_export_does_not_write(
            self, field, bad):
        """A coefficient reads only as export_json writes it: "-" or
        nothing, then ASCII digits with no leading zero, not 0.  Every
        other text or JSON value in an xi value or a candidate form is
        refused, naming the level, the tag or field, and the symbol."""
        doc = json.loads(self._q8_l4_text())
        entry = doc["levels"]["4"]
        if field == "xi":
            key = sorted(k for k, m in entry["xi"].items() if m)[0]
            module, where = entry["xi"][key], rf"level 4: xi key {key!r}: "
        else:
            module = next(c["form"] for c in entry["candidates"] if c["form"])
            where = "level 4: "
        sym = sorted(module)[0]
        module[sym][sorted(module[sym])[0]] = bad
        with pytest.raises(ValueError, match=rf"^{re.escape(where)}a ring of "
                                             rf"{sym}: coefficient "):
            import_json(json.dumps(doc))

    def test_import_refuses_an_added_zero_entry(self):
        """A zero coefficient is refused, not dropped: the text would not
        export back to the same bytes."""
        doc = json.loads(self._q8_l4_text())
        xi = doc["levels"]["4"]["xi"]
        key = sorted(k for k, m in xi.items() if m)[0]
        sym = sorted(xi[key])[0]
        absent = [w for w in doc["group"]["elements"] if w not in xi[key][sym]]
        xi[key][sym][absent[0]] = "0"
        with pytest.raises(ValueError, match=rf"level 4: xi key {key!r}: a ring "
                                             rf"of {sym}: coefficient '0' "):
            import_json(json.dumps(doc))
        del xi[key][sym][absent[0]]
        assert export_json(import_json(json.dumps(doc))) == self._q8_l4_text()

    def test_import_rejects_a_candidate_listed_twice(self):
        doc = self._c4_l4_doc()
        cands = doc["levels"]["4"]["candidates"]
        cands.append(dict(cands[1]))
        head, name = cands[1]["tag"]
        with pytest.raises(ValueError,
                           match=rf"level 4: tag \({head}, {name}\) is listed "
                                 rf"twice among the candidates"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("what", ["symbol", "tag"])
    def test_import_rejects_a_basis_that_lists_a_symbol_or_tag_twice(
            self, s3_state, what):
        """The S3 fixture cut to level 3, with its first basis entry listed
        again, or its first tag listed again under a new symbol b3_9 with
        that symbol's boundary and crossed form; without the check either
        state imports, verifies and re-exports the extra entry."""
        doc = json.loads(export_json(s3_state))
        del doc["levels"]["4"]
        level = doc["levels"]["3"]
        first = level["basis"][0]
        if what == "symbol":
            level["basis"].append(dict(first))
        else:
            level["basis"].append({"symbol": "b3_9", "tag": first["tag"]})
            for field in ("boundary", "crossed"):
                level[field]["b3_9"] = level[field][first["symbol"]]
        with pytest.raises(ValueError,
                           match=f"^level 3: the basis lists a {what} twice$"):
            import_json(json.dumps(doc))

    @staticmethod
    def _rejected_b3_4(doc):
        """The last level-4 candidate of the S3 fixture tagged b3_4 that is
        not kept, as (its candidate entry, its xi key)."""
        level = doc["levels"]["4"]
        kept = [b["tag"] for b in level["basis"]]
        cand = [c for c in level["candidates"]
                if c["tag"][1] == "b3_4" and c["tag"] not in kept][-1]
        return cand, " ".join(cand["tag"])

    def test_import_rejects_a_candidate_tag_outside_the_codomain(self, s3_state):
        """A tag and its xi key renamed to a symbol the codomain lacks
        replays as stored, so only the G x codomain check sees it."""
        doc = json.loads(export_json(s3_state))
        cand, key = self._rejected_b3_4(doc)
        head = cand["tag"][0]
        cand["tag"] = [head, "bogus"]
        xi = doc["levels"]["4"]["xi"]
        xi[f"{head} bogus"] = xi.pop(key)
        with pytest.raises(ValueError,
                           match=rf"level 4: candidate \({re.escape(head)}, "
                                 rf"bogus\) is not in G x codomain"):
            import_json(json.dumps(doc))

    def test_import_rejects_a_dropped_candidate(self, s3_state):
        """A rejected candidate dropped together with its xi entry leaves
        23 of the 6 x 4 tags of level 4."""
        doc = json.loads(export_json(s3_state))
        cand, key = self._rejected_b3_4(doc)
        doc["levels"]["4"]["candidates"].remove(cand)
        del doc["levels"]["4"]["xi"][key]
        with pytest.raises(ValueError,
                           match=r"level 4: 23 candidates, not \|G\| x "
                                 r"\|codomain\| = 24"):
            import_json(json.dumps(doc))

    def test_import_rejects_level3_without_crossed_forms(self, tmp_path):
        """<x | x> keeps no level-3 generator, so only candidates_crossed
        holds the crossed forms; without it the level is refused."""
        pres = tmp_path / "trivial.pres"
        pres.write_text("gens: x\nrel r = x\n")
        doc = json.loads(export_json(build_state(
            RunConfig(presentation=str(pres)))))
        assert doc["levels"]["3"]["basis"] == []
        del doc["levels"]["3"]["candidates_crossed"]
        with pytest.raises(ValueError,
                           match=r"level 3: candidate \(1, r\) has no crossed form"):
            import_json(json.dumps(doc))

    def test_import_rejects_an_h1_entry_on_a_tree_arrow(self, s3_state):
        """(1, x) is a tree arrow of the S3 fixture; an identity among
        relations there has the boundary rho(1, x) = 1, so only H1Table's
        tree-arrow rule refuses it."""
        doc = json.loads(export_json(s3_state))
        doc["h1"]["1 x"] = "r^+1@1 r^-1@x"
        with pytest.raises(ValueError,
                           match=r"h1 entry at tree edge \('1', x\)"):
            import_json(json.dumps(doc))

    def test_import_rejects_an_unknown_generator_in_a_tag(self, s3_state):
        text = export_json(s3_state)
        doc = json.loads(text)
        doc["h1"]["x z"] = doc["h1"].pop("x x")
        with pytest.raises(ValueError,
                           match=r"h1 key 'x z': unknown generator 'z'"):
            import_json(json.dumps(doc))
        doc = json.loads(text)
        doc["tree"][0] = ["x", "z"]
        with pytest.raises(ValueError, match=r"tree edge \['x', 'z'\]: "
                                             r"unknown generator 'z'"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("path, value, message", [
        (["levels", "3", "xi"], None, "level 3: field 'xi' is missing"),
        (["levels", "3", "basis"], {},
         "level 3: field 'basis' is missing or not a list"),
        (["levels", "3", "candidates"], [{"form": {}}],
         "level 3: field 'tag' is missing"),
        (["levels", "3", "xi", "1 r"], [],
         "level 3: xi key '1 r': a module is not an object"),
        # the last of the five edges is written as a copy of the first
        (["tree", 4], ["1", "x"], "tree: an edge is listed twice"),
        (["group", "order"], "07", "group: order '07' is not the order 6"),
        (["group", "order"], "5", "group: order '5' is not the order 6"),
        (["group", "order"], 6, "group: field 'order' is missing or not a str"),
        # read as written, as parse_presentation reads it: `x^3` after
        # free reduction, but refused
        (["presentation", "relators", 0], ["r", "x x^-1 x^3"],
         "presentation: relator 'r' is not freely reduced as written"),
    ], ids=["no-xi", "basis-object", "tag-missing", "xi-value-list",
            "tree-edge-twice", "order-07", "order-5", "order-number",
            "relator-not-freely-reduced"])
    def test_import_rejects_a_missing_or_mistyped_field(self, s3_state, path,
                                                        value, message):
        """The value at `path` in the S3 fixture's document deleted (None)
        or replaced is refused, naming where."""
        doc = json.loads(export_json(s3_state))
        *parents, last = path
        parent = functools.reduce(lambda obj, key: obj[key], parents, doc)
        if value is None:
            del parent[last]
        else:
            parent[last] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["03", " 4", "x", "2"],
                             ids=["leading-zero", "space", "word", "two"])
    def test_import_rejects_a_level_key_that_is_not_a_level_number(self, key):
        """Only str(n) for n >= 3 names a level: "03" would spell level 3
        a second time beside "3", and the later of the two would win."""
        doc = self._c4_l4_doc()
        levels = doc["levels"]
        if key == " 4":
            levels[key] = levels.pop("4")  # the only spelling of level 4
        else:
            levels[key] = levels["3"]
        with pytest.raises(ValueError, match=rf"levels: key {re.escape(repr(key))} "
                                             rf"is not a level number"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("relators", [[["r", 7]], [["r"]]])
    def test_import_rejects_a_mistyped_relator(self, relators):
        doc = json.loads(export_json(build_state(
            RunConfig(presentation=data_path("c4.pres")))))
        doc["presentation"]["relators"] = relators
        with pytest.raises(ValueError, match="presentation: "):
            import_json(json.dumps(doc))

    def test_import_reads_a_relator_spelt_freely_reduced(self):
        # `x^2 x^2` is freely reduced as written, so it imports as C4's
        # relator x^4 and re-exports to the same text
        text = export_json(build_state(
            RunConfig(presentation=data_path("c4.pres"))))
        doc = json.loads(text)
        doc["presentation"]["relators"] = [["r", "x^2 x^2"]]
        assert export_json(import_json(json.dumps(doc))) == text

    def test_render_tables_mentions_every_tag(self, s3_state):
        out = render_tables(s3_state)
        graph = s3_state.graph
        for level in s3_state.levels.values():
            for cand in level.candidates:
                g, name = cand.tag
                assert f"[{graph.elt_name(g)}, {name}]" in out


class TestFaultInjection:
    def test_single_perturbation_detected(self):
        state = fresh_state()
        level = state.levels[4]
        sym = level.basis[0][0]
        original = level.boundary[sym]
        level.boundary[sym] = original + unit(level.codomain[0], 2)
        ok, rows = verify_state(state, samples=2)
        assert not ok
        assert any(r[0] == "dd" and not r[3] and r[2] == sym for r in rows)


def test_exactness_of_deeper_levels():
    state = fresh_state(max_level=5)
    assert {n: len(state.levels[n].basis) for n in state.levels} \
        == {3: 4, 4: 5, 5: 6}
    graph = state.graph
    for n in (3, 4):
        hi, lo = state.levels[n + 1], state.levels[n]
        image = OrbitLattice(graph, [s for s, _ in lo.basis],
                             [hi.boundary[s] for s, _ in hi.basis])
        kern = kernel_lattice(graph, [s for s, _ in lo.basis],
                              lo.codomain, lo.boundary)
        assert image == kern


def _build_counting_sources(monkeypatch, config):
    """Build the state, counting certificates by source: the greedy peel,
    or the HNF solution reduced modulo the relation lattice where the peel
    stalls."""
    sources = {"greedy": 0, "hnf": 0}
    greedy = zg_lattice._greedy_certificate

    def counted(*args):
        cert = greedy(*args)
        sources["greedy" if cert is not None else "hnf"] += 1
        return cert

    monkeypatch.setattr(zg_lattice, "_greedy_certificate", counted)
    state = build_state(config)
    return state, sources


def test_q8_full_build_is_frozen(monkeypatch):
    """One whole build with CLI defaults to level 5, pinned byte for byte.
    Q8 reaches both certificate sources: the greedy peel and, where it
    stalls, the HNF solution reduced modulo the relation lattice."""
    state, sources = _build_counting_sources(
        monkeypatch, RunConfig(presentation=data_path("q8.pres"), max_level=5))
    assert sources == {"greedy": 61, "hnf": 21}
    digest = hashlib.sha256(export_json(state).encode()).hexdigest()
    assert digest == ("9e9121b0c850e5e1f0523c834cc62a21"
                      "e77cff4747cc4c128040c7f3a3b17efb")


def test_sl23_full_build_is_frozen(monkeypatch):
    """SL(2,3) to level 5 on a BFS tree, a stored h1 table and the declared
    order, pinned byte for byte.  A third of its certificates come from
    the HNF fallback, so the relation lattice decides many bytes."""
    state, sources = _build_counting_sources(
        monkeypatch, RunConfig(presentation=data_path("sl23.pres"), max_level=5,
                               h1=data_path("sl23.h1")))
    assert sources == {"greedy": 120, "hnf": 64}
    digest = hashlib.sha256(export_json(state).encode()).hexdigest()
    assert digest == ("0c2ae5ce281f0bd9634d8c657fc48616"
                      "b8cc0096213ac21ed540a052f812c603")


@pytest.mark.parametrize("config", [
    s3_config(),
    RunConfig(presentation=data_path("q8.pres"), max_level=5),
    _bench_config("d6", 5),
    _bench_config("sl23", 5),
    _bench_config("s4", 4),
], ids=["s3-L4", "q8-L5", "d6-L5", "sl23-L5", "s4-L4"])
def test_reduction_span_lattice_matches_standalone(monkeypatch, config):
    """The OrbitLattice that reduce_level builds matches the canonical
    HNF of [T | I] taken standalone over the same generators: same image
    HNF, same relation lattice, and the same HNF-fallback certificate for
    every candidate, whether or not the greedy peel reaches it."""
    built = []

    def recording(graph, basis, gens):
        lat = zg_lattice.OrbitLattice(graph, basis, gens)
        built.append(lat)
        return lat

    monkeypatch.setattr(syzygy_engine, "OrbitLattice", recording)
    state = build_state(config)
    levels = sorted(state.levels)
    assert len(built) == len(levels)
    for n, lat in zip(levels, built):
        image, kernel, reference = _logged_hnf_reference(lat)
        assert (lat.rows, lat.pivots) == (image.rows, image.pivots), n
        width = len(lat.gens) * lat.graph.order
        assert zg_lattice.Lattice(width, lat.kernel_rows) == kernel, n
        for cand in state.levels[n].candidates:
            vec = zg_lattice.expand(lat.graph, lat.basis, cand.form)
            assert (zg_lattice._hnf_certificate(lat, vec)
                    == reference(vec)), (n, cand.tag)


def _logged_hnf_reference(lat):
    """The image HNF, the relation lattice and the HNF-fallback
    certificate computed the direct way, from the canonical Lattice of
    [inputs | I] over all generator translates: its rows with a pivot in
    the inputs' columns are the image HNF beside its log, and the others
    are the relation HNF."""
    n = lat.graph.order
    inputs = [zg_lattice.expand(lat.graph, lat.basis, m.translated(lat.graph, g))
              for m in lat.gens for g in range(n)]
    k, width = len(inputs), lat.ambient
    whole = zg_lattice.Lattice(width + k, [
        row + [int(i == j) for j in range(k)] for i, row in enumerate(inputs)])
    rank = sum(p < width for p in whole.pivots)
    image = zg_lattice.Lattice(width, [r[:width] for r in whole.rows[:rank]])
    log = [r[width:] for r in whole.rows[:rank]]
    kernel = zg_lattice.Lattice(k, [r[width:] for r in whole.rows[rank:]])

    def certificate(vec):
        coeffs = image.solve(vec)
        v = [0] * k
        for q, expr in zip(coeffs, log):
            v = [a + q * b for a, b in zip(v, expr)]
        v, _ = zg_lattice._reduce(kernel.rows, kernel.pivots, v)
        return [{g: v[j * n + g] for g in range(n) if v[j * n + g]}
                for j in range(len(lat.gens))]
    return image, kernel, certificate


def _map_rows(graph, dom_basis, codom_basis, mapping):
    """The expanded rows of the map b -> mapping[b], one per (domain
    symbol, group element), built term by term."""
    return [zg_lattice.expand(graph, codom_basis, mapping[sym].translated(graph, g))
            for sym in dom_basis for g in range(graph.order)]


def _reference_verify(state, samples=50, seed=0):
    """verify_state's checks made the direct way: apply_map per boundary
    and certificate, boundary2 per element, and exactness lattices from
    `_map_rows`.  Same rows, in the same order, with the same details."""
    import random
    rng = random.Random(seed)
    graph, pres = state.graph, state.presentation
    rows = []

    def add(check, level, element, ok, detail=""):
        rows.append((check, level, element, ok, detail))

    for g in range(graph.order):
        ok = graph.eval_word(state.contraction.sigma[g], 0) == g
        add("retr2", 0, graph.elt_name(g), ok, "" if ok else "phi(sigma(g)) != g")
    ok = state.contraction.sigma[0].is_empty()
    add("retr2", 0, "1", ok, "" if ok else "sigma(1) != 1")
    for (g, k), c in sorted(state.h1.entries.items()):
        want = state.contraction.rho(g, parse_word(graph.gens[k]))
        got = boundary2(c, pres)
        add("retr3", 1, f"({graph.elt_name(g)}, {graph.gens[k]})", got == want,
            "" if got == want else f"boundary {got.render()} != {want.render()}")
    fox = fox_matrix_map(pres, graph)
    text = syzygy_engine._tag_text
    dd_ok = {}
    for n in sorted(state.levels):
        level = state.levels[n]
        lower = fox if n == 3 else state.levels[n - 1].boundary
        if n == 3:
            for cand in level.candidates:
                ok = abelianise(cand.crossed_form, graph) == cand.form
                add("consistency", n, text(graph, cand.tag), ok,
                    "" if ok else "abelianised crossed form != module form")
                w = boundary2(cand.crossed_form, pres)
                add("dd", n, text(graph, cand.tag), w.is_empty(),
                    "" if w.is_empty() else
                    f"boundary2 of delta3 reduces to {w.render()}, not 1")
        dd_ok[n] = True
        for sym, _ in level.basis:
            img = apply_map(graph, lower, level.boundary[sym])
            add("dd", n, sym, not img, "" if not img else "delta(delta(sym)) != 0")
            dd_ok[n] = dd_ok[n] and not img
        for cand in level.candidates:
            ok = apply_map(graph, level.boundary, level.xi[cand.tag]) == cand.form
            add("retr32" if n == 3 else "retr4", n, text(graph, cand.tag), ok,
                "" if ok else "delta(xi) != candidate form")
        if level.candidates:
            for _ in range(samples):
                h, prev = rng.choice(level.candidates).tag
                g = rng.randrange(graph.order)
                moved = homotopy_eval(graph, level.xi, graph.mult(h, g),
                                      ModuleElt({prev: GroupRingElt({g: 1})}))
                ok = moved == level.xi[(h, prev)]
                add("retr5", n, text(graph, (h, prev)), ok,
                    "" if ok else "translated lookup mismatch")
    below = pres.relator_names()
    below_rank = zg_lattice.Lattice(len(pres.generators) * graph.order,
                                    _map_rows(graph, below, pres.generators, fox)).rank
    for n in sorted(state.levels):
        level = state.levels[n]
        image = zg_lattice.Lattice(
            len(level.codomain) * graph.order,
            _map_rows(graph, [s for s, _ in level.basis], level.codomain,
                      level.boundary))
        want = image.ambient - below_rank
        if level.codomain != below:
            detail = "codomain is not the basis of the level below"
        elif not dd_ok[n]:
            detail = "image not in kernel"
        elif image.rank != want:
            detail = f"image rank {image.rank} != kernel rank {want}"
        elif not image.is_saturated():
            detail = "image lattice is not saturated"
        else:
            detail = ""
        add("exactness", n - 1, f"image(delta{n}) vs kernel(delta{n - 1})",
            not detail, detail)
        below, below_rank = [s for s, _ in level.basis], image.rank
    return all(r[3] for r in rows), rows


@pytest.mark.parametrize("path", _REPLAY_STATES,
                         ids=[os.path.basename(p) for p in _REPLAY_STATES])
def test_verify_matches_reference_on_frozen_states(path):
    with open(path) as fh:
        state = import_json(fh.read())
    for seed in (0, 1):
        assert verify_state(state, seed=seed) == _reference_verify(state, seed=seed)


def _reference_exactness(state):
    """The lattice comparison verify_state used to make: each level's
    image lattice against the kernel lattice of the level below, the
    kernel taken from a logged HNF.  One ok flag per level."""
    graph, pres = state.graph, state.presentation
    flags = []
    for n in sorted(state.levels):
        level = state.levels[n]
        image = zg_lattice.Lattice(
            len(level.codomain) * graph.order,
            _map_rows(graph, [s for s, _ in level.basis],
                      level.codomain, level.boundary))
        if n == 3:
            kern = kernel_lattice(graph, list(pres.relator_names()),
                                  list(pres.generators),
                                  fox_matrix_map(pres, graph))
        else:
            lower = state.levels[n - 1]
            kern = kernel_lattice(graph, [s for s, _ in lower.basis],
                                  lower.codomain, lower.boundary)
        flags.append(image == kern)
    return flags


def _double_first(level):
    sym = level.basis[0][0]
    level.boundary[sym] = ModuleElt(
        {s: scaled(r, 2) for s, r in level.boundary[sym].coords.items()})


def _drop_first(level):
    # the boundary of the dropped symbol stays, so dd and the retraction
    # rows still resolve it; only the basis list loses it
    level.basis = level.basis[1:]


def _sum_of_two(level):
    (a, _), (b, _) = level.basis[:2]
    level.boundary[a] = level.boundary[a] + level.boundary[b]


def _change_xi(level):
    tag = level.candidates[0].tag
    level.xi[tag] = level.xi[tag] + unit(level.basis[0][0])


def _change_form(level):
    # the certificate gains the term the form gains, so the retraction row
    # still holds; only the recomputed candidate differs
    sym, cand = level.basis[0][0], level.candidates[-1]
    level.candidates[-1] = Candidate(cand.tag, cand.form + level.boundary[sym],
                                     cand.crossed_form)
    level.xi[cand.tag] = level.xi[cand.tag] + unit(sym)


def _foreign_xi_symbol(level):
    # a copy of the first kept symbol, outside the basis, takes over its
    # certificate; every retraction row still holds
    sym, tag = level.basis[0]
    level.boundary["bogus"] = level.boundary[sym]
    level.xi[tag] = unit("bogus")


def _extra_generator(level):
    # a kept symbol whose boundary is no candidate form, used by no
    # certificate, so every retraction row still holds
    level.basis.append(("bogus", level.candidates[-1].tag))
    level.boundary["bogus"] = unit(level.codomain[0])


def _drop_rejected(level):
    # the last rejected candidate and its xi entry go, so one tag of
    # G x codomain has neither, and import_json would refuse the text
    kept = {tag for _, tag in level.basis}
    cand = [c for c in level.candidates if c.tag not in kept][-1]
    level.candidates.remove(cand)
    del level.xi[cand.tag]


def _change_crossed(level):
    # a commutator of two relators keeps the abelianisation, not the
    # boundary
    r, s = level.codomain[:2]
    cand = level.candidates[0]
    factors = cand.crossed_form.factors + (
        (r, 1, EMPTY), (s, 1, EMPTY), (r, -1, EMPTY), (s, -1, EMPTY))
    level.candidates[0] = Candidate(cand.tag, cand.form, CrossedElt(factors))


def _replace_h1_entry(state):
    # an identity among relations appended to the entry keeps its boundary
    identity = next(c.crossed_form for c in state.levels[3].candidates
                    if c.crossed_form.factors)
    arrow = min(state.h1.entries)
    state.h1.entries[arrow] = CrossedElt(state.h1.entries[arrow].factors
                                         + identity.factors)


def _drop_h1_entry(state):
    # level 3 alone is rebuilt on the h1 that lacks the entry, so its
    # candidates are the recomputed ones, but not all are identities
    del state.h1.entries[min(state.h1.entries)]
    state.levels.clear()
    extend_resolution(state, 3)


def _wrong_h1_entry(state):
    # as above, with one more relator factor on the entry
    arrow, name = min(state.h1.entries), state.presentation.relator_names()[0]
    state.h1.entries[arrow] = CrossedElt(state.h1.entries[arrow].factors
                                         + ((name, 1, EMPTY),))
    state.levels.clear()
    extend_resolution(state, 3)


_EXACTNESS_STATES = {
    "s3-L5": lambda: s3_config(max_level=5),
    "q8-L5": lambda: RunConfig(presentation=data_path("q8.pres"), max_level=5),
    "sl23-L5": lambda: RunConfig(presentation=data_path("sl23.pres"),
                                 max_level=5, h1=data_path("sl23.h1")),
}


@pytest.mark.parametrize("name", sorted(_EXACTNESS_STATES))
def test_exactness_matches_kernel_reference(name):
    """The rank-and-saturation exactness check agrees with the old
    image == kernel_lattice comparison, row by row, on every level of a
    built state and on faulty copies of it.  At each level in turn: the
    first boundary doubled, the first basis entry dropped (the codomain
    above then names a symbol the basis lacks), and the first boundary
    replaced by the sum of the first two.  At the top level, doubling the
    first generator keeps dd = 0, so only saturation can fail there.  The
    overall verdict is the one the old check gives with the same other
    rows, every condition is seen to fail at least once, and all rows are
    those of the direct-way reference."""
    text = export_json(build_state(_EXACTNESS_STATES[name]()))
    top = max(import_json(text).levels)
    cases = [(None, None)] + [(n, fault) for n in range(3, top + 1)
                              for fault in (_double_first, _drop_first,
                                            _sum_of_two)]
    details = set()
    for n, fault in cases:
        state = import_json(text)
        if fault is not None:
            fault(state.levels[n])
        ok, rows = verify_state(state, samples=2)
        assert (ok, rows) == _reference_verify(state, samples=2), (n, fault)
        exact = [r for r in rows if r[0] == "exactness"]
        reference = _reference_exactness(state)
        assert [r[3] for r in exact] == reference, (n, fault, exact)
        others = all(r[3] for r in rows if r[0] != "exactness")
        assert ok == (others and all(reference)), (n, fault)
        details.update(r[4] for r in exact if not r[3])
        if n == top and fault is _double_first and not exact[-1][3]:
            assert exact[-1][4] == "image lattice is not saturated"
    prefixes = ("codomain is not", "image not in kernel", "image rank",
                "image lattice is not saturated")
    assert {p for p in prefixes for d in details if d.startswith(p)} \
        == set(prefixes)


@functools.lru_cache(maxsize=None)
def _built_text(name):
    """state.json text of a build of `_EXACTNESS_STATES[name]`, or of the
    S3 fixture pipeline (order file and pins) for "s3-L4"."""
    config = s3_config() if name == "s3-L4" else _EXACTNESS_STATES[name]()
    return export_json(build_state(config))


@pytest.mark.parametrize("name", sorted(_EXACTNESS_STATES))
def test_verify_falls_back_to_the_direct_checks_on_faulty_states(
        name, monkeypatch):
    """Each fault breaks one premise of verify_state's homotopy proof: a
    changed xi entry, a candidate form changed with its certificate, an
    xi value on a symbol outside the basis, an extra kept symbol (at every
    level), a level-3 crossed form changed, a rejected level-4 candidate
    dropped with its xi entry, an h1 entry replaced by one
    with the same boundary, and one deleted or given a wrong boundary
    with level 3 alone rebuilt on the result.  Then the direct checks run
    (a Lattice is built), and the rows are those of the direct-way
    reference."""
    text = _built_text(name)
    top = max(import_json(text).levels)
    cases = [(n, fault) for n in range(3, top + 1)
             for fault in (_change_xi, _change_form, _foreign_xi_symbol,
                           _extra_generator)]
    cases += [(3, _change_crossed), (4, _drop_rejected),
              (None, _replace_h1_entry), (None, _drop_h1_entry),
              (None, _wrong_h1_entry)]
    built = []
    init = zg_lattice.Lattice.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(zg_lattice.Lattice, "__init__", counted)
    for n, fault in cases:
        state = import_json(text)
        fault(state if n is None else state.levels[n])
        del built[:]
        ok, rows = verify_state(state, samples=2)
        assert built, (n, fault)
        assert (ok, rows) == _reference_verify(state, samples=2), (n, fault)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_verify_checks_every_arrow(data):
    """One h1 fault at an arrow drawn from the whole grid, not only at the
    first entry: a non-tree entry deleted, an identity among relations
    appended to an entry, or a trivial or identity-valued entry put on a
    tree arrow.  Level 3 alone is then rebuilt on the faulty h1 or not, so
    the fault is seen by the arrow walk alone or by the candidates too.
    verify_state then gives the rows of the direct-way reference."""
    name = data.draw(st.sampled_from(["s3-L4"] + sorted(_EXACTNESS_STATES)))
    state = import_json(_built_text(name))
    entries = state.h1.entries
    identities = [c.crossed_form for c in state.levels[3].candidates
                  if c.crossed_form.factors]
    kind = data.draw(st.sampled_from(["drop", "append", "tree"]))
    if kind == "tree":
        arrow = data.draw(st.sampled_from(sorted(state.tree.edges)))
        entries[arrow] = data.draw(st.sampled_from([CrossedElt()] + identities))
    else:
        arrow = data.draw(st.sampled_from(sorted(entries)))
        if kind == "drop":
            del entries[arrow]
        else:
            identity = data.draw(st.sampled_from(identities))
            entries[arrow] = CrossedElt(entries[arrow].factors + identity.factors)
    if data.draw(st.booleans()):
        state.levels.clear()
        extend_resolution(state, 3)
    assert verify_state(state, samples=2) == _reference_verify(state, samples=2)


@pytest.mark.parametrize("name", ["s3-L4"] + sorted(_EXACTNESS_STATES))
def test_verify_proves_clean_states_without_a_lattice(name, monkeypatch):
    """On a clean state the homotopy proves exactness: no Lattice and no
    Fox matrix is built, and the rows are still those of the direct-way
    reference."""
    state = import_json(_built_text(name))
    want = _reference_verify(state, samples=2)

    def refuse(*args):
        raise AssertionError("verify_state built a Lattice or delta_2")

    monkeypatch.setattr(zg_lattice.Lattice, "__init__", refuse)
    monkeypatch.setattr(syzygy_engine, "fox_matrix_map", refuse)
    assert verify_state(state, samples=2) == want
    assert want[0]


@pytest.mark.parametrize("name", sorted(_EXACTNESS_STATES))
def test_next_candidates_is_the_unit_minus_the_homotopy(name):
    """The one-map form of next_candidates is e_b.g^-1 - h(g, delta b), at
    every level, the top one included."""
    state = import_json(_built_text(name))
    graph = state.graph
    for m, level in sorted(state.levels.items()):
        want = [Candidate((g, sym), unit(sym, graph.inv_elt(g)) - homotopy_eval(
                    graph, level.xi, g, level.boundary[sym]), None)
                for g in range(graph.order) for sym, _ in level.basis]
        assert next_candidates(state, m) == want, m


def _two_reduction_delta3(state, g, rname):
    """delta3 as h1_eval reduces h1(g, omega_r), then inverted and joined
    to the relator factor, which reduces it again."""
    lift = h1_eval(state.h1, g, state.presentation.relator_word(rname))
    return CrossedElt([(r, -e, u) for r, e, u in reversed(lift.factors)]
                      + [(rname, 1, state.contraction.sigma_bar(g))])


@pytest.mark.parametrize("path", [None] + _REPLAY_STATES,
                         ids=["s3-L4"] + [os.path.basename(p) for p in _REPLAY_STATES])
def test_delta3_matches_the_two_reduction_reference(path, s3_state):
    """compute_delta3 reduces its factor list once; free reduction is
    confluent, so every (g, r) gives the two-reduction factors."""
    state = s3_state if path is None else import_json(open(path).read())
    for g in range(state.graph.order):
        for rname in state.presentation.relator_names():
            assert compute_delta3(state, g, rname) \
                == _two_reduction_delta3(state, g, rname), (g, rname)


def _faulty_candidate(data, state, n):
    """(index, Candidate) of level n with one fault drawn: a form
    coefficient set to zero or moved by 1, a term on a codomain symbol the
    form lacks, or (level 3) one factor of the crossed form changed."""
    level, graph = state.levels[n], state.graph
    kind = data.draw(st.sampled_from(["coefficient", "symbol"]
                                     + (["factor"] if n == 3 else [])))
    if kind == "coefficient":
        pool = [i for i, c in enumerate(level.candidates) if c.form]
    elif kind == "symbol":
        pool = [i for i, c in enumerate(level.candidates)
                if set(level.codomain) - c.form.coords.keys()]
    else:
        pool = [i for i, c in enumerate(level.candidates) if c.crossed_form.factors]
    assume(pool)
    i = data.draw(st.sampled_from(pool))
    cand = level.candidates[i]
    form, crossed = cand.form, cand.crossed_form
    if kind == "coefficient":
        coords = {s: dict(ring.coeffs) for s, ring in form.coords.items()}
        s, g = data.draw(st.sampled_from(sorted((s, g) for s, row in coords.items()
                                                for g in row)))
        change = data.draw(st.sampled_from([None, 1, -1]))
        coords[s][g] = 0 if change is None else coords[s][g] + change
        form = ModuleElt({s: GroupRingElt(row) for s, row in coords.items()})
    elif kind == "symbol":
        s = data.draw(st.sampled_from(sorted(set(level.codomain) - form.coords.keys())))
        form = form + unit(s, data.draw(st.integers(0, graph.order - 1)),
                           data.draw(st.sampled_from([1, -1])))
    else:
        factors = list(crossed.factors)
        j = data.draw(st.integers(0, len(factors) - 1))
        name, sign, u = factors[j]
        others = [r for r in level.codomain if r != name]
        change = data.draw(st.sampled_from(["sign", "conjugator"]
                                           + (["relator"] if others else [])))
        if change == "sign":
            factors[j] = (name, -sign, u)
        elif change == "conjugator":
            factors[j] = (name, sign, u * word(data.draw(st.sampled_from(graph.gens))))
        else:
            factors[j] = (data.draw(st.sampled_from(others)), sign, u)
        crossed = CrossedElt(factors)
    return i, Candidate(cand.tag, form, crossed)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_verify_refuses_an_injected_candidate_fault(data):
    """One fault in a stored candidate of the S3 L4, Q8 L5 or SL(2,3) L5
    state, drawn by `_faulty_candidate`, breaks a premise of the homotopy
    proof, and verify_state then gives the rows of the direct-way
    reference."""
    name = data.draw(st.sampled_from(["s3-L4", "q8-L5", "sl23-L5"]))
    state = import_json(_built_text(name))
    n = data.draw(st.sampled_from(sorted(state.levels)))
    i, cand = _faulty_candidate(data, state, n)
    state.levels[n].candidates[i] = cand
    assert not syzygy_engine._homotopy_premises(state)
    assert verify_state(state, samples=2) == _reference_verify(state, samples=2)


def test_missing_level_is_a_failed_row():
    """A state with a middle level deleted verifies to failed rows: the
    level above has no boundaries to map into, and its codomain is not
    the basis of the level below."""
    state = import_json(export_json(build_state(
        RunConfig(presentation=data_path("q8.pres"), max_level=5))))
    del state.levels[4]
    ok, rows = verify_state(state, samples=2)
    assert not ok
    failed = [r for r in rows if not r[3]]
    assert {(r[0], r[1], r[4]) for r in failed} == {
        ("dd", 5, "level 4 is missing"),
        ("exactness", 4, "codomain is not the basis of the level below")}
    assert len(failed) == 1 + len(state.levels[5].basis)


@pytest.mark.parametrize("n", [3, 4])
def test_codomain_without_a_used_symbol_is_a_failed_row(s3_state, n):
    """A level whose stored codomain lacks a symbol its forms use fails
    only its exactness row, with the codomain named; the level above
    still pushes its boundaries through this level's map exactly."""
    state = import_json(export_json(s3_state))
    state.levels[n].codomain = state.levels[n].codomain[1:]
    ok, rows = verify_state(state, samples=2)
    assert not ok
    assert [r for r in rows if not r[3]] == [
        ("exactness", n - 1, f"image(delta{n}) vs kernel(delta{n - 1})", False,
         "codomain is not the basis of the level below")]


def test_boundary_outside_a_matching_codomain_is_a_failed_row(s3_state):
    """Level 3 loses its first kept generator and level 4's codomain is
    cut to match, so level 4's boundaries use a symbol outside a codomain
    that is the basis below: that level's exactness row names it."""
    state = import_json(export_json(s3_state))
    lv3, lv4 = state.levels[3], state.levels[4]
    lv3.basis = lv3.basis[1:]
    lv4.codomain = [s for s, _ in lv3.basis]
    ok, rows = verify_state(state, samples=2)
    assert not ok
    assert [r[4] for r in rows if not r[3] and r[1] == 3] == [
        "a boundary uses a symbol outside the codomain"]
