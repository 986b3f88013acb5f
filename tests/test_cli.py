import json
import os
import subprocess
import sys

import pytest

import crossres
import crossres.cli as cli
from crossres import (InputError, RunConfig, build_state, main,
                      parse_order_file, parse_presentation, run)
from conftest import data_path, s3_config


class TestParsePresentation:
    def test_fixture(self):
        with open(data_path("s3.pres")) as fh:
            pres = parse_presentation(fh.read(), "s3.pres")
        assert pres.generators == ("x", "y")
        assert list(pres.relator_names()) == ["r", "s", "t"]
        assert pres.relator_word("r").render() == "x^3"

    def test_comments_and_blanks(self):
        pres = parse_presentation("# c\n\ngens: a\n rel r = a^2 # tail\n")
        assert pres.generators == ("a",)
        assert pres.relator_word("r").render() == "a^2"

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("rel r = x\ngens: x\n", 1, "must come first"),
        ("gens: x\ngens: x\n", 2, "duplicate `gens:`"),
        ("gens:\nrel r = x\n", 1, "names no generators"),
        ("gens: x\nrelator r = x\n", 2, "expected"),
        ("gens: x\nrel r x\n", 2, "expected `rel <name> = <word>`"),
        ("gens: x\nrel r extra = x\n", 2, "expected `rel <name> = <word>`"),
        ("gens: x\nrel r = x^\n", 2, "malformed word token"),
        ("gens: x\nrel r = y\n", 2, "unknown generator"),
        ("gens: x\nrel r = 1\n", 2, "is empty"),
        ("gens: x\nrel r = x^0\n", 2, "is empty"),
        ("gens: x\nrel r = x x^-1 x\n", 2, "not freely reduced"),
        ("gens: x\nrel r = x^3\nrel r = x^2\n", 3, "duplicate relator"),
    ])
    def test_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(InputError) as err:
            parse_presentation(text, "f.pres")
        message = str(err.value)
        assert fragment in message
        assert f"f.pres:{lineno}" in message or message.startswith("f.pres:")

    def test_missing_gens(self):
        with pytest.raises(InputError, match="missing `gens:`"):
            parse_presentation("# nothing\n")

    def test_presentation_level_error_wrapped(self):
        with pytest.raises(InputError):
            parse_presentation("gens: x x\nrel r = x^2\n")


class TestParseOrderFile:
    def test_fixture(self, s3_graph):
        explicit, overrides = parse_order_file(data_path("s3.order"), s3_graph)
        assert sorted(explicit) == [3, 4]
        assert len(explicit[3]) == 18
        assert explicit[3][0] == (2, "r")
        assert explicit[4][0] == (2, "b3_1")
        assert sorted(overrides) == [3]
        pins = overrides[3]
        assert len(pins) == 8
        assert pins[(1, "r")] == [(-1, "b3_1", s3_graph.word_rep[2])]
        two_term = pins[(5, "t")]
        assert [(c, sym) for c, sym, _ in two_term] \
            == [(1, "b3_4"), (1, "b3_3")]

    @pytest.mark.parametrize("body,fragment", [
        ("x r\n", "outside any section"),
        ("[level 3\nx r\n", "malformed section header"),
        ("[stage 3]\n", "expected `[level N]` or `[xi N]`"),
        ("[level three]\n", "bad level number"),
        ("[level 2]\n", "levels start at 3"),
        ("[level 3]\n[level 3]\n", "duplicate [level 3]"),
        ("[level 3]\nr\n", "expected `<element-word> <name>`"),
        ("[level 3]\nz^5 r\n", "unknown generator"),
        ("[level 3]\nx r\nx r\n", "duplicate tag"),
        ("[xi 3]\nx r\n", "expected `<element-word> <name> :="),
        ("[xi 3]\nx r := \n", "empty certificate pin"),
        ("[xi 3]\nx r := b3_1\n", "expected `@ <element-word>`"),
        ("[xi 3]\nx r := b3_1 @\n", "missing element word"),
        ("[xi 3]\nx r := +\n", "empty certificate pin"),
        ("[xi 3]\nx r := 2\n", "dangling term"),
        ("[xi 3]\nx r := b3_1 @ x\nx r := b3_1 @ x\n", "duplicate certificate"),
    ])
    def test_errors(self, s3_graph, tmp_path, body, fragment):
        path = tmp_path / "bad.order"
        path.write_text(body)
        with pytest.raises(InputError) as err:
            parse_order_file(str(path), s3_graph)
        assert fragment in str(err.value)

    def test_pin_with_attached_at_sign(self, s3_graph, tmp_path):
        path = tmp_path / "pin.order"
        path.write_text("[xi 3]\nx r := -2 b3_1@x^2 + b3_2 @ y x\n")
        _, overrides = parse_order_file(str(path), s3_graph)
        terms = overrides[3][(1, "r")]
        assert [(c, sym, w.render()) for c, sym, w in terms] \
            == [(-2, "b3_1", "x^2"), (1, "b3_2", "y x")]


class TestBuildState:
    def test_defaults(self):
        state = build_state(RunConfig(presentation=data_path("s3.pres")))
        assert sorted(state.levels) == [3]
        assert len(state.levels[3].basis) == 4

    def test_max_level_validation(self):
        with pytest.raises(InputError, match="max-level"):
            build_state(RunConfig(presentation=data_path("s3.pres"),
                                  max_level=2))

    def test_missing_file(self):
        with pytest.raises(InputError):
            build_state(RunConfig(presentation=data_path("nope.pres")))


class TestMain:
    def test_table_output(self, capsys):
        code = main([data_path("s3.pres"), "--max-level", "4",
                     "--tree", data_path("s3.tree"),
                     "--h1", data_path("s3.h1"),
                     "--order", data_path("s3.order"), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[x^2, r]" in out
        assert "kept as b3_1" in out
        assert "ok   dd:" in out

    def test_json_output(self, capsys):
        code = main([data_path("c4.pres"), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "crossres-state/1"
        assert data["group"]["order"] == "4"

    def test_out_dir(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main([data_path("c4.pres"), "--max-level", "4", "--verify",
                     "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["state.json", "tables.txt", "verify.txt"]
        assert "kept as b3_1" in (out / "tables.txt").read_text()

    def test_error_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.pres"
        bad.write_text("gens: x\nrel r = x^\n")
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.pres:2" in err
        assert main([str(tmp_path / "missing.pres")]) == 2
        bad.write_bytes(b"gens: x\n\xff\n")  # not UTF-8
        assert main([str(bad)]) == 2
        assert f"error: {bad}:" in capsys.readouterr().err
        assert main([data_path("s3.pres"), "--max-level", "1"]) == 2
        assert main([data_path("s3.pres"), "--max-cosets", "2"]) == 2

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "verify_state",
            lambda state: (False, [("dd", 3, "b3_1", False, "injected")]))
        code = main([data_path("c4.pres"), "--verify"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL dd" in out and "injected" in out

    def test_bad_flag_value(self):
        with pytest.raises(SystemExit) as err:
            main([data_path("c4.pres"), "--format", "xml"])
        assert err.value.code == 2

    def test_cross_process_determinism(self):
        # The child runs from "/", so it gets an absolute path to the
        # package under test, ahead of the inherited entries made absolute.
        package_root = os.path.dirname(os.path.dirname(crossres.__file__))
        inherited = [os.path.abspath(entry) for entry in
                     os.environ.get("PYTHONPATH", "").split(os.pathsep)
                     if entry]
        pythonpath = os.pathsep.join([package_root] + inherited)
        args = [sys.executable, "-m", "crossres", data_path("s3.pres"),
                "--max-level", "4", "--tree", data_path("s3.tree"),
                "--h1", data_path("s3.h1"), "--order", data_path("s3.order"),
                "--format", "json"]
        outputs = []
        for seed in ("1", "12345"):
            env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=seed)
            proc = subprocess.run(args, capture_output=True, text=True,
                                  env=env, cwd="/")
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == "", proc.stderr
            outputs.append(proc.stdout)
        first, second = outputs
        assert first and first == second
