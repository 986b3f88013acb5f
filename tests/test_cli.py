import functools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import crossres
import crossres.cli as cli
from crossres import (FillError, InputError, RunConfig, build_state,
                      export_json, import_json, main, verify_state)
from crossres.inputs import (_parse_pin_terms, parse_order_file,
                             parse_presentation)
from crossres.words import parse_word
from conftest import data_path, s3_config

_gap = st.sampled_from(["", " ", "  ", "\t"])
_space = st.sampled_from([" ", "  ", "\t", " \t "])
_element_words = st.lists(st.sampled_from(["x", "x^-1", "y", "y^-1"]),
                          max_size=5).map(lambda ts: parse_word(" ".join(ts)))


@st.composite
def pin_texts(draw):
    """(text, terms) of a certificate pin of 1-4 terms.  Each term is
    written with its sign (or none, first and positive), an optional
    multiplier, its symbol, `@` with or without a space on either side,
    its element word, and one or more spaces between the tokens."""
    text, terms = "", []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([1, -1]))
        mult = draw(st.none() | st.integers(-20, 20))
        sym = draw(st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True))
        w = draw(_element_words)
        tokens = ["-" if sign < 0 else "+" if k or draw(st.booleans()) else "",
                  "" if mult is None else str(mult),
                  sym + draw(_gap) + "@" + draw(_gap) + w.render()]
        text += "".join(draw(_space) + tok for tok in tokens if tok)
        terms.append((sign * (1 if mult is None else mult), sym, w))
    return text + draw(_gap), terms


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
        ("gens: x\nrel r = x ^2\n", 2, "malformed word token '^2'"),
        ("gens: x\nrel r = x 1^2\n", 2, "malformed word token '1^2'"),
        ("gens: x\nrel r = y\n", 2, "unknown generator"),
        ("gens: x\nrel r = 1\n", 2, "is empty"),
        ("gens: x\nrel r = x^0\n", 2, "is empty"),
        ("gens: x\nrel r = x x^-1 x\n", 2, "not freely reduced"),
        ("gens: x\nrel r = x^3\nrel r = x^2\n", 3, "duplicate relator"),
        ("gens: x x\nrel r = x^2\n", 1, "duplicate generator name 'x'"),
        ("gens: x y@\nrel r = x^2\n", 1, "invalid generator name 'y@'"),
        ("gens: x\nrel a@b = x^3\n", 2, "invalid relator name 'a@b'"),
    ])
    def test_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(InputError) as err:
            parse_presentation(text, "f.pres")
        message = str(err.value)
        assert fragment in message
        assert message.startswith(f"f.pres:{lineno}: ")

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
        ("[xi 3]\nx r := @x\n", "missing symbol"),
        ("[xi 3]\nx r := +\n", "empty certificate pin"),
        ("[xi 3]\nx r := 2\n", "dangling term"),
        ("[xi 3]\nx r := b3_1 @ x\nx r := b3_1 @ x\n", "duplicate certificate"),
        # a sign token right after a multiplier is no symbol
        ("[xi 3]\n1 r := 2 + @x\n", "dangling term"),
        ("[xi 3]\nx r := -3 - b3_1 @ 1\n", "dangling term"),
        ("[xi 3]\nx r := 0 -\n", "dangling term"),
    ])
    def test_errors(self, s3_graph, tmp_path, body, fragment):
        path = tmp_path / "bad.order"
        path.write_text(body)
        with pytest.raises(InputError) as err:
            parse_order_file(str(path), s3_graph)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("pin", [
        "b3_1 @ x +",
        "b3_1 @ x - b3_2 @ y -",
        "- + b3_1 @ x",
        "- - b3_1 @ x",
        "b3_1 @ x + - b3_2 @ y",
        "- -",
    ])
    def test_dangling_sign_refused_at_its_line(self, s3_graph, tmp_path, pin):
        """A sign signs the one term after it: a trailing sign or a run of
        signs is refused at the pin's line, not read as a sign."""
        path = tmp_path / "bad.order"
        path.write_text(f"[xi 3]\nx r := {pin}\n")
        with pytest.raises(InputError) as err:
            parse_order_file(str(path), s3_graph)
        assert str(err.value) == f"{path}:2: dangling sign in certificate pin"

    def test_pin_with_attached_at_sign(self, s3_graph, tmp_path):
        path = tmp_path / "pin.order"
        path.write_text("[xi 3]\nx r := -2 b3_1@x^2 + b3_2 @ y x\n")
        _, overrides = parse_order_file(str(path), s3_graph)
        terms = overrides[3][(1, "r")]
        assert [(c, sym, w.render()) for c, sym, w in terms] \
            == [(-2, "b3_1", "x^2"), (1, "b3_2", "y x")]

    @given(pin_texts())
    def test_pin_reader_returns_the_written_terms(self, s3_graph, pin):
        text, terms = pin
        assert _parse_pin_terms(text, s3_graph, "pin") == terms


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


# (id, generators, relators, group order) of small presentations with
# known orders.
_FAMILIES = (
    [(f"C{n}", "x", [f"x^{n}"], n) for n in range(1, 7)]
    + [(f"D{n}", "x y", [f"x^{n}", "y^2", "x y x y"], 2 * n) for n in range(2, 7)]
    + [("T233", "x y", ["x^2", "y^3", "x y x y x y"], 12),
       ("T234", "x y", ["x^2", "y^3", "x y x y x y x y"], 24),
       ("trivial-two-gens", "x y", ["x", "y"], 1),
       ("C2-redundant", "x", ["x^2", "x^4"], 2)]
    + [(f"C{m}xC{n}", "x y", [f"x^{m}", f"y^{n}", "x y x^-1 y^-1"], m * n)
       for m, n in ((2, 2), (2, 3), (3, 3), (4, 2))])


@pytest.mark.parametrize("gens, rels, order", [f[1:] for f in _FAMILIES],
                         ids=[f[0] for f in _FAMILIES])
@pytest.mark.parametrize("level", [3, 4])
def test_presentation_families_have_two_outcomes(tmp_path, gens, rels, order,
                                                 level):
    """Under the CLI defaults a presentation either builds a state that
    verifies and survives export -> import -> export byte for byte, or
    fails in the h1 search naming the edge and the node budget."""
    pres = tmp_path / "g.pres"
    pres.write_text(f"gens: {gens}\n" + "".join(
        f"rel r{i} = {w}\n" for i, w in enumerate(rels)))
    try:
        state = build_state(RunConfig(presentation=str(pres), max_level=level))
    except FillError as exc:
        assert re.fullmatch(r"h1 search failed at edge \(.+\): .* "
                            r"\(node_budget=200000\)", str(exc)), str(exc)
        return
    assert state.graph.order == order
    assert verify_state(state)[0]
    text = export_json(state)
    again = import_json(text)
    assert verify_state(again)[0]
    assert export_json(again) == text


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

    def test_relator_name_with_at_sign(self, tmp_path, capsys):
        """`@` ends the relator name of a stored factor, so a relator name
        holding it is refused before anything is built or written."""
        pres = tmp_path / "at.pres"
        pres.write_text("gens: x\nrel a@b = x^3\n")
        assert main([str(pres), "--verify", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == f"error: {pres}:2: invalid relator name 'a@b'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("level, body, line, text", [
        (3, "[level 3]\n1 q\n", 2, "unknown tag in order file: (1, q)"),
        # b3_5 is not kept at level 3, so (y, b3_5) is no level-4 candidate
        (4, "[level 3]\nx r\n[level 4]\n1 b3_1\ny b3_5\n", 5,
         "unknown tag in order file: (y, b3_5)"),
    ])
    def test_order_file_refusal_names_the_line(self, tmp_path, capsys,
                                               level, body, line, text):
        order = tmp_path / "bad.order"
        order.write_text(body)
        assert main([data_path("s3.pres"), "--max-level", str(level),
                     "--order", str(order)]) == 2
        assert capsys.readouterr().err == f"error: {order}:{line}: {text}\n"

    @pytest.mark.parametrize("pin, text", [
        # in declared order (x, r) is kept, so its pin is refused
        ("x r := b3_1 @ 1",
         "certificate pins for tags that are not rejected at level 3: (x, r)"),
        ("x^2 r := b3_9 @ 1",
         "certificate pin for (x^2, r) references 'b3_9', which was not "
         "accepted at this level"),
    ])
    def test_pin_refusal_names_the_line(self, tmp_path, capsys, pin, text):
        order = tmp_path / "pin.order"
        order.write_text(f"[xi 3]\n{pin}\n")
        assert main([data_path("s3.pres"), "--max-level", "3",
                     "--order", str(order)]) == 2
        assert capsys.readouterr().err == f"error: {order}:2: {text}\n"

    def test_defaults_come_from_run_config(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        path = data_path("s3.pres")
        assert main([path]) == 0
        assert main([path, "--verify"]) == 0
        assert seen == [RunConfig(presentation=path),
                        RunConfig(presentation=path, verify=True)]

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


# Texts that are not integers by words.read_int: an underscore, a plus
# sign, a leading zero, minus zero, an Arabic-Indic and a full-width digit,
# and nothing (which makes a power the empty power `x^`).
_NOT_INTS = ["1_0", "+2", "02", "-0", "٢", "３", ""]
_S3 = [data_path("s3.pres"), "--tree", data_path("s3.tree"),
       "--h1", data_path("s3.h1")]


def _token(t):
    return f"malformed word token {'x^' + t!r}"


def _section(t):
    return "bad level number" if t else "expected `[level N]` or `[xi N]`"


# reader -> (file text with {} for the integer, its line, the CLI arguments
# with FILE for the file, the refusal's text after `path:line: `)
_FILE_READERS = {
    "presentation power": ("gens: x\nrel r = x^{}\n", 2, ["FILE"], _token),
    "tree element word": ("x^{} x\n", 1, _S3[:1] + ["--tree", "FILE"], _token),
    "h1 conjugator": ("x x := r^+1@x^{}\n", 1, _S3[:3] + ["--h1", "FILE"],
                      _token),
    "order tag element word": ("[level 3]\nx^{} r\n", 2,
                               _S3 + ["--order", "FILE"], _token),
    "order level number": ("[level {}]\n", 1, _S3 + ["--order", "FILE"],
                           _section),
    "order xi number": ("[xi {}]\n", 1, _S3 + ["--order", "FILE"], _section),
    "pin multiplier": ("[xi 3]\nx^2 r := {} b3_1 @ 1\n", 2,
                       _S3 + ["--order", "FILE"],
                       lambda t: f"expected `@ <element-word>` after {t!r}"),
    "pin element word": ("[xi 3]\nx^2 r := b3_1 @ x^{}\n", 2,
                         _S3 + ["--order", "FILE"], _token),
}


@functools.lru_cache(maxsize=None)
def _c4_l4_text():
    return export_json(build_state(
        RunConfig(presentation=data_path("c4.pres"), max_level=4)))


def _set_relator(doc, t):
    doc["presentation"]["relators"][0][1] = f"x^{t}"
    return f"presentation: {_token(t)}"


def _set_conjugator(doc, t):
    doc["h1"]["x^3 x"] = f"r^+1@x^{t}"
    return f"state: h1 key 'x^3 x': {_token(t)}"


def _set_tag(doc, t):
    xi = doc["levels"]["4"]["xi"]
    xi[f"x^{t} b3_1"] = xi.pop("x b3_1")
    return f"level 4: xi key {f'x^{t} b3_1'!r}: {_token(t)}"


def _set_order(doc, t):
    doc["group"]["order"] = t
    return f"group: order {t!r} is not the order 4 of the presentation's group"


def _set_level_key(doc, t):
    doc["levels"][t] = doc["levels"].pop("4")
    return f"levels: key {t!r} is not a level number n >= 3"


def _set_coefficient(doc, t):
    doc["levels"]["4"]["xi"]["x b3_1"]["b4_1"]["1"] = t
    return (f"level 4: xi key 'x b3_1': a ring of b4_1: coefficient {t!r} "
            f"is not a nonzero integer written as export_json writes it")


# reader -> edit of a C4 L4 state.json document that puts the integer in,
# returning import_json's refusal
_STATE_READERS = {
    "state relator": _set_relator,
    "state conjugator": _set_conjugator,
    "state tag element word": _set_tag,
    "state group order": _set_order,
    "state levels key": _set_level_key,
    "state coefficient": _set_coefficient,
}
_OPTIONS = ["--max-level", "--max-depth", "--max-cosets"]


@pytest.mark.parametrize("reader, text", [
    (reader, t)
    for reader in [*_FILE_READERS, *_STATE_READERS, *_OPTIONS]
    for t in _NOT_INTS
    # an empty multiplier is no multiplier: `b3_1 @ 1` is a pin
    if (reader, t) != ("pin multiplier", "")])
def test_every_reader_refuses_what_is_not_an_integer(tmp_path, capsys, reader,
                                                     text):
    """Every integer the program reads, in a word's power, a pin, a section
    header, a state.json group order, key or coefficient, or a CLI count,
    is read by one rule, and each text outside it is refused naming its
    `path:line`, its place in state.json or its option."""
    if reader in _STATE_READERS:
        doc = json.loads(_c4_l4_text())
        want = _STATE_READERS[reader](doc, text)
        with pytest.raises(ValueError) as err:
            import_json(json.dumps(doc))
        assert str(err.value) == want
        return
    if reader in _OPTIONS:
        args = [data_path("c4.pres"), reader, text]
        want = (f"crossres: error: argument {reader}: {text!r} is not a "
                f"decimal integer")
    else:
        template, line, args, message = _FILE_READERS[reader]
        path = tmp_path / "input"
        path.write_text(template.format(text))
        args = [str(path) if a == "FILE" else a for a in args]
        want = f"error: {path}:{line}: {message(text)}"
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == want


def test_package_root_exports_the_documented_api():
    assert sorted(crossres.__all__) == sorted([
        "RunConfig", "build_state", "run", "main", "export_json",
        "import_json", "verify_state", "render_tables", "InputError",
        "FillError"])
    for name in crossres.__all__:
        assert callable(getattr(crossres, name)), name


def test_readme_library_snippet(monkeypatch, capsys):
    """The README's Library example runs as written, from the repository
    root: S3 at level 4 in automatic mode."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Library", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    scope: dict = {}
    exec(snippet, scope)
    level3 = scope["level3"]
    assert level3.basis and level3.xi[(2, "r")] is not None
    assert scope["ok"], [r for r in scope["rows"] if not r[3]]
    out = capsys.readouterr().out
    assert '"schema": "crossres-state/1"' in out
