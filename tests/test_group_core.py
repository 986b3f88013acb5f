import pytest

from crossres import (CayleyGraph, Contraction0, EnumerationOverflow,
                      GroupRingElt, MaximalTree, Presentation,
                      PresentationError, TreeError, bfs_tree,
                      enumerate_presentation, load_table, parse_word,
                      parse_presentation, render_zg, tree_from_file, word)
from conftest import assert_input_errors, data_path


def cyclic(r):
    return Presentation(["x"], [("r", word("x") ** r)])


class TestPresentation:
    def test_accessors(self, s3_presentation):
        assert s3_presentation.generators == ("x", "y")
        assert list(s3_presentation.relator_names()) == ["r", "s", "t"]
        assert s3_presentation.relator_word("t").render() == "x y x y"
        with pytest.raises(KeyError):
            s3_presentation.relator_word("missing")

    def test_validation(self):
        with pytest.raises(PresentationError):
            Presentation(["x", "x"], [("r", word("x"))])
        with pytest.raises(PresentationError):
            Presentation(["x"], [("r", word("x")), ("r", word("x") ** 2)])
        with pytest.raises(PresentationError):
            Presentation(["x"], [("r", parse_word("1"))])
        with pytest.raises(PresentationError):
            Presentation(["x"], [("r", word("y"))])
        with pytest.raises(PresentationError):
            Presentation(["x^"], [("r", word("x^"))])


class TestEnumeration:
    def test_s3(self, s3_graph):
        assert s3_graph.order == 6
        assert [s3_graph.elt_name(g) for g in range(6)] \
            == ["1", "x", "x^2", "y", "x y", "y x"]
        assert s3_graph.gens == ("x", "y")
        assert s3_graph.gen_index("y") == 1

    def test_word_rep_shortlex(self, s3_graph):
        # representatives are shortest words, ties broken by generator order
        for g in range(s3_graph.order):
            w = s3_graph.word_rep[g]
            assert s3_graph.eval_word(w, 0) == g

    def test_multiplication(self, s3_graph):
        x, y = 1, 3
        assert s3_graph.mult(x, y) == s3_graph.phi(parse_word("x y"))
        assert s3_graph.mult(y, x) == s3_graph.phi(parse_word("y x"))
        for g in range(6):
            assert s3_graph.mult(g, s3_graph.inv_elt(g)) == 0
        assert s3_graph.apply(0, s3_graph.gen_index("x"), 1) == 1
        assert s3_graph.letter_elt("y", -1) == s3_graph.inv_elt(3)
        assert s3_graph.elt_by_name("x y") == 4

    @pytest.mark.parametrize("name", ["s3.pres", "q8.pres", "c4.pres"])
    def test_mult_matches_its_definition(self, name):
        # a fresh graph, so every right-multiplication column starts empty
        with open(data_path(name)) as fh:
            graph = enumerate_presentation(parse_presentation(fh.read(), name))
        n = graph.order
        for b in range(n):
            want = [graph.eval_word(graph.word_rep[b], a) for a in range(n)]
            assert graph._right[b] is None
            assert [graph.mult(a, b) for a in range(n)] == want
            assert graph._right[b] is not None
            assert [graph.mult(a, b) for a in range(n)] == want

    def test_relators_act_trivially(self, s3_graph, s3_presentation):
        for _, w in s3_presentation.relators:
            for g in range(s3_graph.order):
                assert s3_graph.eval_word(w, g) == g

    def test_cyclic_orders(self):
        for r in range(2, 9):
            assert enumerate_presentation(cyclic(r)).order == r

    def test_overflow(self):
        pres = Presentation(["x", "y"],
                            [("r", parse_word("x^3")), ("s", parse_word("y^2")),
                             ("t", parse_word("x y x y"))])
        with pytest.raises(EnumerationOverflow):
            enumerate_presentation(pres, max_cosets=3)


def _graph_of(name):
    with open(data_path(name)) as fh:
        return enumerate_presentation(parse_presentation(fh.read(), name))


class TestElementNames:
    @pytest.mark.parametrize("name", ["s3.pres", "q8.pres", "c4.pres"])
    def test_canonical_names_round_trip(self, name):
        graph = _graph_of(name)
        names = [graph.elt_name(g) for g in range(graph.order)]
        assert names == [graph.word_rep[g].render() for g in range(graph.order)]
        assert [graph.elt_by_name(text) for text in names] == list(range(graph.order))

    def test_non_canonical_spelling(self):
        graph = _graph_of("c4.pres")
        assert graph.elt_name(3) == "x^3"
        assert graph.elt_by_name("x^-1") == 3
        assert graph.elt_by_name("x^5") == 1
        assert graph.elt_by_name("x x^-1") == 0
        assert graph.elt_by_name(" x^2 ") == 2

    def test_unknown_generator(self):
        graph = _graph_of("c4.pres")
        with pytest.raises(ValueError) as exc:
            graph.elt_by_name("x z")
        assert type(exc.value) is ValueError
        assert str(exc.value) == "unknown generator 'z' in word 'x z'"
        with pytest.raises(ValueError) as exc:
            graph.elt_by_name("x^")
        assert str(exc.value) == "malformed word token 'x^'"


class TestLoadTable:
    def test_c4_fixture(self):
        graph = load_table(data_path("c4.table"), cyclic(4))
        assert graph.order == 4
        assert graph.apply(3, 0, 1) == 0

    def test_rejects_bad_tables(self, tmp_path):
        pres = cyclic(4)
        assert_input_errors(lambda p: load_table(p, pres), tmp_path / "t.txt", [
            ("1\n2\n3\n3\n", ": column for generator 'x' is not a permutation"),
            ("1 2\n", ":1: expected 1 entries, got 2"),
            ("1\nq\n", ":2: non-integer entry"),
            ("", ": empty table"),
            # permutation tables: not transitive, and x^4 moving a point
            ("1\n0\n3\n2\n", ": action is not transitive from the identity"),
            ("1\n2\n0\n", ": relator r does not fix element '1'"),
        ])


class TestTrees:
    def test_bfs_tree(self, s3_graph):
        tree = bfs_tree(s3_graph)
        assert len(tree.edges) == s3_graph.order - 1

    def test_tree_from_file(self, s3_graph):
        tree = tree_from_file(data_path("s3.tree"), s3_graph)
        assert len(tree.edges) == 5
        assert (0, 0) in tree.edges and (0, 1) in tree.edges

    def test_tree_validation(self, s3_graph):
        with pytest.raises(TreeError):
            MaximalTree(s3_graph, frozenset([(0, 0)]))  # too few edges
        # five edges containing a cycle: 1 -x-> x -x-> x^2 -x-> 1
        with pytest.raises(TreeError):
            MaximalTree(s3_graph, frozenset(
                [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0)]))

    def test_tree_file_errors(self, s3_graph, tmp_path):
        read = lambda p: tree_from_file(p, s3_graph)  # noqa: E731
        assert_input_errors(read, tmp_path / "t.tree", [
            ("1 z\n", ":1: unknown generator 'z'"),
            ("1 x\n1 x\nx^2 x\ny x\nx y x\n", ":2: duplicate tree edge"),
            ("1 x\n1 y\n", ": tree needs 5 edges, got 2"),
            ("1 x\nx x\nx^2 x\n1 y\ny x\n", ": tree edges contain a cycle"),
        ])


class TestContraction:
    def test_sigma_section(self, s3_contraction, s3_graph):
        assert s3_contraction.sigma[0].is_empty()
        for g in range(s3_graph.order):
            assert s3_graph.eval_word(s3_contraction.sigma[g], 0) == g
        # the breadth-first tree contracts along shortlex representatives
        assert [s3_contraction.sigma[g].render() for g in range(6)] \
            == ["1", "x", "x^2", "y", "x y", "y x"]

    def test_rho_loops(self, s3_contraction, s3_graph):
        for g in range(s3_graph.order):
            for k, name in enumerate(s3_graph.gens):
                loop = s3_contraction.rho(g, word(name))
                assert s3_graph.eval_word(loop, 0) == 0
                if (g, k) in s3_contraction.tree.edges:
                    assert loop.is_empty()

    def test_paper_tree_sigma(self, s3_graph):
        con = Contraction0(s3_graph, tree_from_file(data_path("s3.tree"),
                                                    s3_graph))
        for g in range(s3_graph.order):
            assert s3_graph.eval_word(con.sigma[g], 0) == g


def test_render_zg(s3_graph):
    assert render_zg(s3_graph, GroupRingElt({0: 1, 2: -3})) == "1 - 3 x^2"
    assert render_zg(s3_graph, GroupRingElt({})) == "0"
    assert render_zg(s3_graph, GroupRingElt({1: 1, 5: 1})) == "x + y x"
