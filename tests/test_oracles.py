import pytest

from crossres import export_json, import_json, verify_state
from crossres.crossed import ModuleElt, boundary2
from crossres.group_core import Presentation, enumerate_presentation
from crossres.oracles import (BarResolution, bar_check_boundaries,
                              bar_check_homotopy, cyclic_resolution,
                              cyclic_ring)
from crossres.words import parse_word


@pytest.fixture(scope="module")
def c4_bar():
    graph = enumerate_presentation(
        Presentation(["x"], [("r", parse_word("x^4"))]))
    return BarResolution(graph)


@pytest.fixture(scope="module")
def s3_bar(s3_graph):
    return BarResolution(s3_graph)


class TestBarStructure:
    def test_letters_and_pairs(self, c4_bar):
        assert len(c4_bar.letters) == 4
        assert len(c4_bar.pair_names) == 16
        # one letter per group element, the identity included
        assert sorted(c4_bar.elt_of_letter.values()) == [0, 1, 2, 3]
        assert not c4_bar.sigma(0).is_empty()

    def test_sigma_and_h0_are_inverse_paths(self, c4_bar):
        graph = c4_bar.graph
        for a in range(graph.order):
            assert c4_bar.phi_word(c4_bar.sigma(a)) == a
            assert c4_bar.phi_word(c4_bar.sigma(a) * c4_bar.h0(a)) == 0

    def test_delta2_word(self, c4_bar):
        graph = c4_bar.graph
        for a in range(graph.order):
            for b in range(graph.order):
                w = c4_bar.delta(2, (a, b))
                assert c4_bar.phi_word(w) == 0

    def test_delta_validates_arity(self, c4_bar):
        with pytest.raises(ValueError):
            c4_bar.delta(3, (1, 2))
        with pytest.raises(ValueError):
            c4_bar.delta(1, (1,))


class TestBarChecks:
    def test_c4_boundaries(self, c4_bar):
        assert bar_check_boundaries(c4_bar, samples=20) == []

    def test_c4_homotopy(self, c4_bar):
        assert bar_check_homotopy(c4_bar, samples=60) == []

    def test_s3_spot_boundaries(self, s3_bar):
        graph = s3_bar.graph
        pres = s3_bar.presentation
        # delta2(delta3) trivial on a sample of triples
        for (a, b, c) in [(1, 2, 3), (3, 3, 3), (0, 1, 0), (4, 5, 2)]:
            w = boundary2(s3_bar.delta(3, (a, b, c)), pres)
            assert w.is_empty()
        # delta3(delta4) = 0 via abelianised pair forms on a sample
        ab3 = {(a, b, c): s3_bar.delta3_ab(a, b, c)
               for a in range(6) for b in range(6) for c in range(6)}
        for tup in [(1, 2, 3, 4), (5, 5, 5, 5), (0, 2, 0, 2)]:
            m = s3_bar.delta(4, tup)
            total = ModuleElt({})
            for tau, ring in m.items():
                for g, coeff in ring.items():
                    term = ab3[tau].translated(graph, g)
                    total = total + term if coeff > 0 else total - term
            assert not total

    def test_degenerate_tuples_kept(self, c4_bar):
        # tuples containing the identity are genuine basis elements
        m = c4_bar.delta(4, (0, 1, 0, 2))
        assert m.support_size() > 0
        w = boundary2(c4_bar.delta(3, (0, 0, 0)), c4_bar.presentation)
        assert w.is_empty()


class TestCyclicOracle:
    def test_ring_pattern(self):
        graph = enumerate_presentation(
            Presentation(["x"], [("r", parse_word("x^5"))]))
        assert dict(cyclic_ring(graph, 3).items()) == {0: -1, 1: 1}
        assert dict(cyclic_ring(graph, 5).items()) == {0: -1, 1: 1}
        assert dict(cyclic_ring(graph, 4).items()) \
            == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
        with pytest.raises(ValueError):
            cyclic_ring(graph, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cyclic_resolution(1, 4)
        with pytest.raises(ValueError):
            cyclic_resolution(3, 1)

    def test_c4_closed_form_shape(self):
        state = cyclic_resolution(4, 6)
        graph = state.graph
        assert graph.order == 4
        for n in range(3, 7):
            level = state.levels[n]
            assert len(level.basis) == 1
            sym, _tag = level.basis[0]
            prev = "r" if n == 3 else f"b{n - 1}_1"
            assert level.boundary[sym] \
                == ModuleElt({prev: cyclic_ring(graph, n)})

    def test_levels_verify(self):
        for r in (2, 3, 5):
            state = cyclic_resolution(r, 5)
            ok, rows = verify_state(state, samples=10)
            assert ok, [row for row in rows if not row[3]]

    def test_round_trip(self):
        state = cyclic_resolution(3, 4)
        text = export_json(state)
        assert export_json(import_json(text)) == text
