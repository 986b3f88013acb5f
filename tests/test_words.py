import re

import pytest
from hypothesis import given, strategies as st

from crossres.words import (EMPTY, GroupRingElt, Word, ZERO_ZG, fox_derivative,
                            parse_word, read_int, reduce,
                            validate_generator_name, word)
from conftest import scaled

letters = st.sampled_from([("x", 1), ("x", -1), ("y", 1), ("y", -1)])
raw_words = st.lists(letters, max_size=12).map(
    lambda ls: parse_word(" ".join(f"{n}^{s}" for n, s in ls)))


def test_word_basics():
    w = parse_word("x^3 y^-2 x")
    assert len(w) == 6
    assert w.render() == "x^3 y^-2 x"
    assert w.inv().render() == "x^-1 y^2 x^-3"
    assert EMPTY.render() == "1"
    assert EMPTY.is_empty()


def test_multiplication_reduces():
    assert word("x") * word("x", -1) == EMPTY
    w = parse_word("x y")
    assert (w * w.inv()) == EMPTY
    assert (parse_word("x y^-1") * parse_word("y x")).render() == "x^2"


def test_reduce_function():
    assert reduce((("x", 1), ("x", -1), ("y", 1))) == (("y", 1),)
    assert reduce((("x", 1), ("y", 1), ("y", -1), ("x", -1))) == ()


def test_parse_word_grammar():
    assert parse_word("1") == EMPTY
    assert parse_word("x^-1 x") == EMPTY
    assert parse_word("x^0") == EMPTY
    with pytest.raises(ValueError):
        parse_word("x^")
    with pytest.raises(ValueError):
        parse_word("x^one")
    with pytest.raises(ValueError):
        parse_word("z", {"x", "y"})
    # a zero power still names a generator, and a token still needs one
    with pytest.raises(ValueError,
                       match=re.escape("unknown generator 'z' in word 'z^0'")):
        parse_word("z^0", {"x"})
    for tok in ("^0", "1^0"):
        with pytest.raises(ValueError,
                           match=re.escape(f"malformed word token '{tok}'")):
            parse_word(f"x {tok}", {"x"})
    # round trip through render
    w = parse_word("x^2 y^-1 x")
    assert parse_word(w.render()) == w


def test_read_int():
    assert [read_int(t) for t in ("0", "7", "-2", "10", "-305")] \
        == [0, 7, -2, 10, -305]
    for bad in ("", "-", "+2", "02", "-0", "00", "1_0", " 1", "1 ", "1\n",
                "1.0", "x", "\u0662", "\uff13", "-\u0663"):
        assert read_int(bad) is None, bad


@given(st.integers())
def test_read_int_reads_what_str_writes(n):
    assert read_int(str(n)) == n


@given(st.lists(st.tuples(st.sampled_from(["x", "y", "gen_2"]),
                          st.integers(-40, 40)), max_size=8))
def test_parse_word_reads_what_render_writes(powers):
    w = Word([(name, 1 if p > 0 else -1) for name, p in powers
              for _ in range(abs(p))])
    assert parse_word(w.render()) == w


def test_validate_generator_name():
    validate_generator_name("x")
    validate_generator_name("gen_2")
    for bad in ("1", "", "a b", "x^", "u-v", "p(q)", "a,b", "e=f", "g@h"):
        with pytest.raises(ValueError):
            validate_generator_name(bad)


@given(raw_words, raw_words)
def test_word_group_laws(u, v):
    assert (u * v).inv() == v.inv() * u.inv()
    assert u * u.inv() == EMPTY
    assert parse_word(u.render()) == u


@given(st.lists(letters, max_size=12))
def test_reduce_idempotent(ls):
    once = reduce(tuple(ls))
    assert reduce(once) == once


def test_group_ring_arithmetic():
    e = GroupRingElt({0: 2, 3: -1})
    assert e.items() == [(0, 2), (3, -1)]
    assert e.augmentation() == 1
    assert (-e).items() == [(0, -2), (3, 1)]
    assert (e + GroupRingElt({3: 1})).items() == [(0, 2)]
    assert (e - e) == ZERO_ZG
    assert not ZERO_ZG
    assert scaled(e, 0) == ZERO_ZG
    assert scaled(e, -2).items() == [(0, -4), (3, 2)]


def test_group_ring_drops_zeros():
    assert GroupRingElt({0: 0, 2: 1}).items() == [(2, 1)]
    assert (GroupRingElt({1: 1}) + GroupRingElt({1: -1})) == ZERO_ZG


coeff_maps = st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=4)


@given(coeff_maps, coeff_maps)
def test_group_ring_augmentation_additive(a, b):
    p, q = GroupRingElt(a), GroupRingElt(b)
    assert (p + q).augmentation() == p.augmentation() + q.augmentation()


class TestWithGraph:
    def test_translation_is_right_action(self, s3_graph):
        e = GroupRingElt({0: 2, 3: -1})
        assert e.translated(s3_graph, 1).items() == [(1, 2), (5, -1)]
        for g in range(6):
            for h in range(6):
                gh = s3_graph.mult(g, h)
                assert (e.translated(s3_graph, g).translated(s3_graph, h)
                        == e.translated(s3_graph, gh))

    def test_fox_derivative_frozen(self, s3_graph):
        r, t = parse_word("x^3"), parse_word("x y x y")
        assert dict(fox_derivative(r, "x", s3_graph).items()) == {0: 1, 1: 1, 2: 1}
        assert fox_derivative(r, "y", s3_graph) == ZERO_ZG
        assert dict(fox_derivative(t, "x", s3_graph).items()) == {2: 1, 3: 1}
        assert dict(fox_derivative(t, "y", s3_graph).items()) == {0: 1, 4: 1}
        assert dict(fox_derivative(parse_word("x^-1"), "x", s3_graph).items()) \
            == {2: -1}

    @given(raw_words, raw_words)
    def test_fox_product_rule(self, s3_graph, u, v):
        # d(uv)/dx = (du/dx) . φ(v) + dv/dx, coefficients acting on the right
        for x in ("x", "y"):
            lhs = fox_derivative(u * v, x, s3_graph)
            rhs = (fox_derivative(u, x, s3_graph)
                   .translated(s3_graph, s3_graph.eval_word(v))
                   + fox_derivative(v, x, s3_graph))
            assert lhs == rhs

    @given(raw_words)
    def test_fox_inverse_rule(self, s3_graph, u):
        for x in ("x", "y"):
            lhs = fox_derivative(u.inv(), x, s3_graph)
            rhs = -fox_derivative(u, x, s3_graph).translated(
                s3_graph, s3_graph.eval_word(u.inv()))
            assert lhs == rhs
