import pytest
from hypothesis import given, strategies as st

from crossres.crossed import (CrossedElt, IDENTITY_CROSSED, ModuleElt,
                              ZERO_MODULE, abelianise, act, apply_map,
                              boundary2, crossed, inv, mult, parse_crossed,
                              render_crossed, unit)
from crossres.inputs import parse_presentation
from crossres.words import EMPTY, GroupRingElt, Word, parse_word, word
from conftest import data_path, scaled

letters = st.sampled_from([("x", 1), ("x", -1), ("y", 1), ("y", -1)])
conjugators = st.lists(letters, max_size=4).map(
    lambda ls: parse_word(" ".join(f"{n}^{s}" for n, s in ls)))
factors = st.tuples(st.sampled_from(["r", "s", "t"]),
                    st.sampled_from([1, -1]), conjugators)
crossed_elts = st.lists(factors, max_size=5).map(CrossedElt)


def test_construction_cancels():
    c = crossed("r", 1, parse_word("x"))
    assert mult(c, inv(c)) == IDENTITY_CROSSED
    assert mult(c, inv(c)).is_trivial()
    assert CrossedElt((("r", 1, EMPTY), ("r", -1, EMPTY))).is_trivial()
    # cancellation only merges exact inverse neighbours
    d = CrossedElt((("r", 1, EMPTY), ("r", -1, word("x"))))
    assert not d.is_trivial()


def test_render_parse_round_trip():
    c = CrossedElt((("r", 1, parse_word("x y^-1")), ("s", -1, EMPTY)))
    text = render_crossed(c)
    assert text == "r^+1@x y^-1 s^-1@1"
    assert parse_crossed(text, {"r", "s", "t"}, {"x", "y"}) == c
    assert render_crossed(IDENTITY_CROSSED) == "1"
    assert parse_crossed("1") == IDENTITY_CROSSED


def test_parse_crossed_errors():
    with pytest.raises(ValueError):
        parse_crossed("junk")
    with pytest.raises(ValueError):
        parse_crossed("r^2@1")
    with pytest.raises(ValueError):
        parse_crossed("q^+1@1", {"r", "s"})


def test_boundary2(s3_presentation):
    c = crossed("r", 1, parse_word("x"))
    assert boundary2(c, s3_presentation).render() == "x^3"
    d = crossed("t", -1, parse_word("y^-1"))
    assert boundary2(d, s3_presentation) \
        == parse_word("y") * parse_word("x y x y").inv() * parse_word("y^-1")


@given(crossed_elts, crossed_elts)
def test_boundary2_is_homomorphism(s3_presentation, a, b):
    lhs = boundary2(mult(a, b), s3_presentation)
    rhs = boundary2(a, s3_presentation) * boundary2(b, s3_presentation)
    assert lhs == rhs


@given(crossed_elts)
def test_boundary2_of_inverse(s3_presentation, a):
    assert boundary2(inv(a), s3_presentation) \
        == boundary2(a, s3_presentation).inv()


@given(crossed_elts, conjugators, conjugators)
def test_act_composes(a, u, v):
    assert act(act(a, u), v) == act(a, u * v)
    assert act(a, EMPTY) == a


@given(crossed_elts, crossed_elts)
def test_abelianise_additive(s3_graph, a, b):
    assert abelianise(mult(a, b), s3_graph) \
        == abelianise(a, s3_graph) + abelianise(b, s3_graph)
    assert abelianise(inv(a), s3_graph) == -abelianise(a, s3_graph)


@given(crossed_elts, conjugators)
def test_abelianise_of_action_translates(s3_graph, a, u):
    assert abelianise(act(a, u), s3_graph) \
        == abelianise(a, s3_graph).translated(s3_graph, s3_graph.eval_word(u))


def test_abelianise_frozen(s3_graph):
    c = mult(crossed("r", 1, parse_word("x")),
             act(crossed("s", -1), parse_word("x")))
    ab = abelianise(c, s3_graph)
    assert [(sym, dict(ring.items())) for sym, ring in ab.items()] \
        == [("r", {1: 1}), ("s", {1: -1})]


def test_module_elt_arithmetic():
    m = unit("r", 1) - unit("s", 0, 2)
    assert [(sym, dict(r.items())) for sym, r in m.items()] \
        == [("r", {1: 1}), ("s", {0: -2})]
    assert m.support_size() == 2
    assert (m - m) == ZERO_MODULE
    assert not ZERO_MODULE
    assert ModuleElt({"r": GroupRingElt({})}) == ZERO_MODULE


def test_module_translation(s3_graph):
    m = unit("r", 0) + unit("s", 3)
    moved = m.translated(s3_graph, 1)
    assert [(sym, dict(r.items())) for sym, r in moved.items()] \
        == [("r", {1: 1}), ("s", {5: 1})]


def test_apply_map_is_linear(s3_graph):
    mapping = {"r": unit("u", 1), "s": unit("u", 0, 2) - unit("v", 3)}
    a = unit("r", 2) - unit("s", 0, 3)
    b = unit("s", 1)
    assert apply_map(s3_graph, mapping, a + b) \
        == apply_map(s3_graph, mapping, a) + apply_map(s3_graph, mapping, b)
    # translation compatibility: f(m . g) = f(m) . g
    for g in range(6):
        assert apply_map(s3_graph, mapping, a.translated(s3_graph, g)) \
            == apply_map(s3_graph, mapping, a).translated(s3_graph, g)


def apply_map_reference(graph, mapping, m):
    """apply_map as one immutable ModuleElt sum per coefficient."""
    out = ZERO_MODULE
    for sym, c in m.items():
        image = mapping[sym]
        for g, n in c.items():
            out = out + ModuleElt(
                {s: scaled(d.translated(graph, g), n) for s, d in image.coords.items()})
    return out


def module_elts(basis):
    rings = st.dictionaries(st.integers(0, 5), st.sampled_from([1, -1, 2, -2]),
                            max_size=4)
    return st.dictionaries(st.sampled_from(basis), rings, max_size=len(basis)).map(
        lambda d: ModuleElt({s: GroupRingElt(r) for s, r in d.items()}))


@given(module_elts(["u", "v"]), module_elts(["u", "v"]), module_elts(["r", "s"]),
       st.integers(0, 5), st.booleans())
def test_apply_map_matches_immutable_sum(s3_graph, image_r, image_s, m, g, cancel):
    if cancel:
        # s maps to -(r's image).g, so r.g' and s.g'' terms can cancel
        image_s = -image_r.translated(s3_graph, g)
        m = m + unit("r", 0) + unit("s", s3_graph.inv_elt(g))
    mapping = {"r": image_r, "s": image_s}
    got = apply_map(s3_graph, mapping, m)
    assert got == apply_map_reference(s3_graph, mapping, m)
    assert all(ring and all(ring.coeffs.values()) for _, ring in got.items())


def boundary2_reference(a, pres):
    """The product form of delta_2: every factor's contribution is
    multiplied onto the running word, which is re-reduced each time."""
    out = EMPTY
    for name, sign, u in a.factors:
        w = pres.relator_word(name)
        if sign == -1:
            w = w.inv()
        out = out * u.inv() * w * u
    return out


def _presentation_file(name):
    with open(data_path(name)) as fh:
        return parse_presentation(fh.read(), name)


PRESENTATIONS = [_presentation_file("s3.pres"), _presentation_file("q8.pres")]


def relator_conjugators(pres):
    """Conjugators that start with a prefix of a relator or with the
    inverse of a relator suffix, then go on at random, so that u^-1 r u
    cancels at its junctions; and plain random ones."""
    rels = [w.letters for _, w in pres.relators]
    prefix = st.sampled_from(rels).flatmap(
        lambda ls: st.integers(0, len(ls)).map(lambda k: list(ls[:k])))
    inverse_suffix = st.sampled_from(rels).flatmap(
        lambda ls: st.integers(0, len(ls)).map(
            lambda k: [(x, -e) for x, e in reversed(ls[k:])]))
    head = st.one_of(prefix, inverse_suffix, st.just([]))
    return st.tuples(head, st.lists(letters, max_size=3)).map(
        lambda t: Word(t[0] + t[1]))


def crossed_over(pres):
    factor = st.tuples(st.sampled_from(pres.relator_names()),
                       st.sampled_from([1, -1]), relator_conjugators(pres))
    return st.lists(factor, max_size=6).map(CrossedElt)


@given(st.sampled_from(PRESENTATIONS).flatmap(
    lambda pres: st.tuples(st.just(pres), crossed_over(pres))))
def test_boundary2_matches_product_reference(case):
    pres, a = case
    assert boundary2(a, pres) == boundary2_reference(a, pres)
