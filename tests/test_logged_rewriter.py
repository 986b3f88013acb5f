import pytest
from hypothesis import given, strategies as st

from crossres import (Contraction0, CrossedElt, DEFAULT_LIMITS,
                      IDENTITY_CROSSED, FillError, FillLimits, H1Table, Word,
                      bfs_tree, boundary2, build_h1, enumerate_presentation,
                      fill_loop, h1_eval, mult, parse_presentation,
                      parse_word, tree_from_file, word)
from conftest import assert_input_errors, data_path

letters = st.sampled_from([("x", 1), ("x", -1), ("y", 1), ("y", -1)])
raw_words = st.lists(letters, max_size=6).map(
    lambda ls: parse_word(" ".join(f"{n}^{s}" for n, s in ls)))


class TestFillLoop:
    def test_fills_relator_loops(self, s3_presentation, s3_graph):
        for _, wr in s3_presentation.relators:
            c = fill_loop(s3_presentation, wr)
            assert boundary2(c, s3_presentation) == wr

    def test_fills_conjugated_products(self, s3_presentation, s3_graph):
        w = (parse_word("x^-1") * parse_word("x^3") * parse_word("x")
             * parse_word("y^2"))
        assert s3_graph.eval_word(w, 0) == 0
        c = fill_loop(s3_presentation, w)
        assert boundary2(c, s3_presentation) == w

    def test_empty_loop(self, s3_presentation):
        c = fill_loop(s3_presentation, parse_word("1"))
        assert c.is_trivial()

    def test_deterministic(self, s3_presentation):
        w = parse_word("y x y x")
        assert fill_loop(s3_presentation, w) == fill_loop(s3_presentation, w)

    def test_limits_raise(self, s3_presentation):
        # x^3 y^2 needs two consequence factors; depth 1 cannot reach it
        w = parse_word("x^3 y^2")
        tiny = FillLimits(max_depth=1, max_length_factor=4, node_budget=1000)
        with pytest.raises(FillError):
            fill_loop(s3_presentation, w, tiny)

    def test_non_loop_rejected(self, s3_presentation):
        with pytest.raises(FillError):
            fill_loop(s3_presentation, parse_word("x"),
                      FillLimits(node_budget=2000))


class TestBuildH1:
    def test_search_covers_non_tree_edges(self, s3_contraction, s3_graph):
        h1 = build_h1(s3_contraction, "search")
        non_tree = {(g, k) for g in range(s3_graph.order)
                    for k in range(len(s3_graph.gens))
                    if (g, k) not in s3_contraction.tree.edges}
        assert set(h1.entries) == non_tree
        for (g, k), c in h1.entries.items():
            loop = s3_contraction.rho(g, word(s3_graph.gens[k]))
            assert boundary2(c, s3_contraction.graph.presentation) == loop

    def test_file_fixture(self, s3_graph):
        con = Contraction0(s3_graph,
                           tree_from_file(data_path("s3.tree"), s3_graph))
        h1 = build_h1(con, data_path("s3.h1"))
        assert len(h1.entries) == 7

    def test_file_errors(self, s3_graph, tmp_path):
        con = Contraction0(s3_graph,
                           tree_from_file(data_path("s3.tree"), s3_graph))
        good_line = "x x := r^+1@1\n"
        assert_input_errors(lambda p: build_h1(con, p), tmp_path / "bad.h1", [
            ("x x = r^+1@1\n", ":1: expected `<edge> := <consequence>`"),
            ("x q := r^+1@1\n", ":1: unknown generator 'q'"),
            ("x x := s^+1@1\n", ": h1 entry at edge ('x', x) has boundary"),
            (good_line + good_line, ":2: duplicate h1 entry"),
            (good_line, ": missing h1 entry for non-tree edge"),
        ])

    def test_table_validation(self, s3_contraction, s3_presentation):
        h1 = build_h1(s3_contraction, "search")
        entries = dict(h1.entries)
        (g, k), c = next(iter(entries.items()))
        entries[(g, k)] = mult(c, c)  # breaks the boundary condition
        with pytest.raises(ValueError):
            H1Table(s3_contraction, entries)
        entries.pop((g, k))
        with pytest.raises(ValueError):  # missing coverage
            H1Table(s3_contraction, entries)


class TestH1Eval:
    @given(st.integers(0, 5), raw_words, raw_words)
    def test_morphism_law(self, s3_h1, s3_graph, g, u, v):
        lhs = h1_eval(s3_h1, g, u * v)
        rhs = mult(h1_eval(s3_h1, g, u),
                   h1_eval(s3_h1, s3_graph.eval_word(u, g), v))
        assert lhs == rhs

    @given(st.integers(0, 5), raw_words)
    def test_boundary_is_contracted_path(self, s3_h1, s3_graph,
                                         s3_contraction, g, u):
        # boundary2(h1(g, u)) == sigma(g) u sigma(g . u)^-1
        got = boundary2(h1_eval(s3_h1, g, u), s3_graph.presentation)
        want = (s3_contraction.sigma[g] * u
                * s3_contraction.sigma[s3_graph.eval_word(u, g)].inv())
        assert got == want

    def test_tree_edges_lift_trivially(self, s3_h1, s3_graph, s3_contraction):
        for (g, k) in s3_contraction.tree.edges:
            c = h1_eval(s3_h1, g, word(s3_graph.gens[k]))
            assert c.is_trivial()


# The node-by-node search that fill_loop must reproduce exactly: every
# child of every node is built, sorted and visited.  Kept verbatim, apart
# from the limit named in the node-budget message.

def _reference_rotations(pres):
    out = []
    for ri, (name, w) in enumerate(pres.relators):
        for sign in (1, -1):
            base = w.letters if sign == 1 else w.inv().letters
            for k in range(len(base)):
                a = Word(base[:k])
                out.append((ri, name, sign, a, base[k:] + base[:k]))
    return out


def _reference_reduce_splice(p, c_inv, s):
    out = list(p)
    for letter in c_inv + s:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _reference_fill_loop(pres, w: Word, limits: FillLimits = DEFAULT_LIMITS) -> CrossedElt:
    if w.is_empty():
        return IDENTITY_CROSSED
    rotations = _reference_rotations(pres)
    max_length = max(limits.max_length_factor * len(w), 8)
    budget = limits.node_budget

    def children(letters):
        found = []
        L = len(letters)
        for i in range(L):
            for ri, name, sign, a, rot in rotations:
                mlen = 0
                while mlen < len(rot) and i + mlen < L and letters[i + mlen] == rot[mlen]:
                    mlen += 1
                    c_inv = tuple((n, -s) for n, s in reversed(rot[mlen:]))
                    child = _reference_reduce_splice(letters[:i], c_inv, letters[i + mlen:])
                    if len(child) <= max_length:
                        found.append(
                            ((len(child), i, ri, 0 if sign == 1 else 1, len(a), mlen),
                             child, (name, sign, a, i)))
        found.sort(key=lambda t: t[0])
        return found

    def dfs(letters, remaining, memo):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise FillError(
                f"filling search for {Word(letters).render()!r} exceeded the node budget "
                f"(node_budget={limits.node_budget})")
        if not letters:
            return []
        if remaining == 0:
            return None
        seen = memo.get(letters)
        if seen is not None and seen >= remaining:
            return None
        memo[letters] = remaining
        for _, child, (name, sign, a, i) in children(letters):
            rest = dfs(child, remaining - 1, memo)
            if rest is not None:
                u = a * Word(letters[:i]).inv()
                return [(name, sign, u)] + rest
        return None

    for depth in range(1, limits.max_depth + 1):
        factors = dfs(w.letters, depth, {})
        if factors is not None:
            result = CrossedElt(factors)
            assert boundary2(result, pres) == w
            return result
    raise FillError(
        f"filling not found within limits for {w.render()!r} "
        f"(max_depth={limits.max_depth})")


REFERENCE_PRESENTATIONS = {
    "D4": "gens: x y\nrel r = x^4\nrel s = y^2\nrel t = x y x y\n",
    "D5": "gens: x y\nrel r = x^5\nrel s = y^2\nrel t = x y x y\n",
    "A4p": "gens: x y\nrel r = x^2\nrel s = y^3\nrel t = x y x y x y\n",
    "D6": "gens: x y\nrel r = x^6\nrel s = y^2\nrel t = x y x y\n",
    # S3, with a relator that is not cyclically reduced.
    "S3conj": "gens: x y\nrel a = x^2\nrel b = x y^3 x^-1\nrel c = x y x y\n",
}


def _non_tree_loops(text):
    """(edge name, pres, rho(edge)) for every non-tree edge of the BFS tree,
    in the order build_h1 fills them."""
    pres = parse_presentation(text)
    graph = enumerate_presentation(pres)
    con = Contraction0(graph, bfs_tree(graph))
    return [((graph.elt_name(g), graph.gens[k]), pres,
             con.rho(g, word(graph.gens[k])))
            for g in range(graph.order) for k in range(len(graph.gens))
            if (g, k) not in con.tree]


def _outcome(fill, pres, loop, limits=DEFAULT_LIMITS):
    try:
        return fill(pres, loop, limits)
    except FillError as exc:
        return f"FillError: {exc}"


class TestFillLoopReference:
    @pytest.mark.parametrize("group", sorted(REFERENCE_PRESENTATIONS))
    def test_every_non_tree_edge_matches_reference(self, group):
        failed = []
        for edge, pres, loop in _non_tree_loops(REFERENCE_PRESENTATIONS[group]):
            got = _outcome(fill_loop, pres, loop)
            assert got == _outcome(_reference_fill_loop, pres, loop), edge
            if isinstance(got, str):
                failed.append(edge)
        if group == "D6":
            assert failed and failed[0] == ("y x^2", "x")
        else:
            assert not failed

    def test_d6_fails_on_the_node_budget(self):
        loops = dict((edge, (pres, loop)) for edge, pres, loop
                     in _non_tree_loops(REFERENCE_PRESENTATIONS["D6"]))
        pres, loop = loops[("y x^2", "x")]
        with pytest.raises(FillError, match=r"exceeded the node budget "
                                            r"\(node_budget=200000\)$"):
            fill_loop(pres, loop)

    @pytest.mark.parametrize("group", ["D5", "A4p", "D6", "S3conj"])
    def test_node_counting_matches_reference(self, group):
        budgets = list(range(1, 61)) + list(range(61, 3001, 37))
        edges = _non_tree_loops(REFERENCE_PRESENTATIONS[group])
        for edge, pres, loop in edges[:2] + edges[-1:]:
            for budget in budgets:
                limits = FillLimits(node_budget=budget)
                assert (_outcome(fill_loop, pres, loop, limits)
                        == _outcome(_reference_fill_loop, pres, loop, limits)), \
                    (edge, budget)

    @pytest.mark.parametrize("group", sorted(REFERENCE_PRESENTATIONS))
    def test_length_limit_matches_reference(self, group):
        # max_length_factor=1 keeps many children out of the search.
        limits = FillLimits(max_length_factor=1, node_budget=2000)
        for edge, pres, loop in _non_tree_loops(REFERENCE_PRESENTATIONS[group]):
            assert (_outcome(fill_loop, pres, loop, limits)
                    == _outcome(_reference_fill_loop, pres, loop, limits)), edge
