import os

import pytest
from hypothesis import example, given, settings, strategies as st

from crossres import FillError, logged_rewriter
from crossres.crossed import (CrossedElt, IDENTITY_CROSSED, boundary2, mult,
                              parse_crossed)
from crossres.group_core import Contraction0, bfs_tree, enumerate_presentation
from crossres.inputs import parse_presentation, tree_from_file
from crossres.logged_rewriter import (DEFAULT_LIMITS, FillLimits, H1Table,
                                      _cyclic_core, _join, _rotation_automaton,
                                      _rotation_table, build_h1, fill_loop,
                                      h1_eval)
from crossres.words import Word, parse_word, word
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

    def test_self_check_raises_naming_the_word(self, s3_presentation,
                                               monkeypatch):
        # fill_loop replays every filling it returns; the check is no
        # assert, so python -O keeps it
        monkeypatch.setattr(logged_rewriter, "boundary2",
                            lambda c, pres: parse_word("y"))
        with pytest.raises(RuntimeError, match=r"^filling found for 'x\^3' "
                                               r"has boundary 'y'$"):
            fill_loop(s3_presentation, parse_word("x^3"))

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
            # an identity among relations on a tree edge, where h1 is 1
            ("1 x := r^+1@1 r^-1@x\n",
             ":1: h1 entry for tree edge ('1', x) must be 1"),
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

    def test_table_refuses_tree_arrows(self, s3_graph):
        """h1 is the empty consequence on a tree arrow, so H1Table takes no
        entry there, whoever builds it: not the trivial consequence, and
        not an identity among relations, whose boundary rho(1, x) = 1
        would pass the boundary check."""
        con = Contraction0(s3_graph,
                           tree_from_file(data_path("s3.tree"), s3_graph))
        entries = build_h1(con, data_path("s3.h1")).entries
        assert (0, 0) in con.tree
        for c in (IDENTITY_CROSSED, parse_crossed("r^+1@1 r^-1@x")):
            assert boundary2(c, s3_graph.presentation).is_empty()
            with pytest.raises(ValueError, match=r"h1 entry at tree edge "
                                                 r"\('1', x\)"):
                H1Table(con, {**entries, (0, 0): c})


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


def _bench_presentation(stem):
    """The text of a presentation the benchmark's `auto` workload builds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "data", "pres", f"{stem}.pres")) as fh:
        return fh.read()


REFERENCE_PRESENTATIONS = {
    "D5": "gens: x y\nrel r = x^5\nrel s = y^2\nrel t = x y x y\n",
    "A4p": "gens: x y\nrel r = x^2\nrel s = y^3\nrel t = x y x y x y\n",
    "D6": "gens: x y\nrel r = x^6\nrel s = y^2\nrel t = x y x y\n",
    # S3, with a relator that is not cyclically reduced.
    "S3conj": "gens: x y\nrel a = x^2\nrel b = x y^3 x^-1\nrel c = x y x y\n",
    "D4": _bench_presentation("d4"),
    "Q12": _bench_presentation("q12"),
    "C3xC3": _bench_presentation("c3c3"),
    "C2xC2xC2": _bench_presentation("c2c2c2"),
    "C4xC2": _bench_presentation("c4c2"),
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

    @pytest.mark.parametrize("group", ["D5", "A4p", "D6", "S3conj", "Q12"])
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


@st.composite
def consequences(draw):
    """(group, presentation, w): w a freely reduced product of one to three
    relators or their inverses, each conjugated by a word of length at
    most 4, in one of REFERENCE_PRESENTATIONS."""
    group = draw(st.sampled_from(sorted(REFERENCE_PRESENTATIONS)))
    pres = parse_presentation(REFERENCE_PRESENTATIONS[group])
    letters = st.sampled_from([(x, s) for x in pres.generators for s in (1, -1)])
    w = Word()
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from(pres.relators))[1]
        a = Word(draw(st.lists(letters, max_size=4)))
        w = w * a.inv() * (r.inv() if draw(st.booleans()) else r) * a
    return group, pres, w


def _case(group, text):
    return group, parse_presentation(REFERENCE_PRESENTATIONS[group]), parse_word(text)


class TestFillLoopOnConsequences:
    """fill_loop on consequences that are no rho-loop of a BFS tree: a lone
    conjugated relator has an empty child at the last depth, and the
    copies of D6's x^6 are charged in place."""

    @settings(deadline=None, max_examples=300)
    @given(case=consequences(), budget=st.integers(1, 3000),
           factor=st.sampled_from([1, 2, 4]))
    @example(case=_case("D6", "y x^6 y^-1"), budget=3000, factor=4)
    @example(case=_case("D6", "y^-1 x^-6 y x y x y"), budget=3000, factor=2)
    @example(case=_case("S3conj", "x y^3 x^-1"), budget=3000, factor=1)
    def test_matches_reference(self, case, budget, factor):
        _, pres, w = case
        limits = FillLimits(max_length_factor=factor, node_budget=budget)
        assert (_outcome(fill_loop, pres, w, limits)
                == _outcome(_reference_fill_loop, pres, w, limits))


class TestRotationTable:
    @pytest.mark.parametrize("group", sorted(REFERENCE_PRESENTATIONS))
    def test_each_signed_rotation_is_one_copy(self, group):
        pres = parse_presentation(REFERENCE_PRESENTATIONS[group])
        code = {name: k + 1 for k, name in enumerate(pres.generators)}
        listed, distinct = [], set()
        for c, entries in _rotation_table(pres).items():
            firsts = []
            for rot, tails, grow, core, copies in entries:
                assert rot[0] == c and rot not in distinct
                distinct.add(rot)
                assert grow == [len(t) - m for m, t in enumerate(tails)]
                keys = [(ri, flag, offset) for ri, flag, offset, _ in copies]
                for ri, flag, offset, move in copies:
                    name, w = pres.relators[ri]
                    base = (w if flag == 0 else w.inv()).letters
                    rotated = base[offset:] + base[:offset]
                    assert tuple(code[n] * s for n, s in rotated) == rot
                    assert move == (name, 1 - 2 * flag, Word(base[:offset]))
                assert keys == sorted(keys)  # equal rotations in key order
                listed += keys
                firsts.append(keys[0])
            # distinct rotations in the key order of their first copies
            assert firsts == sorted(firsts)
        assert len(listed) == 2 * sum(len(w) for _, w in pres.relators)
        assert set(listed) == {(ri, flag, k)
                               for ri, (_, w) in enumerate(pres.relators)
                               for flag in (0, 1) for k in range(len(w))}


def _reduced(codes):
    out = ()
    for c in codes:
        out = _join(out, (c,))
    return out


@st.composite
def coded_words(draw):
    """(group, letters): a freely reduced coded word on the generators of
    one of REFERENCE_PRESENTATIONS; half of them are reduced conjugates
    a.rot.a^-1 of a rotation of a signed relator."""
    group = draw(st.sampled_from(sorted(REFERENCE_PRESENTATIONS)))
    pres = parse_presentation(REFERENCE_PRESENTATIONS[group])
    codes = [s * (k + 1) for k in range(len(pres.generators)) for s in (1, -1)]
    a = draw(st.lists(st.sampled_from(codes), max_size=8))
    if draw(st.booleans()):
        rot = draw(st.sampled_from([e[0] for es in _rotation_table(pres).values()
                                    for e in es]))
        a = a + list(rot) + [-c for c in reversed(a)]
    return group, _reduced(a)


class TestRotationAutomaton:
    @settings(deadline=None)
    @given(group=st.sampled_from(sorted(REFERENCE_PRESENTATIONS)),
           # 3 codes a letter outside the two generators
           letters=st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=20))
    def test_one_pass_counts_every_match(self, group, letters):
        # sum over positions and rotations of match length x copies, the
        # count the last depth makes
        table = _rotation_table(parse_presentation(REFERENCE_PRESENTATIONS[group]))
        expected = 0
        for i, c in enumerate(letters):
            for rot, _, _, _, copies in table.get(c, ()):
                m = 1
                while m < min(len(rot), len(letters) - i) \
                        and letters[i + m] == rot[m]:
                    m += 1
                expected += m * len(copies)
        root, _, _ = _rotation_automaton(table)
        node, got = root, 0
        for c in letters:
            node = node.get(c, root)
            got += node[0]
        assert got == expected

    @pytest.mark.parametrize("group", sorted(REFERENCE_PRESENTATIONS))
    def test_cores_and_reach(self, group):
        pres = parse_presentation(REFERENCE_PRESENTATIONS[group])
        code = {name: k + 1 for k, name in enumerate(pres.generators)}
        expected = set()
        for _, w in pres.relators:
            for signed in (w, w.inv()):
                letters = list(signed.letters)
                while len(letters) > 1 and letters[0] == (letters[-1][0],
                                                          -letters[-1][1]):
                    letters = letters[1:-1]
                core = [code[n] * s for n, s in letters]
                expected.update(tuple(core[k:] + core[:k])
                                for k in range(len(core)))
        table = _rotation_table(pres)
        _, cores, reach = _rotation_automaton(table)
        assert cores == expected
        entries = [e for es in table.values() for e in es]
        assert reach == max(0, *(g for _, _, grow, _, _ in entries
                                 for g in grow[1:]))

    @settings(deadline=None, max_examples=300)
    @given(case=coded_words())
    @example(case=("S3conj", (1, 2, 2, 2, -1)))
    @example(case=("S3conj", (2, 2, 2)))
    @example(case=("D6", (2, 1, 1, 1, 1, 1, 1, -2)))
    @example(case=("C2xC2xC2", (3, 1, 2, -1, -2, -3)))
    def test_an_empty_child_needs_a_core(self, case):
        # The last depth counts the moves of a word whose cyclic reduction
        # is not in cores, so none of them may leave it empty.  Every move,
        # each match length of each rotation at each position, is tried.
        group, letters = case
        table = _rotation_table(parse_presentation(REFERENCE_PRESENTATIONS[group]))
        _, cores, _ = _rotation_automaton(table)
        for i, c in enumerate(letters):
            for rot, tails, _, _, _ in table.get(c, ()):
                for m in range(1, min(len(rot), len(letters) - i) + 1):
                    if letters[i + m - 1] != rot[m - 1]:
                        break
                    if not _join(_join(letters[:i], tails[m]), letters[i + m:]):
                        assert _cyclic_core(letters) in cores, (i, rot, m)


def _least_budget(pres, loop, limits):
    """The least node budget with which fill_loop fills `loop` under
    `limits`; a larger budget fills it the same way."""
    lo, hi = 1, limits.node_budget
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            fill_loop(pres, loop, FillLimits(limits.max_depth,
                                             limits.max_length_factor, mid))
            hi = mid
        except FillError:
            lo = mid + 1
    return lo


class TestLeafStep:
    """The last depth counts its moves without visiting them."""

    @pytest.mark.parametrize("factor", [4, 1])
    @pytest.mark.parametrize("group", ["D6", "S3conj"])
    def test_budget_runs_out_at_the_last_depth(self, group, factor):
        # With the least budget that fills a loop, a last leaf of more than
        # one move cannot pay for all of them (one node less would still
        # pay for its empty child), so the sorted walk reaches that child;
        # a few nodes more still leave it short.  max_length_factor=1 keeps
        # children beyond the length limit out of the count.
        limits = FillLimits(max_length_factor=factor, node_budget=500)
        swept = 0
        for edge, pres, loop in _non_tree_loops(REFERENCE_PRESENTATIONS[group]):
            if isinstance(_outcome(fill_loop, pres, loop, limits), str):
                continue
            least = _least_budget(pres, loop, limits)
            for budget in range(max(1, least - 2), least + 40):
                tight = FillLimits(max_length_factor=factor, node_budget=budget)
                assert (_outcome(fill_loop, pres, loop, tight)
                        == _outcome(_reference_fill_loop, pres, loop, tight)), \
                    (edge, budget)
            swept += 1
        assert swept >= 5

    @pytest.mark.parametrize("text, outcome", [
        ("q", "FillError: filling not found within limits for 'q' (max_depth=64)"),
        ("q x q^-1 x^-1",
         "FillError: filling search for 'q y^-1 x y x^-1 y^-2 q^-1 x y x^-1 y^-1' "
         "exceeded the node budget (node_budget=200000)"),
    ])
    def test_letters_outside_the_generators(self, s3_presentation, text, outcome):
        assert _outcome(fill_loop, s3_presentation, parse_word(text)) == outcome

    def test_build_h1_fills_as_single_calls(self):
        # build_h1 shares one rotation table among its fill_loop calls.
        pres = parse_presentation(REFERENCE_PRESENTATIONS["Q12"])
        graph = enumerate_presentation(pres)
        con = Contraction0(graph, bfs_tree(graph))
        h1 = build_h1(con, "search")
        for (g, k), c in h1.entries.items():
            assert c == fill_loop(pres, con.rho(g, word(graph.gens[k])))
