"""Two closed-form resolutions used as independent oracles.

The bar (standard) resolution of any finite group has one free generator
per n-tuple of group elements, boundaries given by the product rule, and a
contracting homotopy that simply prepends the base point to a tuple.  The
small resolution of a finite cyclic group is periodic with a single free
generator per level.  Both homotopies are explicit, so every retraction
identity can be replayed exactly and compared with the pipeline's output.
"""

from __future__ import annotations

import random

from .crossed import (CrossedElt, ModuleElt, ZERO_MODULE, apply_map,
                      boundary2, inv, mult, unit)
from .group_core import CayleyGraph, Contraction0, Presentation, bfs_tree, \
    enumerate_presentation
from .logged_rewriter import build_h1
from .syzygy_engine import Candidate, Level, ResolutionState
from .words import EMPTY, GroupRingElt, Word, word


class BarResolution:
    """The bar resolution of a finite group, levels indexed by tuple length.

    Level 1 is the free group on one letter per group element; level 2 is
    the free crossed module on all pairs, each pair's relator spelling the
    product rule [a][b][ab]^-1; level n >= 3 is the free module on all
    n-tuples (module basis symbols are the tuples of element indices, with
    group-ring coefficients over the original group).

    The section sends EVERY element, including the identity, to its letter:
    the identity letter is an honest generator and h0(1) is a loop at the
    base point rather than the constant path.  Collapsing the identity
    letter breaks the level-2 retraction identity on paths that read it,
    so the uncollapsed convention is the one whose homotopy checks close
    exactly (degenerate tuples containing the identity are likewise kept).
    """

    __slots__ = ("graph", "letters", "elt_of_letter", "pair_names",
                 "pair_of_name", "presentation")

    def __init__(self, graph: CayleyGraph):
        self.graph = graph
        self.letters = [self._letter_text(g) for g in range(graph.order)]
        self.elt_of_letter = {name: g for g, name in enumerate(self.letters)}
        self.pair_names = {}
        relators = []
        for a in range(graph.order):
            for b in range(graph.order):
                name = f"[{self._body(a)}|{self._body(b)}]"
                self.pair_names[(a, b)] = name
                relators.append((name, self.delta2(a, b)))
        self.pair_of_name = {name: ab for ab, name in self.pair_names.items()}
        self.presentation = Presentation(self.letters, relators)

    def _body(self, g: int) -> str:
        w = self.graph.word_rep[g]
        return "_".join(name for name, _ in w.letters) if w.letters else "1"

    def _letter_text(self, g: int) -> str:
        return f"[{self._body(g)}]"

    def letter_word(self, g: int, sign: int = 1) -> Word:
        return word(self.letters[g], sign)

    def phi_word(self, w: Word) -> int:
        """Evaluate a word over the letter alphabet in the group."""
        g = 0
        for name, sign in w:
            h = self.elt_of_letter[name]
            g = self.graph.mult(g, h if sign == 1 else self.graph.inv_elt(h))
        return g

    def sigma(self, a: int) -> Word:
        return self.letter_word(a)

    def h0(self, a: int) -> Word:
        """The path a -> 1: the inverse letter of a, read at base a."""
        return self.letter_word(a, -1)

    # -- boundaries ---------------------------------------------------

    def delta2(self, a: int, b: int) -> Word:
        ab = self.graph.mult(a, b)
        return self.letter_word(a) * self.letter_word(b) * self.letter_word(ab, -1)

    def delta3(self, a: int, b: int, c: int) -> CrossedElt:
        g = self.graph
        ab, bc = g.mult(a, b), g.mult(b, c)
        return CrossedElt((
            (self.pair_names[(a, bc)], 1, EMPTY),
            (self.pair_names[(ab, c)], -1, EMPTY),
            (self.pair_names[(a, b)], -1, EMPTY),
            (self.pair_names[(b, c)], 1, self.letter_word(a, -1)),
        ))

    def delta3_ab(self, a: int, b: int, c: int) -> ModuleElt:
        """delta3 abelianised onto pair symbols (a factor conjugated by the
        inverse letter of a lands at the group element a^-1)."""
        g = self.graph
        return (unit((a, g.mult(b, c))) + unit((g.mult(a, b), c), 0, -1)
                + unit((a, b), 0, -1) + unit((b, c), g.inv_elt(a)))

    def delta_n(self, tup) -> ModuleElt:
        """Alternating-sum boundary of a tuple of length >= 4: drop the
        head against the action, merge each adjacent pair, drop the tail."""
        g = self.graph
        total = ModuleElt({tup[1:]: GroupRingElt({g.inv_elt(tup[0]): 1})})
        sign = -1
        for i in range(len(tup) - 1):
            merged = tup[:i] + (g.mult(tup[i], tup[i + 1]),) + tup[i + 2:]
            total = total + unit(merged, 0, sign)
            sign = -sign
        return total + unit(tup[:-1], 0, sign)

    def delta(self, n: int, tup):
        """Boundary of the level-n basis tuple: a Word for n = 2, a crossed
        element for n = 3, a module element for n >= 4."""
        tup = tuple(tup)
        if n < 2 or len(tup) != n:
            raise ValueError(f"level {n} boundary needs an {n}-tuple, got {tup!r}")
        if n == 2:
            return self.delta2(*tup)
        if n == 3:
            return self.delta3(*tup)
        return self.delta_n(tup)

    # -- contracting homotopy ------------------------------------------

    def h1(self, a: int, w: Word) -> CrossedElt:
        """h1 of the path starting at a and reading w: one pair generator
        per edge traversed, inverted on backward traversals."""
        out = []
        v = a
        for name, sign in w:
            b = self.elt_of_letter[name]
            if sign == 1:
                out.append((self.pair_names[(v, b)], 1, EMPTY))
                v = self.graph.mult(v, b)
            else:
                v = self.graph.mult(v, self.graph.inv_elt(b))
                out.append((self.pair_names[(v, b)], -1, EMPTY))
        return CrossedElt(out)

    def h2(self, a: int, c: CrossedElt) -> ModuleElt:
        """Lift of a consequence based at a, factor by factor: a pair
        factor conjugated by u is read at base a.phi(u)^-1."""
        total = ZERO_MODULE
        for name, sign, u in c.factors:
            base = self.graph.mult(a, self.graph.inv_elt(self.phi_word(u)))
            b, c2 = self.pair_of_name[name]
            total = total + unit((base, b, c2), 0, sign)
        return total

    def h(self, n: int, a: int, m: ModuleElt) -> ModuleElt:
        """Additive homotopy on module elements over n-tuples (n >= 3)
        based at a: each term e_tau . g' lifts to (a.g'^-1,) + tau."""
        total = ZERO_MODULE
        for tau, ring in m.items():
            for gp, coeff in ring.items():
                head = self.graph.mult(a, self.graph.inv_elt(gp))
                total = total + unit((head,) + tau, 0, coeff)
        return total


# ---------------------------------------------------------------------------
# executable checks


def bar_check_boundaries(bar: BarResolution, samples: int = 50,
                         seed: int = 0) -> list:
    """delta.delta = 0: exhaustive at the crossed level (boundary2 of every
    triple's boundary freely reduces to the empty word) and at the first
    module level (every quadruple), then sampled one level higher."""
    graph = bar.graph
    G = range(graph.order)
    failures = []
    for a in G:
        for b in G:
            for c in G:
                w = boundary2(bar.delta3(a, b, c), bar.presentation)
                if not w.is_empty():
                    failures.append(
                        f"boundary2 of delta3{(a, b, c)} is {w.render()!r}")
    ab3 = {(a, b, c): bar.delta3_ab(a, b, c) for a in G for b in G for c in G}
    for a in G:
        for b in G:
            for c in G:
                for d in G:
                    if apply_map(graph, ab3, bar.delta_n((a, b, c, d))):
                        failures.append(f"delta3(delta4{(a, b, c, d)}) != 0")
    ab4 = {}
    rng = random.Random(seed)
    for _ in range(samples):
        tup = tuple(rng.randrange(graph.order) for _ in range(5))
        for quad in bar.delta_n(tup).coords:
            if quad not in ab4:
                ab4[quad] = bar.delta_n(quad)
        if apply_map(graph, ab4, bar.delta_n(tup)):
            failures.append(f"delta4(delta5{tup}) != 0")
    return failures


def bar_check_homotopy(bar: BarResolution, samples: int = 200,
                       seed: int = 0) -> list:
    """Replay the retraction identities of the contracting homotopy:

      * every h0 path ends at the base point and starts at its element;
      * the boundary of h1 of a path equals the path conjugated into the
        base point (checked on all edges and on random longer paths);
      * the boundary of the lift of a based pair equals the h1-corrected
        conjugate of that pair (exhaustive);
      * the boundary of the lift of a based n-tuple equals minus the lift
        of its boundary plus its translate (exhaustive for n = 3, sampled
        for n = 4);
      * lifts are invariant under conjugating the base along any path.
    """
    graph = bar.graph
    G = range(graph.order)
    rng = random.Random(seed)
    failures = []

    def random_word(length):
        letters = []
        for _ in range(length):
            letters.append((bar.letters[rng.randrange(graph.order)],
                            rng.choice((1, -1))))
        return Word(letters)

    # h0 paths end at the base point
    for a in G:
        if graph.mult(a, bar.phi_word(bar.h0(a))) != 0:
            failures.append(f"h0 path of element {a} misses the base point")

    # level-1 retraction: boundary of h1(path) = sigma(source).path.sigma(target)^-1
    def check_path(a, w):
        target = graph.mult(a, bar.phi_word(w))
        got = boundary2(bar.h1(a, w), bar.presentation)
        want = bar.sigma(a) * w * bar.sigma(target).inv()
        if got != want:
            failures.append(
                f"h1 retraction fails at base {a} on {w.render()!r}")

    for a in G:
        for b in G:
            check_path(a, bar.letter_word(b))
            check_path(a, bar.letter_word(b, -1))
    for _ in range(samples):
        check_path(rng.randrange(graph.order), random_word(rng.randrange(1, 7)))

    # level-2 retraction: delta3 of the lifted pair = (h1 delta2)^-1 . pair^h0
    for a in G:
        for b in G:
            for c in G:
                lhs = bar.delta3(a, b, c)
                pair = CrossedElt(((bar.pair_names[(b, c)], 1, bar.h0(a)),))
                rhs = mult(inv(bar.h1(a, bar.delta2(b, c))), pair)
                if lhs != rhs:
                    failures.append(f"level-2 retraction fails at {(a, b, c)}")

    # level-3 retraction, exhaustive: delta4 of the lift = -h2(delta3) + translate
    for a in G:
        for b in G:
            for c in G:
                for d in G:
                    lhs = bar.delta_n((a, b, c, d))
                    rhs = (-bar.h2(a, bar.delta3(b, c, d))
                           + unit((b, c, d), graph.inv_elt(a)))
                    if lhs != rhs:
                        failures.append(
                            f"level-3 retraction fails at {(a, b, c, d)}")

    # level-4 retraction, sampled
    for _ in range(samples):
        a = rng.randrange(graph.order)
        quad = tuple(rng.randrange(graph.order) for _ in range(4))
        lhs = bar.delta_n((a,) + quad)
        rhs = -bar.h(3, a, bar.delta_n(quad)) + unit(quad, graph.inv_elt(a))
        if lhs != rhs:
            failures.append(f"level-4 retraction fails at {(a,) + quad}")

    # conjugation invariance of the lifts
    for a in G:
        for b in G:
            for c in G:
                want = unit((a, b, c))
                for g in G:
                    moved = CrossedElt(
                        ((bar.pair_names[(b, c)], 1, bar.letter_word(g)),))
                    if bar.h2(graph.mult(a, g), moved) != want:
                        failures.append(
                            f"pair lift moves under conjugation at {(a, b, c, g)}")
                        break
    for _ in range(samples):
        a = rng.randrange(graph.order)
        tau = tuple(rng.randrange(graph.order) for _ in range(3))
        w = random_word(rng.randrange(0, 5))
        g = bar.phi_word(w)
        moved = ModuleElt({tau: GroupRingElt({g: 1})})
        if bar.h(3, graph.mult(a, g), moved) != unit((a,) + tau):
            failures.append(
                f"tuple lift moves under conjugation at base {a} along "
                f"{w.render()!r}")
    return failures


# ---------------------------------------------------------------------------
# the small periodic resolution of a finite cyclic group


def cyclic_ring(graph: CayleyGraph, n: int) -> GroupRingElt:
    """The ring element multiplying the previous generator in the periodic
    boundary at level n >= 3: (t - 1) at odd levels, 1 + t + ... + t^{r-1}
    at even levels, where t is the image of the single generator."""
    if n < 3:
        raise ValueError("the ring pattern starts at level 3")
    if n % 2:
        t = graph.fwd[0][0]
        return GroupRingElt({t: 1, 0: -1})
    return GroupRingElt({g: 1 for g in range(graph.order)})


def cyclic_resolution(r: int, n_max: int, max_cosets: int = 100000) -> ResolutionState:
    """The rank-one resolution of the cyclic group of order r, through
    level n_max, built directly from its closed form: level 2 is the free
    crossed module on the single relator x^r, and each higher level has one
    generator whose boundary is the previous generator times the periodic
    ring element.  The retraction tables replay the closed-form homotopy,
    so verify_state passes at every level."""
    if r < 2:
        raise ValueError("cyclic order must be at least 2")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    pres = Presentation(("x",), (("r", Word((("x", 1),) * r)),))
    graph = enumerate_presentation(pres, max_cosets)
    tree = bfs_tree(graph)
    contraction = Contraction0(graph, tree)
    state = ResolutionState(pres, graph, tree, contraction,
                            build_h1(contraction))
    for n in range(3, n_max + 1):
        _add_cyclic_level(state, n)
    return state


def _add_cyclic_level(state: ResolutionState, n: int):
    graph = state.graph
    r = graph.order
    t = graph.fwd[0][0]
    prev = "r" if n == 3 else f"b{n - 1}_1"
    sym = f"b{n}_1"
    odd = bool(n % 2)

    def tpow(i):
        g = 0
        for _ in range(i % r):
            g = graph.mult(g, t)
        return g

    def nring(i):
        """1 + t + ... + t^{i-1}."""
        out: dict = {}
        for j in range(i):
            g = tpow(j)
            out[g] = out.get(g, 0) + 1
        return GroupRingElt(out)

    candidates, xi, symbol_of_tag = [], {}, {}
    accepted_i = r - 1 if odd else 1
    boundary_ring = (GroupRingElt({t: 1, 0: -1}) if odd else nring(r))
    boundary = {sym: ModuleElt({prev: boundary_ring})}
    crossed_forms = {} if n == 3 else None
    basis = []
    for i in range(r):
        tag = (tpow(i), prev)
        if odd:
            ring = GroupRingElt({tpow(r - i): 1}) + GroupRingElt({0: -1})
            form = ModuleElt({prev: ring})
            xi[tag] = ModuleElt({sym: nring(r - i)}) if i else ZERO_MODULE
        else:
            form = ModuleElt({prev: nring(r)}) if i == 1 else ZERO_MODULE
            xi[tag] = unit(sym) if i == 1 else ZERO_MODULE
        crossed = None
        if n == 3:
            crossed = CrossedElt((("r", -1, EMPTY),
                                  ("r", 1, Word((("x", -1),) * i))))
        candidates.append(Candidate(tag, form, crossed))
        if i == accepted_i:
            symbol_of_tag[tag] = sym
            basis.append((sym, tag))
            if n == 3:
                crossed_forms[sym] = crossed
        else:
            symbol_of_tag[tag] = None
    state.levels[n] = Level(n, [prev], basis, boundary, crossed_forms,
                            candidates, xi, symbol_of_tag)
