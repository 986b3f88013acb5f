"""Logged filling: express a word with phi(w) = 1 as a consequence of the
relators, i.e. find a CrossedElt whose boundary2 is exactly w.

The search applies "logged relator moves": replace a subword m of the
current word that is a prefix of some cyclic rotation a^-1 (omega r)^e a by
the inverse of the rotation's remainder, logging the factor (r, e, a.p^-1)
for current prefix p.  Each move is exact:

    w = p.m.s  and  m.c = a^-1 (omega r)^e a
    ==>  w = [u^-1 (omega r)^e u] . reduce(p.c^-1.s)   with u = reduce(a.p^-1)

so the accumulated factors always have boundary2 equal to the original word.
Iterative deepening over the number of moves makes the result deterministic
and (within limits) the shortest-derivation filling under the documented
tie-break: resulting length, leftmost position, relator declaration order,
positive before negative, rotation offset, match length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossed import CrossedElt, IDENTITY_CROSSED, boundary2, inv, mult
from .group_core import Contraction0
from .inputs import h1_entries, whole_file
from .words import Word, word


class FillError(RuntimeError):
    pass


@dataclass(frozen=True)
class FillLimits:
    max_depth: int = 64
    max_length_factor: int = 4
    node_budget: int = 200000


DEFAULT_LIMITS = FillLimits()


def _rotations(pres):
    """(relator index, name, sign, conjugator a, rotation letter tuple) for
    every cyclic rotation of every signed relator."""
    out = []
    for ri, (name, w) in enumerate(pres.relators):
        for sign in (1, -1):
            base = w.letters if sign == 1 else w.inv().letters
            for k in range(len(base)):
                a = Word(base[:k])
                out.append((ri, name, sign, a, base[k:] + base[:k]))
    return out


def _join(x, y):
    """Free reduction of x.y, for freely reduced x and y with letters coded
    as signed integers: only the junction can cancel."""
    if not x or not y or x[-1] != -y[0]:
        return x + y
    k = 1
    n = min(len(x), len(y))
    while k < n and x[-1 - k] == -y[k]:
        k += 1
    return x[:-k] + y[k:]


def fill_loop(pres, w: Word, limits: FillLimits = DEFAULT_LIMITS) -> CrossedElt:
    """Find c with boundary2(c) = w, by iterative-deepening logged rewriting.

    Raises FillError when no filling is found within limits (the word may
    then be given more depth, or supplied through an h1 override file).
    The caller is responsible for phi(w) = 1; a filling found here proves
    it, and no filling exists otherwise.
    """
    if w.is_empty():
        return IDENTITY_CROSSED
    # The search codes a letter as +-(generator index + 1), so that the
    # inverse of a letter is its negation.
    names = tuple(dict.fromkeys(pres.generators + tuple(n for n, _ in w)))
    code = {name: k + 1 for k, name in enumerate(names)}

    def encode(letters):
        return tuple(code[n] * s for n, s in letters)

    def decode(letters):
        return Word((names[abs(c) - 1], 1 if c > 0 else -1) for c in letters)

    # Only a rotation that starts with letters[i] matches at position i.
    # tails[m] is the freely reduced inverse of rot[m:], which replaces a
    # match of length m; free reduction is confluent, so reducing it here
    # leaves every child as it was.
    starts: dict[int, list] = {}
    for ri, name, sign, a, rot in _rotations(pres):
        tails = [encode(Word(rot[m:]).inv().letters) for m in range(len(rot) + 1)]
        starts.setdefault(code[rot[0][0]] * rot[0][1], []).append(
            (encode(rot), tails, ri, 0 if sign == 1 else 1, len(a), (name, sign, a)))
    max_length = max(limits.max_length_factor * len(w), 8)
    budget = limits.node_budget

    def children(letters):
        """(sort key, match count, child, move, position) for every rotation
        that matches at a position and gives a child within max_length.

        Matches of length 1..m of one rotation at position i all give the
        child p.rot^-1.p^-1.letters (p = letters[:i]) freely reduced, so it
        is built once and stands for m moves.  Their keys (length,
        position, relator, sign, rotation offset, match length) differ only
        in the last entry, so the m moves are adjacent in the sorted walk
        and the key kept here leaves the match length out."""
        found = []
        L = len(letters)
        for i in range(L):
            p = letters[:i]
            for rot, tails, ri, flag, offset, move in starts.get(letters[i], ()):
                top = min(len(rot), L - i)
                m = 1
                while m < top and letters[i + m] == rot[m]:
                    m += 1
                child = _join(_join(p, tails[m]), letters[i + m:])
                if len(child) <= max_length:
                    found.append(((len(child), i, ri, flag, offset), m, child, move, i))
        return found

    def logged(move, i, letters, rest):
        name, sign, a = move
        return [(name, sign, a * decode(letters[:i]).inv())] + rest

    def overspent(letters):
        return FillError(
            f"filling search for {decode(letters).render()!r} exceeded "
            f"the node budget (node_budget={limits.node_budget})")

    def dfs(letters, remaining, memo):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise overspent(letters)
        if not letters:
            return []
        if remaining == 0:
            return None
        seen = memo.get(letters)
        if seen is not None and seen >= remaining:
            return None
        memo[letters] = remaining
        found = children(letters)
        if remaining == 1:
            # Every move leads to a leaf that costs one node.  An empty
            # child sorts first and ends the search; otherwise the walk
            # would find nothing.  When the budget cannot pay for every
            # move, the sorted walk below names the word it runs out on.
            moves = sum(t[1] for t in found)
            if moves <= budget:
                empty = [t for t in found if not t[2]]
                if empty:
                    budget -= 1
                    _, _, _, move, i = min(empty, key=lambda t: t[0])
                    return logged(move, i, letters, [])
                budget -= moves
                return None
        found.sort(key=lambda t: t[0])
        for _, m, child, move, i in found:
            rest = dfs(child, remaining - 1, memo)
            if rest is not None:
                return logged(move, i, letters, rest)
            # The other m - 1 moves revisit the same child at the same
            # depth: a leaf, or a word memo now stops.  Each costs one node.
            budget -= m - 1
            if budget < 0:
                raise overspent(child)
        return None

    for depth in range(1, limits.max_depth + 1):
        factors = dfs(encode(w.letters), depth, {})
        if factors is not None:
            result = CrossedElt(factors)
            assert boundary2(result, pres) == w
            return result
    raise FillError(
        f"filling not found within limits for {w.render()!r} "
        f"(max_depth={limits.max_depth})")


class H1Table:
    """h1 on the arrows of the Cayley graph: the empty consequence on tree
    arrows, a chosen filling of rho(edge) on every other arrow; extended to
    all of F(X) at every base by the morphism law."""

    __slots__ = ("contraction", "entries")

    def __init__(self, contraction: Contraction0, entries):
        graph = contraction.graph
        for (g, k), c in entries.items():
            expected = contraction.rho(g, word(graph.gens[k]))
            got = boundary2(c, graph.presentation)
            if got != expected:
                raise ValueError(
                    f"h1 entry at edge ({graph.elt_name(g)!r}, {graph.gens[k]}) has "
                    f"boundary {got.render()!r}, expected {expected.render()!r}")
        for g in range(graph.order):
            for k in range(len(graph.gens)):
                if (g, k) not in contraction.tree and (g, k) not in entries:
                    raise ValueError(
                        f"missing h1 entry for non-tree edge "
                        f"({graph.elt_name(g)!r}, {graph.gens[k]})")
        self.contraction = contraction
        self.entries = dict(entries)

    @property
    def graph(self):
        return self.contraction.graph


def build_h1(contraction: Contraction0, source="search",
             limits: FillLimits = DEFAULT_LIMITS) -> H1Table:
    """Build the h1 table: `source` is "search" (fill every non-tree edge's
    rho by fill_loop) or the path of an h1 file (format in `inputs`)."""
    graph = contraction.graph
    if source == "search":
        entries = {}
        for g in range(graph.order):
            for k in range(len(graph.gens)):
                if (g, k) in contraction.tree:
                    continue
                loop = contraction.rho(g, word(graph.gens[k]))
                try:
                    entries[(g, k)] = fill_loop(graph.presentation, loop, limits)
                except FillError as exc:
                    raise FillError(
                        f"h1 search failed at edge ({graph.elt_name(g)!r}, "
                        f"{graph.gens[k]}): {exc}") from None
        return H1Table(contraction, entries)
    entries = h1_entries(source, contraction)
    with whole_file(source):
        return H1Table(contraction, entries)


def h1_eval(table: H1Table, g: int, u: Word) -> CrossedElt:
    """h1 of the path that starts at g and reads u, by the morphism law
    h1(g, uv) = h1(g, u) . h1(g.phi(u), v).  Tree arrows contribute
    nothing; a reversed arrow contributes the inverse of its entry."""
    graph = table.graph
    out = IDENTITY_CROSSED
    v = g
    for name, sign in u:
        k = graph.gen_index(name)
        if sign == 1:
            entry = table.entries.get((v, k))
            if entry is not None:
                out = mult(out, entry)
            v = graph.fwd[v][k]
        else:
            v = graph.bwd[v][k]
            entry = table.entries.get((v, k))
            if entry is not None:
                out = mult(out, inv(entry))
    return out
