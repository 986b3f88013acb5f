"""Logged filling: express a word with φ(w) = 1 as a consequence of the
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

Every node visited counts against the node budget.  The moves come from a
table of the distinct rotations of the signed relators, each listing its
copies: a relator that is a proper power, such as x^6 or (xy)^2, has equal
rotations, and they match alike and give the same children.  The search
builds each distinct rotation's child once per position, visits it for
the first copy and charges the later copies' nodes in place, since a
revisit at the same depth can only cost one node and fail (the argument
is in fill_loop).  At the last depth of an iteration each move leads to a
leaf that costs one node, so the search counts those moves instead of
building their children, unless a child might exceed the length limit
or be empty.  A child is empty only when the word is a reduced conjugate
of a relator's rotation, and then the word's cyclic reduction is a
cyclic rotation of the signed relator's.  Where neither can happen, one
pass of an automaton over the word counts every move: the trie of the
distinct rotations with the failure transitions of Aho and Corasick.
Every other word is walked as at the depths above.  The rotation table
and the automaton are built once per build_h1 call and shared by its
fill_loop calls; they are never kept beyond that call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .crossed import CrossedElt, IDENTITY_CROSSED, boundary2
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


def _cyclic_core(letters):
    """The cyclic reduction of a freely reduced coded word."""
    n, k = len(letters), 0
    while 2 * k + 1 < n and letters[k] == -letters[n - 1 - k]:
        k += 1
    return letters[k:n - k]


def _rotation_table(pres):
    """The moves of fill_loop on `pres`, whatever word it fills: each
    distinct cyclic rotation of the signed relators, keyed by its first
    letter.

    A letter is coded as +-(generator index + 1), so that the inverse of a
    letter is its negation.  table[c] lists the distinct rotations that
    start with c, in the key order of their first copies, each as
    (rotation, tails, grow, core, copies):
    - tails[m] is the freely reduced inverse of rot[m:], which replaces a
      match of length m; free reduction is confluent, so reducing it here
      leaves every child as it was.  grow[m] = len(tails[m]) - m.
    - core is the cyclic reduction of the signed relator.  Every reduced
      conjugate of the rotation has a cyclic rotation of core as its own
      cyclic reduction (Lyndon and Schupp, Combinatorial Group Theory,
      ch. I).
    - copies lists (relator index, sign flag, rotation offset, logged move)
      for every signed rotation equal to this one (x^6 has six), in key
      order.  Copies match alike and give the same children."""
    code = {name: k + 1 for k, name in enumerate(pres.generators)}

    def encode(letters):
        return tuple(code[n] * s for n, s in letters)

    table: dict[int, list] = {}
    copies_of: dict[tuple, list] = {}
    for ri, (name, w) in enumerate(pres.relators):
        for flag, base in enumerate((w.letters, w.inv().letters)):
            core = _cyclic_core(encode(base))
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                coded = encode(rot)
                copy = (ri, flag, k, (name, 1 - 2 * flag, Word(base[:k])))
                if coded in copies_of:
                    copies_of[coded].append(copy)
                    continue
                tails = [encode(Word(rot[m:]).inv().letters)
                         for m in range(len(rot) + 1)]
                grow = [len(t) - m for m, t in enumerate(tails)]
                copies_of[coded] = copies = [copy]
                table.setdefault(coded[0], []).append(
                    (coded, tails, grow, core, copies))
    return table


def _rotation_automaton(table):
    """(automaton, cores, reach): what the last depth of fill_loop needs
    to count its moves on the rotation table `table` in one pass over a
    word, without matching each rotation at each position.
    - automaton is the trie of the distinct rotations, as nested dicts
      keyed by letter, completed with the failure transitions of Aho and
      Corasick (Comm. ACM 18(6), 1975).  Reading a word's letters from the
      root, one transition a letter (a letter in no rotation leads back to
      the root), reaches after each letter the node of the longest suffix
      read so far that starts some rotation.  Under the key 0 (no letter
      is coded 0) each node holds the number of copies of the rotations
      that start with its letters, summed over it and every shorter
      suffix of its letters that is a node too.  A rotation matching m
      letters at a position is then counted once at each of those m
      letters, as fill_loop counts its moves.
    - cores is the set of the cyclic rotations of every core: the cyclic
      reductions a word must have for a move to leave it empty.
    - reach is the largest grow[m] over every rotation and match length
      m >= 1: no child is longer than its word by more."""
    root: dict = {0: 0}
    alphabet: set = set()
    cores, reach = set(), 0
    for entries in table.values():
        for rot, _, grow, core, copies in entries:
            node = root
            for c in rot:
                node = node.setdefault(c, {0: 0})
                node[0] += len(copies)
            alphabet.update(rot)
            cores.update(core[k:] + core[:k] for k in range(len(core)))
            reach = max(reach, *grow[1:])
    # Breadth first, so that a node's failure node (the node of its
    # longest proper suffix) is complete, transitions and count, before
    # the node is reached.  Each letter of a rotation starts another
    # rotation, so every letter of the alphabet is a child of the root.
    queue = deque((root[c], root) for c in alphabet)
    while queue:
        node, fail = queue.popleft()
        node[0] += fail[0]
        for c in alphabet:
            if c in node:
                queue.append((node[c], fail[c]))
            else:
                node[c] = fail[c]
    return root, cores, reach


def fill_loop(pres, w: Word, limits: FillLimits = DEFAULT_LIMITS,
              rotations=None, automaton=None) -> CrossedElt:
    """Find c with boundary2(c) = w, by iterative-deepening logged rewriting.

    Raises FillError when no filling is found within limits (the word may
    then be given more depth, or supplied through an h1 override file).
    The caller is responsible for φ(w) = 1; a filling found here proves
    it, and no filling exists otherwise.

    `rotations` is `_rotation_table(pres)` and `automaton` is
    `_rotation_automaton(rotations)`; build_h1 builds them once for all its
    calls, and a call without them builds its own.  A letter of w that is
    not a generator gets the next free code here and matches no rotation.

    Above the last depth the children of a word are sorted by key and
    walked.  Equal rotations (copies) give one child, built once, and only
    the first copy in key order calls dfs on it; a later copy is charged
    its m nodes in place.  That is exact: within one depth iteration memo
    values only rise, so once dfs(child, r) has returned None, a second
    call on the same child costs one node and returns None (the memo stops
    it, or depth 0 does), and the other m - 1 match lengths cost one node
    each.  When the budget runs out on those nodes, the word named is the
    same child either way.

    At the last depth every move leads to a leaf that costs one node, so
    the moves are counted, not visited, wherever no child can be too long
    or empty.  A child can be too long only where reach, the largest
    grow[m], exceeds max_length - L.  The child p.tails[m].s of letters =
    p.rot[:m].s is empty exactly when p.rot[m:]^-1.s = 1 in the free
    group, that is, when letters is the reduced conjugate p.rot.p^-1 of
    the rotation, whose cyclic reduction is a cyclic rotation of the
    relator's core: a child can be empty only when the cyclic reduction of
    letters is in cores.  Where neither can happen, one pass of the
    automaton over letters counts the moves: each letter adds the copies
    of every rotation matched up to it from an earlier or the same
    position, so a rotation matching m letters is counted m times, once
    per move.  Every other word, and every word whose moves the budget
    cannot pay for, is walked as at any other depth: an empty child sorts
    first and ends the search after one node, and otherwise the walk
    charges each move one node, as the count does, or names the word the
    budget runs out on.
    """
    if w.is_empty():
        return IDENTITY_CROSSED
    table = _rotation_table(pres) if rotations is None else rotations
    root, cores, reach = (_rotation_automaton(table) if automaton is None
                          else automaton)
    get, join = table.get, _join
    names = tuple(dict.fromkeys(pres.generators + tuple(n for n, _ in w)))
    code = {name: k + 1 for k, name in enumerate(names)}

    def encode(letters):
        return tuple(code[n] * s for n, s in letters)

    def decode(letters):
        return Word((names[abs(c) - 1], 1 if c > 0 else -1) for c in letters)

    max_length = max(limits.max_length_factor * len(w), 8)
    budget = limits.node_budget

    def children(letters):
        """(length, position, relator, sign flag, rotation offset, match
        count, child, move, first) for every signed rotation that matches
        at a position and gives a child within max_length.  The first five
        entries are the sort key, and no two tuples share them.

        Matches of length 1..m of one rotation at position i all give the
        child p.rot^-1.p^-1.letters (p = letters[:i]) freely reduced, so it
        is built once and stands for m moves.  Their keys differ only in
        the match length, so the m moves are adjacent in the sorted walk
        and the key kept here leaves the match length out.  Equal rotations
        share the child too; `first` marks the least of their copies."""
        found = []
        add = found.append
        L = len(letters)
        for i, c in enumerate(letters):
            entries = get(c)
            if entries is None:
                continue
            p = letters[:i]
            left = L - i
            for rot, tails, _, _, copies in entries:
                top = len(rot)
                if left < top:
                    top = left
                m = 1
                while m < top and letters[i + m] == rot[m]:
                    m += 1
                child = join(join(p, tails[m]), letters[i + m:])
                length = len(child)
                if length <= max_length:
                    first = True
                    for ri, flag, offset, move in copies:
                        add((length, i, ri, flag, offset, m, child, move, first))
                        first = False
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
        if (remaining == 1 and reach <= max_length - len(letters)
                and _cyclic_core(letters) not in cores):
            # Every move leads to a leaf that costs one node, and none is
            # empty, so the walk below would find nothing but the word the
            # budget runs out on, if it cannot pay for every move.
            moves, node = 0, root
            for c in letters:
                node = node.get(c, root)
                moves += node[0]
            if moves <= budget:
                budget -= moves
                return None
        found = children(letters)
        found.sort()
        for _, i, _, _, _, m, child, move, first in found:
            if first:
                rest = dfs(child, remaining - 1, memo)
                if rest is not None:
                    return logged(move, i, letters, rest)
                m -= 1
            # Every other move revisits a child dfs has just left at the
            # same depth: a leaf, or a word memo now stops.  Each costs one
            # node.
            budget -= m
            if budget < 0:
                raise overspent(child)
        return None

    for depth in range(1, limits.max_depth + 1):
        factors = dfs(encode(w.letters), depth, {})
        if factors is not None:
            result = CrossedElt(factors)
            got = boundary2(result, pres)
            if got != w:
                raise RuntimeError(
                    f"filling found for {w.render()!r} has boundary "
                    f"{got.render()!r}")
            return result
    raise FillError(
        f"filling not found within limits for {w.render()!r} "
        f"(max_depth={limits.max_depth})")


class H1Table:
    """h1 on the arrows of the Cayley graph: the empty consequence on tree
    arrows, a chosen filling of rho(edge) on every other arrow; extended to
    all of F(X) at every base by the morphism law.  Refused, whoever builds
    it: an entry on a tree arrow, a wrong boundary, a missing entry."""

    __slots__ = ("contraction", "entries")

    def __init__(self, contraction: Contraction0, entries):
        graph = contraction.graph
        for (g, k), c in entries.items():
            if (g, k) in contraction.tree:
                raise ValueError(
                    f"h1 entry at tree edge ({graph.elt_name(g)!r}, "
                    f"{graph.gens[k]}): h1 is the empty consequence there")
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
        # One rotation table and automaton for every fill_loop call of
        # this build, and no longer: kept past the call, they would keep
        # its presentation.
        rotations = _rotation_table(graph.presentation)
        automaton = _rotation_automaton(rotations)
        entries = {}
        for g in range(graph.order):
            for k in range(len(graph.gens)):
                if (g, k) in contraction.tree:
                    continue
                loop = contraction.rho(g, word(graph.gens[k]))
                try:
                    entries[(g, k)] = fill_loop(graph.presentation, loop, limits,
                                                rotations, automaton)
                except FillError as exc:
                    raise FillError(
                        f"h1 search failed at edge ({graph.elt_name(g)!r}, "
                        f"{graph.gens[k]}): {exc}") from None
        return H1Table(contraction, entries)
    entries = h1_entries(source, contraction)
    with whole_file(source):
        return H1Table(contraction, entries)


def h1_eval(table: H1Table, g: int, u: Word, tail=()) -> CrossedElt:
    """h1 of the path that starts at g and reads u, by the morphism law
    h1(g, uv) = h1(g, u) . h1(g.φ(u), v), followed by the factors `tail`:
    the entries' factors, inverted on reversed arrows, concatenated and
    reduced once (reduction is confluent).  Tree arrows have no entry and
    contribute nothing."""
    graph, factors, v = table.graph, [], g
    for name, sign in u:
        k = graph.gen_index(name)
        if sign == 1:
            factors += table.entries.get((v, k), IDENTITY_CROSSED).factors
            v = graph.fwd[v][k]
        else:
            v = graph.bwd[v][k]
            entry = table.entries.get((v, k), IDENTITY_CROSSED)
            factors += [(r, -e, w) for r, e, w in reversed(entry.factors)]
    factors += tail
    return CrossedElt(factors)
