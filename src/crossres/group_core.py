"""Finite groups from presentations: coset enumeration, Cayley graph,
maximal trees, and the degree-0 contraction (section sigma, retraction rho).

The group is always the full group of the presentation (enumeration over the
trivial subgroup), so the coset table IS the Cayley graph: vertices are
element indices with 0 = identity, and (g, x) is the arrow g -> g.phi(x).
"""

from __future__ import annotations

from .words import EMPTY, GroupRingElt, Word, parse_word, validate_generator_name, word


class PresentationError(ValueError):
    pass


class EnumerationOverflow(RuntimeError):
    pass


class TableError(ValueError):
    pass


class TreeError(ValueError):
    pass


class Presentation:
    """A finite presentation <X | R> with named relators."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        gens = tuple(generators)
        for name in gens:
            try:
                validate_generator_name(name)
            except ValueError as exc:
                raise PresentationError(str(exc)) from None
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        rels = tuple((name, w) for name, w in relators)
        seen = set()
        for name, w in rels:
            if not name or any(ch.isspace() for ch in name):
                raise PresentationError(f"invalid relator name {name!r}")
            if name in seen:
                raise PresentationError(f"duplicate relator name {name!r}")
            seen.add(name)
            if w.is_empty():
                raise PresentationError(f"relator {name!r} is empty")
            for gname, _ in w:
                if gname not in gens:
                    raise PresentationError(
                        f"relator {name!r} uses unknown generator {gname!r}")
        self.generators = gens
        self.relators = rels

    def relator_word(self, name: str) -> Word:
        for rname, w in self.relators:
            if rname == name:
                return w
        raise KeyError(f"unknown relator {name!r}")

    def relator_names(self):
        return [name for name, _ in self.relators]


_SENT = -1


class _Enumerator:
    """HLT-style coset enumeration over the trivial subgroup, with
    union-find coincidence handling.  Deterministic: rows are scanned in
    discovery order, relators in declaration order, and coincidences always
    keep the smaller label."""

    def __init__(self, ngens, max_cosets):
        self.ngens = ngens
        self.max_cosets = max_cosets
        self.labels: list[int] = []
        self.nb: list[list[int]] = []  # width 2*ngens; dir 2k = x_k, 2k+1 = x_k^-1
        self.live = 0
        self.add_vertex()

    def add_vertex(self) -> int:
        v = len(self.labels)
        self.labels.append(v)
        self.nb.append([_SENT] * (2 * self.ngens))
        self.live += 1
        if self.live > self.max_cosets:
            raise EnumerationOverflow(
                f"coset enumeration exceeded max_cosets = {self.max_cosets}; "
                "the group may be infinite or too large")
        return v

    def find(self, v: int) -> int:
        while self.labels[v] != v:
            self.labels[v] = self.labels[self.labels[v]]
            v = self.labels[v]
        return v

    def follow(self, v: int, d: int) -> int:
        v = self.find(v)
        if self.nb[v][d] == _SENT:
            w = self.add_vertex()
            self.nb[v][d] = w
            self.nb[w][d ^ 1] = v
        return self.find(self.nb[v][d])

    def unify(self, a: int, b: int):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.labels[b] = a
            self.live -= 1
            row_a, row_b = self.nb[a], self.nb[b]
            for d in range(2 * self.ngens):
                if row_b[d] == _SENT:
                    continue
                if row_a[d] == _SENT:
                    row_a[d] = row_b[d]
                else:
                    queue.append((row_a[d], row_b[d]))

    def scan(self, v: int, dirs):
        c = self.find(v)
        for d in dirs:
            c = self.follow(c, d)
        self.unify(c, self.find(v))

    def build(self, relator_dirs):
        while True:
            before = (len(self.labels), self.live)
            v = 0
            while v < len(self.labels):
                if self.find(v) == v:
                    for dirs in relator_dirs:
                        self.scan(v, dirs)
                v += 1
            # force a total action so the table is complete
            v = 0
            while v < len(self.labels):
                if self.find(v) == v:
                    for d in range(2 * self.ngens):
                        self.follow(v, d)
                v += 1
            if (len(self.labels), self.live) == before:
                return


class CayleyGraph:
    """The finite group as its Cayley graph on the presentation generators.

    fwd[g][k] / bwd[g][k] give g.phi(x_k) and g.phi(x_k)^-1; word_rep[g] is
    the breadth-first shortlex positive word for g (word_rep[0] is empty).
    _names[g] is word_rep[g] rendered, and _by_name inverts it.
    _right[b], once filled by mult, is the column h -> h.b.
    """

    __slots__ = ("presentation", "gens", "order", "fwd", "bwd", "word_rep", "_inv",
                 "_names", "_by_name", "_right")

    def __init__(self, presentation, fwd):
        self.presentation = presentation
        self.gens = presentation.generators
        self.order = len(fwd)
        self.fwd = fwd
        n, ngens = self.order, len(self.gens)
        bwd = [[_SENT] * ngens for _ in range(n)]
        for g in range(n):
            for k in range(ngens):
                bwd[fwd[g][k]][k] = g
        self.bwd = bwd
        self.word_rep = self._bfs_words()
        inv = [0] * n
        for g in range(n):
            inv[g] = self.eval_word(self.word_rep[g].inv())
        self._inv = inv
        self._names = [w.render() for w in self.word_rep]
        self._by_name = {name: g for g, name in enumerate(self._names)}
        self._right = [None] * n

    def _bfs_words(self):
        reps: list = [None] * self.order
        reps[0] = EMPTY
        queue = [0]
        for g in queue:
            for k, name in enumerate(self.gens):
                h = self.fwd[g][k]
                if reps[h] is None:
                    reps[h] = reps[g] * word(name)
                    queue.append(h)
        if any(r is None for r in reps):
            raise TableError("action is not transitive from the identity")
        return reps

    def gen_index(self, name: str) -> int:
        try:
            return self.gens.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def apply(self, g: int, k: int, sign: int) -> int:
        return self.fwd[g][k] if sign == 1 else self.bwd[g][k]

    def eval_word(self, w: Word, start: int = 0) -> int:
        g = start
        for name, sign in w:
            g = self.apply(g, self.gen_index(name), sign)
        return g

    def phi(self, w: Word) -> int:
        return self.eval_word(w, 0)

    def letter_elt(self, name: str, sign: int) -> int:
        return self.apply(0, self.gen_index(name), sign)

    def mult(self, a: int, b: int) -> int:
        col = self._right[b]
        if col is None:
            rep = self.word_rep[b]
            col = self._right[b] = [self.eval_word(rep, h) for h in range(self.order)]
        return col[a]

    def inv_elt(self, g: int) -> int:
        return self._inv[g]

    def elt_name(self, g: int) -> str:
        return self._names[g]

    def elt_by_name(self, text: str) -> int:
        """The element a word names: a canonical name (elt_name) is looked
        up, any other spelling is parsed and evaluated."""
        g = self._by_name.get(text)
        if g is None:
            g = self.phi(parse_word(text, self.gens))
        return g


def enumerate_presentation(pres: Presentation, max_cosets: int = 100000) -> CayleyGraph:
    """Coset enumeration of <X | R> over the trivial subgroup."""
    ngens = len(pres.generators)
    gen_index = {name: k for k, name in enumerate(pres.generators)}
    relator_dirs = [
        [2 * gen_index[name] + (0 if sign == 1 else 1) for name, sign in w]
        for _, w in pres.relators
    ]
    enum = _Enumerator(ngens, max_cosets)
    enum.build(relator_dirs)
    live = sorted(v for v in range(len(enum.labels)) if enum.find(v) == v)
    index = {v: i for i, v in enumerate(live)}
    fwd = [[index[enum.find(enum.nb[v][2 * k])] for k in range(ngens)] for v in live]
    graph = CayleyGraph(pres, fwd)
    _validate_graph(graph)
    return graph


def _validate_graph(graph: CayleyGraph):
    pres = graph.presentation
    for rname, w in pres.relators:
        for g in range(graph.order):
            if graph.eval_word(w, g) != g:
                raise TableError(
                    f"relator {rname} does not fix element {graph.elt_name(g)!r}")
    # Schreier elements t_g x t_{gx}^-1 must act trivially for the action
    # to be regular.
    for g in range(graph.order):
        for k, name in enumerate(pres.generators):
            h = graph.fwd[g][k]
            s = graph.word_rep[g] * word(name) * graph.word_rep[h].inv()
            for v in range(graph.order):
                if graph.eval_word(s, v) != v:
                    raise TableError(
                        f"action is not regular: Schreier element at "
                        f"({graph.elt_name(g)!r}, {name}) moves a point")


class MaximalTree:
    """A spanning tree of the Cayley graph, as a set of arrow pairs (g, k)
    meaning the arrow g -> fwd[g][k]."""

    __slots__ = ("edges",)

    def __init__(self, graph: CayleyGraph, edges):
        edges = frozenset(edges)
        if len(edges) != graph.order - 1:
            raise TreeError(
                f"tree needs {graph.order - 1} edges, got {len(edges)}")
        parent = list(range(graph.order))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for g, k in sorted(edges):
            h = graph.fwd[g][k]
            a, b = find(g), find(h)
            if a == b:
                raise TreeError(
                    f"tree edges contain a cycle through ({graph.elt_name(g)!r}, "
                    f"{graph.gens[k]})")
            parent[max(a, b)] = min(a, b)
        self.edges = edges

    def __contains__(self, edge):
        return edge in self.edges


def bfs_tree(graph: CayleyGraph) -> MaximalTree:
    """Deterministic spanning tree: breadth-first from the identity along
    forward arrows, generators in declaration order (shortlex)."""
    seen = [False] * graph.order
    seen[0] = True
    queue = [0]
    edges = []
    for g in queue:
        for k in range(len(graph.gens)):
            h = graph.fwd[g][k]
            if not seen[h]:
                seen[h] = True
                edges.append((g, k))
                queue.append(h)
    return MaximalTree(graph, edges)


class Contraction0:
    """The section sigma: G -> F(X) determined by a maximal tree (sigma(g)
    is the tree path 1 -> g read as a word), together with the loop
    retraction rho.  h0(g) is the path (g, sigma(g)^-1): g -> 1."""

    __slots__ = ("graph", "tree", "sigma")

    def __init__(self, graph: CayleyGraph, tree: MaximalTree):
        # arrow (g, k): g -> h.  Reaching h from g appends x_k; reaching g
        # from h appends x_k^-1.  The stored arrow direction matters even
        # when x_k is an involution: sigma must be the literal tree path.
        adj: dict[int, list] = {v: [] for v in range(graph.order)}
        for g, k in sorted(tree.edges):
            h = graph.fwd[g][k]
            adj[g].append((h, k, 1))
            adj[h].append((g, k, -1))
        sigma: list = [None] * graph.order
        sigma[0] = EMPTY
        queue = [0]
        for v in queue:
            for other, k, sign in adj[v]:
                if sigma[other] is None:
                    sigma[other] = sigma[v] * word(graph.gens[k], sign)
                    queue.append(other)
        if any(s is None for s in sigma):
            raise TreeError("tree does not span the Cayley graph")
        self.graph = graph
        self.tree = tree
        self.sigma = sigma

    def sigma_bar(self, g: int) -> Word:
        return self.sigma[g].inv()

    def rho(self, g: int, u: Word) -> Word:
        """The loop at 1 obtained by conjugating the path (g, u) into the
        tree: sigma(g) . u . sigma(g.phi(u))^-1, freely reduced."""
        h = self.graph.eval_word(u, g)
        return self.sigma[g] * u * self.sigma[h].inv()


def render_zg(graph: CayleyGraph, elt: GroupRingElt) -> str:
    """Human form of a ZG element, e.g. `1 + x - 2 x^2`; zero renders `0`."""
    if not elt:
        return "0"
    parts = []
    for g, c in elt.items():
        name = graph.elt_name(g)
        mag = abs(c)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
