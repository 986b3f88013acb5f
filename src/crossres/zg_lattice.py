"""Exact linear algebra over ZG for finite G, by expansion to integer row
lattices: Hermite normal form, a growing span for membership tests, orbit
lattices whose one HNF of [T | I] gives the image, the log and the
relations at once, membership with ZG-certificates, kernel lattices, and
canonical lattice equality.

Everything is arbitrary-precision integer arithmetic on lists; a ModuleElt
over basis B expands to a vector of length |B|.|G| with coordinate
(b, g) at position index(b).|G| + g.

These rows are sparse (mostly zeros, entries of a few bits), so the hot
loops visit only nonzero entries: an HNF step updates a row only at the
pivot row's nonzero columns, the HNF-fallback certificate combines and
reduces over the nonzero (column, value) pairs that `OrbitLattice` lists
once, and the greedy peel updates only the translates that touch the
positions a move changes.  The HNF steps apply the same quotients in
the same order as full-row updates, and the peel scores every move
exactly as a rescan of every translate would, so every result is the
same as with dense loops.  The peel answers a zero target, and a target
that is one signed translate, from the position index before any setup:
the move that empties the residual is the one its scan would choose
first.

A `TranslateTable` lists each right translate mapping[b].g of a ZG-linear
map's images once, as such pairs read off the Cayley graph's columns.
Pushing an element through it is apply_map on expanded coordinates, and
its dense rows are the map's matrix: `reduce_level` grows one table per
level for its span rows and certificate checks, and every replay check of
`verify_state` reads one table per level.
"""

from __future__ import annotations

from itertools import compress

from .crossed import ZERO_MODULE, ModuleElt
from .words import GroupRingElt


def expand(graph, basis, m: ModuleElt) -> list[int]:
    n = graph.order
    vec = [0] * (len(basis) * n)
    index = {sym: i for i, sym in enumerate(basis)}
    for sym, c in m.items():
        try:
            base = index[sym] * n
        except KeyError:
            raise ValueError(f"module element uses unknown basis symbol {sym!r}") from None
        for g, coeff in c.items():
            vec[base + g] = coeff
    return vec


def _nonzero(row, start=0):
    """The (column, value) pairs of `row`'s nonzero entries from `start` on.
    The rows are mostly zeros, and `compress` skips those without a
    Python step each."""
    return [(c, row[c]) for c in compress(range(start, len(row)), row[start:])]


def _hnf_in_place(rows, width, reduced=None):
    """Row-style Hermite normal form by integer row operations.

    Returns the list of pivot columns; on return, rows[:len(pivots)] are
    an echelon basis with positive pivots and the remaining rows are
    zero.  The entries above a pivot in a column before `reduced` (every
    column by default) are reduced into [0, pivot); those above a later
    pivot are left as they are.  With the default the rows are the
    canonical HNF basis.  With a smaller bound they are canonical on the
    columns before it, with the same pivot columns and pivot values as
    the HNF: skipping a reduction changes no row at or below the current
    pivot.

    Every operation subtracts q times the pivot row from another row (or
    negates the pivot row).  Subtracting q times a row changes a target
    entry only where that row is nonzero, so each step lists the pivot
    row's nonzero (column, value) pairs once and updates every target in
    place at those columns only: `row[c] -= q * b`.  While column `col`
    is processed the pivot row is zero left of `col`, so the list starts
    there.  The same q are applied in the same order as a full-row
    update would, so every row ends the same.

    The row lists in `rows` are mutated in place, so callers pass lists
    they own, with no list shared between two rows.
    """
    reduced = width if reduced is None else reduced
    pivots = []
    r = 0
    m = len(rows)
    for col in range(width):
        pairs = None
        # chain gcd steps down the column until one nonzero entry remains
        while True:
            best = None
            for i in range(r, m):
                if rows[i][col] and (best is None or abs(rows[i][col]) < abs(rows[best][col])):
                    best = i
            if best is None:
                break
            if best != r:
                rows[r], rows[best] = rows[best], rows[r]
            d = rows[r][col]
            pairs = _nonzero(rows[r], col)
            done = True
            for i in range(r + 1, m):
                row = rows[i]
                if row[col]:
                    q = row[col] // d
                    for c, b in pairs:
                        row[c] -= q * b
                    if row[col]:
                        done = False
            if done:
                break
        if pairs is None:
            continue
        # the gcd pass that ended the loop left rows[r] as it listed it
        pivot = rows[r]
        if pivot[col] < 0:
            pairs = [(c, -b) for c, b in pairs]
            for c, b in pairs:
                pivot[c] = b
        d = pivot[col]
        for i in range(r if col < reduced else 0):
            row = rows[i]
            q = row[col] // d
            if q:
                for c, b in pairs:
                    row[c] -= q * b
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _reduce(rows, pivots, vec):
    """Divide `vec` by echelon `rows` with the given pivot columns, in
    order: subtract q times each row, q the floor quotient of the entry
    in its pivot column.  Returns (residue, quotients).  With positive
    pivots every pivot entry of the residue ends in [0, pivot).  An
    echelon row is zero left of its pivot, so only the slice from the
    pivot on is rewritten."""
    v = list(vec)
    quotients = []
    for row, p in zip(rows, pivots):
        q = v[p] // row[p]
        if q:
            v[p:] = [a - q * b for a, b in zip(v[p:], row[p:])]
        quotients.append(q)
    return v, quotients


class Lattice:
    """An integer row lattice in canonical Hermite normal form."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, raw_rows):
        rows = [list(r) for r in raw_rows]
        pivots = _hnf_in_place(rows, ambient)
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows[:len(pivots)])
        self.pivots = tuple(pivots)

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec) -> bool:
        residue, _ = _reduce(self.rows, self.pivots, vec)
        return not any(residue)

    def is_saturated(self) -> bool:
        """Whether the lattice is its rational span cut with the integers.
        It is when every HNF pivot is 1, since the minor on the pivot
        columns is then unitriangular.  Otherwise it is exactly when the
        rank-sized minors have gcd 1, that is when the transposed basis
        spans Z^rank.  That basis has full rank, so its HNF is then the
        identity: every pivot 1 again."""
        if all(row[p] == 1 for row, p in zip(self.rows, self.pivots)):
            return True
        dual = Lattice(self.rank, zip(*self.rows))
        return all(row[p] == 1 for row, p in zip(dual.rows, dual.pivots))

    def solve(self, vec):
        residue, coeffs = _reduce(self.rows, self.pivots, vec)
        return None if any(residue) else coeffs

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.ambient == other.ambient and self.rows == other.rows)


class IntSpan:
    """Integer row span grown by `add`, the membership test behind greedy
    reduction.  After every `add`, `rows` and `pivots` are the canonical
    HNF of all rows added so far."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def contains(self, vec) -> bool:
        residue, _ = _reduce(self.rows, self.pivots, vec)
        return not any(residue)

    def add(self, *vecs):
        """Insert every given row, with one HNF over the old rows and the
        new ones."""
        rows = self.rows + [list(v) for v in vecs]
        self.pivots = _hnf_in_place(rows, self.ambient)
        self.rows = rows[:len(self.pivots)]


class OrbitLattice(Lattice):
    """ZG-span of a list of generators, with provenance.  The input rows
    T are the G-translates of the generators, ordered generator-major
    then element index, and one HNF of [T | I] gives everything: each
    input row is followed by its unit row, and the HNF is canonical on
    T's columns and echelon on I's.  A row whose pivot lies in T is an
    HNF row of T (`rows`), followed by its log as an integer combination
    of the input rows (`expr_rows`).  A row whose pivot lies in I is zero
    on T, so its I part is a relation among the input rows: these form
    an echelon basis of all the relations (`kernel_rows`, pivots
    `kernel_pivots`), kept for canonical certificate reduction.

    The I columns follow the input order, but the rows are fed to the
    HNF stably sorted by their generator's number of nonzero entries, so
    the sparsest generators' translates come first (every translate of
    a generator has its count).  The HNF pivots on the smallest entry of
    a column and, on a tie, the first row, and translate entries are
    mostly +-1, so the feed order picks the pivot rows; sparse ones
    spread less fill-in into T, the log and the relations (Markowitz's
    rule).  No output moves with it: `rows` and `pivots` are the unique
    HNF of T; the relation rows span the same lattice in the same
    columns, so their pivot columns and values are invariants; and
    `member_solve` shows that the fallback certificate depends only on
    that lattice.  The logs and the relation rows themselves may differ.

    The certificate searches read private sparse forms, derived once
    here: `_expr_pairs` and `_kernel_pairs` hold the nonzero (column,
    value) pairs of `expr_rows` and `kernel_rows` (a kernel row's first
    pair is its pivot), `_supports` the input rows' pairs (the table's
    translates, which refuse a symbol outside `basis`), `_weights` their
    L1 norms, and `_by_position` maps each position to two lists of
    (input row, |value|) pairs, of the input rows positive there and of
    those negative there."""

    __slots__ = ("graph", "basis", "gens", "expr_rows", "kernel_rows",
                 "kernel_pivots", "_supports", "_weights", "_by_position",
                 "_expr_pairs", "_kernel_pairs")

    def __init__(self, graph, basis, gens):
        table = TranslateTable(graph, basis, {})
        for j, m in enumerate(gens):
            table.add(j, m)
        ambient = table.width
        inputs = table.rows(range(len(gens)))
        k = len(inputs)
        supports = [pairs for j in range(len(gens))
                    for pairs in table.translates[j]]
        rows = [inputs[i] + [0] * i + [1] + [0] * (k - 1 - i)
                for i in sorted(range(k), key=lambda i: len(supports[i]))]
        pivots = _hnf_in_place(rows, ambient + k, ambient)
        rank = sum(p < ambient for p in pivots)
        self.ambient = ambient
        self.rows = tuple(tuple(r[:ambient]) for r in rows[:rank])
        self.pivots = tuple(pivots[:rank])
        self.graph = graph
        self.basis = basis
        self.gens = list(gens)
        self.expr_rows = tuple(tuple(r[ambient:]) for r in rows[:rank])
        self.kernel_pivots = tuple(p - ambient for p in pivots[rank:])
        self.kernel_rows = tuple(tuple(r[ambient:]) for r in rows[rank:])
        self._supports = supports
        self._weights = [sum(abs(v) for _, v in s) for s in self._supports]
        self._by_position = [([], []) for _ in range(ambient)]
        for i, support in enumerate(self._supports):
            for p, v in support:
                if v > 0:
                    self._by_position[p][0].append((i, v))
                else:
                    self._by_position[p][1].append((i, -v))
        self._expr_pairs = [_nonzero(r) for r in self.expr_rows]
        self._kernel_pairs = [_nonzero(r, p) for r, p
                              in zip(self.kernel_rows, self.kernel_pivots)]


def _greedy_certificate(lat: OrbitLattice, vec):
    """Peel the expanded target `vec` by repeatedly subtracting the signed
    generator translate that most decreases the L1 norm (ties broken by
    +1 before -1, then element index, then generator position).  Each
    move is scored by its exact L1 change and applied to the residual in
    place.  Returns coefficient dicts on reaching zero, None on stalling.

    Subtracting s.t (t a translate of weight W = |t|_1, s = +-1) changes
    the norm by W - 2.S, S the sum of min(|r_p|, |t_p|) over the
    positions p where the residual r_p is nonzero and has the sign of
    s.t_p: elsewhere on t the norm grows by |t_p|.  So each translate
    keeps its two sums, `same` (for s = +1) and `other` (for s = -1).
    A move changes the residual only on the chosen translate's support,
    so only the translates that `lat._by_position` lists at those
    positions have their sums updated.  A translate that touches no
    nonzero residual position has both sums 0 and changes the norm by
    +W >= 0, so the strict `< 0` test never chooses it.  The deltas, keys
    and choice are those of a rescan of every translate's support.

    Two targets are answered before that setup, from the target's
    nonzero pairs.  A zero target gets the empty certificate.  A target
    equal to s.t for a translate t is answered with that one move, t
    found among the translates `lat._by_position` lists at the target's
    first nonzero position.  It is the peel's own first move: a move
    that empties the residual has key (0, flag, g, j), below every other
    key, and only a move with s.t equal to the target empties it, so
    s = +1 comes before s = -1 and equal translates tie on (g, j) as in
    the scan."""
    n = lat.graph.order
    cert = [dict() for _ in lat.gens]
    pairs = _nonzero(vec)
    if not pairs:
        return cert
    supports, weights, by_position = lat._supports, lat._weights, lat._by_position
    size = sum(abs(a) for _, a in pairs)
    # one signed translate s.t: such a t is nonzero at the first position
    p, a = pairs[0]
    plus, minus = by_position[p]
    for s, at_p in ((1, plus), (-1, minus)) if a > 0 else ((1, minus), (-1, plus)):
        hits = [i for i, v in at_p if v == abs(a) and weights[i] == size
                and len(supports[i]) == len(pairs)
                and all(vec[q] == s * w for q, w in supports[i])]
        if hits:
            j, g = divmod(min(hits, key=lambda i: (i % n, i)), n)
            cert[j][g] = s
            return cert
    rem = list(vec)
    same, other = [0] * len(supports), [0] * len(supports)

    def tally(p, k):
        """Add k times position p's share of every translate's sums."""
        r = rem[p]
        plus, minus = by_position[p]
        if r > 0:
            a, agree, differ = r, plus, minus
        else:
            a, agree, differ = -r, minus, plus
        for i, v in agree:
            same[i] += k if v == 1 else k * min(a, v)
        for i, v in differ:
            other[i] += k if v == 1 else k * min(a, v)

    for p, _ in pairs:
        tally(p, 1)
    while size:
        best = None
        for i, w in enumerate(weights):
            down, up = w - 2 * same[i], w - 2 * other[i]
            if down < 0 or up < 0:
                j, g = divmod(i, n)
                for delta, flag in ((down, 0), (up, 1)):
                    key = (size + delta, flag, g, j)
                    if delta < 0 and (best is None or key < best):
                        best = key
        if best is None:
            return None
        size, flag, g, j = best
        s = -1 if flag else 1
        for p, v in supports[j * n + g]:
            if rem[p]:
                tally(p, -1)
            rem[p] -= s * v
            if rem[p]:
                tally(p, 1)
        cert[j][g] = cert[j].get(g, 0) + s
    return cert


def member_solve(lat: OrbitLattice, target: ModuleElt):
    """If target lies in the lattice, return its certificate: one
    GroupRingElt per original generator with
    sum_j gen_j . cert_j = target.  Otherwise None (exact non-membership).

    The certificate is the greedy small-support solution when the peeling
    search reaches zero (it reproduces hand-computed retraction tables,
    and reaching zero proves membership).  A zero target, or one that is
    a signed translate of a generator, is answered by the peel from its
    position index without a search, with the move the search would make
    first (see `_greedy_certificate`).  Otherwise it is the HNF
    solution v reduced modulo the relation lattice K of the generator
    translates.  K is kept as the echelon basis that the HNF of [T | I]
    leaves, with positive pivots d_k in columns p_k, not reduced above
    them, and the reduction leaves every entry v[p_k] in [0, d_k).  That
    representative of v + K is unique: two of them differ by an element
    of K whose first nonzero echelon coefficient c sits alone in its
    pivot column, so |c.d_k| < d_k and c = 0.  So the certificate
    depends neither on the transformation log nor on which echelon basis
    of K is used, and it equals the one reduced modulo the HNF of K.
    """
    vec = expand(lat.graph, lat.basis, target)
    cert = _greedy_certificate(lat, vec)
    if cert is None:
        cert = _hnf_certificate(lat, vec)
        if cert is None:
            return None
    return [GroupRingElt(d) for d in cert]


def _hnf_certificate(lat: OrbitLattice, vec):
    """The HNF solution for the expanded target `vec`, reduced modulo the
    relation echelon, as one coefficient dict per generator; None if
    `vec` is not in the lattice.  The log combination and the reduction
    run over the nonzero pairs of the log and relation rows."""
    coeffs = lat.solve(vec)
    if coeffs is None:
        return None
    n_inputs = len(lat.gens) * lat.graph.order
    v = [0] * n_inputs
    for q, expr in zip(coeffs, lat._expr_pairs):
        if q:
            for c, b in expr:
                v[c] += q * b
    for pairs in lat._kernel_pairs:
        p, d = pairs[0]
        q = v[p] // d
        if q:
            for c, b in pairs:
                v[c] -= q * b
    n = lat.graph.order
    return [{g: v[j * n + g] for g in range(n) if v[j * n + g]}
            for j in range(len(lat.gens))]


class TranslateTable:
    """The ZG-linear map b -> mapping[b] on expanded coordinates:
    `translates[b][g]` lists the (position, value) pairs of mapping[b].g
    over `codomain`.  A symbol that an image uses outside `codomain` (a
    faulty level) gets a block after it and is listed in `extra`.  `add`
    extends the map by one more symbol."""

    __slots__ = ("width", "index", "extra", "translates", "_columns")

    def __init__(self, graph, codomain, mapping):
        n = graph.order
        index = {sym: i * n for i, sym in enumerate(codomain)}
        self.extra = sorted({s for m in mapping.values() for s in m.coords}
                            - index.keys())
        index.update((s, i * n) for i, s in enumerate(self.extra, len(codomain)))
        self.width = (len(codomain) + len(self.extra)) * n
        self.index, self.translates, self._columns = index, {}, graph._right
        for b, m in mapping.items():
            self.add(b, m)

    def add(self, sym, form: ModuleElt):
        """Map `sym` to `form`, whose symbols must all have a block."""
        # the coefficient of (s, h) moves to index[s] + h.g
        pairs = [(self.index[s], h, c) for s, ring in form.coords.items()
                 for h, c in ring.coeffs.items()]
        self.translates[sym] = [[(i + col[h], c) for i, h, c in pairs]
                                for col in self._columns]

    def image(self, m: ModuleElt, minus: ModuleElt = ZERO_MODULE):
        """The expanded image of m minus the expansion of `minus`, as a
        dense list; None if `minus` uses a symbol that no image can, or m
        one that has no translates."""
        vec = [0] * self.width
        for sym, ring in minus.coords.items():
            if sym not in self.index:
                return None
            for g, c in ring.coeffs.items():
                vec[self.index[sym] + g] = -c
        for sym, ring in m.coords.items():
            rows = self.translates.get(sym)
            if rows is None:
                return None
            for g, c in ring.coeffs.items():
                for p, v in rows[g]:
                    vec[p] += c * v
        return vec

    def rows(self, dom_basis) -> list[list[int]]:
        """The dense matrix, one row per (domain symbol, group element),
        generator-major order."""
        out = []
        for sym in dom_basis:
            for pairs in self.translates[sym]:
                out.append([0] * self.width)
                for p, v in pairs:
                    out[-1][p] = v
        return out


def kernel_lattice(graph, dom_basis, codom_basis, mapping) -> Lattice:
    """HNF basis of the integer kernel of the expanded matrix of the map
    (ZG)^dom -> (ZG)^codom sending b to mapping[b]: the relations of the
    OrbitLattice of the images."""
    lat = OrbitLattice(graph, codom_basis, [mapping[b] for b in dom_basis])
    return Lattice(len(dom_basis) * graph.order, lat.kernel_rows)
