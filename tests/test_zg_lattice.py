import random

import pytest
from hypothesis import given, settings, strategies as st

from crossres.crossed import ModuleElt, apply_map, unit
from crossres.group_core import Presentation, enumerate_presentation
from crossres.syzygy_engine import fox_matrix_map
from crossres.words import GroupRingElt, parse_word
from crossres.zg_lattice import (IntSpan, Lattice, OrbitLattice,
                                 TranslateTable, _greedy_certificate,
                                 _hnf_in_place, _reduce, expand,
                                 kernel_lattice, member_solve)


def unexpand(graph, basis, vec) -> ModuleElt:
    """Reference inverse of `expand`: the module element whose coordinate
    (basis[i], g) is vec[i.|G| + g]."""
    n = graph.order
    coords = {}
    for i, sym in enumerate(basis):
        block = {g: vec[i * n + g] for g in range(n) if vec[i * n + g]}
        if block:
            coords[sym] = GroupRingElt(block)
    return ModuleElt(coords)


def test_expand_unexpand_round_trip(s3_graph):
    m = unit("r", 1) - unit("s", 0, 2)
    vec = expand(s3_graph, ["r", "s"], m)
    assert vec == [0, 1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0]
    assert unexpand(s3_graph, ["r", "s"], vec) == m
    assert unexpand(s3_graph, ["r", "s"], [0] * 12) == ModuleElt({})


def test_lattice_hnf_frozen():
    lat = Lattice(4, [[2, 0, 1, 0], [0, 1, 0, 0], [2, 1, 1, 0]])
    assert lat.rows == ((2, 0, 1, 0), (0, 1, 0, 0))
    assert lat.rank == 2
    assert lat.pivots == (0, 1)
    assert lat.contains([4, 0, 2, 0])
    assert lat.solve([4, 0, 2, 0]) == [2, 0]
    assert not lat.contains([1, 0, 0, 0])
    assert lat.solve([1, 0, 0, 0]) is None
    assert lat.contains([0, 0, 0, 0])


def test_lattice_equality_api():
    a = Lattice(3, [[1, 0, 0], [0, 2, 0]])
    b = Lattice(3, [[1, 2, 0], [2, 2, 0]])
    assert a == b
    c = Lattice(3, [[1, 0, 0], [0, 1, 0]])
    assert a != c


rows3 = st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                 min_size=1, max_size=5)


@given(rows3, st.randoms(use_true_random=False))
def test_hnf_canonical_under_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert Lattice(3, rows) == Lattice(3, shuffled)


@given(rows3, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_membership_of_combinations(rows, coeffs):
    lat = Lattice(3, rows)
    vec = [0, 0, 0]
    for c, row in zip(coeffs, rows):
        for i in range(3):
            vec[i] += c * row[i]
    assert lat.contains(vec)
    sol = lat.solve(vec)
    assert sol is not None
    rebuilt = [0, 0, 0]
    for c, row in zip(sol, lat.rows):
        for i in range(3):
            rebuilt[i] += c * row[i]
    assert rebuilt == vec


def test_int_span():
    span = IntSpan(3)
    assert span.contains([0, 0, 0])
    assert not span.contains([2, 0, 0])
    span.add([2, 0, 0])
    span.add([0, 3, 0])
    assert span.contains([4, 3, 0])
    assert not span.contains([1, 0, 0])
    assert not span.contains([0, 0, 1])


def hnf_in_place_reference(rows, width, mirror=None, reduced=None):
    """The HNF with every row operation over the full row width, applied
    also to the optional `mirror` matrix; no reduction above the pivots
    in columns from `reduced` on."""
    reduced = width if reduced is None else reduced
    pivots = []
    r = 0
    m = len(rows)
    for col in range(width):
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
                if mirror is not None:
                    mirror[r], mirror[best] = mirror[best], mirror[r]
            done = True
            for i in range(r + 1, m):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if mirror is not None:
                        mirror[i] = [a - q * b for a, b in zip(mirror[i], mirror[r])]
                    if rows[i][col]:
                        done = False
            if done:
                break
        if r < m and rows[r][col]:
            if rows[r][col] < 0:
                rows[r] = [-a for a in rows[r]]
                if mirror is not None:
                    mirror[r] = [-a for a in mirror[r]]
            d = rows[r][col]
            for i in range(r if col < reduced else 0):
                q = rows[i][col] // d
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if mirror is not None:
                        mirror[i] = [a - q * b for a, b in zip(mirror[i], mirror[r])]
            pivots.append(col)
            r += 1
            if r == m:
                break
    return pivots


def _with_derived_rows(draw, rows, width, entry):
    """`rows` plus zero, duplicate, negated and combination rows, in a
    drawn order."""
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "neg", "comb"]),
                              max_size=4)):
        if kind == "zero" or not rows:
            rows.append([0] * width)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "neg":
            rows.append([-a for a in draw(st.sampled_from(rows))])
        else:
            c1, c2 = draw(entry), draw(entry)
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([c1 * x + c2 * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return width, [rows[i] for i in order]


@st.composite
def matrices(draw):
    """Small integer matrices with the shapes HNF must handle: rank
    deficiency (integer combinations of earlier rows), zero and duplicate
    rows, negated rows, and columns that start with zeros."""
    width = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    lead = draw(st.integers(0, width - 1))
    rows = [[0] * lead + draw(st.lists(entry, min_size=width - lead,
                                       max_size=width - lead))
            for _ in range(draw(st.integers(0, 4)))]
    return _with_derived_rows(draw, rows, width, entry)


@st.composite
def sparse_matrices(draw):
    """Wide matrices with entries in +-3 at no more than a fifth of the
    columns (one, below width 5), the shape of the expanded ZG rows, plus
    the derived rows of `matrices`."""
    width = draw(st.integers(1, 30))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0] * width
        for c in draw(st.lists(st.integers(0, width - 1),
                               max_size=max(1, width // 5))):
            row[c] = draw(entry)
        rows.append(row)
    return _with_derived_rows(draw, rows, width, entry)


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


@settings(deadline=None)
@given(matrices() | sparse_matrices(), st.none() | st.integers(0, 6))
def test_hnf_matches_full_row_reference(matrix, reduced):
    """The sparse row updates give the full-row reference's rows and
    pivots, operation for operation, whatever column bound the reduction
    above the pivots has."""
    width, raw = matrix
    rows, want_rows = [list(r) for r in raw], [list(r) for r in raw]
    assert (_hnf_in_place(rows, width, reduced)
            == hnf_in_place_reference(want_rows, width, reduced=reduced))
    assert rows == want_rows


@settings(deadline=None)
@given(matrices(), st.integers(0, 3))
def test_int_span_batch_add_matches_single_adds(matrix, start):
    width, raw = matrix
    batched, single = IntSpan(width), IntSpan(width)
    for row in raw[:start]:
        batched.add(row)
        single.add(row)
    batched.add(*raw[start:])
    for row in raw[start:]:
        single.add(row)
    assert batched.rows == single.rows
    assert batched.pivots == single.pivots
    lat = Lattice(width, raw)
    assert [tuple(r) for r in batched.rows] == list(lat.rows)
    assert tuple(batched.pivots) == lat.pivots


def _reduce_modulo(rows, pivots, vec):
    """Reduce vec by each row in turn, as member_solve reduces modulo the
    relation echelon: every pivot entry ends in [0, pivot)."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return v


@settings(deadline=None)
@given(matrices(), st.data())
def test_echelon_reduction_matches_hnf(matrix, data):
    width, raw = matrix
    rows = [list(r) for r in raw]
    pivots = _hnf_in_place(rows, width, reduced=0)
    echelon = rows[:len(pivots)]
    lat = Lattice(width, raw)
    assert tuple(pivots) == lat.pivots
    assert [row[p] for row, p in zip(echelon, pivots)] \
        == [row[p] for row, p in zip(lat.rows, lat.pivots)]
    assert all(not any(row) for row in rows[len(pivots):])
    assert Lattice(width, echelon) == lat
    vec = data.draw(st.lists(st.integers(-50, 50), min_size=width, max_size=width))
    assert (_reduce_modulo(echelon, pivots, vec)
            == _reduce(lat.rows, lat.pivots, vec)[0])


def _dot(coeffs, rows, width):
    out = [0] * width
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


@settings(deadline=None)
@given(matrices() | sparse_matrices())
def test_hnf_beside_identity_gives_log_and_relations(matrix):
    """The HNF of [raw | I], reduced only on raw's columns: the rows with
    a pivot there are the HNF of raw beside their logs, which give them
    from raw, and the other rows are zero on raw beside relations, which
    span the relation rows of the identity-mirrored reference."""
    width, raw = matrix
    k = len(raw)
    rows = [list(r) + unit for r, unit in zip(raw, _identity(k))]
    pivots = _hnf_in_place(rows, width + k, reduced=width)
    rank = sum(p < width for p in pivots)
    lat = Lattice(width, raw)
    assert [tuple(r[:width]) for r in rows[:rank]] == list(lat.rows)
    assert tuple(pivots[:rank]) == lat.pivots
    for row in rows[:rank]:
        assert _dot(row[width:], raw, width) == row[:width]
    relations = [row[width:] for row in rows[rank:]]
    assert all(not any(row[:width]) for row in rows[rank:])
    for rel in relations:
        assert not any(_dot(rel, raw, width))
    want, mirror = [list(r) for r in raw], _identity(k)
    want_rank = len(hnf_in_place_reference(want, width, mirror))
    assert Lattice(k, relations) == Lattice(k, mirror[want_rank:])


def _fed_hnf(raw, width, order):
    """The HNF of [raw | I] reduced on raw's columns, with the rows fed in
    `order`, each beside its own unit row.  Returns the image rows and
    pivots, the relation echelon with its pivots, and a function giving
    the relation-reduced certificate of a vector in the image, as
    `OrbitLattice` and `_hnf_certificate` compute them."""
    k = len(raw)
    unit_rows = _identity(k)
    rows = [list(raw[i]) + unit_rows[i] for i in order]
    pivots = _hnf_in_place(rows, width + k, reduced=width)
    rank = sum(p < width for p in pivots)
    image = [r[:width] for r in rows[:rank]]
    logs = [r[width:] for r in rows[:rank]]
    relations = [r[width:] for r in rows[rank:]]
    kernel_pivots = [p - width for p in pivots[rank:]]

    def certificate(vec):
        residue, coeffs = _reduce(image, pivots[:rank], vec)
        assert not any(residue)
        return _reduce_modulo(relations, kernel_pivots, _dot(coeffs, logs, k))

    return image, pivots[:rank], relations, kernel_pivots, certificate


@settings(deadline=None)
@given(matrices() | sparse_matrices(), st.data())
def test_hnf_beside_identity_is_invariant_under_feed_order(matrix, data):
    """Feeding the rows of [raw | I] in any order, each beside its own
    unit row, gives the same image HNF, the same relation lattice and
    the same relation-reduced certificate for every vector in the image,
    though the logs and the relation rows themselves may differ."""
    width, raw = matrix
    k = len(raw)
    order = data.draw(st.permutations(range(k)))
    image, pivots, relations, kernel_pivots, certificate = \
        _fed_hnf(raw, width, range(k))
    image2, pivots2, relations2, kernel_pivots2, certificate2 = \
        _fed_hnf(raw, width, order)
    assert (image2, pivots2) == (image, pivots)
    assert kernel_pivots2 == kernel_pivots
    assert ([r[p] for r, p in zip(relations2, kernel_pivots)]
            == [r[p] for r, p in zip(relations, kernel_pivots)])
    assert Lattice(k, relations2) == Lattice(k, relations)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    vec = _dot(coeffs, raw, width)
    assert certificate2(vec) == certificate(vec)
    assert _dot(certificate(vec), raw, width) == vec


class TestOrbitLattice:
    def test_span_of_orbit_closure(self, s3_graph):
        m = unit("r", 1) - unit("r", 0)
        lat = OrbitLattice(s3_graph, ["r"], [m])
        for g in range(6):
            assert lat.contains(expand(s3_graph, ["r"],
                                       m.translated(s3_graph, g)))
        assert not lat.contains(expand(s3_graph, ["r"], unit("r", 0)))

    def test_member_solve_round_trip(self, s3_graph):
        basis = [unit("r", 1) - unit("r", 0), unit("s", 0)]
        lat = OrbitLattice(s3_graph, ["r", "s"], basis)
        target = (basis[0].translated(s3_graph, 3)
                  - basis[1].translated(s3_graph, 2))
        solved = member_solve(lat, target)
        assert solved is not None
        mapping = {"g1": basis[0], "g2": basis[1]}
        cert = ModuleElt({name: ring for name, ring
                          in zip(("g1", "g2"), solved) if ring})
        assert apply_map(s3_graph, {"g1": basis[0], "g2": basis[1]},
                         cert) == target

    def test_member_solve_rejects_outsiders(self, s3_graph):
        lat = OrbitLattice(s3_graph, ["r"], [unit("r", 0, 2)])
        assert member_solve(lat, unit("r", 0)) is None

    def test_refuses_a_symbol_outside_the_basis(self, s3_graph):
        with pytest.raises(KeyError):
            OrbitLattice(s3_graph, ["r"], [unit("s", 0)])

    def test_member_solve_of_zero(self, s3_graph):
        lat = OrbitLattice(s3_graph, ["r"], [unit("r", 0) - unit("r", 1)])
        solved = member_solve(lat, ModuleElt({}))
        assert solved is not None
        assert all(not ring for ring in solved)


def test_kernel_lattice_fox(s3_graph, s3_presentation):
    fox = fox_matrix_map(s3_presentation, s3_graph)
    kern = kernel_lattice(s3_graph, ["r", "s", "t"], ["x", "y"], fox)
    assert kern.rank == 11
    # every kernel row maps to zero
    for row in kern.rows:
        m = unexpand(s3_graph, ["r", "s", "t"], list(row))
        assert apply_map(s3_graph, fox, m) == ModuleElt({})


def test_kernel_lattice_cyclic():
    pres = Presentation(["x"], [("r", parse_word("x^4"))])
    graph = enumerate_presentation(pres)
    fox = fox_matrix_map(pres, graph)
    kern = kernel_lattice(graph, ["r"], ["x"], fox)
    # N(4) has one relation: (t - 1) . N(4) = 0
    want = OrbitLattice(graph, ["r"], [unit("r", 1) - unit("r", 0)])
    assert kern == want


_S3 = enumerate_presentation(Presentation(
    ["x", "y"], [("r", parse_word("x^3")), ("s", parse_word("y^2")),
                 ("t", parse_word("x y x y"))]))
_Q8 = enumerate_presentation(Presentation(
    ["x", "y"], [("r", parse_word("x^4")), ("s", parse_word("x^2 y^-2")),
                 ("t", parse_word("x y x y^-1"))]))


def _module_over(symbols, order):
    """Module elements over `symbols` with coefficients of either sign,
    1 and larger; zero coefficients drop out, so the zero element shows."""
    ring = st.dictionaries(st.integers(0, order - 1),
                           st.sampled_from([1, -1, 2, -3, 5, 0]), max_size=4)
    return st.dictionaries(st.sampled_from(symbols), ring, max_size=3).map(
        lambda d: ModuleElt({s: GroupRingElt(c) for s, c in d.items()}))


@st.composite
def _table_case(draw):
    graph = draw(st.sampled_from([_S3, _Q8]))
    n = graph.order
    # "d" is in the codomain but no image uses it; "e" is outside it
    images = ["a", "b", "c"] + (["e"] if draw(st.booleans()) else [])
    mapping = {b: draw(_module_over(images, n)) for b in ("u", "v", "w")}
    m = draw(st.one_of(st.just(ModuleElt()), _module_over(["u", "v", "w"], n)))
    if draw(st.booleans()):  # "z" has no translates
        m = m + ModuleElt({"z": GroupRingElt({draw(st.integers(0, n - 1)): 1})})
    minus = draw(_module_over(["a", "b", "d", "e", "f"], n))
    return graph, mapping, m, minus


@given(_table_case())
@settings(deadline=None)
def test_translate_table_matches_apply_map(case):
    """Pushing an element through the table gives the expansion of its
    apply_map image; with `minus`, that minus the expansion of `minus`,
    or None when `minus` has a symbol outside the table's columns.  When
    m has a symbol with no translates, both are None.  The dense rows are
    the expanded translates of each image."""
    graph, mapping, m, minus = case
    codomain = ["a", "b", "c", "d"]
    table = TranslateTable(graph, codomain, mapping)
    used = {s for img in mapping.values() for s in img.coords}
    assert table.extra == sorted(used - set(codomain))
    columns = codomain + table.extra
    assert table.width == len(columns) * graph.order
    if not set(m.coords) <= set(mapping):
        assert table.image(m) is table.image(m, minus) is None
    else:
        want = expand(graph, columns, apply_map(graph, mapping, m))
        assert table.image(m) == want
        if set(minus.coords) <= set(columns):
            assert table.image(m, minus) == [
                a - b for a, b in zip(want, expand(graph, columns, minus))]
        else:
            assert table.image(m, minus) is None
    assert table.rows(["w", "u"]) == [
        expand(graph, columns, mapping[b].translated(graph, g))
        for b in ("w", "u") for g in range(graph.order)]


def _l1(m: ModuleElt) -> int:
    return sum(abs(c) for _, zg in m.items() for _, c in zg.items())


def greedy_certificate_reference(lat: OrbitLattice, target: ModuleElt):
    """The greedy peel on immutable ModuleElts, recomputing the full L1
    norm of every trial residual."""
    n = lat.graph.order
    translates = [[m.translated(lat.graph, g) for g in range(n)] for m in lat.gens]
    cert = [dict() for _ in lat.gens]
    rem = target
    size = _l1(rem)
    while size:
        best = None
        for j, per_gen in enumerate(translates):
            for g in range(n):
                tr = per_gen[g]
                for s in (1, -1):
                    new = rem - tr if s == 1 else rem + tr
                    key = (_l1(new), 0 if s == 1 else 1, g, j)
                    if key[0] < size and (best is None or key < best[0]):
                        best = (key, s, new)
        if best is None:
            return None
        (size, _, g, j), s, rem = best
        cert[j][g] = cert[j].get(g, 0) + s
    return cert


small = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2])
s3_vectors = st.lists(small, min_size=12, max_size=12)


@settings(deadline=None)
@given(st.lists(s3_vectors, min_size=1, max_size=2), st.none() | st.integers(0, 5),
       st.lists(small, min_size=18, max_size=18), s3_vectors, st.booleans())
def test_greedy_matches_reference(s3_graph, gen_vecs, twin, coeffs, arbitrary,
                                  combine):
    basis = ["r", "s"]
    gens = [unexpand(s3_graph, basis, v) for v in gen_vecs]
    if twin is not None:
        # a translate of the first generator ties with it move for move,
        # so the element and generator tie-breaks decide
        gens.append(gens[0].translated(s3_graph, twin))
    lat = OrbitLattice(s3_graph, basis, gens)
    # its supports are the input rows' nonzero pairs, in input order
    rows = [expand(s3_graph, basis, m.translated(s3_graph, g))
            for m in gens for g in range(6)]
    assert ([sorted(pairs) for pairs in lat._supports]
            == [[(p, a) for p, a in enumerate(row) if a] for row in rows])
    vec = arbitrary
    if combine:
        # a small integer combination of the generator translates
        vec = [0] * 12
        for i, c in enumerate(coeffs[:6 * len(gens)]):
            row = expand(s3_graph, basis, gens[i // 6].translated(s3_graph, i % 6))
            vec = [a + c * b for a, b in zip(vec, row)]
    target = unexpand(s3_graph, basis, vec)
    assert _greedy_certificate(lat, vec) == greedy_certificate_reference(lat, target)


@settings(deadline=None)
@given(st.lists(s3_vectors, min_size=1, max_size=2), st.none() | st.integers(0, 5),
       st.sampled_from(["zero", "plus", "minus", "changed"]), st.integers(0, 11),
       st.integers(0, 11), st.sampled_from([1, -1, 2]), st.booleans())
def test_greedy_forced_moves_match_reference(s3_graph, gen_vecs, twin, kind,
                                             pick, where, delta, negate):
    """The targets the peel answers before its search: zero, one signed
    translate +t or -t, and t with one entry changed, which falls through
    to the search.  With a twin translate, equal translates tie and the
    element and generator tie-breaks decide which one is the move; a
    negated twin makes +t and -t both one move, and +1 must win."""
    basis = ["r", "s"]
    gens = [unexpand(s3_graph, basis, v) for v in gen_vecs]
    if twin is not None:
        gens.append(gens[0].translated(s3_graph, twin))
        if negate:
            gens[-1] = -gens[-1]
    lat = OrbitLattice(s3_graph, basis, gens)
    i = pick % (6 * len(gens))
    t = expand(s3_graph, basis, gens[i // 6].translated(s3_graph, i % 6))
    vec = {"zero": [0] * 12, "plus": t, "minus": [-a for a in t],
           "changed": list(t)}[kind]
    if kind == "changed":
        vec[where] += delta
    target = unexpand(s3_graph, basis, vec)
    got = _greedy_certificate(lat, vec)
    assert got == greedy_certificate_reference(lat, target)
    if kind == "zero":
        assert got == [{} for _ in gens]
    elif kind != "changed" and any(t):
        # a single move of sign +-1
        assert [c for d in got for c in d.values()] in ([1], [-1])
