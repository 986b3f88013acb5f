"""Levels of a free crossed resolution above the presentation.

Level 3 generators: for each group element g and relator r,

    delta3[g, r] = h1(g, omega_r)^-1 . (r conjugated by sigma(g)^-1)

is an identity among relations (its boundary2 freely reduces to 1).
Reduction keeps a generating subset J (greedy, in a declared order,
against the ZG-orbit lattice of the accepted abelianisations) and
records a retraction xi: accepted tags map to units, others to
certificates with delta(xi tag) = form(tag) exactly.

The retraction log of level n is the homotopy table driving level n+1:

    delta_{n+1}[g, b] = -h_{n-1}(g, delta_n b) + e_b . g^-1

where h_{n-1} evaluates additively over the boundary, looking up
xi_n[(g . g'^-1, prev)] per coefficient (the action-killing rule; on
level 3 this is the same sum taken factor-by-factor over the crossed
form, since the lookup depends only on each factor's relator and the
image of its conjugator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii

from .crossed import (CrossedElt, ModuleElt, abelian_sums, abelianise,
                      boundary2, parse_crossed, render_crossed, unit)
from .group_core import CayleyGraph, Contraction0, MaximalTree, Presentation, \
    enumerate_presentation, render_zg
from .inputs import _parse_tag, read_relator
from .logged_rewriter import H1Table, h1_eval
from .words import EMPTY, GroupRingElt, Word, fox_derivative, read_int
from .zg_lattice import IntSpan, Lattice, OrbitLattice, TranslateTable, \
    expand, member_solve
# unused here; bench/tracing.py looks them up in this module to time them
from .crossed import apply_map  # noqa: F401
from .zg_lattice import kernel_lattice  # noqa: F401

SCHEMA = "crossres-state/1"

Tag = tuple[int, str]  # (group element index, lower-level basis name)


@dataclass(frozen=True)
class Candidate:
    tag: Tag
    form: ModuleElt                 # over the previous level's basis
    crossed_form: CrossedElt | None  # level 3 only


class Level:
    """One computed resolution level: ordered candidates, the accepted
    basis, and the retraction log xi (= the homotopy table used to build
    the next level).

    `boundary` and `symbol_of_tag` are derived from the candidates when
    the level is made: a kept symbol's boundary is its tag's candidate
    form, and every candidate tag maps to its kept symbol or to None.  At
    level 3 a kept symbol's crossed boundary is likewise its candidate's
    `crossed_form`."""

    __slots__ = ("codomain", "basis", "boundary", "candidates", "xi",
                 "symbol_of_tag")

    def __init__(self, codomain, basis, candidates, xi):
        self.codomain = codomain        # previous level's basis names
        self.basis = basis              # list of (symbol, tag)
        self.candidates = candidates    # list of Candidate, reduction order
        self.xi = xi                    # tag -> ModuleElt over this basis
        form = {c.tag: c.form for c in candidates}
        self.boundary = {sym: form[tag] for sym, tag in basis}
        self.symbol_of_tag = dict.fromkeys(form)
        self.symbol_of_tag.update((tag, sym) for sym, tag in basis)


class ResolutionState:
    """The levels built on one base, read from h1's chain: h1 holds its
    0-combing, which holds the tree and the Cayley graph, which holds the
    presentation."""

    __slots__ = ("presentation", "graph", "tree", "contraction", "h1", "levels")

    def __init__(self, h1: H1Table):
        self.h1 = h1
        self.contraction: Contraction0 = h1.contraction
        self.tree: MaximalTree = self.contraction.tree
        self.graph: CayleyGraph = self.contraction.graph
        self.presentation: Presentation = self.graph.presentation
        self.levels: dict[int, Level] = {}


def compute_delta3(state: ResolutionState, g: int, rname: str) -> CrossedElt:
    """h1(g, omega_r)^-1 . r^sigma_bar(g), as one factor list reduced once:
    h1(g, omega_r)^-1 is h1 read along omega_r^-1 from g, since g.φ(omega_r)
    = g and h1(g, u) . h1(g.φ(u), u^-1) = h1(g, 1) by the morphism law."""
    return h1_eval(state.h1, g, state.presentation.relator_word(rname).inv(),
                   [(rname, 1, state.contraction.sigma_bar(g))])


def level3_candidates(state: ResolutionState) -> list[Candidate]:
    """All (g, r) tags in declared order: g ascending, relators as declared."""
    return _as_candidates(_candidate_sums(state, 3))


def next_candidates(state: ResolutionState, m: int) -> list[Candidate]:
    """Level m+1 candidates from level m's basis and retraction log: the
    form of (g, b) is e_b.g^-1 - h(g, delta b), h the additive homotopy
    of level m's xi (see `_candidate_sums`)."""
    return _as_candidates(_candidate_sums(state, m + 1))


def _candidate_sums(state: ResolutionState, n: int) -> list:
    """(tag, sums, crossed form) for each level-n candidate, in declared
    order (g ascending, then the relators or the basis below as listed):
    `sums` is its module form as {symbol: {element: coefficient}} with zero
    sums kept, and the crossed form is delta3 at level 3, else None.  Above
    level 3 the form of (g, b) is e_b.g^-1 - h(g, delta b), with
    h(g, sum c . e_prev . g') = sum c . xi[(g.g'^-1, prev)],
    summed into one map from level n-1's xi values, each flattened to
    (symbol, ((element, coefficient), ...)) pairs once per call."""
    graph = state.graph
    if n == 3:
        elts: dict = {}  # conjugator -> element, for this call only
        out = []
        for g in range(graph.order):
            for rname in state.presentation.relator_names():
                c = compute_delta3(state, g, rname)
                out.append(((g, rname), abelian_sums(c, graph, elts), c))
        return out
    level = state.levels[n - 1]
    right, inv = graph._right, graph._inv
    flat = {tag: [(s, tuple(r.coeffs.items())) for s, r in m.coords.items()]
            for tag, m in level.xi.items()}
    # the terms c . prev . g' of each boundary, with the column of
    # g'^-1: mult(g, g'^-1) is column[g]
    terms = {sym: [(right[inv[gp]], prev, c)
                   for prev, ring in level.boundary[sym].coords.items()
                   for gp, c in ring.coeffs.items()]
             for sym, _tag in level.basis}
    out = []
    for g in range(graph.order):
        for sym, _tag in level.basis:
            total = {sym: {inv[g]: 1}}
            for column, prev, c in terms[sym]:
                for s, pairs in flat[(column[g], prev)]:
                    row = total.get(s)
                    if row is None:
                        row = total[s] = {}
                    for h, d in pairs:
                        row[h] = row.get(h, 0) - c * d
            out.append(((g, sym), total, None))
    return out


def _as_candidates(sums) -> list[Candidate]:
    """The Candidates of `_candidate_sums` rows, zero sums dropped."""
    return [Candidate(tag, ModuleElt({s: GroupRingElt(row)
                                      for s, row in total.items()}), crossed)
            for tag, total, crossed in sums]


def _is_form(form: ModuleElt, sums) -> bool:
    """Whether `form` is `sums` ({symbol: {element: coefficient}}) with
    its zero sums dropped."""
    coords, kept = form.coords, 0
    for s, row in sums.items():
        if 0 in row.values():
            row = {h: c for h, c in row.items() if c}
        ring = coords.get(s)
        if ring is None:
            if row:
                return False
        elif ring.coeffs != row:
            return False
        else:
            kept += 1
    return kept == len(coords)


def order_candidates(candidates, policy="declared", explicit=None, graph=None):
    """Reduction order: `explicit` tags (a prefix) first, the rest in
    declared order; policy "support" stably sorts by support size.  A
    refused tag is named through `graph` when it is given, and after the
    `path:line` it was read on when it is a FileTag."""
    by_tag = {c.tag: c for c in candidates}
    if explicit:
        seen = set()
        for tag in explicit:
            if tag in by_tag and tag not in seen:
                seen.add(tag)
                continue
            named = graph is not None and 0 <= tag[0] < graph.order
            raise ValueError(
                f"{_at(tag)}{'duplicate' if tag in seen else 'unknown'} tag in order "
                f"file: {_tag_text(graph, tag) if named else tag}")
        rest = [c for c in candidates if c.tag not in seen]
        ordered = [by_tag[t] for t in explicit] + rest
    else:
        ordered = list(candidates)
    if policy == "support":
        ordered = sorted(ordered, key=lambda c: c.form.support_size())
    elif policy != "declared":
        raise ValueError(f"unknown order policy {policy!r}")
    return ordered


def reduce_level(state: ResolutionState, n: int, candidates,
                 cert_overrides=None) -> Level:
    """Greedy reduction: accept a candidate iff its form is outside the
    ZG-orbit span of the forms accepted so far.  Certificates for the
    others are solved against the full accepted lattice afterwards
    (member_solve), unless pinned by an override; every certificate is
    checked to replay exactly.  A refused pin is named after the
    `path:line` it was read on when its key is a FileTag."""
    graph = state.graph
    codomain = (list(state.presentation.relator_names()) if n == 3
                else [sym for sym, _ in state.levels[n - 1].basis])
    span = IntSpan(len(codomain) * graph.order)
    table = TranslateTable(graph, codomain, {})
    basis: list[tuple[str, Tag]] = []
    for cand in candidates:
        # a zero form lies in every span
        if cand.form and not span.contains(expand(graph, codomain, cand.form)):
            sym = f"b{n}_{len(basis) + 1}"
            basis.append((sym, cand.tag))
            table.add(sym, cand.form)
            span.add(*table.rows([sym]))
    level = Level(codomain, basis, list(candidates), {})
    symbol_of_tag = level.symbol_of_tag

    # candidate tag -> (the pin's own key, its terms)
    pins = {tag: (tag, terms) for tag, terms in (cert_overrides or {}).items()}
    stray = [tag for tag in pins if tag not in symbol_of_tag]
    stray += [tag for tag in pins if symbol_of_tag.get(tag) is not None]
    if stray:
        names = ", ".join(_tag_text(graph, tag) for tag in stray)
        raise ValueError(
            f"{_at(stray[0])}certificate pins for tags that are not rejected "
            f"at level {n}: {names}")

    lattice = OrbitLattice(graph, codomain, list(level.boundary.values()))
    for cand in candidates:
        sym = symbol_of_tag[cand.tag]
        if sym is not None:
            level.xi[cand.tag] = unit(sym)
            continue
        pin = pins.get(cand.tag)
        if pin is not None:
            cert = _resolve_override(graph, basis, *pin)
        else:
            solved = member_solve(lattice, cand.form)
            if solved is None:
                raise RuntimeError(
                    f"rejected candidate {_tag_text(graph, cand.tag)} is not "
                    f"a member of the accepted lattice; reduction is "
                    f"inconsistent")
            cert = ModuleElt({sym: ring for (sym, _), ring
                              in zip(basis, solved) if ring})
        diff = table.image(cert, cand.form)
        if diff is None or any(diff):
            raise ValueError(
                f"certificate for tag {_tag_text(graph, cand.tag)} does not "
                f"replay to the candidate form")
        level.xi[cand.tag] = cert
    state.levels[n] = level
    return level


def _resolve_override(graph, basis, tag, terms):
    """Certificate pin: list of (coeff, symbol, element Word) resolved
    against this level's accepted basis."""
    known = {sym for sym, _ in basis}
    coords: dict[str, dict[int, int]] = {}
    for coeff, sym, w in terms:
        if sym not in known:
            raise ValueError(
                f"{_at(tag)}certificate pin for {_tag_text(graph, tag)} references "
                f"{sym!r}, which was not accepted at this level")
        g = graph.eval_word(w, 0)
        d = coords.setdefault(sym, {})
        d[g] = d.get(g, 0) + coeff
    return ModuleElt({sym: GroupRingElt(d) for sym, d in coords.items()})


def _tag_text(graph, tag):
    g, name = tag
    return f"({graph.elt_name(g)}, {name})"


def _at(tag):
    """`path:line: ` for a tag read from a file (a FileTag), else ""."""
    where = getattr(tag, "where", None)
    return f"{where}: " if where else ""


def extend_resolution(state: ResolutionState, max_level: int,
                      policy="declared", explicit=None, overrides=None):
    """Compute levels 3..max_level.  `explicit` and `overrides` are
    per-level dicts (tag lists / certificate pins) from an order file."""
    explicit = explicit or {}
    overrides = overrides or {}
    for n in range(3, max_level + 1):
        cands = (level3_candidates(state) if n == 3
                 else next_candidates(state, n - 1))
        ordered = order_candidates(cands, policy, explicit.get(n), state.graph)
        reduce_level(state, n, ordered, overrides.get(n))
    return state


def fox_matrix_map(pres: Presentation, graph: CayleyGraph):
    """Relator -> ModuleElt of Fox derivatives over the generators: the
    abelianised delta2, whose kernel lattice is the module of identities."""
    return {rname: ModuleElt({x: fox_derivative(wr, x, graph)
                              for x in pres.generators})
            for rname, wr in pres.relators}


# ---------------------------------------------------------------------------
# verification


def verify_state(state: ResolutionState, samples: int = 50, seed: int = 0):
    """Re-derive every stored invariant; returns (ok, report rows).
    Each row is (check, level, element, ok, detail).

    Exactness (image of delta_n = kernel of delta_{n-1}) is first proved
    by the contracting homotopy the state holds (Brown, Cohomology of
    Groups, ch. I).  Let H_{n-1}(e.g^-1) = xi_n[(g, e)] on the Z-basis of
    C_{n-1}, and let H_1 be the abelianised h1.  Candidate (g, e) of level
    n is e.g^-1 - H_{n-2}(delta_{n-1}(e.g^-1)) (`next_candidates`; at
    level 3 the abelianised `compute_delta3`), and the retraction rows say
    delta_n xi_n[(g, e)] is that form.  So delta_n H_{n-1} + H_{n-2}
    delta_{n-1} = 1 on every e.g^-1, and each z in the kernel of
    delta_{n-1} is delta_n H_{n-1}(z), in the image.  The image lies in
    the kernel by induction: a level-3 boundary abelianises an identity
    among relations, which lies in the Fox kernel, and above it
    delta_{n-1} of form (g, e) is H_{n-3}(delta_{n-2} delta_{n-1}(e.g^-1))
    = 0.  The level-3 `consistency` and `dd` rows hold for the recomputed
    crossed forms: each abelianises to its form by construction, and its
    boundary telescopes to 1 when every h1 entry bounds its loop.

    The proof's premises, each checked directly:
      - every `retr2` and `retr3` row holds, and every arrow with no h1
        entry has the empty loop (one walk of the arrows checks both);
      - then level by level, in the loop that replays xi: the levels
        run 3..N so far; the level's `retr32`/`retr4` rows hold (an xi
        entry that is missing, or that names a symbol with no boundary,
        fails its row); its codomain is the basis of the level below
        (the relators at level 3) and no boundary leaves it (its
        structural fault, computed once, is also the first detail of its
        direct `exactness` row); every xi value uses only its basis; and
        its candidates and kept boundaries are the ones `_candidate_sums`
        recomputes (`_recomputed`).  Each premise guards the lookups of
        the next, and the level above is recomputed from this one.
    When they all hold, the `exactness` rows, the `dd` rows and the
    level-3 `consistency` rows are written ok without being computed.
    When any fails, each of those rows is checked directly, as follows.

    Direct exactness needs no transformation log.  The `dd` rows show
    image <= kernel.  The kernel of an integer matrix is saturated (it is
    its rational span cut with the integers), and rank(kernel) = #rows -
    rank(delta_{n-1}).  So the two lattices are equal exactly when the
    image has that rank and is saturated too.  The image is saturated when
    every pivot of its HNF is 1 (the minor on the pivot columns is
    unitriangular), and otherwise exactly when its transposed basis spans
    all of Z^rank.  Each `exactness` row also requires that the level has
    no structural fault; `detail` names the first condition that failed.

    Each map is one TranslateTable (delta_2 is the Fox matrix, built only
    when a premise fails).  `dd` rows push a level's boundaries through
    the table below, retraction rows push each xi through the level's own
    table against its candidate form, and the exactness lattices take
    their rows from the tables."""
    import random
    rng = random.Random(seed)
    graph, pres = state.graph, state.presentation
    sigma, entries = state.contraction.sigma, state.h1.entries
    rows = []

    def add(check, level, element, ok, detail=""):
        rows.append((check, level, element, ok, detail))

    # retr2: sigma is a section of φ, based at the identity.
    for g in range(graph.order):
        ok = graph.eval_word(sigma[g], 0) == g
        add("retr2", 0, graph.elt_name(g), ok,
            "" if ok else "phi(sigma(g)) != g")
    add("retr2", 0, "1", sigma[0].is_empty(),
        "" if sigma[0].is_empty() else "sigma(1) != 1")

    # retr3: h1 entries bound the tree-contracted loops.  An arrow with
    # no entry, where h1_eval reads 1, must have the empty loop: rho(g, x)
    # = sigma(g) x sigma(g.x)^-1 is empty when sigma(g) x reduces to the
    # reduced word sigma(g.x).  The walk is in (g, k) order, so the rows
    # come in sorted(entries) order.
    loops = True
    for g in range(graph.order):
        for k, x in enumerate(graph.gens):
            c, letter = entries.get((g, k)), Word(((x, 1),))
            if c is None:
                loops = loops and sigma[g] * letter == sigma[graph.fwd[g][k]]
                continue
            want = state.contraction.rho(g, letter)
            got = boundary2(c, pres)
            add("retr3", 1, f"({graph.elt_name(g)}, {x})", got == want,
                "" if got == want else f"boundary {got.render()} != {want.render()}")

    # retraction: delta_n(xi tag) == candidate form, all tags; checked
    # before the rows they come after, with the other premises of each
    # level (see the docstring), and the level's structural fault: a
    # premise, and the first detail of its direct exactness row.
    tables, retraction, structure = {}, {}, {}
    below = pres.relator_names()
    proved = loops and all(r[3] for r in rows)
    for i, n in enumerate(sorted(state.levels)):
        level = state.levels[n]
        table = tables[n] = TranslateTable(graph, level.codomain, level.boundary)
        name = "retr32" if n == 3 else "retr4"
        retraction[n] = out = []
        for cand in level.candidates:
            xi = level.xi.get(cand.tag)
            diff = None if xi is None else table.image(xi, cand.form)
            ok = diff is not None and not any(diff)
            out.append((name, n, _tag_text(graph, cand.tag), ok,
                        "" if ok else "delta(xi) != candidate form"))
        structure[n] = ("codomain is not the basis of the level below"
                        if level.codomain != below else
                        "a boundary uses a symbol outside the codomain"
                        if table.extra else "")
        below = [sym for sym, _ in level.basis]
        proved = (proved and n == 3 + i and all(r[3] for r in out)
                  and not structure[n]
                  and all(s in below for m in level.xi.values() for s in m.coords)
                  and _recomputed(state, n))
    if not proved:  # delta_2, the Fox matrix, is read only by direct checks
        fox = tables[2] = TranslateTable(graph, pres.generators,
                                         fox_matrix_map(pres, graph))
        below_rank = Lattice(fox.width, fox.rows(pres.relator_names())).rank

    exactness = []
    for n in sorted(state.levels):
        level, table, lower = state.levels[n], tables[n], tables.get(n - 1)
        # stored crossed forms agree with stored module forms (level 3)
        if n == 3:
            for cand in level.candidates:
                text = _tag_text(graph, cand.tag)
                ok = proved or abelianise(cand.crossed_form, graph) == cand.form
                add("consistency", n, text, ok,
                    "" if ok else "abelianised crossed form != module form")
                w = EMPTY if proved else boundary2(cand.crossed_form, pres)
                add("dd", n, text, w.is_empty(),
                    "" if w.is_empty() else
                    f"boundary2 of delta3 reduces to {w.render()}, not 1")
        # dd = 0 for stored boundaries
        dd_ok = True
        for sym, _tag in level.basis:
            diff = None if proved or lower is None else lower.image(level.boundary[sym])
            ok = proved or (diff is not None and not any(diff))
            add("dd", n, sym, ok, "" if ok else "delta(delta(sym)) != 0"
                if lower else f"level {n - 1} is missing")
            dd_ok = dd_ok and ok
        rows += retraction[n]
        # retr5: the homotopy's lookup for h(h.g, e_prev . g), at
        # (h.g.g^-1, prev), resolves to the base entry (the action-killing
        # rule), sampled
        if level.candidates:
            for _ in range(samples):
                h, prev = rng.choice(level.candidates).tag
                g = rng.randrange(graph.order)
                moved = graph.mult(graph.mult(h, g), graph.inv_elt(g))
                xi = level.xi.get((h, prev))
                ok = xi is not None and level.xi.get((moved, prev)) == xi
                add("retr5", n, _tag_text(graph, (h, prev)), ok,
                    "" if ok else "translated lookup mismatch")
        # exactness: proved, or image of delta_n equals kernel of delta_{n-1}
        # by rank and saturation (see the docstring)
        element = f"image(delta{n}) vs kernel(delta{n - 1})"
        if proved:
            exactness.append(("exactness", n - 1, element, True, ""))
            continue
        image = Lattice(table.width, table.rows([s for s, _ in level.basis]))
        want = image.ambient - below_rank
        if structure[n]:
            detail = structure[n]
        elif not dd_ok:
            detail = "image not in kernel"
        elif image.rank != want:
            detail = f"image rank {image.rank} != kernel rank {want}"
        elif not image.is_saturated():
            detail = "image lattice is not saturated"
        else:
            detail = ""
        exactness.append(("exactness", n - 1, element, not detail, detail))
        below_rank = image.rank
    rows += exactness

    return all(r[3] for r in rows), rows


def _recomputed(state: ResolutionState, n: int) -> bool:
    """Whether level n's candidates equal, tag for tag and in number, the
    ones `_candidate_sums` recomputes (each form compared with its
    coefficient sums as they are, and the crossed form at level 3), and
    each kept symbol's boundary is its tag's form."""
    level = state.levels[n]
    fresh = {tag: rest for tag, *rest in _candidate_sums(state, n)}
    stored = {c.tag: c for c in level.candidates}
    return (len(level.candidates) == len(fresh)
            and all(tag in stored and stored[tag].crossed_form == crossed
                    and _is_form(stored[tag].form, total)
                    for tag, (total, crossed) in fresh.items())
            and all(tag in stored and level.boundary.get(sym) == stored[tag].form
                    for sym, tag in level.basis))


# ---------------------------------------------------------------------------
# serialization


def _element_keys(graph):
    """The element-name table of one export: for element g, its JSON key
    text up to the opening quote of a coefficient (`"x y": "`), and its
    rank among the names in string order, which is json.dumps's
    sort_keys order."""
    names = [graph.elt_name(g) for g in range(graph.order)]
    rank = [0] * graph.order
    for r, g in enumerate(sorted(range(graph.order), key=names.__getitem__)):
        rank[g] = r
    return [encode_basestring_ascii(name) + ': "' for name in names], rank


def _coefficient(text, coeffs) -> int:
    """The integer a coefficient text stands for, if it is a text
    export_json writes: `read_int`'s form, not "0".  Anything else is
    refused.  `coeffs`, a dict text -> int kept across the calls of one
    import, checks each distinct text once."""
    c = coeffs.get(text) if type(text) is str else None
    if c is None:
        c = read_int(text) if type(text) is str else None
        if not c:
            raise ValueError(f"coefficient {text!r} is not a nonzero integer "
                             f"written as export_json writes it")
        coeffs[text] = c
    return c


def _parse_module(graph, data, where, coeffs) -> ModuleElt:
    """A module written as {symbol: {element name: coefficient text}}.
    Canonical names are looked up, other spellings parsed; each coefficient
    is read by `_coefficient` through `coeffs`.  A ring that names one
    element twice, that holds a coefficient text export_json does not
    write, or that is not such an object, is refused, naming `where`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: a module is not an object")
    by_name = graph._by_name
    coords = {}
    for sym, ring in data.items():
        try:
            try:
                row = {by_name[wtext]: coeffs[c] for wtext, c in ring.items()}
            except (KeyError, TypeError):  # another spelling, or a new text
                row = {graph.elt_by_name(wtext): _coefficient(c, coeffs)
                       for wtext, c in ring.items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: a ring of {sym}: {exc.args[0]}") from None
        if len(row) != len(ring):
            seen = set()
            for wtext in ring:
                g = graph.elt_by_name(wtext)
                if g in seen:
                    raise ValueError(
                        f"{where}: a ring of {sym} names element "
                        f"{graph.elt_name(g)} twice")
                seen.add(g)
        coords[sym] = GroupRingElt(row)
    return ModuleElt(coords)


def _emit(node, pad, out, elements=None):
    """Append to `out` the text json.dumps(node, sort_keys=True, indent=1)
    gives for a tree of str, list and dict nested `pad` deep, where a
    ModuleElt stands for {symbol: {element name: str(coefficient)}};
    any other type is a TypeError.  `elements` is the `_element_keys`
    table a ModuleElt is written with.  (json.dumps with an indent runs
    the pure-Python encoder; this emitter does the same work with less
    overhead, and writes a module without building its dict.)"""
    if isinstance(node, str):
        out.append(encode_basestring_ascii(node))
        return
    if isinstance(node, ModuleElt):
        if not node:
            out.append("{}")
            return
        keys, rank = elements
        inner = pad + " "
        between = ",\n" + inner + " "
        sep = "{\n" + inner
        for sym, ring in sorted(node.coords.items()):
            coeffs = ring.coeffs
            out.append(sep + encode_basestring_ascii(sym) + ": {\n" + inner + " "
                       + between.join([keys[g] + str(coeffs[g]) + '"' for g
                                       in sorted(coeffs, key=rank.__getitem__)])
                       + "\n" + inner + "}")
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
        return
    if isinstance(node, dict):
        items, open_, close = sorted(node.items()), "{", "}"
    elif isinstance(node, list):
        items, open_, close = node, "[", "]"
    else:
        raise TypeError(f"cannot emit {type(node).__name__} as JSON")
    if not items:
        out.append(open_ + close)
        return
    inner = pad + " "
    sep = open_ + "\n" + inner
    keyed = open_ == "{"
    for item in items:
        if keyed:
            key, item = item
            head = sep + encode_basestring_ascii(key) + ": "
        else:
            head = sep
        if isinstance(item, str):  # a leaf is written here, without a call
            out.append(head + encode_basestring_ascii(item))
        else:
            out.append(head)
            _emit(item, inner, out, elements)
        sep = ",\n" + inner
    out.append("\n" + pad + close)


def export_json(state: ResolutionState) -> str:
    """state.json text: the bytes of json.dumps(doc, sort_keys=True,
    indent=1) plus a final newline, where every candidate form, kept
    boundary and xi entry is written as {symbol: {element name:
    coefficient text}}.  The document holds those modules as ModuleElts:
    `_emit` writes each one straight to its text at its indent, sorting
    its rings by a rank of the element names computed once per call."""
    graph, pres = state.graph, state.presentation
    words: dict = {}  # conjugator Word -> text, for this call only
    names = [graph.elt_name(g) for g in range(graph.order)]
    doc = {
        "schema": SCHEMA,
        "group": {"order": str(graph.order), "elements": names},
        "presentation": {
            "generators": list(pres.generators),
            "relators": [[name, w.render()] for name, w in pres.relators],
        },
        "tree": [[names[g], graph.gens[k]] for g, k in sorted(state.tree.edges)],
        "h1": {f"{names[g]} {graph.gens[k]}": render_crossed(c, words)
               for (g, k), c in sorted(state.h1.entries.items())},
        "levels": {},
    }
    for n in sorted(state.levels):
        level = state.levels[n]
        entry = {
            "codomain": list(level.codomain),
            "basis": [{"symbol": sym, "tag": [names[tag[0]], tag[1]]}
                      for sym, tag in level.basis],
            "boundary": level.boundary,
            "candidates": [{"tag": [names[c.tag[0]], c.tag[1]], "form": c.form}
                           for c in level.candidates],
            "xi": {f"{names[g]} {name}": m for (g, name), m in level.xi.items()},
        }
        if n == 3:
            # written even when no generator is kept, so an import gets
            # back every candidate's crossed form
            texts = {c.tag: render_crossed(c.crossed_form, words)
                     for c in level.candidates}
            entry["crossed"] = {sym: texts[tag] for sym, tag in level.basis}
            entry["candidates_crossed"] = {
                f"{names[g]} {name}": text for (g, name), text in texts.items()}
        doc["levels"][str(n)] = entry
    out: list[str] = []
    _emit(doc, "", out, _element_keys(graph))
    out.append("\n")
    return "".join(out)


def _field(obj, key, where, kind=dict, default=None):
    """obj[key], or `default` if it is absent; refused unless a `kind`,
    naming `where` and the field."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"{where}: field {key!r} is missing or not a {kind.__name__}")
    return value


def import_json(text: str) -> ResolutionState:
    """The state a state.json text describes.  Each tag, an `<element>
    <name>` key or an [element, name] pair, is read by `inputs._parse_tag`,
    the tag grammar of the input files; each distinct crossed-form text is
    parsed once.  Refused, with a ValueError that names where: a missing
    or mistyped field, a relator word the .pres reader refuses
    (`inputs.read_relator`), a `levels` key other than str(n) for n >= 3, a
    group order other than str(|G|), a bad tag, two keys for one h1 arrow
    or tag, a tree edge, candidate, basis symbol or basis tag listed
    twice, a ring that names one element twice, a coefficient text
    export_json does not write (`_coefficient`), candidate tags other than
    G x codomain, a keyed field of a level with other keys than the level
    defines (one rule for all four), an xi value off its level's basis, a
    kept symbol whose stored boundary or crossed form is not its
    candidate's, and (by H1Table) an h1 entry on a tree arrow.  A key
    written twice in one JSON object is not seen: json.loads keeps the
    last."""
    doc = json.loads(text)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}")
    presentation = _field(doc, "presentation", "state")
    gens = _field(presentation, "generators", "presentation", list)
    relators = _field(presentation, "relators", "presentation", list)
    try:
        pres = Presentation(gens, [(name, read_relator(name, wtext, gens))
                                   for name, wtext in relators])
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"presentation: {exc}") from None
    graph = enumerate_presentation(pres)
    group = _field(doc, "group", "state")
    order = _field(group, "order", "group", str)
    if read_int(order) != graph.order:
        raise ValueError(f"group: order {order!r} is not the order "
                         f"{graph.order} of the presentation's group")
    if ([graph.elt_name(g) for g in range(graph.order)]
            != _field(group, "elements", "group", list)):
        raise ValueError("element enumeration mismatch on import")

    tags: dict = {}  # (tag text, last) -> tag, for this call only

    def tag_of(text, where, last="name"):
        tag = tags.get((text, last))
        if tag is None:
            tag = tags[text, last] = _parse_tag(text, graph, where, last)
        return tag

    def pair_tag(pair, where, last="name"):
        """The tag an [element, name] pair names; anything else reads as
        "", which _parse_tag refuses."""
        ok = (isinstance(pair, list) and len(pair) == 2
              and type(pair[0]) is type(pair[1]) is str)
        # the name is one token: no " ", and isprintable() refuses the
        # other whitespace
        ok = ok and pair[1] != "" and " " not in pair[1] and pair[1].isprintable()
        return tag_of(" ".join(pair) if ok else "", where, last)

    def tagged(obj, field, where, read, last="name"):
        """{tag: read(value, where its key is)} of an object keyed by tags."""
        out = {}
        for key, value in obj.items():
            at = f"{where}: {field} key {key!r}"
            tag = tag_of(key, at, last)
            if tag in out:
                raise ValueError(f"{where}: tag ({graph.elt_name(tag[0])}, "
                                 f"{key.split()[-1]}) has two {field} entries")
            out[tag] = read(value, at)
        return out

    edges = [pair_tag(edge, f"tree edge {edge!r}", "generator")
             for edge in _field(doc, "tree", "state", list)]
    if len(set(edges)) != len(edges):
        raise ValueError("tree: an edge is listed twice")
    contraction = Contraction0(graph, MaximalTree(graph, edges))
    rel_names = set(pres.relator_names())
    words: dict = {}  # conjugator text -> Word, for this call only
    forms: dict = {}  # crossed-form text -> CrossedElt, for this call only
    coeffs: dict = {}  # coefficient text -> int, for this call only
    module = partial(_parse_module, graph, coeffs=coeffs)

    def parse_form(ctext, where):
        try:
            if ctext not in forms:
                forms[ctext] = parse_crossed(ctext, rel_names, gens, words)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        return forms[ctext]

    h1 = tagged(_field(doc, "h1", "state"), "h1", "state", parse_form, "generator")
    state = ResolutionState(H1Table(contraction, h1))
    levels = {}
    for key, entry in _field(doc, "levels", "state").items():
        n = read_int(key)
        if n is None or n < 3:
            raise ValueError(f"levels: key {key!r} is not a level number n >= 3")
        levels[n] = entry
    for n, entry in sorted(levels.items()):
        where = f"level {n}"
        basis = [(_field(b, "symbol", where, str),
                  pair_tag(_field(b, "tag", where, list), f"{where}: basis tag"))
                 for b in _field(entry, "basis", where, list)]
        for i, what in enumerate(("symbol", "tag")):
            if len({b[i] for b in basis}) != len(basis):
                raise ValueError(f"{where}: the basis lists a {what} twice")
        crossed_forms = tagged(_field(entry, "candidates_crossed", where, dict, {}),
                               "candidates_crossed", where, parse_form)
        by_tag, at = {}, f"{where}: candidate tag"
        for c in _field(entry, "candidates", where, list):
            tag = pair_tag(_field(c, "tag", where, list), at)
            if tag in by_tag:
                raise ValueError(f"{where}: tag {_tag_text(graph, tag)} is "
                                 f"listed twice among the candidates")
            by_tag[tag] = Candidate(tag, module(_field(c, "form", where), where),
                                    crossed_forms.get(tag))
        # the candidates are G x codomain, as the level below gives them
        codomain = _field(entry, "codomain", where, list)
        for tag in by_tag:
            if tag[1] not in codomain:
                raise ValueError(f"{where}: candidate {_tag_text(graph, tag)} "
                                 f"is not in G x codomain")
        if len(by_tag) != graph.order * len(codomain):
            raise ValueError(f"{where}: {len(by_tag)} candidates, not |G| x "
                             f"|codomain| = {graph.order * len(codomain)}")
        # xi and candidates_crossed are keyed by exactly the candidate
        # tags, boundary and crossed by exactly the kept symbols, and the
        # crossed fields hold entries at level 3 only
        kept = {sym for sym, _ in basis}
        xi = tagged(_field(entry, "xi", where), "xi", where, module)
        boundary = _field(entry, "boundary", where)
        crossed = _field(entry, "crossed", where, dict, {})
        for field, entries, want, kind in (
                ("xi", xi, by_tag, "candidate"),
                ("candidates_crossed", crossed_forms, by_tag if n == 3 else (),
                 "level-3 candidate"),
                ("boundary", boundary, kept, "kept symbol"),
                ("crossed", crossed, kept if n == 3 else (), "level-3 kept symbol")):
            odd = sorted(entries.keys() ^ want)
            if odd:
                name = (f"tag {_tag_text(graph, odd[0])}"
                        if kind.endswith("candidate") else f"symbol {odd[0]}")
                what = (f"has {'an' if field == 'xi' else 'a'} {field} entry but "
                        f"is not a {kind}" if odd[0] in entries
                        else f"is a {kind} with no {field} entry")
                raise ValueError(f"{where}: {name} {what}")
        for tag, m in xi.items():
            for sym in m.coords.keys() - kept:
                raise ValueError(f"{where}: the xi value of tag "
                                 f"{_tag_text(graph, tag)} uses {sym}, which "
                                 f"is not a kept symbol")
        # a kept symbol's stored boundary and crossed form must be the
        # ones the Level derives from its candidate
        for sym, tag in basis:
            cf = crossed.get(sym)
            stored = (module(boundary[sym], where),
                      cf and parse_form(cf, f"{where}: crossed form of {sym}"))
            cand = by_tag.get(tag)
            if cand is None or stored != (cand.form, cand.crossed_form):
                raise ValueError(f"{where}: the stored boundary or crossed "
                                 f"form of {sym} is not its candidate's")
        state.levels[n] = Level(codomain, basis, list(by_tag.values()), xi)
    return state


# ---------------------------------------------------------------------------
# rendering


def render_module(graph, m: ModuleElt) -> str:
    if not m:
        return "0"
    parts = []
    for sym, ring in m.items():
        parts.append(f"{sym}.({render_zg(graph, ring)})")
    return " + ".join(parts)


def render_tables(state: ResolutionState) -> str:
    graph = state.graph
    out = []
    out.append(f"group order {graph.order}; elements: "
               + ", ".join(graph.elt_name(g) for g in range(graph.order)))
    out.append("tree edges: " + ", ".join(
        f"({graph.elt_name(g)}, {graph.gens[k]})"
        for g, k in sorted(state.tree.edges)))
    out.append("")
    words: dict = {}  # conjugator Word -> text, for this call only
    for n in sorted(state.levels):
        level = state.levels[n]
        out.append(f"level {n} generators ({len(level.candidates)} candidates, "
                   f"{len(level.basis)} kept)")
        for cand in level.candidates:
            sym = level.symbol_of_tag[cand.tag]
            status = f"kept as {sym}" if sym else \
                ("trivial" if not cand.form else
                 f"xi = {render_module(graph, level.xi[cand.tag])}")
            line = f"  [{graph.elt_name(cand.tag[0])}, {cand.tag[1]}]"
            if cand.crossed_form is not None:
                line += f"  {render_crossed(cand.crossed_form, words)}"
            line += f"  ->  {render_module(graph, cand.form)}  ({status})"
            out.append(line)
        out.append("")
    return "\n".join(out) + "\n"
