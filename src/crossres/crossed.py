"""Elements of the free crossed module on the relators: formal consequences
prod (r_i^{e_i})^{u_i}, their boundary into F(X), the F(X)-action, and
abelianisation into the free ZG-module on the relator names.

Factor lists are freely reduced over the factor alphabet (an adjacent factor
and its exact inverse cancel) but no Peiffer/crossed-module moves are ever
applied, so equality of factor lists is syntactic only.  Equality of
identities among relations is decided downstream via abelianise (injective
on the identity submodule) together with boundary2.
"""

from __future__ import annotations

from .words import EMPTY, ZERO_ZG, GroupRingElt, Word, parse_word

Factor = tuple[str, int, Word]


class CrossedElt:
    __slots__ = ("factors",)

    def __init__(self, factors=()):
        stack: list[Factor] = []
        for name, sign, u in factors:
            if stack and stack[-1][0] == name and stack[-1][1] == -sign and stack[-1][2] == u:
                stack.pop()
            else:
                stack.append((name, sign, u))
        object.__setattr__(self, "factors", tuple(stack))

    def __setattr__(self, *a):
        raise AttributeError("CrossedElt is immutable")

    def __eq__(self, other):
        return isinstance(other, CrossedElt) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __len__(self):
        return len(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors

    def __repr__(self):
        return f"CrossedElt({render_crossed(self)!r})"


IDENTITY_CROSSED = CrossedElt()


def crossed(name: str, sign: int = 1, u: Word = EMPTY) -> CrossedElt:
    return CrossedElt(((name, sign, u),))


def mult(a: CrossedElt, b: CrossedElt) -> CrossedElt:
    return CrossedElt(a.factors + b.factors)


def inv(a: CrossedElt) -> CrossedElt:
    return CrossedElt(tuple((name, -sign, u) for name, sign, u in reversed(a.factors)))


def act(a: CrossedElt, w: Word) -> CrossedElt:
    """The right F(X)-action: every conjugator u becomes reduce(u.w)."""
    return CrossedElt(tuple((name, sign, u * w) for name, sign, u in a.factors))


def boundary2(a: CrossedElt, pres) -> Word:
    """delta_2: prod u^-1 (omega r)^e u, freely reduced.  The letters of
    every factor are concatenated and reduced once, by the stack that
    cancels at its top in `Word`; free reduction is confluent, so this is
    the word the product of the factors gives."""
    letters: list = []
    for name, sign, u in a.factors:
        w = pres.relator_word(name)
        letters += u.inv().letters + (w.inv() if sign == -1 else w).letters + u.letters
    return Word(letters)


class ModuleElt:
    """An element of a free ZG-module: symbol -> GroupRingElt, zero-free."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        clean = {}
        if coords:
            for sym, c in coords.items():
                if c:
                    clean[sym] = c
        object.__setattr__(self, "coords", clean)

    def __setattr__(self, *a):
        raise AttributeError("ModuleElt is immutable")

    def __add__(self, other):
        out = dict(self.coords)
        for sym, c in other.coords.items():
            out[sym] = out.get(sym, ZERO_ZG) + c
        return ModuleElt(out)

    def __neg__(self):
        return ModuleElt({sym: -c for sym, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, ModuleElt) and self.coords == other.coords

    def __hash__(self):
        return hash(frozenset((sym, c) for sym, c in self.coords.items()))

    def __bool__(self):
        return bool(self.coords)

    def items(self):
        return sorted(self.coords.items())

    def translated(self, graph, g: int) -> "ModuleElt":
        return ModuleElt({sym: c.translated(graph, g) for sym, c in self.coords.items()})

    def support_size(self) -> int:
        return sum(len(c.coeffs) for c in self.coords.values())

    def __repr__(self):
        return f"ModuleElt({self.coords!r})"


ZERO_MODULE = ModuleElt()


def unit(sym, g: int = 0, c: int = 1) -> ModuleElt:
    return ModuleElt({sym: GroupRingElt({g: c})})


def abelian_sums(a: CrossedElt, graph, elts) -> dict[str, dict[int, int]]:
    """abelianise(a) as {relator: {element: coefficient}}, zero sums kept.
    `elts`, a dict Word -> element that a caller keeps across its calls on
    one graph, evaluates each distinct conjugator once."""
    coords: dict[str, dict[int, int]] = {}
    for name, sign, u in a.factors:
        g = elts.get(u)
        if g is None:
            g = elts[u] = graph.eval_word(u)
        row = coords.setdefault(name, {})
        row[g] = row.get(g, 0) + sign
    return coords


def abelianise(a: CrossedElt, graph) -> ModuleElt:
    """(r^e)^u  ->  e . e_r . φ(u), summed over factors."""
    coords = abelian_sums(a, graph, {})
    return ModuleElt({name: GroupRingElt(row) for name, row in coords.items()})


def apply_map(graph, mapping: dict, m: ModuleElt) -> ModuleElt:
    """Apply the ZG-linear map sending basis symbol b to mapping[b]."""
    out: dict[str, dict[int, int]] = {}
    for sym, c in m.items():
        image = mapping[sym]
        for g, n in c.coeffs.items():
            for s, d in image.coords.items():
                row = out.setdefault(s, {})
                for h, e in d.coeffs.items():
                    k = graph.mult(h, g)
                    row[k] = row.get(k, 0) + n * e
    return ModuleElt({s: GroupRingElt(row) for s, row in out.items()})


def render_crossed(a: CrossedElt, words=None) -> str:
    """Factor text `r^+1@u` / `r^-1@u`, whitespace-joined; trivial -> `1`.
    `words`, a dict Word -> text that a caller keeps across its calls,
    renders each distinct conjugator once."""
    if not a.factors:
        return "1"
    words = {} if words is None else words
    parts = []
    for name, sign, u in a.factors:
        text = words.get(u)
        if text is None:
            text = words[u] = u.render()
        parts.append(f"{name}^{'+1' if sign == 1 else '-1'}@{text}")
    return " ".join(parts)


def parse_crossed(text: str, relator_names=None, generators=None,
                  words=None) -> CrossedElt:
    """Inverse of render_crossed.  A token containing `@` starts a factor;
    subsequent @-free tokens continue that factor's conjugator word.
    `words`, a dict text -> Word that a caller keeps across its calls with
    the same generators, parses each distinct conjugator text once."""
    tokens = text.split()
    if tokens == ["1"]:
        return IDENTITY_CROSSED
    groups: list[list[str]] = []
    for tok in tokens:
        if "@" in tok:
            groups.append([tok])
        elif groups:
            groups[-1].append(tok)
        else:
            raise ValueError(f"malformed consequence text {text!r}")
    words = {} if words is None else words
    factors = []
    for group in groups:
        head, _, u_start = group[0].partition("@")
        name, caret, sign_text = head.rpartition("^")
        if not caret or sign_text not in ("+1", "-1"):
            raise ValueError(f"malformed factor {group[0]!r}")
        if relator_names is not None and name not in relator_names:
            raise ValueError(f"unknown relator {name!r} in {text!r}")
        u_text = " ".join([u_start] + group[1:])
        u = words.get(u_text)
        if u is None:
            u = words[u_text] = parse_word(u_text, generators)
        factors.append((name, 1 if sign_text == "+1" else -1, u))
    return CrossedElt(factors)
