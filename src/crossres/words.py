"""Free-group words over a finite alphabet, and the group-ring side of them.

A word is a freely reduced sequence of letters (name, sign) with sign +1 or -1.
The empty word is the identity.  Group-ring elements are finite integer
combinations of group elements, with the group elements kept abstract as
indices (the Cayley graph supplies the actual multiplication).
"""

from __future__ import annotations

import re

Letter = tuple[str, int]

# Characters that can never appear in a generator name: word syntax uses
# "^" and "-" for powers, tree/h1 files use whitespace and ":=", "@"
# separates factor conjugators, "#" starts comments, and "1" alone denotes
# the empty word.
_FORBIDDEN_CHARS = set('^()-@:=#,')

_INT = re.compile(r"0|-?[1-9][0-9]*")


def read_int(text: str) -> int | None:
    """The integer of `text` if it is `0` or an optional `-` then ASCII
    digits with no leading zero, else None: the one integer rule of every
    reader (powers, pin multipliers, level numbers, coefficients, counts)."""
    return int(text) if _INT.fullmatch(text) else None


def validate_generator_name(name: str) -> str:
    if not name or name == "1":
        raise ValueError(f"invalid generator name {name!r}")
    if any(ch.isspace() or ch in _FORBIDDEN_CHARS or not ch.isprintable() for ch in name):
        raise ValueError(f"invalid generator name {name!r}")
    return name


def reduce(letters) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence (cancel adjacent (g,+1)(g,-1) pairs)."""
    out: list[Letter] = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


class Word:
    """A freely reduced word in F(X).  Immutable."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", reduce(letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inv(self) -> "Word":
        # the inverse of a freely reduced word is freely reduced, so it is
        # not reduced again
        out = object.__new__(Word)
        object.__setattr__(out, "letters", tuple([(name, -sign) for name, sign
                                                  in reversed(self.letters)]))
        return out

    def is_empty(self) -> bool:
        return not self.letters

    def render(self) -> str:
        """Caret-power text form; the empty word renders as "1"."""
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            name, sign = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == (name, sign):
                j += 1
            power = (j - i) * sign
            parts.append(name if power == 1 else f"{name}^{power}")
            i = j
        return " ".join(parts)

    def __repr__(self):
        return f"Word({self.render()!r})"


EMPTY = Word()


def word(name: str, sign: int = 1) -> Word:
    return Word(((name, sign),))


def parse_letters(text: str, generators=None) -> list[Letter]:
    """The letters of caret-power word syntax as written, before free
    reduction: whitespace-separated tokens like `x`, `x^3`, `x^-1`, each
    power read by `read_int` (a zero power still names a generator); the
    token `1` alone is the empty word."""
    tokens = text.split()
    if tokens == ["1"]:
        return []
    letters: list[Letter] = []
    for tok in tokens:
        name, sep, power_text = tok.partition("^")
        if sep:
            power = read_int(power_text)
            if power is None:
                raise ValueError(f"malformed word token {tok!r}")
        else:
            power = 1
        if not name or name == "1":
            raise ValueError(f"malformed word token {tok!r}")
        if generators is not None and name not in generators:
            raise ValueError(f"unknown generator {name!r} in word {text!r}")
        sign = 1 if power > 0 else -1
        letters.extend((name, sign) for _ in range(abs(power)))
    return letters


def parse_word(text: str, generators=None) -> Word:
    """Parse caret-power word syntax (see parse_letters) into a freely
    reduced word."""
    return Word(parse_letters(text, generators))


class GroupRingElt:
    """An element of ZG: finite map from group-element index to a nonzero
    integer coefficient.  Addition is plain; anything multiplicative takes
    the Cayley graph as an argument."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for g, c in coeffs.items():
                if c:
                    clean[g] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("GroupRingElt is immutable")

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElt(out)

    def __neg__(self):
        return GroupRingElt({g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, GroupRingElt) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        return sorted(self.coeffs.items())

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def translated(self, graph, g: int) -> "GroupRingElt":
        """Right translation: sum c_h . h  ->  sum c_h . (h g)."""
        return GroupRingElt({graph.mult(h, g): c for h, c in self.coeffs.items()})

    def __repr__(self):
        return f"GroupRingElt({self.coeffs!r})"


ZERO_ZG = GroupRingElt()


def fox_derivative(w: Word, x: str, graph) -> GroupRingElt:
    """The free derivative d w / d x of a word, evaluated through φ into ZG.

    Right-module convention: d(uv)/dx = (du/dx).φ(v) + dv/dx, with
    dx/dx = 1 and d(x^-1)/dx = -φ(x^-1).  A single right-to-left pass
    keeps t = φ(current suffix): a letter x contributes +t, a letter
    x^-1 first folds itself into the suffix and then contributes -t.
    """
    out: dict[int, int] = {}
    t = 0  # identity index
    for name, sign in reversed(w.letters):
        k = graph.gen_index(name)
        if sign == 1:
            if name == x:
                out[t] = out.get(t, 0) + 1
            t = graph.mult(graph.fwd[0][k], t)
        else:
            t = graph.mult(graph.bwd[0][k], t)
            if name == x:
                out[t] = out.get(t, 0) - 1
    return GroupRingElt(out)
