"""Exact finitely generated groups: free groups, integer lattices, and the
dyadic affine group generated by x -> 2x and x -> x+1.

Every element has a unique normal form, all arithmetic is exact, and balls in
the word metric are enumerated in a fixed (length, then lexicographic on
generator indices) order so that downstream results are byte-reproducible.
"""

from __future__ import annotations

import string
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .dyadic import Dyadic, parse_dyadic


class GroupError(ValueError):
    """Operand does not belong to the group, or the operation is unsupported."""


class ParseError(ValueError):
    """Malformed element or expression text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, slots=True)
class FreeWord:
    """Reduced word in a free group; letters are +/-(i+1) for generator i."""

    letters: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class IntVec:
    """Element of Z^d."""

    coords: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class AffineElem:
    """The map x -> a*x + b with a = 2**a_exp and b dyadic."""

    a_exp: int
    b: Dyadic


Elem = Union[FreeWord, IntVec, AffineElem]

_LETTERS = string.ascii_lowercase
_LENGTH_CAP = 64  # word_length gives up beyond this many layers


def _reduce_concat(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    out = list(left)
    for x in right:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Layers:
    """Breadth-first layers of the products g1 g2 ... gk of generators from
    `gens`, grown on demand.

    layers[k] holds the values first reached by a word of length k, and
    `index` maps each value reached to its layer.  layers[0] holds the empty
    word's value, the identity, which is in `index` only `with_root` (a
    ball); without it (the nonempty words of a semigroup) the identity counts
    as reached only when a nonempty word gives it.  Growth stops after an
    empty layer: then every value has been found."""

    def __init__(self, group: "Group", gens: Sequence[Elem], with_root: bool):
        self.group = group
        self.gens = tuple(gens)
        root = group.identity()
        self.layers: list[list[Elem]] = [[root]]
        self.index: dict[Elem, int] = {root: 0} if with_root else {}
        self.lock = threading.Lock()

    def extend(self, upto: int) -> None:
        """Compute the layers up to length `upto`, or to the first empty one."""
        with self.lock:
            layers, index, mul = self.layers, self.index, self.group.mul
            while len(layers) <= upto and layers[-1]:
                r = len(layers)
                layer = []
                for parent in layers[-1]:
                    for gen in self.gens:
                        child = mul(parent, gen)
                        if child not in index:
                            index[child] = r
                            layer.append(child)
                layers.append(layer)


class Group:
    """Common interface: exact multiplication, inversion, enumeration, parsing."""

    key: str

    def __init__(self) -> None:
        self._balls = Layers(self, self.generators(), with_root=True)

    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, g: Elem, h: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, g: Elem) -> Elem:
        raise NotImplementedError

    def generators(self) -> tuple[Elem, ...]:
        """Canonical symmetric generating set, in enumeration order."""
        raise NotImplementedError

    def check(self, g: Elem) -> Elem:
        """Validate that g is an element of this group."""
        raise NotImplementedError

    def sort_key(self, g: Elem):
        """Total order on elements used for canonical serialisation."""
        raise NotImplementedError

    def show(self, g: Elem) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Elem:
        raise NotImplementedError

    # ---- word metric ----------------------------------------------------

    def ball_elements(self, radius: int) -> list[Elem]:
        """All elements of word length <= radius, in canonical order."""
        if radius < 0:
            raise GroupError("radius must be >= 0")
        self._balls.extend(radius)
        return [g for layer in self._balls.layers[: radius + 1] for g in layer]

    def word_length(self, g: Elem) -> int:
        """Exact word length with respect to the canonical generators."""
        self.check(g)
        for r in range(_LENGTH_CAP + 1):
            self._balls.extend(r)
            if g in self._balls.index:
                return self._balls.index[g]
        raise GroupError(f"word length of {self.show(g)} exceeds cap {_LENGTH_CAP}")

    def in_ball(self, g: Elem, radius: int) -> bool:
        """Whether g has word length <= radius."""
        return self.word_length(g) <= radius

    def enumerate_elements(self) -> Iterator[Elem]:
        """Canonical enumeration of the whole group, layer by layer."""
        r = 0
        while True:
            self._balls.extend(r)
            yield from self._balls.layers[r]
            r += 1

    def __repr__(self) -> str:
        return f"<group {self.key}>"


class FreeGroup(Group):
    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise GroupError(f"free group rank must be in 1..26, got {rank}")
        self.rank = rank
        self.key = f"free:{rank}"
        super().__init__()

    def identity(self) -> FreeWord:
        return FreeWord(())

    def check(self, g: Elem) -> FreeWord:
        g = self._coerce(g)
        for i, x in enumerate(g.letters):
            if i and g.letters[i - 1] == -x:
                raise GroupError(f"word {g.letters} is not reduced")
        return g

    def _coerce(self, g: Elem) -> FreeWord:
        if not isinstance(g, FreeWord):
            raise GroupError(f"{g!r} is not a free group element")
        if g.letters and abs(max(g.letters, key=abs)) > self.rank:
            raise GroupError(f"letters of {g.letters} out of range for {self.key}")
        return g

    def mul(self, g: Elem, h: Elem) -> FreeWord:
        self._coerce(g), self._coerce(h)
        return FreeWord(_reduce_concat(g.letters, h.letters))

    def inv(self, g: Elem) -> FreeWord:
        self._coerce(g)
        return FreeWord(tuple(-x for x in reversed(g.letters)))

    def generators(self) -> tuple[FreeWord, ...]:
        gens = []
        for i in range(1, self.rank + 1):
            gens.append(FreeWord((i,)))
            gens.append(FreeWord((-i,)))
        return tuple(gens)

    def sort_key(self, g: FreeWord):
        idx = tuple(2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in g.letters)
        return (len(g.letters), idx)

    def word_length(self, g: Elem) -> int:
        return len(self.check(g).letters)

    def show(self, g: FreeWord) -> str:
        if not g.letters:
            return "e"
        parts = []
        for x in g.letters:
            name = _LETTERS[abs(x) - 1]
            parts.append(name if x > 0 else name + "^-1")
        return " ".join(parts)

    def parse(self, text: str) -> FreeWord:
        text = text.strip()
        if text in ("", "e"):
            return FreeWord(())
        letters: list[int] = []
        for pos, token in enumerate(text.split()):
            if token == "e":
                continue
            name, sign = token, 1
            if token.endswith("^-1"):
                name, sign = token[:-3], -1
            elif "^" in token:
                raise ParseError(f"unsupported power in {token!r}", pos)
            if len(name) != 1 or name not in _LETTERS[: self.rank]:
                raise ParseError(f"unknown generator {name!r} for {self.key}", pos)
            letters.append(sign * (_LETTERS.index(name) + 1))
        return FreeWord(_reduce_concat((), letters))


class LatticeGroup(Group):
    """Z^d with unit-vector generators."""

    def __init__(self, dim: int):
        if dim < 1:
            raise GroupError(f"lattice dimension must be >= 1, got {dim}")
        self.dim = dim
        self.key = f"zn:{dim}"
        super().__init__()

    def identity(self) -> IntVec:
        return IntVec((0,) * self.dim)

    def check(self, g: Elem) -> IntVec:
        if not isinstance(g, IntVec) or len(g.coords) != self.dim:
            raise GroupError(f"{g!r} is not an element of {self.key}")
        return g

    def mul(self, g: Elem, h: Elem) -> IntVec:
        self.check(g), self.check(h)
        return IntVec(tuple(a + b for a, b in zip(g.coords, h.coords)))

    def inv(self, g: Elem) -> IntVec:
        self.check(g)
        return IntVec(tuple(-a for a in g.coords))

    def generators(self) -> tuple[IntVec, ...]:
        gens = []
        for i in range(self.dim):
            for sign in (1, -1):
                v = [0] * self.dim
                v[i] = sign
                gens.append(IntVec(tuple(v)))
        return tuple(gens)

    def sort_key(self, g: IntVec):
        idx = []
        for i, v in enumerate(g.coords):
            idx.extend([2 * i if v > 0 else 2 * i + 1] * abs(v))
        return (sum(abs(v) for v in g.coords), tuple(idx))

    def word_length(self, g: Elem) -> int:
        return sum(abs(v) for v in self.check(g).coords)

    def show(self, g: IntVec) -> str:
        return "(" + ",".join(str(v) for v in g.coords) + ")"

    def parse(self, text: str) -> IntVec:
        text = text.strip()
        if text == "e":
            return self.identity()
        if text.startswith("(") and text.endswith(")"):
            body = text[1:-1]
        elif self.dim == 1:
            body = text
        else:
            raise ParseError(f"expected '(i1,...,i{self.dim})', got {text!r}")
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != self.dim:
            raise ParseError(f"expected {self.dim} coordinates in {text!r}")
        try:
            return IntVec(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ParseError(f"bad integer in {text!r}: {exc}") from None


class DyadicAffineGroup(Group):
    """Maps x -> a*x + b with a a power of two and b dyadic; generated by
    x -> 2x and x -> x+1 (group string "bs12")."""

    def __init__(self) -> None:
        self.key = "bs12"
        super().__init__()

    def identity(self) -> AffineElem:
        return AffineElem(0, Dyadic(0))

    def check(self, g: Elem) -> AffineElem:
        if not isinstance(g, AffineElem):
            raise GroupError(f"{g!r} is not a dyadic affine element")
        return g

    def mul(self, g: Elem, h: Elem) -> AffineElem:
        self.check(g), self.check(h)
        # (a1,b1)(a2,b2) : x -> a1*(a2*x + b2) + b1
        return AffineElem(g.a_exp + h.a_exp, h.b.shift(g.a_exp) + g.b)

    def inv(self, g: Elem) -> AffineElem:
        self.check(g)
        return AffineElem(-g.a_exp, (-g.b).shift(-g.a_exp))

    def generators(self) -> tuple[AffineElem, ...]:
        s = AffineElem(1, Dyadic(0))
        u = AffineElem(0, Dyadic(1))
        return (s, self.inv(s), u, self.inv(u))

    def in_ball(self, g: Elem, radius: int) -> bool:
        # no closed-form length: read g's layer from the enumerated ball
        self._balls.extend(radius)
        return self._balls.index.get(g, radius + 1) <= radius

    def sort_key(self, g: AffineElem):
        return (g.a_exp, g.b.as_fraction())

    def show(self, g: AffineElem) -> str:
        a = str(1 << g.a_exp) if g.a_exp >= 0 else f"1/{1 << -g.a_exp}"
        return f"({a},{g.b})"

    def parse(self, text: str) -> AffineElem:
        text = text.strip()
        if text == "e":
            return self.identity()
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(f"expected '(a,b)', got {text!r}")
        parts = _split_top(text[1:-1], ",")
        if len(parts) != 2:
            raise ParseError(f"expected two components in {text!r}")
        try:
            a = parse_dyadic(parts[0])
            b = parse_dyadic(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad dyadic in {text!r}: {exc}") from None
        if a.num == 1 and a.exp >= 0:
            a_exp = -a.exp
        elif a.exp == 0 and a.num > 0 and (a.num & (a.num - 1)) == 0:
            a_exp = a.num.bit_length() - 1
        else:
            raise ParseError(f"scale component must be a power of two: {parts[0]!r}")
        return AffineElem(a_exp, b)


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at paren/brace depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


_GROUPS: dict[str, Group] = {}
_GROUPS_LOCK = threading.Lock()


def group_from_string(spec: str) -> Group:
    """Resolve 'free:k', 'zn:d' or 'bs12' to a (shared) group instance."""
    spec = spec.strip()
    with _GROUPS_LOCK:
        if spec in _GROUPS:
            return _GROUPS[spec]
        if spec == "bs12":
            grp: Group = DyadicAffineGroup()
        elif spec.startswith("free:"):
            grp = FreeGroup(int(spec.split(":", 1)[1]))
        elif spec.startswith("zn:"):
            grp = LatticeGroup(int(spec.split(":", 1)[1]))
        else:
            raise ParseError(f"unknown group spec {spec!r}")
        _GROUPS[spec] = grp
        return grp


# ---- windows -------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Finite, ordered, duplicate-free slice of a group on which all
    certificates are checked."""

    group: Group
    radius: int
    elements: tuple[Elem, ...]
    kind: str = "ball"  # "ball" (elements = ball of `radius`) or "explicit"

    def __post_init__(self) -> None:
        seen = set()
        for g in self.elements:
            if g in seen:
                raise GroupError(f"duplicate window element {self.group.show(g)}")
            seen.add(g)

    def __len__(self) -> int:
        return len(self.elements)


def ball(group: Group, radius: int) -> Window:
    return Window(group, radius, tuple(group.ball_elements(radius)), kind="ball")


def explicit_window(group: Group, elements: Sequence[Elem], radius: int) -> Window:
    return Window(group, radius, tuple(elements), kind="explicit")


def affine_fraction(g: AffineElem) -> tuple[Fraction, Fraction]:
    """The (a, b) of the map x -> a*x + b, as exact fractions."""
    a = Fraction(1 << g.a_exp) if g.a_exp >= 0 else Fraction(1, 1 << -g.a_exp)
    return a, g.b.as_fraction()
