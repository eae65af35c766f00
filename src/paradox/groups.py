"""Exact finitely generated groups: free groups, integer lattices, and the
dyadic affine group generated by x -> 2x and x -> x+1.

Every element has a unique normal form, all arithmetic is exact, and balls in
the word metric are enumerated in a fixed (length, then lexicographic on
generator indices) order so that downstream results are byte-reproducible.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import add, itemgetter, neg, xor
from typing import Iterator, Sequence, Union

from .dyadic import _lowest_terms, parse_dyadic, show_dyadic


class GroupError(ValueError):
    """Operand does not belong to the group, or the operation is unsupported."""


class ParseError(ValueError):
    """Malformed element or expression text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def quote(text: str, detail: object = "") -> str:
    """`repr(text)`, then `: detail` if given, for an error message; a text of
    over 60 characters is its first 60, `…` and its length, with no detail."""
    if len(text) > 60:
        return f"{text[:60]!r}… ({len(text)} characters)"
    return f"{text!r}: {detail}" if detail else repr(text)


class Record(tuple):
    """Base of the package's immutable value types: a tuple of the fields
    that the class statement names (`class R(Record, fields="a b")`), each
    read by name, with the repr `R(a=..., b=...)`.  Equality, hashing and
    pickling are the tuple's.  A subclass may put fixed `_head` items before
    the fields."""

    __slots__ = ()
    _head: tuple = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str = "") -> None:
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields, len(cls._head)):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(
                f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}"
            )
        return tuple.__new__(cls, cls._head + values)

    def __getnewargs__(self):
        return self[len(self._head):]

    def __repr__(self) -> str:
        items = zip(self._fields, self[len(self._head):])
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in items)})"


class FreeWord(tuple):
    """Reduced word in a free group.

    `FreeWord(letters)` and `.letters` speak signed letters: +(i+1) for
    generator i and -(i+1) for its inverse.  The tuple itself holds letter
    codes, 2i for generator i and 2i + 1 for its inverse, so that the inverse
    of code c is c ^ 1 and distinct words hash apart (CPython has
    hash(-1) == hash(-2), so signed letters made a^-1 and b^-1 collide)."""

    __slots__ = ()

    def __new__(cls, letters: Sequence[int]):
        return tuple.__new__(cls, [2 * x - 2 if x > 0 else -2 * x - 1 for x in letters])

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(-(c >> 1) - 1 if c & 1 else (c >> 1) + 1 for c in self)

    def __getnewargs__(self):
        return (self.letters,)

    def __repr__(self) -> str:
        return f"FreeWord(letters={self.letters!r})"


class IntVec(tuple):
    """Element of Z^d; the tuple holds the coordinates."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"IntVec(coords={tuple(self)!r})"


class AffineElem(tuple):
    """The map x -> 2**a_exp * x + num / 2**exp; the tuple holds
    (a_exp, num, exp) with the offset in lowest terms: exp >= 0, and num is
    odd unless exp == 0 (so zero is (a_exp, 0, 0))."""

    __slots__ = ()

    def __new__(cls, a_exp: int, num: int = 0, exp: int = 0):
        return tuple.__new__(cls, (a_exp, *_lowest_terms(num, exp)))

    a_exp = property(itemgetter(0))
    num = property(itemgetter(1))
    exp = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"AffineElem(a_exp={self[0]!r}, num={self[1]!r}, exp={self[2]!r})"


Elem = Union[FreeWord, IntVec, AffineElem]

# Build elements from their tuple contents, without FreeWord's letter coding
# or AffineElem's reduction to lowest terms; only for contents known to be valid.
_word = partial(tuple.__new__, FreeWord)
_affine = partial(tuple.__new__, AffineElem)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Most values an enumeration of a ball or of a semigroup's positive words may
# hold: free:2 radius 10 (118,097 points) fits, and a bs12 ball passes it
# within a second.
BALL_SIZE_CAP = 120_000
# Most total size (`Group._size`: letters of a free word, bit lengths of a
# lattice point or a bs12 element) such an enumeration may hold, or the walk of
# `enumerate_elements` reach: zn:1 `greedy(200)` reaches 3.7 million, and the
# free:1 ball of radius 1999 (3,998,000 letters) fits.
SIZE_CAP = 4_000_000
# Most (window point, translator) products a transport graph or a violator
# replay may form: free:2 window 10 times its radius-1 ball (590,485) fits.
PRODUCT_CAP = 600_000


class Layers:
    """Breadth-first layers of the products g1 g2 ... gk of generators from
    `gens`, grown on demand.

    layers[k] holds the values first reached by a word of length k, and
    `index` maps each value reached to its layer.  layers[0] holds the empty
    word's value, the identity, which is in `index` only `with_root` (a
    ball); without it (the nonempty words of a semigroup) the identity counts
    as reached only when a nonempty word gives it.  Growth stops after an
    empty layer: then every value has been found.  Growth also stops for good,
    in the middle of a layer, once `index` holds more than BALL_SIZE_CAP
    values or their sizes add up to more than SIZE_CAP: then `capped` is set
    and the last layer is incomplete, and `values` refuses what it lacks."""

    def __init__(self, group: "Group", gens: Sequence[Elem], with_root: bool):
        self.group = group
        self.gens = tuple(map(group.check, gens))
        root = group.identity()
        self.layers: list[list[Elem]] = [[root]]
        self.index: dict[Elem, int] = {root: 0} if with_root else {}
        self.size = 0
        self.capped = False

    def extend(self, upto: int) -> None:
        """Compute the layers up to length `upto`, to the first empty one, or
        to a cap."""
        layers, index = self.layers, self.index
        mul, size = self.group._mul, self.group._size
        while len(layers) <= upto and layers[-1] and not self.capped:
            r = len(layers)
            layer = []
            layers.append(layer)
            for parent in layers[r - 1]:
                for gen in self.gens:
                    child = mul(parent, gen)
                    if child not in index:
                        index[child] = r
                        layer.append(child)
                        self.size += size(child)
                        if len(index) > BALL_SIZE_CAP or self.size > SIZE_CAP:
                            self.capped = True
                            return

    def values(self, length: int, what: str) -> list[Elem]:
        """The values of the words of length <= `length`, layer by layer;
        GroupError naming `what` if a cap stopped growth before they were all
        found.  A cap reached at a longer length refuses nothing shorter."""
        self.extend(length)
        if self.capped and len(self.layers) <= length + 1:
            raise GroupError(f"enumerating {what} passed its cap ({BALL_SIZE_CAP} "
                             f"values, {SIZE_CAP} letters or bits)")
        return [g for layer in self.layers[: length + 1] for g in layer]


class Group:
    """Common interface: exact multiplication, inversion, enumeration, parsing.

    The public `mul` and `inv` check their operands; `_mul` and `_inv` are
    their unchecked kernels, for operands that were already checked (parsed,
    enumerated, or built by a kernel from checked operands)."""

    key: str

    def __init__(self) -> None:
        self._balls = Layers(self, self.generators(), with_root=True)
        self._shown: dict[str, Elem] = {}  # text -> point, of every window's points

    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, g: Elem, h: Elem) -> Elem:
        return self._mul(self.check(g), self.check(h))

    def inv(self, g: Elem) -> Elem:
        return self._inv(self.check(g))

    def _mul(self, g: Elem, h: Elem) -> Elem:
        raise NotImplementedError

    def _inv(self, g: Elem) -> Elem:
        raise NotImplementedError

    def _product(self, elems) -> Elem:
        """The product of checked elements, left to right."""
        return reduce(self._mul, elems, self.identity())

    def generators(self) -> tuple[Elem, ...]:
        """Canonical symmetric generating set, in enumeration order."""
        raise NotImplementedError

    def check(self, g: Elem) -> Elem:
        """Validate that g is an element of this group; returns g."""
        raise NotImplementedError

    def sort_key(self, g: Elem):
        """Total order on elements used for canonical serialisation."""
        raise NotImplementedError

    def show(self, g: Elem) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Elem:
        """The element a text names: the text of a point that a window of
        this group has shown reads as that point, any other text is parsed."""
        g = self._shown.get(text)
        return self._parse(text) if g is None else g

    # ---- word metric ----------------------------------------------------

    def _size(self, g: Elem) -> int:
        """What g costs an enumeration: here the bit lengths of its fields."""
        return sum(map(int.bit_length, g))

    def ball_elements(self, radius: int) -> list[Elem]:
        """All elements of word length <= radius, in canonical order."""
        if radius < 0:
            raise GroupError("radius must be >= 0")
        return self._balls.values(radius, f"the ball of radius {radius} in {self.key}")

    def _ball_test(self, radius: int):
        """A test of word length <= radius for checked elements; here it reads
        the element's layer from the enumerated ball."""
        self.ball_elements(max(radius, 0))  # a negative radius holds no point
        index, outside = self._balls.index, radius + 1
        return lambda g: index.get(g, outside) <= radius

    def enumerate_elements(self) -> Iterator[Elem]:
        """Canonical enumeration of the whole group, layer by layer, in the
        order of the ball layers.  It keeps its own search rather than the
        capped `_balls`, so it runs past BALL_SIZE_CAP points as far as the
        caller reads, until their sizes pass SIZE_CAP (GroupError)."""
        gens, size, total = self.generators(), self._size, 0
        layer = [self.identity()]
        seen = set(layer)
        while layer:
            yield from layer
            next_layer = []
            for parent in layer:
                for gen in gens:
                    child = self._mul(parent, gen)
                    if child not in seen:
                        seen.add(child)
                        next_layer.append(child)
                        total += size(child)
                        if total > SIZE_CAP:
                            raise GroupError(f"enumerating {self.key} passed its "
                                             f"cap of {SIZE_CAP} letters or bits")
            layer = next_layer

    def __repr__(self) -> str:
        return f"<group {self.key}>"


class FreeGroup(Group):
    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise GroupError(f"free group rank must be in 1..26, got {rank}")
        self.rank = rank
        self.key = f"free:{rank}"
        # the text of each letter code, and back
        self._names = tuple(
            name + inverse for name in _LETTERS[:rank] for inverse in ("", "^-1")
        )
        self._codes = {name: c for c, name in enumerate(self._names)}
        self._code_set = frozenset(self._codes.values())
        super().__init__()

    def identity(self) -> FreeWord:
        return _word(())

    def check(self, g: Elem) -> FreeWord:
        if not isinstance(g, FreeWord):
            raise GroupError(f"{g!r} is not a free group element")
        if not self._code_set.issuperset(g):
            raise GroupError(f"letters of {g.letters} out of range for {self.key}")
        # adjacent codes c, c ^ 1 are a letter next to its inverse
        if 1 in map(xor, g, g[1:]):
            raise GroupError(f"word {g.letters} is not reduced")
        return g

    def _mul(self, g: FreeWord, h: FreeWord) -> FreeWord:
        if not g:
            return h
        if not h or g[-1] ^ h[0] != 1:
            return _word(g + h)
        # cancel the longest suffix of g against the inverse prefix of h
        n, k = len(g), 1
        while k < n and k < len(h) and g[n - 1 - k] ^ h[k] == 1:
            k += 1
        return _word(g[: n - k] + h[k:])

    def _inv(self, g: FreeWord) -> FreeWord:
        return _word([c ^ 1 for c in reversed(g)])

    def _product(self, elems) -> FreeWord:
        # one stack over all the letter codes: each letter cancels against
        # the top or is pushed, so the product costs its total length
        stack: list[int] = []
        for g in elems:
            for c in g:
                if stack and stack[-1] == c ^ 1:
                    stack.pop()
                else:
                    stack.append(c)
        return _word(stack)

    def generators(self) -> tuple[FreeWord, ...]:
        return tuple(_word((c,)) for c in range(2 * self.rank))

    def sort_key(self, g: FreeWord):
        return (len(g), g)

    def _ball_test(self, radius: int):
        return lambda g: len(g) <= radius

    def _size(self, g: FreeWord) -> int:
        return len(g)

    def show(self, g: FreeWord) -> str:
        if not g:
            return "e"
        return " ".join(map(self._names.__getitem__, g))

    def _parse(self, text: str) -> FreeWord:
        tokens = text.split()
        if not tokens:
            raise ParseError(f"expected a word or 'e', got {quote(text)}")
        codes: list[int] = []
        for pos, token in enumerate(tokens):
            code = self._codes.get(token)
            if code is None:
                if token == "e":
                    continue
                name = token
                if token.endswith("^-1"):
                    name = token[:-3]
                elif "^" in token:
                    raise ParseError(f"unsupported power in {quote(token)}", pos)
                raise ParseError(f"unknown generator {quote(name)} for {self.key}", pos)
            codes.append(code)
        return self._product((codes,))  # the codes reduced as one word


class LatticeGroup(Group):
    """Z^d with unit-vector generators."""

    def __init__(self, dim: int):
        if not 1 <= dim <= 26:
            raise GroupError(f"lattice dimension must be in 1..26, got {dim}")
        self.dim = dim
        self.key = f"zn:{dim}"
        super().__init__()

    def identity(self) -> IntVec:
        return IntVec((0,) * self.dim)

    def check(self, g: Elem) -> IntVec:
        if not isinstance(g, IntVec) or len(g) != self.dim:
            raise GroupError(f"{g!r} is not an element of {self.key}")
        return g

    def _mul(self, g: IntVec, h: IntVec) -> IntVec:
        return IntVec(map(add, g, h))

    def _inv(self, g: IntVec) -> IntVec:
        return IntVec(map(neg, g))

    def generators(self) -> tuple[IntVec, ...]:
        gens = []
        for i in range(self.dim):
            for sign in (1, -1):
                v = [0] * self.dim
                v[i] = sign
                gens.append(IntVec(v))
        return tuple(gens)

    def sort_key(self, g: IntVec):
        # word length, then g's letters in coordinate order (code 2i for
        # +e_i, 2i+1 for -e_i) compared lexicographically, one (code, -run
        # length) pair per run: a longer run of one code sorts first, since
        # the code after it is larger
        return (sum(map(abs, g)), tuple(
            (2 * i if v > 0 else 2 * i + 1, -abs(v)) for i, v in enumerate(g) if v))

    def _ball_test(self, radius: int):
        return lambda g: sum(map(abs, g)) <= radius

    def show(self, g: IntVec) -> str:
        return "(" + ",".join(map(str, g)) + ")"

    def _parse(self, text: str) -> IntVec:
        text = text.strip()
        if text == "e":
            return self.identity()
        if text.startswith("(") and text.endswith(")"):
            body = text[1:-1]
        elif self.dim == 1:
            body = text
        else:
            raise ParseError(f"expected '(i1,...,i{self.dim})', got {quote(text)}")
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != self.dim:
            raise ParseError(f"expected {self.dim} coordinates in {quote(text)}")
        try:
            return IntVec(int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"bad integer in {quote(text, exc)}") from None


_AFFINE_ONE = AffineElem(0)

# Bound on |k| of a parsed scale 2**k, on j and the bit length of p in an
# offset p/2**j: a product of three such elements prints in under 4300 digits,
# CPython's limit on converting an integer to text.
AFFINE_SIZE_CAP = 4096


class DyadicAffineGroup(Group):
    """Maps x -> a*x + b with a a power of two and b dyadic; generated by
    x -> 2x and x -> x+1 (group string "bs12")."""

    def __init__(self) -> None:
        self.key = "bs12"
        super().__init__()

    def identity(self) -> AffineElem:
        return _AFFINE_ONE

    def check(self, g: Elem) -> AffineElem:
        if not isinstance(g, AffineElem):
            raise GroupError(f"{g!r} is not a dyadic affine element")
        return g

    def _mul(self, g: AffineElem, h: AffineElem) -> AffineElem:
        # (a1,b1)(a2,b2) : x -> a1*(a2*x + b2) + b1, with b2*a1 = hn / 2**e
        ga, gn, ge = g
        ha, hn, he = h
        if not hn:
            return _affine((ga + ha, gn, ge))
        e = he - ga
        if e < ge:
            # gn is odd (or ge is 0) and hn * 2**(ge - e) even: lowest terms
            return _affine((ga + ha, gn + (hn << (ge - e)), ge))
        num = hn + (gn << (e - ge))
        if num & 1 or not e:
            return _affine((ga + ha, num, e))
        return _affine((ga + ha, *_lowest_terms(num, e)))

    def _inv(self, g: AffineElem) -> AffineElem:
        # x -> (x - b) / a
        a, n, e = g
        return _affine((-a, *_lowest_terms(-n, e + a)))

    def generators(self) -> tuple[AffineElem, ...]:
        s, u = _affine((1, 0, 0)), _affine((0, 1, 0))
        return (s, self._inv(s), u, self._inv(u))

    def sort_key(self, g: AffineElem):
        # b = q + r / 2**exp with 0 <= r < 2**exp; the binary digits of r,
        # padded to exp places, order the fractional parts exactly
        a_exp, num, exp = g
        return (a_exp, num >> exp, format(num & ((1 << exp) - 1), f"0{exp}b"))

    def show(self, g: AffineElem) -> str:
        a_exp, num, exp = g
        a = str(1 << a_exp) if a_exp >= 0 else f"1/{1 << -a_exp}"
        return f"({a},{show_dyadic(num, exp)})"

    def _parse(self, text: str) -> AffineElem:
        text = text.strip()
        if text == "e":
            return self.identity()
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(f"expected '(a,b)', got {quote(text)}")
        parts = _split_top(text[1:-1], ",")
        if len(parts) != 2:
            raise ParseError(f"expected two components in {quote(text)}")
        try:
            a_num, a_den_exp = parse_dyadic(parts[0])
            num, exp = parse_dyadic(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad dyadic in {quote(text, exc)}") from None
        if a_num == 1:
            a_exp = -a_den_exp
        elif a_den_exp == 0 and a_num > 0 and (a_num & (a_num - 1)) == 0:
            a_exp = a_num.bit_length() - 1
        else:
            raise ParseError(f"scale component must be a power of two: {quote(parts[0])}")
        cap = AFFINE_SIZE_CAP
        if abs(a_exp) > cap or exp > cap or num.bit_length() > cap:
            raise ParseError(f"element {quote(text)} is out of range: a scale 2^k and "
                             f"an offset p/2^j need |k|, j and the bit length of "
                             f"p at most {cap}")
        return _affine((a_exp, num, exp))


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at paren/brace depth zero."""
    parts = text.split(sep)
    if not any(ch in text for ch in "(){}"):
        return parts
    # a piece joins the previous one while the depth before it is not zero
    runs, depth = [], 0
    for part in parts:
        if depth:
            runs[-1].append(part)
        else:
            runs.append([part])
        depth += part.count("(") + part.count("{") - part.count(")") - part.count("}")
    return [sep.join(run) for run in runs]


def group_from_string(spec: str) -> Group:
    """Build a new group for 'free:k', 'zn:d' or 'bs12'; its ball cache
    lives as long as the group does."""
    spec = spec.strip()
    if spec == "bs12":
        return DyadicAffineGroup()
    if spec.startswith("free:"):
        return FreeGroup(int(spec.split(":", 1)[1]))
    if spec.startswith("zn:"):
        return LatticeGroup(int(spec.split(":", 1)[1]))
    raise ParseError(f"unknown group spec {quote(spec)}")


# ---- windows -------------------------------------------------------------


class SetContext:
    """Carries the group and the caches its compiled tests share."""

    __slots__ = ("group", "caches")

    def __init__(self, group: Group) -> None:
        self.group, self.caches = group, {}


class Window(SetContext):
    """Finite, ordered, duplicate-free slice of a group on which all
    certificates are checked, and the context of the tests compiled for those
    checks; `kind` is "ball" (the elements are the ball of `radius`) or
    "explicit".  Build one with `ball` or `explicit_window`, which hand over
    checked, distinct elements: code that reads `elements` neither checks
    them again nor looks for repeats."""

    __slots__ = ("radius", "elements", "kind", "_texts")

    def __init__(self, group: Group, radius: int, elements: tuple[Elem, ...],
                 kind: str = "ball") -> None:
        super().__init__(group)
        self.radius, self.elements, self.kind = radius, elements, kind
        self._texts: tuple[str, ...] | None = None

    def texts(self) -> tuple[str, ...]:
        """`group.show` of each element in window order, made once for `Group.parse`."""
        if self._texts is None:
            self._texts = tuple(map(self.group.show, self.elements))
            self.group._shown.update(zip(self._texts, self.elements))
        return self._texts

    def __len__(self) -> int:
        return len(self.elements)


def ball(group: Group, radius: int) -> Window:
    # `Layers` enumerates each value once, from checked generators
    return Window(group, radius, tuple(group.ball_elements(radius)), kind="ball")


def explicit_window(group: Group, elements: Sequence[Elem], radius: int) -> Window:
    """A window of the given elements, each checked in group; GroupError on a
    non-element or a repeated element."""
    elements = tuple(map(group.check, elements))
    seen = set()
    for g in elements:
        if g in seen:
            raise GroupError(f"duplicate window element {group.show(g)}")
        seen.add(g)
    return Window(group, radius, elements, kind="explicit")
