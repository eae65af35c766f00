"""Symbolic subsets of a group with exact, window-relative evaluation.

Membership is three-valued: True, False, or BUDGET_EXCEEDED for semigroup
queries that a fixed search cap cannot settle: an enumeration of positive
words' values past `groups.Layers`' caps (BALL_SIZE_CAP values, or SIZE_CAP
letters or bits in all), or more than `_NODE_CAP` nodes of the affine
decider.  No input, flag or certificate field moves any of these caps.  An
enumeration's answers do not depend on the order of the queries.  The affine
decider's can, near its cap: its memo keeps what earlier searches settled, so
a later query may decide a point that an earlier one left undecided.  A True
or False is never wrong.  Everything else is decided exactly.  The third
value stays in this module: the rest of the package asks `predicate` or
`materialize`, which raise the one `undecided_error` naming point, set and
cap.

An expression is a tree of tuple nodes, each kind spelled out once in the
node table `_NODES`.  Each expression is compiled once per context (a window
is one) into a closure over checked points, run by every membership question.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import partial
from operator import mul
from typing import Callable

from .groups import (
    BALL_SIZE_CAP,
    SIZE_CAP,
    AffineElem,
    DyadicAffineGroup,
    Elem,
    Group,
    GroupError,
    Layers,
    LatticeGroup,
    ParseError,
    Record,
    SetContext,
    Window,
    _split_top,
    quote,
)


class _BudgetExceeded:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "BUDGET_EXCEEDED"


BUDGET_EXCEEDED = _BudgetExceeded()


class BudgetError(ValueError):
    """An operation needed an exact membership answer but only got
    BUDGET_EXCEEDED: a semigroup search passed its fixed cap."""


class SetExpr(Record):
    """Base class for symbolic set expressions: a node is the tuple of its
    kind's tag and its fields, so two kinds never compare equal."""

    __slots__ = ()

    def __init_subclass__(cls, tag: int, fields: str = "") -> None:
        cls._head = (tag,)
        super().__init_subclass__(fields)


class AllSet(SetExpr, tag=0):
    __slots__ = ()


class EmptySet(SetExpr, tag=1):
    __slots__ = ()


class FiniteSet(SetExpr, tag=2, fields="elems"):
    __slots__ = ()


class BallSet(SetExpr, tag=3, fields="radius"):
    __slots__ = ()


class Translate(SetExpr, tag=4, fields="t inner"):
    __slots__ = ()


class Union(SetExpr, tag=5, fields="left right"):
    __slots__ = ()


class Intersect(SetExpr, tag=6, fields="left right"):
    __slots__ = ()


class Diff(SetExpr, tag=7, fields="left right"):
    __slots__ = ()


class SemigroupSet(SetExpr, tag=8, fields="gens include_identity"):
    """All nonempty positive words in `gens`, plus the identity if asked."""

    __slots__ = ()


class Slab(SetExpr, tag=9, fields="lo hi gamma"):
    """Maps x -> a*x + b with lo <= a*gamma + b <= hi (dyadic affine only)."""

    __slots__ = ()


class GreedySet(SetExpr, tag=10, fields="count"):
    """The first `count` elements of the triple-product-free greedy sequence."""

    __slots__ = ()


def translate(t: Elem, inner: SetExpr, group: Group) -> SetExpr:
    """Translate constructor that collapses nested translates and drops e;
    the translator is checked here, so membership need not check it."""
    if isinstance(inner, Translate):
        return translate(group.mul(t, inner.t), inner.inner, group)
    if group.check(t) == group.identity():
        return inner
    return Translate(t, inner)


def member(expr: SetExpr, g: Elem, ctx: SetContext):
    """Exact membership of g in expr; BUDGET_EXCEEDED only for semigroup
    queries past a search cap, never a wrong bool."""
    return _compiled(expr, ctx)[1](ctx.group.check(g))


def predicate(expr: SetExpr, ctx: SetContext) -> Callable[[Elem], bool]:
    """`member` of expr as a function of points already checked in
    ctx.group, with an undecided point raising `undecided_error`, compiled
    once: a loop takes it before it starts."""
    return _compiled(expr, ctx)[2]


def undecided_error(expr: SetExpr, g: Elem, ctx: SetContext) -> BudgetError:
    """The error for a membership of g in expr that a search cap leaves open."""
    group = ctx.group
    return BudgetError(
        f"membership of {group.show(g)} in {show_setexpr(expr, group)} "
        f"undecided: a semigroup search passed its cap ({BALL_SIZE_CAP} "
        f"enumerated values, {SIZE_CAP} letters or bits, "
        f"{_AffineSemigroupDecider._NODE_CAP} affine nodes)"
    )


def materialize(expr: SetExpr, window: Window) -> tuple[Elem, ...]:
    """The window slice of expr, in window order; the first window point
    whose membership a search cap leaves open raises `undecided_error`."""
    return tuple(filter(predicate(expr, window), window.elements))


# ---- compiled membership -----------------------------------------------------


def _compiled(expr: SetExpr, ctx: SetContext):
    """(expr, three-valued test, strict test) for expr in ctx, compiled on
    first use.  The memo is keyed by identity, because a node hashes by
    walking its whole tree; the entry holds expr, so its id is not reused
    while the entry lives."""
    entry = ctx.caches.get(id(expr))
    if entry is None:
        test, decided = _compile(expr, ctx)
        strict = test if decided else _strict(test, expr, ctx)
        entry = ctx.caches[id(expr)] = (expr, test, strict)
    return entry


def _strict(test, expr: SetExpr, ctx: SetContext):
    def strict(g):
        res = test(g)
        if res is BUDGET_EXCEEDED:
            raise undecided_error(expr, g, ctx)
        return res

    return strict


def _compile(expr: SetExpr, ctx: SetContext):
    """(test, decided) by the kind's compiler: test maps a checked point to
    True, False or BUDGET_EXCEEDED, and decided says that it never gives
    BUDGET_EXCEEDED (no semigroup leaf).  Everything a node needs that does
    not depend on the point (inverted translators, semigroup enumerations,
    the greedy set) is bound here, once."""
    return _NODES[type(expr)].compile(expr, ctx)


def _compile_translate(expr: Translate, ctx: SetContext):
    inner, decided = _compile(expr.inner, ctx)
    t_inv, times = ctx.group._inv(expr.t), ctx.group._mul
    return (lambda g: inner(times(t_inv, g))), decided


def _compile_slab(expr: Slab, ctx: SetContext):
    if not isinstance(ctx.group, DyadicAffineGroup):
        raise GroupError("slab sets are only defined for the dyadic affine group")
    # lo <= 2**a * gamma + num / 2**exp <= hi, all times q * 2**s for the
    # common denominator q of lo, hi and gamma and s = max(exp, -a) >= 0
    bounds = (expr.lo, expr.hi, expr.gamma)
    q = math.lcm(*(x.denominator for x in bounds))
    lo_q, hi_q, gamma_q = (int(x * q) for x in bounds)

    def in_slab(g):
        a_exp, num, exp = g
        s = exp if exp > -a_exp else -a_exp
        value = (gamma_q << (a_exp + s)) + ((num * q) << (s - exp))
        return lo_q << s <= value <= hi_q << s

    return in_slab, True


def _compile_greedy(expr: GreedySet, ctx: SetContext):
    from .smallsets import greedy_small_set

    key = ("greedy", expr.count)
    members = ctx.caches.get(key)
    if members is None:
        members = ctx.caches[key] = frozenset(greedy_small_set(ctx.group, expr.count))
    return members.__contains__, True


# The three-valued connectives, short-circuiting: a side that is never
# undecided combines through Python's own `or`/`and`/`not`.


def _union(expr: Union, ctx: SetContext):
    left, left_decided = _compile(expr.left, ctx)
    right, right_decided = _compile(expr.right, ctx)
    if left_decided:
        return (lambda g: left(g) or right(g)), right_decided

    def test(g):
        a = left(g)
        if a is True:
            return True
        b = right(g)
        return b if a is False or b is True else BUDGET_EXCEEDED

    return test, False


def _intersect(expr: Intersect, ctx: SetContext):
    left, left_decided = _compile(expr.left, ctx)
    right, right_decided = _compile(expr.right, ctx)
    if left_decided:
        return (lambda g: left(g) and right(g)), right_decided

    def test(g):
        a = left(g)
        if a is False:
            return False
        b = right(g)
        return b if a is True or b is False else BUDGET_EXCEEDED

    return test, False


def _diff(expr: Diff, ctx: SetContext):
    left, left_decided = _compile(expr.left, ctx)
    right, right_decided = _compile(expr.right, ctx)
    if left_decided and right_decided:
        return (lambda g: left(g) and not right(g)), True

    def test(g):
        a = left(g)
        if a is False:
            return False
        b = right(g)
        if b is True:
            return False
        return a if b is False else BUDGET_EXCEEDED

    return test, False


# ---- semigroup membership ---------------------------------------------------


def _semigroup_words(expr: SemigroupSet, ctx: SetContext) -> Layers:
    """The nonempty positive words of expr's generators, enumerated once per
    context and at most to the caps of `Layers`."""
    key = ("sgenum", expr.gens)
    words = ctx.caches.get(key)
    if words is None:
        words = ctx.caches[key] = Layers(ctx.group, expr.gens, with_root=False)
    return words


def positive_words(group: Group, gens: tuple[Elem, ...], length: int) -> list[Elem]:
    """Distinct values of positive words of length <= `length` (including e),
    in breadth-first order; GroupError if they pass the caps of `Layers`."""
    return Layers(group, gens, with_root=True).values(
        length, f"the positive words of length <= {length} in {group.key}")


def _semigroup_test(expr: SemigroupSet, ctx: SetContext):
    group = ctx.group
    if isinstance(group, DyadicAffineGroup) and all(
        gen.a_exp >= 1 for gen in expr.gens
    ):
        key = ("sgaffine", expr.gens)
        decider = ctx.caches.get(key)
        if decider is None:
            decider = ctx.caches[key] = _AffineSemigroupDecider(group, expr.gens)
        test = decider.decide
    else:
        test = _enumeration_test(expr, ctx)
    if not expr.include_identity:
        return test
    identity = group.identity()
    return lambda g: g == identity or test(g)


def _enumeration_test(expr: SemigroupSet, ctx: SetContext):
    """Membership read off the positive words, grown one layer at a time
    until g turns up, the words run out, every word as long as the half-space
    bound is enumerated, or the words pass the cap.  The enumeration order is
    fixed and the cap is too, so the answer does not depend on which queries
    came first."""
    words = _semigroup_words(expr, ctx)
    layers, index = words.layers, words.index
    h = _lattice_halfspace(expr, ctx.group)

    def test(g):
        # every positive word for g is at most this long
        bound = math.inf if h is None else sum(map(mul, h, g))
        while g not in index:
            # all layers but a partly filled last one are complete
            if not layers[-1] or len(layers) - words.capped > bound:
                return False
            if words.capped:
                return BUDGET_EXCEEDED
            words.extend(len(layers))
        return True

    return test


def _lattice_halfspace(expr: SemigroupSet, group: Group) -> list[int] | None:
    """The lexicographically first {-1,0,1}-functional that is >= 1 on every
    generator, if the group is a lattice and one exists: its value at g bounds
    the length of any positive word equal to g.  It is -1 on each coordinate
    no generator uses, so only the k used ones are searched; None, for no
    bound, when their 3^k functionals are more than BALL_SIZE_CAP."""
    if not isinstance(group, LatticeGroup):
        return None
    used = [i for i in range(group.dim) if any(gen[i] for gen in expr.gens)]
    if 3 ** len(used) > BALL_SIZE_CAP:
        return None
    h = [-1] * group.dim
    for values in itertools.product((-1, 0, 1), repeat=len(used)):
        for i, v in zip(used, values):
            h[i] = v
        if all(sum(map(mul, h, gen)) >= 1 for gen in expr.gens):
            return h
    return None


class _AffineSemigroupDecider:
    """Exact membership for positive words over affine generators that all
    scale by at least 2: the scale exponent is a strictly decreasing measure,
    so peeling generators from the left terminates."""

    _NODE_CAP = 500_000

    def __init__(self, group: DyadicAffineGroup, gens: tuple[AffineElem, ...]):
        self.group = group
        self.gens = gens
        self.inv_gens = [group.inv(gen) for gen in gens]
        self.min_exp = min(gen.a_exp for gen in gens)
        # every offset of a positive word has denominator at most 2**max_b_exp,
        # so offsets are compared as integers scaled by it
        self.max_b_exp = max(gen.exp for gen in gens)
        self.scaled = [(a, num << (self.max_b_exp - exp)) for a, num, exp in gens]
        self.memo: dict[AffineElem, bool] = {}
        self.bounds: list[tuple[int, int]] = [(0, 0)]  # scaled (lo, hi) b per exponent

    def _bound(self, n: int) -> tuple[int, int]:
        bounds = self.bounds
        while len(bounds) <= n:
            m = len(bounds)
            los, his = [], []
            for a_exp, b in self.scaled:
                if a_exp <= m:
                    los.append(b + (bounds[m - a_exp][0] << a_exp))
                    his.append(b + (bounds[m - a_exp][1] << a_exp))
            # no word has total exponent exactly m: make the bound empty
            bounds.append((min(los), max(his)) if los else (1, 0))
        return bounds[n]

    def decide(self, g: AffineElem):
        """True or False exactly, or BUDGET_EXCEEDED once the search would
        visit more than _NODE_CAP new elements.  Depth-first over the
        generators in order, on an explicit stack, so the answer never
        depends on the interpreter's stack depth.  Nodes the memo already
        settled are not counted, so near the cap an answer can depend on
        which queries this decider saw before."""
        memo = self.memo
        if g in memo:
            return memo[g]
        if not self._may_peel(g):
            memo[g] = False
            return False
        nodes = 1
        stack = [(g, self._peel(g))]
        while stack:
            h, children = stack[-1]
            for child in children:
                if child is None or memo.get(child) is True:
                    # a positive word for this element, hence for every
                    # element on the stack: each is a generator times the next
                    for elem, _ in stack:
                        memo[elem] = True
                    return True
                if child not in memo:
                    nodes += 1
                    if nodes > self._NODE_CAP:
                        return BUDGET_EXCEEDED
                    peeled = self._peel(child) if self._may_peel(child) else ()
                    stack.append((child, peeled))
                    break
            else:
                memo[h] = False
                stack.pop()
        return False

    def _may_peel(self, g: AffineElem) -> bool:
        """Whether g can still be a positive word: its scale exponent and its
        offset are within the reach of words of that exponent."""
        a_exp, num, exp = g
        if a_exp < self.min_exp or exp > self.max_b_exp:
            return False
        lo, hi = self._bound(a_exp)
        return lo <= num << (self.max_b_exp - exp) <= hi

    def _peel(self, g: AffineElem):
        """For g that `_may_peel`, in generator order: None when g is that
        generator, otherwise gen^(-1) * g when its scale exponent allows."""
        a_exp = g[0]
        for gen, giv in zip(self.gens, self.inv_gens):
            if g == gen:
                yield None
                return
            if a_exp - gen[0] >= self.min_exp:
                yield self.group._mul(giv, g)


# ---- text grammar -----------------------------------------------------------

# At most this many parentheses inside one another, and this many chained
# `|`, `&` and `\` operations (a translate adds none): at the cap the parser,
# `_compile`, `show_setexpr` and the compiled tests need about 420 frames.
MAX_DEPTH = 100
_TOO_DEEP = f"set expression nests more than {MAX_DEPTH} levels deep"

# At most this many atoms and operations in all (a translate adds none, so a
# producer's piece s*A counts as A does): a membership test costs about one
# step per node, and a certificate's set text has no length limit.  A chain
# at the depth cap has 2 * MAX_DEPTH + 1 of them.
MAX_NODES = 256
_TOO_BIG = f"set expression has more than {MAX_NODES} nodes"

# the characters at which a leading translate prefix can end or nest
_PREFIX_STOPS = re.compile(r"[(){}*|&\\]")


def parse_setexpr(text: str, group: Group) -> SetExpr:
    parser = _SetParser(text, group)
    expr, _ = parser.parse_infix(0)
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError(f"trailing input in set expression {quote(text)}", parser.pos)
    return expr


class _SetParser:
    """Recursive descent over the text.  Each method returns the expression
    it read and its operation depth; `nesting` counts the open parentheses
    and `nodes` the nodes read so far."""

    def __init__(self, text: str, group: Group):
        self.text, self.group = text, group
        self.pos = self.nesting = self.nodes = 0

    def add_node(self) -> None:
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise ParseError(_TOO_BIG, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_infix(self, level: int) -> tuple[SetExpr, int]:
        """A chain of the operation `_INFIX[level]` over tighter operands."""
        kind = _INFIX[level]
        operator = _NODES[kind].keyword
        operand = (partial(self.parse_infix, level + 1) if level + 1 < len(_INFIX)
                   else self.parse_atom)
        expr, depth = operand()
        while True:
            self.skip_ws()
            if not self.text.startswith(operator, self.pos):
                return expr, depth
            self.pos += len(operator)
            self.add_node()
            right, right_depth = operand()
            expr, depth = kind(expr, right), max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                raise ParseError(_TOO_DEEP, self.pos)

    def _translate_prefix(self) -> str | None:
        """Text of a leading element followed by '*', if present."""
        self.skip_ws()
        text, start = self.text, self.pos
        if text.find("*", start) < 0:
            return None
        depth = 0
        for found in _PREFIX_STOPS.finditer(text, start):
            ch = found.group()
            if ch in "({":
                depth += 1
            elif ch in ")}":
                if depth == 0:
                    return None
                depth -= 1
            elif depth == 0:
                return text[start : found.start()] if ch == "*" else None
        return None

    def parse_atom(self) -> tuple[SetExpr, int]:
        """Translate prefixes, then a parenthesised expression or an atom."""
        translators = []
        while (prefix := self._translate_prefix()) is not None:
            translators.append(self.group.parse(prefix))
            self.pos += len(prefix) + 1
        if self.text.startswith("(", self.pos):
            if self.nesting == MAX_DEPTH:
                raise ParseError(_TOO_DEEP, self.pos)
            self.nesting += 1
            self.pos += 1
            expr, depth = self.parse_infix(0)
            self.skip_ws()
            if not self.text.startswith(")", self.pos):
                raise ParseError("expected ')' in set expression", self.pos)
            self.pos += 1
            self.nesting -= 1
        else:
            self.add_node()
            expr, depth = self._parse_keyword(), 0
        if translators:
            expr = translate(self.group._product(translators), expr, self.group)
        return expr, depth

    def _parse_keyword(self) -> SetExpr:
        text, pos = self.text, self.pos
        if pos >= len(text):
            raise ParseError("unexpected end of set expression", pos)
        for node in _NODES.values():
            keyword = node.keyword
            if node.read is None or not text.startswith(keyword, pos):
                continue
            if keyword[-1] in "({":
                return node.read(self._consume_bracketed(len(keyword) - 1), self.group)
            after = text[pos + len(keyword) : pos + len(keyword) + 1]
            if not after or not after.isalnum() and after not in "({":
                self.pos += len(keyword)
                return node.read("", self.group)
        raise ParseError(
            f"cannot parse set expression near {text[pos : pos + 20]!r}", pos
        )

    def _consume_bracketed(self, header: int) -> str:
        text = self.text
        start = self.pos + header
        open_ch = text[start]
        close_ch = ")" if open_ch == "(" else "}"
        # the depth returns to zero only just after a closing bracket
        depth, scanned = 1, start + 1
        while True:
            close = text.find(close_ch, scanned)
            if close < 0:
                raise ParseError(f"unbalanced {open_ch!r} in set expression", start)
            depth += text.count(open_ch, scanned, close) - 1
            scanned = close + 1
            if depth == 0:
                self.pos = scanned
                return text[start + 1 : close]


def _read_semigroup(body: str, group: Group) -> SemigroupSet:
    gens, *identity = _split_top(body, ";")
    if [part.strip() for part in identity] not in ([], ["e"]):
        raise ParseError(f"expected 'gens' or 'gens;e' in semigroup(...), got {quote(body)}")
    return SemigroupSet(tuple(map(group.parse, _split_top(gens, ","))), bool(identity))


def _read_slab(body: str, group: Group) -> Slab:
    parts = _split_top(body, ",")
    if len(parts) != 3:
        raise ParseError(f"slab needs three rationals, got {quote(body)}")
    return Slab(*(read_rational(p.strip()) for p in parts))


def read_rational(text: str):
    """`Fraction(text)` of a string `p/q` or `p`.  Other text, a zero
    denominator, or a value that is not a string (a JSON `Infinity` is a
    float), is a ParseError naming it."""
    from fractions import Fraction

    if type(text) is not str:
        raise ParseError(f"a rational must be a string, got {text!r}")
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ParseError(f"rational {quote(text)} is not p/q or p")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational {quote(text)}") from None


def show_setexpr(expr: SetExpr, group: Group, memo: dict | None = None) -> str:
    """The text of expr; `memo` maps the expressions shown so far to their
    texts, so that a caller showing many that share parts renders each once."""
    memo = {} if memo is None else memo
    text = memo.get(expr)
    if text is None:
        text = memo[expr] = _NODES[type(expr)].show(expr, group, memo)
    return text


def _show_translate(expr: Translate, group: Group, memo: dict) -> str:
    inner = show_setexpr(expr.inner, group, memo)
    return f"{group.show(expr.t)}*" + (
        f"({inner})" if isinstance(expr.inner, Translate) else inner)


def _show_infix(expr: SetExpr, group: Group, memo: dict) -> str:
    left = show_setexpr(expr.left, group, memo)
    right = show_setexpr(expr.right, group, memo)
    return f"({left}{_NODES[type(expr)].keyword}{right})"


class _Node(Record, fields="keyword read compile show"):
    __slots__ = ()


# The node table, each kind of set expression spelled out once: the keyword
# an atom starts with (or the operator), read(text inside the atom's
# brackets, group) -> node (None: the parser builds the node itself),
# compile(node, ctx) -> (test, decided), and show(node, group, memo) -> text.
_NODES = {
    AllSet: _Node("all", lambda body, group: AllSet(),
                  lambda expr, ctx: ((lambda g: True), True),
                  lambda expr, group, memo: "all"),
    EmptySet: _Node("empty", lambda body, group: EmptySet(),
                    lambda expr, ctx: ((lambda g: False), True),
                    lambda expr, group, memo: "empty"),
    FiniteSet: _Node(
        "finite{",
        lambda body, group: FiniteSet(
            tuple(group.parse(part) for part in _split_top(body, ",") if part.strip())),
        lambda expr, ctx: (frozenset(expr.elems).__contains__, True),
        lambda expr, group, memo: "finite{" + ",".join(map(group.show, expr.elems))
        + "}"),
    BallSet: _Node("ball(", lambda body, group: BallSet(int(body)),
                   lambda expr, ctx: (ctx.group._ball_test(expr.radius), True),
                   lambda expr, group, memo: f"ball({expr.radius})"),
    Translate: _Node("*", None, _compile_translate, _show_translate),
    Union: _Node("|", None, _union, _show_infix),
    Intersect: _Node("&", None, _intersect, _show_infix),
    Diff: _Node("\\", None, _diff, _show_infix),
    SemigroupSet: _Node(
        "semigroup(", _read_semigroup,
        lambda expr, ctx: (_semigroup_test(expr, ctx), False),
        lambda expr, group, memo: "semigroup(" + ",".join(map(group.show, expr.gens))
        + (";e)" if expr.include_identity else ")")),
    Slab: _Node("slab(", _read_slab, _compile_slab,
                lambda expr, group, memo: f"slab({expr.lo},{expr.hi},{expr.gamma})"),
    GreedySet: _Node("greedy(", lambda body, group: GreedySet(int(body)), _compile_greedy,
                     lambda expr, group, memo: f"greedy({expr.count})"),
}
# the operations, loosest-binding first
_INFIX = (Union, Diff, Intersect)
