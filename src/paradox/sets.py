"""Symbolic subsets of a group with exact, window-relative evaluation.

Membership is three-valued: True, False, or BUDGET_EXCEEDED for semigroup
queries that the configured enumeration budget cannot settle.  Everything
else is decided exactly.  The third value stays in this module: the rest of
the package asks `predicate`, `member_strict` or `materialize`, which raise
the one `undecided_error` naming point, set and budget.

Each expression is compiled once per context into a closure over checked
points, and every membership question runs that closure.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable

from .groups import (
    AffineElem,
    DyadicAffineGroup,
    Elem,
    Group,
    GroupError,
    Layers,
    LatticeGroup,
    ParseError,
    Window,
    _split_top,
)


class _BudgetExceeded:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "BUDGET_EXCEEDED"


BUDGET_EXCEEDED = _BudgetExceeded()


class BudgetError(RuntimeError):
    """An operation needed an exact membership answer but only got
    BUDGET_EXCEEDED; retry with a larger budget slack."""


class SetExpr:
    """Base class for symbolic set expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class AllSet(SetExpr):
    pass


@dataclass(frozen=True, slots=True)
class EmptySet(SetExpr):
    pass


@dataclass(frozen=True, slots=True)
class FiniteSet(SetExpr):
    elems: tuple[Elem, ...]
    # hashed copy of elems for membership; elems keeps the written order
    members: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.elems))


@dataclass(frozen=True, slots=True)
class BallSet(SetExpr):
    radius: int


@dataclass(frozen=True, slots=True)
class Translate(SetExpr):
    t: Elem
    inner: SetExpr


@dataclass(frozen=True, slots=True)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class Intersect(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class Diff(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class SemigroupSet(SetExpr):
    """All nonempty positive words in `gens`, plus the identity if asked."""

    gens: tuple[Elem, ...]
    include_identity: bool


@dataclass(frozen=True, slots=True)
class Slab(SetExpr):
    """Maps x -> a*x + b with lo <= a*gamma + b <= hi (dyadic affine only)."""

    lo: Fraction
    hi: Fraction
    gamma: Fraction


@dataclass(frozen=True, slots=True)
class GreedySet(SetExpr):
    """The first `count` elements of the triple-product-free greedy sequence."""

    count: int


def translate(t: Elem, inner: SetExpr, group: Group) -> SetExpr:
    """Translate constructor that collapses nested translates and drops e;
    the translator is checked here, so membership need not check it."""
    if isinstance(inner, Translate):
        return translate(group.mul(t, inner.t), inner.inner, group)
    if group.check(t) == group.identity():
        return inner
    return Translate(t, inner)


# ---- evaluation context ----------------------------------------------------


@dataclass
class SetContext:
    """Carries the group, the semigroup enumeration budget, and shared caches."""

    group: Group
    budget: int = 8
    caches: dict = field(default_factory=dict)


# The one default budget slack: extra enumeration length beyond the window
# radius, used by the CLI and by certificates that do not record their own.
DEFAULT_SLACK = 4


def context_for(window: Window, slack: int = DEFAULT_SLACK) -> SetContext:
    return SetContext(window.group, window.radius + slack)


def member(expr: SetExpr, g: Elem, ctx: SetContext):
    """Exact membership of g in expr; BUDGET_EXCEEDED only for semigroup
    queries beyond the enumeration budget, never a wrong bool."""
    return _compiled(expr, ctx)[1](ctx.group.check(g))


def member_strict(expr: SetExpr, g: Elem, ctx: SetContext) -> bool:
    """`member`, with an undecided point raising `undecided_error`."""
    return _compiled(expr, ctx)[2](ctx.group.check(g))


def predicate(expr: SetExpr, ctx: SetContext) -> Callable[[Elem], bool]:
    """`member_strict` of expr as a function of points already checked in
    ctx.group, compiled once: a loop takes it before it starts."""
    return _compiled(expr, ctx)[2]


def undecided_error(expr: SetExpr, g: Elem, ctx: SetContext) -> BudgetError:
    """The error for a membership of g in expr that the budget cannot settle."""
    group = ctx.group
    return BudgetError(
        f"membership of {group.show(g)} in {show_setexpr(expr, group)} "
        f"undecided at budget {ctx.budget}; increase the budget slack"
    )


def materialize(expr: SetExpr, window: Window, ctx: SetContext) -> tuple[Elem, ...]:
    """The window slice of expr, in window order; the first window point
    whose membership the budget cannot settle raises `undecided_error`."""
    return tuple(filter(predicate(expr, ctx), map(ctx.group.check, window.elements)))


# ---- compiled membership -----------------------------------------------------


def _compiled(expr: SetExpr, ctx: SetContext):
    """(expr, three-valued test, strict test) for expr in ctx, compiled on
    first use.  The memo is keyed by identity, because a frozen dataclass
    hashes by walking its whole tree; the entry holds expr, so its id is not
    reused while the entry lives."""
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
    """(test, decided): test maps a point checked in ctx.group to True, False
    or BUDGET_EXCEEDED, and decided says that it never gives BUDGET_EXCEEDED
    (expr has no semigroup leaf).  Everything a node needs that does not
    depend on the point (inverted translators, semigroup enumerations, the
    greedy set) is bound here, once."""
    group = ctx.group
    if isinstance(expr, AllSet):
        return (lambda g: True), True
    if isinstance(expr, EmptySet):
        return (lambda g: False), True
    if isinstance(expr, FiniteSet):
        return expr.members.__contains__, True
    if isinstance(expr, BallSet):
        return group._ball_test(expr.radius), True
    if isinstance(expr, Translate):
        inner, decided = _compile(expr.inner, ctx)
        t_inv, times = group._inv(expr.t), group._mul
        return (lambda g: inner(times(t_inv, g))), decided
    if isinstance(expr, (Union, Intersect, Diff)):
        left, left_decided = _compile(expr.left, ctx)
        right, right_decided = _compile(expr.right, ctx)
        combine = _COMBINE[type(expr)]
        return combine(left, left_decided, right, right_decided), (
            left_decided and right_decided
        )
    if isinstance(expr, SemigroupSet):
        return _semigroup_test(expr, ctx), False
    if isinstance(expr, Slab):
        if not isinstance(group, DyadicAffineGroup):
            raise GroupError("slab sets are only defined for the dyadic affine group")
        lo, hi, gamma = expr.lo, expr.hi, expr.gamma

        def in_slab(g):
            a_exp, b = g
            a = Fraction(1 << a_exp) if a_exp >= 0 else Fraction(1, 1 << -a_exp)
            return lo <= a * gamma + b.as_fraction() <= hi

        return in_slab, True
    if isinstance(expr, GreedySet):
        from .smallsets import greedy_small_set

        key = ("greedy", group.key, expr.count)
        members = ctx.caches.get(key)
        if members is None:
            members = ctx.caches[key] = frozenset(greedy_small_set(group, expr.count))
        return members.__contains__, True
    raise TypeError(f"unknown set expression {expr!r}")


# The three-valued connectives, short-circuiting: a side that is never
# undecided combines through Python's own `or`/`and`/`not`.


def _union(left, left_decided, right, right_decided):
    if left_decided:
        return lambda g: left(g) or right(g)

    def test(g):
        a = left(g)
        if a is True:
            return True
        b = right(g)
        return b if a is False or b is True else BUDGET_EXCEEDED

    return test


def _intersect(left, left_decided, right, right_decided):
    if left_decided:
        return lambda g: left(g) and right(g)

    def test(g):
        a = left(g)
        if a is False:
            return False
        b = right(g)
        return b if a is True or b is False else BUDGET_EXCEEDED

    return test


def _diff(left, left_decided, right, right_decided):
    if left_decided and right_decided:
        return lambda g: left(g) and not right(g)

    def test(g):
        a = left(g)
        if a is False:
            return False
        b = right(g)
        if b is True:
            return False
        return a if b is False else BUDGET_EXCEEDED

    return test


_COMBINE = {Union: _union, Intersect: _intersect, Diff: _diff}


# ---- semigroup membership ---------------------------------------------------


def _semigroup_words(expr: SemigroupSet, ctx: SetContext) -> Layers:
    """The nonempty positive words of expr's generators, enumerated per
    context, so that no other context's deeper enumeration decides a query
    beyond this context's budget."""
    key = ("sgenum", ctx.group.key, expr.gens)
    words = ctx.caches.get(key)
    if words is None:
        words = ctx.caches[key] = Layers(ctx.group, expr.gens, with_root=False)
    return words


def positive_words(group: Group, gens: tuple[Elem, ...], length: int) -> list[Elem]:
    """Distinct values of positive words of length <= `length` (including e),
    in breadth-first order."""
    words = Layers(group, gens, with_root=True)
    words.extend(length)
    return [g for layer in words.layers[: length + 1] for g in layer]


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
    """Membership read off the positive words enumerated up to the budget."""
    words = _semigroup_words(expr, ctx)
    budget = max(ctx.budget, 0)
    h = _lattice_halfspace(expr, ctx.group)
    if h is None:

        def test(g):
            words.extend(budget)
            if g in words.index:
                return True
            if not words.layers[-1]:
                return False
            return BUDGET_EXCEEDED

        return test

    def bounded(g):
        # every positive word for g is at most this long
        bound = sum(map(mul, h, g))
        if bound < 1:
            return False
        words.extend(min(bound, budget))
        if g in words.index:
            return True
        if not words.layers[-1] or len(words.layers) > bound:
            return False
        return BUDGET_EXCEEDED

    return bounded


def _lattice_halfspace(expr: SemigroupSet, group: Group) -> tuple[int, ...] | None:
    """A {-1,0,1}-functional that is >= 1 on every generator, if the group is
    a lattice and one exists: its value at g bounds the length of any
    positive word equal to g."""
    if not isinstance(group, LatticeGroup):
        return None
    for h in itertools.product((-1, 0, 1), repeat=group.dim):
        if any(h) and all(sum(map(mul, h, gen)) >= 1 for gen in expr.gens):
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
        self.max_b_exp = max(gen.b.exp for gen in gens)
        self.memo: dict[AffineElem, bool] = {}
        self.bounds: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
        self.lock = threading.Lock()

    def _bound(self, n: int) -> tuple[Fraction, Fraction]:
        while len(self.bounds) <= n:
            m = len(self.bounds)
            lo = hi = None
            for gen in self.gens:
                if gen.a_exp > m:
                    continue
                blo, bhi = self.bounds[m - gen.a_exp]
                scale = Fraction(1 << gen.a_exp)
                b = gen.b.as_fraction()
                cand_lo, cand_hi = b + scale * blo, b + scale * bhi
                lo = cand_lo if lo is None or cand_lo < lo else lo
                hi = cand_hi if hi is None or cand_hi > hi else hi
            if lo is None:
                # no word has total exponent exactly m; make the bound empty
                lo, hi = Fraction(1), Fraction(0)
            self.bounds.append((lo, hi))
        return self.bounds[n]

    def decide(self, g: AffineElem):
        """True or False exactly, or BUDGET_EXCEEDED once the search would
        visit more than _NODE_CAP new elements.  Depth-first over the
        generators in order, on an explicit stack, so the answer depends on
        the node cap alone and never on the interpreter's stack depth."""
        with self.lock:
            memo = self.memo
            if g in memo:
                return memo[g]
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
                        stack.append((child, self._peel(child)))
                        break
                else:
                    memo[h] = False
                    stack.pop()
            return False

    def _peel(self, g: AffineElem):
        """In generator order: None when g is that generator, otherwise
        gen^(-1) * g when what remains can still be a positive word."""
        if g.a_exp < self.min_exp or g.b.exp > self.max_b_exp:
            return
        lo, hi = self._bound(g.a_exp)
        if not lo <= g.b.as_fraction() <= hi:
            return
        for gen, giv in zip(self.gens, self.inv_gens):
            if g == gen:
                yield None
                return
            if g.a_exp - gen.a_exp >= self.min_exp:
                yield self.group._mul(giv, g)


# ---- text grammar -----------------------------------------------------------

# the characters at which a leading translate prefix can end or nest
_PREFIX_STOPS = re.compile(r"[(){}*|&\\]")


def parse_setexpr(text: str, group: Group) -> SetExpr:
    parser = _SetParser(text, group)
    expr = parser.parse_union()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise ParseError(f"trailing input in set expression {text!r}", parser.pos)
    return expr


class _SetParser:
    def __init__(self, text: str, group: Group):
        self.text = text
        self.group = group
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_union(self) -> SetExpr:
        expr = self.parse_diff()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "|":
                self.pos += 1
                expr = Union(expr, self.parse_diff())
            else:
                return expr

    def parse_diff(self) -> SetExpr:
        expr = self.parse_intersect()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "\\":
                self.pos += 1
                expr = Diff(expr, self.parse_intersect())
            else:
                return expr

    def parse_intersect(self) -> SetExpr:
        expr = self.parse_atom()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "&":
                self.pos += 1
                expr = Intersect(expr, self.parse_atom())
            else:
                return expr

    def _translate_prefix(self) -> str | None:
        """Text of a leading element followed by '*', if present."""
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

    def parse_atom(self) -> SetExpr:
        self.skip_ws()
        text, pos = self.text, self.pos
        if pos >= len(text):
            raise ParseError("unexpected end of set expression", pos)
        prefix = self._translate_prefix()
        if prefix is not None:
            t = self.group.parse(prefix)
            self.pos += len(prefix) + 1
            return translate(t, self.parse_atom(), self.group)
        for keyword in ("all", "empty"):
            after = text[pos + len(keyword) : pos + len(keyword) + 1]
            if text.startswith(keyword, pos) and (
                not after or not after.isalnum() and after not in "({"
            ):
                self.pos += len(keyword)
                return AllSet() if keyword == "all" else EmptySet()
        if text.startswith("finite{", pos):
            body = self._consume_bracketed(len("finite"), "{", "}")
            elems = tuple(
                self.group.parse(part) for part in _split_top(body, ",") if part.strip()
            )
            return FiniteSet(elems)
        if text.startswith("ball(", pos):
            body = self._consume_bracketed(len("ball"), "(", ")")
            return BallSet(int(body))
        if text.startswith("greedy(", pos):
            body = self._consume_bracketed(len("greedy"), "(", ")")
            return GreedySet(int(body))
        if text.startswith("semigroup(", pos):
            body = self._consume_bracketed(len("semigroup"), "(", ")")
            halves = _split_top(body, ";")
            include = False
            if len(halves) == 2:
                if halves[1].strip() != "e":
                    raise ParseError(f"expected ';e' in semigroup(...), got {body!r}")
                include = True
            elif len(halves) != 1:
                raise ParseError(f"too many ';' in semigroup(...): {body!r}")
            gens = tuple(self.group.parse(p) for p in _split_top(halves[0], ","))
            return SemigroupSet(gens, include)
        if text.startswith("slab(", pos):
            body = self._consume_bracketed(len("slab"), "(", ")")
            parts = _split_top(body, ",")
            if len(parts) != 3:
                raise ParseError(f"slab needs three rationals, got {body!r}")
            lo, hi, gamma = (Fraction(p.strip()) for p in parts)
            return Slab(lo, hi, gamma)
        if text.startswith("(", pos):
            body = self._consume_bracketed(0, "(", ")")
            return parse_setexpr(body, self.group)
        raise ParseError(
            f"cannot parse set expression near {text[pos : pos + 20]!r}", pos
        )

    def _consume_bracketed(self, header: int, open_ch: str, close_ch: str) -> str:
        text = self.text
        start = self.pos + header
        if text[start] != open_ch:
            raise ParseError(f"expected {open_ch!r}", start)
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


def show_setexpr(expr: SetExpr, group: Group) -> str:
    if isinstance(expr, AllSet):
        return "all"
    if isinstance(expr, EmptySet):
        return "empty"
    if isinstance(expr, FiniteSet):
        return "finite{" + ",".join(group.show(e) for e in expr.elems) + "}"
    if isinstance(expr, BallSet):
        return f"ball({expr.radius})"
    if isinstance(expr, GreedySet):
        return f"greedy({expr.count})"
    if isinstance(expr, Translate):
        return f"{group.show(expr.t)}*{_atom_text(expr.inner, group)}"
    if isinstance(expr, Union):
        return f"({show_setexpr(expr.left, group)}|{show_setexpr(expr.right, group)})"
    if isinstance(expr, Intersect):
        return f"({show_setexpr(expr.left, group)}&{show_setexpr(expr.right, group)})"
    if isinstance(expr, Diff):
        return f"({show_setexpr(expr.left, group)}\\{show_setexpr(expr.right, group)})"
    if isinstance(expr, SemigroupSet):
        gens = ",".join(group.show(g) for g in expr.gens)
        return f"semigroup({gens};e)" if expr.include_identity else f"semigroup({gens})"
    if isinstance(expr, Slab):
        return f"slab({expr.lo},{expr.hi},{expr.gamma})"
    raise TypeError(f"unknown set expression {expr!r}")


def _atom_text(expr: SetExpr, group: Group) -> str:
    text = show_setexpr(expr, group)
    if isinstance(expr, (Union, Intersect, Diff)):
        return text  # already parenthesised
    if isinstance(expr, Translate):
        return f"({text})"
    return text
