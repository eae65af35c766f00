"""Symbolic subsets of a group with exact, window-relative evaluation.

Membership is three-valued: True, False, or BUDGET_EXCEEDED for semigroup
queries that the configured enumeration budget cannot settle.  Everything
else is decided exactly.  The third value stays in this module: the rest of
the package asks `member_strict` or `materialize`, which raise the one
`undecided_error` naming point, set and budget.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import (
    AffineElem,
    DyadicAffineGroup,
    Elem,
    Group,
    GroupError,
    Layers,
    ParseError,
    Window,
    _split_top,
    affine_fraction,
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


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is BUDGET_EXCEEDED or b is BUDGET_EXCEEDED:
        return BUDGET_EXCEEDED
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is BUDGET_EXCEEDED or b is BUDGET_EXCEEDED:
        return BUDGET_EXCEEDED
    return False


def _not3(a):
    if a is BUDGET_EXCEEDED:
        return BUDGET_EXCEEDED
    return not a


def member(expr: SetExpr, g: Elem, ctx: SetContext):
    """Exact membership of g in expr; BUDGET_EXCEEDED only for semigroup
    queries beyond the enumeration budget, never a wrong bool."""
    return _member(expr, ctx.group.check(g), ctx)


def _member(expr: SetExpr, g: Elem, ctx: SetContext):
    """`member` for a g already checked in ctx.group."""
    group = ctx.group
    if isinstance(expr, AllSet):
        return True
    if isinstance(expr, EmptySet):
        return False
    if isinstance(expr, FiniteSet):
        return g in expr.members
    if isinstance(expr, BallSet):
        return group.in_ball(g, expr.radius)
    if isinstance(expr, Translate):
        return _member(expr.inner, group._mul(group._inv(expr.t), g), ctx)
    if isinstance(expr, Union):
        return _or3(_member(expr.left, g, ctx), _member(expr.right, g, ctx))
    if isinstance(expr, Intersect):
        return _and3(_member(expr.left, g, ctx), _member(expr.right, g, ctx))
    if isinstance(expr, Diff):
        return _and3(_member(expr.left, g, ctx), _not3(_member(expr.right, g, ctx)))
    if isinstance(expr, SemigroupSet):
        return _member_semigroup(expr, g, ctx)
    if isinstance(expr, Slab):
        if not isinstance(group, DyadicAffineGroup):
            raise GroupError("slab sets are only defined for the dyadic affine group")
        a, b = affine_fraction(g)
        return expr.lo <= a * expr.gamma + b <= expr.hi
    if isinstance(expr, GreedySet):
        from .smallsets import greedy_small_set

        key = ("greedy", group.key, expr.count)
        members = ctx.caches.get(key)
        if members is None:
            members = ctx.caches[key] = frozenset(greedy_small_set(group, expr.count))
        return g in members
    raise TypeError(f"unknown set expression {expr!r}")


def member_strict(expr: SetExpr, g: Elem, ctx: SetContext) -> bool:
    res = member(expr, g, ctx)
    if res is BUDGET_EXCEEDED:
        raise undecided_error(expr, g, ctx)
    return res


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
    return tuple(g for g in window.elements if member_strict(expr, g, ctx))


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


def _member_semigroup(expr: SemigroupSet, g: Elem, ctx: SetContext):
    group = ctx.group
    if expr.include_identity and g == group.identity():
        return True
    if isinstance(group, DyadicAffineGroup) and all(
        gen.a_exp >= 1 for gen in expr.gens
    ):
        return _member_affine_semigroup(expr, g, ctx)
    words = _semigroup_words(expr, ctx)
    bound = _lattice_length_bound(expr, g, ctx)
    if bound is not None:
        # every positive word for g is at most this long
        if bound < 1:
            return False
        words.extend(min(bound, max(ctx.budget, 0)))
        if g in words.index:
            return True
        if not words.layers[-1] or len(words.layers) > bound:
            return False
        return BUDGET_EXCEEDED
    words.extend(max(ctx.budget, 0))
    if g in words.index:
        return True
    if not words.layers[-1]:
        return False
    return BUDGET_EXCEEDED


def _lattice_length_bound(expr: SemigroupSet, g: Elem, ctx: SetContext) -> int | None:
    """When some {-1,0,1}-functional is >= 1 on every generator, its value at
    g bounds the length of any positive word equal to g."""
    from .groups import LatticeGroup

    group = ctx.group
    if not isinstance(group, LatticeGroup):
        return None
    key = ("sghalfspace", group.key, expr.gens)
    if key not in ctx.caches:
        import itertools as _it

        found = None
        for h in _it.product((-1, 0, 1), repeat=group.dim):
            if any(h) and all(
                sum(hi * gi for hi, gi in zip(h, gen.coords)) >= 1
                for gen in expr.gens
            ):
                found = h
                break
        ctx.caches[key] = found
    h = ctx.caches[key]
    if h is None:
        return None
    return sum(hi * gi for hi, gi in zip(h, g.coords))


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


def _member_affine_semigroup(expr: SemigroupSet, g: AffineElem, ctx: SetContext):
    key = ("sgaffine", expr.gens)
    decider = ctx.caches.get(key)
    if decider is None:
        decider = _AffineSemigroupDecider(ctx.group, expr.gens)
        ctx.caches[key] = decider
    return decider.decide(g)


# ---- text grammar -----------------------------------------------------------


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
        depth = 0
        for i in range(self.pos, len(self.text)):
            ch = self.text[i]
            if ch in "({":
                depth += 1
            elif ch in ")}":
                if depth == 0:
                    return None
                depth -= 1
            elif depth == 0:
                if ch == "*":
                    return self.text[self.pos : i]
                if ch in "|&\\":
                    return None
        return None

    def parse_atom(self) -> SetExpr:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of set expression", self.pos)
        prefix = self._translate_prefix()
        if prefix is not None:
            t = self.group.parse(prefix)
            self.pos += len(prefix) + 1
            return translate(t, self.parse_atom(), self.group)
        rest = self.text[self.pos :]
        for keyword in ("all", "empty"):
            if rest == keyword or (
                rest.startswith(keyword)
                and not rest[len(keyword) :][:1].isalnum()
                and rest[len(keyword) :][:1] not in "({"
            ):
                self.pos += len(keyword)
                return AllSet() if keyword == "all" else EmptySet()
        if rest.startswith("finite{"):
            body = self._consume_bracketed(len("finite"), "{", "}")
            elems = tuple(
                self.group.parse(part) for part in _split_top(body, ",") if part.strip()
            )
            return FiniteSet(elems)
        if rest.startswith("ball("):
            body = self._consume_bracketed(len("ball"), "(", ")")
            return BallSet(int(body))
        if rest.startswith("greedy("):
            body = self._consume_bracketed(len("greedy"), "(", ")")
            return GreedySet(int(body))
        if rest.startswith("semigroup("):
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
        if rest.startswith("slab("):
            body = self._consume_bracketed(len("slab"), "(", ")")
            parts = _split_top(body, ",")
            if len(parts) != 3:
                raise ParseError(f"slab needs three rationals, got {body!r}")
            lo, hi, gamma = (Fraction(p.strip()) for p in parts)
            return Slab(lo, hi, gamma)
        if rest.startswith("("):
            body = self._consume_bracketed(0, "(", ")")
            return parse_setexpr(body, self.group)
        raise ParseError(f"cannot parse set expression near {rest[:20]!r}", self.pos)

    def _consume_bracketed(self, header: int, open_ch: str, close_ch: str) -> str:
        start = self.pos + header
        if self.text[start] != open_ch:
            raise ParseError(f"expected {open_ch!r}", start)
        depth = 0
        for i in range(start, len(self.text)):
            if self.text[i] == open_ch:
                depth += 1
            elif self.text[i] == close_ch:
                depth -= 1
                if depth == 0:
                    self.pos = i + 1
                    return self.text[start + 1 : i]
        raise ParseError(f"unbalanced {open_ch!r} in set expression", start)


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
