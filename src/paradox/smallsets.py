"""Greedy construction of sets with tiny self-intersections under translation,
absorbing-set probes, and the window-level smallness semidecider."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .groups import Elem, Group, Window
from .matching import max_matching
from .pwt import PwT
from .sets import (
    FiniteSet,
    Intersect,
    SetContext,
    SetExpr,
    context_for,
    materialize,
    member,
    member_strict,
    translate,
)

_GREEDY_CACHE: dict[tuple[str, int], tuple[Elem, ...]] = {}
_GREEDY_LOCK = threading.Lock()


def greedy_small_set(group: Group, count: int) -> tuple[Elem, ...]:
    """First `count` elements of the canonical enumeration that avoid every
    triple product x_k * x_l^(-1) * x_m of previously chosen elements."""
    if count < 1:
        raise ValueError("count must be >= 1")
    with _GREEDY_LOCK:
        for (key, n), seq in _GREEDY_CACHE.items():
            if key == group.key and n >= count:
                return seq[:count]
        chosen: list[Elem] = []
        invs: list[Elem] = []
        forbidden: set[Elem] = set()
        for g in group.enumerate_elements():
            if g in forbidden:
                continue
            _choose(group, chosen, invs, forbidden, g)
            if len(chosen) == count:
                break
        result = tuple(chosen)
        _GREEDY_CACHE[(group.key, count)] = result
        return result


def verify_greedy_exclusion(group: Group, elems: tuple[Elem, ...]) -> bool:
    """Re-check of the defining exclusion x_k not in {x_i x_j^(-1) x_l :
    i, j, l < k} at every index k.

    It shares `_choose` with the producer; the tests check both against a
    brute-force evaluation of the definition."""
    prefix: list[Elem] = []
    invs: list[Elem] = []
    products: set[Elem] = set()
    for g in elems:
        if g in products:
            return False
        _choose(group, prefix, invs, products, g)
    return True


def _choose(group: Group, chosen: list[Elem], invs: list[Elem],
            products: set[Elem], g: Elem) -> None:
    """Append g to `chosen` (and its inverse to `invs`), and add to `products`
    every triple product x_i x_j^(-1) x_l of the chosen elements that
    involves g in at least one position."""
    g_inv = group.inv(g)
    chosen.append(g)
    invs.append(g_inv)
    for x, x_inv in zip(chosen, invs):
        for y_inv in invs:
            products.add(group.mul(group.mul(x, y_inv), g))
        xg = group.mul(x, g_inv)
        gx = group.mul(g, x_inv)
        for z in chosen:
            products.add(group.mul(xg, z))
            products.add(group.mul(gx, z))


@dataclass(frozen=True)
class PairIntersectionReport:
    maximum: int
    attained_at: Elem | None


def check_pair_intersections(
    group: Group, elems: tuple[Elem, ...], radius: int
) -> PairIntersectionReport:
    """max over nonidentity s in the ball of |sA intersect A|, exactly."""
    elem_set = set(elems)
    best, where = -1, None
    for s in group.ball_elements(radius):
        if s == group.identity():
            continue
        size = sum(1 for x in elems if group.mul(s, x) in elem_set)
        if size > best:
            best, where = size, s
    return PairIntersectionReport(best, where)


def absorbing_check(
    a: SetExpr, finite: tuple[Elem, ...], window: Window,
    ctx: SetContext | None = None
) -> Elem | None:
    """First window g with finite*g inside a, computed via the intersection
    of the inverse translates; None when the window holds no such g."""
    if not finite:
        raise ValueError("the finite set must be nonempty")
    if ctx is None:
        ctx = context_for(window)
    group = ctx.group
    expr: SetExpr | None = None
    for t in finite:
        piece = translate(group.inv(t), a, group)
        expr = piece if expr is None else Intersect(expr, piece)
    for g in window.elements:
        if member_strict(expr, g, ctx):
            return g
    return None


def absorbing_check_direct(
    a: SetExpr, finite: tuple[Elem, ...], window: Window,
    ctx: SetContext | None = None
) -> Elem | None:
    """Reference computation of absorbing_check by direct scanning."""
    if ctx is None:
        ctx = context_for(window)
    group = ctx.group
    for g in window.elements:
        if all(member_strict(a, group.mul(t, g), ctx) for t in finite):
            return g
    return None


def small_check(
    a: SetExpr, b: SetExpr, translators: list[Elem] | tuple[Elem, ...],
    window: Window, ctx: SetContext | None = None
) -> PwT | None:
    """Window semidecider: an injective piecewise translation of a's window
    slice into the complement of b with the given displacements, or None
    (inconclusive for this translator set and window)."""
    if ctx is None:
        ctx = context_for(window)
    group = ctx.group
    s_list = sorted(set(translators), key=group.sort_key)
    sources = materialize(a, window, ctx)
    if not sources.complete:
        return None
    adjacency = {}
    for x in sources.elements:
        row = []
        for s in s_list:
            img = group.mul(s, x)
            if member(b, img, ctx) is False:
                row.append(img)
        adjacency[x] = row
    pair_left, _, _ = max_matching(list(sources.elements), adjacency)
    if len(pair_left) < len(sources.elements):
        return None
    blocks: dict[Elem, list[Elem]] = {}
    for x in sources.elements:
        disp = group.mul(pair_left[x], group.inv(x))
        blocks.setdefault(disp, []).append(x)
    order = sorted(blocks, key=group.sort_key)
    pieces = tuple((FiniteSet(tuple(blocks[d])), d) for d in order)
    domain = FiniteSet(tuple(sources.elements))
    return PwT(domain, pieces, tuple(order))
