"""Greedy construction of sets with tiny self-intersections under translation,
absorbing-set probes, and the window-level smallness semidecider."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .groups import Elem, Group, Window
from .pwt import PwT
from .sets import (
    AllSet,
    Diff,
    FiniteSet,
    Intersect,
    SetContext,
    SetExpr,
    predicate,
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
    involves g in at least one position.  Only g is checked: the rest were
    checked when they were chosen."""
    mul = group._mul
    g = group.check(g)
    g_inv = group._inv(g)
    chosen.append(g)
    invs.append(g_inv)
    for x, x_inv in zip(chosen, invs):
        for y_inv in invs:
            products.add(mul(mul(x, y_inv), g))
        xg = mul(x, g_inv)
        gx = mul(g, x_inv)
        for z in chosen:
            products.add(mul(xg, z))
            products.add(mul(gx, z))


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
    a: SetExpr, finite: tuple[Elem, ...], window: Window, ctx: SetContext
) -> Elem | None:
    """First window g with finite*g inside a, computed via the intersection
    of the inverse translates; None when the window holds no such g."""
    if not finite:
        raise ValueError("the finite set must be nonempty")
    group = ctx.group
    expr: SetExpr | None = None
    for t in finite:
        piece = translate(group.inv(t), a, group)
        expr = piece if expr is None else Intersect(expr, piece)
    return next(filter(predicate(expr, ctx), map(group.check, window.elements)), None)


def absorbing_check_direct(
    a: SetExpr, finite: tuple[Elem, ...], window: Window, ctx: SetContext
) -> Elem | None:
    """Reference computation of absorbing_check by direct scanning."""
    group, in_a = ctx.group, predicate(a, ctx)
    finite = [group.check(t) for t in finite]
    for g in map(group.check, window.elements):
        if all(in_a(group._mul(t, g)) for t in finite):
            return g
    return None


def small_check(
    a: SetExpr, b: SetExpr, translators: list[Elem] | tuple[Elem, ...],
    window: Window, ctx: SetContext
) -> PwT | None:
    """Window semidecider: an injective piecewise translation of a's window
    slice into the complement of b with the given displacements, or None
    (inconclusive for this translator set and window)."""
    # imported here so that replaying a greedy set's membership loads no solver
    from .engine import _transport
    from .matching import max_matching

    s_list, points, rows, _ = _transport(a, Diff(AllSet(), b), translators, window, ctx)
    adjacency = [[img for img, _ in row] for row in rows]
    pair_left, _, _ = max_matching(range(len(points)), adjacency)
    if len(pair_left) < len(points):
        return None
    blocks: dict[Elem, list[Elem]] = {}
    for i, (x, row) in enumerate(zip(points, rows)):
        blocks.setdefault(s_list[dict(row)[pair_left[i]]], []).append(x)
    order = sorted(blocks, key=ctx.group.sort_key)
    pieces = tuple((FiniteSet(tuple(blocks[d])), d) for d in order)
    return PwT(FiniteSet(points), pieces, tuple(order))
