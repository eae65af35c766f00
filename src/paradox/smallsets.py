"""Greedy construction of sets with tiny self-intersections under translation,
their exact re-checks, and absorbing-set probes."""

from __future__ import annotations

from .groups import Elem, Group, Record, Window
from .sets import (
    Intersect,
    SetExpr,
    predicate,
    translate,
)

# The greedy sequence costs about count^3: 200 elements of zn:1 take seconds.
GREEDY_COUNT_CAP = 200


def greedy_small_set(group: Group, count: int) -> tuple[Elem, ...]:
    """First `count` elements of the canonical enumeration that avoid every
    triple product x y^(-1) z of previously chosen elements x, y, z.

    A candidate g is such a product iff x^(-1) g lies in the pair set
    P = {y^(-1) z : y, z chosen} for some chosen x, so only P is stored: at
    most n^2 products for n chosen elements, and at most k lookups for a
    candidate tested against k chosen ones."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > GREEDY_COUNT_CAP:
        raise ValueError(f"count {count} is over the cap of {GREEDY_COUNT_CAP}")
    chosen: list[Elem] = []
    invs: list[Elem] = []
    pairs: set[Elem] = set()
    for g in group.enumerate_elements():
        if _excluded(group, invs, pairs, g):
            continue
        _choose(group, chosen, invs, pairs, g)
        if len(chosen) == count:
            break
    return tuple(chosen)


def verify_greedy_exclusion(group: Group, elems: tuple[Elem, ...]) -> bool:
    """Re-check of the defining exclusion x_k not in {x_i x_j^(-1) x_l :
    i, j, l < k} at every index k, through the same pair set as the
    producer: at most n^2 stored products and k lookups at index k.

    Every element is checked with `group.check` first.  It shares `_excluded`
    and `_choose` with the producer; the tests check both against a
    brute-force evaluation of the definition."""
    elems = tuple(map(group.check, elems))
    prefix: list[Elem] = []
    invs: list[Elem] = []
    pairs: set[Elem] = set()
    for g in elems:
        if _excluded(group, invs, pairs, g):
            return False
        _choose(group, prefix, invs, pairs, g)
    return True


def _excluded(group: Group, invs: list[Elem], pairs: set[Elem], g: Elem) -> bool:
    """Whether g = x y^(-1) z for chosen x, y, z: whether x^(-1) g is in the
    pair set for some chosen x (`invs` holds the inverses x^(-1)).  At most
    one product and one lookup per chosen element."""
    mul = group._mul
    for x_inv in invs:
        if mul(x_inv, g) in pairs:
            return True
    return False


def _choose(group: Group, chosen: list[Elem], invs: list[Elem],
            pairs: set[Elem], g: Elem) -> None:
    """Append g to `chosen` (and its inverse to `invs`), and add to `pairs`
    the products x^(-1) g and g^(-1) x for every chosen x, g included: 2k
    products when g is the k-th element, so at most n^2 stored for n."""
    mul = group._mul
    g_inv = group._inv(g)
    chosen.append(g)
    invs.append(g_inv)
    for x, x_inv in zip(chosen, invs):
        pairs.add(mul(x_inv, g))
        pairs.add(mul(g_inv, x))


class PairIntersectionReport(Record, fields="maximum attained_at"):
    __slots__ = ()


def check_pair_intersections(
    group: Group, elems: tuple[Elem, ...], radius: int
) -> PairIntersectionReport:
    """max over nonidentity s in the ball of |sA intersect A|, exactly."""
    if radius < 1:
        raise ValueError("check radius must be >= 1")
    elems = tuple(map(group.check, elems))
    elem_set, mul, identity = set(elems), group._mul, group.identity()
    best, where = -1, None
    for s in group.ball_elements(radius):
        if s == identity:
            continue
        size = sum(1 for x in elems if mul(s, x) in elem_set)
        if size > best:
            best, where = size, s
    return PairIntersectionReport(best, where)


def absorbing_check(
    a: SetExpr, finite: tuple[Elem, ...], window: Window
) -> Elem | None:
    """First window g with finite*g inside a, computed via the intersection
    of the inverse translates; None when the window holds no such g."""
    if not finite:
        raise ValueError("the finite set must be nonempty")
    group = window.group
    expr: SetExpr | None = None
    for t in finite:
        piece = translate(group.inv(t), a, group)
        expr = piece if expr is None else Intersect(expr, piece)
    return next(filter(predicate(expr, window), window.elements), None)


def absorbing_check_direct(
    a: SetExpr, finite: tuple[Elem, ...], window: Window
) -> Elem | None:
    """Reference computation of absorbing_check by direct scanning."""
    group, in_a = window.group, predicate(a, window)
    finite = [group.check(t) for t in finite]
    for g in map(group.check, window.elements):
        if all(in_a(group._mul(t, g)) for t in finite):
            return g
    return None
