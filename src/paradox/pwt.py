"""Piecewise translations, plus the report type and the pairwise-overlap
check that the window checkers share."""

from __future__ import annotations

from typing import Callable

from .groups import Elem, Group, Record
from .sets import (
    Intersect,
    SetContext,
    predicate,
    translate,
)


class PwTError(ValueError):
    """Domain or piece-structure violation when applying a piecewise translation."""


class PwT(Record, fields="domain pieces displacement"):
    """A piecewise translation: on each piece, left-multiply by its translator.

    The map is x -> t_i * x for the unique piece i containing x, for the
    pieces (A_i, t_i); all displacements stay inside the finite
    `displacement` set.
    """

    __slots__ = ()


def pwt_map(p: PwT, ctx: SetContext) -> Callable[[Elem], Elem]:
    """p as a function of points already checked in ctx.group, with the
    membership tests of p's sets taken once.  A point outside the domain or
    in other than one piece raises PwTError."""
    group = ctx.group
    in_domain = predicate(p.domain, ctx)
    pieces = [(predicate(piece, ctx), group.check(t)) for piece, t in p.pieces]
    mul = group._mul

    def apply(g: Elem) -> Elem:
        if not in_domain(g):
            raise PwTError(f"{group.show(g)} is outside the domain")
        hits = [t for in_piece, t in pieces if in_piece(g)]
        if not hits:
            raise PwTError(f"{group.show(g)} is in the domain but in no piece")
        if len(hits) > 1:
            raise PwTError(f"{group.show(g)} lies in {len(hits)} pieces")
        return mul(hits[0], g)

    return apply


def pwt_compose(outer: PwT, inner: PwT, group: Group) -> PwT:
    """Compose: outer applied after inner, piece by piece."""
    pieces = []
    for ipiece, s in inner.pieces:
        s_inv = group.inv(s)
        for opiece, u in outer.pieces:
            piece = Intersect(ipiece, translate(s_inv, opiece, group))
            pieces.append((piece, group.mul(u, s)))
    displacement = sorted({t for _, t in pieces}, key=group.sort_key)
    return PwT(inner.domain, tuple(pieces), tuple(displacement))


class ValidationReport(Record, fields="checks"):
    """Outcome of a window check: (name, ok, message) per check; failures
    carry a witness element in their message."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, msg) for name, ok, msg in self.checks if not ok]

    def __str__(self) -> str:
        return "; ".join(
            f"{name}: {'ok' if ok else 'FAIL ' + msg}" for name, ok, msg in self.checks
        )


def first_overlap(point_sets, group) -> tuple[int, int, Elem] | None:
    """The first pair i < j of point collections that meet, with their least
    shared point by `group.sort_key`; None when they are pairwise disjoint.
    One pass: each point remembers the first collection that holds it.  A
    point held by L0 < L1 < ... meets first at (L0, L1), so the least pair
    seen over all points is the first pair that meets."""
    first: dict[Elem, int] = {}
    pair = None
    for j, points in enumerate(point_sets):
        for g in points:
            i = first.setdefault(g, j)
            if i != j and (pair is None or (i, j) < pair):
                pair = (i, j)
    if pair is None:
        return None
    i, j = pair
    return i, j, min(set(point_sets[i]).intersection(point_sets[j]), key=group.sort_key)
