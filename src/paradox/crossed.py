"""Exact symbolic arithmetic for finite sums of (coefficient, group unitary)
terms, where coefficients are rational combinations of set indicators.  Enough
to build and re-check proper-infiniteness witnesses and corner compressions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from .groups import Elem, Group, Record, Window
from .pwt import ValidationReport
from .sets import (
    AllSet,
    Intersect,
    SetContext,
    SetExpr,
    predicate,
    show_setexpr,
    translate,
)
from .witness import ParadoxWitness

# a coefficient is a merged, deterministically ordered sum q_1*1_{A_1} + ...
Coefficient = tuple[tuple[Fraction, SetExpr], ...]

# Most evaluations of a coefficient entry at a window point a cp-witness replay
# may make, with 100 for an entry's build: free:2 window 8 (81 entries) fits.
EVALUATION_CAP = 2_000_000


def _canon_coeff(terms: list[tuple[Fraction, SetExpr]], group: Group,
                 shown: dict) -> Coefficient:
    """The terms merged by set and sorted by the text of the set; `shown` is
    the memo of `show_setexpr`, kept for one `_build`."""
    merged: dict[SetExpr, Fraction] = {}
    for q, expr in terms:
        merged[expr] = merged.get(expr, Fraction(0)) + q
    kept = [(q, e) for e, q in merged.items() if q != 0]
    kept.sort(key=lambda item: show_setexpr(item[1], group, shown))
    return tuple(kept)


class CPElem(Record, fields="group terms"):
    """Finite sum of coefficient * unitary terms over a fixed group: the
    terms are (element, coefficient), keyed and sorted by element."""

    __slots__ = ()


def _build(group: Group, raw: dict[Elem, list[tuple[Fraction, SetExpr]]]) -> CPElem:
    terms, shown = [], {}
    for t in sorted(raw, key=group.sort_key):
        coeff = _canon_coeff(raw[t], group, shown)
        if coeff:
            terms.append((t, coeff))
    return CPElem(group, tuple(terms))


def cp_zero(group: Group) -> CPElem:
    return CPElem(group, ())


def single(group: Group, q: Fraction, expr: SetExpr, t: Elem) -> CPElem:
    return _build(group, {t: [(q, expr)]})


def indicator(group: Group, expr: SetExpr) -> CPElem:
    """The diagonal element 1_expr (coefficient at the identity unitary)."""
    return single(group, Fraction(1), expr, group.identity())


def unitary(group: Group, t: Elem) -> CPElem:
    return single(group, Fraction(1), AllSet(), t)


def cp_add(x: CPElem, y: CPElem) -> CPElem:
    raw: dict[Elem, list[tuple[Fraction, SetExpr]]] = {}
    for t, coeff in x.terms + y.terms:
        raw.setdefault(t, []).extend(coeff)
    return _build(x.group, raw)


def cp_sub(x: CPElem, y: CPElem) -> CPElem:
    # negating every coefficient leaves y's terms merged and in order
    neg = tuple((t, tuple((-q, e) for q, e in coeff)) for t, coeff in y.terms)
    return cp_add(x, CPElem(y.group, neg))


def _coeff_translate(coeff: Coefficient, t: Elem, group: Group) -> list:
    """The twisted coefficient t.f: indicators move to translated sets."""
    return [(q, translate(t, expr, group)) for q, expr in coeff]


def _coeff_mul(a, b) -> list:
    return [(qa * qb, Intersect(ea, eb)) for qa, ea in a for qb, eb in b]


def cp_mul(x: CPElem, y: CPElem) -> CPElem:
    """(f u_t)(g u_r) = f * (t.g) u_{tr}."""
    group = x.group
    raw: dict[Elem, list[tuple[Fraction, SetExpr]]] = {}
    for t, f in x.terms:
        for r, g in y.terms:
            tr = group.mul(t, r)
            raw.setdefault(tr, []).extend(_coeff_mul(f, _coeff_translate(g, t, group)))
    return _build(group, raw)


def cp_adjoint(x: CPElem) -> CPElem:
    """(f u_t)* = (t^(-1).f) u_{t^(-1)}."""
    group = x.group
    raw: dict[Elem, list[tuple[Fraction, SetExpr]]] = {}
    for t, f in x.terms:
        t_inv = group.inv(t)
        raw.setdefault(t_inv, []).extend(_coeff_translate(f, t_inv, group))
    return _build(group, raw)


def coeff_value(coeff: Coefficient, ctx: SetContext) -> Callable[[Elem], Fraction]:
    """The coefficient as a function of points already checked in ctx.group,
    with the membership test of each of its sets taken once."""
    terms = [(q, predicate(expr, ctx)) for q, expr in coeff]
    zero = Fraction(0)
    return lambda g: sum((q for q, in_expr in terms if in_expr(g)), zero)


def cp_vanishes_on(x: CPElem, window: Window):
    """None when every coefficient evaluates to zero at every window point;
    otherwise the first offending (unitary element, point, value).  Each
    coefficient is summed as integer numerators over the lcm of its
    denominators; only the reported value is a Fraction."""
    for t, coeff in x.terms:
        scale = lcm(*(q.denominator for q, _ in coeff))
        terms = [(q.numerator * (scale // q.denominator), predicate(expr, window))
                 for q, expr in coeff]
        for g in window.elements:
            num = sum(n for n, in_expr in terms if in_expr(g))
            if num:
                return (t, g, Fraction(num, scale))
    return None


# ---- proper-infiniteness witnesses -----------------------------------------


class PIWitness(Record, fields="group set_expr v w"):
    """p = 1_A together with v, w whose five product identities certify that
    p is properly infinite in the symbolic crossed product."""

    __slots__ = ()

    @property
    def p(self) -> CPElem:
        return indicator(self.group, self.set_expr)


def pi_witness(w: ParadoxWitness, group: Group) -> PIWitness:
    """Read the two covering families into the pair v, w: a piece A_j with
    translator t_j contributes 1_{t_j A_j} u_{t_j^(-1)}."""
    raw_v, raw_w = {}, {}
    for j, (piece, t) in enumerate(w.parts):
        raw = raw_v if j < w.split else raw_w
        raw.setdefault(group.inv(t), []).append((Fraction(1), piece))
    return PIWitness(group, w.set_expr, _build(group, raw_v), _build(group, raw_w))


def verify_pi_witness(pw: PIWitness, window: Window) -> ValidationReport:
    """Window-exact check of v*v = p = w*w, orthogonality of the ranges, and
    range domination by p, refused past EVALUATION_CAP before any product."""
    # e = e_v + e_w entries in v and w: vv*.ww* makes (e_v e_w)^2 <= (e^2/4)^2
    entries = (sum(len(c) for x in (pw.v, pw.w) for _, c in x.terms) ** 2 // 4) ** 2
    if entries * (len(window) + 100) > EVALUATION_CAP:
        raise ValueError(f"v and w form {entries} coefficient entries on {len(window)} "
                         f"window points, past the cap of {EVALUATION_CAP} evaluations")
    group = pw.group
    p = pw.p
    v, w = pw.v, pw.w
    vv = cp_mul(v, cp_adjoint(v))
    ww = cp_mul(w, cp_adjoint(w))
    identities = (
        ("v*v = p", cp_sub(cp_mul(cp_adjoint(v), v), p)),
        ("w*w = p", cp_sub(cp_mul(cp_adjoint(w), w), p)),
        ("vv* . ww* = 0", cp_mul(vv, ww)),
        ("p . vv* = vv*", cp_sub(cp_mul(p, vv), vv)),
        ("p . ww* = ww*", cp_sub(cp_mul(p, ww), ww)),
    )
    results = []
    for name, delta in identities:
        offender = cp_vanishes_on(delta, window)
        if offender is None:
            results.append((name, True, ""))
        else:
            t, g, val = offender
            results.append(
                (
                    name,
                    False,
                    f"coefficient of u({group.show(t)}) is {val} at {group.show(g)}",
                )
            )
    return ValidationReport(tuple(results))


# ---- corner compression -----------------------------------------------------


class CornerReport(Record, fields="compressed off_diagonal"):
    """1_a x 1_a, and (unitary, window support size of its coefficient) for
    each off-identity unitary."""

    __slots__ = ()


def corner_compress(a: SetExpr, x: CPElem, window: Window) -> CornerReport:
    """Compute 1_a * x * 1_a and measure how concentrated every off-identity
    coefficient is on the window."""
    group = x.group
    p = indicator(group, a)
    compressed = cp_mul(cp_mul(p, x), p)
    sizes = []
    for t, coeff in compressed.terms:
        if t == group.identity():
            continue
        value = coeff_value(coeff, window)
        sizes.append((t, sum(1 for g in window.elements if value(g) != 0)))
    return CornerReport(compressed, tuple(sizes))
