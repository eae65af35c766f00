"""Two-to-one covering witnesses of paradoxicality: construction from free
semigroups, window checking, and the derived disjoint-image translation maps.

Everything here is checker-side; no matching or flow solver is involved.
"""

from __future__ import annotations

from .groups import BALL_SIZE_CAP, PRODUCT_CAP, Elem, Group, Record, Window, explicit_window
from .pwt import PwT, ValidationReport, first_overlap
from .sets import (
    Diff,
    FiniteSet,
    SemigroupSet,
    SetExpr,
    Translate,
    Union,
    materialize,
    positive_words,
    predicate,
    translate,
)


class ParadoxWitness(Record, fields="set_expr parts split"):
    """Pieces A_j inside `set_expr` and translators t_j, the parts (A_j, t_j),
    with both families (indices < split and >= split) of translated pieces
    covering the set."""

    __slots__ = ()


class Collision(Record, fields="word_a word_b value"):
    """Two distinct positive words (tuples of generator indices) with the same
    value; the generators are not free up to the requested length."""

    __slots__ = ()


def free_semigroup_witness(
    group: Group, s: Elem, t: Elem, depth: int
) -> ParadoxWitness | Collision:
    """If all positive words in {s, t} of length <= depth are distinct, emit
    the two-piece witness for the generated semigroup (with identity).  It
    refuses a depth whose 2^(depth+1) - 1 words are more than BALL_SIZE_CAP."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if 2 ** (depth + 1) - 1 > BALL_SIZE_CAP:
        raise ValueError(f"depth {depth} is over the cap: its 2^{depth + 1} - 1 "
                         f"positive words are more than {BALL_SIZE_CAP}")
    group.check(s), group.check(t)
    gens = (s, t)
    seen: dict[Elem, tuple[int, ...]] = {group.identity(): ()}
    frontier: list[tuple[Elem, tuple[int, ...]]] = [(group.identity(), ())]
    for _ in range(depth):
        new = []
        for value, word in frontier:
            for idx, gen in enumerate(gens):
                v = group.mul(value, gen)
                w = word + (idx,)
                if v in seen:
                    return Collision(seen[v], w, v)
                seen[v] = w
                new.append((v, w))
        frontier = new
    semigroup = SemigroupSet(gens, True)
    parts = (
        (translate(s, semigroup, group), group.inv(s)),
        (translate(t, semigroup, group), group.inv(t)),
    )
    return ParadoxWitness(semigroup, parts, 1)


def semigroup_window(group: Group, s: Elem, t: Elem, depth: int) -> Window:
    """Window holding the distinct positive words of length <= depth."""
    return explicit_window(group, positive_words(group, (s, t), depth), depth)


def _sliced(piece: SetExpr) -> bool:
    """Whether a piece is neither finite{...} nor a translate of one."""
    return not isinstance(piece.inner if isinstance(piece, Translate) else piece, FiniteSet)


def _piece_points(piece: SetExpr, window: Window) -> list[Elem]:
    """Probe points of a piece, checked: full content when syntactically
    finite, otherwise its window slice."""
    if _sliced(piece):
        return list(materialize(piece, window))
    if isinstance(piece, Translate):
        return [window.group.mul(piece.t, e) for e in piece.inner.elems]
    return list(map(window.group.check, piece.elems))


def witness_check(w: ParadoxWitness, window: Window) -> ValidationReport:
    """Verify piece disjointness, containment in the ambient set, and both
    covering identities, window-relatively.  It refuses a witness whose
    symbolic parts times window points pass PRODUCT_CAP before any slice."""
    group = window.group
    sliced = sum(_sliced(piece) for piece, _ in w.parts)
    if sliced * len(window) > PRODUCT_CAP:
        raise ValueError(f"{sliced} symbolic parts times {len(window)} window points "
                         f"make more than the cap of {PRODUCT_CAP} products")
    checks = []

    ok = 0 <= w.split <= len(w.parts)
    checks.append(("split-in-range", ok, "" if ok else f"split {w.split}"))
    if not ok:
        return ValidationReport(tuple(checks))

    points = [_piece_points(piece, window) for piece, _ in w.parts]
    hit = first_overlap(points, group)
    bad = "" if hit is None else (
        f"pieces {hit[0]} and {hit[1]} share {group.show(hit[2])}"
    )
    checks.append(("pieces-disjoint", not bad, bad))

    in_set = predicate(w.set_expr, window)
    bad = ""
    for i, pts in enumerate(points):
        for g in pts:
            if not in_set(g):
                bad = f"piece {i} contains {group.show(g)} outside the set"
                break
        if bad:
            break
    checks.append(("pieces-inside-set", not bad, bad))

    base = materialize(w.set_expr, window)  # window points are checked
    # (inverse translator, membership test) of each piece; `inv` checks t
    covers = [(group.inv(t), predicate(piece, window)) for piece, t in w.parts]
    mul = group._mul
    for fam, label in ((range(0, w.split), "first"), (range(w.split, len(w.parts)), "second")):
        family = [covers[j] for j in fam]
        # the translated probe points t_j p are covered; only the window
        # points left over ask the pieces' membership tests, in base order
        moved = [(j, [mul(w.parts[j][1], g) for g in points[j]]) for j in fam]
        covered = {h for _, images in moved for h in images}
        bad = next((f"{group.show(g)} not covered by the {label} family" for g in base
                    if g not in covered and not any(
                        in_piece(mul(t_inv, g)) for t_inv, in_piece in family)), "")
        checks.append((f"{label}-family-covers", not bad, bad))
        bad = next((f"translated piece {j} leaves the set at {group.show(h)}"
                    for j, images in moved for h in images if not in_set(h)), "")
        checks.append((f"{label}-family-inside", not bad, bad))
    return ValidationReport(tuple(checks))


def base_translation_maps(w: ParadoxWitness, group: Group) -> tuple[PwT, PwT]:
    """The two disjoint-image piecewise translations encoded by a witness:
    on t_j*A_j (first unclaimed j of the family), map x -> t_j^(-1)*x."""

    def family(indices: list[int]) -> PwT:
        pieces = []
        claimed: SetExpr | None = None
        for j in indices:
            part, t = w.parts[j]
            region = translate(t, part, group)
            piece = region if claimed is None else Diff(region, claimed)
            pieces.append((piece, group.inv(t)))
            claimed = region if claimed is None else Union(claimed, region)
        displacement = sorted({t for _, t in pieces}, key=group.sort_key)
        return PwT(w.set_expr, tuple(pieces), tuple(displacement))

    first = family(list(range(0, w.split)))
    second = family(list(range(w.split, len(w.parts))))
    return first, second
