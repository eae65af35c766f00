"""Recursive injective Lipschitz embedding of the rank-2 free group into any
group carrying a validated doubling witness, and its exhaustive check on a
free-group ball."""

from __future__ import annotations

from .groups import FreeGroup, Record, Window
from .pwt import PwT, PwTError, first_overlap, pwt_compose, pwt_map
from .sets import materialize
from .witness import ParadoxWitness, base_translation_maps, witness_check

class EmbeddingWindowError(ValueError):
    """The recursion needs values outside the window the witness was
    validated on; rebuild the witness on a larger window."""


class EmbeddingData(Record, fields="sigma_plus sigma_minus tau_plus tau_minus "
                   "base_point window"):
    """The four branch maps and base point driving the word-by-word recursion
    f(c x') = map_c(f(x')), f(e) = base point."""

    __slots__ = ()

    def branch_maps(self) -> tuple[PwT, PwT, PwT, PwT]:
        return (self.sigma_plus, self.sigma_minus, self.tau_plus, self.tau_minus)


def build_embedding(w: ParadoxWitness, window: Window) -> EmbeddingData:
    """Derive four pairwise-disjoint-image maps and an unhit base point from a
    two-map witness, which must pass `witness_check` on the window first:
    depth-three composites inside the plus branch, base point from the minus
    branch."""
    report = witness_check(w, window)
    if not report.passed:
        raise ValueError(f"witness fails validation: {report.failures()}")
    return embedding_from_checked(w, window)


def embedding_from_checked(w: ParadoxWitness, window: Window) -> EmbeddingData:
    """`build_embedding` for a witness that has passed `witness_check` on
    this window.  A window-scoped witness can pass and still give branch
    images that meet on the window: that is a ValueError."""
    group = window.group
    base = materialize(w.set_expr, window)
    if not base:
        raise ValueError("the witness set has an empty window slice")
    plus, minus = base_translation_maps(w, group)
    branches = []
    for eps in (plus, minus):
        for delta in (plus, minus):
            branches.append(pwt_compose(plus, pwt_compose(eps, delta, group), group))
    base_point = pwt_map(minus, window)(base[0])

    image_sets = []
    for mp in branches:
        images = set()
        apply = pwt_map(mp, window)
        for g in base:
            try:
                images.add(apply(g))
            except PwTError:
                # window-scoped witnesses define the composites only partially
                continue
        image_sets.append(images)
    hit = first_overlap(image_sets + [{base_point}], group)
    if hit is not None:
        raise ValueError(
            f"branch images {hit[0]} and {hit[1]} overlap at {group.show(hit[2])}"
        )
    return EmbeddingData(*branches, base_point, window)


class LipschitzReport(Record, fields="radius injective value_count displacement_set "
                      "collisions violations"):
    """Exhaustive check on the free-group ball of the stated radius: the
    observed displacements and their inverses, the pairs of words with equal
    values, and the violations, the (c w, w) pairs displaced outside what
    the branch map for c declares."""

    __slots__ = ()


def check_injective_lipschitz(data: EmbeddingData, radius: int) -> LipschitzReport:
    """Evaluate on the whole rank-2 ball; verify injectivity, and that each
    adjacent pair f(c w), f(w) is displaced by a translator the branch map
    for the letter c declares, which bounds the displacement of the whole
    map by the declared sets."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    group = data.window.group
    mul, inv = group._mul, group._inv
    # indexed by the letter code of a, a^-1, b, b^-1: the order of branch_maps()
    maps = [pwt_map(m, data.window) for m in data.branch_maps()]
    declared = [set(m.displacement) for m in data.branch_maps()]
    e, *words = FreeGroup(2).ball_elements(radius)
    base = group.check(data.base_point)
    # (value, inverse) of each word shorter than the radius, all built from the
    # checked base point; in layer order each suffix word[1:] is already here
    table = {e: (base, inv(base))}
    seen = {base: e}
    collisions, violations, observed = [], [], set()
    for word in words:
        u, u_inv = table[word[1:]]
        try:
            v = maps[word[0]](u)
        except PwTError as exc:
            raise EmbeddingWindowError(
                f"evaluation left the validated window after {len(word) - 1} of "
                f"{len(word)} letters; rebuild the witness on a larger window "
                f"(word {word.letters})"
            ) from exc
        if len(word) < radius:
            table[word] = (v, inv(v))
        if v in seen:
            collisions.append((seen[v].letters, word.letters))
        else:
            seen[v] = word
        d = mul(v, u_inv)  # the step's displacement f(c w') f(w')^-1
        observed.add(d)
        if d not in declared[word[0]]:
            violations.append((word.letters, word.letters[1:]))
    t_set = observed | set(map(inv, observed))
    ordered = tuple(sorted(t_set, key=group.sort_key))
    return LipschitzReport(
        radius,
        not collisions,
        len(seen),
        ordered,
        tuple(collisions),
        tuple(violations),
    )
