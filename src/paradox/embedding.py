"""Recursive injective Lipschitz embedding of the rank-2 free group into any
group carrying a validated doubling witness, and its exhaustive check on a
free-group ball."""

from __future__ import annotations

from .groups import Elem, FreeGroup, FreeWord, Record, Window
from .pwt import PwT, PwTError, first_overlap, pwt_compose, pwt_map
from .sets import SetContext, materialize
from .witness import ParadoxWitness, base_translation_maps, witness_check

# the letters a, a^-1, b, b^-1, in the order of branch_maps()
_BRANCH_LETTERS = (1, -1, 2, -2)


class EmbeddingWindowError(ValueError):
    """The recursion needs values outside the window the witness was
    validated on; rebuild the witness on a larger window."""


class EmbeddingData:
    """The four branch maps and base point driving the word-by-word recursion
    f(c x') = map_c(f(x')), f(e) = base point."""

    __slots__ = ("sigma_plus", "sigma_minus", "tau_plus", "tau_minus",
                 "base_point", "ctx", "_memo", "_apply")

    def __init__(self, sigma_plus: PwT, sigma_minus: PwT, tau_plus: PwT,
                 tau_minus: PwT, base_point: Elem, ctx: SetContext) -> None:
        self.base_point, self.ctx = ctx.group.check(base_point), ctx
        self.sigma_plus, self.sigma_minus = sigma_plus, sigma_minus
        self.tau_plus, self.tau_minus = tau_plus, tau_minus
        # word -> its value, for every word evaluated so far
        self._memo: dict[tuple[int, ...], Elem] = {(): self.base_point}
        # letter -> its branch map as a function of checked points
        self._apply = {
            c: pwt_map(m, ctx) for c, m in zip(_BRANCH_LETTERS, self.branch_maps())
        }

    def branch_maps(self) -> tuple[PwT, PwT, PwT, PwT]:
        return (self.sigma_plus, self.sigma_minus, self.tau_plus, self.tau_minus)


def build_embedding(w: ParadoxWitness, window: Window,
                    ctx: SetContext) -> EmbeddingData:
    """Derive four pairwise-disjoint-image maps and an unhit base point from a
    two-map witness, which must pass `witness_check` on the window first:
    depth-three composites inside the plus branch, base point from the minus
    branch."""
    report = witness_check(w, window, ctx)
    if not report.passed:
        raise ValueError(f"witness fails validation: {report.failures()}")
    return embedding_from_checked(w, window, ctx)


def embedding_from_checked(w: ParadoxWitness, window: Window,
                           ctx: SetContext) -> EmbeddingData:
    """`build_embedding` for a witness that has passed `witness_check` on
    this window and context.  A window-scoped witness can pass and still
    give branch images that meet on the window: that is a ValueError."""
    group = ctx.group
    base = materialize(w.set_expr, window, ctx)
    if not base:
        raise ValueError("the witness set has an empty window slice")
    plus, minus = base_translation_maps(w, group)
    branches = []
    for eps in (plus, minus):
        for delta in (plus, minus):
            branches.append(pwt_compose(plus, pwt_compose(eps, delta, group), group))
    base_point = pwt_map(minus, ctx)(base[0])

    image_sets = []
    for mp in branches:
        images = set()
        apply = pwt_map(mp, ctx)
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
    return EmbeddingData(*branches, base_point, ctx)


def eval_embedding(data: EmbeddingData, word: FreeWord | tuple[int, ...]) -> Elem:
    """Evaluate the embedding on a reduced rank-2 free word."""
    letters = word.letters if isinstance(word, FreeWord) else tuple(word)
    for i, x in enumerate(letters):
        if x == 0 or abs(x) > 2:
            raise ValueError(f"letter {x} is not one of the two generators")
        if i and letters[i - 1] == -x:
            raise ValueError(f"word {letters} is not reduced")
    maps, memo = data._apply, data._memo
    # extend the longest memoised suffix, () at least, letter by letter
    for start in range(len(letters) + 1):
        if letters[start:] in memo:
            break
    value = memo[letters[start:]]
    for k in range(start - 1, -1, -1):
        try:
            value = maps[letters[k]](value)
        except PwTError as exc:
            raise EmbeddingWindowError(
                f"evaluation left the validated window after "
                f"{len(letters) - 1 - k} of {len(letters)} letters; rebuild "
                f"the witness on a larger window (word {letters})"
            ) from exc
        memo[letters[k:]] = value
    return value


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
    group = data.ctx.group
    words = [w.letters for w in FreeGroup(2).ball_elements(radius)]
    seen: dict[Elem, tuple[int, ...]] = {}
    collisions = []
    for w in words:
        v = eval_embedding(data, w)
        if v in seen:
            collisions.append((seen[v], w))
        else:
            seen[v] = w

    declared = {
        c: set(m.displacement)
        for c, m in zip(_BRANCH_LETTERS, data.branch_maps())
    }
    # the memo's values were built from checked points by the branch maps
    values, mul, inv = data._memo, group._mul, group._inv
    observed = set()
    violations = []
    for w in words:
        if len(w) >= radius:
            continue
        w_inv = inv(values[w])
        for c in _BRANCH_LETTERS:
            if w and w[0] == -c:
                continue
            cw = (c,) + w
            d = mul(values[cw], w_inv)
            observed.add(d)
            if d not in declared[c]:
                violations.append((cw, w))
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
