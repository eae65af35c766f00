"""Window-exact doubling decisions: either a two-fold matching of a set into
itself with displacements from a fixed translator set, or a finite Hall-style
obstruction.  Also the capacitated generalisation m[A] <= n[B] via max-flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import FlowNetwork
from .groups import Elem, Group, Window
from .matching import max_matching
from .sets import (
    BUDGET_EXCEEDED,
    BudgetError,
    FiniteSet,
    SetContext,
    SetExpr,
    context_for,
    materialize,
    member,
    show_setexpr,
)
from .witness import ParadoxWitness


@dataclass(frozen=True)
class MatchCert:
    """For each window point x of the set, two translators whose images are
    globally pairwise distinct and stay inside the set."""

    group: Group
    set_expr: SetExpr
    translators: tuple[Elem, ...]
    window: Window
    assignment: tuple[tuple[Elem, Elem, Elem], ...]  # (x, s1, s2)


@dataclass(frozen=True)
class DeficiencyCert:
    """A finite violator D inside the window with |S.D intersect A| < 2|D|:
    no doubling matching can exist for this translator set."""

    group: Group
    set_expr: SetExpr
    translators: tuple[Elem, ...]
    window: Window
    violator: tuple[Elem, ...]


def _undecided(expr: SetExpr, g: Elem, ctx: SetContext) -> BudgetError:
    group = ctx.group
    return BudgetError(
        f"membership of {group.show(g)} in {show_setexpr(expr, group)} "
        f"undecided at budget {ctx.budget}; increase the budget slack"
    )


def _transport(a: SetExpr, b: SetExpr, translators, window: Window, slack: int):
    """The transport graph from a's window slice into b, built once.

    Returns (sorted translators, points, rows, image count): rows[i] lists
    (image id, translator index) for each translator s with s * points[i] in
    b, in translator order; image ids are numbered in first-seen order."""
    if not translators:
        raise ValueError("translator set must be nonempty")
    ctx = context_for(window, slack)
    group = ctx.group
    s_list = tuple(sorted(set(translators), key=group.sort_key))
    mat = materialize(a, window, ctx)
    if not mat.complete:
        raise _undecided(a, mat.undecided[0], ctx)
    image_id: dict[Elem, int] = {}
    rows = []
    for x in mat.elements:
        row = []
        for k, s in enumerate(s_list):
            img = group.mul(s, x)
            res = member(b, img, ctx)
            if res is BUDGET_EXCEEDED:
                raise _undecided(b, img, ctx)
            if res:
                row.append((image_id.setdefault(img, len(image_id)), k))
        rows.append(row)
    return s_list, mat.elements, rows, len(image_id)


def doubling_matching(
    a: SetExpr,
    translators: list[Elem] | tuple[Elem, ...],
    window: Window,
    slack: int = 4,
) -> MatchCert | DeficiencyCert:
    """Decide two-into-one window doubling for the given translator set.

    Fast path: when the full window slice already violates the counting bound
    (fewer than twice as many reachable targets as sources), it is emitted as
    the violator directly.  Otherwise a maximum matching is built with left
    vertex 2i + c for copy c of point i and, on failure, the violator is read
    off the matching's final alternating-reachability layering.
    """
    s_list, points, rows, n_images = _transport(a, a, translators, window, slack)
    group = window.group
    if n_images < 2 * len(points):
        return DeficiencyCert(group, a, s_list, window, points)

    adjacency = []
    for row in rows:
        images = [img for img, _ in row]
        adjacency += [images, images]
    pair_left, _, reached = max_matching(range(len(adjacency)), adjacency)
    if len(pair_left) == len(adjacency):
        assignment = []
        for i, (x, row) in enumerate(zip(points, rows)):
            translator_of = dict(row)
            s1 = s_list[translator_of[pair_left[2 * i]]]
            s2 = s_list[translator_of[pair_left[2 * i + 1]]]
            assignment.append((x, s1, s2))
        return MatchCert(group, a, s_list, window, tuple(assignment))
    violator = [
        x for i, x in enumerate(points) if 2 * i in reached or 2 * i + 1 in reached
    ]
    return DeficiencyCert(group, a, s_list, window, tuple(violator))


def witness_from_matching(cert: MatchCert) -> ParadoxWitness:
    """Regroup a doubling matching by translator into a window-scoped witness:
    pieces are the translated blocks, translators their inverses."""
    group = cert.group
    parts = []
    split = 0
    for copy in (0, 1):
        for s in cert.translators:
            block = [
                group.mul(s, x)
                for (x, s1, s2) in cert.assignment
                if (s1 if copy == 0 else s2) == s
            ]
            if block:
                parts.append((FiniteSet(tuple(block)), group.inv(s)))
                if copy == 0:
                    split += 1
    return ParadoxWitness(cert.set_expr, tuple(parts), split)


def symbolic_witness_from_matching(cert: MatchCert) -> ParadoxWitness | None:
    """When both copies use a single constant translator, lift the witness to
    symbolic pieces s*A and t*A; callers must re-validate with witness_check.
    Returns None when the matching has no constant-translator structure."""
    from .sets import translate as _translate

    group = cert.group
    firsts = {s1 for _, s1, _ in cert.assignment}
    seconds = {s2 for _, _, s2 in cert.assignment}
    if len(firsts) != 1 or len(seconds) != 1:
        return None
    s = next(iter(firsts))
    t = next(iter(seconds))
    parts = (
        (_translate(s, cert.set_expr, group), group.inv(s)),
        (_translate(t, cert.set_expr, group), group.inv(t)),
    )
    return ParadoxWitness(cert.set_expr, parts, 1)


@dataclass(frozen=True)
class FlowCert:
    """Integral assignment sending m copies of every window point of set_a
    into set_b with at most n arrivals per target."""

    group: Group
    copies: int  # m
    set_a: SetExpr
    capacity: int  # n
    set_b: SetExpr
    translators: tuple[Elem, ...]
    window: Window
    assignment: tuple[tuple[Elem, tuple[Elem, ...]], ...]  # (x, m translators)


@dataclass(frozen=True)
class FlowDeficiency:
    """Finite D with m|D| > n|S.D intersect B|, refuting the comparison."""

    group: Group
    copies: int
    set_a: SetExpr
    capacity: int
    set_b: SetExpr
    translators: tuple[Elem, ...]
    window: Window
    violator: tuple[Elem, ...]


def type_order(
    copies: int,
    a: SetExpr,
    capacity: int,
    b: SetExpr,
    translators: list[Elem] | tuple[Elem, ...],
    window: Window,
    slack: int = 4,
) -> FlowCert | FlowDeficiency:
    """Decide whether m copies of a's window slice inject into b with
    multiplicity at most n, displacements drawn from the translator set."""
    if copies < 1 or capacity < 1:
        raise ValueError("copies and capacity must be >= 1")
    s_list, points, rows, n_images = _transport(a, b, translators, window, slack)
    group = window.group

    n_nodes = 2 + len(points) + n_images
    source, sink = 0, n_nodes - 1
    net = FlowNetwork(n_nodes)
    for i in range(len(points)):
        net.add_edge(source, 1 + i, copies)
    # middle edges are effectively uncapacitated so a min cut never uses one
    # and the residual-reachable rights contain the whole neighbourhood
    big = copies * len(points) + 1
    mid_edges = [
        [net.add_edge(1 + i, 1 + len(points) + img, big) for img, _ in row]
        for i, row in enumerate(rows)
    ]
    for img in range(n_images):
        net.add_edge(1 + len(points) + img, sink, capacity)

    total = net.max_flow(source, sink)
    if total == copies * len(points):
        assignment = []
        for i, x in enumerate(points):
            used: list[Elem] = []
            for eid, (_, k) in zip(mid_edges[i], rows[i]):
                used.extend([s_list[k]] * net.flow_on(eid))
            assignment.append((x, tuple(used)))
        return FlowCert(
            group, copies, a, capacity, b, s_list, window, tuple(assignment)
        )
    violator = [x for i, x in enumerate(points) if net.level[1 + i] >= 0]
    return FlowDeficiency(
        group, copies, a, capacity, b, s_list, window, tuple(violator)
    )
