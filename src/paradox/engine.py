"""Window-exact transport decisions m[A] <= n[B]: either an assignment
sending m copies of every window point of A into B, each target taking at
most n, with displacements from a fixed translator set, or a finite
Hall-style violator.  A doubling of A is the case m = 2, n = 1, B = A, which
`doubling_matching` decides by bipartite matching; `type_order` decides any
m and n by max-flow.  Both return the two records of `certificates.py`,
which writes them and reads them back.
"""

from __future__ import annotations

from .certificates import TransportCert, ViolatorCert
from .flow import FlowNetwork
from .groups import PRODUCT_CAP, Elem, Window
from .matching import max_matching
from .sets import FiniteSet, SetExpr, materialize, predicate
from .witness import ParadoxWitness


def _transport(a: SetExpr, b: SetExpr, translators, window: Window):
    """The transport graph from a's window slice into b, built once.

    Returns (sorted translators, points, images, moves, image count):
    images[i] lists the image ids of the translators s with s * points[i] in
    b, in translator order, and moves[i] the indices of those translators,
    position for position.  Image ids are numbered in first-seen order; equal
    index tuples are one shared tuple, so the graph holds no object per
    edge beyond the image id's int."""
    if not translators:
        raise ValueError("translator set must be nonempty")
    group = window.group
    s_list = tuple(sorted(set(map(group.check, translators)), key=group.sort_key))
    points = materialize(a, window)  # window points are checked
    if len(points) * len(s_list) > PRODUCT_CAP:
        raise ValueError(f"{len(points)} window points times {len(s_list)} translators "
                         f"make more than the cap of {PRODUCT_CAP} products")
    mul, in_b = group._mul, predicate(b, window)
    image_id: dict[Elem, int] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    images, moves = [], []
    for x in points:
        ids, ks = [], []
        for k, s in enumerate(s_list):
            img = mul(s, x)
            if in_b(img):
                ids.append(image_id.setdefault(img, len(image_id)))
                ks.append(k)
        images.append(ids)
        ks = tuple(ks)
        moves.append(shared.setdefault(ks, ks))
    return s_list, points, images, moves, len(image_id)


def doubling_matching(
    a: SetExpr,
    translators: list[Elem] | tuple[Elem, ...],
    window: Window,
) -> TransportCert | ViolatorCert:
    """Decide two-into-one window doubling, 2[a] <= 1[a], for the given
    translator set.

    Fast path: when the full window slice already violates the counting bound
    (fewer than twice as many reachable targets as sources), it is emitted as
    the violator directly.  Otherwise a maximum matching is built with left
    vertex 2i + c for copy c of point i and, on failure, the violator is read
    off the matching's final alternating-reachability layering.
    """
    s_list, points, images, moves, n_images = _transport(a, a, translators, window)
    if n_images < 2 * len(points):
        return ViolatorCert(2, a, 1, a, s_list, window, points)

    adjacency = []
    for ids in images:
        adjacency += (ids, ids)  # both copies of a point share its id list
    pair_left, _, reached = max_matching(range(len(adjacency)), adjacency, n_images)
    if -1 not in pair_left:
        assignment, pairs = [], {}  # equal translator pairs are one tuple
        for i, (x, ids, ks) in enumerate(zip(points, images, moves)):
            used = (s_list[ks[ids.index(pair_left[2 * i])]],
                    s_list[ks[ids.index(pair_left[2 * i + 1])]])
            assignment.append((x, pairs.setdefault(used, used)))
        return TransportCert(2, a, 1, a, s_list, window, tuple(assignment))
    violator = [
        x for i, x in enumerate(points) if 2 * i in reached or 2 * i + 1 in reached
    ]
    return ViolatorCert(2, a, 1, a, s_list, window, tuple(violator))


def witness_from_matching(cert: TransportCert) -> ParadoxWitness:
    """Regroup a doubling matching by translator into a window-scoped witness:
    pieces are the translated blocks, translators their inverses."""
    group = cert.window.group
    parts = []
    split = 0
    for copy in (0, 1):
        for s in cert.translators:
            block = [group.mul(s, x) for x, used in cert.assignment if used[copy] == s]
            if block:
                parts.append((FiniteSet(tuple(block)), group.inv(s)))
                if copy == 0:
                    split += 1
    return ParadoxWitness(cert.set_a, tuple(parts), split)


def symbolic_witness_from_matching(cert: TransportCert) -> ParadoxWitness | None:
    """When both copies use a single constant translator, lift the witness to
    symbolic pieces s*A and t*A; callers must re-validate with witness_check.
    Returns None when the matching has no constant-translator structure."""
    from .sets import translate as _translate

    group = cert.window.group
    pairs = {used for _, used in cert.assignment}
    if len(pairs) != 1:
        return None
    [(s, t)] = pairs
    parts = (
        (_translate(s, cert.set_a, group), group.inv(s)),
        (_translate(t, cert.set_a, group), group.inv(t)),
    )
    return ParadoxWitness(cert.set_a, parts, 1)


def type_order(
    copies: int,
    a: SetExpr,
    capacity: int,
    b: SetExpr,
    translators: list[Elem] | tuple[Elem, ...],
    window: Window,
) -> TransportCert | ViolatorCert:
    """Decide whether m copies of a's window slice inject into b with
    multiplicity at most n, displacements drawn from the translator set."""
    if copies < 1 or capacity < 1:
        raise ValueError("copies and capacity must be >= 1")
    s_list, points, images, moves, n_images = _transport(a, b, translators, window)

    n_nodes = 2 + len(points) + n_images
    source, sink = 0, n_nodes - 1
    net = FlowNetwork(n_nodes)
    for i in range(len(points)):
        net.add_edge(source, 1 + i, copies)
    # middle edges are effectively uncapacitated so a min cut never uses one
    # and the residual-reachable rights contain the whole neighbourhood
    big = copies * len(points) + 1
    for i, ids in enumerate(images):
        for img in ids:
            net.add_edge(1 + i, 1 + len(points) + img, big)
    for img in range(n_images):
        net.add_edge(1 + len(points) + img, sink, capacity)

    total = net.max_flow(source, sink)
    if total == copies * len(points):
        # the middle edges were added right after the len(points) source
        # edges, point by point, so their ids run on from 2 * len(points)
        assignment, eid = [], 2 * len(points)
        for x, ks in zip(points, moves):
            used: list[Elem] = []
            for k in ks:
                used.extend([s_list[k]] * net.flow_on(eid))
                eid += 2
            assignment.append((x, tuple(used)))
        return TransportCert(copies, a, capacity, b, s_list, window, tuple(assignment))
    violator = [x for i, x in enumerate(points) if net.level[1 + i] >= 0]
    return ViolatorCert(copies, a, capacity, b, s_list, window, tuple(violator))
