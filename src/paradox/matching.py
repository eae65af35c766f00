"""Deterministic maximum bipartite matching (Hopcroft-Karp shape) whose final
BFS layering gives the Hall violator."""

from __future__ import annotations

from collections import deque
from typing import Sequence

FREE = INF = -1  # an unmatched vertex; a left outside the BFS layering


def max_matching(lefts: Sequence[int], adjacency: Sequence[Sequence[int]],
                 n_rights: int) -> tuple[list[int], list[int], set[int]]:
    """Maximum matching, where adjacency[u] lists the rights (ints below
    n_rights) of the left u, and every left is an index into adjacency.
    Vertices are processed in the given order so the result is
    reproducible.  Returns (pair_left, pair_right, reached): pair_left[u] is
    the right matched to u and pair_right[v] the left matched to v, -1 when
    free; `reached` holds the lefts reachable from the unmatched ones by
    alternating paths (unmatched edge out, matched edge back): the classical
    Hall violator, read off the final BFS, which finds no augmenting path."""
    pair_left = [FREE] * len(adjacency)
    pair_right = [FREE] * n_rights
    dist = [INF] * len(adjacency)

    def bfs() -> bool:
        queue = deque()
        for u in lefts:
            if pair_left[u] == FREE:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if found != INF and dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = pair_right[v]
                if w == FREE:
                    if found == INF:
                        found = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != INF

    while bfs():
        for u in lefts:
            if pair_left[u] == FREE:
                _augment(u, adjacency, pair_left, pair_right, dist)
    reached = {u for u in lefts if dist[u] != INF}
    return pair_left, pair_right, reached


def _augment(root: int, adjacency, pair_left: list[int], pair_right: list[int],
             dist: list[int]) -> None:
    """Depth-first search along the BFS layering for an augmenting path from
    the free left `root`, on an explicit stack; flips the path when found.  A
    left whose neighbours are exhausted leaves the layering (dist INF)."""
    path = [(root, iter(adjacency[root]))]  # (left, its untried neighbours)
    taken: list[int] = []  # taken[j]: the right vertex leading out of path[j]
    while path:
        u, untried = path[-1]
        for v in untried:
            w = pair_right[v]
            if w == FREE or dist[w] == dist[u] + 1:
                taken.append(v)
                if w == FREE:
                    for (left, _), right in zip(path, taken):
                        pair_left[left] = right
                        pair_right[right] = left
                    return
                path.append((w, iter(adjacency[w])))
                break
        else:
            dist[u] = INF
            path.pop()
            if taken:
                taken.pop()
