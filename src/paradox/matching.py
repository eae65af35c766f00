"""Deterministic maximum bipartite matching (Hopcroft-Karp shape) whose final
BFS layering gives the Hall violator."""

from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

INF = -1


def max_matching(lefts: Sequence[Hashable], adjacency) -> tuple[dict, dict, set]:
    """Maximum matching, where adjacency[u] lists the rights of the left u.
    Vertices are processed in the given order so the result is
    reproducible.  Returns (pair_left, pair_right, reached), where
    `reached` holds the lefts reachable from the unmatched ones by alternating
    paths (unmatched edge out, matched edge back): the classical Hall
    violator, read off the final BFS, which finds no augmenting path."""
    pair_left: dict = {}
    pair_right: dict = {}
    dist: dict = {}

    def bfs() -> bool:
        queue = deque()
        for u in lefts:
            if u not in pair_left:
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
                if v not in pair_right:
                    if found == INF:
                        found = dist[u] + 1
                else:
                    w = pair_right[v]
                    if dist[w] == INF:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return found != INF

    while bfs():
        for u in lefts:
            if u not in pair_left:
                _augment(u, adjacency, pair_left, pair_right, dist)
    reached = {u for u in lefts if dist[u] != INF}
    return pair_left, pair_right, reached


def _augment(root, adjacency, pair_left: dict, pair_right: dict, dist: dict) -> None:
    """Depth-first search along the BFS layering for an augmenting path from
    the free left `root`, on an explicit stack; flips the path when found.  A
    left whose neighbours are exhausted leaves the layering (dist INF)."""
    path = [(root, iter(adjacency[root]))]  # (left, its untried neighbours)
    taken: list = []  # taken[j]: the right vertex leading out of path[j]
    while path:
        u, untried = path[-1]
        for v in untried:
            w = pair_right.get(v)
            if w is None or dist[w] == dist[u] + 1:
                taken.append(v)
                if w is None:
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
