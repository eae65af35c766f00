"""Integer max-flow (Dinic) with deterministic edge order and min-cut access."""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]
        # BFS levels of the last phase of max_flow; after it returns, the
        # nodes with level >= 0 are the source side of a minimum cut
        self.level: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Returns the edge id: edges get 0, 2, 4, ... in the order they are
        added, and the reverse edge is id ^ 1."""
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(eid + 1)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            self.level = level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for eid in head[u]:
                    v = to[eid]
                    if cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            # blocking flow: depth-first along level-increasing edges on an
            # explicit stack of edge ids, with current-arc pointers `it`
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                    flow += pushed
                    path, u = [], s
                elif it[u] < len(head[u]):
                    eid = head[u][it[u]]
                    if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                        path.append(eid)
                        u = to[eid]
                    else:
                        it[u] += 1
                elif path:
                    # dead end: retreat and move the tail's arc past this edge
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]
