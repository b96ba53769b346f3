"""Edge-connectivity as it stood before the max-flow was made to read the
graph's own adjacency: the reference that ``test_connectivity.py`` compares
``paritylab.edge_connectivity`` with.

``_FlowNet`` copies the graph into an arc-array residual network, every
``maxflow`` resets all capacities, every sink's flow runs to completion, and
the witness reruns the best sink's flow and then searches the residual network
a second time for the cut side. Kept verbatim, but for its return value, now
``(lambda, side)`` as ``paritylab.edge_connectivity`` returns, and for the
class of its order error, now ``ParityLabError``; do not optimise.

``_set_flow`` is the growing-source flow as it stood before its search state
became per-call lists and its short paths were seeded: every unit is found
by a breadth-first search, with the state in per-search and per-flow dicts.
``test_connectivity.py`` compares ``paritylab.connectivity._set_flow`` with
it. Kept verbatim; do not optimise.
"""
from __future__ import annotations

from collections import deque

from paritylab.errors import ParityLabError, SelfCheckFailed
from paritylab.graph import Graph, VertexSet, edges_between


def _set_flow(
    adj: tuple[tuple[int, ...], ...], source: set[int], t: int, cap: int
) -> tuple[int, VertexSet | None]:
    """Unit-capacity flow from the set ``source`` to ``t``, stopped at ``cap``.

    Each search runs backwards from t (the arc w -> v is usable iff v is not in
    carried[w]) and stops at the first source vertex. The state is in dicts,
    so a flow costs what its searches touch, not the size of the graph. Returns
    ``(flow, None)`` at ``cap``, else the flow and what its failed search reached.
    """
    carried: dict[int, set[int]] = {}
    flow = 0
    while flow < cap:
        parent = {t: t}
        queue = [t]
        start = -1
        for v in queue:  # the list grows as it is read: a breadth-first search
            for w in adj[v]:
                if w not in parent and v not in carried.get(w, ()):
                    parent[w] = v
                    if w in source:
                        start = w
                        break
                    queue.append(w)
            if start >= 0:
                break
        else:
            return flow, VertexSet.of(queue)
        w = start
        while w != t:
            v = parent[w]
            if w in carried.get(v, ()):
                carried[v].remove(w)
            else:
                carried.setdefault(w, set()).add(v)
            w = v
        flow += 1
    return flow, None


class _FlowNet:
    """Residual network for one undirected graph; capacities reset per run."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges:
            self._arc(u, v)
            self._arc(v, u)

    def _arc(self, u: int, v: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(1)

    def maxflow(self, s: int, t: int) -> int:
        for i in range(len(self.cap)):
            self.cap[i] = 1
        flow = 0
        while self._augment(s, t):
            flow += 1
        return flow

    def _augment(self, s: int, t: int) -> bool:
        prev_arc = [-1] * self.n
        prev_arc[s] = -2
        q = deque([s])
        while q:
            v = q.popleft()
            for a in self.head[v]:
                w = self.to[a]
                if self.cap[a] > 0 and prev_arc[w] == -1:
                    prev_arc[w] = a
                    if w == t:
                        while w != s:
                            a = prev_arc[w]
                            self.cap[a] -= 1
                            self.cap[a ^ 1] += 1
                            w = self.to[a ^ 1]
                        return True
                    q.append(w)
        return False

    def reachable(self, s: int) -> list[int]:
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            v = q.popleft()
            for a in self.head[v]:
                w = self.to[a]
                if self.cap[a] > 0 and not seen[w]:
                    seen[w] = True
                    q.append(w)
        return [v for v in range(self.n) if seen[v]]


def edge_connectivity(g: Graph) -> tuple[int, VertexSet]:
    """Exact edge-connectivity with a witnessing cut.

    Deterministic: among sinks attaining the minimum, the smallest vertex id is
    used for the witness, and the witness side is the residual-reachable set of
    vertex 0.
    """
    if g.n < 2:
        raise ParityLabError(f"edge connectivity needs at least 2 vertices, got {g.n}")
    net = _FlowNet(g)
    best = None
    best_t = None
    for t in range(1, g.n):
        f = net.maxflow(0, t)
        if best is None or f < best:
            best, best_t = f, t
            if best == 0:
                break
    assert best is not None and best_t is not None
    net.maxflow(0, best_t)
    side = VertexSet.of(net.reachable(0))
    # certificate self-consistency is cheap; keep it as a hard guarantee
    crossing = edges_between(g, side, VertexSet.of(set(range(g.n)) - side._as_set))
    if crossing != best:
        raise SelfCheckFailed(f"cut side has {crossing} boundary edges, max-flow found {best}")
    return best, side
