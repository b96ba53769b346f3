"""Exact global edge-connectivity from a growing source (Matula 1987).

Let D = d1 < d2 < ... be the greedy dominating set (d1 = 0) and delta the
minimum degree. lambda = min(delta, min over j of flow(D<j, dj)), the flows
from the set {d1 ... dj-1} to dj, each stopped at the best value so far. No
flow is below lambda: a cut between a set and a vertex is a global cut. If
lambda < delta, each side of a minimum cut has more than delta vertices,
more than its cut edges (a side of k <= delta vertices has at least
k(delta - k + 1) >= delta cut edges), so one has no neighbour across, and
the vertex of D dominating it lies there too: both sides hold a vertex of D,
and the first dj across the cut from d1 has flow(D<j, dj) <= lambda. Each
such flow searches backwards from dj to the first source vertex it meets;
every vertex is next to D, so the searches stay local.

The cut side comes from the smallest sink t with flow(0, t) = lambda: the
vertices the last, failed search of that flow reaches from vertex 0, the
smallest source side of a minimum 0-t cut. When lambda = deg(0) no flow is
run: flow(0, 1) = deg(0) saturates every edge at 0, so that sink is 1 and
the side is {0}. _set_flow is the one flow routine, for the sweep and the
side alike: Edmonds-Karp, neighbours in ascending order; carried[v] holds
the neighbours w with a unit on v -> w, that arc is usable iff w is not in
it, and a push against a unit cancels it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SelfCheckFailed, TooSmall
from .graph import Graph, VertexSet, edges_between

__all__ = ["CutCertificate", "edge_connectivity"]


@dataclass(frozen=True)
class CutCertificate:
    """A proper nonempty vertex set whose boundary attains the reported cut size."""

    cut_side: VertexSet
    cut_size: int


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


def _dominating_set(adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """Greedy dominating set: each vertex, in ascending order, that no vertex
    taken before it is adjacent to."""
    dominated = [False] * len(adj)
    taken = []
    for v, nbrs in enumerate(adj):
        if not dominated[v]:
            taken.append(v)
            dominated[v] = True
            for w in nbrs:
                dominated[w] = True
    return taken


def edge_connectivity(g: Graph) -> tuple[int, CutCertificate]:
    """Exact edge-connectivity with a witnessing cut: the side of the
    smallest sink t attaining it that flow(0, t)'s failed search reaches."""
    if g.n < 2:
        raise TooSmall(f"edge connectivity needs at least 2 vertices, got {g.n}")
    adj = g.adjacency
    best = min(g.degrees)
    source = {0}  # d1 = 0: nothing precedes it to dominate it
    for t in _dominating_set(adj)[1:]:
        best = _set_flow(adj, source, t, best)[0]
        source.add(t)
    if best == len(adj[0]):
        side = VertexSet((0,))  # {0} is a minimum 0-1 cut, and the smallest
    else:
        # no flow from vertex 0 is below best, and the first sink's to end at
        # it gives the side: run as the t-0 flow, its failed search from 0
        # reaches the smallest 0-side of a minimum 0-t cut, the same for
        # every maximum flow
        sides = (_set_flow(adj, {t}, 0, best + 1)[1] for t in range(1, g.n))
        side = next(reached for reached in sides if reached is not None)
    cert = CutCertificate(side, best)
    # certificate self-consistency is cheap; keep it as a hard guarantee
    crossing = edges_between(g, side, VertexSet.of(set(range(g.n)) - side._as_set))
    if crossing != best:
        raise SelfCheckFailed(f"cut side has {crossing} boundary edges, max-flow found {best}")
    return best, cert
