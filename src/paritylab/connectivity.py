"""Exact global edge-connectivity via unit-capacity max-flow.

lambda(G) = min over t != 0 of maxflow(0, t): any global minimum cut separates
vertex 0 from some other vertex. Each flow is Edmonds-Karp over
``g.adjacency``: a breadth-first search for a shortest augmenting path,
neighbours in ascending order. The residual state is one set per vertex v of
the neighbours w that already carry a unit v -> w; the arc v -> w is usable iff
w is not in that set, and a push against a carried unit cancels it. A flow
stops at the best value found so far; a sink that ends below it hands back the
vertices its last, failed search reached as the cut side.

Sink 1 runs first. If its flow equals the minimum degree, only the sinks of a
greedy dominating set D are checked (Matula 1987): a cut with fewer edges than
the minimum degree has a vertex on each side whose closed neighbourhood lies
on that side, so D has a vertex across it from vertex 0. Otherwise, or if
some sink of D falls short, every sink from 2 up is swept. On a random
4-regular graph with 2000 vertices this checks about a third of the sinks.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SelfCheckFailed, TooSmall
from .graph import Graph, VertexSet, edges_between

__all__ = ["CutCertificate", "edge_connectivity", "is_k_edge_connected"]


@dataclass(frozen=True)
class CutCertificate:
    """A proper nonempty vertex set whose boundary attains the reported cut size."""

    cut_side: VertexSet
    cut_size: int


def _max_flow(
    adj: tuple[tuple[int, ...], ...], s: int, t: int, cap_at: int
) -> tuple[int, VertexSet | None]:
    """Unit-capacity s-t max-flow, stopped once the flow reaches ``cap_at``.

    Returns ``(flow, None)`` if it stopped at ``cap_at``. Otherwise the flow is
    maximum and below ``cap_at``, and the second item is the set of vertices
    the last, failed augmenting search reached: the source side of a minimum
    s-t cut, and the smallest one, so it is the same for every maximum flow.
    """
    carried: list[set[int]] = [set() for _ in adj]
    flow = 0
    while flow < cap_at:
        parent = [-1] * len(adj)
        parent[s] = s
        queue = [s]
        for v in queue:  # the list grows as it is read: a breadth-first search
            used = carried[v]
            for w in adj[v]:
                if parent[w] < 0 and w not in used:
                    parent[w] = v
                    queue.append(w)
            if parent[t] >= 0:
                break
        else:
            return flow, VertexSet.of(queue)
        w = t
        while w != s:
            v = parent[w]
            if v in carried[w]:
                carried[w].remove(v)
            else:
                carried[v].add(w)
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
    """Exact edge-connectivity with a witnessing cut.

    Sinks are tried in ascending order, and each flow stops as soon as it
    reaches the smallest value found so far, since it cannot improve on it.
    A sink whose flow ends below that value is the new best. Its last, failed
    augmenting search gives the cut side: the vertices residual-reachable from
    vertex 0. Deterministic: among sinks attaining the minimum, the smallest
    vertex id gives the witness.

    When sink 1's flow equals the minimum degree, no sink can beat it unless
    one in the dominating set does, so only those are tried; sink 1 is then
    the smallest sink attaining the minimum, and the answer is the same.
    """
    if g.n < 2:
        raise TooSmall(f"edge connectivity needs at least 2 vertices, got {g.n}")
    adj = g.adjacency
    # no flow from vertex 0 exceeds its degree, at most n - 1, so the cap n never binds
    best, side = _max_flow(adj, 0, 1, g.n)
    if best != min(g.degrees) or any(
        _max_flow(adj, 0, t, best)[0] < best for t in _dominating_set(adj) if t > 1
    ):
        for t in range(2, g.n):
            if best == 0:
                break
            f, reached = _max_flow(adj, 0, t, best)
            if f < best:
                best, side = f, reached
    cert = CutCertificate(side, best)
    # certificate self-consistency is cheap; keep it as a hard guarantee
    crossing = edges_between(g, side, VertexSet.of(set(range(g.n)) - side._as_set))
    if crossing != best:
        raise SelfCheckFailed(f"cut side has {crossing} boundary edges, max-flow found {best}")
    return best, cert


def is_k_edge_connected(g: Graph, k: int) -> bool:
    if k <= 0:
        return True
    return edge_connectivity(g)[0] >= k
