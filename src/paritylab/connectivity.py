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
such flow searches backwards from dj to the first source vertex it meets.
The seeded short paths (below) and a grown source set keep the later flows'
searches local. The early flows, with few sources, can search far before
they meet one: on random_regular(20000, 3, 1) the first 750 flows' searches
queue 259 vertices each, 79 % of all the vertices the flows' searches
queue; flows 750-3753 queue about 19 a search and the last half about 7.

The cut side comes from the smallest sink t with flow(0, t) = lambda: the
vertices the last, failed search of that flow reaches from vertex 0, the
smallest source side of a minimum 0-t cut. When lambda = deg(0) no flow is
run: flow(0, 1) = deg(0) saturates every edge at 0, so that sink is 1 and
the side is {0}, whose deg(0) edges are lambda by definition. Only a side
from the flows is checked against lambda (SelfCheckFailed).

_set_flow is the one flow routine, for the sweep and the side alike.
carried[v] holds the neighbours w with a unit on v -> w; that arc is usable
iff w is not in it, and a push against a unit cancels it. edge_connectivity
allocates the search state once per call, O(n) lists that every flow reads
(_Scratch): a search stamps what it reaches with its own epoch, so nothing
is reset between searches, and a flow makes a carried set only when a unit
first lands on its vertex and drops the sets it made when it ends. A flow
first seeds short paths: each neighbour w of t, in ascending order, takes
one unit, t <- w if w is a source, else t <- w <- s for the first source s
in adj[w]. The seeds are edge-disjoint, so they are a flow with no unit
against another: each uses its own edge wt, and the edge sw of a two-edge
path is not at t and has w as its one end outside the source, so no other
path's edge s'w' is sw. Breadth-first searches (Edmonds-Karp, neighbours in
ascending order) then find the rest.

Neither result depends on the order in which the units were found, seeded
or searched. A flow stopped at cap returns only cap. Else its last search
failed, so the flow is maximum, and its value is the minimum cut. That
search reaches R, the vertices with a residual path to t. Take any minimum
cut and X its side holding t: each of its edges carries a unit into X, so
no residual arc enters X, and R lies in X. R is such a side itself, since
no residual arc enters it. So R is the smallest t-side of a minimum cut,
the same for every maximum flow.
"""
from __future__ import annotations

from .errors import SelfCheckFailed, TooSmall
from .graph import Graph, VertexSet, edges_between

__all__ = ["edge_connectivity"]


_NO_UNITS: frozenset[int] = frozenset()  # carried[v] while v carries no unit


class _Scratch:
    """Search state for the flows of one ``edge_connectivity`` call, O(n) and
    allocated once: ``mark[v] == epoch`` iff the current search reached v,
    ``parent`` is its tree, and ``carried[v]`` the set of neighbours w with a
    unit on v -> w, made when the first unit lands on v."""

    __slots__ = ("mark", "parent", "carried", "epoch")

    def __init__(self, n: int):
        self.mark = [0] * n
        self.parent = [0] * n
        self.carried: list[set[int] | frozenset[int]] = [_NO_UNITS] * n
        self.epoch = 0


def _set_flow(
    adj: tuple[tuple[int, ...], ...], source: set[int], t: int, cap: int, scratch: _Scratch
) -> tuple[int, VertexSet | None]:
    """Unit-capacity flow from the set ``source`` to ``t``, stopped at ``cap``.

    First each neighbour of t takes a seeded short path, then each search runs
    backwards from t (the arc w -> v is usable iff v is not in carried[w]) and
    stops at the first source vertex. The flow leaves every carried set in
    ``scratch`` as it found it. Returns ``(flow, None)`` at ``cap``, else the
    flow and what its failed search reached.
    """
    mark, parent, carried = scratch.mark, scratch.parent, scratch.carried
    touched = []  # the vertices whose carried set this flow made
    flow = 0
    for w in adj[t]:
        if flow == cap:
            break
        if w in source:
            s, head = w, t  # the seed t <- w
        else:
            for s in adj[w]:
                if s in source:
                    break
            else:
                continue
            carried[w] = {t}  # w is no source and no other seed's w: no set yet
            touched.append(w)
            head = w  # the seed t <- w <- s
        if carried[s] is _NO_UNITS:
            carried[s] = set()
            touched.append(s)
        carried[s].add(head)  # s may carry two seeds: add, never replace
        flow += 1
    epoch = scratch.epoch
    reached = None
    while flow < cap:
        epoch += 1
        mark[t] = epoch
        queue = [t]
        push = queue.append
        start = -1
        for v in queue:  # the list grows as it is read: a breadth-first search
            for w in adj[v]:
                if mark[w] != epoch and v not in carried[w]:
                    mark[w] = epoch
                    parent[w] = v
                    if w in source:
                        start = w
                        break
                    push(w)
            if start >= 0:
                break
        else:
            reached = VertexSet.of(queue)
            break
        w = start
        while w != t:
            v = parent[w]
            if w in carried[v]:
                carried[v].remove(w)
            else:
                if carried[w] is _NO_UNITS:
                    carried[w] = set()
                    touched.append(w)
                carried[w].add(v)
            w = v
        flow += 1
    scratch.epoch = epoch
    for v in touched:
        carried[v] = _NO_UNITS
    return flow, reached


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


def edge_connectivity(g: Graph) -> tuple[int, VertexSet]:
    """Exact edge-connectivity lambda and a side of a minimum cut: the side
    of the smallest sink t attaining lambda that flow(0, t)'s failed search
    reaches."""
    if g.n < 2:
        raise TooSmall(f"edge connectivity needs at least 2 vertices, got {g.n}")
    adj = g.adjacency
    scratch = _Scratch(g.n)
    best = min(g.degrees)
    source = {0}  # d1 = 0: nothing precedes it to dominate it
    for t in _dominating_set(adj)[1:]:
        best = _set_flow(adj, source, t, best, scratch)[0]
        source.add(t)
    if best == len(adj[0]):
        # {0} is a minimum 0-1 cut, and the smallest; its deg(0) edges are best
        return best, VertexSet((0,))
    # no flow from vertex 0 is below best, and the first sink's to end at it
    # gives the side: run as the t-0 flow, its failed search from 0 reaches
    # the smallest 0-side of a minimum 0-t cut, the same for every maximum flow
    sides = (_set_flow(adj, {t}, 0, best + 1, scratch)[1] for t in range(1, g.n))
    side = next(reached for reached in sides if reached is not None)
    # the side's self-consistency is cheap; keep it as a hard guarantee
    crossing = edges_between(g, side, VertexSet.of(set(range(g.n)) - side._as_set))
    if crossing != best:
        raise SelfCheckFailed(f"cut side has {crossing} boundary edges, max-flow found {best}")
    return best, side
