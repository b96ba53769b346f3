"""The graph builder and the gadget builder as they stood before each was
made to build its structures once: the references that ``test_graph.py`` and
``test_solver.py`` compare ``paritylab.build_graph`` and
``paritylab.build_parity_gadget`` with.

``build_graph`` keeps a ``seen`` set of canonical pairs and sorts every
adjacency list on its own; ``build_parity_gadget`` numbers each edge's outer
nodes by scanning per-vertex ``incident`` lists. Kept verbatim, but for
the class they raise, now ``ParityLabError`` with the same message, as the
library raises; do not optimise.
"""
from __future__ import annotations

from typing import Iterable

from paritylab.errors import ParityLabError
from paritylab.graph import Edge, Graph
from paritylab.lovasz import ParitySpec
from paritylab.solver import GadgetMap, normalized_upper


def build_graph(n: int, edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph."""
    if n < 0:
        raise ParityLabError(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    canonical: list[Edge] = []
    for u, v in edge_pairs:
        if u == v:
            raise ParityLabError(f"loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParityLabError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ParityLabError(f"edge ({u},{v}) given twice")
        seen.add((u, v))
        canonical.append((u, v))
    canonical.sort()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canonical:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(canonical), tuple(tuple(sorted(a)) for a in adj))


def build_parity_gadget(g: Graph, spec: ParitySpec) -> GadgetMap:
    """Build the matching gadget H; node numbering is deterministic (vertices
    ascending, outer nodes before core nodes, incident edges ascending)."""
    n = g.n
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    outer: list[tuple[int, ...]] = []
    core: list[tuple[int, ...]] = []
    slack: list[tuple[tuple[int, int], ...]] = []
    next_id = 0
    for v in range(n):
        d = g.degree(v)
        gv = spec.g[v]
        if gv > d:
            raise ParityLabError(f"g({v}) = {gv} exceeds degree {d}")
        outer.append(tuple(range(next_id, next_id + d)))
        next_id += d
        core.append(tuple(range(next_id, next_id + d - gv)))
        next_id += d - gv
        pairs = (normalized_upper(g, spec, v) - gv) // 2
        slack.append(tuple((core[v][2 * i], core[v][2 * i + 1]) for i in range(pairs)))
    h_edges: list[tuple[int, int]] = []
    for v in range(n):
        for o in outer[v]:
            for c in core[v]:
                h_edges.append((o, c))
        h_edges.extend(slack[v])
    edge_nodes = []
    for idx, (u, v) in enumerate(g.edges):
        ou = outer[u][incident[u].index(idx)]
        ov = outer[v][incident[v].index(idx)]
        h_edges.append((ou, ov))
        edge_nodes.append((ou, ov))
    return GadgetMap(
        build_graph(next_id, h_edges).adjacency,
        tuple(edge_nodes),
        tuple(outer),
        tuple(core),
    )
