"""Simple undirected graphs on dense integer vertex ids 0..n-1.

Graphs are immutable after construction; every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    DuplicateEdge,
    GraphSyntaxError,
    LoopEdge,
    SetsNotDisjoint,
    VertexOutOfRange,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Loop-free, multi-edge-free undirected graph.

    ``edges`` is canonical: endpoints sorted within each pair, pairs sorted
    lexicographically. ``adjacency[v]`` lists neighbors of v in ascending order.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    @property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free collection of vertex ids."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "VertexSet":
        return cls(tuple(sorted(set(ids))))

    @classmethod
    def empty(cls) -> "VertexSet":
        return cls(())

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self._as_set

    @property
    def _as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def check_bounds(self, n: int) -> None:
        for v in self.members:
            if not 0 <= v < n:
                raise VertexOutOfRange(f"vertex {v} not in 0..{n - 1}")


@dataclass(frozen=True)
class Component:
    """A connected component as an induced subgraph plus the map back to the
    original vertex ids: local vertex i is original_ids[i]."""

    graph: Graph
    original_ids: tuple[int, ...]

    @property
    def vertex_set(self) -> VertexSet:
        return VertexSet(self.original_ids)


def build_graph(n: int, edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph."""
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    canonical: list[Edge] = []
    for u, v in edge_pairs:
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u},{v}) given twice")
        seen.add((u, v))
        canonical.append((u, v))
    canonical.sort()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canonical:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(canonical), tuple(tuple(sorted(a)) for a in adj))


def require_disjoint(s: VertexSet, t: VertexSet) -> None:
    overlap = s._as_set & t._as_set
    if overlap:
        raise SetsNotDisjoint(f"sets share vertices {sorted(overlap)}")


def edges_between(g: Graph, s: VertexSet, t: VertexSet) -> int:
    """Number of edges with one endpoint in s and the other in t (disjoint sets)."""
    s.check_bounds(g.n)
    t.check_bounds(g.n)
    require_disjoint(s, t)
    t_set = t._as_set
    return sum(1 for u in s for w in g.adjacency[u] if w in t_set)


def components_after_removal(g: Graph, removed: VertexSet) -> list[Component]:
    """Connected components of g minus the removed vertices.

    Components are ordered by ascending minimum original id; within a component
    vertices are relabeled in ascending original-id order.
    """
    removed.check_bounds(g.n)
    gone = removed._as_set
    seen = [False] * g.n
    out: list[Component] = []
    for start in range(g.n):
        if seen[start] or start in gone:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in g.adjacency[v]:
                if not seen[w] and w not in gone:
                    seen[w] = True
                    stack.append(w)
        members.sort()
        index = {old: new for new, old in enumerate(members)}
        sub_edges = [
            (index[u], index[v])
            for u, v in g.edges
            if u in index and v in index
        ]
        out.append(Component(build_graph(len(members), sub_edges), tuple(members)))
    return out


def parse_graph(text: str) -> Graph:
    """Parse the ``n m`` / edge-lines text format; '#' starts a comment."""
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphSyntaxError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphSyntaxError(f"line {lineno}: expected two integers, got {line!r}")
        if n is None:
            n, m = a, b
            if n < 0 or m < 0:
                raise GraphSyntaxError(f"line {lineno}: negative header values")
            continue
        if not a < b:
            raise GraphSyntaxError(f"line {lineno}: edge endpoints must satisfy u < v")
        if not (0 <= a < n) or not (0 <= b < n):
            raise VertexOutOfRange(
                f"line {lineno}: edge ({a},{b}) has endpoint outside 0..{n - 1}"
            )
        if (a, b) in seen:
            raise DuplicateEdge(f"line {lineno}: edge ({a},{b}) given twice")
        seen.add((a, b))
        edges.append((a, b))
    if n is None:
        raise GraphSyntaxError("empty input: missing 'n m' header line")
    if len(edges) != m:
        raise GraphSyntaxError(f"header promised {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def emit_graph(g: Graph) -> str:
    """Canonical text form: header then edges in lexicographic order."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
