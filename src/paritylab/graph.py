"""Simple undirected graphs on dense integer vertex ids 0..n-1.

Graphs are immutable after construction; every function here is pure.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ParityLabError

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
        # the guard matters: adjacency[-1] is vertex n-1's list
        if not 0 <= u < self.n:
            return False
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v


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

    @cached_property
    def _as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def check_bounds(self, n: int) -> None:
        for v in self.members:
            if not 0 <= v < n:
                raise ParityLabError(f"vertex {v} not in 0..{n - 1}")


def build_graph(n: int, edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Loops and out-of-range endpoints are reported in input order, duplicates
    after the one sort: a repeated pair meets its twin as the last neighbor
    appended. Filling adjacency from the sorted pairs leaves every list
    ascending, since v gets its smaller neighbors from the pairs (u, v) in
    ascending u before its larger ones from the pairs (v, w) in ascending w.
    """
    if n < 0:
        raise ParityLabError(f"vertex count must be nonnegative, got {n}")
    canonical: list[Edge] = []
    for u, v in edge_pairs:
        if u == v:
            raise ParityLabError(f"loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParityLabError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        canonical.append((u, v) if u < v else (v, u))
    return _from_canonical(n, canonical)


def _from_canonical(n: int, canonical: list[Edge]) -> Graph:
    """The Graph on in-range pairs u < v; sorts ``canonical`` in place."""
    canonical.sort()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canonical:
        nbrs = adj[u]
        if nbrs and nbrs[-1] == v:
            raise ParityLabError(f"edge ({u},{v}) given twice")
        nbrs.append(v)
        adj[v].append(u)
    return Graph(n, tuple(canonical), tuple(map(tuple, adj)))


def require_disjoint(s: VertexSet, t: VertexSet) -> None:
    overlap = s._as_set & t._as_set
    if overlap:
        raise ParityLabError(f"sets share vertices {sorted(overlap)}")


def edges_between(g: Graph, s: VertexSet, t: VertexSet) -> int:
    """Number of edges with one endpoint in s and the other in t (disjoint sets)."""
    s.check_bounds(g.n)
    t.check_bounds(g.n)
    require_disjoint(s, t)
    return _edges_into(g, s, t)


def _edges_into(g: Graph, vs: VertexSet, into: VertexSet) -> int:
    """e(vs, into) unchecked: callers check both sets once, on entry."""
    into_set = into._as_set
    return sum(1 for u in vs for w in g.adjacency[u] if w in into_set)


def components_after_removal(g: Graph, removed: VertexSet) -> list[VertexSet]:
    """Vertex sets of the connected components of g minus the removed
    vertices, ordered by ascending minimum vertex id."""
    removed.check_bounds(g.n)
    seen = [False] * g.n
    for v in removed:
        seen[v] = True
    out: list[VertexSet] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        members.sort()
        out.append(VertexSet(tuple(members)))
    return out


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """The line syntax of every text format: yields ``(lineno, line)``, 1-based
    over the whole text, with '#' comments cut and blank lines skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def int_pair(lineno: int, line: str) -> tuple[int, int]:
    """The two integers of a line of a pair format (graph, spec, factor)."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ParityLabError(f"line {lineno}: expected two integers, got {line!r}") from None
    return a, b


def parse_graph(text: str) -> Graph:
    """Parse the ``n m`` / edge-lines text format. Each edge line is checked
    in input order (u < v, the range, a repeat), so the first bad line is the
    one reported."""
    lines = text_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParityLabError("empty input: missing 'n m' header line")
    n, m = int_pair(*header)
    if n < 0 or m < 0:
        raise ParityLabError(f"line {header[0]}: negative header values")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines:
        a, b = int_pair(lineno, line)
        if not a < b:
            raise ParityLabError(f"line {lineno}: edge endpoints must satisfy u < v")
        if not (0 <= a < n) or not (0 <= b < n):
            raise ParityLabError(
                f"line {lineno}: edge ({a},{b}) has endpoint outside 0..{n - 1}"
            )
        if (a, b) in seen:
            raise ParityLabError(f"line {lineno}: edge ({a},{b}) given twice")
        seen.add((a, b))
        edges.append((a, b))
    if len(edges) != m:
        raise ParityLabError(f"header promised {m} edges, found {len(edges)}")
    return _from_canonical(n, edges)


def emit_graph(g: Graph) -> str:
    """Canonical text form: header then edges in lexicographic order."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
