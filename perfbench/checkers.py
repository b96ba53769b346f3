"""The benchmark's own output checkers.

They import nothing from paritylab: every check works on a vertex count, a
list of ``(u, v)`` edges and per-vertex bounds, so a fault in the program
cannot hide by agreeing with its own verifier. ``networkx`` gives a third
opinion on edge-connectivity and matching feasibility where it is importable.
"""
from __future__ import annotations

from collections import deque


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def check_factor(n, edges, factor_edges, g, f) -> None:
    """Raise unless ``factor_edges`` is a (g,f)-parity factor of the graph:
    edges of G, none repeated, g(v) <= d_F(v) <= f(v) and d_F(v) = f(v) mod 2."""
    if len(g) != n or len(f) != n:
        raise CheckFailed(f"spec covers {len(g)}/{len(f)} vertices, graph has {n}")
    edge_set = {_canon(u, v) for u, v in edges}
    seen = set()
    deg = [0] * n
    for u, v in factor_edges:
        e = _canon(u, v)
        if e not in edge_set:
            raise CheckFailed(f"factor edge {e} is not an edge of the graph")
        if e in seen:
            raise CheckFailed(f"factor repeats edge {e}")
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    for v in range(n):
        if not g[v] <= deg[v] <= f[v]:
            raise CheckFailed(f"vertex {v}: factor degree {deg[v]} outside [{g[v]}, {f[v]}]")
        if (deg[v] - f[v]) % 2:
            raise CheckFailed(f"vertex {v}: factor degree {deg[v]} has the wrong parity")


def deficiency(n, edges, g, f, s, t) -> tuple[int, int]:
    """(delta, tau) of the pair (S, T), with tau counted by a BFS over G-(S+T).

    delta = f(S) + sum_{x in T} (d(x) - g(x)) - e(S,T) - tau, where tau counts
    the components C of G-(S+T) with e(C,T) + f(C) odd.
    """
    s, t = set(s), set(t)
    if s & t:
        raise CheckFailed(f"S and T share vertices {sorted(s & t)}")
    if any(not 0 <= v < n for v in s | t):
        raise CheckFailed("S or T names a vertex outside the graph")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    removed = s | t
    seen = [False] * n
    tau = 0
    for start in range(n):
        if seen[start] or start in removed:
            continue
        seen[start] = True
        queue = deque([start])
        e_ct = f_c = 0
        while queue:
            v = queue.popleft()
            f_c += f[v]
            for w in adj[v]:
                if w in t:
                    e_ct += 1
                elif w not in removed and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        tau += (e_ct + f_c) % 2
    e_st = sum(1 for v in s for w in adj[v] if w in t)
    delta = (
        sum(f[v] for v in s)
        + sum(len(adj[v]) - g[v] for v in t)
        - e_st
        - tau
    )
    return delta, tau


def check_witness(n, edges, g, f, s, t, delta, tau) -> None:
    """Raise unless (S, T) recomputes to the recorded delta and tau and delta < 0."""
    got = deficiency(n, edges, g, f, s, t)
    if got != (delta, tau):
        raise CheckFailed(f"witness records (delta, tau) = {(delta, tau)}, recomputes to {got}")
    if delta >= 0:
        raise CheckFailed(f"witness delta {delta} is not negative")


def boundary_size(edges, side) -> int:
    """Number of edges with exactly one endpoint in ``side``."""
    side = set(side)
    return sum(1 for u, v in edges if (u in side) != (v in side))


def check_cut(n, edges, side, size) -> None:
    """Raise unless ``side`` is a proper nonempty vertex set with ``size`` boundary edges."""
    side = set(side)
    if not side or len(side) >= n or any(not 0 <= v < n for v in side):
        raise CheckFailed("cut side is not a proper nonempty vertex set")
    got = boundary_size(edges, side)
    if got != size:
        raise CheckFailed(f"cut side has {got} boundary edges, reported {size}")


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The ``n m`` header and edge lines of the graph text format; '#' comments."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            rows.append((int(line[0]), int(line[1])))
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise CheckFailed(f"graph text promises {m} edges, has {len(edges)}")
    return n, edges


def parse_witness_text(text: str) -> tuple[list[int], list[int], int, int]:
    """S, T, delta and tau from an ``S:``/``T:``/``delta:``/``tau:`` block."""
    fields = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep:
            fields[key.strip()] = rest.split()
    try:
        return (
            [int(x) for x in fields["S"]],
            [int(x) for x in fields["T"]],
            int(fields["delta"][0]),
            int(fields["tau"][0]),
        )
    except (KeyError, IndexError, ValueError):
        raise CheckFailed(f"not a witness block: {text!r}") from None


def _networkx_graph(n, edges):
    try:
        import networkx as nx
    except ImportError:
        return None
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def nx_edge_connectivity(n, edges):
    """Edge-connectivity by networkx, or None where networkx is not importable."""
    graph = _networkx_graph(n, edges)
    if graph is None:
        return None
    import networkx as nx

    return nx.edge_connectivity(graph)


def nx_has_perfect_matching(n, edges):
    """Perfect-matching feasibility by networkx, or None where it is not importable."""
    graph = _networkx_graph(n, edges)
    if graph is None:
        return None
    import networkx as nx

    return 2 * len(nx.max_weight_matching(graph, maxcardinality=True)) == n
