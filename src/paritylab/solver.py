"""Constructive parity-factor solver via a Tutte-style gadget reduction to
perfect matching, plus a brute-force oracle and an independent verifier.

Per vertex v with degree d, lower bound g and normalized upper bound f':
one outer node per incident edge, d - g core nodes, a complete bipartite
outer x core block, and (f' - g)/2 disjoint "slack" core pairs. Each original
edge uv becomes one edge between its two designated outer nodes, and uv is in
the factor exactly when that outer-outer edge is matched. A perfect matching
leaves g + 2s outer nodes matched across (s = internally matched slack pairs),
so recovered degrees range over {g, g+2, ..., f'}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    GraphSyntaxError,
    LowerBoundExceedsDegree,
    SelfCheckFailed,
    TooManyEdges,
)
from .graph import Graph, build_graph
from .lovasz import ParitySpec, _check_spec
from .matching import max_matching

DEFAULT_EDGE_CAP = 22


@dataclass(frozen=True)
class Factor:
    """Candidate parity factor: a subset of the host graph's edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class GadgetMap:
    h: Graph
    # per original edge index: (outer node at smaller endpoint, at larger endpoint)
    edge_nodes: tuple[tuple[int, int], ...]
    outer: tuple[tuple[int, ...], ...]
    core: tuple[tuple[int, ...], ...]
    slack_pairs: tuple[tuple[tuple[int, int], ...], ...]


def normalized_upper(g: Graph, spec: ParitySpec, v: int) -> int:
    """Largest achievable degree at v: clamp f(v) to d(v), preserving parity."""
    gv = spec.g[v]
    return gv + 2 * ((min(spec.f[v], g.degree(v)) - gv) // 2)


def build_parity_gadget(g: Graph, spec: ParitySpec) -> GadgetMap:
    """Build the matching gadget H; node numbering is deterministic (vertices
    ascending, outer nodes before core nodes, incident edges ascending)."""
    n = g.n
    outer: list[tuple[int, ...]] = []
    core: list[tuple[int, ...]] = []
    slack: list[tuple[tuple[int, int], ...]] = []
    next_id = 0
    for v in range(n):
        d = g.degree(v)
        gv = spec.g[v]
        if gv > d:
            raise LowerBoundExceedsDegree(f"g({v}) = {gv} exceeds degree {d}")
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
    # the k-th edge at v, in edge order, takes v's k-th outer node
    used = [0] * n
    edge_nodes = []
    for u, v in g.edges:
        ou = outer[u][used[u]]
        ov = outer[v][used[v]]
        used[u] += 1
        used[v] += 1
        h_edges.append((ou, ov))
        edge_nodes.append((ou, ov))
    return GadgetMap(
        build_graph(next_id, h_edges),
        tuple(edge_nodes),
        tuple(outer),
        tuple(core),
        tuple(slack),
    )


def find_parity_factor(g: Graph, spec: ParitySpec) -> Optional[Factor]:
    """Polynomial-time construction; None means no parity factor exists.

    The recovered factor is checked by ``verify_factor`` before it is
    returned; ``SelfCheckFailed`` is raised if the check rejects it."""
    _check_spec(g, spec)
    for v in range(g.n):
        if spec.g[v] > g.degree(v):
            return None
    gm = build_parity_gadget(g, spec)
    matching = max_matching(gm.h)
    if 2 * len(matching) != gm.h.n:
        return None
    match = matching.partner_array(gm.h.n)
    chosen = [
        g.edges[idx]
        for idx, (a, b) in enumerate(gm.edge_nodes)
        if match[a] == b
    ]
    factor = Factor(g.n, tuple(sorted(chosen)))
    ok, reason = verify_factor(g, spec, factor)
    if not ok:
        raise SelfCheckFailed(f"recovered factor fails verification: {reason}")
    return factor


def brute_force_factor(
    g: Graph, spec: ParitySpec, edge_cap: int = DEFAULT_EDGE_CAP
) -> Optional[Factor]:
    """Direct-semantics oracle: sweep all 2^|E| edge subsets in ascending
    bitmask order (bit i = i-th canonical edge) and return the first factor."""
    m = g.edge_count
    if m > edge_cap:
        raise TooManyEdges(f"|E| = {m} exceeds brute-force cap {edge_cap}")
    _check_spec(g, spec)
    # parity shortcut: sum of factor degrees is even, so f(V) odd kills all subsets
    if spec.f_total % 2 == 1:
        return None
    n = g.n
    for mask in range(1 << m):
        deg = [0] * n
        mm = mask
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            u, v = g.edges[i]
            deg[u] += 1
            deg[v] += 1
        ok = True
        for v in range(n):
            dv = deg[v]
            if dv < spec.g[v] or dv > spec.f[v] or (dv - spec.f[v]) % 2 != 0:
                ok = False
                break
        if ok:
            edges = tuple(g.edges[i] for i in range(m) if mask >> i & 1)
            return Factor(n, edges)
    return None


def verify_factor(g: Graph, spec: ParitySpec, factor: Factor) -> tuple[bool, str]:
    """Independent check of edge membership, degree bounds, and parity."""
    _check_spec(g, spec)
    if factor.n != g.n:
        return False, f"factor is on {factor.n} vertices, graph has {g.n}"
    edge_set = set(g.edges)
    for u, v in factor.edges:
        if (min(u, v), max(u, v)) not in edge_set:
            return False, f"edge ({u},{v}) not in the graph"
    if len(set(factor.edges)) != len(factor.edges):
        return False, "repeated edge in factor"
    deg = factor.degrees
    for v in range(g.n):
        if (deg[v] - spec.f[v]) % 2 != 0:
            return False, f"vertex {v}: degree {deg[v]} has wrong parity"
        if deg[v] < spec.g[v]:
            return False, f"vertex {v}: degree {deg[v]} below lower bound {spec.g[v]}"
        if deg[v] > spec.f[v]:
            return False, f"vertex {v}: degree {deg[v]} above upper bound {spec.f[v]}"
    return True, "ok"


def serialize_factor(factor: Factor) -> str:
    lines = [f"factor {len(factor.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(factor.edges))
    return "\n".join(lines) + "\n"


def parse_factor(text: str, n: int) -> Factor:
    lines = [
        line.split("#", 1)[0].strip()
        for line in text.splitlines()
    ]
    lines = [line for line in lines if line]
    if not lines or not lines[0].startswith("factor"):
        raise GraphSyntaxError("factor block must start with 'factor <k>'")
    try:
        k = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GraphSyntaxError("factor block must start with 'factor <k>'")
    if len(lines) - 1 != k:
        raise GraphSyntaxError(f"factor header promised {k} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        u, v = (int(x) for x in line.split())
        edges.append((min(u, v), max(u, v)))
    return Factor(n, tuple(sorted(edges)))
