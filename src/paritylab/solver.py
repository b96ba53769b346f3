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
from functools import cached_property
from typing import Optional

from .errors import CapExceeded, ParityLabError, SelfCheckFailed
from .graph import Graph, VertexSet, int_pair, text_lines
from .lovasz import DeficiencyWitness, ParitySpec, _check_spec, deficiency
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

    @cached_property
    def degree_range(self) -> tuple[int, int]:
        """The least and greatest degree, computed once per factor."""
        deg = self.degrees
        return min(deg), max(deg)


@dataclass(frozen=True)
class GadgetMap:
    """The matching gadget H of a graph and spec, and where each vertex's
    nodes sit in it. The solver and the matcher read only ``adjacency``;
    ``h``, the ``Graph`` with H's edge tuple, is built on first access."""

    # H's adjacency lists, each ascending
    adjacency: tuple[tuple[int, ...], ...]
    # per original edge index: (outer node at smaller endpoint, at larger endpoint)
    edge_nodes: tuple[tuple[int, int], ...]
    outer: tuple[tuple[int, ...], ...]
    core: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def h(self) -> Graph:
        adj = self.adjacency
        edges = tuple((a, b) for a, nbrs in enumerate(adj) for b in nbrs if a < b)
        return Graph(len(adj), edges, adj)


def normalized_upper(g: Graph, spec: ParitySpec, v: int) -> int:
    """Largest achievable degree at v: clamp f(v) to d(v), preserving parity."""
    gv = spec.g[v]
    return gv + 2 * ((min(spec.f[v], g.degree(v)) - gv) // 2)


def build_parity_gadget(g: Graph, spec: ParitySpec) -> GadgetMap:
    """Build the matching gadget H; node numbering is deterministic (vertices
    ascending, outer nodes before core nodes, incident edges ascending).
    Adjacency lists are ascending by construction, as the matcher's determinism
    requires: a core node sees its outer nodes, then any slack partner; an outer
    node sees its core after its edge partner if that is smaller, else before."""
    _check_spec(g, spec)
    outer: list[tuple[int, ...]] = []
    core: list[tuple[int, ...]] = []
    paired: list[int] = []  # per vertex, f'(v) - g(v): the core nodes in slack pairs
    nxt: list[int] = []  # per vertex, its next outer node not yet given an edge
    next_id = 0
    for v, (nbrs, gv) in enumerate(zip(g.adjacency, spec.g)):
        d = len(nbrs)
        if gv > d:
            raise ParityLabError(f"g({v}) = {gv} exceeds degree {d}")
        nxt.append(next_id)
        outer.append(tuple(range(next_id, next_id + d)))
        next_id += d
        core.append(tuple(range(next_id, next_id + d - gv)))
        next_id += d - gv
        paired.append(normalized_upper(g, spec, v) - gv)
    adj: list[tuple[int, ...]] = [()] * next_id
    for outs, cores, k in zip(outer, core, paired):
        for i, c in enumerate(cores):
            adj[c] = outs + (cores[i ^ 1],) if i < k else outs
    # the k-th edge at v, in edge order, takes v's k-th outer node
    edge_nodes = []
    for u, v in g.edges:
        ou = nxt[u]
        ov = nxt[v]
        nxt[u] = ou + 1
        nxt[v] = ov + 1
        adj[ou] = core[u] + (ov,)
        adj[ov] = (ou,) + core[v]
        edge_nodes.append((ou, ov))
    return GadgetMap(
        tuple(adj),
        tuple(edge_nodes),
        tuple(outer),
        tuple(core),
    )


def find_parity_factor(g: Graph, spec: ParitySpec) -> Optional[Factor]:
    """Polynomial-time construction; None means no parity factor exists.

    The recovered factor is checked by ``verify_factor`` before it is
    returned; ``SelfCheckFailed`` is raised if the check rejects it."""
    result = factor_or_witness(g, spec)
    return result if isinstance(result, Factor) else None


def factor_or_witness(g: Graph, spec: ParitySpec) -> Factor | DeficiencyWitness:
    """One gadget matching: the verified factor, else the deficiency witness
    read off the Tutte barrier A that the matcher returns as ``Matching.A``.
    A lower bound above a vertex's degree is certified with T = those
    vertices, without a gadget.

    A vertex with f(v) <= d(v) goes to S if it has outer nodes, all in A; any
    other vertex goes to T if all its core nodes are in A. When g <= d the
    pair attains delta = -def(H), def(H) = |H| - 2|M| the nodes a maximum
    matching M leaves exposed, the least delta of any pair (Lovász 1972,
    *The factorization of graphs II*, read through Tutte-Berge on H):
    - delta charges f(v) on S, H the clamped f'(v) (``normalized_upper``);
      the two differ exactly when f(v) > d(v);
    - there f' >= d - 1, so taking v's outer nodes out of a Tutte set X never
      lowers o(H - X) - |X|: the merged component's parity makes up for any
      odd component it absorbs;
    - for the projected pair, -delta(S,T) <= o(H - X) - |X| <= def(H).
    So a nonnegative delta is a ``SelfCheckFailed``."""
    _check_spec(g, spec)
    short = [v for v in range(g.n) if spec.g[v] > g.degree(v)]
    if short:
        # T = the vertices with g(v) > d(v): delta <= sum_T (d - g) < 0
        return deficiency(g, spec, VertexSet.empty(), VertexSet.of(short))
    gm = build_parity_gadget(g, spec)
    m = max_matching(gm)
    match = m.mate
    if -1 in match:
        barrier = set(m.A)
        s, t = [], []
        for v in range(g.n):
            if gm.outer[v] and spec.f[v] <= g.degree(v) and barrier.issuperset(gm.outer[v]):
                s.append(v)
            elif barrier.issuperset(gm.core[v]):
                t.append(v)
        witness = deficiency(g, spec, VertexSet.of(s), VertexSet.of(t))
        if witness.delta >= 0:
            raise SelfCheckFailed(f"barrier projection has delta {witness.delta} >= 0")
        return witness
    chosen = [
        g.edges[idx]
        for idx, (a, b) in enumerate(gm.edge_nodes)
        if match[a] == b
    ]
    factor = Factor(g.n, tuple(chosen))
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
        raise CapExceeded(f"|E| = {m} exceeds brute-force cap {edge_cap}")
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
    """Independent check of edge membership, degree bounds, and parity. The
    first failure is reported: the first edge not in the graph, else a
    repeated edge, else the least vertex whose degree breaks its parity, its
    lower bound or its upper bound, tested in that order."""
    _check_spec(g, spec)
    n = g.n
    if factor.n != n:
        return False, f"factor is on {factor.n} vertices, graph has {n}"
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    for u, v in factor.edges:
        if not g.has_edge(u, v):
            return False, f"edge ({u},{v}) not in the graph"
        seen.add((u, v) if u < v else (v, u))
        deg[u] += 1
        deg[v] += 1
    if len(seen) != len(factor.edges):
        return False, "repeated edge in factor"
    for v, (dv, gv, fv) in enumerate(zip(deg, spec.g, spec.f)):
        if (dv - fv) % 2 != 0:
            return False, f"vertex {v}: degree {dv} has wrong parity"
        if dv < gv:
            return False, f"vertex {v}: degree {dv} below lower bound {gv}"
        if dv > fv:
            return False, f"vertex {v}: degree {dv} above upper bound {fv}"
    return True, "ok"


def serialize_factor(factor: Factor) -> str:
    lines = [f"factor {len(factor.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(factor.edges))
    return "\n".join(lines) + "\n"


def parse_factor(text: str, n: int) -> Factor:
    lines = list(text_lines(text))
    try:
        word, count = lines[0][1].split()
        k = int(count)
        if word != "factor":
            raise ValueError(word)
    except (IndexError, ValueError):
        raise ParityLabError("factor block must start with 'factor <k>'") from None
    if len(lines) - 1 != k:
        raise ParityLabError(f"factor header promised {k} edges, found {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1:]:
        u, v = int_pair(lineno, line)
        edges.append((min(u, v), max(u, v)))
    return Factor(n, tuple(sorted(edges)))
