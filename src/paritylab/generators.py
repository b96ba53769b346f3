"""Graph fixtures, random regular sampling, and the sharpness construction.

The extremal family: take r disjoint copies of the block J(r,m) (K_{r+1} minus
a matching of size m/2), add m hub vertices, and give each hub one edge into
every block at a distinct deficient block vertex. The result is r-regular with
edge-connectivity exactly m. ``sharpness_certificate`` is the one statement
of when it has no (a,b)-parity factor, and of the paper's witness.
"""
from __future__ import annotations

import random
from collections import defaultdict

from .errors import (
    BadOrder,
    DegreeTooLarge,
    ParamDomain,
    ParityViolation,
    RetriesExhausted,
)
from .graph import Graph, VertexSet, _from_canonical, build_graph
from .lovasz import DeficiencyWitness

DEFAULT_SAMPLING_RETRIES = 10000


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadOrder(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadOrder(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def petersen() -> Graph:
    """3-regular, 3-edge-connected, girth 5, order 10."""
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return build_graph(10, outer + spokes + inner)


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Seeded configuration-model sampling of a simple r-regular graph.

    Stub pairing with rejection of loops and multi-edges; leftover stubs are
    re-shuffled and re-paired rather than restarting from scratch, so dense
    degrees (r up to ~n^(1/3) and beyond) stay practical. Approximately
    uniform; any valid instance serves for theorem verification.
    """
    if r < 0 or n < 1:
        raise BadOrder(f"need n >= 1 and r >= 0, got n={n}, r={r}")
    if (n * r) % 2 != 0:
        raise ParityViolation(f"n*r = {n * r} is odd; no {r}-regular graph on {n} vertices")
    if r >= n:
        raise DegreeTooLarge(f"r = {r} must be smaller than n = {n}")
    rng = random.Random(seed)
    for _ in range(DEFAULT_SAMPLING_RETRIES):
        edges = _pairing_attempt(n, r, rng)
        if edges is not None:
            # the pairs are in range, loop-free and ordered u < v already
            return _from_canonical(n, list(edges))
    raise RetriesExhausted(f"no simple {r}-regular graph found in {DEFAULT_SAMPLING_RETRIES} attempts")


def _pairing_attempt(n: int, r: int, rng: random.Random):
    edges: set[tuple[int, int]] = set()
    stubs = [v for v in range(n) for _ in range(r)]
    while stubs:
        leftover: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover[u] += 1
                leftover[v] += 1
        if leftover and not _can_place(edges, leftover):
            return None
        stubs = [v for v, k in leftover.items() for _ in range(k)]
    return edges


def _can_place(edges, leftover) -> bool:
    # some pair of leftover stubs must still admit a fresh simple edge
    verts = list(leftover)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            a, b = (u, v) if u < v else (v, u)
            if (a, b) not in edges:
                return True
    return False


def j_block(r: int, m: int) -> Graph:
    """K_{r+1} minus the canonical matching {0,1},...,{m-2,m-1}; vertices
    0..m-1 end up with degree r-1, the rest keep degree r."""
    if r % 2 != 0 or r < 4:
        raise ParamDomain(f"r must be even and >= 4, got {r}")
    # a matching of size m/2 must fit in K_{r+1}, so m up to r is fine here;
    # the stricter m <= r-2 bound belongs to the full construction
    if m % 2 != 0 or not 2 <= m <= r:
        raise ParamDomain(f"m must be even with 2 <= m <= r, got m={m}, r={r}")
    deleted = {(2 * i, 2 * i + 1) for i in range(m // 2)}
    edges = [
        (u, v)
        for u in range(r + 1)
        for v in range(u + 1, r + 1)
        if (u, v) not in deleted
    ]
    return build_graph(r + 1, edges)


def _extremal_domain_error(r: int, m: int) -> str | None:
    """Why the (r, m) extremal construction does not exist, or None if it does."""
    if r % 2 != 0 or r < 4:
        return f"r must be even and >= 4, got {r}"
    if m % 2 != 0 or not 2 <= m <= r - 2:
        return f"m must be even with 2 <= m <= r-2, got m={m}, r={r}"
    return None


def extremal_construction(r: int, m: int) -> tuple[Graph, VertexSet]:
    """The sharpness instance: r blocks of J(r,m) plus m hub vertices.

    Hub j takes the j-th deficient vertex of every block, so all degrees come
    out to exactly r. Returns the graph and the hub set (the certificate's S).
    """
    if error := _extremal_domain_error(r, m):
        raise ParamDomain(error)
    block = j_block(r, m)
    size = r + 1
    edges: list[tuple[int, int]] = []
    for i in range(r):
        off = i * size
        edges.extend((off + u, off + v) for u, v in block.edges)
    hub_base = r * size
    for j in range(m):
        for i in range(r):
            edges.append((i * size + j, hub_base + j))
    g = build_graph(hub_base + m, edges)
    return g, VertexSet.of(range(hub_base, hub_base + m))


def sharpness_certificate(r: int, m: int, a: int, b: int) -> DeficiencyWitness | None:
    """The paper's witness that the (r, m) extremal instance has no
    (a,b)-parity factor: S = hubs, T = empty, delta = b*m - r and one odd
    component per block (tau = r). None outside the sharpness domain: where
    the construction does not exist, or unless a, b are odd with
    1 <= a <= b and b*m < r."""
    if (_extremal_domain_error(r, m) is not None
            or not (a % 2 == b % 2 == 1 and 1 <= a <= b and b * m < r)):
        return None
    hubs = VertexSet.of(range(r * (r + 1), r * (r + 1) + m))
    return DeficiencyWitness(hubs, VertexSet.empty(), b * m - r, r)
