"""Shared hypothesis strategies and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: matching by
recursion over the edge list, connectivity by sweeping all vertex subsets.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from paritylab import (
    Graph,
    ParitySpec,
    VertexSet,
    build_graph,
    components_after_removal,
    extremal_construction,
    random_regular,
)
from paritylab.errors import ParityLabError


@st.composite
def graphs(draw, min_n=1, max_n=8, connected=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = build_graph(n, chosen)
    if connected and n > 0 and len(components_after_removal(g, VertexSet.empty())) != 1:
        # stitch components together along their minimum vertices
        comps = components_after_removal(g, VertexSet.empty())
        extra = [
            (comps[i].members[0], comps[i + 1].members[0])
            for i in range(len(comps) - 1)
        ]
        g = build_graph(n, list(g.edges) + extra)
    return g


@st.composite
def graph_with_disjoint_sets(draw, max_n=8):
    g = draw(graphs(min_n=1, max_n=max_n))
    labels = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    s = VertexSet.of(v for v in range(g.n) if labels[v] == 1)
    t = VertexSet.of(v for v in range(g.n) if labels[v] == 2)
    return g, s, t


@st.composite
def disjoint_sets(draw, n):
    """Disjoint S and T in 0..n-1: each vertex labelled at random, or in about
    half the draws a T that holds every vertex but at most four."""
    if draw(st.booleans()):
        few = st.sets(st.integers(0, n - 1), max_size=2)
        s = draw(few)
        return VertexSet.of(s), VertexSet.of(set(range(n)) - s - draw(few))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    s = VertexSet.of(v for v in range(n) if labels[v] == 1)
    t = VertexSet.of(v for v in range(n) if labels[v] == 2)
    return s, t


@st.composite
def graph_with_spec(draw, max_n=7):
    g = draw(graphs(min_n=1, max_n=max_n))
    g_vals = []
    f_vals = []
    for v in range(g.n):
        gv = draw(st.integers(0, 4))
        fv = gv + 2 * draw(st.integers(0, 2))
        g_vals.append(gv)
        f_vals.append(fv)
    return g, ParitySpec(tuple(g_vals), tuple(f_vals))


@st.composite
def graph_with_gadget_spec(draw, max_n=7):
    """Like graph_with_spec, but with g(v) <= d(v) everywhere, so that the
    parity gadget exists."""
    g = draw(graphs(min_n=1, max_n=max_n))
    g_vals = tuple(draw(st.integers(0, g.degree(v))) for v in range(g.n))
    f_vals = tuple(gv + 2 * draw(st.integers(0, 2)) for gv in g_vals)
    return g, ParitySpec(g_vals, f_vals)


@pytest.fixture
def bound_checks(monkeypatch):
    """The vertex sets that ``VertexSet.check_bounds`` is run on, in call order."""
    calls = []
    check = VertexSet.check_bounds

    def spy(self, n):
        calls.append(self)
        return check(self, n)

    monkeypatch.setattr(VertexSet, "check_bounds", spy)
    return calls


def outcome(build, *args):
    """What build returns on args, or the class of the ParityLabError it raises."""
    try:
        return build(*args)
    except ParityLabError as exc:
        return type(exc)


def assert_rejects(call, expected):
    """call() raises exactly the type of the exception ``expected``, with its
    message; or, for a checker that reports rather than raises, returns
    ``expected``, its (False, reason) pair."""
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(type(expected)) as info:
        call()
    assert type(info.value) is type(expected) and str(info.value) == str(expected)


def internal_edge_count(g: Graph, vs: VertexSet) -> int:
    """Edges of g with both endpoints in vs: the size of the induced subgraph."""
    return sum(1 for u, v in g.edges if u in vs and v in vs)


def brute_max_matching_size(g: Graph) -> int:
    edges = g.edges

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        score = best(i + 1, used)
        if not (used >> u & 1) and not (used >> v & 1):
            score = max(score, 1 + best(i + 1, used | 1 << u | 1 << v))
        return score

    return best(0, 0)


def gallai_edmonds_d(h, m) -> tuple[int, ...]:
    """The Gallai-Edmonds set D of the graph h (a Graph or a GadgetMap) from
    a maximum matching m and its barrier A = m.A: the vertices of the
    components of h - A that hold an exposed vertex or a vertex matched into
    A. The other components of h - A are perfectly matched within."""
    a = set(m.A)
    seen = set(a)
    d = []
    for start in range(h.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for w in h.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        if any(m.mate[v] < 0 or m.mate[v] in a for v in comp):
            d += comp
    return tuple(sorted(d))


def brute_edge_connectivity(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exhaustive sweep over proper subsets containing vertex 0; returns the
    minimum crossing count and the lexicographically smallest attaining side."""
    assert g.n >= 2 and g.n <= 12
    best = None
    best_side = None
    for bits in range(1 << (g.n - 1)):
        side = 1 | bits << 1
        if side == (1 << g.n) - 1:
            continue
        crossing = sum(1 for u, v in g.edges if (side >> u & 1) != (side >> v & 1))
        members = tuple(v for v in range(g.n) if side >> v & 1)
        if best is None or crossing < best or (crossing == best and members < best_side):
            best, best_side = crossing, members
    return best, best_side


def random_connected_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        if len(components_after_removal(g, VertexSet.empty())) == 1:
            return g


@pytest.fixture(scope="session")
def small_connected_corpus():
    """Exhaustive connected graphs on 2..5 vertices, capped at 500."""
    out = []
    for n in range(2, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = build_graph(n, edges)
            if len(components_after_removal(g, VertexSet.empty())) == 1:
                out.append(g)
                if len(out) >= 500:
                    return out
    return out


CONSTANT_SPECS = [(1, 1), (1, 3), (2, 2), (2, 4), (0, 2), (1, 5)]


def random_regular_instances(r):
    """Seeded random r-regular graphs with n <= 60, each under the constant
    specs and one seeded per-vertex spec."""
    rng = random.Random(f"gadgets/{r}")
    for n in range(r + 1, 61, 7):
        if n * r % 2:
            n += 1
        g = random_regular(n, r, seed=n)
        specs = [ParitySpec.constant(a, b, n) for a, b in CONSTANT_SPECS if b <= r]
        low = [rng.randint(0, r) for _ in range(n)]
        specs.append(ParitySpec(tuple(low), tuple(x + 2 * rng.randint(0, 2) for x in low)))
        for spec in specs:
            yield g, spec


def extremal_instances(max_r):
    """The sharpness family up to degree max_r under the infeasible (a,b)
    specs with odd a <= b and b*m < r, plus the feasible (2,2)."""
    for r in range(4, max_r + 1, 2):
        for m in range(2, r - 1, 2):
            g, _ = extremal_construction(r, m)
            abs_ = [(a, b) for a in range(1, r, 2) for b in range(a, r, 2) if b * m < r]
            for a, b in abs_ + [(2, 2)]:
                yield g, ParitySpec.constant(a, b, g.n)
