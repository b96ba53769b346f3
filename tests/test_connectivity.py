from __future__ import annotations

import random
import subprocess
import sys
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritylab import (
    VertexSet,
    build_graph,
    complete_graph,
    cycle,
    edge_connectivity,
    edges_between,
    extremal_construction,
    petersen,
    random_regular,
)
from paritylab import connectivity, generators
from paritylab.connectivity import _set_flow
from paritylab.errors import SelfCheckFailed, TooSmall

import reference_connectivity
from conftest import brute_edge_connectivity, graphs


def test_cycle_is_two_connected():
    assert edge_connectivity(cycle(6))[0] == 2


def test_complete_graph():
    assert edge_connectivity(complete_graph(5))[0] == 4


def test_petersen_three_connected():
    lam, _ = edge_connectivity(petersen())
    assert lam == 3
    assert lam == brute_edge_connectivity(petersen())[0]


def test_disconnected_is_zero():
    g = build_graph(4, [(0, 1), (2, 3)])
    lam, cert = edge_connectivity(g)
    assert lam == 0
    assert cert.cut_side.members == (0, 1)


def test_zero_always_connected():
    # every graph is 0-edge-connected; an edgeless one has lambda exactly 0
    lam, cert = edge_connectivity(build_graph(3, []))
    assert (lam, cert.cut_size) == (0, 0)


def test_too_small():
    with pytest.raises(TooSmall):
        edge_connectivity(build_graph(1, []))


@pytest.mark.parametrize("r,m", [(4, 2), (6, 2), (6, 4)])
def test_extremal_connectivity_is_m(r, m):
    g, _ = extremal_construction(r, m)
    assert edge_connectivity(g)[0] == m


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60)
def test_matches_exhaustive_oracle(g):
    lam, cert = edge_connectivity(g)
    oracle_lam, _ = brute_edge_connectivity(g)
    assert lam == oracle_lam
    assert lam <= min(g.degrees)
    # certificate self-consistency
    other = VertexSet.of(set(range(g.n)) - set(cert.cut_side))
    assert 0 < len(cert.cut_side) < g.n
    assert edges_between(g, cert.cut_side, other) == cert.cut_size == lam


def test_cut_certificate_check_raises(monkeypatch):
    import paritylab.connectivity as connectivity

    monkeypatch.setattr(connectivity, "edges_between", lambda g, s, t: -1)
    with pytest.raises(SelfCheckFailed, match="boundary edges"):
        edge_connectivity(petersen())


def test_cut_certificate_check_survives_optimize_flag():
    # `python -O` strips assert statements; the check must not be one
    script = (
        "import paritylab.connectivity as c\n"
        "from paritylab import petersen\n"
        "from paritylab.errors import SelfCheckFailed\n"
        "assert False, 'asserts are live'\n"
        "c.edges_between = lambda g, s, t: -1\n"
        "try:\n"
        "    c.edge_connectivity(petersen())\n"
        "except SelfCheckFailed:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised\n"


def _same_as_reference(g):
    lam, cert = edge_connectivity(g)
    ref_lam, ref_cert = reference_connectivity.edge_connectivity(g)
    assert (lam, cert.cut_side.members, cert.cut_size) == (
        ref_lam, ref_cert.cut_side.members, ref_cert.cut_size
    )


@given(graphs(min_n=2, max_n=12))
@settings(max_examples=200)
def test_matches_reference_on_small_graphs(g):
    _same_as_reference(g)


# the sizes the verification harness sweeps: small n, and the largest n per r
SWEEP_N = {3: 176, 4: 104, 5: 64, 6: 48, 7: 32, 8: 28}


@pytest.mark.parametrize("r", sorted(SWEEP_N))
def test_matches_reference_on_random_regular(r):
    for n, seed in product((12, SWEEP_N[r]), range(3)):
        _same_as_reference(random_regular(n, r, seed=seed))


@pytest.mark.parametrize("r", [4, 6, 8, 10])
def test_matches_reference_on_extremal(r):
    for m in range(2, r - 1, 2):
        _same_as_reference(extremal_construction(r, m)[0])


# the flow to sink 1 pushes a unit against one already on an edge at vertex 2;
# were that edge left blocked, not freed, the last search would miss vertex 2
# and return a side with 3 boundary edges
MUST_CANCEL = build_graph(8, [
    (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (2, 5),
    (2, 6), (3, 5), (4, 5), (4, 6), (4, 7),
])


def test_flow_that_must_cancel_a_unit():
    g = MUST_CANCEL
    lam, cert = edge_connectivity(g)
    assert (lam, cert.cut_side.members) == (2, (0, 2, 4, 5, 6, 7))
    _same_as_reference(g)


def pendant_block(N, r, k, seed, block_last=False):
    """A random r-regular graph on N vertices less k/2 disjoint edges, joined
    by k < r edges to K_{r+1} less a matching of size k/2, ids shuffled with
    0 and 1 in the large part, and the block on ids N..N+r if ``block_last``.
    lambda = k, below the minimum degree r, yet lambda(0, 1) = r: only a sink
    in the block shows the small cut."""
    rng = random.Random(seed)
    big = random_regular(N, r, seed)
    removed, touched = [], set()
    for u, v in rng.sample(big.edges, len(big.edges)):
        if len(removed) < k // 2 and u not in touched and v not in touched:
            removed.append((u, v))
            touched.update((u, v))
    short = [v for e in removed for v in e]  # degree r - 1 in the large part
    rest = list(range(2, N + r + 1))
    rng.shuffle(rest)
    if block_last:
        rest.sort()
    big_ids = [0, 1] + rest[:N - 2]
    rng.shuffle(big_ids)
    block_ids = rest[N - 2:]
    # the block leaves its vertices 0..k-1 at degree r - 1
    edges = [(big_ids[u], big_ids[v]) for u, v in big.edges if (u, v) not in removed]
    edges += [(block_ids[u], block_ids[v]) for u, v in generators._block(r, k).edges]
    edges += [(big_ids[short[i]], block_ids[i]) for i in range(k)]
    return build_graph(N + r + 1, edges)


@pytest.mark.parametrize("r", [4, 6, 8])
def test_matches_reference_on_pendant_block(r):
    for N, k, seed in product((20, 30), range(2, r - 1, 2), range(4)):
        g = pendant_block(N, r, k, seed)
        assert g.degrees == [r] * g.n
        # the flow to sink 1 reaches the minimum degree: it cannot show the cut
        assert _set_flow(g.adjacency, {1}, 0, g.n)[0] == r
        assert edge_connectivity(g)[0] == k
        _same_as_reference(g)


@pytest.mark.parametrize("r", [4, 6, 8])
def test_short_cut_found_at_a_late_dominator(r):
    # with the block on the highest ids, every dominator in the large part
    # comes first, and the block holds one or two (a vertex and its missing
    # partner): only the last flows can fall below r
    for N, k, seed in product((20, 30), range(2, r - 1, 2), range(4)):
        g = pendant_block(N, r, k, seed, block_last=True)
        dominators = connectivity._dominating_set(g.adjacency)
        first_across = next(j for j, d in enumerate(dominators) if d >= N)
        assert first_across >= max(2, len(dominators) - 2)
        assert edge_connectivity(g)[0] == k
        _same_as_reference(g)


@st.composite
def set_flow_cases(draw):
    """A graph, a nonempty source set, a sink outside it and a cap."""
    g = draw(graphs(min_n=2, max_n=10))
    t = draw(st.integers(0, g.n - 1))
    source = draw(st.sets(st.sampled_from([v for v in range(g.n) if v != t]), min_size=1))
    return g, source, t, draw(st.integers(0, g.n))


def _contracted_flow(g, source, t):
    """The reference max-flow from ``source`` merged into one vertex to t;
    edges inside the source drop out, parallel edges into it stay."""
    s = min(source)
    merged = [s if v in source else v for v in range(g.n)]
    edges = [(merged[u], merged[v]) for u, v in g.edges if merged[u] != merged[v]]
    return reference_connectivity._FlowNet(SimpleNamespace(n=g.n, edges=edges)).maxflow(s, t)


@given(set_flow_cases())
@example((MUST_CANCEL, {1}, 0, 8))
@settings(max_examples=300)
def test_set_flow_matches_contracted_reference(case):
    g, source, t, cap = case
    expected = _contracted_flow(g, source, t)
    flow, reached = _set_flow(g.adjacency, set(source), t, g.n)
    assert flow == expected
    # the failed search reaches t's side of a minimum cut
    assert t in reached and not source & set(reached)
    assert edges_between(g, reached, VertexSet.of(set(range(g.n)) - set(reached))) == expected
    flow, reached = _set_flow(g.adjacency, set(source), t, cap)
    assert flow == min(expected, cap)
    assert (reached is None) == (expected >= cap)


def _sinks_swept(monkeypatch, g):
    # only the cut-side sweep runs flows into vertex 0, each from its sink t
    # as the source; the Matula sweep's sinks are later dominators, never 0
    sinks = []
    set_flow = connectivity._set_flow

    def spy(adj, source, t, cap):
        if t == 0:
            sinks.extend(source)
        return set_flow(adj, source, t, cap)

    monkeypatch.setattr(connectivity, "_set_flow", spy)
    edge_connectivity(g)
    return sinks


def test_random_regular_cut_side_takes_no_flow(monkeypatch):
    # lambda = deg(0): the side is {0}, read without a flow
    g = random_regular(2000, 4, 1)
    assert _sinks_swept(monkeypatch, g) == []
    assert edge_connectivity(g)[1].cut_side.members == (0,)


@pytest.mark.parametrize("r,m", [(8, 2), (12, 4), (16, 2)])
def test_extremal_cut_side_sweep_stops_at_sink_r_plus_1(monkeypatch, r, m):
    g, _ = extremal_construction(r, m)
    assert _sinks_swept(monkeypatch, g) == list(range(1, r + 2))
