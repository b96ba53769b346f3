from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    ParitySpec,
    build_graph,
    build_parity_gadget,
    complete_graph,
    cycle,
    extremal_construction,
    max_matching,
    petersen,
)
from paritylab import matching

from conftest import (
    brute_max_matching_size,
    extremal_instances,
    gallai_edmonds_d,
    graph_with_gadget_spec,
    graphs,
    random_regular_instances,
)
from reference_matching import max_matching as reference_max_matching


def test_k4_perfect():
    assert len(max_matching(complete_graph(4))) == 2


def test_odd_cycle():
    assert len(max_matching(cycle(5))) == 2


def test_petersen_matching_number():
    m = max_matching(petersen())
    assert len(m) == 5
    assert len(m) == brute_max_matching_size(petersen())


def test_has_perfect_matching_basics():
    assert -1 not in max_matching(complete_graph(2)).mate
    assert max_matching(complete_graph(3)).mate.count(-1) == 1
    assert -1 not in max_matching(petersen()).mate


def test_blossom_contraction_needed():
    # two triangles joined by a path: maximum matching requires working
    # through the odd cycles
    g = build_graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                        (4, 5), (5, 6), (6, 4), (6, 7)])
    assert len(max_matching(g)) == brute_max_matching_size(g) == 4


def test_deterministic():
    g = petersen()
    assert max_matching(g) == max_matching(g)


@given(graphs(max_n=9))
@settings(max_examples=80)
def test_valid_and_maximum(g):
    m = max_matching(g)
    edge_set = set(g.edges)
    assert all(w < 0 or (m.mate[w] == v and (min(v, w), max(v, w)) in edge_set)
               for v, w in enumerate(m.mate))
    assert len(m) == brute_max_matching_size(g)


@given(graphs(max_n=9))
@settings(max_examples=40)
def test_no_short_augmenting_path_remains(g):
    # necessary conditions for maximality that a plain search can certify:
    # no two exposed vertices are adjacent, and no exposed-matched-matched-
    # exposed alternating path of length three exists
    match = max_matching(g).mate
    exposed = {v for v in range(g.n) if match[v] < 0}
    for v in exposed:
        for w in g.adjacency[v]:
            assert w not in exposed
            partner = match[w]
            assert not any(
                x in exposed and x != v for x in g.adjacency[partner]
            )


# Differential gate: the matcher must return exactly the mates of the
# full-scan reference it replaced, so every factor and CLI output stays the same.

def random_regular_gadgets(r):
    return (build_parity_gadget(g, spec).h for g, spec in random_regular_instances(r))


def extremal_gadgets(max_r):
    return (build_parity_gadget(g, spec).h for g, spec in extremal_instances(max_r))


@given(graphs(max_n=12))
@settings(max_examples=300, deadline=None)
def test_pairs_match_reference_on_small_graphs(g):
    assert max_matching(g).mate == reference_max_matching(g).mate


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_pairs_match_reference_on_random_regular_gadgets(r):
    for h in random_regular_gadgets(r):
        assert max_matching(h).mate == reference_max_matching(h).mate


def test_pairs_match_reference_on_extremal_gadgets():
    count = 0
    for h in extremal_gadgets(max_r=8):
        m = max_matching(h)
        assert m.mate == reference_max_matching(h).mate
        count += 1
    assert count == 14


# The full-scan reference is too slow past r = 8, so the matchings of the
# larger extremal gadgets are pinned by digest instead: one sha256 over
# repr((mate, A)) per gadget, every even r <= 12, even m <= r - 2 and odd
# a <= b with b*m < r, in that order (24 gadgets, the largest 3,818 nodes).
EXTREMAL_MATCHINGS_SHA256 = "48e3ee20c5c8664d2b624e919b64ef8d70a2e7a0949082f4fdfb1722ff5784a0"


def test_extremal_matchings_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for g, spec in extremal_instances(max_r=12):
        if spec.g[0] % 2:  # the odd (a, b) specs, not the feasible (2, 2)
            h = build_parity_gadget(g, spec)
            m = max_matching(h)
            digest.update(repr((m.mate, m.A)).encode())
            assert m.A
            check_barrier(h, m)
            count += 1
    assert count == 24
    assert digest.hexdigest() == EXTREMAL_MATCHINGS_SHA256


@given(graph_with_gadget_spec())
@settings(max_examples=200, deadline=None)
def test_pairs_match_reference_on_per_vertex_spec_gadgets(data):
    h = build_parity_gadget(*data).h
    assert max_matching(h).mate == reference_max_matching(h).mate


@given(graphs(max_n=12))
@settings(max_examples=100, deadline=None)
def test_size_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    assert len(max_matching(g)) == len(nx.max_weight_matching(h, maxcardinality=True))


def test_size_matches_networkx_on_gadgets():
    nx = pytest.importorskip("networkx")
    for g in [*random_regular_gadgets(3), *extremal_gadgets(max_r=6)]:
        if g.n > 400:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert len(max_matching(g)) == len(nx.max_weight_matching(h, maxcardinality=True))


# The Gallai-Edmonds set D, read back from the matching and the barrier A off
# the failed searches, must be the set of vertices x with nu(H - x) = nu(H):
# those some maximum matching leaves exposed.


def without_vertex(g, x):
    return build_graph(g.n, [e for e in g.edges if x not in e])


def check_barrier(g, m):
    """The Tutte barrier A read off the failed searches is N(D) - D, and, by
    Gallai-Edmonds, every vertex of A is matched into D."""
    d = set(gallai_edmonds_d(g, m))
    assert m.A == tuple(sorted({y for x in d for y in g.adjacency[x]} - d))
    assert all(m.mate[a] in d for a in m.A)


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_d_matches_brute_force_on_small_graphs(g):
    nu = brute_max_matching_size(g)
    expected = tuple(x for x in range(g.n) if brute_max_matching_size(without_vertex(g, x)) == nu)
    assert gallai_edmonds_d(g, max_matching(g)) == expected


@given(graph_with_gadget_spec())
@settings(max_examples=150, deadline=None)
def test_d_matches_removal_oracle_on_gadgets(data):
    h = build_parity_gadget(*data).h
    m = max_matching(h)
    expected = tuple(x for x in range(h.n) if len(max_matching(without_vertex(h, x))) == len(m))
    assert gallai_edmonds_d(h, m) == expected
    assert (expected == ()) == (2 * len(m) == h.n)
    check_barrier(h, m)


# A failed search prunes its tree: later searches skip it, so the even lists
# the failed searches return are disjoint, and together they are D.


def star(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def extremal_gadgets_at_one_one(max_r):
    for r in range(4, max_r + 1, 2):
        for m in range(2, r - 1, 2):
            g, _ = extremal_construction(r, m)
            h = build_parity_gadget(g, ParitySpec.constant(1, 1, g.n)).h
            yield pytest.param(h, id=f"extremal-r{r}-m{m}")


@pytest.mark.parametrize("h", [pytest.param(star(6), id="star-6"), *extremal_gadgets_at_one_one(max_r=10)])
def test_failed_search_trees_are_disjoint_and_make_up_d(h, monkeypatch):
    try_augment = matching._try_augment
    failed = []

    def spy(adj, match, parent, base, in_queue, stamp, clock, barrier, root):
        # a failed search prunes its tree, leaving parent >= 0 on each vertex
        # it reached, and appends to barrier the ones that stayed odd; the
        # rest are its even vertices. A successful one resets what it set.
        live, stayed_odd = [p < 0 for p in parent], len(barrier)
        try_augment(adj, match, parent, base, in_queue, stamp, clock, barrier, root)
        tree = {v for v, p in enumerate(parent) if live[v] and p >= 0}
        if tree:
            failed.append(sorted(tree - set(barrier[stayed_odd:])))

    monkeypatch.setattr(matching, "_try_augment", spy)
    m = max_matching(h)
    assert len(failed) == h.n - 2 * len(m) >= 2
    union = [v for even in failed for v in even]
    assert len(union) == len(set(union))
    assert tuple(sorted(union)) == gallai_edmonds_d(h, m)


@st.composite
def deficient_graphs(draw):
    """Odd cliques and pendant stars joined to a random core, vertex ids
    shuffled. A star with at least three pendant leaves leaves two of them
    exposed, so the deficiency n - 2 nu is at least 2 and several searches
    fail."""
    parts = [list(range(draw(st.sampled_from([1, 3, 5])))) for _ in range(draw(st.integers(0, 3)))]
    stars = [draw(st.integers(3, 5)) for _ in range(draw(st.integers(1, 2)))]
    core = draw(st.integers(0, 5))
    edges = []
    hooks = []  # per part, the vertices it may join the core through
    n = core
    for size in (len(p) for p in parts):
        members = list(range(n, n + size))
        edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        hooks.append(members)
        n += size
    for leaves in stars:
        edges += [(n, n + i) for i in range(1, leaves + 1)]
        hooks.append([n])
        n += leaves + 1
    if core:
        pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
        edges += draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        for members in hooks:
            for _ in range(draw(st.integers(0, 2))):
                edges.append((draw(st.sampled_from(members)), draw(st.integers(0, core - 1))))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, sorted({tuple(sorted((perm[u], perm[v]))) for u, v in edges}))


@given(deficient_graphs())
@settings(max_examples=150, deadline=None)
def test_pairs_and_d_match_reference_on_deficient_graphs(g):
    m = max_matching(g)
    assert m.mate == reference_max_matching(g).mate
    assert g.n - 2 * len(m) >= 2
    expected = tuple(
        x for x in range(g.n) if len(reference_max_matching(without_vertex(g, x))) == len(m)
    )
    assert gallai_edmonds_d(g, m) == expected
    check_barrier(g, m)
