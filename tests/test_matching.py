from __future__ import annotations

import pytest
from hypothesis import given, settings

from paritylab import (
    build_graph,
    build_parity_gadget,
    complete_graph,
    cycle,
    has_perfect_matching,
    max_matching,
    petersen,
)

from conftest import (
    brute_max_matching_size,
    extremal_instances,
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
    assert has_perfect_matching(complete_graph(2))
    assert not has_perfect_matching(complete_graph(3))
    assert has_perfect_matching(petersen())


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
    used = set()
    for u, v in m.pairs:
        assert (min(u, v), max(u, v)) in edge_set
        assert u not in used and v not in used
        used.update((u, v))
    assert len(m) == brute_max_matching_size(g)


@given(graphs(max_n=9))
@settings(max_examples=40)
def test_no_short_augmenting_path_remains(g):
    # necessary conditions for maximality that a plain search can certify:
    # no two exposed vertices are adjacent, and no exposed-matched-matched-
    # exposed alternating path of length three exists
    match = max_matching(g).partner_array(g.n)
    exposed = {v for v in range(g.n) if match[v] < 0}
    for v in exposed:
        for w in g.adjacency[v]:
            assert w not in exposed
            partner = match[w]
            assert not any(
                x in exposed and x != v for x in g.adjacency[partner]
            )


# Differential gate: the matcher must return exactly the pairs of the
# full-scan reference it replaced, so every factor and CLI output stays the same.

def random_regular_gadgets(r):
    return (build_parity_gadget(g, spec).h for g, spec in random_regular_instances(r))


def extremal_gadgets(max_r):
    return (build_parity_gadget(g, spec).h for g, spec in extremal_instances(max_r))


@given(graphs(max_n=12))
@settings(max_examples=300, deadline=None)
def test_pairs_match_reference_on_small_graphs(g):
    assert max_matching(g).pairs == reference_max_matching(g).pairs


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_pairs_match_reference_on_random_regular_gadgets(r):
    for h in random_regular_gadgets(r):
        assert max_matching(h).pairs == reference_max_matching(h).pairs


def test_pairs_match_reference_on_extremal_gadgets():
    count = 0
    for h in extremal_gadgets(max_r=8):
        m = max_matching(h)
        assert m.pairs == reference_max_matching(h).pairs
        count += 1
    assert count == 14


@given(graph_with_gadget_spec())
@settings(max_examples=200, deadline=None)
def test_pairs_match_reference_on_per_vertex_spec_gadgets(data):
    h = build_parity_gadget(*data).h
    assert max_matching(h).pairs == reference_max_matching(h).pairs


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


# The Gallai-Edmonds set D read off the failed searches must be the set of
# vertices x with nu(H - x) = nu(H): those some maximum matching leaves exposed.


def without_vertex(g, x):
    return build_graph(g.n, [e for e in g.edges if x not in e])


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_d_matches_brute_force_on_small_graphs(g):
    nu = brute_max_matching_size(g)
    expected = tuple(x for x in range(g.n) if brute_max_matching_size(without_vertex(g, x)) == nu)
    assert max_matching(g).D == expected


@given(graph_with_gadget_spec())
@settings(max_examples=150, deadline=None)
def test_d_matches_removal_oracle_on_gadgets(data):
    h = build_parity_gadget(*data).h
    m = max_matching(h)
    expected = tuple(x for x in range(h.n) if len(max_matching(without_vertex(h, x))) == len(m))
    assert m.D == expected
    assert (m.D == ()) == (2 * len(m) == h.n)
