from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    VertexSet,
    build_graph,
    complete_graph,
    components_after_removal,
    edges_between,
    emit_graph,
    extremal_construction,
    ExtremalParams,
    parse_graph,
    petersen,
)
from paritylab.errors import (
    DuplicateEdge,
    GraphSyntaxError,
    LoopEdge,
    SetsNotDisjoint,
    VertexOutOfRange,
)

from conftest import graphs, graph_with_disjoint_sets, internal_edge_count, outcome
from reference_graph import build_graph as reference_build_graph


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.degrees == [1, 1]
    assert g.edges == ((0, 1),)


def test_build_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.degrees == [2, 2, 2, 2]


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_loops_and_range():
    with pytest.raises(LoopEdge):
        build_graph(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(0, 3)])
    # loops and ranges are checked pair by pair, duplicates after the sort
    with pytest.raises(LoopEdge):
        build_graph(3, [(0, 1), (1, 0), (2, 2)])


# Differential gate: build_graph must return the Graph, or raise the error
# class, of the seen-set builder it replaced.


@st.composite
def shuffled_edge_lists(draw):
    """A graph's edges in a drawn order, each pair in a drawn orientation."""
    g = draw(graphs(max_n=10))
    pairs = draw(st.permutations(g.edges))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return g, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]


@given(shuffled_edge_lists())
@settings(max_examples=200, deadline=None)
def test_build_matches_reference(data):
    g, pairs = data
    assert build_graph(g.n, pairs) == reference_build_graph(g.n, pairs) == g


@given(shuffled_edge_lists(), st.data())
@settings(max_examples=200, deadline=None)
def test_build_faults_match_reference(case, data):
    g, pairs = case
    kinds = ["loop", "range"] + (["duplicate"] if pairs else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "loop":
        v = data.draw(st.integers(0, g.n - 1))
        bad = (v, v)
    elif kind == "range":
        v = data.draw(st.integers(0, g.n - 1))
        w = data.draw(st.sampled_from([-1, g.n, g.n + 3]))
        bad = data.draw(st.sampled_from([(v, w), (w, v)]))
    else:
        u, v = data.draw(st.sampled_from(pairs))
        bad = data.draw(st.sampled_from([(u, v), (v, u)]))
    at = data.draw(st.integers(0, len(pairs)))
    faulty = pairs[:at] + [bad] + pairs[at:]
    got = outcome(build_graph, g.n, faulty)
    assert isinstance(got, type) and got is outcome(reference_build_graph, g.n, faulty)


def test_handshake():
    g = petersen()
    assert sum(g.degrees) == 2 * g.edge_count


def test_edges_between_petersen_spokes():
    g = petersen()
    outer = VertexSet.of(range(5))
    inner = VertexSet.of(range(5, 10))
    assert edges_between(g, outer, inner) == 5


def test_edges_between_trivia():
    g = complete_graph(4)
    assert edges_between(g, VertexSet.empty(), VertexSet.of(range(4))) == 0
    assert edges_between(g, VertexSet.of([0]), VertexSet.of([1, 2, 3])) == 3


def test_edges_between_requires_disjoint():
    with pytest.raises(SetsNotDisjoint):
        edges_between(complete_graph(3), VertexSet.of([0, 1]), VertexSet.of([1, 2]))


@given(graph_with_disjoint_sets())
def test_edges_between_symmetric(data):
    g, s, t = data
    assert edges_between(g, s, t) == edges_between(g, t, s)


def test_components_cycle_minus_vertex():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    comps = components_after_removal(g, VertexSet.of([0]))
    assert len(comps) == 1
    assert comps[0].members == (1, 2, 3)
    assert internal_edge_count(g, comps[0]) == 2  # a path


def test_components_identity_case():
    g = complete_graph(4)
    comps = components_after_removal(g, VertexSet.empty())
    assert len(comps) == 1
    assert comps[0].members == (0, 1, 2, 3)
    assert internal_edge_count(g, comps[0]) == g.edge_count


def test_components_extremal_blocks():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    comps = components_after_removal(g, hubs)
    assert len(comps) == 6
    assert all(len(c) == 7 for c in comps)


@given(graph_with_disjoint_sets())
def test_components_partition_vertices(data):
    g, s, _ = data
    comps = components_after_removal(g, s)
    covered = [v for c in comps for v in c]
    assert sorted(covered) == sorted(set(range(g.n)) - set(s))
    # deterministic ordering: ascending minimum original id
    mins = [c.members[0] for c in comps]
    assert mins == sorted(mins)


@given(graphs())
def test_degree_accounting_per_component(g):
    # for any removal X and component C: sum of degrees restricted to C splits
    # into internal edges twice plus the boundary into X
    x = VertexSet.of(range(0, g.n, 3))
    for cvs in components_after_removal(g, x):
        boundary = edges_between(g, x, cvs)
        internal = internal_edge_count(g, cvs)
        assert sum(g.degree(v) for v in cvs) == 2 * internal + boundary


def test_parse_k2():
    g = parse_graph("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_comments_and_blanks():
    g = parse_graph("# fixture\n3 2\n\n0 1  # first\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_reports_line_numbers():
    with pytest.raises(VertexOutOfRange, match="line 2"):
        parse_graph("3 1\n0 3\n")
    with pytest.raises(GraphSyntaxError):
        parse_graph("")
    with pytest.raises(GraphSyntaxError):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(GraphSyntaxError, match="u < v"):
        parse_graph("3 1\n1 0\n")
    with pytest.raises(DuplicateEdge, match=r"line 5: edge \(0,1\) given twice"):
        parse_graph("3 3\n0 1\n1 2\n\n0 1\n")


@given(graphs())
def test_parse_emit_round_trip(g):
    assert parse_graph(emit_graph(g)) == g


def test_emit_canonical_order():
    g = build_graph(4, [(3, 2), (1, 0)])
    assert emit_graph(g) == "4 2\n0 1\n2 3\n"
