from __future__ import annotations

import pytest
from hypothesis import given, settings

from paritylab import (
    ExtremalParams,
    Factor,
    ParitySpec,
    brute_force_factor,
    build_graph,
    build_parity_gadget,
    complete_graph,
    cycle,
    decide_by_enumeration,
    extremal_construction,
    find_parity_factor,
    petersen,
    verify_factor,
)
from paritylab import solver
from paritylab.errors import (
    InvalidParitySpec,
    LowerBoundExceedsDegree,
    SelfCheckFailed,
    TooManyEdges,
)
from paritylab.solver import normalized_upper, parse_factor, serialize_factor

from conftest import extremal_instances, graph_with_spec, graphs, outcome, random_regular_instances
from reference_graph import build_parity_gadget as reference_build_parity_gadget


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_gadget_size_c4_two_factor():
    gm = build_parity_gadget(c4(), ParitySpec.constant(2, 2, 4))
    assert gm.h.n == 8  # 4*|E| - g(V) = 16 - 8
    assert all(len(o) == 2 and len(c) == 0 for o, c in zip(gm.outer, gm.core))


def test_gadget_counts_k4_vertex():
    gm = build_parity_gadget(complete_graph(4), ParitySpec.constant(1, 3, 4))
    assert len(gm.outer[0]) == 3
    assert len(gm.core[0]) == 2
    assert len(gm.slack_pairs[0]) == 1


def test_gadget_rejects_lower_bound_above_degree():
    with pytest.raises(LowerBoundExceedsDegree):
        build_parity_gadget(cycle(4), ParitySpec.constant(3, 3, 4))


def test_normalized_upper_clamps_to_degree():
    g = complete_graph(4)
    spec = ParitySpec.constant(1, 7, 4)
    assert normalized_upper(g, spec, 0) == 3


def test_find_c4_two_factor():
    f = find_parity_factor(c4(), ParitySpec.constant(2, 2, 4))
    assert f is not None and sorted(f.edges) == sorted(c4().edges)


def test_find_petersen_perfect_matching():
    spec = ParitySpec.constant(1, 1, 10)
    f = find_parity_factor(petersen(), spec)
    assert f is not None and len(f.edges) == 5
    assert verify_factor(petersen(), spec, f) == (True, "ok")


def test_find_k4_odd_factor():
    spec = ParitySpec.constant(1, 3, 4)
    f = find_parity_factor(complete_graph(4), spec)
    assert f is not None and verify_factor(complete_graph(4), spec, f)[0]


def test_find_extremal_infeasible():
    g, _ = extremal_construction(ExtremalParams(6, 2))
    assert find_parity_factor(g, ParitySpec.constant(1, 1, g.n)) is None


def test_find_shortcuts_lower_bound_above_degree():
    assert find_parity_factor(cycle(4), ParitySpec.constant(3, 3, 4)) is None


def test_brute_force_basics():
    assert brute_force_factor(complete_graph(2), ParitySpec.constant(1, 1, 2)).edges == ((0, 1),)
    assert brute_force_factor(complete_graph(3), ParitySpec.constant(1, 1, 3)) is None
    f = brute_force_factor(cycle(5), ParitySpec.constant(2, 2, 5))
    assert f is not None and len(f.edges) == 5


def test_brute_force_cap():
    with pytest.raises(TooManyEdges):
        brute_force_factor(complete_graph(8), ParitySpec.constant(1, 1, 8))


def test_verify_factor_catches_parity():
    spec = ParitySpec.constant(2, 2, 4)
    bad = Factor(4, c4().edges[:3])
    ok, reason = verify_factor(c4(), spec, bad)
    assert not ok and "parity" in reason


def test_verify_factor_catches_foreign_edge():
    ok, reason = verify_factor(cycle(4), ParitySpec.constant(1, 1, 4), Factor(4, ((0, 2),)))
    assert not ok and "not in the graph" in reason


@pytest.mark.parametrize("n", [2, 12])
def test_spec_length_must_match_graph(n):
    spec = ParitySpec.constant(1, 1, n)
    with pytest.raises(InvalidParitySpec, match="spec covers"):
        find_parity_factor(petersen(), spec)
    factor = find_parity_factor(petersen(), ParitySpec.constant(1, 1, 10))
    with pytest.raises(InvalidParitySpec, match="spec covers"):
        verify_factor(petersen(), spec, factor)


def test_find_verifies_the_recovered_factor(monkeypatch):
    import paritylab.solver as solver

    monkeypatch.setattr(solver, "verify_factor", lambda g, spec, f: (False, "planted"))
    with pytest.raises(SelfCheckFailed, match="planted"):
        find_parity_factor(petersen(), ParitySpec.constant(1, 1, 10))


def test_factor_serialization_round_trip():
    spec = ParitySpec.constant(1, 1, 10)
    f = find_parity_factor(petersen(), spec)
    text = serialize_factor(f)
    assert text.splitlines()[0] == "factor 5"
    assert parse_factor(text, 10) == f


@given(graph_with_spec(max_n=6))
@settings(max_examples=100, deadline=None)
def test_gadget_size_law_and_agreement(data):
    g, spec = data
    feasible_by_matching = find_parity_factor(g, spec)
    if all(spec.g[v] <= g.degree(v) for v in range(g.n)):
        gm = build_parity_gadget(g, spec)
        assert gm.h.n == 4 * g.edge_count - sum(spec.g)
    if feasible_by_matching is not None:
        ok, reason = verify_factor(g, spec, feasible_by_matching)
        assert ok, reason
        # reduction soundness: degrees stay on the g(v) + 2i ladder up to f'(v)
        for v, d in enumerate(feasible_by_matching.degrees):
            assert spec.g[v] <= d <= normalized_upper(g, spec, v)
            assert (d - spec.g[v]) % 2 == 0
    assert (feasible_by_matching is not None) == decide_by_enumeration(g, spec).feasible


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=60, deadline=None)
def test_self_duality_on_regular_graphs(g):
    # on r-regular graphs, an (a,b)-parity factor complements to an
    # (r-b, r-a)-parity factor within E(G)
    degs = set(g.degrees)
    if len(degs) != 1:
        return
    r = degs.pop()
    for a, b in [(1, 1), (1, 3), (2, 2)]:
        if not 1 <= a <= b < r or (r - b) < 1:
            continue
        spec = ParitySpec.constant(a, b, g.n)
        f = find_parity_factor(g, spec)
        dual_spec = ParitySpec.constant(r - b, r - a, g.n)
        if f is not None:
            complement = Factor(g.n, tuple(e for e in g.edges if e not in set(f.edges)))
            assert verify_factor(g, dual_spec, complement)[0]
        else:
            assert find_parity_factor(g, dual_spec) is None


# Differential gate: the counter-numbered gadget must equal the one the
# incident-list numbering built, node for node, so every factor stays the same.


@given(graph_with_spec())
@settings(max_examples=200, deadline=None)
def test_gadget_matches_reference_on_small_graphs(data):
    g, spec = data
    assert outcome(build_parity_gadget, g, spec) == outcome(reference_build_parity_gadget, g, spec)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_gadget_and_factor_match_reference_on_random_regular(r, monkeypatch):
    for g, spec in random_regular_instances(r):
        assert build_parity_gadget(g, spec) == reference_build_parity_gadget(g, spec)
        factor = find_parity_factor(g, spec)
        with monkeypatch.context() as m:
            m.setattr(solver, "build_parity_gadget", reference_build_parity_gadget)
            assert factor == find_parity_factor(g, spec)


def test_gadget_and_factor_match_reference_on_extremal(monkeypatch):
    count = 0
    for g, spec in extremal_instances(max_r=8):
        assert build_parity_gadget(g, spec) == reference_build_parity_gadget(g, spec)
        factor = find_parity_factor(g, spec)
        assert (factor is None) == (spec.g[0] % 2 == 1)
        with monkeypatch.context() as m:
            m.setattr(solver, "build_parity_gadget", reference_build_parity_gadget)
            assert factor == find_parity_factor(g, spec)
        count += 1
    assert count == 14
