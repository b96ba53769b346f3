from __future__ import annotations

import pytest
from hypothesis import given, settings

from paritylab import (
    DeficiencyWitness,
    ExtremalParams,
    ParitySpec,
    VertexSet,
    build_graph,
    complete_graph,
    decide_by_enumeration,
    deficiency,
    extremal_construction,
    f_odd_components,
    verify_witness,
)
from paritylab import lovasz
from paritylab.errors import (
    GraphTooLargeForEnumeration,
    InvalidParitySpec,
    SelfCheckFailed,
    SetsNotDisjoint,
)
from paritylab.lovasz import parse_witness, serialize_witness

from conftest import graph_with_disjoint_sets, graph_with_spec


def test_spec_validation():
    ParitySpec((1, 1), (3, 3))
    with pytest.raises(InvalidParitySpec):
        ParitySpec((1,), (2,))  # parity mismatch
    with pytest.raises(InvalidParitySpec):
        ParitySpec((3,), (1,))  # g > f
    with pytest.raises(InvalidParitySpec):
        ParitySpec((-1,), (1,))


def test_constant_spec():
    spec = ParitySpec.constant(1, 3, 4)
    assert spec.g == (1, 1, 1, 1) and spec.f == (3, 3, 3, 3)
    assert spec.is_constant()


def test_f_odd_components_extremal():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    spec = ParitySpec.constant(1, 1, g.n)
    tau, comps = f_odd_components(g, spec, hubs, VertexSet.empty())
    assert tau == 6
    assert all(len(c) == 7 for c in comps)


def test_f_odd_components_small():
    k2, k3 = complete_graph(2), complete_graph(3)
    assert f_odd_components(k2, ParitySpec.constant(1, 1, 2),
                            VertexSet.empty(), VertexSet.empty())[0] == 0
    assert f_odd_components(k3, ParitySpec.constant(1, 1, 3),
                            VertexSet.empty(), VertexSet.empty())[0] == 1


def test_f_odd_requires_disjoint():
    with pytest.raises(SetsNotDisjoint):
        f_odd_components(complete_graph(3), ParitySpec.constant(1, 1, 3),
                         VertexSet.of([0]), VertexSet.of([0]))


def test_deficiency_extremal_hub_witness():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    assert w.delta == -4  # b*m - r with b=1, m=2, r=6
    assert w.tau == 6
    assert verify_witness(g, spec, w) == (True, "ok")


def test_deficiency_small_cases():
    k2 = complete_graph(2)
    w = deficiency(k2, ParitySpec.constant(1, 1, 2), VertexSet.empty(), VertexSet.empty())
    assert w.delta == 0
    k3 = complete_graph(3)
    w = deficiency(k3, ParitySpec.constant(1, 1, 3), VertexSet.empty(), VertexSet.empty())
    assert w.delta == -1


@given(graph_with_spec())
@settings(max_examples=100)
def test_delta_congruent_to_f_total(data):
    g, spec = data
    s = VertexSet.of(range(0, g.n, 2))
    t = VertexSet.of(range(1, g.n, 2))
    w = deficiency(g, spec, s, t)
    assert (w.delta - spec.f_total) % 2 == 0


def test_decide_c4_two_factor():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert decide_by_enumeration(c4, ParitySpec.constant(2, 2, 4)).feasible


def test_decide_k2_perfect_matching():
    assert decide_by_enumeration(complete_graph(2), ParitySpec.constant(1, 1, 2)).feasible


def test_decide_k3_witness_canonical():
    d = decide_by_enumeration(complete_graph(3), ParitySpec.constant(1, 1, 3))
    assert not d.feasible
    assert d.witness.delta == -1
    assert d.witness.S.members == () and d.witness.T.members == ()


def test_decide_rejects_a_witness_that_does_not_recompute(monkeypatch):
    honest = lovasz.deficiency

    def off_by_one(g, spec, s, t):
        w = honest(g, spec, s, t)
        return DeficiencyWitness(w.S, w.T, w.delta + 1, w.tau, w.odd_components)

    monkeypatch.setattr(lovasz, "deficiency", off_by_one)
    with pytest.raises(SelfCheckFailed, match="mask sweep found delta -1"):
        decide_by_enumeration(complete_graph(3), ParitySpec.constant(1, 1, 3))


def test_decide_empty_sets_counts_odd_components():
    # delta(empty, empty) = -(number of f-odd components of G itself)
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    spec = ParitySpec.constant(1, 1, 6)
    w = deficiency(g, spec, VertexSet.empty(), VertexSet.empty())
    assert w.delta == -2 and w.tau == 2


def test_decide_enumeration_cap():
    g = complete_graph(5)
    with pytest.raises(GraphTooLargeForEnumeration):
        decide_by_enumeration(g, ParitySpec.constant(1, 1, 5), enumeration_cap=4)


def test_verify_witness_rejects_nonnegative_delta():
    k2 = complete_graph(2)
    spec = ParitySpec.constant(1, 1, 2)
    w = deficiency(k2, spec, VertexSet.empty(), VertexSet.empty())
    ok, reason = verify_witness(k2, spec, w)
    assert not ok and "nonnegative" in reason


def test_verify_witness_rejects_tampered_delta():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    tampered = DeficiencyWitness(w.S, w.T, -2, w.tau, w.odd_components)
    ok, reason = verify_witness(g, spec, tampered)
    assert not ok and "delta mismatch" in reason


def test_verify_witness_rejects_out_of_range():
    k2 = complete_graph(2)
    spec = ParitySpec.constant(1, 1, 2)
    w = DeficiencyWitness(VertexSet.of([7]), VertexSet.empty(), -1, 1)
    ok, reason = verify_witness(k2, spec, w)
    assert not ok and "malformed" in reason


def test_witness_serialization_round_trip():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    text = serialize_witness(w)
    assert text == "S: 42 43\nT:\ndelta: -4\ntau: 6\n"
    parsed = parse_witness(text)
    assert parsed.S == w.S and parsed.T == w.T
    assert parsed.delta == w.delta and parsed.tau == w.tau
    assert verify_witness(g, spec, parsed)[0]


@given(graph_with_disjoint_sets(max_n=6))
@settings(max_examples=60)
def test_deficiency_matches_decision_minimum(data):
    # the enumeration's reported minimum is indeed a lower bound over sampled pairs
    g, s, t = data
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, s, t)
    decision = decide_by_enumeration(g, spec)
    if not decision.feasible:
        assert decision.witness.delta <= w.delta
    else:
        assert w.delta >= 0
