from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from paritylab import (
    Factor,
    ParitySpec,
    brute_force_factor,
    build_graph,
    build_parity_gadget,
    complete_graph,
    cycle,
    DeficiencyWitness,
    VertexSet,
    decide_by_enumeration,
    extremal_construction,
    factor_or_witness,
    find_parity_factor,
    petersen,
    random_regular,
    sharpness_certificate,
    verify_factor,
    verify_witness,
)
from paritylab import solver
from paritylab.lovasz import deficiency, serialize_witness
from paritylab.errors import (
    GraphSyntaxError,
    InvalidParitySpec,
    LowerBoundExceedsDegree,
    SelfCheckFailed,
    TooManyEdges,
)
from paritylab.matching import max_matching
from paritylab.solver import normalized_upper, parse_factor, serialize_factor

from conftest import (
    assert_rejects,
    extremal_instances,
    gallai_edmonds_d,
    graph_with_gadget_spec,
    graph_with_spec,
    graphs,
    outcome,
    random_regular_instances,
)
from reference_graph import build_parity_gadget as reference_build_parity_gadget
from reference_solver import verify_factor as reference_verify_factor


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
    assert gm.core[0][1] in gm.adjacency[gm.core[0][0]]  # its one slack pair


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
    g, _ = extremal_construction(6, 2)
    assert find_parity_factor(g, ParitySpec.constant(1, 1, g.n)) is None


def test_find_shortcuts_lower_bound_above_degree():
    spec = ParitySpec.constant(3, 3, 4)
    assert find_parity_factor(cycle(4), spec) is None
    w = factor_or_witness(cycle(4), spec)
    assert (w.S, w.T, w.delta) == (VertexSet.empty(), VertexSet.of(range(4)), -4)
    assert verify_witness(cycle(4), spec, w) == (True, "ok")


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


@pytest.mark.parametrize("edge", [(-1, 4), (0, 10)])
def test_verify_factor_rejects_out_of_range_endpoints(edge):
    # adjacency[-1] is vertex 9's list, and 4 is adjacent to 9
    spec = ParitySpec.constant(1, 1, 10)
    ok, reason = verify_factor(petersen(), spec, Factor(10, (edge,)))
    assert not ok and reason == f"edge ({edge[0]},{edge[1]}) not in the graph"


def test_verify_factor_catches_an_edge_given_in_both_orders():
    # (0,1) and (1,0) are one edge: counted twice, they would give the path
    # 0-1-2 degrees (2, 2, 0), a factor that enumeration proves cannot exist
    g = build_graph(3, [(0, 1), (1, 2)])
    spec = ParitySpec((2, 2, 0), (2, 2, 0))
    assert not decide_by_enumeration(g, spec).feasible
    assert verify_factor(g, spec, Factor(3, ((0, 1), (1, 0)))) == (False, "repeated edge in factor")


# Differential gate: the one-pass verify_factor must give the (ok, reason)
# of the three-pass verifier it replaced, on the first of several faults too.
CORRUPTIONS = ("drop", "foreign", "both orders", "range", "n", "bounds")


@st.composite
def corrupted_factors(draw):
    """A factor with a spec it meets exactly (g = f = its degrees), then each
    corruption or not, as drawn; an added edge goes in at a drawn position."""
    g = draw(graphs(max_n=8))
    edges = draw(st.lists(st.sampled_from(g.edges), unique=True)) if g.edges else []
    deg = Factor(g.n, tuple(edges)).degrees
    n = g.n

    def insert(edge):
        edges.insert(draw(st.integers(0, len(edges))), edge)

    for kind in CORRUPTIONS:
        if not draw(st.booleans()):
            continue
        event(kind)
        if kind == "drop" and edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif kind == "foreign":
            u, v = draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))
            if not g.has_edge(u, v):
                insert((u, v))
        elif kind == "both orders" and edges:
            u, v = draw(st.sampled_from(edges))
            insert((v, u))
        elif kind == "range":
            v = draw(st.integers(0, g.n - 1))
            w = draw(st.sampled_from([-1, g.n, g.n + 3]))
            insert(draw(st.sampled_from([(v, w), (w, v)])))
        elif kind == "n":
            n = draw(st.sampled_from([g.n - 1, g.n + 1]))
        elif kind == "bounds":
            v = draw(st.integers(0, g.n - 1))
            # wrong parity, lower bound above the degree, upper bound below it
            deg[v] = draw(st.sampled_from([deg[v] + 1, deg[v] + 2] + [deg[v] - 2] * (deg[v] >= 2)))
    spec = ParitySpec(tuple(deg), tuple(deg))
    return g, spec, Factor(n, tuple(edges))


@given(corrupted_factors())
# a repeat before a foreign edge: the foreign edge is the failure reported
@example((build_graph(3, [(0, 1), (1, 2)]), ParitySpec((1, 1, 0), (1, 1, 0)),
          Factor(3, ((0, 1), (1, 0), (0, 2)))))
@settings(max_examples=400, deadline=None)
def test_verify_factor_matches_the_three_pass_reference(case):
    g, spec, factor = case
    assert verify_factor(g, spec, factor) == reference_verify_factor(g, spec, factor)


@pytest.mark.parametrize("n", [2, 12])
def test_spec_length_must_match_graph(n):
    spec = ParitySpec.constant(1, 1, n)
    with pytest.raises(InvalidParitySpec, match="spec covers"):
        find_parity_factor(petersen(), spec)
    factor = find_parity_factor(petersen(), ParitySpec.constant(1, 1, 10))
    with pytest.raises(InvalidParitySpec, match="spec covers"):
        verify_factor(petersen(), spec, factor)


@pytest.mark.parametrize("n", [2, 12])
def test_gadget_spec_length_must_match_graph(n):
    with pytest.raises(InvalidParitySpec, match="spec covers"):
        build_parity_gadget(petersen(), ParitySpec.constant(1, 1, n))


def test_find_verifies_the_recovered_factor(monkeypatch):
    import paritylab.solver as solver

    monkeypatch.setattr(solver, "verify_factor", lambda g, spec, f: (False, "planted"))
    with pytest.raises(SelfCheckFailed, match="planted"):
        find_parity_factor(petersen(), ParitySpec.constant(1, 1, 10))


# Golden outputs at benchmark scale, computed before the matcher's scan was
# cut to one "queued" test per edge and the gadget build lost H's edge tuple.


@pytest.mark.parametrize("n,r,seed,a,b,digest", [
    (2000, 3, 1, 1, 1, "9040226f7292881f9f3efa0834db90e106c93793da6a6b04b6c0ae52066a2080"),
    (1000, 4, 2, 1, 3, "fc7c4dfb058fa147b03e830aae0ef63c9d6a067fbd5d01568d7db7710779c9c2"),
    (600, 6, 3, 2, 4, "10fe32e467dbca2f1a852b261b1f24ad463a81bd79dfbd8a1d148854caf52f29"),
])
def test_factor_matches_golden_digest_at_scale(n, r, seed, a, b, digest):
    factor = factor_or_witness(random_regular(n, r, seed), ParitySpec.constant(a, b, n))
    assert hashlib.sha256(serialize_factor(factor).encode()).hexdigest() == digest


def test_extremal_witness_matches_golden_at_r12():
    g, _ = extremal_construction(12, 2)
    witness = factor_or_witness(g, ParitySpec.constant(1, 3, g.n))
    assert serialize_witness(witness) == "S: 156 157\nT:\ndelta: -6\ntau: 12\n"


def test_extremal_witness_matches_golden_at_r16():
    # 14 exposed gadget nodes, so 14 failed searches over pruned trees
    g, _ = extremal_construction(16, 2)
    witness = factor_or_witness(g, ParitySpec.constant(1, 1, g.n))
    assert serialize_witness(witness) == "S: 272 273\nT:\ndelta: -14\ntau: 16\n"


# The solve path reads only the gadget's adjacency: H's edge tuple, built on
# first access to ``GadgetMap.h``, is never built.


@pytest.mark.parametrize("feasible", [True, False])
def test_solve_never_builds_the_gadget_edge_tuple(feasible, monkeypatch):
    built = []

    def spy(g, spec):
        built.append(build_parity_gadget(g, spec))
        return built[-1]

    monkeypatch.setattr(solver, "build_parity_gadget", spy)
    g = petersen() if feasible else extremal_construction(4, 2)[0]
    result = factor_or_witness(g, ParitySpec.constant(1, 1, g.n))
    assert isinstance(result, Factor) == feasible
    assert len(built) == 1 and "h" not in built[0].__dict__
    assert built[0].h.adjacency is built[0].adjacency  # h is still there on demand


# The solver matches through the public ``max_matching``, one call per gadget,
# and reads ``Matching.mate`` and ``D``.


def test_solver_reads_the_public_matcher(monkeypatch):
    calls = []

    def spy(gm):
        calls.append(max_matching(gm))
        return calls[-1]

    monkeypatch.setattr(solver, "max_matching", spy, raising=True)
    for g, feasible in [
        (petersen(), True),
        (extremal_construction(4, 2)[0], False),
    ]:
        calls.clear()
        result = factor_or_witness(g, ParitySpec.constant(1, 1, g.n))
        assert isinstance(result, Factor) == feasible
        assert len(calls) == 1
        assert (-1 in calls[0].mate) == bool(calls[0].A) == (not feasible)
    calls.clear()
    factor_or_witness(cycle(4), ParitySpec.constant(3, 3, 4))  # g > d: no gadget
    assert calls == []


def test_factor_serialization_round_trip():
    spec = ParitySpec.constant(1, 1, 10)
    f = find_parity_factor(petersen(), spec)
    text = serialize_factor(f)
    assert text.splitlines()[0] == "factor 5"
    assert parse_factor(text, 10) == f


@pytest.mark.parametrize("text,line", [
    ("factor 1\n0 1 2\n", "line 2: expected two integers, got '0 1 2'"),
    ("factor 2\n0 1\n# comment\n3\n", "line 4: expected two integers, got '3'"),
    ("factor 1\n0 x\n", "line 2: expected two integers, got '0 x'"),
    ("factorial 0\n", "factor block must start with 'factor <k>'"),
    ("factor 0 0\n", "factor block must start with 'factor <k>'"),
])
def test_parse_factor_names_the_bad_line(text, line):
    with pytest.raises(GraphSyntaxError) as info:
        parse_factor(text, 10)
    assert str(info.value) == line


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


# Certifier gate: one gadget matching decides, and an infeasible answer comes
# with the barrier witness.


def check_against_enumeration(g, spec):
    """Assert the gate on one instance; return 'feasible' or 'barrier'."""
    result = factor_or_witness(g, spec)
    decision = decide_by_enumeration(g, spec)
    assert isinstance(result, Factor) == decision.feasible
    if isinstance(result, Factor):
        assert verify_factor(g, spec, result) == (True, "ok")
        return "feasible"
    assert isinstance(result, DeficiencyWitness)
    assert verify_witness(g, spec, result) == (True, "ok")
    return "barrier"


@given(st.one_of(graph_with_spec(max_n=8), graph_with_gadget_spec(max_n=8)))
@settings(max_examples=300, deadline=None)
def test_certifier_agrees_with_enumeration(data):
    event(check_against_enumeration(*data))


def test_certifier_witness_share_on_seeded_specs():
    # 400 seeded (g,f) instances on 5..8 vertices: every infeasible one gets
    # the barrier witness
    rng = random.Random("certifier-gate")
    counts = dict.fromkeys(("feasible", "barrier"), 0)
    for _ in range(400):
        n = rng.randint(5, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        low = [rng.randint(0, g.degree(v)) for v in range(n)]
        spec = ParitySpec(tuple(low), tuple(x + 2 * rng.randint(0, 1) for x in low))
        counts[check_against_enumeration(g, spec)] += 1
    assert counts == {"feasible": 90, "barrier": 310}


@given(st.one_of(graph_with_gadget_spec(max_n=9), graph_with_spec(max_n=9)))
@settings(max_examples=300, deadline=None)
def test_min_delta_is_minus_the_gadget_deficiency(data):
    # min-max: where g <= d, the least delta over all 3^n pairs (0 if
    # feasible) is minus the number of gadget nodes a maximum matching of H
    # leaves exposed, and the barrier witness attains it
    g, spec = data
    if any(spec.g[v] > g.degree(v) for v in range(g.n)):
        event("g > d: no gadget")
        return
    h = build_parity_gadget(g, spec).h
    target = -(h.n - 2 * len(max_matching(h)))
    decision = decide_by_enumeration(g, spec)
    assert (0 if decision.feasible else decision.witness.delta) == target
    result = factor_or_witness(g, spec)
    if decision.feasible:
        assert isinstance(result, Factor)
        return
    assert result.delta == target
    assert verify_witness(g, spec, result) == (True, "ok")


def test_nonnegative_projected_delta_is_a_self_check_failure(monkeypatch):
    # the projection is exact, so a pair with delta >= 0 is a fault, not an answer
    g, _ = extremal_construction(4, 2)
    monkeypatch.setattr(
        solver, "deficiency", lambda g, spec, s, t: DeficiencyWitness(s, t, 0, 0)
    )
    with pytest.raises(SelfCheckFailed, match="delta 0 >= 0"):
        factor_or_witness(g, ParitySpec.constant(1, 1, g.n))


def neighbourhood_projection(g, spec):
    """The barrier witness with A = N(D) - D walked from D's adjacency, the
    projection the solver made before the matcher returned A."""
    gm = build_parity_gadget(g, spec)
    d = set(gallai_edmonds_d(gm, max_matching(gm)))
    barrier = {y for x in d for y in gm.adjacency[x]} - d
    s, t = [], []
    for v in range(g.n):
        if gm.outer[v] and spec.f[v] <= g.degree(v) and barrier.issuperset(gm.outer[v]):
            s.append(v)
        elif barrier.issuperset(gm.core[v]):
            t.append(v)
    return deficiency(g, spec, VertexSet.of(s), VertexSet.of(t))


@given(graph_with_gadget_spec(max_n=9))
@settings(max_examples=300, deadline=None)
def test_barrier_witness_matches_the_neighbourhood_projection(data):
    result = factor_or_witness(*data)
    if isinstance(result, Factor):
        event("feasible")
        return
    event("infeasible")
    assert result == neighbourhood_projection(*data)


@pytest.mark.parametrize("r", [4, 6, 8, 10])
def test_certifier_returns_the_paper_certificate_on_the_extremal_family(r):
    count = 0
    for m in range(2, r - 1, 2):
        g, hubs = extremal_construction(r, m)
        for b in range(1, r, 2):
            for a in range(1, b + 1, 2):
                if b * m < r:
                    spec = ParitySpec.constant(a, b, g.n)
                    result = factor_or_witness(g, spec)
                    assert result == sharpness_certificate(r, m, a, b), (m, a, b, result)
                    assert result.S == hubs
                    assert result == neighbourhood_projection(g, spec)
                    count += 1
    assert count == {4: 1, 6: 2, 8: 5, 10: 6}[r]


# ---- rejections with their full messages

@pytest.mark.parametrize("call,expected", [
    (lambda: verify_factor(complete_graph(2), ParitySpec.constant(2, 2, 2), Factor(2, ())),
     (False, "vertex 0: degree 0 below lower bound 2")),
    (lambda: verify_factor(complete_graph(3), ParitySpec.constant(0, 0, 3),
                           Factor(3, complete_graph(3).edges)),
     (False, "vertex 0: degree 2 above upper bound 0")),
    (lambda: parse_factor("factor 2\n0 1\n", 2),
     GraphSyntaxError("factor header promised 2 edges, found 1")),
], ids=["below-lower-bound", "above-upper-bound", "short-factor-block"])
def test_solver_rejections(call, expected):
    assert_rejects(call, expected)
