from __future__ import annotations

import dataclasses
import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    Decision,
    DeficiencyWitness,
    ParitySpec,
    VertexSet,
    build_graph,
    complete_graph,
    components_after_removal,
    decide_by_enumeration,
    deficiency,
    edges_between,
    extremal_construction,
    factor_or_witness,
    random_regular,
    verify_witness,
)
from paritylab import lovasz
from paritylab.errors import CapExceeded, ParityLabError, SelfCheckFailed
from paritylab.lovasz import parse_witness, serialize_witness

import reference_lovasz
from conftest import (
    assert_rejects,
    disjoint_sets,
    graph_with_disjoint_sets,
    graph_with_gadget_spec,
    graph_with_spec,
    graphs,
)


def test_spec_validation():
    ParitySpec((1, 1), (3, 3))
    assert_rejects(lambda: ParitySpec((1,), (2,)),
                   ParityLabError("g(0) = 1 and f(0) = 2 differ in parity"))
    assert_rejects(lambda: ParitySpec((3,), (1,)), ParityLabError("g(0) = 3 exceeds f(0) = 1"))
    assert_rejects(lambda: ParitySpec((-1,), (1,)), ParityLabError("g(0) = -1 is negative"))


def test_constant_spec():
    spec = ParitySpec.constant(1, 3, 4)
    assert spec.g == (1, 1, 1, 1) and spec.f == (3, 3, 3, 3)
    assert spec.is_constant()


def test_odd_components_extremal():
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    scan = lovasz._component_scan(g, spec, hubs, VertexSet.empty())
    assert deficiency(g, spec, hubs, VertexSet.empty()).tau == 6
    assert [(len(cvs), is_odd) for cvs, _, is_odd in scan] == [(7, True)] * 6


def test_odd_components_small():
    k2, k3 = complete_graph(2), complete_graph(3)
    assert deficiency(k2, ParitySpec.constant(1, 1, 2),
                      VertexSet.empty(), VertexSet.empty()).tau == 0
    assert deficiency(k3, ParitySpec.constant(1, 1, 3),
                      VertexSet.empty(), VertexSet.empty()).tau == 1


def test_f_odd_requires_disjoint():
    assert_rejects(
        lambda: deficiency(complete_graph(3), ParitySpec.constant(1, 1, 3),
                           VertexSet.of([0]), VertexSet.of([0])),
        ParityLabError("sets share vertices [0]"),
    )


def test_deficiency_extremal_hub_witness():
    g, hubs = extremal_construction(6, 2)
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


def test_decision_holds_only_its_witness():
    # the verdict is read off the witness, so a feasible verdict with a
    # witness cannot be built
    assert [field.name for field in dataclasses.fields(Decision)] == ["witness"]
    assert Decision(None).feasible
    d = decide_by_enumeration(complete_graph(3), ParitySpec.constant(1, 1, 3))
    assert Decision(d.witness) == d and not d.feasible
    with pytest.raises(AttributeError):
        d.feasible = True


def test_decide_k3_witness_canonical():
    d = decide_by_enumeration(complete_graph(3), ParitySpec.constant(1, 1, 3))
    assert not d.feasible
    assert d.witness.delta == -1
    assert d.witness.S.members == () and d.witness.T.members == ()


def test_decide_rejects_a_witness_that_does_not_recompute(monkeypatch):
    honest = lovasz.deficiency

    def off_by_one(g, spec, s, t):
        w = honest(g, spec, s, t)
        return DeficiencyWitness(w.S, w.T, w.delta + 1, w.tau)

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
    assert_rejects(
        lambda: decide_by_enumeration(g, ParitySpec.constant(1, 1, 5), enumeration_cap=4),
        CapExceeded("n = 5 exceeds enumeration cap 4"),
    )


def test_enumeration_cap_is_bounded_whatever_the_caller_asks(monkeypatch):
    # the sweep's 2^n-entry tables fit in memory only up to MAX_ENUMERATION_N;
    # a stub in place of the table builder shows where each call stops
    # without allocating any table
    class ReachedTables(Exception):
        pass

    def stub(*tables):
        raise ReachedTables

    monkeypatch.setattr(lovasz, "_mask_tables", stub)
    top = lovasz.MAX_ENUMERATION_N
    with pytest.raises(ReachedTables):
        decide_by_enumeration(build_graph(top, []), ParitySpec.constant(0, 0, top), top + 20)
    assert_rejects(
        lambda: decide_by_enumeration(
            build_graph(top + 1, []), ParitySpec.constant(0, 0, top + 1), top + 20),
        CapExceeded(f"n = {top + 1} exceeds enumeration cap {top}"),
    )


def test_verify_witness_rejects_nonnegative_delta():
    k2 = complete_graph(2)
    spec = ParitySpec.constant(1, 1, 2)
    w = deficiency(k2, spec, VertexSet.empty(), VertexSet.empty())
    ok, reason = verify_witness(k2, spec, w)
    assert not ok and "nonnegative" in reason


def test_verify_witness_rejects_tampered_delta():
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    tampered = DeficiencyWitness(w.S, w.T, -2, w.tau)
    ok, reason = verify_witness(g, spec, tampered)
    assert not ok and "delta mismatch" in reason


def test_verify_witness_rejects_out_of_range():
    k2 = complete_graph(2)
    spec = ParitySpec.constant(1, 1, 2)
    w = DeficiencyWitness(VertexSet.of([7]), VertexSet.empty(), -1, 1)
    ok, reason = verify_witness(k2, spec, w)
    assert not ok and "malformed" in reason


def test_verify_witness_does_not_hide_a_library_fault(monkeypatch):
    def broken(g, spec, s, t):
        raise IndexError("planted")

    monkeypatch.setattr(lovasz, "_component_scan", broken)
    k2 = complete_graph(2)
    w = DeficiencyWitness(VertexSet.empty(), VertexSet.empty(), -1, 1)
    with pytest.raises(IndexError, match="planted"):
        verify_witness(k2, ParitySpec.constant(1, 1, 2), w)


def test_witness_serialization_round_trip():
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    text = serialize_witness(w)
    assert text == "S: 42 43\nT:\ndelta: -4\ntau: 6\n"
    assert parse_witness(text) == w
    assert verify_witness(g, spec, w)[0]


@pytest.mark.parametrize("text,line", [
    ("S: 1 a\nT:\ndelta: -1\ntau: 1\n", "line 1: bad S field '1 a'"),
    ("S:\n# comment\nT: 2.5\ndelta: -1\ntau: 1\n", "line 3: bad T field '2.5'"),
    ("S: 1\nT:\ndelta: x\ntau: 1\n", "line 3: bad delta field 'x'"),
    ("S: 1\nT:\ndelta: -1\ntau: 1 2\n", "line 4: bad tau field '1 2'"),
    ("S:\nT:\nhello world\ndelta: -1\ntau: 1\n", "line 3: unknown witness field 'hello world'"),
    ("S:\nT:\ndelta: -1\ntau: 1\nfoo: bar\n", "line 5: unknown witness field 'foo'"),
    ("S:\nT:\ndelta: 5\ndelta: -2\ntau: 1\n", "line 4: repeated witness field 'delta'"),
])
def test_parse_witness_names_the_bad_line(text, line):
    assert_rejects(lambda: parse_witness(text), ParityLabError(line))


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


# ---- the rest-mask Gray-code sweep against the per-code decode it replaced

def assert_matches_reference(g, spec):
    # Decision equality covers the witness, so the verdict, and its S, T,
    # delta, tau and odd components
    assert decide_by_enumeration(g, spec) == reference_lovasz.decide_by_enumeration(g, spec)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (0, 2)])
def test_enumeration_matches_reference_on_every_graph_up_to_five(a, b):
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert_matches_reference(g, ParitySpec.constant(a, b, n))


@given(graph_with_spec(max_n=8))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_reference_on_random_specs(data):
    assert_matches_reference(*data)


@pytest.mark.parametrize("n,r", [(9, 4), (10, 3), (10, 4)])
def test_enumeration_matches_reference_on_random_regular(n, r):
    rng = random.Random(f"enumeration/{n}/{r}")
    g = random_regular(n, r, seed=n * r)
    for _ in range(2):
        low = [rng.randint(0, r) for _ in range(n)]
        spec = ParitySpec(tuple(low), tuple(x + 2 * rng.randint(0, 1) for x in low))
        assert_matches_reference(g, spec)


@pytest.mark.parametrize("n,edges,a,b", [
    (0, [], 1, 1),
    (6, [], 1, 1),
    (6, [], 0, 2),
    (9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)], 1, 1),
    (9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)], 1, 3),
])
def test_enumeration_matches_reference_on_tie_heavy_graphs(n, edges, a, b):
    # many pairs attain the minimum, so only the explicit code tie-break
    # recovers the smallest one
    assert_matches_reference(build_graph(n, edges), ParitySpec.constant(a, b, n))


# ---- the bound-pruned sweep against the full Gray-code sweep it replaced

def _sweep_instance(kind, n, size, shape):
    """A seeded graph and spec: "regular" graphs from the sampler, "sparse"
    ones with size edges drawn uniformly, "split" ones a random cubic graph on
    size vertices beside a cycle on the other n - size, "shuffled" ones a
    split graph with its vertex ids permuted at random, and "scattered" ones a
    random cubic graph on size vertices drawn at random, the other n - size
    isolated; shape is a constant (a, b) or "vertex" for a per-vertex window."""
    rng = random.Random(f"gray-sweep/{kind}/{n}/{size}/{shape}")
    if kind == "regular":
        g = random_regular(n, size, seed=rng.randrange(2 ** 32))
    elif kind == "sparse":
        pairs = list(combinations(range(n), 2))
        g = build_graph(n, rng.sample(pairs, size))
    else:
        cubic = random_regular(size, 3, seed=rng.randrange(2 ** 32))
        if kind == "scattered":
            ids = rng.sample(range(n), size)
            g = build_graph(n, [(ids[u], ids[v]) for u, v in cubic.edges])
        else:
            cycle = [(size + i, size + (i + 1) % (n - size)) for i in range(n - size)]
            ids = rng.sample(range(n), n) if kind == "shuffled" else range(n)
            g = build_graph(n, [(ids[u], ids[v]) for u, v in [*cubic.edges, *cycle]])
    if shape == "vertex":
        low = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
        return g, ParitySpec(tuple(low), tuple(x + 2 * rng.randint(0, 1) for x in low))
    return g, ParitySpec.constant(*shape, n)


# feasible and infeasible instances, witnesses with S or T nonempty, and
# f(V) odd (regular 11, sparse 9 and 11 with 17 edges, split 10 and 12) as
# well as even; every sparse case but the (1, 1) one has a vertex with
# g(v) > d(v), and three sparse cases and the split graphs are disconnected;
# in the 9-cycle of regular 9 2 (2, 2), d - g = 0 at every vertex, so all the
# slack of a block lies in tau; the shuffled graph has two components, and
# the scattered one two isolated vertices beside a cubic graph, with their
# vertex ids interleaved, so the sweep's breadth-first numbering spans several
# components and differs from the vertex ids
SWEEP_CASES = [
    ("regular", 9, 4, "vertex"),
    ("regular", 10, 3, (1, 1)),
    ("regular", 11, 4, (1, 1)),
    ("regular", 12, 4, (1, 1)),
    ("sparse", 9, 10, "vertex"),
    ("sparse", 10, 11, (2, 2)),
    ("sparse", 10, 14, (1, 1)),
    ("sparse", 11, 13, (2, 2)),
    ("sparse", 11, 17, "vertex"),
    ("sparse", 12, 14, "vertex"),
    ("split", 10, 6, "vertex"),
    ("split", 11, 6, (2, 2)),
    ("split", 12, 6, "vertex"),
    ("regular", 9, 2, (2, 2)),
    ("shuffled", 12, 8, "vertex"),
    ("scattered", 12, 10, "vertex"),
]


@pytest.mark.parametrize(
    "kind,n,size,shape", SWEEP_CASES, ids=["-".join(map(str, case)) for case in SWEEP_CASES]
)
def test_pruned_sweep_matches_the_gray_sweep(kind, n, size, shape):
    g, spec = _sweep_instance(kind, n, size, shape)
    assert decide_by_enumeration(g, spec) == reference_lovasz.decide_by_gray_sweep(g, spec)


# ---- delta(S,T) checks S and T once, on entry, and counts e(C,T) directly

def _hub_witness(r):
    g, hubs = extremal_construction(r, 2)
    return g, ParitySpec.constant(1, 1, g.n), hubs, VertexSet.empty()


def _even_t_pair(n):
    # 3 3 on even ids and 1 1 on odd ids, T = the even ids
    g = random_regular(n, 3, seed=1)
    window = tuple(3 if v % 2 == 0 else 1 for v in range(n))
    return g, ParitySpec(window, window), VertexSet.empty(), VertexSet.of(range(0, n, 2))


@pytest.mark.parametrize("build,size", [(_hub_witness, 10), (_even_t_pair, 2000)])
def test_deficiency_checks_bounds_at_most_three_times(build, size, bound_checks):
    # S and T on entry, S + T in components_after_removal: never once per
    # component of G-(S+T), of which these pairs have 10 and 254
    instance = build(size)
    bound_checks.clear()
    deficiency(*instance)
    assert len(bound_checks) <= 3


@given(st.one_of(graph_with_spec(), graph_with_gadget_spec()))
@settings(max_examples=200)
def test_every_returned_witness_round_trips_whole(data):
    # graph_with_spec draws g(v) > d(v) too (the short-T path), while
    # graph_with_gadget_spec keeps the gadget (the barrier path)
    g, spec = data
    for w in (factor_or_witness(g, spec), decide_by_enumeration(g, spec).witness):
        if isinstance(w, DeficiencyWitness):
            assert parse_witness(serialize_witness(w)) == w


@st.composite
def instance_with_disjoint_sets(draw, max_n=8):
    """A graph, a per-vertex spec drawn as in ``graph_with_spec`` and a
    disjoint pair (S, T), T holding most vertices in about half the draws."""
    g = draw(graphs(min_n=1, max_n=max_n))
    g_vals = [draw(st.integers(0, 4)) for _ in range(g.n)]
    f_vals = [gv + 2 * draw(st.integers(0, 2)) for gv in g_vals]
    s, t = draw(disjoint_sets(g.n))
    return g, ParitySpec(tuple(g_vals), tuple(f_vals)), s, t


@given(instance_with_disjoint_sets())
@settings(max_examples=200)
def test_deficiency_matches_an_independent_evaluation(data):
    g, spec, s, t = data
    w = deficiency(g, spec, s, t)
    adj_mask = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    s_mask = sum(1 << v for v in s)
    t_mask = sum(1 << v for v in t)
    assert w.delta == reference_lovasz._delta_masks(
        g.n, adj_mask, g.degrees, spec, s_mask, t_mask, (1 << g.n) - 1
    )
    odd = [
        cvs
        for cvs in components_after_removal(g, VertexSet.of([*s, *t]))
        if (edges_between(g, cvs, t) + spec.f_sum(cvs)) % 2 == 1
    ]
    assert (w.S, w.T, w.tau) == (s, t, len(odd))
    assert [cvs for cvs, _, is_odd in lovasz._component_scan(g, spec, s, t) if is_odd] == odd


# (blocks walked, codes walked) on each of SWEEP_CASES, of 2^n blocks and 3^n
# codes; computed when the sweep took to numbering the vertices breadth-first
SWEEP_WORK = [
    (1, 1), (1, 1), (1, 1), (1, 1), (65, 2917), (98, 19999), (56, 11203), (21, 4379),
    (16, 3873), (23, 511), (37, 6877), (1, 1), (11, 1777), (1, 1), (3, 13), (36, 3353),
]
# blocks whose components are scanned on each of SWEEP_CASES, of 2^n; computed
# when bound (4), the one-sided charge read before the scan, came in
SWEEP_SCANS = [4, 201, 79, 187, 182, 356, 115, 160, 197, 572, 232, 1882, 281, 1, 342, 1261]


def test_the_bound_skips_the_pinned_blocks(monkeypatch):
    # each scanned block makes one component scan, and each walked block
    # takes one islice of the Gray-code ruler; a change to a bound, its
    # parity round-up or its tie rule moves these counts even where the
    # decision stays the same
    scanned, walked = [], []
    scan = lovasz._free_components

    def scan_spy(*block):
        scanned.append(block)
        return scan(*block)

    def walk_spy(ruler, steps):
        walked.append(steps + 1)
        return islice(ruler, steps)

    monkeypatch.setattr(lovasz, "_free_components", scan_spy)
    monkeypatch.setattr(lovasz, "islice", walk_spy)
    scans, work = [], []
    for case in SWEEP_CASES:
        scanned.clear()
        walked.clear()
        decide_by_enumeration(*_sweep_instance(*case))
        scans.append(len(scanned))
        work.append((len(walked), sum(walked)))
    assert work == SWEEP_WORK
    assert scans == SWEEP_SCANS


@st.composite
def graph_with_slack_window(draw, max_n=9):
    """A graph and a per-vertex window with g <= d <= f and f = d (mod 2), so
    that the whole edge set is a factor."""
    g = draw(graphs(min_n=0, max_n=max_n))
    degrees = g.degrees
    low = tuple(d - 2 * draw(st.integers(0, d // 2)) for d in degrees)
    return g, ParitySpec(low, tuple(d + 2 * draw(st.integers(0, 2)) for d in degrees))


@given(graph_with_slack_window())
@settings(max_examples=200)
def test_slack_windows_are_decided_by_one_scan(data):
    # min(f - d, d - g) >= 0 and d + f is even at every vertex, so the
    # one-sided charge is 0 on every block: the first block, R = V, gives
    # delta = 0 with code 0, and every later block is skipped unscanned
    g, spec = data
    scanned = []
    scan = lovasz._free_components

    def scan_spy(*block):
        scanned.append(block)
        return scan(*block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lovasz, "_free_components", scan_spy)
        assert decide_by_enumeration(g, spec) == Decision(None)
    assert len(scanned) == 1


def _roots(g, rest, rank=None):
    """The vertices of rest with no neighbour in rest ranked below them; the
    rank is the vertex id unless given."""
    rank = rank or range(g.n)
    return sum(not any(rank[u] < rank[v] and u in rest for u in g.adjacency[v]) for v in rest)


def _bfs_rank(g):
    """Each vertex's place in the sweep's breadth-first numbering: from
    vertex 0, neighbours in ascending id, each further component from its
    least unnumbered vertex."""
    rank = {}
    for root in range(g.n):
        if root not in rank:
            rank[root] = len(rank)
            queue = deque([root])
            while queue:
                for u in g.adjacency[queue.popleft()]:
                    if u not in rank:
                        rank[u] = len(rank)
                        queue.append(u)
    return [rank[v] for v in range(g.n)]


def _block_bounds(g, spec, s, t):
    """Seven lower bounds on delta over every pair with S + T = O, from the
    definitions. The components C of G - O whose e(C,T) + f(C) some T in O
    could make odd are free: f(C) is odd, or q_C, the x in O with an odd
    number of neighbours in C, is not empty. The first two bounds are less
    every free component: each vertex of O pays f or d - g, less e(G[O]); or
    each pays f, and in T also d - g - f - |N(x) & O|, with e(G[T]) >= 0 left
    out. The third is the pairwise bound, in exact fractions. The fourth and
    fifth are the first and second with the roots of G - O in place of the
    free components: its vertices with no neighbour outside O that comes
    before them in the sweep's breadth-first numbering. The sixth is the
    one-sided charge: each vertex of O pays min(f - d, d - g), less the
    components of G - O with d + f odd in sum, the only ones that can be
    f-odd with no neighbour in S. The seventh is the sixth as the sweep reads
    it: |O & N| times the least of those payments, N the vertices where it
    is below 0, less the smaller of the roots and the vertices of G - O with
    d + f odd."""
    inside = [*s, *t]
    nbrs = {x: set(g.adjacency[x]) for x in inside}
    deg_o = [len(nbrs[x] & set(inside)) for x in inside]
    free = []  # (q_C, whether f(C) is odd) of each free component
    for cvs in components_after_removal(g, VertexSet.of(inside)):
        q = [x for x in inside if len(nbrs[x] & set(cvs)) % 2 == 1]
        odd = spec.f_sum(cvs) % 2 == 1
        if q or odd:
            free.append((q, odd))
    first = sum(min(spec.f[x], g.degree(x) - spec.g[x]) for x in inside) - sum(deg_o) // 2
    second = sum(
        spec.f[x] + min(0, g.degree(x) - spec.g[x] - spec.f[x] - k)
        for x, k in zip(inside, deg_o)
    )
    rest = set(range(g.n)) - set(inside)
    roots = _roots(g, rest, _bfs_rank(g))
    charge = [min(spec.f[v] - g.degree(v), g.degree(v) - spec.g[v]) for v in range(g.n)]
    worst = min([0, *charge])
    odd_sum = {v for v in range(g.n) if (g.degree(v) + spec.f[v]) % 2 == 1}
    tau_0 = sum(
        len(odd_sum & set(cvs)) % 2 for cvs in components_after_removal(g, VertexSet.of(inside))
    )
    return (
        first - len(free),
        second - len(free),
        _pairwise_bound(g, spec, inside, free),
        first - roots,
        second - roots,
        sum(charge[x] for x in inside) - tau_0,
        sum(charge[x] < 0 for x in inside) * worst - min(roots, len(odd_sum & rest)),
    )


def _pairwise_bound(g, spec, inside, free):
    """delta >= sum of vertex terms, pair terms and constants: x pays f(x) on
    S and d(x) - g(x) on T, less 1 for each free C with q_C = {x} that x's
    side makes odd (S if f(C) is odd, T if not); -1 for each edge of G[O]
    whose ends take different sides, and for each free C with q_C = {x, y}
    whose e(C,T) + f(C) their sides make odd; -1 for each other free C. Each
    vertex's term is split evenly over the pair terms it is in, each pair
    term is minimised alone over its four side choices, and the sum is
    rounded up."""
    cost = {x: {"S": Fraction(spec.f[x]), "T": Fraction(g.degree(x) - spec.g[x])} for x in inside}
    pairs = []  # (x, y, the side choices that cost 1)
    constant = 0
    split = {("S", "T"), ("T", "S")}
    for q, odd in free:
        if len(q) == 1:
            cost[q[0]]["S" if odd else "T"] -= 1
        elif len(q) == 2:
            pairs.append((*q, {("S", "S"), ("T", "T")} if odd else split))
        else:
            constant -= 1
    pairs += [(x, y, split) for x, y in combinations(inside, 2) if g.has_edge(x, y)]
    k = {x: sum(x in pair[:2] for pair in pairs) for x in inside}
    total = constant + sum(min(cost[x].values()) for x in inside if k[x] == 0)
    for x, y, charged in pairs:
        total += min(
            cost[x][a] / k[x] + cost[y][b] / k[y] - ((a, b) in charged)
            for a in "ST" for b in "ST"
        )
    return math.ceil(total)


@given(instance_with_disjoint_sets(max_n=7))
@settings(max_examples=300)
def test_block_lower_bounds_hold(data):
    g, spec, s, t = data
    inside = [*s, *t]
    least = min(
        deficiency(g, spec, VertexSet.of(set(inside) - set(side)), VertexSet.of(side)).delta
        for k in range(len(inside) + 1)
        for side in combinations(inside, k)
    )
    bounds = _block_bounds(g, spec, s, t)
    for bound in bounds:
        # delta = f(V) (mod 2), so the bound may be rounded up to that parity
        assert least >= bound + (bound - spec.f_total) % 2
    # the bounds read before the scan skip subsets of the blocks that bounds
    # (1) and (2) skip, and the sweep's one-sided charge a subset of those
    # that its exact form skips
    assert bounds[3] <= bounds[0] and bounds[4] <= bounds[1]
    assert bounds[6] <= bounds[5]
    # the pairwise bound is never below (1) less free, so the sweep does not
    # test (1) after the scan
    assert bounds[0] <= bounds[2]


def test_the_pairwise_bound_can_fall_below_bound_two():
    # (2) less free is not dominated by (3): on this block (3)'s even split of
    # vertex 0's terms sends it to S in one pair term and to T in another,
    # and (2), rounded up to the parity of f(V) = 3, exceeds (3) rounded, so
    # the sweep keeps its post-scan test of (2)
    g = build_graph(7, [
        (0, 1), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3),
        (1, 4), (2, 4), (3, 4), (3, 5), (4, 6),
    ])
    spec = ParitySpec((1, 0, 1, 1, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0))
    bounds = _block_bounds(g, spec, VertexSet.of([0]), VertexSet.of([3, 4, 6]))
    assert (bounds[1], bounds[2], spec.f_total) == (0, -1, 3)


@given(graph_with_spec(max_n=8))
@settings(max_examples=100)
def test_mask_tables_match_their_definitions(data):
    # every component of G[R] has one least vertex, which has no smaller
    # neighbour in R, so roots(R) is at least the number of components
    g, spec = data
    n = g.n
    adj_mask = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    least = [min(spec.f[v], g.degree(v) - spec.g[v]) for v in range(n)]
    code_of, floor_of, roots = lovasz._mask_tables(adj_mask, [3 ** v for v in range(n)], least)
    assert len(code_of) == len(floor_of) == len(roots) == 1 << n
    for mask in range(1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        inside = set(members)
        outside = VertexSet.of(v for v in range(n) if v not in inside)
        assert code_of[mask] == sum(3 ** v for v in members)
        assert floor_of[mask] == sum(least[v] for v in members) - sum(
            u in inside for v in members for u in g.adjacency[v]
        ) // 2
        assert roots[mask] == _roots(g, inside)
        assert roots[mask] >= len(components_after_removal(g, outside))


# ---- rejections with their full messages

@pytest.mark.parametrize("call,expected", [
    (lambda: ParitySpec((1, 1), (1,)),
     ParityLabError("g and f must have the same length")),
    (lambda: parse_witness("S: 1\nT:\ndelta: -1\n"),
     ParityLabError("witness block missing field 'tau'")),
    (lambda: verify_witness(
        complete_graph(3), ParitySpec.constant(1, 1, 3),
        DeficiencyWitness(VertexSet.empty(), VertexSet.empty(), -1, 2)),
     (False, "tau mismatch: recorded 2, recomputed 1")),
    # a spec that does not fit the graph is no fault of the witness
    (lambda: verify_witness(
        complete_graph(2), ParitySpec.constant(1, 1, 3),
        DeficiencyWitness(VertexSet.empty(), VertexSet.empty(), -1, 1)),
     ParityLabError("spec covers 3 vertices, graph has 2")),
], ids=["spec-lengths", "missing-tau", "tau-mismatch", "witness-spec-length"])
def test_lovasz_rejections(call, expected):
    assert_rejects(call, expected)
