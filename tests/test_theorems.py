from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritylab import (
    DeficiencyWitness,
    ParitySpec,
    VertexSet,
    build_graph,
    check_main_conditions,
    complete_graph,
    components_after_removal,
    deficiency,
    edge_connectivity,
    edges_between,
    extremal_construction,
    factor_or_witness,
    m_star,
    petersen,
    random_regular,
    sharpness_certificate,
    small_cut,
)
from paritylab import lovasz, theorems
from paritylab.errors import ParityLabError

from conftest import assert_rejects, disjoint_sets, graphs


def test_m_star():
    assert m_star(2) == 3
    assert m_star(3) == 3
    assert m_star(4) == 5


def test_main_case_i_holds():
    assert "Main-i" in check_main_conditions(4, 4, 1, 3, n_even=True)


def test_main_case_i_fails_in_sharpness_regime():
    assert "Main-i" not in check_main_conditions(6, 2, 1, 1, n_even=True)


def test_main_case_iii_petersen_parameters():
    assert "Main-iii" in check_main_conditions(3, 3, 1, 1, n_even=True)


def test_main_hypothesis_violations():
    assert_rejects(lambda: check_main_conditions(4, 2, 3, 1, True),  # a > b
                   ParityLabError("need 1 <= a <= b, got a=3, b=1"))
    assert_rejects(lambda: check_main_conditions(4, 2, 1, 2, True),  # parity mismatch
                   ParityLabError("a=1 and b=2 must agree in parity"))
    assert_rejects(lambda: check_main_conditions(4, 2, 1, 5, True),  # b >= r
                   ParityLabError("need b < r, got b=5, r=4"))


def test_gallai_cases():
    assert "Gallai-i" not in check_main_conditions(4, 2, 3, 3, n_even=True)
    assert "Gallai-ii" in check_main_conditions(3, 3, 2, 2, n_even=True)
    assert "Gallai-iii" not in check_main_conditions(3, 1, 1, 1, n_even=True)


def test_bsw_cases():
    assert "BSW-i" in check_main_conditions(3, 2, 2, 2, n_even=True)
    assert "BSW-ii" not in check_main_conditions(5, 2, 1, 1, n_even=True)
    assert "BSW-ii" in check_main_conditions(3, 3, 1, 1, n_even=True)


def test_k_factor_specialization_includes_named_cases():
    cases = check_main_conditions(3, 3, 1, 1, n_even=True)
    assert "Gallai-iii" in cases
    assert "BSW-ii" in cases
    assert "Petersen" in check_main_conditions(6, 2, 2, 2, n_even=True)


def _k_factor_cases(r, m, k, n_even):
    # Gallai's (1950) and BSW's (1985) k-factor conditions, written out from
    # the theorems: Gallai's at an m >= 1, BSW's at the odd m*
    ms = m_star(m)
    r_odd, k_odd = r % 2 == 1, k % 2 == 1
    holds = {
        "Gallai-i": m >= 1 and not r_odd and k_odd and n_even and r <= k * m <= r * (m - 1),
        "Gallai-ii": m >= 1 and r_odd and not k_odd and k * m <= r * (m - 1),
        "Gallai-iii": m >= 1 and r_odd and k_odd and r <= k * m,
        "BSW-i": r_odd and not k_odd and k * ms <= r * (ms - 1),
        "BSW-ii": r_odd and k_odd and r <= k * ms,
    }
    return {name for name in holds if holds[name]}


def _k_factor_grid():
    for r in range(2, 40):
        for m in range(40):
            for k in range(1, r):
                for n_even in (True, False):
                    yield r, m, k, n_even


def test_main_theorem_generalizes_gallai_and_bsw():
    # with a = b = k the main theorem's three cases are BSW's (i) and (ii)
    # and Gallai's (i) exactly, and they contain Gallai's (ii) and (iii):
    # m* >= m only weakens the m-bounds
    for case in _k_factor_grid():
        r, m, k, n_even = case
        named = _k_factor_cases(*case)
        main = check_main_conditions(r, m, k, k, n_even) & set(theorems.MAIN_CASES)
        assert ("Gallai-i" in named) == ("Main-i" in main), case
        assert ("BSW-i" in named) == ("Main-ii" in main), case
        assert ("BSW-ii" in named) == ("Main-iii" in main), case
        assert "Gallai-ii" not in named or "Main-ii" in main, case
        assert "Gallai-iii" not in named or "Main-iii" in main, case


def test_main_theorem_names_exactly_the_gallai_and_bsw_cases():
    # the Gallai and BSW names check_main_conditions gives at a = b = k are
    # exactly the written-out inequalities
    named = set(theorems.GALLAI_CASES + theorems.BSW_CASES)
    for case in _k_factor_grid():
        r, m, k, n_even = case
        assert check_main_conditions(r, m, k, k, n_even) & named == _k_factor_cases(*case), case


def test_measured_lambda_zero_leaves_only_petersen():
    assert check_main_conditions(6, 0, 2, 2, n_even=True) == {"Petersen"}
    assert check_main_conditions(6, 0, 1, 1, n_even=True) == frozenset()


def test_component_check_extremal_blocks():
    # the paper's witness S = hubs on every sharpness tuple with r <= 12:
    # each block is an odd component with b*e(C,S) = b*m < r, and the first,
    # block 0, is cut off by its m hub edges
    tuples = 0
    for r in range(4, 13, 2):
        for m in range(2, r - 1, 2):
            g, hubs = extremal_construction(r, m)
            for a in range(1, r, 2):
                for b in range(a, r, 2):
                    cert = sharpness_certificate(r, m, a, b)
                    if cert is None:
                        continue
                    spec = ParitySpec.constant(a, b, g.n)
                    assert small_cut(g, spec, cert.S, cert.T) == (VertexSet.of(range(r + 1)), m)
                    tuples += 1
    assert tuples == 24  # 1, 2, 5, 6 and 10 at r = 4, ..., 12
    # with the hubs on T, (r - a)*e(C,T) = 5*2 >= 6 on every block: no small
    # cut, and delta = 10 - 6 >= 0 as the lemma says
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    assert small_cut(g, spec, VertexSet.empty(), hubs) is None
    assert deficiency(g, spec, VertexSet.empty(), hubs).delta == 4


def test_small_cut_counts_only_the_scans_odd_components(monkeypatch):
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    # the scan that deficiency counts tau from, with every f-odd flag cleared
    scan = theorems._component_scan
    monkeypatch.setattr(
        theorems, "_component_scan",
        lambda *args: [(cvs, e_t, False) for cvs, e_t, _ in scan(*args)],
    )
    assert small_cut(g, spec, hubs, VertexSet.empty()) is None


def test_component_check_petersen():
    # Petersen has a perfect matching, so delta >= 0 on every pair; here
    # G - {0, 5} is one even component with e(C,T) = 2, so none is odd
    g = petersen()
    spec = ParitySpec.constant(1, 1, 10)
    s, t = VertexSet.of([0]), VertexSet.of([5])
    assert small_cut(g, spec, s, t) is None
    assert deficiency(g, spec, s, t).delta == 2


def test_component_check_requires_regular():
    g = build_graph(3, [(0, 1)])
    assert_rejects(
        lambda: small_cut(g, ParitySpec.constant(1, 1, 3), VertexSet.empty(), VertexSet.empty()),
        ParityLabError("graph has degrees [0, 1]; need a regular graph"),
    )


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=80)
def test_regularity_identity_holds_on_regular_graphs(g):
    # the scan's odd flag reads e(C,T) + f(C), which under (1,1) is the
    # a-odd test e(C,T) + |C|; and r|C| = |dC| (mod 2), as r|C| = 2e(C) + |dC|
    degs = set(g.degrees)
    if len(degs) != 1:
        return
    r = degs.pop()
    s = VertexSet.of(range(0, g.n, 3))
    t = VertexSet.of(range(1, g.n, 3))
    for cvs, e_t, is_odd in lovasz._component_scan(g, ParitySpec.constant(1, 1, g.n), s, t):
        rest = VertexSet.of(set(range(g.n)) - set(cvs))
        assert is_odd == ((edges_between(g, cvs, t) + len(cvs)) % 2 == 1)
        assert e_t == edges_between(g, cvs, t)
        assert (r * len(cvs) - edges_between(g, cvs, rest)) % 2 == 0


# ---- S and T are checked once, on entry; e(C,S) and e(C,T) are counted directly

def test_component_check_checks_bounds_at_most_three_times(bound_checks, monkeypatch):
    # the one component scan checks S, T and S + T: never once per component
    # (here 6, all odd, none small), and G - (S + T) is split into
    # components once
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    scans = []

    def spy(g, removed):
        scans.append(removed)
        return components_after_removal(g, removed)

    monkeypatch.setattr(lovasz, "components_after_removal", spy)
    bound_checks.clear()
    assert small_cut(g, spec, VertexSet.empty(), hubs) is None
    assert len(bound_checks) <= 3
    assert scans == [hubs]


@st.composite
def regular_instance_with_disjoint_sets(draw):
    """An r-regular graph with r <= 4 and n <= 12, a constant (a, b) with
    a <= r and b <= a + 2, and disjoint S and T."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r + 1, 11))
    n += n * r % 2
    g = random_regular(n, r, seed=draw(st.integers(0, 1000)))
    a = draw(st.integers(0, r))
    spec = ParitySpec.constant(a, a + 2 * draw(st.integers(0, 1)), n)
    return (g, spec) + draw(disjoint_sets(n))


def _small_cut_by_edges_between(g, spec, s, t):
    """small_cut from its definition, each count by ``edges_between``."""
    r, a, b = g.degree(0), spec.g[0], spec.f[0]
    everything = set(range(g.n))
    for cvs in components_after_removal(g, VertexSet.of([*s, *t])):
        e_s, e_t = edges_between(g, cvs, s), edges_between(g, cvs, t)
        if (e_t + b * len(cvs)) % 2 == 1 and b * e_s + (r - a) * e_t < r:
            return cvs, edges_between(g, cvs, VertexSet.of(everything - set(cvs)))
    return None


@given(regular_instance_with_disjoint_sets())
@settings(max_examples=150, deadline=None)
def test_component_edge_counts_match_edges_between(data):
    g, spec, s, t = data
    assert small_cut(g, spec, s, t) == _small_cut_by_edges_between(g, spec, s, t)


def _extremal_instance(r, m, a, b):
    g, _ = extremal_construction(r, m)
    return g, ParitySpec.constant(a, b, g.n), VertexSet.empty(), VertexSet.empty()


@given(regular_instance_with_disjoint_sets())
@settings(max_examples=150, deadline=None)
# a random regular graph this small nearly always yields C = G, odd, at
# S = T = {}; on these the barrier witness puts the hubs on S, on S, and on
# T, so dC is a cut of m = lambda edges
@example(_extremal_instance(4, 2, 1, 1))
@example(_extremal_instance(6, 4, 1, 1))
@example(_extremal_instance(6, 2, 5, 5))
def test_every_negative_pair_has_a_small_cut(data):
    # the lemma: delta(S,T) < 0 leaves an odd component C with
    # b*e(C,S) + (r-a)*e(C,T) < r, on the drawn pair and on the gadget's
    # barrier witness alike; dC is then a cut of G unless C is a whole
    # component of G, so it has at least lambda edges
    g, spec, s, t = data
    r, a, b = g.degree(0), spec.g[0], spec.f[0]
    lam, _ = edge_connectivity(g)
    whole = components_after_removal(g, VertexSet.empty())
    pairs = [(s, t)]
    result = factor_or_witness(g, spec)
    if isinstance(result, DeficiencyWitness):
        pairs.append((result.S, result.T))
    for s, t in pairs:
        cut = small_cut(g, spec, s, t)
        if deficiency(g, spec, s, t).delta >= 0:
            continue
        assert cut is not None
        c, boundary = cut
        e_s, e_t = edges_between(g, c, s), edges_between(g, c, t)
        assert c in components_after_removal(g, VertexSet.of([*s, *t]))
        assert (e_t + b * len(c)) % 2 == 1
        assert b * e_s + (r - a) * e_t < r
        assert boundary == e_s + e_t
        assert boundary >= lam or c in whole


# ---- rejections with their full messages

def _small_cut(g, spec):
    return lambda: small_cut(g, spec, VertexSet.empty(), VertexSet.empty())


@pytest.mark.parametrize("call,expected", [
    (lambda: m_star(-1), ParityLabError("m must be nonnegative, got -1")),
    (_small_cut(complete_graph(4), ParitySpec((1, 1, 1, 1), (1, 1, 1, 3))),
     ParityLabError("need a constant (a,b) spec matching the graph")),
    (_small_cut(build_graph(3, []), ParitySpec.constant(1, 1, 3)),
     ParityLabError("need a <= r, got a=1, r=0")),
], ids=["m-star", "non-constant-spec", "edgeless"])
def test_theorems_rejections(call, expected):
    assert_rejects(call, expected)
