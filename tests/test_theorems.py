from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    ParitySpec,
    VertexSet,
    build_graph,
    check_main_conditions,
    complete_graph,
    component_inequality_check,
    components_after_removal,
    edges_between,
    extremal_construction,
    m_star,
    petersen,
    random_regular,
)
from paritylab import lovasz, theorems
from paritylab.errors import HypothesisViolation, NotRegular

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
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 3, 1, True)  # a > b
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 1, 2, True)  # parity mismatch
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 1, 5, True)  # b >= r


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
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    reports = component_inequality_check(g, spec, hubs, VertexSet.empty())
    assert len(reports) == 6
    for rep in reports:
        assert rep.is_a_odd
        assert rep.value == Fraction(1, 3)  # theta2 * e(S,C) = (1/6) * 2
        assert not rep.crossing_bound_holds  # consistent with infeasibility
        assert rep.parity_identity_holds
        assert rep.regularity_identity_holds


def test_parity_identity_cross_checks_f_odd_components(monkeypatch):
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    # the scan that f_odd_components reads, with every f-odd flag cleared
    scan = theorems._component_scan
    monkeypatch.setattr(
        theorems, "_component_scan",
        lambda *args: [(cvs, e_t, False) for cvs, e_t, _ in scan(*args)],
    )
    reports = component_inequality_check(g, spec, hubs, VertexSet.empty())
    assert reports and all(rep.is_a_odd for rep in reports)
    assert not any(rep.parity_identity_holds for rep in reports)


def test_component_check_petersen():
    g = petersen()
    spec = ParitySpec.constant(1, 1, 10)
    reports = component_inequality_check(g, spec, VertexSet.of([0]), VertexSet.of([5]))
    for rep in reports:
        if rep.is_a_odd:
            assert rep.parity_identity_holds
        assert rep.regularity_identity_holds


def test_component_check_requires_regular():
    from paritylab import build_graph

    g = build_graph(3, [(0, 1)])
    with pytest.raises(NotRegular):
        component_inequality_check(g, ParitySpec.constant(1, 1, 3),
                                   VertexSet.empty(), VertexSet.empty())


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=80)
def test_regularity_identity_holds_on_regular_graphs(g):
    degs = set(g.degrees)
    if len(degs) != 1 or degs == {0}:
        return
    s = VertexSet.of(range(0, g.n, 3))
    t = VertexSet.of(range(1, g.n, 3))
    for rep in component_inequality_check(g, ParitySpec.constant(1, 1, g.n), s, t):
        assert rep.parity_identity_holds
        assert rep.regularity_identity_holds


# ---- S and T are checked once, on entry; e(C,S) and e(C,T) are counted directly

def test_component_check_checks_bounds_at_most_three_times(bound_checks, monkeypatch):
    # the one component scan checks S, T and S + T: never once per component
    # (here 6), and G - (S + T) is split into components once
    g, hubs = extremal_construction(6, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    scans = []

    def spy(g, removed):
        scans.append(removed)
        return components_after_removal(g, removed)

    monkeypatch.setattr(lovasz, "components_after_removal", spy)
    bound_checks.clear()
    assert len(component_inequality_check(g, spec, hubs, VertexSet.empty())) == 6
    assert len(bound_checks) <= 3
    assert scans == [hubs]


@st.composite
def regular_instance_with_disjoint_sets(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r + 1, 11))
    n += n * r % 2
    g = random_regular(n, r, seed=draw(st.integers(0, 1000)))
    a = draw(st.integers(0, r))
    spec = ParitySpec.constant(a, a + 2 * draw(st.integers(0, 1)), n)
    return (g, spec) + draw(disjoint_sets(n))


@given(regular_instance_with_disjoint_sets())
@settings(max_examples=150, deadline=None)
def test_component_edge_counts_match_edges_between(data):
    g, spec, s, t = data
    reports = component_inequality_check(g, spec, s, t)
    comps = components_after_removal(g, VertexSet.of([*s, *t]))
    assert [rep.component for rep in reports] == comps
    assert [(rep.e_s, rep.e_t) for rep in reports] == [
        (edges_between(g, cvs, s), edges_between(g, cvs, t)) for cvs in comps
    ]


# ---- rejections with their full messages

def _components(g, spec):
    return lambda: component_inequality_check(g, spec, VertexSet.empty(), VertexSet.empty())


@pytest.mark.parametrize("call,expected", [
    (lambda: m_star(-1), HypothesisViolation("m must be nonnegative, got -1")),
    (_components(complete_graph(4), ParitySpec((1, 1, 1, 1), (1, 1, 1, 3))),
     NotRegular("need a constant (a,b) spec matching the graph")),
    (_components(build_graph(3, []), ParitySpec.constant(0, 0, 3)),
     NotRegular("edgeless graph: the crossing ratios are undefined")),
], ids=["m-star", "non-constant-spec", "edgeless"])
def test_theorems_rejections(call, expected):
    assert_rejects(call, expected)
