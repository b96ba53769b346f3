from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    ExtremalParams,
    ParitySpec,
    VertexSet,
    check_bsw_conditions,
    check_gallai_conditions,
    check_main_conditions,
    component_inequality_check,
    extremal_construction,
    m_star,
    petersen,
)
from paritylab import theorems
from paritylab.errors import HypothesisViolation, NotRegular

from conftest import graphs


def test_m_star():
    assert m_star(2) == 3
    assert m_star(3) == 3
    assert m_star(4) == 5


def test_main_case_i_holds():
    report = check_main_conditions(4, 4, 1, 3, n_even=True)
    assert "Main-i" in report.satisfied_cases
    assert report.theta1 == Fraction(1, 4) and report.theta2 == Fraction(3, 4)


def test_main_case_i_fails_in_sharpness_regime():
    report = check_main_conditions(6, 2, 1, 1, n_even=True)
    assert "Main-i" not in report.satisfied_cases


def test_main_case_iii_petersen_parameters():
    report = check_main_conditions(3, 3, 1, 1, n_even=True)
    assert "Main-iii" in report.satisfied_cases
    assert report.m_star == 3


def test_main_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 3, 1, True)  # a > b
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 1, 2, True)  # parity mismatch
    with pytest.raises(HypothesisViolation):
        check_main_conditions(4, 2, 1, 5, True)  # b >= r


def test_gallai_cases():
    assert "Gallai-i" not in check_gallai_conditions(4, 2, 3, n_even=True)
    assert "Gallai-ii" in check_gallai_conditions(3, 3, 2, n_even=True)
    assert "Gallai-iii" not in check_gallai_conditions(3, 1, 1, n_even=True)


def test_bsw_cases():
    assert "BSW-i" in check_bsw_conditions(3, 2, 2)
    assert "BSW-ii" not in check_bsw_conditions(5, 2, 1)
    assert "BSW-ii" in check_bsw_conditions(3, 3, 1)


def test_k_factor_specialization_includes_named_cases():
    report = check_main_conditions(3, 3, 1, 1, n_even=True)
    assert "Gallai-iii" in report.satisfied_cases
    assert "BSW-ii" in report.satisfied_cases
    report = check_main_conditions(6, 2, 2, 2, n_even=True)
    assert "Petersen" in report.satisfied_cases


def test_measured_lambda_zero_leaves_only_petersen():
    report = check_main_conditions(6, 0, 2, 2, n_even=True)
    assert report.satisfied_cases == {"Petersen"}
    report = check_main_conditions(6, 0, 1, 1, n_even=True)
    assert report.satisfied_cases == frozenset()


@given(st.integers(2, 12), st.integers(1, 8), st.integers(1, 11), st.integers(0, 5))
@settings(max_examples=200)
def test_theta_window(r, m, a, spread):
    b = a + 2 * spread
    if not 1 <= a <= b < r:
        return
    report = check_main_conditions(r, m, a, b, n_even=True)
    assert 0 < report.theta1 <= report.theta2 < 1
    assert report.m_star % 2 == 1 and report.m_star in (m, m + 1)


def test_component_check_extremal_blocks():
    g, hubs = extremal_construction(ExtremalParams(6, 2))
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
    g, hubs = extremal_construction(ExtremalParams(6, 2))
    spec = ParitySpec.constant(1, 1, g.n)
    monkeypatch.setattr(theorems, "f_odd_components", lambda g, spec, s, t: (0, []))
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
