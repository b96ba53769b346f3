"""Each of the benchmark's checkers accepts a right answer and rejects a wrong one.

    python3 -m pytest -q perfbench
"""
import pytest

from checkers import (
    CheckFailed,
    boundary_size,
    check_cut,
    check_factor,
    check_witness,
    deficiency,
    nx_edge_connectivity,
    nx_has_perfect_matching,
    parse_graph_text,
    parse_witness_text,
)

C6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
STAR = [(0, 1), (0, 2), (0, 3)]  # K_{1,3}, centre 0
TWO_TRIANGLES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
ONES = (1,) * 6


def test_factor_checker_accepts_a_perfect_matching():
    check_factor(6, C6, [(0, 1), (2, 3), (4, 5)], ONES, ONES)
    check_factor(6, C6, [(1, 0), (3, 2), (5, 4)], ONES, ONES)


@pytest.mark.parametrize("factor, g, f", [
    ([(0, 1), (2, 3), (4, 5), (0, 2)], ONES, ONES),   # (0,2) is not an edge
    ([(0, 1), (2, 3), (4, 5), (1, 0)], (0,) * 6, (2,) * 6),  # repeated edge
    ([(0, 1), (2, 3)], ONES, ONES),                   # vertices 4, 5 below g
    ([(0, 1), (1, 2), (2, 3), (4, 5)], ONES, ONES),   # vertex 1 above f
    ([(0, 1), (2, 3), (4, 5)], (0,) * 6, (2,) * 6),   # degree 1, f = 2: wrong parity
    ([(0, 1), (2, 3), (4, 5)], (1,) * 5, (1,) * 5),   # spec shorter than the graph
    ([(0, 1), (2, 3), (4, 5)], (1,) * 7, (1,) * 7),   # spec longer than the graph
])
def test_factor_checker_rejects_a_corrupted_factor(factor, g, f):
    with pytest.raises(CheckFailed):
        check_factor(6, C6, factor, g, f)


def test_deficiency_of_the_star():
    # S = {centre}: f(S) = 1 and three leaves with f odd, so delta = 1 - 3
    assert deficiency(4, STAR, (1,) * 4, (1,) * 4, [0], []) == (-2, 3)
    # T = {centre}: d - g = 2, each leaf has e(C,T) + f(C) = 2, so tau = 0
    assert deficiency(4, STAR, (1,) * 4, (1,) * 4, [], [0]) == (2, 0)
    # S = {1}, T = {0}: f(S) + d(0) - g(0) - e(S,T) = 1 + 2 - 1; leaves 2, 3 even
    assert deficiency(4, STAR, (1,) * 4, (1,) * 4, [1], [0]) == (2, 0)


def test_witness_checker_accepts_the_star_certificate():
    check_witness(4, STAR, (1,) * 4, (1,) * 4, [0], [], -2, 3)


@pytest.mark.parametrize("s, t, delta, tau", [
    ([0], [], -1, 3),    # wrong delta
    ([0], [], -3, 3),    # wrong delta
    ([0], [], -2, 2),    # wrong tau
    ([], [], 0, 0),      # recomputes, but delta is not negative
    ([0], [0], -2, 3),   # S and T overlap
    ([7], [], -2, 3),    # vertex outside the graph
])
def test_witness_checker_rejects_a_wrong_witness(s, t, delta, tau):
    with pytest.raises(CheckFailed):
        check_witness(4, STAR, (1,) * 4, (1,) * 4, s, t, delta, tau)


def test_cut_checker():
    assert boundary_size(TWO_TRIANGLES, [0, 1, 2]) == 1
    check_cut(6, TWO_TRIANGLES, [0, 1, 2], 1)
    for side, size in (([0, 1, 2], 2), ([0, 1], 1), ([], 0), (range(6), 0)):
        with pytest.raises(CheckFailed):
            check_cut(6, TWO_TRIANGLES, side, size)


def test_text_parsers():
    assert parse_graph_text("3 2\n0 1\n1 2  # tail\n# hubs: 2\n") == (3, [(0, 1), (1, 2)])
    with pytest.raises(CheckFailed):
        parse_graph_text("3 2\n0 1\n")
    assert parse_witness_text("S: 4 5\nT:\ndelta: -2\ntau: 6\n") == ([4, 5], [], -2, 6)
    with pytest.raises(CheckFailed):
        parse_witness_text("infeasible (no witness within enumeration cap)\n")


def test_networkx_cross_checks():
    pytest.importorskip("networkx")
    assert nx_edge_connectivity(6, TWO_TRIANGLES) == 1
    assert nx_edge_connectivity(6, C6) == 2
    assert nx_has_perfect_matching(6, C6) is True
    assert nx_has_perfect_matching(4, STAR) is False
