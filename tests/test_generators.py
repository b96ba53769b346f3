from __future__ import annotations

import pytest

from paritylab import (
    DeficiencyWitness,
    ParitySpec,
    VertexSet,
    complete_graph,
    cycle,
    decide_by_enumeration,
    deficiency,
    edge_connectivity,
    edges_between,
    components_after_removal,
    extremal_construction,
    generators,
    j_block,
    petersen,
    random_regular,
    sharpness_certificate,
)
from paritylab.errors import (
    BadOrder,
    DegreeTooLarge,
    ParamDomain,
    ParityViolation,
    RetriesExhausted,
)

from conftest import assert_rejects


def test_fixture_shapes():
    assert complete_graph(5).edge_count == 10
    assert set(complete_graph(5).degrees) == {4}
    assert cycle(6).edge_count == 6
    assert set(cycle(6).degrees) == {2}
    p = petersen()
    assert p.n == 10 and set(p.degrees) == {3}
    assert edge_connectivity(p)[0] == 3


def test_fixture_bad_order():
    with pytest.raises(BadOrder):
        complete_graph(0)
    with pytest.raises(BadOrder):
        cycle(2)


def test_random_regular_degrees():
    g = random_regular(10, 3, seed=1)
    assert set(g.degrees) == {3}


def test_random_regular_deterministic():
    assert random_regular(12, 4, seed=9) == random_regular(12, 4, seed=9)


def test_random_regular_dense_degrees():
    # stub re-pairing keeps dense degrees practical
    g = random_regular(30, 8, seed=5)
    assert set(g.degrees) == {8}


def test_random_regular_parity_violation():
    with pytest.raises(ParityViolation):
        random_regular(5, 3, seed=0)


def test_random_regular_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        random_regular(4, 4, seed=0)


def test_random_regular_retries_exhausted(monkeypatch):
    monkeypatch.setattr(generators, "_pairing_attempt", lambda n, r, rng: None)
    with pytest.raises(RetriesExhausted):
        random_regular(10, 3, 0)


def test_random_regular_forced_k4():
    assert random_regular(4, 3, seed=7) == complete_graph(4)


def test_j_block_6_2():
    g = j_block(6, 2)
    assert sorted(g.degrees) == [5, 5, 6, 6, 6, 6, 6]
    assert not g.has_edge(0, 1)


def test_j_block_4_2():
    assert j_block(4, 2).edge_count == 9


def test_j_block_4_4():
    assert sorted(j_block(4, 4).degrees) == [3, 3, 3, 3, 4]


def test_params_domain():
    assert_rejects(lambda: extremal_construction(5, 2),  # odd r
                   ParamDomain("r must be even and >= 4, got 5"))
    assert_rejects(lambda: extremal_construction(6, 3),  # odd m
                   ParamDomain("m must be even with 2 <= m <= r-2, got m=3, r=6"))
    assert_rejects(lambda: extremal_construction(6, 6),  # m > r - 2
                   ParamDomain("m must be even with 2 <= m <= r-2, got m=6, r=6"))


def _reference_sharpness_domain(r, m, a, b):
    # the verification harness's own predicate before the domain moved into
    # generators, kept verbatim as an independent oracle
    return (r % 2 == m % 2 == 0 and 2 <= m <= r - 2
            and a % 2 == b % 2 == 1 and 1 <= a <= b and b * m < r)


def test_sharpness_certificate_matches_the_reference_domain():
    admitted = 0
    for r in range(-1, 25):
        for m in range(-1, r + 2):
            hubs = VertexSet.of(range(r * (r + 1), r * (r + 1) + m))
            for a in range(r + 1):
                for b in range(r + 1):
                    cert = sharpness_certificate(r, m, a, b)
                    if not _reference_sharpness_domain(r, m, a, b):
                        assert cert is None, (r, m, a, b)
                        continue
                    assert cert == DeficiencyWitness(hubs, VertexSet.empty(), b * m - r, r)
                    if r <= 12:
                        assert cert.S == extremal_construction(r, m)[1], (r, m)
                    admitted += r <= 20
    assert admitted == 101  # even r in 4..20: the CI grid


@pytest.mark.parametrize("r,m", [(4, 2), (4, 2), (6, 2), (6, 4), (8, 4)])
def test_extremal_is_regular_with_right_order(r, m):
    g, hubs = extremal_construction(r, m)
    assert g.n == r * (r + 1) + m
    assert set(g.degrees) == {r}
    assert len(hubs) == m


def test_extremal_6_2_counts():
    g, _ = extremal_construction(6, 2)
    assert g.n == 44 and g.edge_count == 132


def test_extremal_hub_wiring():
    g, hubs = extremal_construction(4, 2)
    blocks = components_after_removal(g, hubs)
    assert len(blocks) == 4
    for block in blocks:
        assert edges_between(g, hubs, block) == 2
        for hub in hubs:
            assert edges_between(g, VertexSet.of([hub]), block) == 1


def test_extremal_infeasibility_certificate():
    g, hubs = extremal_construction(4, 2)
    spec = ParitySpec.constant(1, 1, g.n)
    w = deficiency(g, spec, hubs, VertexSet.empty())
    assert w.delta == 1 * 2 - 4 and w.tau == 4


def test_j_block_feasibility_contrast():
    # a lone block with its deficient vertices is fine for a (1,1) factor
    # precisely when the order works out; sanity-check the small case
    g = j_block(4, 2)
    assert not decide_by_enumeration(g, ParitySpec.constant(1, 1, 5)).feasible  # odd order


# ---- rejections with their full messages

@pytest.mark.parametrize("call,expected", [
    (lambda: random_regular(0, 3, 1), BadOrder("need n >= 1 and r >= 0, got n=0, r=3")),
    (lambda: j_block(5, 2), ParamDomain("r must be even and >= 4, got 5")),
    (lambda: j_block(4, 6), ParamDomain("m must be even with 2 <= m <= r, got m=6, r=4")),
], ids=["random-regular-empty", "j-block-odd-r", "j-block-m-above-r"])
def test_generators_rejections(call, expected):
    assert_rejects(call, expected)
