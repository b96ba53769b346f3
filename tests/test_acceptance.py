"""Acceptance suite: one test per criterion, exact tolerances, with a printed
pass line each (run with -s to see them)."""
from __future__ import annotations

import random
import subprocess
import sys
import time

import pytest

from paritylab import (
    ExtremalParams,
    ParitySpec,
    VertexSet,
    brute_force_factor,
    build_graph,
    build_parity_gadget,
    components_after_removal,
    decide_by_enumeration,
    deficiency,
    edge_connectivity,
    edges_between,
    extremal_construction,
    find_parity_factor,
    random_regular,
    verify_factor,
    verify_witness,
)

from conftest import random_connected_graph


def _report(name: str, detail: str, t0: float) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail}, {time.time() - t0:.1f}s)")


def test_criterion_1_sharpness_reproduction():
    t0 = time.time()
    checked = 0
    for r in (4, 6, 8):
        for m in range(2, r - 1, 2):
            for b in range(1, r, 2):
                if b * m >= r:
                    continue
                for a in range(1, b + 1, 2):
                    g, hubs = extremal_construction(ExtremalParams(r, m))
                    assert set(g.degrees) == {r}
                    assert edge_connectivity(g)[0] == m
                    spec = ParitySpec.constant(a, b, g.n)
                    assert find_parity_factor(g, spec) is None
                    w = deficiency(g, spec, hubs, VertexSet.empty())
                    assert w.delta == b * m - r
                    assert w.tau == r
                    assert verify_witness(g, spec, w)[0]
                    checked += 1
    assert checked == 8
    _report("1 sharpness reproduction", f"{checked} parameter tuples", t0)


def test_criterion_2_soundness_sweep():
    from paritylab.theorems import check_main_conditions

    t0 = time.time()
    instances = 0
    solved = 0
    for r in range(3, 9):
        candidates = [n for n in range(max(r + 1, 8), 31) if (n * r) % 2 == 0]
        for i in range(34):
            n = candidates[i % len(candidates)]
            g = random_regular(n, r, seed=1000 * r + i)
            lam, _ = edge_connectivity(g)
            instances += 1
            for a in range(1, min(r, 6)):
                for b in range(a, min(r, 6), 2):
                    report = check_main_conditions(r, lam, a, b, n % 2 == 0)
                    if not report.satisfied_cases:
                        continue
                    spec = ParitySpec.constant(a, b, n)
                    factor = find_parity_factor(g, spec)
                    assert factor is not None, (r, n, lam, a, b)
                    ok, reason = verify_factor(g, spec, factor)
                    assert ok, (r, n, lam, a, b, reason)
                    solved += 1
    assert instances >= 200
    assert solved > 0
    _report("2 soundness sweep", f"{instances} instances, {solved}/{solved} factors", t0)


def test_criterion_3_oracle_triangle(small_connected_corpus):
    t0 = time.time()
    rng = random.Random(7)
    corpus = list(small_connected_corpus)
    while len(corpus) < len(small_connected_corpus) + 200:
        corpus.append(random_connected_graph(rng, rng.randint(4, 7)))
    specs = [(a, b) for a in range(1, 5) for b in range(a, 5, 2)]
    agreements = 0
    for g in corpus:
        for a, b in specs:
            spec = ParitySpec.constant(a, b, g.n)
            by_brute = brute_force_factor(g, spec) is not None
            by_enum = decide_by_enumeration(g, spec).feasible
            by_gadget = find_parity_factor(g, spec) is not None
            assert by_brute == by_enum == by_gadget, (g.edges, a, b)
            agreements += 1
    _report("3 oracle triangle", f"{agreements} agreements on {len(corpus)} graphs", t0)


def test_criterion_4_parity_congruence():
    t0 = time.time()
    rng = random.Random(41)
    for _ in range(10000):
        n = rng.randint(1, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = build_graph(n, edges)
        g_vals, f_vals = [], []
        for _v in range(n):
            gv = rng.randint(0, 3)
            f_vals.append(gv + 2 * rng.randint(0, 2))
            g_vals.append(gv)
        spec = ParitySpec(tuple(g_vals), tuple(f_vals))
        labels = [rng.randint(0, 2) for _ in range(n)]
        s = VertexSet.of(v for v in range(n) if labels[v] == 1)
        t = VertexSet.of(v for v in range(n) if labels[v] == 2)
        w = deficiency(g, spec, s, t)
        assert (w.delta - spec.f_total) % 2 == 0
    _report("4 parity congruence", "10000 trials, zero violations", t0)


def test_criterion_5_regularity_congruence():
    t0 = time.time()
    rng = random.Random(17)
    trials = 0
    for _ in range(120):
        r = rng.choice([2, 3, 4, 5, 6])
        n = rng.choice([n for n in range(r + 1, 21) if (n * r) % 2 == 0])
        g = random_regular(n, r, seed=rng.randrange(2 ** 32))
        labels = [rng.randint(0, 2) for _ in range(n)]
        s = VertexSet.of(v for v in range(n) if labels[v] == 1)
        t = VertexSet.of(v for v in range(n) if labels[v] == 2)
        st = VertexSet.of(list(s) + list(t))
        for cvs in components_after_removal(g, st):
            boundary = edges_between(g, cvs, s) + edges_between(g, cvs, t)
            assert (r * len(cvs) - boundary) % 2 == 0
            trials += 1
    _report("5 regularity congruence", f"{trials} components, zero violations", t0)


def test_criterion_6_petersen_spot_check():
    t0 = time.time()
    rng = random.Random(23)
    done = 0
    for _ in range(50):
        half_r = rng.choice([2, 3])
        degree = 2 * half_r
        n = rng.choice([n for n in range(degree + 2, 21, 2)])
        g = random_regular(n, degree, seed=rng.randrange(2 ** 32))
        for k in range(1, half_r + 1):
            spec = ParitySpec.constant(2 * k, 2 * k, n)
            factor = find_parity_factor(g, spec)
            assert factor is not None, (degree, n, 2 * k)
            assert verify_factor(g, spec, factor)[0]
        done += 1
    assert done == 50
    _report("6 even-degree factor spot check", "50/50 graphs, all 2k-factors found", t0)


def test_criterion_7_gadget_size_law(small_connected_corpus):
    t0 = time.time()
    rng = random.Random(31)
    checked = 0
    for g in small_connected_corpus[:200]:
        for a, b in [(1, 1), (1, 3), (2, 2), (3, 3)]:
            spec = ParitySpec.constant(a, b, g.n)
            if any(spec.g[v] > g.degree(v) for v in range(g.n)):
                continue
            gm = build_parity_gadget(g, spec)
            assert gm.h.n == 4 * g.edge_count - sum(spec.g)
            if sum(spec.g) % 2 == 1:
                assert find_parity_factor(g, spec) is None
            checked += 1
    # per-vertex specs with odd total lower bound must also come back infeasible
    for _ in range(50):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n)
        g_vals = [rng.randint(0, 2) for _ in range(n)]
        if sum(g_vals) % 2 == 0:
            g_vals[0] += 1
        spec = ParitySpec(tuple(g_vals), tuple(gv + 2 for gv in g_vals))
        assert find_parity_factor(g, spec) is None
        checked += 1
    _report("7 gadget size law", f"{checked} (graph, spec) pairs", t0)


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.time()
    cli = [sys.executable, "-m", "paritylab.cli"]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=11\nn=10\nr=3,4\ntrials=2\nab=1:1,2:2\nextremal=4:2:1:1\n")
    invocations = [
        ["gen-random", "--n", "14", "--r", "4", "--seed", "99"],
        ["construct", "--r", "6", "--m", "2"],
        ["experiment", str(cfg)],
    ]
    for argv in invocations:
        outputs = [
            subprocess.run(cli + argv, capture_output=True, text=True)
            for _ in range(3)
        ]
        assert all(o.returncode == 0 for o in outputs)
        assert outputs[0].stdout == outputs[1].stdout == outputs[2].stdout
        assert outputs[0].stdout
    _report("8 determinism", "3 identical runs for each of 3 invocations", t0)
