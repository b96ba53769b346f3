from __future__ import annotations

import hashlib
import importlib.util
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritylab import experiment
from paritylab.errors import CounterexampleError, GraphSyntaxError, HypothesisViolation, SelfCheckFailed
from paritylab.experiment import (
    ExperimentConfig,
    parse_config,
    run_verification_experiment,
)
from paritylab.generators import _block, extremal_construction, random_regular, sharpness_certificate
from paritylab.graph import VertexSet, build_graph
from paritylab.lovasz import DeficiencyWitness, ParitySpec, deficiency, verify_witness
from paritylab.matching import Matching
from paritylab.solver import Factor, factor_or_witness, find_parity_factor, verify_factor

from conftest import disjoint_sets


def _load_script(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


soundness_sweep = _load_script("run_soundness_sweep")
sharpness_grid = _load_script("run_sharpness_grid")

# run_soundness_sweep.py --trials 2 --csv: 662 rows, computed on CPython 3.11
# before factors were reused; reuse changes no byte of it
SWEEP_CSV_SHA256 = "8a47db99f3252906e3a1294a5e73f5830489767493d50759a9507dd12e06d581"
# calls of the harness's one solve on that config, perfect matchings of the
# graph and gadget solves together, when every satisfied (a, b) is solved
# afresh: 340 for the sampled graphs and 4 for the extremal tuples
SWEEP_FRESH_SOLVES = 344
# (matchings, gadget solves) on that config when kept factors are reused:
# the three (1, 1) extremal tuples are matchings, (8, 2, 1, 3) a gadget solve
SWEEP_SOLVES = (63, 91)
SWEEP_SPECS = soundness_sweep.sweep_config(0, 1).specs


def test_parse_config():
    cfg = parse_config(
        "# trial grid\nseed=42\nn=10,12\nr=3,4\ntrials=2\nab=1:1,2:2\nextremal=4:2:1:1\n"
    )
    assert cfg == ExperimentConfig(
        seed=42,
        n_values=(10, 12),
        r_values=(3, 4),
        trials=2,
        specs=((1, 1), (2, 2)),
        extremal=((4, 2, 1, 1),),
    )


def test_parse_config_rejects_garbage():
    with pytest.raises(GraphSyntaxError):
        parse_config("bogus\n")
    with pytest.raises(GraphSyntaxError):
        parse_config("wibble=3\n")
    with pytest.raises(GraphSyntaxError):
        parse_config("seed=abc\n")
    for text in ("ab=1\n", "ab=1:1:1\n", "extremal=6:2\n"):
        with pytest.raises(GraphSyntaxError, match="config line 1: bad value"):
            parse_config(text)
    with pytest.raises(GraphSyntaxError, match="^config line 2: repeated key 'n'$"):
        parse_config("n=10\nn=12\n")


def test_run_small_grid():
    cfg = ExperimentConfig(
        seed=7, n_values=(10, 12), r_values=(3, 4), trials=3,
        specs=((1, 1), (2, 2)), extremal=((4, 2, 1, 1), (6, 2, 1, 1)),
    )
    report = run_verification_experiment(cfg)
    extremal_rows = [row for row in report.rows if row.case == "extremal"]
    assert [row.delta for row in extremal_rows] == [-2, -4]
    assert all(row.outcome == "infeasible-verified" for row in extremal_rows)
    found = [row for row in report.rows if row.outcome == "found"]
    assert found  # the grid hits at least some satisfied cases
    assert all(row.lam >= 1 for row in found)


def test_report_is_deterministic_and_serializable():
    cfg = ExperimentConfig(seed=3, n_values=(10,), r_values=(3,), trials=2,
                           specs=((1, 1),), extremal=((4, 2, 1, 1),))
    r1 = run_verification_experiment(cfg)
    r2 = run_verification_experiment(cfg)
    assert r1.to_table() == r2.to_table()
    csv_text = r1.to_csv()
    assert csv_text.splitlines()[0] == "seed,n,r,lambda,a,b,case,outcome,delta"
    assert len(csv_text.splitlines()) == len(r1.rows) + 1


def test_odd_nr_products_are_skipped():
    cfg = ExperimentConfig(seed=1, n_values=(9,), r_values=(3,), trials=2, specs=((1, 1),))
    report = run_verification_experiment(cfg)
    assert report.rows == ()


def test_satisfied_case_without_factor_is_a_counterexample(monkeypatch):
    witness = DeficiencyWitness(VertexSet.empty(), VertexSet.empty(), -1, 1)
    monkeypatch.setattr(experiment, "_solve", lambda g, r, spec, seed: witness)
    cfg = ExperimentConfig(seed=7, n_values=(10,), r_values=(3,), trials=1, specs=((1, 1),))
    with pytest.raises(CounterexampleError, match="satisfied cases"):
        run_verification_experiment(cfg)


def test_a_matching_that_is_not_perfect_is_a_counterexample(monkeypatch):
    # (1,1) at r = 3 is solved as a matching of the graph: an exposed
    # vertex means no factor, as a witness from the solver does
    monkeypatch.setattr(experiment, "max_matching", lambda g: Matching((-1,) * g.n))
    cfg = ExperimentConfig(seed=7, n_values=(10,), r_values=(3,), trials=1, specs=((1, 1),))
    with pytest.raises(CounterexampleError, match=r"no verified \(1,1\)-parity factor"):
        run_verification_experiment(cfg)


@pytest.mark.parametrize("spec", [(1, 1), (3, 3)])
def test_a_matching_off_the_graph_fails_the_self_check(monkeypatch, spec):
    # nothing verifies the matcher's output before the harness does: a
    # perfect pairing that uses a non-edge serves neither (1,1) nor, through
    # its complement, (r - 1, r - 1)
    def off_graph(g):
        mate = tuple(v ^ 1 for v in range(g.n))
        assert not all(g.has_edge(v, v + 1) for v in range(0, g.n, 2))
        return Matching(mate)

    monkeypatch.setattr(experiment, "max_matching", off_graph)
    cfg = ExperimentConfig(seed=7, n_values=(10,), r_values=(4,), trials=1, specs=(spec,))
    with pytest.raises(SelfCheckFailed, match=rf"fail verification for \({spec[0]},{spec[1]}\)"):
        run_verification_experiment(cfg)


@pytest.mark.parametrize(
    "r,m,a,b", [(6, 2, 1, 3), (6, 2, 2, 2), (8, 4, 3, 3), (5, 2, 1, 1), (8, 0, 1, 1)]
)
def test_extremal_tuple_outside_the_sharpness_domain_is_rejected(monkeypatch, r, m, a, b):
    # b*m >= r, an even bound, an odd r or an m outside 2..r-2: the
    # construction does not exist or need not defeat these, so they are
    # input errors, caught before any graph is built
    monkeypatch.setattr(experiment, "extremal_construction", None)
    monkeypatch.setattr(experiment, "random_regular", None)
    cfg = ExperimentConfig(seed=1, trials=1, extremal=((r, m, a, b),))
    with pytest.raises(HypothesisViolation, match=rf"\(r={r}, m={m}, a={a}, b={b}\)"):
        run_verification_experiment(cfg)


@pytest.mark.parametrize("pair", [(3, 1), (1, 2), (0, 0)])
def test_ab_pair_that_no_r_admits_is_rejected(monkeypatch, pair):
    # a < 1, a > b or a != b (mod 2): rejected before any graph is built
    monkeypatch.setattr(experiment, "random_regular", None)
    a, b = pair
    cfg = ExperimentConfig(seed=1, trials=1, specs=((1, 1), pair))
    with pytest.raises(HypothesisViolation, match=rf"^ab pair \(a={a}, b={b}\) is admitted by no r"):
        run_verification_experiment(cfg)


@pytest.mark.parametrize("field,value,name", [
    ("n_values", (10, -4), "n=-4"),
    ("n_values", (1,), "n=1"),
    ("r_values", (-1,), "r=-1"),
    ("trials", -2, "trials=-2"),
])
def test_config_value_that_can_yield_no_row_is_rejected(monkeypatch, field, value, name):
    # n < 2, r < 0 or trials < 0: rejected before any graph is built, not
    # left to an empty table or to an error from the generator or the flow
    monkeypatch.setattr(experiment, "random_regular", None)
    cfg = replace(ExperimentConfig(seed=1, n_values=(11,), r_values=(0,), trials=1), **{field: value})
    with pytest.raises(HypothesisViolation, match=rf"^{name} can yield no row"):
        run_verification_experiment(cfg)


def test_ab_pair_above_r_is_skipped_for_that_r_only():
    # (5, 5) needs r > 5: skipped at r = 3, solved at r = 6
    cfg = ExperimentConfig(seed=2, n_values=(10,), r_values=(3, 6), trials=1, specs=((5, 5),))
    rows = run_verification_experiment(cfg).rows
    assert [row.r for row in rows] and {row.r for row in rows} == {6}


@pytest.fixture
def solver_calls(monkeypatch):
    """Per call of ``experiment._solve``, in call order, the one solve it
    made: "matching" for a maximum matching of the graph, else the window
    (lo, hi) handed to ``factor_or_witness``."""
    calls, made = [], []
    seam, match, solve = experiment._solve, experiment.max_matching, experiment.factor_or_witness

    def seam_spy(g, r, spec, seed):
        made.clear()
        result = seam(g, r, spec, seed)
        (call,) = made
        calls.append(call)
        return result

    monkeypatch.setattr(experiment, "_solve", seam_spy)
    monkeypatch.setattr(experiment, "max_matching", lambda g: made.append("matching") or match(g))
    monkeypatch.setattr(experiment, "factor_or_witness",
                        lambda g, spec: made.append((spec.g[0], spec.f[0])) or solve(g, spec))
    return calls


@contextmanager
def _reject_every_cached_factor():
    """The harness's ``verify_factor`` rejects every factor kept from an
    earlier window: it checks factors only inside ``_solve``, which checks
    only the factor it has just solved for, or that factor's complement, so
    every satisfied (a, b) is solved afresh."""
    seam, solving = experiment._solve, []

    def seam_spy(*args):
        solving.append(True)
        try:
            return seam(*args)
        finally:
            solving.pop()

    def verify_fresh(g, spec, f):
        return verify_factor(g, spec, f) if solving else (False, "planted")

    with mock.patch.multiple(experiment, _solve=seam_spy, verify_factor=verify_fresh):
        yield


def _sweep_csv_digest() -> str:
    report = run_verification_experiment(soundness_sweep.sweep_config(0, 2))
    assert len(report.rows) == 662
    return hashlib.sha256(report.to_csv().encode()).hexdigest()


def test_soundness_sweep_csv_is_pinned(solver_calls):
    assert _sweep_csv_digest() == SWEEP_CSV_SHA256
    # an earlier factor of the same graph, or its complement, answers the rest
    assert len(solver_calls) <= SWEEP_FRESH_SOLVES // 2
    matchings = solver_calls.count("matching")
    assert (matchings, len(solver_calls) - matchings) == SWEEP_SOLVES


def test_rejected_cached_factors_fall_back_to_the_solver(solver_calls):
    with _reject_every_cached_factor():
        assert _sweep_csv_digest() == SWEEP_CSV_SHA256
    assert len(solver_calls) == SWEEP_FRESH_SOLVES


def test_a_factor_and_its_complement_serve_the_eight_sweep_specs(solver_calls):
    # on this 6-regular graph (2,4) has no satisfied case; (1,1) and (2,2)
    # have a + b < 6, so their windows are the complements (5,5) and (4,4):
    # (5,5) = (r - 1, r - 1) is solved as a perfect matching of the graph,
    # which serves (1,1) itself, and the (4,4) factor's complement serves
    # (2,2); (3,3) has a + b = 6 and is solved as itself; the three factors
    # and their complements serve the other four satisfied specs
    cfg = ExperimentConfig(seed=7, n_values=(20,), r_values=(6,), trials=1, specs=SWEEP_SPECS)
    rows = run_verification_experiment(cfg).rows
    assert {(row.a, row.b) for row in rows if row.outcome == "found"} == set(SWEEP_SPECS) - {(2, 4)}
    assert solver_calls == ["matching", (4, 4), (3, 3)]


def test_every_found_row_rests_on_a_verified_factor(monkeypatch):
    # (graph edges, a, b) of every factor the solver returned (it verifies
    # its own) or the harness's verify_factor accepted
    verified = set()
    solve, verify = experiment.factor_or_witness, experiment.verify_factor

    def solve_spy(g, spec):
        result = solve(g, spec)
        if isinstance(result, Factor) and verify_factor(g, spec, result)[0]:
            verified.add((g.edges, spec.g[0], spec.f[0]))
        return result

    def verify_spy(g, spec, factor):
        ok, reason = verify(g, spec, factor)
        if ok:
            verified.add((g.edges, spec.g[0], spec.f[0]))
        return ok, reason

    monkeypatch.setattr(experiment, "factor_or_witness", solve_spy)
    monkeypatch.setattr(experiment, "verify_factor", verify_spy)
    rows = run_verification_experiment(soundness_sweep.sweep_config(0, 2)).rows
    found = {(row.seed, row.n, row.r, row.a, row.b) for row in rows if row.outcome == "found"}
    assert len(found) > 100
    for seed, n, r, a, b in found:
        assert (random_regular(n, r, seed).edges, a, b) in verified


@st.composite
def small_configs(draw):
    specs = [(a, b) for a in range(1, 6) for b in range(a, 8, 2)]
    return ExperimentConfig(
        seed=draw(st.integers(0, 2 ** 32)),
        n_values=tuple(draw(st.lists(st.integers(6, 14), min_size=1, max_size=2, unique=True))),
        r_values=tuple(draw(st.lists(st.integers(3, 7), min_size=1, max_size=2, unique=True))),
        trials=draw(st.integers(1, 2)),
        specs=tuple(draw(st.lists(st.sampled_from(specs), min_size=1, max_size=6, unique=True))),
    )


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_reuse_changes_no_row(cfg):
    rows = run_verification_experiment(cfg).rows
    with _reject_every_cached_factor():
        assert run_verification_experiment(cfg).rows == rows


def _run_grid(monkeypatch, *r_values) -> None:
    monkeypatch.setattr("sys.argv", ["run_sharpness_grid.py", "--r", *map(str, r_values)])
    sharpness_grid.main()


def test_sharpness_grid_certifies_every_tuple_through_the_harness(monkeypatch, capsys):
    # r = 4, 6, 8: 1, 2 and 5 tuples, as in the solver's extremal-family test
    _run_grid(monkeypatch, 4, 6, 8)
    rows = capsys.readouterr().out.splitlines()
    assert sum("infeasible-verified" in row for row in rows) == 8
    assert rows[-1].startswith("done in ")


def test_sharpness_grid_exits_1_on_a_witness_off_by_one(monkeypatch, capsys):
    # at r = 8 the (1,1) tuples are read off a matching of the graph, and
    # (8, 2, 1, 3) is the first tuple whose witness the gadget gives
    solve = experiment.factor_or_witness

    def off_by_one(g, spec):
        witness = solve(g, spec)
        return replace(witness, delta=witness.delta + 1)

    monkeypatch.setattr(experiment, "factor_or_witness", off_by_one)
    with pytest.raises(SystemExit) as exc:
        _run_grid(monkeypatch, 8)
    assert exc.value.code == 1
    assert "extremal instance (r=8, m=2, a=1, b=3) did not certify" in capsys.readouterr().err


def test_an_unswapped_flipped_witness_is_a_counterexample(monkeypatch):
    # (8, 2, 1, 3) is solved on the complement window (5, 7), whose
    # certificate has the hubs on T; the same numbers with the hubs on S
    # prove nothing there, and swapped back they prove nothing under (1, 3)
    solve = experiment.factor_or_witness

    def unswapped(g, spec):
        witness = solve(g, spec)
        return replace(witness, S=witness.T, T=witness.S)

    monkeypatch.setattr(experiment, "factor_or_witness", unswapped)
    cfg = ExperimentConfig(n_values=(), r_values=(), trials=0, extremal=((8, 2, 1, 3),))
    with pytest.raises(CounterexampleError, match=r"^extremal instance \(r=8, m=2, a=1, b=3\) did not certify"):
        run_verification_experiment(cfg)


def test_a_recomputed_certificate_off_by_one_is_a_counterexample(monkeypatch):
    # the solver's witness is right, but the certificate recomputed under
    # (a, b) with deficiency must match sharpness_certificate as well; the
    # gadget tuple (8, 2, 1, 3) reads its witness without this deficiency
    recompute = experiment.deficiency

    def off_by_one(g, spec, s, t):
        witness = recompute(g, spec, s, t)
        return replace(witness, delta=witness.delta + 1)

    monkeypatch.setattr(experiment, "deficiency", off_by_one)
    cfg = ExperimentConfig(n_values=(), r_values=(), trials=0, extremal=((8, 2, 1, 3),))
    with pytest.raises(CounterexampleError, match=r"^extremal instance \(r=8, m=2, a=1, b=3\) did not certify"):
        run_verification_experiment(cfg)


@pytest.mark.parametrize("cut", [
    lambda g, spec, s, t: None,
    lambda g, spec, s, t: (VertexSet.of(range(9)), 3),
], ids=["no-small-cut", "cut-off-lambda"])
def test_an_extremal_witness_without_a_small_cut_of_lambda_edges_is_a_counterexample(monkeypatch, cut):
    # the witness must leave an odd component C whose |dC| is the measured
    # lambda; on the true family that is block 0 with its m = 2 hub edges
    monkeypatch.setattr(experiment, "small_cut", cut)
    cfg = ExperimentConfig(n_values=(), r_values=(), trials=0, extremal=((4, 2, 1, 1),))
    with pytest.raises(CounterexampleError, match=r"^extremal instance \(r=4, m=2, a=1, b=1\) did not certify"):
        run_verification_experiment(cfg)


def test_extremal_tuples_are_certified_on_the_complement_window(monkeypatch, capsys):
    # every sharpness tuple with r <= 12 is solved under its own (a, b) and
    # gets the paper's certificate S = hubs, T empty, delta = b*m - r,
    # tau = r; each tuple other than (1, 1) runs the gadget on the
    # complement window (r - b, r - a), whose witness has the hubs on T
    solved, gadget = [], []
    seam, solve = experiment._solve, experiment.factor_or_witness

    def seam_spy(g, r, spec, seed):
        result = seam(g, r, spec, seed)
        solved.append((g, spec, result))
        return result

    def gadget_spy(g, spec):
        result = solve(g, spec)
        gadget.append((g.edges, spec, result))
        return result

    monkeypatch.setattr(experiment, "_solve", seam_spy)
    monkeypatch.setattr(experiment, "factor_or_witness", gadget_spy)
    _run_grid(monkeypatch, 4, 6, 8, 10, 12)
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:-1]]
    assert len(rows) == len(solved) > 20
    complement_solves = []
    for (_, n, r, lam, a, b, _, _, delta), (g, spec, result) in zip(rows, solved):
        r, m, a, b = int(r), int(lam), int(a), int(b)
        graph, hubs = extremal_construction(r, m)
        assert (g.edges, spec) == (graph.edges, ParitySpec.constant(a, b, g.n))
        assert result == DeficiencyWitness(hubs, VertexSet.empty(), b * m - r, r)
        assert int(delta) == result.delta
        if (a, b) != (1, 1):
            complement_solves.append((graph.edges, ParitySpec.constant(r - b, r - a, g.n),
                                      DeficiencyWitness(VertexSet.empty(), hubs, b * m - r, r)))
    assert gadget == complement_solves and gadget


def _extremal_graphs(max_r: int):
    """(r, m, graph) for every extremal construction with r <= max_r."""
    return [(r, m, extremal_construction(r, m)[0])
            for r in range(4, max_r + 1, 2) for m in range(2, r - 1, 2)]


def test_every_window_on_the_extremal_family_is_answered_under_its_own_window():
    # over every window 1 <= a <= b < r with a = b (mod 2): a factor serves the
    # window, its complement the mirror (r - b, r - a); a witness holds under
    # the window, swapped under the mirror, and the mirror has one too
    counts = {"factor": 0, "witness, a + b < r": 0, "witness, a + b >= r": 0}
    for r, _, g in _extremal_graphs(12):
        windows = [(a, b) for a in range(1, r) for b in range(a, r, 2)]
        results = {w: experiment._solve(g, r, ParitySpec.constant(*w, g.n), 0) for w in windows}
        for (a, b), result in results.items():
            spec, mirror = ParitySpec.constant(a, b, g.n), ParitySpec.constant(r - b, r - a, g.n)
            other = results[r - b, r - a]
            if isinstance(result, DeficiencyWitness):
                counts["witness, a + b >= r" if a + b >= r else "witness, a + b < r"] += 1
                assert verify_witness(g, spec, result) == (True, "ok")
                swapped = replace(result, S=result.T, T=result.S)
                assert verify_witness(g, mirror, swapped) == (True, "ok")
                assert isinstance(other, DeficiencyWitness)
                assert (other.delta, other.tau) == (result.delta, result.tau)
            else:
                counts["factor"] += 1
                factor = result[2]
                complement = Factor(g.n, tuple(sorted(set(g.edges) - set(factor.edges))))
                assert any(verify_factor(g, spec, f)[0] and verify_factor(g, mirror, c)[0]
                           for f, c in ((factor, complement), (complement, factor)))
                assert not isinstance(other, DeficiencyWitness)
    assert counts == {"factor": 302, "witness, a + b < r": 24, "witness, a + b >= r": 24}


def test_one_one_sharpness_tuples_take_their_certificate_from_a_matching(monkeypatch):
    # the window (1, 1) runs no gadget: the graph's own Tutte barrier is the
    # hubs, so (A, {}) is the paper's certificate for every m at r <= 20
    monkeypatch.setattr(experiment, "factor_or_witness", None)
    tuples = _extremal_graphs(20)
    assert len(tuples) == 45
    for r, m, g in tuples:
        cert = sharpness_certificate(r, m, 1, 1)
        assert experiment._solve(g, r, ParitySpec.constant(1, 1, g.n), 0) == cert


@st.composite
def regular_graphs(draw):
    """A random r-regular graph with n <= 14 and 3 <= r <= 7."""
    r = draw(st.integers(3, 7))
    n = draw(st.integers(r + 1, 14))
    n += n * r % 2  # n odd only if r is even; else n < 14
    return random_regular(n, r, draw(st.integers(0, 2 ** 32)))


@st.composite
def regular_graphs_with_windows(draw):
    """A graph of ``regular_graphs``, a window a <= b < r with
    a = b (mod 2), and disjoint S and T."""
    g = draw(regular_graphs())
    n, r = g.n, g.degree(0)
    a = draw(st.integers(0, r - 1))
    b = draw(st.sampled_from(range(a, r, 2)))
    s, t = draw(disjoint_sets(n))
    return g, r, a, b, s, t


@settings(max_examples=80, deadline=None, derandomize=True)
@given(regular_graphs_with_windows())
def test_a_window_and_its_complement_are_one_problem(data):
    # on an r-regular graph F is an (a, b)-parity factor iff E - F is an
    # (r - b, r - a)-parity factor, and delta_(a,b)(S, T) equals
    # delta_(r-b,r-a)(T, S) with the same tau: the harness's solves rest on it
    g, r, a, b, s, t = data
    spec, flipped = ParitySpec.constant(a, b, g.n), ParitySpec.constant(r - b, r - a, g.n)
    factors = find_parity_factor(g, spec), find_parity_factor(g, flipped)
    assert (factors[0] is None) == (factors[1] is None)
    for factor, other in zip(factors, (flipped, spec)):
        if factor is not None:
            complement = Factor(g.n, tuple(sorted(set(g.edges) - set(factor.edges))))
            assert verify_factor(g, other, complement) == (True, "ok")
    w, w_flipped = deficiency(g, spec, s, t), deficiency(g, flipped, t, s)
    assert (w.delta, w.tau) == (w_flipped.delta, w_flipped.tau)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(regular_graphs())
@example(extremal_construction(4, 2)[0])  # no 1-factor
def test_the_matching_path_agrees_with_the_gadget(g):
    # the harness solves the window (r - 1, r - 1), from the row (1,1) or
    # (r - 1, r - 1), as a perfect matching M of g: M exists iff the gadget
    # finds an (r - 1, r - 1)-parity factor, and then M is a (1,1)-parity
    # factor and E - M an (r - 1, r - 1)-parity factor; else the two rows
    # read one barrier witness, S and T trading places
    r = g.degree(0)
    one, top = ParitySpec.constant(1, 1, g.n), ParitySpec.constant(r - 1, r - 1, g.n)
    kept = experiment._solve(g, r, one, 0)
    assert isinstance(kept, DeficiencyWitness) == isinstance(factor_or_witness(g, top), DeficiencyWitness)
    if isinstance(kept, DeficiencyWitness):
        assert experiment._solve(g, r, top, 0) == replace(kept, S=kept.T, T=kept.S)
    else:
        assert experiment._solve(g, r, top, 0) == kept
        lo, hi, matching = kept
        assert (lo, hi) == (1, 1)
        complement = Factor(g.n, tuple(sorted(set(g.edges) - set(matching.edges))))
        assert verify_factor(g, one, matching) == (True, "ok")
        assert verify_factor(g, top, complement) == (True, "ok")


@st.composite
def odd_order_regular_graphs(draw):
    """A random r-regular graph with even r <= 8 and odd n <= 15, so with
    no perfect matching."""
    r = draw(st.sampled_from((2, 4, 6, 8)))
    n = 2 * draw(st.integers(r // 2, 7)) + 1
    return random_regular(n, r, draw(st.integers(0, 2 ** 32)))


def _hubs_over_three_blocks():
    """A 4-regular graph on 17 vertices with a nonempty Tutte barrier: two
    adjacent hubs, each joined to one deficient vertex of each of three
    copies of K_5 minus an edge. Random graphs of odd order rarely have one."""
    block = _block(4, 2).edges
    edges = [(15, 16)]
    for off in (0, 5, 10):
        edges += [(off + u, off + v) for u, v in block] + [(off, 15), (off + 1, 16)]
    return build_graph(17, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(odd_order_regular_graphs())
@example(_hubs_over_three_blocks())
def test_the_barrier_witness_is_as_deep_as_the_gadgets(g):
    # both rows of the window (r - 1, r - 1) read g's Tutte barrier, with
    # delta = -def(G): the least delta of any pair, which the (r - 1, r - 1)
    # gadget's barrier witness attains too
    r = g.degree(0)
    gadget = factor_or_witness(g, ParitySpec.constant(r - 1, r - 1, g.n))
    for a in (1, r - 1):
        spec = ParitySpec.constant(a, a, g.n)
        witness = experiment._solve(g, r, spec, 0)
        assert verify_witness(g, spec, witness) == (True, "ok")
        assert witness.delta == gadget.delta
