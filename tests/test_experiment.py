from __future__ import annotations

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import experiment
from paritylab.errors import CounterexampleError, GraphSyntaxError, HypothesisViolation
from paritylab.experiment import (
    ExperimentConfig,
    parse_config,
    run_verification_experiment,
)
from paritylab.generators import random_regular
from paritylab.solver import verify_factor


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
# gadget solves on that config when every satisfied (a, b) is solved afresh
SWEEP_FRESH_SOLVES = 340
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
    monkeypatch.setattr(experiment, "find_parity_factor", lambda g, spec: None)
    cfg = ExperimentConfig(seed=7, n_values=(10,), r_values=(3,), trials=1, specs=((1, 1),))
    with pytest.raises(CounterexampleError, match="satisfied cases"):
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
    """The specs handed to ``experiment.find_parity_factor``, in call order."""
    calls = []
    solve = experiment.find_parity_factor

    def spy(g, spec):
        calls.append(spec)
        return solve(g, spec)

    monkeypatch.setattr(experiment, "find_parity_factor", spy)
    return calls


def _reject_every_cached_factor():
    return mock.patch.object(experiment, "verify_factor", lambda g, spec, f: (False, "planted"))


def _sweep_csv_digest() -> str:
    report = run_verification_experiment(soundness_sweep.sweep_config(0, 2))
    assert len(report.rows) == 662
    return hashlib.sha256(report.to_csv().encode()).hexdigest()


def test_soundness_sweep_csv_is_pinned(solver_calls):
    assert _sweep_csv_digest() == SWEEP_CSV_SHA256
    # an earlier factor of the same graph, or its complement, answers the rest
    assert len(solver_calls) <= SWEEP_FRESH_SOLVES // 2


def test_rejected_cached_factors_fall_back_to_the_solver(solver_calls):
    with _reject_every_cached_factor():
        assert _sweep_csv_digest() == SWEEP_CSV_SHA256
    assert len(solver_calls) == SWEEP_FRESH_SOLVES


def test_a_factor_and_its_complement_serve_the_eight_sweep_specs(solver_calls):
    # on this 6-regular graph (2,4) has no satisfied case; the (1,1) factor
    # serves (1,3) and its complement (5,5), the (2,2) factor's complement
    # serves (4,4), and the (3,3) factor serves (3,5)
    cfg = ExperimentConfig(seed=7, n_values=(20,), r_values=(6,), trials=1, specs=SWEEP_SPECS)
    rows = run_verification_experiment(cfg).rows
    assert {(row.a, row.b) for row in rows if row.outcome == "found"} == set(SWEEP_SPECS) - {(2, 4)}
    assert [(spec.g[0], spec.f[0]) for spec in solver_calls] == [(1, 1), (2, 2), (3, 3)]


def test_every_found_row_rests_on_a_verified_factor(monkeypatch):
    # (graph edges, a, b) of every factor the solver returned (it verifies
    # its own) or the harness's verify_factor accepted
    verified = set()
    solve, verify = experiment.find_parity_factor, experiment.verify_factor

    def solve_spy(g, spec):
        factor = solve(g, spec)
        if factor is not None and verify_factor(g, spec, factor)[0]:
            verified.add((g.edges, spec.g[0], spec.f[0]))
        return factor

    def verify_spy(g, spec, factor):
        ok, reason = verify(g, spec, factor)
        if ok:
            verified.add((g.edges, spec.g[0], spec.f[0]))
        return ok, reason

    monkeypatch.setattr(experiment, "find_parity_factor", solve_spy)
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
    solve = experiment.factor_or_witness

    def off_by_one(g, spec):
        witness = solve(g, spec)
        return replace(witness, delta=witness.delta + 1)

    monkeypatch.setattr(experiment, "factor_or_witness", off_by_one)
    with pytest.raises(SystemExit) as exc:
        _run_grid(monkeypatch, 4)
    assert exc.value.code == 1
    assert "extremal instance (r=4, m=2, a=1, b=1) did not certify" in capsys.readouterr().err
