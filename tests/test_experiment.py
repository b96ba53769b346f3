from __future__ import annotations

import pytest

from paritylab import experiment
from paritylab.errors import CounterexampleError, GraphSyntaxError, HypothesisViolation
from paritylab.experiment import (
    ExperimentConfig,
    parse_config,
    run_verification_experiment,
)


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


@pytest.mark.parametrize("r,m,a,b", [(6, 2, 1, 3), (6, 2, 2, 2), (8, 4, 3, 3)])
def test_extremal_tuple_outside_the_sharpness_domain_is_rejected(monkeypatch, r, m, a, b):
    # b*m >= r or an even bound: the construction need not defeat these, so
    # they are input errors, caught before any graph is built
    monkeypatch.setattr(experiment, "extremal_construction", None)
    cfg = ExperimentConfig(seed=1, trials=1, extremal=((r, m, a, b),))
    with pytest.raises(HypothesisViolation, match=rf"\(r={r}, m={m}, a={a}, b={b}\)"):
        run_verification_experiment(cfg)
