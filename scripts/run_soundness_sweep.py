#!/usr/bin/env python3
"""Random-regular soundness sweep: every theorem case satisfied at the
measured edge-connectivity must come with a verified parity factor."""
from __future__ import annotations

import argparse

from paritylab import ExperimentConfig, run_verification_experiment


def sweep_config(seed: int, trials: int) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        n_values=(10, 12, 14, 16, 20),
        r_values=(3, 4, 5, 6, 7, 8),
        trials=trials,
        specs=((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (5, 5)),
        extremal=((4, 2, 1, 1), (6, 2, 1, 1), (6, 4, 1, 1), (8, 2, 1, 3)),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    report = run_verification_experiment(sweep_config(args.seed, args.trials))
    print(report.to_table())
    found = sum(1 for row in report.rows if row.outcome == "found")
    certified = sum(1 for row in report.rows if row.outcome == "infeasible-verified")
    print(f"{found} satisfied cases solved, {certified} extremal instances certified")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())


if __name__ == "__main__":
    main()
