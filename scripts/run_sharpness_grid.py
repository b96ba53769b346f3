#!/usr/bin/env python3
"""Reproduce the sharpness grid: for each even r, even m <= r-2, and odd
a <= b with b*m < r, certify the extremal instance through the verification
harness and print its table. Exits 1 at the first instance that is not
infeasible with lambda = m and the paper's witness: S = hubs, T empty,
delta = b*m - r, tau = r."""
from __future__ import annotations

import argparse
import sys
import time

from paritylab import ExperimentConfig, run_verification_experiment
from paritylab.errors import CounterexampleError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, nargs="+", default=[4, 6, 8])
    args = parser.parse_args()

    grid = tuple(
        (r, m, a, b)
        for r in args.r if r % 2 == 0
        for m in range(2, r - 1, 2)
        for b in range(1, r, 2) if b * m < r
        for a in range(1, b + 1, 2)
    )
    t0 = time.time()
    try:
        report = run_verification_experiment(
            ExperimentConfig(n_values=(), r_values=(), trials=0, extremal=grid)
        )
    except CounterexampleError as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
    print(report.to_table(), end="")
    print(f"done in {time.time() - t0:.2f}s")


if __name__ == "__main__":
    main()
