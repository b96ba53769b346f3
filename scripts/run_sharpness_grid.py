#!/usr/bin/env python3
"""Reproduce the sharpness grid: for each given r, certify every extremal
tuple (r, m, a, b) that ``paritylab.generators.sharpness_certificate`` admits
through the verification harness and print its table. Exits 1 at the first
instance that is not infeasible with lambda = m and that witness."""
from __future__ import annotations

import argparse
import sys
import time

from paritylab import ExperimentConfig, run_verification_experiment, sharpness_certificate
from paritylab.errors import CounterexampleError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, nargs="+", default=[4, 6, 8])
    args = parser.parse_args()

    grid = tuple(
        (r, m, a, b)
        for r in args.r for m in range(r) for b in range(r) for a in range(b + 1)
        if sharpness_certificate(r, m, a, b) is not None
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
