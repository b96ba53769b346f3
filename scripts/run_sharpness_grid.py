#!/usr/bin/env python3
"""Reproduce the sharpness grid: for each even r, even m <= r-2, and odd
a <= b with b*m < r, build the extremal instance and print the solver's
certificate. Exits 1 if any row is not an infeasible instance with
lambda = m whose witness is the paper's: S = hubs, T empty, delta = b*m - r,
tau = r."""
from __future__ import annotations

import argparse
import sys
import time

from paritylab import (
    DeficiencyWitness,
    ExtremalParams,
    Factor,
    ParitySpec,
    edge_connectivity,
    extremal_construction,
    factor_or_witness,
)
from paritylab.experiment import is_paper_certificate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, nargs="+", default=[4, 6, 8])
    args = parser.parse_args()

    print(f"{'r':>3} {'m':>3} {'a':>3} {'b':>3} {'n':>5} {'lambda':>6} "
          f"{'delta':>6} {'tau':>4} {'solver':>10} {'witness':>8}")
    t0 = time.time()
    failed = 0
    for r in args.r:
        for m in range(2, r - 1, 2):
            g, hubs = extremal_construction(ExtremalParams(r, m))
            lam, _ = edge_connectivity(g)
            for b in range(1, r, 2):
                if b * m >= r:
                    continue
                for a in range(1, b + 1, 2):
                    result = factor_or_witness(g, ParitySpec.constant(a, b, g.n))
                    ok = lam == m and is_paper_certificate(result, hubs, r, m, b)
                    failed += not ok
                    w = result if isinstance(result, DeficiencyWitness) else None
                    print(f"{r:>3} {m:>3} {a:>3} {b:>3} {g.n:>5} {lam:>6} "
                          f"{w.delta if w else '-':>6} {w.tau if w else '-':>4} "
                          f"{'FOUND?!' if isinstance(result, Factor) else 'infeasible':>10} "
                          f"{'ok' if ok else 'BAD':>8}")
    print(f"done in {time.time() - t0:.2f}s")
    if failed:
        print(f"{failed} rows not infeasible/ok")
        sys.exit(1)


if __name__ == "__main__":
    main()
