#!/usr/bin/env python3
"""Steadiness tooling: run each workload several times, summarise, compare.

    python3 perfbench/steady.py run --runs 10 --seed0 1 --out .perfbench_out/a.json
    python3 perfbench/steady.py run --runs 10 --seed0 101 --out .perfbench_out/b.json
    python3 perfbench/steady.py compare .perfbench_out/a.json .perfbench_out/b.json

``run`` starts ``run.py`` once per (workload, seed), for every workload in
BENCHMARK.json and for its ``run_seconds``, one process at a time. It prints
each end-to-end metric's median, quartiles and spread (quartile distance as a
share of the median) next to its bound in BENCHMARK.json. ``--trace 1`` makes
the traced runs and prints the per-layer medians instead. ``compare`` says
whether two sets agree: every spread within its bound, no median of the second
set worse than the first's by more than the bound, and the same share of
failed operations. It exits 1 if not.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def run_set(args) -> int:
    bench = load_benchmark()
    results = {}
    for name in (w["name"] for w in bench["workloads"]):
        results[name] = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, wall
            results[name].append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))
    summarise(results, bench)
    return 0


def summarise(results, bench) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{name}: {len(runs)} runs, failed share {shares}, "
              f"all correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<42} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
            s = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None else f"{bound:>6}" + ("" if s <= bound / 3 else " *")
            print(f"  {metric:<42} {runs[0]['metrics'][metric]['unit']:>6} {q2:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {s:>7.3f} {flag}")


def compare(args) -> int:
    bench = load_benchmark()
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for name in first:
        share = {r["failed"] / r["attempted"] for r in first[name] + second[name]}
        if len(share) != 1:
            print(f"{name}: failed share differs between runs: {sorted(share)}")
            ok = False
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in first[name]]
            b = [r["metrics"][key]["value"] for r in second[name]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            spreads = (spread(a), spread(b))
            verdict = []
            if max(spreads) > bound:
                verdict.append("spread over bound")
            if worse > bound:
                verdict.append("second median worse than bound")
            ok &= not verdict
            print(f"{name:<18} {key:<12} spreads {spreads[0]:.3f}/{spreads[1]:.3f} "
                  f"worse {worse:+.3f} bound {bound} {'; '.join(verdict) or 'ok'}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run each workload --runs times and summarise")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="first seed; runs use seed0, seed0+1, ...")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the raw results here as JSON")
    p = sub.add_parser("compare", help="check that two result sets agree within the bounds")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
