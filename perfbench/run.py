#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print one JSON result line.

    python3 perfbench/run.py --workload solve-random --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in. A
run sets up SETUP_REPS times (fresh import of paritylab, instance generation,
input files), then repeats whole rounds of the workload's operations until
``--seconds`` have passed, timing each operation and a fixed reference kernel
before and after it. ``--trace 0`` reports the end-to-end metrics, with every
time rescaled by the kernel to a fixed reference speed so that contention on a
shared host cancels out; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics in plain wall time, all but the tracing
overhead, which is at reference speed. Every operation's output
is checked; the last stdout line is the result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7
# about RefKernel.timed() on a quiet 2-core Intel Xeon VM under CPython 3.11; all
# reported times are rescaled to a host on which the kernel takes this long
KERNEL_NOMINAL_S = 0.009


def import_program() -> None:
    """Import paritylab afresh, so every set-up repetition pays the import."""
    for name in [k for k in sys.modules if k == "paritylab" or k.startswith("paritylab.")]:
        del sys.modules[name]
    importlib.import_module("paritylab")
    importlib.import_module("paritylab.cli")


class RefKernel:
    """A fixed piece of pure-Python work timed between operations, to gauge
    how fast the host runs interpreted code at that moment: a breadth-first
    search over a fixed pseudo-random graph (list, deque and adjacency work,
    as in the matcher and connectivity) and an integer mixing loop
    (arithmetic and bit work, as in the enumeration). About 9 ms, long
    enough that one scheduler preemption does not dominate a sample."""

    def __init__(self, n: int = 4096, half_degree: int = 3) -> None:
        x = 12345
        self.adj = [[] for _ in range(n)]
        for v in range(n):
            for _ in range(half_degree):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                w = x % n
                self.adj[v].append(w)
                self.adj[w].append(v)

    def timed(self) -> float:
        adj = self.adj
        start = perf_counter()
        dist = [-1] * len(adj)
        dist[0] = 0
        queue = deque([0])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    queue.append(w)
        x = 0
        for i in range(20000):
            x = ((x * 3 + i) & 0xFFFFFFFFFF) ^ (x >> 7)
        return perf_counter() - start


def at_reference_speed(op_times, kernel_times) -> list[float]:
    """Each operation's wall time rescaled to a host on which the reference
    kernel takes KERNEL_NOMINAL_S: it is multiplied by KERNEL_NOMINAL_S over
    the mean of the kernel samples just before and just after it."""
    return [
        2 * KERNEL_NOMINAL_S * t / (kernel_times[i] + kernel_times[i + 1])
        for i, t in enumerate(op_times)
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    kernel = RefKernel()
    setup_times = []
    for _ in range(SETUP_REPS):
        before = kernel.timed()
        start = perf_counter()
        import_program()
        if tracer:
            tracer.install()
        setup = WORKLOADS[args.workload](args.seed, workdir)
        elapsed = perf_counter() - start
        if tracer:
            tracer.uninstall()
        setup_times += at_reference_speed([elapsed], [before, kernel.timed()])

    rounds = []  # (traced, op seconds, kernel seconds around them) per round
    first_results = []
    attempted = failed = 0
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.group = "round"
            tracer.install()
        gc.collect()
        op_times, kernel_times = [], []
        for op in setup.ops:
            kernel_times.append(kernel.timed())
            start = perf_counter()
            result = op.run()
            op_times.append(perf_counter() - start)
            attempted += 1
            failed += not op.check(result)
            if not rounds:
                first_results.append(result)
        kernel_times.append(kernel.timed())
        if traced:
            tracer.uninstall()
        rounds.append((traced, op_times, kernel_times))
        if perf_counter() - begin >= args.seconds and (tracer is None or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.group = "check"
        tracer.install()
    setup.cross_check(first_results)
    if tracer:
        tracer.uninstall()

    if tracer is None:
        n_ops = len(setup.ops)
        adjusted = [at_reference_speed(t, k) for _, t, k in rounds]
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(n_ops / sum(a) for a in adjusted),
            "op_p50_s": statistics.median(
                statistics.median(a[i] for a in adjusted) for i in range(n_ops)
            ),
            "work_ref": statistics.median(sum(a) for a in adjusted) / KERNEL_NOMINAL_S,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # at reference speed, unlike the layer times: in wall time, contention on
        # the host moves a round by more than the wrappers cost
        plain = [sum(at_reference_speed(t, k)) for traced, t, k in rounds if not traced]
        with_trace = [sum(at_reference_speed(t, k)) for traced, t, k in rounds if traced]
        weights = {"setup": 1 / SETUP_REPS, "round": 1 / len(with_trace)}
        overhead = statistics.median(with_trace) - statistics.median(plain)
        values = layer_metrics(tracer.spans, weights, {"check": 1.0}, overhead)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    # names and units as BENCHMARK.json lists them; a metric missing here is an error
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if tracer else "end_to_end"]
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paritylab" / "__init__.py").is_file():
        print(f"error: no paritylab package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    except Exception:
        # a wrong output or a crash of the program: report it, never a figure
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
