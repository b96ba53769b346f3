"""The four workloads: their seeded instance sets, operations and checks.

A workload's ``setup(seed, workdir)`` imports nothing itself: it reads the
paritylab modules the runner has just imported from ``sys.modules``, builds
the instances, writes any input files and returns a ``Setup``. Each ``Op``
has a ``run`` (the timed call into the program) and a ``check`` that judges
its result with the benchmark's own checkers only: it returns False for an
operation that failed as the program's known fault predicts and raises
``CheckFailed`` for a wrong result. ``cross_check`` runs once per run, after
the timed rounds, on the first round's results; it compares them with the
program's other oracles and with networkx.
"""
from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from checkers import (
    CheckFailed,
    check_cut,
    check_factor,
    check_witness,
    nx_edge_connectivity,
    nx_has_perfect_matching,
    parse_graph_text,
    parse_witness_text,
)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Setup:
    ops: list[Op]
    cross_check: Callable[[list[Any]], None] = field(default=lambda results: None)


def _program():
    """The paritylab modules imported last by the runner."""
    return {name: sys.modules[f"paritylab.{name}"] for name in (
        "graph", "solver", "lovasz", "generators", "experiment", "cli",
    )}


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- solve-random

# (n, r, a, b). Each instance is feasible once the sampled graph has the
# edge-connectivity a random r-regular graph has with high probability; the
# README lists the theorem behind each row. The matcher's running time on
# one random graph varies by 30-60 % between samples, so the graphs of
# SOLVE_FIXED -- nearly all of a round's time -- come from fixed seeds, and
# runs with different --seed measure the same work. --seed draws the graphs
# of SOLVE_SEEDED, small ones that vary the inputs without moving the figures.
SOLVE_FIXED = (
    (300, 3, 1, 1), (2000, 3, 1, 1), (1200, 3, 2, 2), (2000, 3, 2, 2),
    (400, 4, 1, 3), (600, 4, 1, 3), (800, 4, 2, 4), (1000, 4, 2, 2), (800, 4, 1, 1),
    (500, 5, 2, 2), (600, 5, 1, 1), (400, 5, 1, 3), (600, 5, 2, 4),
    (300, 6, 1, 1), (400, 6, 2, 2), (300, 6, 1, 3), (400, 6, 2, 4), (600, 6, 1, 1),
)
SOLVE_SEEDED = (
    (100, 3, 1, 1), (150, 3, 2, 2), (100, 4, 1, 3), (150, 4, 2, 4),
    (100, 5, 1, 1), (150, 5, 2, 2), (100, 6, 1, 3), (150, 6, 2, 4),
)


def setup_solve_random(seed: int, workdir) -> Setup:
    p = _program()
    solver, lovasz, generators = p["solver"], p["lovasz"], p["generators"]
    fixed = random.Random("solve-random/fixed")
    seeded = random.Random(f"solve-random/{seed}")
    ops = []
    for rng, mix in ((fixed, SOLVE_FIXED), (seeded, SOLVE_SEEDED)):
        for n, r, a, b in mix:
            g = generators.random_regular(n, r, rng.randrange(2 ** 63))
            spec = lovasz.ParitySpec.constant(a, b, n)

            def run(g=g, spec=spec):
                factor = solver.find_parity_factor(g, spec)
                return factor, factor is not None and solver.verify_factor(g, spec, factor)[0]

            def check(result, g=g, a=a, b=b):
                factor, verified = result
                _ensure(factor is not None, f"no factor on a feasible instance (n={g.n})")
                _ensure(verified, "verify_factor rejected the solver's own factor")
                check_factor(g.n, g.edges, factor.edges, (a,) * g.n, (b,) * g.n)
                return True

            ops.append(Op(f"solve n={n} r={r} ({a},{b})", run, check))
    seeded.shuffle(ops)
    return Setup(ops)


# ----------------------------------------------------------- certify-sharpness

R_MAX = 10     # largest r of the extremal family solved in a round
R_STRIPPED = 8  # the r whose texts are also solved without the trailer
NO_WITNESS = "infeasible (no witness within enumeration cap)\n"


def _sharpness_specs(r: int, m: int):
    """Every odd a <= b with b*m < r: the specs the construction defeats."""
    return [(a, b) for b in range(1, r, 2) if b * m < r for a in range(1, b + 1, 2)]


def _call_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def setup_certify_sharpness(seed: int, workdir) -> Setup:
    cli = _program()["cli"]
    ops = []
    graphs = {}  # path -> (n, edges), parsed by the benchmark on first use
    texts = []  # (path, m) of every full construct text
    for r in range(4, R_MAX + 1, 2):
        for m in range(2, r - 1, 2):
            code, text = _call_cli(cli, ["construct", "--r", str(r), "--m", str(m)])
            _ensure(code == 0, f"construct --r {r} --m {m} exited {code}")
            full = workdir / f"extremal_r{r}_m{m}.txt"
            full.write_text(text)
            texts.append((full, m))
            paths = [(full, False)]
            if r == R_STRIPPED:
                stripped = workdir / f"extremal_r{r}_m{m}_stripped.txt"
                stripped.write_text("".join(
                    line + "\n" for line in text.splitlines() if not line.startswith("# hubs:")
                ))
                paths.append((stripped, True))
            ops.append(_connectivity_op(cli, full, r, m, graphs))
            for a, b in _sharpness_specs(r, m):
                for path, is_stripped in paths:
                    ops.append(_solve_op(cli, path, r, m, a, b, is_stripped, graphs))
    # the instance set is the paper's family; the seed fixes the order
    random.Random(f"certify-sharpness/{seed}").shuffle(ops)

    def cross_check(results):
        for path, m in texts:
            lam = nx_edge_connectivity(*_plain(path, graphs))
            _ensure(lam in (None, m), f"{path.name}: networkx edge-connectivity {lam}, not m={m}")

    return Setup(ops, cross_check)


def _plain(path, graphs):
    if path not in graphs:
        graphs[path] = parse_graph_text(path.read_text())
    return graphs[path]


def _connectivity_op(cli, path, r, m, graphs) -> Op:
    argv = ["connectivity", str(path)]

    def check(result):
        code, out = result
        fields = dict(line.partition(":")[::2] for line in out.splitlines())
        _ensure(code == 0, f"connectivity exited {code}")
        lam, size = int(fields["lambda"]), int(fields["cut_size"])
        _ensure(lam == m, f"r={r} m={m}: printed lambda {lam}, the construction has {m}")
        _ensure(size == m, f"r={r} m={m}: printed cut_size {size}")
        n, edges = _plain(path, graphs)
        check_cut(n, edges, [int(v) for v in fields["cut_side"].split()], m)
        return True

    return Op(f"connectivity r={r} m={m}", lambda: _call_cli(cli, argv), check)


def _solve_op(cli, path, r, m, a, b, stripped, graphs) -> Op:
    argv = ["solve", "--a", str(a), "--b", str(b), str(path)]

    def check(result):
        code, out = result
        _ensure(code == 1, f"solve r={r} m={m} ({a},{b}) exited {code}, expected 1")
        if stripped and out == NO_WITNESS:
            return False  # the known fault: no witness without the hubs trailer
        n, edges = _plain(path, graphs)
        s, t, delta, tau = parse_witness_text(out)
        check_witness(n, edges, (a,) * n, (b,) * n, s, t, delta, tau)
        if not stripped:
            _ensure((delta, tau) == (b * m - r, r),
                    f"r={r} m={m} ({a},{b}): witness (delta, tau) = {(delta, tau)}, "
                    f"the paper's certificate has {(b * m - r, r)}")
        return True

    label = f"solve r={r} m={m} ({a},{b}){' stripped' if stripped else ''}"
    return Op(label, lambda: _call_cli(cli, argv), check)


# ---------------------------------------------------------------- decide-small

# (kind, n, r or |E|, spec): "regular" graphs come from the program's sampler,
# "sparse" ones from the benchmark's own uniform edge sample; spec is a
# constant (a, b) or "vertex" for a seeded per-vertex window. DECIDE_FIXED,
# nearly all of a round's time, comes from a fixed seed; --seed draws the
# cheap n = 8 instances of DECIDE_SEEDED. Most operations are n = 9 (about
# 0.12 s), short enough for the kernel samples around each to track the
# host's speed; as many are cheaper than that block as dearer, so the median
# operation lies inside it. Every instance whose f(V) is even has
# |E| <= 18, which keeps the brute-force cross-check to 2^18 subsets.
DECIDE_FIXED = (
    ("regular", 9, 4, (1, 1)), ("regular", 9, 4, (2, 2)), ("regular", 9, 4, "vertex"),
    ("regular", 9, 2, (2, 2)), ("regular", 9, 4, (2, 4)), ("sparse", 9, 12, "vertex"),
    ("sparse", 9, 13, "vertex"), ("sparse", 9, 14, (1, 3)),
    ("regular", 10, 3, (1, 1)), ("sparse", 10, 14, "vertex"),
    ("regular", 11, 4, (1, 3)),
)
DECIDE_SEEDED = (
    ("regular", 8, 3, "vertex"), ("sparse", 8, 9, (1, 1)), ("sparse", 8, 10, "vertex"),
)
BRUTE_EDGE_CAP = 22


def _vertex_spec(rng, n):
    g = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
    return g, [gv + 2 * rng.randrange(2) for gv in g]


def setup_decide_small(seed: int, workdir) -> Setup:
    p = _program()
    graph, lovasz, generators = p["graph"], p["lovasz"], p["generators"]
    fixed = random.Random("decide-small/fixed")
    seeded = random.Random(f"decide-small/{seed}")
    ops, instances = [], []
    for rng, mix in ((fixed, DECIDE_FIXED), (seeded, DECIDE_SEEDED)):
        for kind, n, size, shape in mix:
            if kind == "regular":
                g = generators.random_regular(n, size, rng.randrange(2 ** 63))
            else:
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                g = graph.build_graph(n, rng.sample(pairs, size))
            lo, hi = _vertex_spec(rng, n) if shape == "vertex" else ([shape[0]] * n, [shape[1]] * n)
            spec = lovasz.ParitySpec(tuple(lo), tuple(hi))
            instances.append((g, spec))

            def check(decision, g=g, lo=lo, hi=hi):
                if decision.feasible:
                    _ensure(decision.witness is None, "a feasible verdict carries a witness")
                    return True
                w = decision.witness
                check_witness(g.n, g.edges, lo, hi, list(w.S), list(w.T), w.delta, w.tau)
                return True

            ops.append(Op(
                f"decide {kind} n={n} {size} {shape}",
                lambda g=g, spec=spec: lovasz.decide_by_enumeration(g, spec),
                check,
            ))

    def cross_check(decisions):
        solver = sys.modules["paritylab.solver"]
        for (g, spec), decision, op in zip(instances, decisions, ops):
            factor = solver.find_parity_factor(g, spec)
            if factor is not None:
                check_factor(g.n, g.edges, factor.edges, spec.g, spec.f)
            verdicts = {"enumeration": decision.feasible, "gadget solver": factor is not None}
            if g.edge_count <= BRUTE_EDGE_CAP:
                brute = solver.brute_force_factor(g, spec, BRUTE_EDGE_CAP)
                verdicts["brute force"] = brute is not None
            if all(spec.g[v] <= g.degree(v) for v in range(g.n)):
                h = solver.build_parity_gadget(g, spec).h
                pm = nx_has_perfect_matching(h.n, h.edges)
                if pm is not None:
                    verdicts["networkx gadget matching"] = pm
            _ensure(len(set(verdicts.values())) == 1, f"{op.label}: oracles disagree {verdicts}")

    return Setup(ops, cross_check)


# --------------------------------------------------------------- theorem-sweep

# the soundness script's specs; every (r, n) cell below is one operation.
# n falls as r grows so that every cell costs about the same (~0.13 s): the
# median operation then lies inside a block of like cells. Each r has
# SWEEP_CELLS cells whose experiment seeds come from a fixed seed; --seed
# draws the seeds of the cheap n = SWEEP_SEEDED_N cells.
SWEEP_SPECS = ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (5, 5))
SWEEP_N = {3: 176, 4: 104, 5: 64, 6: 48, 7: 32, 8: 28}
SWEEP_CELLS = 3
SWEEP_SEEDED_N = 12
SWEEP_TRIALS = 3
# (r, m, a, b): the soundness script's extremal tuples plus the rest of r = 8
SWEEP_EXTREMAL = (
    (4, 2, 1, 1), (6, 2, 1, 1), (6, 4, 1, 1), (8, 2, 1, 3),
    (8, 2, 1, 1), (8, 2, 3, 3), (8, 4, 1, 1), (8, 6, 1, 1),
)


def setup_theorem_sweep(seed: int, workdir) -> Setup:
    experiment = _program()["experiment"]
    fixed = random.Random("theorem-sweep/fixed")
    seeded = random.Random(f"theorem-sweep/{seed}")
    ops = []
    cells = [(fixed, r, n) for r, n in SWEEP_N.items() for _ in range(SWEEP_CELLS)]
    cells += [(seeded, r, SWEEP_SEEDED_N) for r in SWEEP_N]
    for rng, r, n in cells:
        config = experiment.ExperimentConfig(
            seed=rng.randrange(2 ** 63), n_values=(n,), r_values=(r,),
            trials=SWEEP_TRIALS, specs=SWEEP_SPECS,
        )
        ops.append(Op(
            f"sweep r={r} n={n}",
            lambda config=config: experiment.run_verification_experiment(config),
            lambda report, r=r, n=n: _check_cell(report, r, n),
        ))
    for quad in SWEEP_EXTREMAL:
        config = experiment.ExperimentConfig(
            seed=0, n_values=(), r_values=(), trials=0, extremal=(quad,)
        )
        ops.append(Op(
            f"sweep extremal {quad}",
            lambda config=config: experiment.run_verification_experiment(config),
            lambda report, quad=quad: _check_extremal(report, *quad),
        ))
    seeded.shuffle(ops)

    def cross_check(reports):
        generators = sys.modules["paritylab.generators"]
        lams = {}
        for report in reports:
            for row in report.rows:
                if row.case != "extremal":
                    lams.setdefault((row.n, row.r, row.seed), set()).add(row.lam)
        for (n, r, instance_seed), seen in lams.items():
            g = generators.random_regular(n, r, instance_seed)
            lam = nx_edge_connectivity(g.n, g.edges)
            _ensure(len(seen) == 1, f"n={n} r={r}: rows disagree on lambda {seen}")
            _ensure(lam in (None, *seen), f"n={n} r={r}: lambda {seen}, networkx {lam}")

    return Setup(ops, cross_check)


def _check_cell(report, r, n) -> bool:
    _ensure(len(report.rows) > 0, f"cell r={r} n={n} produced no rows")
    for row in report.rows:
        _ensure((row.r, row.n) == (r, n), f"cell r={r} n={n} reports a row for {(row.r, row.n)}")
        _ensure(row.outcome in ("found", "no-case"), f"cell r={r} n={n}: outcome {row.outcome}")
        _ensure(0 <= row.lam <= r, f"cell r={r} n={n}: lambda {row.lam} out of range")
    return True


def _check_extremal(report, r, m, a, b) -> bool:
    _ensure(len(report.rows) == 1, f"extremal {(r, m, a, b)}: {len(report.rows)} rows")
    row = report.rows[0]
    _ensure(row.outcome == "infeasible-verified", f"extremal {(r, m, a, b)}: {row.outcome}")
    _ensure(row.lam == m, f"extremal {(r, m, a, b)}: lambda {row.lam}, not m")
    _ensure(row.delta == b * m - r, f"extremal {(r, m, a, b)}: delta {row.delta}, not b*m-r")
    return True


WORKLOADS = {
    "solve-random": setup_solve_random,
    "certify-sharpness": setup_certify_sharpness,
    "decide-small": setup_decide_small,
    "theorem-sweep": setup_theorem_sweep,
}
