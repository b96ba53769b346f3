"""Verification experiment harness: sample regular graphs, measure their
edge-connectivity, evaluate the theorem conditions at the measured value, and
confirm that every satisfied case comes with an actual factor (and that every
extremal instance is certified infeasible).

Any counterexample aborts the run with the instance serialized for replay;
the theorems are proven, so a failure is an implementation bug to preserve.
"""
from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

from .connectivity import edge_connectivity
from .errors import CounterexampleError, GraphSyntaxError
from .generators import ExtremalParams, extremal_construction, random_regular
from .graph import VertexSet, emit_graph
from .lovasz import ParitySpec, deficiency, verify_witness
from .solver import find_parity_factor
from .theorems import check_main_conditions

CSV_COLUMNS = ("seed", "n", "r", "lambda", "a", "b", "case", "outcome", "delta")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_values: tuple[int, ...] = (10, 12)
    r_values: tuple[int, ...] = (3, 4)
    trials: int = 3
    specs: tuple[tuple[int, int], ...] = ((1, 1), (2, 2))
    extremal: tuple[tuple[int, int, int, int], ...] = ()  # (r, m, a, b)


@dataclass(frozen=True)
class Row:
    seed: int
    n: int
    r: int
    lam: int
    a: int
    b: int
    case: str
    outcome: str
    delta: int | None = None


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[Row, ...]

    def to_table(self) -> str:
        header = f"{'seed':>20} {'n':>4} {'r':>3} {'lambda':>6} {'a':>3} {'b':>3} {'case':<10} {'outcome':<22} {'delta':>6}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            delta = "" if row.delta is None else str(row.delta)
            lines.append(
                f"{row.seed:>20} {row.n:>4} {row.r:>3} {row.lam:>6} {row.a:>3} "
                f"{row.b:>3} {row.case:<10} {row.outcome:<22} {delta:>6}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(
                [row.seed, row.n, row.r, row.lam, row.a, row.b, row.case,
                 row.outcome, "" if row.delta is None else row.delta]
            )
        return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """key=value lines; lists comma-separated, spec pairs and extremal tuples
    colon-separated (ab=1:1,2:2  extremal=6:2:1:1)."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise GraphSyntaxError(f"config line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "n":
                kwargs["n_values"] = tuple(int(x) for x in value.split(","))
            elif key == "r":
                kwargs["r_values"] = tuple(int(x) for x in value.split(","))
            elif key == "trials":
                kwargs["trials"] = int(value)
            elif key == "ab":
                kwargs["specs"] = tuple(
                    tuple(int(x) for x in pair.split(":")) for pair in value.split(",")
                )
            elif key == "extremal":
                kwargs["extremal"] = tuple(
                    tuple(int(x) for x in quad.split(":")) for quad in value.split(",")
                )
            else:
                raise GraphSyntaxError(f"config line {lineno}: unknown key {key!r}")
        except ValueError:
            raise GraphSyntaxError(f"config line {lineno}: bad value {value!r}")
    return ExperimentConfig(**kwargs)


def run_verification_experiment(config: ExperimentConfig) -> ExperimentReport:
    rng = random.Random(config.seed)
    rows: list[Row] = []
    for r in config.r_values:
        for n in config.n_values:
            for _ in range(config.trials):
                instance_seed = rng.randrange(2 ** 63)
                if (n * r) % 2 != 0 or r >= n:
                    continue
                g = random_regular(n, r, instance_seed)
                lam, _ = edge_connectivity(g)
                for a, b in config.specs:
                    if not (1 <= a <= b < r) or (a - b) % 2 != 0:
                        continue
                    report = check_main_conditions(r, lam, a, b, n % 2 == 0)
                    if not report.satisfied_cases:
                        rows.append(Row(instance_seed, n, r, lam, a, b, "-", "no-case"))
                        continue
                    spec = ParitySpec.constant(a, b, n)
                    factor = find_parity_factor(g, spec)
                    if factor is None:
                        raise CounterexampleError(
                            f"satisfied cases {sorted(report.satisfied_cases)} at "
                            f"lambda={lam} but no verified ({a},{b})-parity factor "
                            f"(seed {instance_seed})",
                            emit_graph(g),
                        )
                    for case in sorted(report.satisfied_cases):
                        rows.append(Row(instance_seed, n, r, lam, a, b, case, "found"))
    for r, m, a, b in config.extremal:
        g, hubs = extremal_construction(ExtremalParams(r, m))
        lam, _ = edge_connectivity(g)
        spec = ParitySpec.constant(a, b, g.n)
        factor = find_parity_factor(g, spec)
        witness = deficiency(g, spec, hubs, VertexSet.empty())
        verified, _ = verify_witness(g, spec, witness)
        if factor is not None or not verified or witness.delta != b * m - r or lam != m:
            raise CounterexampleError(
                f"extremal instance (r={r}, m={m}, a={a}, b={b}) did not certify: "
                f"lambda={lam}, delta={witness.delta}, factor={'yes' if factor else 'no'}",
                emit_graph(g),
            )
        rows.append(
            Row(config.seed, g.n, r, lam, a, b, "extremal", "infeasible-verified", witness.delta)
        )
    return ExperimentReport(tuple(rows))
