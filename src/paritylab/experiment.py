"""Verification experiment harness: sample regular graphs, measure their
edge-connectivity, evaluate the theorem conditions at the measured value, and
confirm that every satisfied case comes with an actual factor (and that every
extremal instance is certified infeasible).

Any counterexample aborts the run with the instance serialized for replay;
the theorems are proven, so a failure is an implementation bug to preserve.

``_check_graph`` checks one sampled regular graph at its measured lambda;
``run_verification_experiment`` validates the config, samples the graphs and
certifies the extremal tuples (lambda = m and the paper's certificate).

Each sampled graph is solved once per factor, not once per (a, b). A factor
whose degrees lie in [a', b'], all of the parity of b', serves every (a, b)
with a <= a', b' <= b and b = b' (mod 2); on an r-regular graph the
complement E(G) - F of an (a, b)-parity factor is an (r - b, r - a)-parity
factor. So ``_check_graph`` keeps, per graph, every factor it solves for
with its (min, max) degree, and before it solves a satisfied (a, b)
takes the first kept factor, or complement, whose range fits and that
``verify_factor`` accepts; only on a miss does it solve. A complement's range
is (r - max, r - min): its edges are built only when that range fits, so
``verify_factor`` runs only on a candidate that fits.

A fresh solve (``_fresh_factor``) takes the smaller of the window and its
complement: (a, b) if a + b >= r, else (r - b, r - a). The gadget gives each
vertex d - g core nodes and a d x (d - g) outer-by-core block, so (a, b)
costs r - a core nodes per vertex and (r - b, r - a) costs b, fewer exactly
when a + b < r. The window (r - 1, r - 1), from the row (1, 1) or from
(r - 1, r - 1) itself, skips the gadget: a (1, 1)-parity factor is exactly a
perfect matching (Tutte 1947), so ``max_matching`` runs on g itself, with n
nodes and rn/2 edges in place of the gadget's (r + 1)n nodes and about
3rn/2 edges, and a perfect matching M is kept as the factor (1, 1, M), its
complement being the (r - 1, r - 1)-factor; a matching that is not perfect
means no factor. The solver verifies a factor of the row's own window before
it returns it, so that one serves the row at once; M, or a factor of the
complement window, serves it only if ``verify_factor`` accepts it, or its
complement, for the row's own (a, b), and a rejection is ``SelfCheckFailed``.
The extremal tuples have b*m < r with m >= 2, so a + b < r: the harness solves
(r - b, r - a), where the paper's certificate reads S empty and T = hubs,
and recomputes delta_(a,b)(hubs, empty) from it. The swap is exact: on an
r-regular graph delta_(a,b)(S, T) = delta_(r-b,r-a)(T, S), tau included.
  f(S) + sum_T (d - g) is b|S| + (r - a)|T| under both readings, e(S, T) too;
  a component C of G - S - T has e(C,S) + e(C,T) = r|C| - 2e(C), so
  e(C,S) + (r - a)|C| = e(C,T) + b|C| (mod 2), as a = b (mod 2).

The rows are those of solving every window afresh, and the soundness sweep at
--trials 2 makes 150 fresh solves in place of 340: 60 perfect matchings of
the sampled graph and 90 gadget solves. What is lost: the harness no longer
catches a solver that wrongly returns None for a window a kept factor
already serves; it runs no (a, b) gadget with a + b < r, and no
(r - 1, r - 1) gadget on a sampled graph; and on the extremal family it
reads the barrier witness with the hubs on T only, never on S. The solver's
own differential, golden and extremal-family tests cover all three.
"""
from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

from .connectivity import edge_connectivity
from .errors import CounterexampleError, GraphSyntaxError, HypothesisViolation, SelfCheckFailed
from .generators import ExtremalParams, extremal_construction, random_regular
from .graph import Graph, VertexSet, emit_graph, text_lines
from .lovasz import DeficiencyWitness, ParitySpec, deficiency
from .matching import max_matching
from .solver import Factor, factor_or_witness, find_parity_factor, verify_factor
from .theorems import check_main_conditions

CSV_COLUMNS = ("seed", "n", "r", "lambda", "a", "b", "case", "outcome", "delta")
# key -> (field, width): an int at width 0, else a comma-separated list of
# colon-separated tuples of that width, a width-1 list holding plain ints
_CONFIG_KEYS = {"seed": ("seed", 0), "n": ("n_values", 1), "r": ("r_values", 1),
                "trials": ("trials", 0), "ab": ("specs", 2), "extremal": ("extremal", 4)}


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
    for lineno, line in text_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise GraphSyntaxError(f"config line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise GraphSyntaxError(f"config line {lineno}: unknown key {key!r}")
        field_name, width = _CONFIG_KEYS[key]
        if field_name in kwargs:
            raise GraphSyntaxError(f"config line {lineno}: repeated key {key!r}")
        try:
            if width == 0:
                kwargs[field_name] = int(value)
                continue
            items = tuple(tuple(int(x) for x in item.split(":")) for item in value.split(","))
            if any(len(item) != width for item in items):
                raise ValueError(value)
            kwargs[field_name] = tuple(item[0] for item in items) if width == 1 else items
        except ValueError:
            raise GraphSyntaxError(f"config line {lineno}: bad value {value!r}")
    return ExperimentConfig(**kwargs)


def run_verification_experiment(config: ExperimentConfig) -> ExperimentReport:
    for name, values, least in (("n", config.n_values, 2), ("r", config.r_values, 0),
                                ("trials", (config.trials,), 0)):
        for value in values:
            if value < least:
                raise HypothesisViolation(f"{name}={value} can yield no row: need {name} >= {least}")
    for a, b in config.specs:
        # no r admits these; a pair with b >= r is skipped for that r only
        if not (1 <= a <= b and (b - a) % 2 == 0):
            raise HypothesisViolation(
                f"ab pair (a={a}, b={b}) is admitted by no r: "
                f"need 1 <= a <= b with a = b (mod 2)"
            )
    for r, m, a, b in config.extremal:
        # the construction exists only for these (r, m) and defeats only
        # these bounds; others may well be feasible
        if not (r % 2 == m % 2 == 0 and 2 <= m <= r - 2
                and a % 2 == b % 2 == 1 and 1 <= a <= b and b * m < r):
            raise HypothesisViolation(
                f"extremal tuple (r={r}, m={m}, a={a}, b={b}) is outside the "
                f"sharpness domain: need even r >= 4, even 2 <= m <= r-2 and "
                f"odd 1 <= a <= b with b*m < r"
            )
    rng = random.Random(config.seed)
    rows: list[Row] = []
    for r in config.r_values:
        for n in config.n_values:
            for _ in range(config.trials):
                instance_seed = rng.randrange(2 ** 63)
                if (n * r) % 2 == 0 and r < n:
                    rows += _check_graph(random_regular(n, r, instance_seed), instance_seed, config.specs)
    for r, m, a, b in config.extremal:
        g, hubs = extremal_construction(ExtremalParams(r, m))
        lam, _ = edge_connectivity(g)
        # b*m < r and m >= 2 put a + b below r: solve the complement window,
        # where the hubs are T, and swap them back to S under (a, b)
        result = factor_or_witness(g, ParitySpec.constant(r - b, r - a, g.n))
        swapped = deficiency(g, ParitySpec.constant(a, b, g.n), hubs, VertexSet.empty())
        if lam != m or not (is_paper_certificate(result, hubs, r, m, b, "T")
                            and is_paper_certificate(swapped, hubs, r, m, b, "S")):
            raise CounterexampleError(
                f"extremal instance (r={r}, m={m}, a={a}, b={b}) did not certify: "
                f"lambda={lam}, solver returned {result!r} under ({r - b},{r - a})",
                emit_graph(g),
            )
        rows.append(
            Row(config.seed, g.n, r, lam, a, b, "extremal", "infeasible-verified", result.delta)
        )
    return ExperimentReport(tuple(rows))


def _check_graph(g: Graph, seed: int, specs: tuple[tuple[int, int], ...]) -> list[Row]:
    """The rows of one r-regular graph drawn from ``seed``: per (a, b) with
    b < r, "no-case" at its lambda or one "found" row per satisfied case."""
    n, r = g.n, g.degree(0)
    lam, _ = edge_connectivity(g)
    rows: list[Row] = []
    solved: list[tuple[int, int, Factor]] = []  # (min degree, max degree, factor)
    for a, b in specs:
        if b >= r:
            continue
        cases = check_main_conditions(r, lam, a, b, n % 2 == 0)
        if not cases:
            rows.append(Row(seed, n, r, lam, a, b, "-", "no-case"))
            continue
        spec = ParitySpec.constant(a, b, n)
        if not any(_serves(g, spec, r, *kept) for kept in solved):
            kept = _fresh_factor(g, r, spec, seed)
            if kept is None:
                raise CounterexampleError(
                    f"satisfied cases {sorted(cases)} at "
                    f"lambda={lam} but no verified ({a},{b})-parity factor "
                    f"(seed {seed})",
                    emit_graph(g),
                )
            solved.append(kept)
        for case in sorted(cases):
            rows.append(Row(seed, n, r, lam, a, b, case, "found"))
    return rows


def _fresh_factor(g: Graph, r: int, spec: ParitySpec, seed: int) -> tuple[int, int, Factor] | None:
    """A new (min degree, max degree, factor) entry that serves the constant
    window (a, b) of ``spec`` on the r-regular graph g drawn from ``seed``, or
    None if g has no (a, b)-parity factor. It solves the cheaper of (a, b)
    and (r - b, r - a): (r - 1, r - 1) as a perfect matching M of g, kept as
    (1, 1, M), any other window through ``find_parity_factor``. The solver
    has verified a factor of the row's own window; M, or a factor of the
    complement window, must pass ``_serves``, else ``SelfCheckFailed``."""
    a, b = spec.g[0], spec.f[0]
    window = (a, b) if a + b >= r else (r - b, r - a)
    if window == (r - 1, r - 1):
        mate = max_matching(g).mate
        if -1 in mate:
            return None
        kept = (1, 1, Factor(g.n, tuple((v, w) for v, w in enumerate(mate) if v < w)))
    else:
        factor = find_parity_factor(g, ParitySpec.constant(*window, g.n))
        if factor is None:
            return None
        deg = factor.degrees
        kept = (min(deg), max(deg), factor)
        if window == (a, b):
            return kept
    if not _serves(g, spec, r, *kept):
        raise SelfCheckFailed(
            f"the {window} factor of seed {seed} and its complement "
            f"fail verification for ({a},{b})"
        )
    return kept


def _serves(g: Graph, spec: ParitySpec, r: int, lo: int, hi: int, f: Factor) -> bool:
    """Whether ``verify_factor`` accepts f, whose degrees span [lo, hi], or
    its complement for the constant window of ``spec``; the complement is
    built only if its range (r - hi, r - lo) fits."""
    a, b = spec.g[0], spec.f[0]
    return (_fits(a, b, lo, hi) and verify_factor(g, spec, f)[0]
            or _fits(a, b, r - hi, r - lo)
            and verify_factor(g, spec, Factor(g.n, tuple(set(g.edges) - set(f.edges))))[0])


def _fits(a: int, b: int, lo: int, hi: int) -> bool:
    """Whether degrees in [lo, hi], all of hi's parity, suit the (a, b) window."""
    return a <= lo and hi <= b and (b - hi) % 2 == 0


def is_paper_certificate(result, hubs: VertexSet, r: int, m: int, charge: int, side: str) -> bool:
    """Whether a ``factor_or_witness`` or ``deficiency`` result on the (r, m)
    extremal instance is the paper's certificate: the hubs on ``side`` ("S"
    or "T"), the other side empty, delta = charge*m - r and one odd component
    per block (tau = r). ``charge`` is each hub's term in delta, f on side S
    and d - g on side T: it is b both for S under (a, b) and for T under the
    complement window (r - b, r - a)."""
    empty = VertexSet.empty()
    s, t = (hubs, empty) if side == "S" else (empty, hubs)
    return result == DeficiencyWitness(s, t, charge * m - r, r)
