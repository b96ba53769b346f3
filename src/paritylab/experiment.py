"""Verification experiment harness: sample regular graphs, measure their
edge-connectivity, evaluate the theorem conditions at the measured value, and
confirm that every satisfied case comes with an actual factor (and that every
extremal instance is certified infeasible).

Any counterexample aborts the run with the instance serialized for replay;
the theorems are proven, so a failure is an implementation bug to preserve.

``_check_graph`` checks one sampled regular graph at its measured lambda;
``run_verification_experiment`` validates the config, samples the graphs and
certifies the extremal tuples: lambda = m, and from ``_solve`` and
``deficiency`` alike the witness of ``generators.sharpness_certificate``, in
which ``theorems.small_cut`` must find an odd component C with |dC| = lambda.
There C is block 0 and dC its m hub edges, so the paper's witness and the
measured lambda certify each other. The extremal loop is the one place the
harness expects a witness.

Each sampled graph is solved once per factor, not once per (a, b). A factor
whose degrees lie in [a', b'], all of the parity of b', serves every (a, b)
with a <= a', b' <= b and b = b' (mod 2); on an r-regular graph the
complement E(G) - F of an (a, b)-parity factor is an (r - b, r - a)-parity
factor. So ``_check_graph`` keeps, per graph, every factor it solves for,
whose least and greatest degree ``Factor.degree_range`` computes once, and
before it solves a satisfied (a, b) takes the first kept factor, or
complement, whose range fits and that ``verify_factor`` accepts
(``_serves``); only on a miss does it solve.

``_solve`` is the one solve, for sampled rows and extremal tuples alike: it
returns the solver's own answer, a ``Factor`` that serves the row's (a, b)
or a ``DeficiencyWitness`` read under that (a, b). It takes the smaller of
the window and its complement: (a, b) if a + b >= r, else (r - b, r - a).
The gadget gives each vertex d - g core nodes and a d x (d - g)
outer-by-core block, so (a, b) costs r - a core nodes per vertex and
(r - b, r - a) costs b, fewer exactly when a + b < r.
The window (r - 1, r - 1), from the row (1, 1) or (r - 1, r - 1), skips the
gadget: a (1, 1)-parity factor is exactly a perfect matching (Tutte 1947),
so ``max_matching`` runs on g itself, with n nodes and rn/2 edges in place
of the gadget's (r + 1)n nodes and about 3rn/2 edges. A perfect matching M
is returned as the factor; else the witness is g's Tutte barrier
A = ``Matching.A``, as (A, {}) for the row (1, 1), ({}, A) for (r - 1, r - 1):
  under (1, 1) a component C of G - A is f-odd iff |C| is odd, so
  delta(A, {}) = |A| - o(G - A) = -def(G) < 0 by Gallai-Edmonds,
and the swap below carries it to (r - 1, r - 1). Other windows go to
``factor_or_witness``, and a complement window's witness is swapped back.
The solver verifies the factor of a row's own window; M, or a factor of the
complement window, must pass ``_serves`` for (a, b), else it is a
``SelfCheckFailed``. The swap is exact: on an r-regular graph
delta_(a,b)(S, T) = delta_(r-b,r-a)(T, S), tau included.
  f(S) + sum_T (d - g) is b|S| + (r - a)|T| under both readings, e(S, T) too;
  a component C of G - S - T has e(C,S) + e(C,T) = r|C| - 2e(C), so
  e(C,S) + (r - a)|C| = e(C,T) + b|C| (mod 2), as a = b (mod 2).

The rows are those of solving every window afresh, and the soundness sweep at
--trials 2 makes 154 fresh solves in place of 344: 63 perfect matchings and
91 gadget solves, its four extremal tuples included. What is lost: the
harness no longer catches a solver that wrongly returns no factor for a
window a kept factor already serves; it runs no (a, b) gadget with a + b < r
and no (r - 1, r - 1) gadget, the (1, 1) extremal tuples included; and the
other extremal tuples read the barrier witness with the hubs on T only. The
solver's own differential, golden and extremal-family tests cover all three.
"""
from __future__ import annotations

import csv
import io
import random
from dataclasses import astuple, dataclass, replace

from .connectivity import edge_connectivity
from .errors import CounterexampleError, ParityLabError, SelfCheckFailed
from .generators import SHARPNESS_DOMAIN, extremal_construction, random_regular, sharpness_certificate
from .graph import Graph, VertexSet, emit_graph, text_lines
from .lovasz import DeficiencyWitness, ParitySpec, deficiency
from .matching import max_matching
from .solver import Factor, factor_or_witness, verify_factor
from .theorems import check_main_conditions, small_cut

# per field of Row, in order: (column name, table format)
_COLUMNS = (("seed", ">20"), ("n", ">4"), ("r", ">3"), ("lambda", ">6"), ("a", ">3"),
            ("b", ">3"), ("case", "<10"), ("outcome", "<22"), ("delta", ">6"))
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

    def _cells(self):
        """The header, then each row's values; a None delta is blank."""
        yield [name for name, _ in _COLUMNS]
        for row in self.rows:
            yield ["" if value is None else value for value in astuple(row)]

    def to_table(self) -> str:
        lines = [" ".join(format(cell, spec) for cell, (_, spec) in zip(cells, _COLUMNS))
                 for cells in self._cells()]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(self._cells())
        return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """key=value lines; lists comma-separated, spec pairs and extremal tuples
    colon-separated (ab=1:1,2:2  extremal=6:2:1:1)."""
    kwargs: dict = {}
    for lineno, line in text_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise ParityLabError(f"config line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ParityLabError(f"config line {lineno}: unknown key {key!r}")
        field_name, width = _CONFIG_KEYS[key]
        if field_name in kwargs:
            raise ParityLabError(f"config line {lineno}: repeated key {key!r}")
        try:
            if width == 0:
                kwargs[field_name] = int(value)
                continue
            items = tuple(tuple(int(x) for x in item.split(":")) for item in value.split(","))
            if any(len(item) != width for item in items):
                raise ValueError(value)
            kwargs[field_name] = tuple(item[0] for item in items) if width == 1 else items
        except ValueError:
            raise ParityLabError(f"config line {lineno}: bad value {value!r}")
    return ExperimentConfig(**kwargs)


def run_verification_experiment(config: ExperimentConfig) -> ExperimentReport:
    for name, values, least in (("n", config.n_values, 2), ("r", config.r_values, 0),
                                ("trials", (config.trials,), 0)):
        for value in values:
            if value < least:
                raise ParityLabError(f"{name}={value} can yield no row: need {name} >= {least}")
    for a, b in config.specs:
        # no r admits these; a pair with b >= r is skipped for that r only
        if not (1 <= a <= b and (b - a) % 2 == 0):
            raise ParityLabError(
                f"ab pair (a={a}, b={b}) is admitted by no r: "
                f"need 1 <= a <= b with a = b (mod 2)"
            )
    certs = [sharpness_certificate(*quad) for quad in config.extremal]
    for (r, m, a, b), cert in zip(config.extremal, certs):
        if cert is None:
            raise ParityLabError(
                f"extremal tuple (r={r}, m={m}, a={a}, b={b}) is outside the "
                f"sharpness domain: need {SHARPNESS_DOMAIN}"
            )
    rng = random.Random(config.seed)
    rows: list[Row] = []
    for r in config.r_values:
        for n in config.n_values:
            for _ in range(config.trials):
                instance_seed = rng.randrange(2 ** 63)
                if (n * r) % 2 == 0 and r < n:
                    rows += _check_graph(random_regular(n, r, instance_seed), instance_seed, config.specs)
    for (r, m, a, b), cert in zip(config.extremal, certs):
        g, _ = extremal_construction(r, m)
        lam, _ = edge_connectivity(g)
        spec = ParitySpec.constant(a, b, g.n)
        result = _solve(g, r, spec, config.seed)
        cut = small_cut(g, spec, cert.S, cert.T)
        if (lam != m or result != cert or deficiency(g, spec, cert.S, cert.T) != cert
                or cut is None or cut[1] != lam):
            raise CounterexampleError(
                f"extremal instance (r={r}, m={m}, a={a}, b={b}) did not certify: "
                f"lambda={lam}, solver returned {result!r}, small cut {cut!r}",
                emit_graph(g),
            )
        rows.append(Row(config.seed, g.n, r, lam, a, b, "extremal", "infeasible-verified", result.delta))
    return ExperimentReport(tuple(rows))


def _check_graph(g: Graph, seed: int, specs: tuple[tuple[int, int], ...]) -> list[Row]:
    """The rows of one r-regular graph drawn from ``seed``: per (a, b) with
    b < r, "no-case" at its lambda or one "found" row per satisfied case."""
    n, r = g.n, g.degree(0)
    lam, _ = edge_connectivity(g)
    rows: list[Row] = []
    solved: list[Factor] = []
    for a, b in specs:
        if b >= r:
            continue
        cases = check_main_conditions(r, lam, a, b, n % 2 == 0)
        if not cases:
            rows.append(Row(seed, n, r, lam, a, b, "-", "no-case"))
            continue
        spec = ParitySpec.constant(a, b, n)
        if not any(_serves(g, spec, r, f) for f in solved):
            result = _solve(g, r, spec, seed)
            if isinstance(result, DeficiencyWitness):
                raise CounterexampleError(
                    f"satisfied cases {sorted(cases)} at "
                    f"lambda={lam} but no verified ({a},{b})-parity factor "
                    f"(seed {seed})",
                    emit_graph(g),
                )
            solved.append(result)
        for case in sorted(cases):
            rows.append(Row(seed, n, r, lam, a, b, case, "found"))
    return rows


def _solve(g: Graph, r: int, spec: ParitySpec, seed: int) -> Factor | DeficiencyWitness:
    """A factor that serves the constant window (a, b) of ``spec`` on the
    r-regular graph g drawn from ``seed``, else a witness read under (a, b);
    ``SelfCheckFailed`` if a perfect matching, or a factor of the complement
    window, fails ``_serves``. The window it solves and the witness: the
    module docstring."""
    a, b = spec.g[0], spec.f[0]
    window = (a, b) if a + b >= r else (r - b, r - a)
    if window == (r - 1, r - 1):
        matching = max_matching(g)
        if -1 in matching.mate:
            barrier, none = VertexSet.of(matching.A), VertexSet.empty()
            return deficiency(g, spec, *((barrier, none) if a == 1 else (none, barrier)))
        result = Factor(g.n, tuple((v, w) for v, w in enumerate(matching.mate) if v < w))
    else:
        result = factor_or_witness(g, ParitySpec.constant(*window, g.n))
        if window == (a, b):
            return result
        if isinstance(result, DeficiencyWitness):
            return replace(result, S=result.T, T=result.S)
    if not _serves(g, spec, r, result):
        raise SelfCheckFailed(
            f"the {window} factor of seed {seed} and its complement "
            f"fail verification for ({a},{b})"
        )
    return result


def _serves(g: Graph, spec: ParitySpec, r: int, f: Factor) -> bool:
    """Whether ``verify_factor`` accepts f, whose degrees span
    ``f.degree_range`` = [lo, hi], or its complement for the constant window
    of ``spec``; the complement is built only if its range (r - hi, r - lo)
    fits."""
    a, b = spec.g[0], spec.f[0]
    lo, hi = f.degree_range
    return (_fits(a, b, lo, hi) and verify_factor(g, spec, f)[0]
            or _fits(a, b, r - hi, r - lo)
            and verify_factor(g, spec, Factor(g.n, tuple(set(g.edges) - set(f.edges))))[0])


def _fits(a: int, b: int, lo: int, hi: int) -> bool:
    """Whether degrees in [lo, hi], all of hi's parity, suit the (a, b) window."""
    return a <= lo and hi <= b and (b - hi) % 2 == 0
