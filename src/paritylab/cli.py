"""Command-line front end.

Exit codes: 0 success / feasible, 1 infeasible or failed verification,
2 usage error, 3 enumeration / edge cap exceeded, 4 internal error (a
self-check failed or an unexpected exception; the traceback goes to stderr),
141 stdout closed by its reader (128 + SIGPIPE).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .connectivity import edge_connectivity
from .errors import CapExceeded, CounterexampleError, ParityLabError, SelfCheckFailed
from .experiment import parse_config, run_verification_experiment
from .generators import extremal_construction, random_regular
from .graph import Graph, VertexSet, emit_graph, int_pair, parse_graph, text_lines
from .lovasz import (
    DEFAULT_ENUMERATION_CAP,
    MAX_ENUMERATION_N,
    ParitySpec,
    decide_by_enumeration,
    deficiency,
    parse_witness,
    serialize_witness,
    verify_witness,
)
from .solver import (
    DEFAULT_EDGE_CAP,
    Factor,
    brute_force_factor,
    factor_or_witness,
    parse_factor,
    serialize_factor,
    verify_factor,
)
from .theorems import ALL_CASES, MAIN_CASES, check_main_conditions

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_instance(args) -> tuple[Graph, ParitySpec]:
    g = parse_graph(_read_text(args.graph))
    if args.spec_file:
        if args.a is not None or args.b is not None:
            raise ParityLabError("--a/--b and --spec-file cannot be combined")
        pairs = [int_pair(*entry) for entry in text_lines(_read_text(args.spec_file))]
        return g, ParitySpec(tuple(gv for gv, _ in pairs), tuple(fv for _, fv in pairs))
    if args.a is None or args.b is None:
        raise ParityLabError("either --a/--b or --spec-file is required")
    return g, ParitySpec.constant(args.a, args.b, g.n)


def _default_seed() -> int:
    seed = os.environ.get("PARITYLAB_SEED", "0")
    try:
        return int(seed)
    except ValueError:
        raise ParityLabError(f"PARITYLAB_SEED: bad seed {seed!r}") from None


def _dot_graph(g: Graph, bold_edges=(), marked_vertices=()) -> str:
    bold = set(bold_edges)
    marked = set(marked_vertices)
    lines = ["graph G {"]
    for v in range(g.n):
        attrs = ' [style=filled, fillcolor=lightgray]' if v in marked else ""
        lines.append(f"  {v}{attrs};")
    for u, v in g.edges:
        attrs = ' [style=bold, penwidth=3]' if (u, v) in bold else ""
        lines.append(f"  {u} -- {v}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    """A verified factor, else the canonical enumeration witness when
    n <= --enum-cap, else the gadget's barrier witness. ``--method brute``
    cross-checks the gadget's answer and prints brute force's factor. An
    oracle that contradicts the gadget solver is a ``SelfCheckFailed``."""
    g, spec = _load_instance(args)
    # brute force checks its edge cap before the spec, so it runs first
    brute = brute_force_factor(g, spec, args.edge_cap) if args.method == "brute" else None
    result = factor_or_witness(g, spec)
    if args.method == "brute" and (brute is None) == isinstance(result, Factor):
        raise SelfCheckFailed("brute force and the gadget solver disagree on feasibility")
    if isinstance(result, Factor):
        result = brute or result
        if args.dot:
            sys.stdout.write(_dot_graph(g, bold_edges=result.edges))
        else:
            sys.stdout.write(serialize_factor(result))
        return EXIT_OK
    if g.n <= args.enum_cap:
        decision = decide_by_enumeration(g, spec, args.enum_cap)
        if decision.feasible:
            raise SelfCheckFailed(
                "the solver found no factor, but the enumeration finds the instance feasible"
            )
        result = decision.witness
    sys.stdout.write(serialize_witness(result))
    return EXIT_INFEASIBLE


def cmd_decide(args) -> int:
    g, spec = _load_instance(args)
    decision = decide_by_enumeration(g, spec, args.enum_cap)
    if decision.feasible:
        sys.stdout.write("feasible\n")
        return EXIT_OK
    sys.stdout.write(serialize_witness(decision.witness))
    return EXIT_INFEASIBLE


def _vertex_ids(flag: str, text: str) -> VertexSet:
    ids = []
    for field in text.split():
        try:
            ids.append(int(field))
        except ValueError:
            raise ParityLabError(f"{flag}: bad vertex id {field!r}") from None
    return VertexSet.of(ids)


def cmd_deficiency(args) -> int:
    g, spec = _load_instance(args)
    s = _vertex_ids("--S", args.S)
    t = _vertex_ids("--T", args.T)
    sys.stdout.write(serialize_witness(deficiency(g, spec, s, t)))
    return EXIT_OK


def cmd_verify_factor(args) -> int:
    g, spec = _load_instance(args)
    factor = parse_factor(_read_text(args.factor), g.n)
    ok, reason = verify_factor(g, spec, factor)
    sys.stdout.write(("ok\n" if ok else f"invalid: {reason}\n"))
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_verify_witness(args) -> int:
    g, spec = _load_instance(args)
    witness = parse_witness(_read_text(args.witness))
    ok, reason = verify_witness(g, spec, witness)
    if ok:
        sys.stdout.write("verified: infeasibility certificate accepted\n")
        return EXIT_OK
    sys.stdout.write(f"rejected: {reason}\n")
    return EXIT_INFEASIBLE


def cmd_connectivity(args) -> int:
    g = parse_graph(_read_text(args.graph))
    lam, side = edge_connectivity(g)
    sys.stdout.write(f"lambda: {lam}\n")
    sys.stdout.write("cut_side:" + "".join(f" {v}" for v in side) + "\n")
    sys.stdout.write(f"cut_size: {lam}\n")
    return EXIT_OK


def cmd_construct(args) -> int:
    g, hubs = extremal_construction(args.r, args.m)
    if args.dot:
        sys.stdout.write(_dot_graph(g, marked_vertices=list(hubs)))
    else:
        sys.stdout.write(emit_graph(g))
        sys.stdout.write("# hubs:" + "".join(f" {v}" for v in hubs) + "\n")
    return EXIT_OK


def cmd_gen_random(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    g = random_regular(args.n, args.r, seed)
    sys.stdout.write(emit_graph(g))
    return EXIT_OK


def cmd_check_conditions(args) -> int:
    satisfied = check_main_conditions(args.r, args.m, args.a, args.b, args.n_even)
    for case in MAIN_CASES if args.a != args.b else ALL_CASES:
        status = "satisfied" if case in satisfied else "not satisfied"
        sys.stdout.write(f"{case}: {status}\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = parse_config(_read_text(args.config))
    report = run_verification_experiment(config)
    sys.stdout.write(report.to_table())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    return EXIT_OK


def _cap(text: str) -> int:
    """An ``--edge-cap`` value: an int, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap cannot be negative, got {value}")
    return value


def _enum_cap(text: str) -> int:
    """An ``--enum-cap`` value: a cap of at most ``MAX_ENUMERATION_N``, the
    largest n whose 2^n-entry tables the enumeration can hold in memory."""
    value = _cap(text)
    if value > MAX_ENUMERATION_N:
        raise argparse.ArgumentTypeError(
            f"the enumeration cap is at most {MAX_ENUMERATION_N}, got {value}"
        )
    return value


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file or '-' for stdin")
    p.add_argument("--a", type=int, default=None, help="constant lower bound")
    p.add_argument("--b", type=int, default=None, help="constant upper bound")
    p.add_argument("--spec-file", default=None, help="per-vertex 'g f' lines")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call: ``parse_args`` leaves it unchanged. It holds syntax only;
    ``main`` looks each command's ``cmd_*`` handler up by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="paritylab",
        description="Decide, construct, and certify parity factors in undirected graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="construct a parity factor or certify infeasibility")
    _add_instance_args(p)
    p.add_argument("--method", choices=("gadget", "brute"), default="gadget")
    p.add_argument("--enum-cap", type=_enum_cap, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--edge-cap", type=_cap, default=DEFAULT_EDGE_CAP)
    p.add_argument(
        "--dot", action="store_true",
        help="draw a found factor as DOT; an infeasible instance still prints its witness block",
    )

    p = sub.add_parser("decide", help="exhaustive feasibility decision (small graphs)")
    _add_instance_args(p)
    p.add_argument("--enum-cap", type=_enum_cap, default=DEFAULT_ENUMERATION_CAP)

    p = sub.add_parser("deficiency", help="evaluate delta(S,T) for given sets")
    _add_instance_args(p)
    p.add_argument("--S", default="", help="space-separated vertex ids")
    p.add_argument("--T", default="", help="space-separated vertex ids")

    p = sub.add_parser("verify-factor", help="check a factor block against a graph")
    _add_instance_args(p)
    p.add_argument("--factor", required=True, help="factor block file or '-'")

    p = sub.add_parser("verify-witness", help="check an infeasibility witness block")
    _add_instance_args(p)
    p.add_argument("--witness", required=True, help="witness block file or '-'")

    p = sub.add_parser("connectivity", help="exact edge-connectivity with a cut")
    p.add_argument("graph")

    p = sub.add_parser("construct", help="emit the sharpness construction")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("gen-random", help="seeded random regular graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to PARITYLAB_SEED, then 0")

    p = sub.add_parser("check-conditions", help="evaluate the theorem conditions")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-even", dest="n_even", action="store_true")
    group.add_argument("--n-odd", dest="n_even", action="store_false")

    p = sub.add_parser("experiment", help="run a verification experiment config")
    p.add_argument("config", help="key=value config file or '-'")
    p.add_argument("--csv", default=None, help="also write the machine-readable CSV here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return status
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SelfCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CounterexampleError as exc:  # the harness failed to verify a theorem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ParityLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # not a usage error; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault in paritylab itself: keep exit 1 for "infeasible"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
