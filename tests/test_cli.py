from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

import pytest

from paritylab import (
    ParitySpec,
    cli,
    emit_graph,
    errors,
    experiment,
    generators,
    lovasz,
    parse_graph,
    random_regular,
)
from paritylab.errors import CapExceeded, CounterexampleError, ParityLabError, SelfCheckFailed
from paritylab.experiment import parse_config
from paritylab.graph import VertexSet
from paritylab.lovasz import (
    DEFAULT_ENUMERATION_CAP,
    MAX_ENUMERATION_N,
    DeficiencyWitness,
    parse_witness,
    serialize_witness,
)
from paritylab.solver import Factor, parse_factor

import reference_lovasz

CLI = [sys.executable, "-m", "paritylab.cli"]

PETERSEN = (
    "10 15\n0 1\n0 4\n0 5\n1 2\n1 6\n2 3\n2 7\n3 4\n3 8\n4 9\n"
    "5 7\n5 8\n6 8\n6 9\n7 9\n"
)


def run_cli(args, stdin_text=None):
    return subprocess.run(
        CLI + args, input=stdin_text, capture_output=True, text=True
    )


def test_solve_petersen(tmp_path):
    path = tmp_path / "petersen.g"
    path.write_text(PETERSEN)
    result = run_cli(["solve", "--a", "1", "--b", "1", str(path)])
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "factor 5"


def test_construct_solve_pipeline_emits_hub_witness():
    construct = run_cli(["construct", "--r", "6", "--m", "2"])
    assert construct.returncode == 0
    assert "# hubs: 42 43" in construct.stdout
    solve = run_cli(["solve", "--a", "1", "--b", "1", "-"], stdin_text=construct.stdout)
    assert solve.returncode == 1
    assert "delta: -4" in solve.stdout


def test_construct_dot_marks_the_hubs(capsys):
    # the DOT drawing fills exactly the hubs, and draws every edge of the
    # plain text once
    assert cli.main(["construct", "--r", "4", "--m", "2"]) == cli.EXIT_OK
    plain = capsys.readouterr().out.splitlines()
    assert plain[-1] == "# hubs: 20 21"
    assert cli.main(["construct", "--r", "4", "--m", "2", "--dot"]) == cli.EXIT_OK
    dot = capsys.readouterr().out.splitlines()
    marked = [line.split()[0] for line in dot if "fillcolor=lightgray" in line]
    assert marked == ["20", "21"]
    edge_lines = [line for line in dot if " -- " in line]
    assert edge_lines == [f"  {line.replace(' ', ' -- ')};" for line in plain[1:-1]]
    assert len(edge_lines) == int(plain[0].split()[1])


@pytest.mark.parametrize("r,m,message", [
    ("5", "2", "r must be even and >= 4, got 5"),
    ("6", "6", "m must be even with 2 <= m <= r-2, got m=6, r=6"),
    ("6", "3", "m must be even with 2 <= m <= r-2, got m=3, r=6"),
    ("3", "2", "r must be even and >= 4, got 3"),
], ids=["odd-r", "m-above-r-2", "odd-m", "r-below-4"])
def test_construct_outside_the_domain_is_a_usage_error(capsys, r, m, message):
    assert cli.main(["construct", "--r", r, "--m", m]) == cli.EXIT_USAGE == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("trailer", ["-1", "x"])
def test_malformed_hub_trailer_is_ignored(trailer):
    # '#' starts a comment: a trailer that names no vertices is not a usage
    # error, and the solver finds the hubs itself
    construct = run_cli(["construct", "--r", "4", "--m", "2"])
    text = construct.stdout.replace("# hubs: 20 21", f"# hubs: {trailer}")
    assert text != construct.stdout
    solve = run_cli(["solve", "--a", "1", "--b", "1", "-"], stdin_text=text)
    assert (solve.returncode, solve.stdout, solve.stderr) == (
        1, "S: 20 21\nT:\ndelta: -2\ntau: 4\n", ""
    )


def test_solve_output_does_not_depend_on_the_hub_trailer():
    construct = run_cli(["construct", "--r", "8", "--m", "2"])
    stripped = "".join(
        line + "\n" for line in construct.stdout.splitlines() if not line.startswith("# hubs:")
    )
    assert stripped != construct.stdout
    with_trailer = run_cli(["solve", "--a", "1", "--b", "1", "-"], stdin_text=construct.stdout)
    without = run_cli(["solve", "--a", "1", "--b", "1", "-"], stdin_text=stripped)
    assert (with_trailer.returncode, with_trailer.stdout, with_trailer.stderr) == (
        without.returncode, without.stdout, without.stderr
    ) == (1, "S: 72 73\nT:\ndelta: -6\ntau: 8\n", "")


def test_witness_round_trip_through_files(tmp_path):
    construct = run_cli(["construct", "--r", "6", "--m", "2"])
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(construct.stdout)
    solve = run_cli(["solve", "--a", "1", "--b", "1", str(graph_file)])
    assert solve.returncode == 1
    witness_file = tmp_path / "w.txt"
    witness_file.write_text(solve.stdout)
    verify = run_cli(
        ["verify-witness", str(graph_file), "--a", "1", "--b", "1",
         "--witness", str(witness_file)]
    )
    assert verify.returncode == 0
    assert verify.stdout.startswith("verified")


def test_factor_round_trip_through_files(tmp_path):
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    solve = run_cli(["solve", "--a", "1", "--b", "1", str(graph_file)])
    factor_file = tmp_path / "f.txt"
    factor_file.write_text(solve.stdout)
    verify = run_cli(
        ["verify-factor", str(graph_file), "--a", "1", "--b", "1",
         "--factor", str(factor_file)]
    )
    assert verify.returncode == 0 and verify.stdout == "ok\n"


def test_decide_small_infeasible():
    result = run_cli(["decide", "-", "--a", "1", "--b", "1"], stdin_text="3 3\n0 1\n0 2\n1 2\n")
    assert result.returncode == 1
    assert "delta: -1" in result.stdout


def test_decide_cap_exceeded():
    result = run_cli(
        ["decide", "-", "--a", "1", "--b", "1", "--enum-cap", "2"],
        stdin_text="3 3\n0 1\n0 2\n1 2\n",
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "error: n = 3 exceeds enumeration cap 2\n"


def test_deficiency_subcommand():
    construct = run_cli(["construct", "--r", "6", "--m", "2"])
    result = run_cli(
        ["deficiency", "-", "--a", "1", "--b", "1", "--S", "42 43", "--T", ""],
        stdin_text=construct.stdout,
    )
    assert result.returncode == 0
    assert "delta: -4" in result.stdout and "tau: 6" in result.stdout


@pytest.mark.parametrize("flag,value,field", [("--S", "1 a", "a"), ("--T", "0 x1", "x1")])
def test_deficiency_bad_vertex_id_is_a_usage_error(flag, value, field):
    result = run_cli(["deficiency", "-", "--a", "1", "--b", "1", flag, value], stdin_text=PETERSEN)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"error: {flag}: bad vertex id {field!r}\n"
    )


def test_connectivity_subcommand():
    result = run_cli(["connectivity", "-"], stdin_text=PETERSEN)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "lambda: 3"


# digests of the sink sweep's output, which swept every sink from vertex 0:
# the growing-source flows and the capped cut-side sweep print the same bytes
@pytest.mark.parametrize("generate,digest", [
    (["gen-random", "--n", "2000", "--r", "4", "--seed", "1"],
     "e392ff16351f8a08d589d98e75f68afc90185c38bdeec6c8fb1f9f745767d48d"),
    (["construct", "--r", "12", "--m", "4"],
     "a8faaf9600361b3deb41a26cd27429886858189de97b04a0a32caf906db16062"),
])
def test_connectivity_output_is_pinned(generate, digest):
    result = run_cli(["connectivity", "-"], stdin_text=run_cli(generate).stdout)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_closed_stdout_pipe_exits_quietly():
    # the reader is gone before paritylab writes: no message, exit 128 + SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            CLI + ["connectivity", "-"], input=PETERSEN, stdout=write_end,
            stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "") == (141, "")


CHECK_CONDITIONS_OUTPUT = {
    "--r 3 --m 3 --a 1 --b 1 --n-even": (
        "Main-i: not satisfied\n"
        "Main-ii: not satisfied\n"
        "Main-iii: satisfied\n"
        "Gallai-i: not satisfied\n"
        "Gallai-ii: not satisfied\n"
        "Gallai-iii: satisfied\n"
        "BSW-i: not satisfied\n"
        "BSW-ii: satisfied\n"
        "Petersen: not satisfied\n"
    ),
    # a != b: only the three Main cases are printed
    "--r 4 --m 4 --a 1 --b 3 --n-even": (
        "Main-i: satisfied\n"
        "Main-ii: not satisfied\n"
        "Main-iii: not satisfied\n"
    ),
    # lambda = 0 fails every connectivity case; Petersen needs none
    "--r 6 --m 0 --a 2 --b 2 --n-odd": (
        "Main-i: not satisfied\n"
        "Main-ii: not satisfied\n"
        "Main-iii: not satisfied\n"
        "Gallai-i: not satisfied\n"
        "Gallai-ii: not satisfied\n"
        "Gallai-iii: not satisfied\n"
        "BSW-i: not satisfied\n"
        "BSW-ii: not satisfied\n"
        "Petersen: satisfied\n"
    ),
}


def test_check_conditions():
    for args, expected in CHECK_CONDITIONS_OUTPUT.items():
        result = run_cli(["check-conditions", *args.split()])
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, ""), args


def test_gen_random_same_seed_same_graph():
    a = run_cli(["gen-random", "--n", "10", "--r", "3", "--seed", "5"])
    b = run_cli(["gen-random", "--n", "10", "--r", "3", "--seed", "5"])
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "10 15"


def _gen_random(monkeypatch, capsys, env_seed, args):
    """gen-random's exit code and text, PARITYLAB_SEED set to env_seed or unset."""
    if env_seed is None:
        monkeypatch.delenv("PARITYLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("PARITYLAB_SEED", env_seed)
    code = cli.main(["gen-random", "--n", "10", "--r", "3", *args])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def test_gen_random_env_seed_is_the_default_seed(monkeypatch, capsys):
    by_env = _gen_random(monkeypatch, capsys, "5", [])
    assert by_env == _gen_random(monkeypatch, capsys, None, ["--seed", "5"])
    assert by_env[0] == cli.EXIT_OK
    # the environment is read: seed 5 is not the default 0
    assert by_env != _gen_random(monkeypatch, capsys, None, [])


def test_gen_random_seed_flag_wins_over_env_seed(monkeypatch, capsys):
    by_flag = _gen_random(monkeypatch, capsys, "5", ["--seed", "7"])
    assert by_flag == _gen_random(monkeypatch, capsys, None, ["--seed", "7"])
    assert by_flag != _gen_random(monkeypatch, capsys, "5", [])


def test_gen_random_retries_exhausted_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(generators, "_pairing_attempt", lambda n, r, rng: None)
    assert cli.main(["gen-random", "--n", "10", "--r", "3"]) == cli.EXIT_USAGE == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: no simple 3-regular graph")


def test_solve_brute_factor_is_accepted(tmp_path):
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    solve = run_cli(["solve", str(graph_file), "--a", "1", "--b", "1", "--method", "brute"])
    assert solve.returncode == 0 and solve.stdout.startswith("factor 5\n")
    factor_file = tmp_path / "f.txt"
    factor_file.write_text(solve.stdout)
    verify = run_cli(
        ["verify-factor", str(graph_file), "--a", "1", "--b", "1",
         "--factor", str(factor_file)]
    )
    assert verify.returncode == 0 and verify.stdout == "ok\n"


def test_solve_brute_infeasible_prints_the_gadget_witness():
    triangle = "3 3\n0 1\n0 2\n1 2\n"
    brute = run_cli(["solve", "-", "--a", "1", "--b", "1", "--method", "brute"], stdin_text=triangle)
    gadget = run_cli(["solve", "-", "--a", "1", "--b", "1"], stdin_text=triangle)
    assert brute.returncode == gadget.returncode == 1
    assert brute.stdout == gadget.stdout and "delta: -1" in brute.stdout


# n = 16 is above the default --enum-cap. Vertex 12 has f = 4 > d = 1 and
# all its outer nodes on the gadget's barrier: with it in S the projected
# pair has delta 2, without it delta -2
ABOVE_CAP_GRAPH = "16 7\n1 4\n1 5\n1 11\n4 10\n5 15\n8 11\n8 12\n"
ABOVE_CAP_SPEC = (
    "0 4\n3 3\n0 4\n0 4\n0 4\n0 2\n0 0\n0 4\n2 4\n0 0\n0 0\n2 4\n0 4\n0 0\n0 4\n1 3\n"
)


@pytest.fixture
def above_cap_args(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(ABOVE_CAP_GRAPH)
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(ABOVE_CAP_SPEC)
    assert parse_graph(ABOVE_CAP_GRAPH).n > DEFAULT_ENUMERATION_CAP
    return [str(graph_file), "--spec-file", str(spec_file)]


@pytest.mark.parametrize("method", ["gadget", "brute"])
def test_solve_above_enum_cap_prints_the_barrier_witness(tmp_path, above_cap_args, method):
    solve = run_cli(["solve", *above_cap_args, "--method", method])
    assert (solve.returncode, solve.stdout, solve.stderr) == (
        1, "S: 10\nT: 0 1 2 3 6 7 8 9 11 13 14 15\ndelta: -2\ntau: 2\n", ""
    )
    witness_file = tmp_path / "w.txt"
    witness_file.write_text(solve.stdout)
    verify = run_cli(["verify-witness", *above_cap_args, "--witness", str(witness_file)])
    assert (verify.returncode, verify.stdout) == (
        0, "verified: infeasibility certificate accepted\n"
    )


def test_oracle_disagreement_in_solve_brute_above_enum_cap_is_an_internal_error(
    above_cap_args, monkeypatch, capsys
):
    # brute force finds no factor; a gadget that claims one contradicts it
    monkeypatch.setattr(cli, "factor_or_witness", lambda g, spec: Factor(g.n, ()))
    assert cli.main(["solve", *above_cap_args, "--method", "brute"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_solve_brute_factor_against_a_gadget_witness_is_an_internal_error(
    tmp_path, monkeypatch, capsys
):
    # brute force finds a factor of the Petersen graph; a gadget witness contradicts it
    witness = parse_witness("S:\nT:\ndelta: -1\ntau: 1\n")
    monkeypatch.setattr(cli, "factor_or_witness", lambda g, spec: witness)
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    argv = ["solve", str(graph_file), "--a", "1", "--b", "1", "--method", "brute"]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_solve_brute_edge_cap_exceeded():
    result = run_cli(
        ["solve", "-", "--a", "1", "--b", "1", "--method", "brute", "--edge-cap", "5"],
        stdin_text=PETERSEN,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: |E| = 15 exceeds brute-force cap 5\n"
    )


@pytest.mark.parametrize(
    "args,message",
    [
        (["decide", "-", "--a", "1", "--b", "1", "--enum-cap", "-5"], "a cap cannot be negative, got -5"),
        (["solve", "-", "--a", "1", "--b", "1", "--enum-cap", "-1"], "a cap cannot be negative, got -1"),
        (["solve", "-", "--a", "1", "--b", "1", "--method", "brute", "--edge-cap", "-1"],
         "a cap cannot be negative, got -1"),
        (["decide", "-", "--a", "1", "--b", "1", "--enum-cap", "abc"], "invalid int value: 'abc'"),
        (["solve", "-", "--a", "1", "--b", "1", "--method", "brute", "--edge-cap", "1.5"],
         "invalid int value: '1.5'"),
    ],
    ids=["decide-enum-cap", "solve-enum-cap", "solve-edge-cap", "decide-enum-cap-abc", "solve-edge-cap-1.5"],
)
def test_negative_cap_is_a_usage_error(args, message):
    # argparse rejects a negative cap, and one that is no int, through cli._cap
    result = run_cli(args, stdin_text="2 1\n0 1\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert f"argument {args[-2]}: {message}" in result.stderr


@pytest.mark.parametrize("command", ["decide", "solve"])
def test_enum_cap_above_the_memory_limit_is_a_usage_error(command):
    # the 2^n-entry tables fit in memory only up to MAX_ENUMERATION_N; the
    # largest accepted cap still decides K2 without building a large table
    top = MAX_ENUMERATION_N
    args = [command, "-", "--a", "1", "--b", "1", "--enum-cap"]
    result = run_cli([*args, str(top + 1)], stdin_text="2 1\n0 1\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert f"argument --enum-cap: the enumeration cap is at most {top}, got {top + 1}" in result.stderr
    result = run_cli([*args, str(top)], stdin_text="2 1\n0 1\n")
    assert (result.returncode, result.stderr) == (0, "")


def test_zero_cap_is_still_a_cap():
    k2 = "2 1\n0 1\n"
    result = run_cli(["decide", "-", "--a", "1", "--b", "1", "--enum-cap", "0"], stdin_text=k2)
    assert (result.returncode, result.stderr) == (3, "error: n = 2 exceeds enumeration cap 0\n")
    result = run_cli(
        ["solve", "-", "--a", "1", "--b", "1", "--method", "brute", "--edge-cap", "0"], stdin_text=k2
    )
    assert (result.returncode, result.stderr) == (3, "error: |E| = 1 exceeds brute-force cap 0\n")


def test_usage_error_exit_code():
    result = run_cli(["solve", "-"], stdin_text="2 1\n0 1\n")
    assert result.returncode == 2  # no spec given


def test_spec_file(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("2 1\n0 1\n")
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("1 1\n1 1\n")
    result = run_cli(["solve", str(graph_file), "--spec-file", str(spec_file)])
    assert result.returncode == 0
    assert result.stdout == "factor 1\n0 1\n"


def test_spec_file_of_wrong_length_is_a_usage_error(tmp_path):
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("1 1\n1 1\n")
    result = run_cli(["solve", str(graph_file), "--spec-file", str(spec_file)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: spec covers 2 vertices, graph has 10\n"


@pytest.mark.parametrize("bounds", [["--a", "1"], ["--b", "1"], ["--a", "1", "--b", "1"]],
                         ids=["a", "b", "a-and-b"])
def test_spec_file_with_constant_bounds_is_a_usage_error(tmp_path, capsys, bounds):
    # with both given the spec file would silently win: its all-zero bounds
    # make the empty factor the answer to a perfect-matching question
    graph_file = tmp_path / "k2.txt"
    graph_file.write_text("2 1\n0 1\n")
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("0 0\n0 0\n")
    instance = [str(graph_file), *bounds, "--spec-file", str(spec_file)]
    for command in (["solve"], ["decide"], ["deficiency"], ["verify-factor", "--factor", "-"],
                    ["verify-witness", "--witness", "-"]):
        assert cli.main(command[:1] + instance + command[1:]) == cli.EXIT_USAGE == 2, command
        assert capsys.readouterr() == ("", "error: --a/--b and --spec-file cannot be combined\n")


@pytest.mark.parametrize("text,line", [("1 1 1\n", 1), ("# g f\n1 1\n3\n", 3), ("1 x\n", 1)])
def test_malformed_spec_line_is_a_usage_error(tmp_path, text, line):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("2 1\n0 1\n")
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(text)
    result = run_cli(["solve", str(graph_file), "--spec-file", str(spec_file)])
    bad = text.splitlines()[line - 1]
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"error: line {line}: expected two integers, got {bad!r}\n"
    )


# f(V) is odd, so (empty, empty) is a witness too, with delta -1; the
# enumeration's canonical witness has delta -3 and nonempty S and T
BYTE_IDENTITY_SPEC = (
    (1, 1, 0, 2, 2, 1, 0, 0, 0, 2),
    (3, 1, 0, 4, 4, 1, 0, 2, 0, 2),
)


@pytest.mark.parametrize("command", ["solve", "decide"])
def test_infeasible_witness_is_the_reference_enumeration_witness(tmp_path, command):
    g = random_regular(10, 3, seed=4)
    spec = ParitySpec(*BYTE_IDENTITY_SPEC)
    assert g.n <= DEFAULT_ENUMERATION_CAP == 15
    expected = serialize_witness(reference_lovasz.decide_by_enumeration(g, spec).witness)
    assert expected.startswith("S: 2 5 6\nT: 3 4\ndelta: -3\n")
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(emit_graph(g))
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("".join(f"{lo} {hi}\n" for lo, hi in zip(*BYTE_IDENTITY_SPEC)))
    result = run_cli([command, str(graph_file), "--spec-file", str(spec_file)])
    assert (result.returncode, result.stdout, result.stderr) == (1, expected, "")


@pytest.mark.parametrize(
    "fault", [IndexError("planted"), SelfCheckFailed("planted"), ValueError("planted")]
)
def test_internal_fault_is_not_reported_as_infeasible(tmp_path, monkeypatch, capsys, fault):
    def broken(g, spec):
        raise fault

    monkeypatch.setattr(cli, "factor_or_witness", broken)
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    assert cli.main(["solve", str(graph_file), "--a", "1", "--b", "1"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("internal error:") and "planted" in err


def test_main_reuses_one_parser_safely(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; each call of an in-process
    # sequence answers as the same call made alone, in its own process
    assert cli.build_parser() is cli.build_parser()
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(run_cli(["construct", "--r", "6", "--m", "2"]).stdout)
    solve = ["solve", "--a", "1", "--b", "1", str(graph_file)]
    sequence = [
        solve,
        ["solve", "--a", "1", "--bogus", str(graph_file)],
        ["--version"],
        ["connectivity", str(graph_file)],
        solve,
    ]

    def in_process(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    got = [in_process(argv) for argv in sequence]
    alone = [run_cli(argv) for argv in sequence]
    assert got == [(r.returncode, r.stdout, r.stderr) for r in alone]
    assert [code for code, _, _ in got] == [1, 2, 0, 0, 1]
    assert got[0][1] == "S: 42 43\nT:\ndelta: -4\ntau: 6\n"
    # main looks cmd_solve up per call, and cmd_solve looks up factor_or_witness
    calls = []
    real = cli.factor_or_witness

    def spy(g, spec):
        calls.append(g.n)
        return real(g, spec)

    monkeypatch.setattr(cli, "factor_or_witness", spy)
    assert in_process(solve) == got[0] and calls == [44]


def test_every_subcommand_names_its_handler():
    # main runs cmd_<name>, with each '-' of the subcommand's name read as '_'
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 10
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))


def test_a_patched_handler_is_the_one_main_runs(tmp_path, monkeypatch, capsys):
    # the memoised parser binds no handler, so a patch made after it was
    # built still takes effect
    cli.build_parser()
    graph_file = tmp_path / "k2.g"
    graph_file.write_text("2 1\n0 1\n")
    seen = []

    def fake(args):
        seen.append(args.graph)
        return cli.EXIT_INFEASIBLE

    monkeypatch.setattr(cli, "cmd_connectivity", fake)
    assert cli.main(["connectivity", str(graph_file)]) == cli.EXIT_INFEASIBLE
    assert seen == [str(graph_file)] and capsys.readouterr().out == ""


@pytest.mark.parametrize("error,status,stderr", [
    (ParityLabError("planted"), 2, "error: planted\n"),
    (CapExceeded("planted"), 3, "error: planted\n"),
    (CounterexampleError("planted", "2 1\n0 1"), 1,
     "error: planted\n--- instance for replay ---\n2 1\n0 1\n"),
    (SelfCheckFailed("planted"), 4, "internal error: planted\n"),
], ids=["input", "cap", "counterexample", "self-check"])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, status, stderr):
    # the exit code is all a caller tells errors apart by, so errors defines
    # one class per code, and main maps each to its code and stderr line
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert defined == {"ParityLabError", "CapExceeded", "CounterexampleError", "SelfCheckFailed"}

    def fake(args):
        raise error

    monkeypatch.setattr(cli, "cmd_connectivity", fake)
    assert cli.main(["connectivity", "unread.g"]) == status
    assert capsys.readouterr() == ("", stderr)


def test_solve_with_enum_cap_zero_prints_the_barrier_witness(tmp_path, capsys):
    # n = 15 is within the default cap, where solve prints decide's canonical
    # witness; --enum-cap 0 takes the gadget's barrier witness instead: the
    # same delta, another text, and verify-witness accepts it
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(emit_graph(random_regular(15, 4, seed=1)))
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "2 2\n3 5\n1 3\n1 3\n1 3\n1 1\n1 3\n0 0\n1 3\n1 3\n0 0\n2 4\n2 2\n0 0\n0 2\n"
    )
    instance = [str(graph_file), "--spec-file", str(spec_file)]
    assert cli.main(["solve", *instance, "--enum-cap", "0"]) == cli.EXIT_INFEASIBLE
    barrier = capsys.readouterr().out
    assert barrier == "S: 7 10 13\nT: 1 12\ndelta: -2\ntau: 0\n"
    witness_file = tmp_path / "w.txt"
    witness_file.write_text(barrier)
    assert cli.main(["verify-witness", *instance, "--witness", str(witness_file)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "verified: infeasibility certificate accepted\n"
    assert cli.main(["decide", *instance]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().out == "S: 7 13\nT: 1\ndelta: -2\ntau: 1\n"


def test_oracle_disagreement_in_solve_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # n = 2 is within --enum-cap, and the enumeration finds the factor {01}
    monkeypatch.setattr(cli, "factor_or_witness", lambda g, spec: None)
    graph_file = tmp_path / "k2.g"
    graph_file.write_text("2 1\n0 1\n")
    assert cli.main(["solve", str(graph_file), "--a", "1", "--b", "1"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PARITYLAB_SEED", "abc")
    assert cli.main(["gen-random", "--n", "6", "--r", "3"]) == cli.EXIT_USAGE == 2
    assert capsys.readouterr() == ("", "error: PARITYLAB_SEED: bad seed 'abc'\n")


def test_graph_file_of_invalid_utf8_is_a_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_bytes(b"2 1\n0 \xff1\n")
    assert cli.main(["solve", str(graph_file), "--a", "1", "--b", "1"]) == cli.EXIT_USAGE == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def _commented(text):
    """text under the shared line syntax: a comment line and a blank line
    first, and a trailing comment and a blank line after every line"""
    return "# comment\n\n" + "".join(f"{line}  # note\n\n" for line in text.splitlines())


def test_every_text_format_reads_comments_alike(tmp_path, capsys):
    graph = "4 3\n0 1\n1 2\n2 3\n"
    assert parse_graph(_commented(graph)) == parse_graph(graph)
    factor = "factor 2\n0 1\n2 3\n"
    assert parse_factor(_commented(factor), 4) == parse_factor(factor, 4)
    witness = "S: 20 21\nT:\ndelta: -2\ntau: 4\n"
    assert parse_witness(_commented(witness)) == parse_witness(witness)
    config = "seed=1\nn=10\nr=3\ntrials=1\nab=1:1\nextremal=4:2:1:1\n"
    assert parse_config(_commented(config)) == parse_config(config)
    graph_file = tmp_path / "p4.g"
    graph_file.write_text(graph)
    results = []
    for text in ("0 2\n1 1\n1 1\n0 0\n", _commented("0 2\n1 1\n1 1\n0 0\n")):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(text)
        code = cli.main(["solve", str(graph_file), "--spec-file", str(spec_file)])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1] == (0, ("factor 1\n1 2\n", ""))


def test_library_fault_in_verify_witness_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(g, spec, s, t):
        raise IndexError("planted")

    monkeypatch.setattr(lovasz, "_component_scan", broken)
    graph_file = tmp_path / "k2.g"
    graph_file.write_text("2 1\n0 1\n")
    witness_file = tmp_path / "w.txt"
    witness_file.write_text("S:\nT:\ndelta: -1\ntau: 1\n")
    argv = ["verify-witness", str(graph_file), "--a", "1", "--b", "1", "--witness", str(witness_file)]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "internal error: IndexError: planted"


def test_experiment_subcommand(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=1\nn=10\nr=3\ntrials=1\nab=1:1\nextremal=4:2:1:1\n")
    out_csv = tmp_path / "out.csv"
    result = run_cli(["experiment", str(cfg), "--csv", str(out_csv)])
    assert result.returncode == 0
    assert out_csv.read_text().splitlines()[0] == "seed,n,r,lambda,a,b,case,outcome,delta"


def test_experiment_counterexample_exits_1_with_the_replay_instance(tmp_path, monkeypatch, capsys):
    # a satisfied case without a factor fails the theorem's verification: it
    # is exit 1, as in the grid script, not a usage error; stdout stays empty
    # and stderr carries the sampled graph for replay
    witness = DeficiencyWitness(VertexSet.empty(), VertexSet.empty(), -1, 1)
    monkeypatch.setattr(experiment, "_solve", lambda g, r, spec, seed: witness)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=7\nn=10\nr=3\ntrials=1\nab=1:1\n")
    assert cli.main(["experiment", str(cfg)]) == cli.EXIT_INFEASIBLE == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: satisfied cases ")
    head, sep, instance = err.partition("--- instance for replay ---\n")
    assert sep and "no verified (1,1)-parity factor" in head
    g = parse_graph(instance)
    assert g.n == 10 and {g.degree(v) for v in range(g.n)} == {3}


@pytest.mark.parametrize("line", ["ab=1", "ab=1:1:1", "extremal=6:2"])
def test_experiment_config_of_wrong_arity_is_a_usage_error(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    result = run_cli(["experiment", str(cfg)])
    value = line.partition("=")[2]
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"error: config line 1: bad value {value!r}\n"
    )


@pytest.mark.parametrize("tuple_text", ["6:2:1:3", "6:2:2:2", "8:4:3:3"])
def test_experiment_extremal_tuple_outside_the_domain_is_a_usage_error(tuple_text):
    result = run_cli(["experiment", "-"], stdin_text=f"trials=0\nextremal={tuple_text}\n")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: extremal tuple (r=")
    assert len(result.stderr.splitlines()) == 1
    assert "instance for replay" not in result.stderr


@pytest.mark.parametrize("pair", ["3:1", "1:2", "0:0"])
def test_experiment_ab_pair_that_no_r_admits_is_a_usage_error(pair):
    result = run_cli(["experiment", "-"], stdin_text=f"n=10\nr=3\ntrials=1\nab=1:1,{pair}\n")
    assert (result.returncode, result.stdout) == (2, "")
    a, b = pair.split(":")
    assert result.stderr.startswith(f"error: ab pair (a={a}, b={b}) is admitted by no r")
    assert len(result.stderr.splitlines()) == 1


def test_solve_dot_output(tmp_path):
    graph_file = tmp_path / "p.g"
    graph_file.write_text(PETERSEN)
    result = run_cli(["solve", str(graph_file), "--a", "1", "--b", "1", "--dot"])
    assert result.returncode == 0
    assert result.stdout.startswith("graph G {")
    assert result.stdout.count("penwidth=3") == 5


def test_solve_dot_on_an_infeasible_instance_prints_the_witness_block():
    # --dot draws a found factor; an infeasible instance keeps its witness text
    result = run_cli(["solve", "-", "--a", "1", "--b", "1", "--dot"], stdin_text="3 3\n0 1\n0 2\n1 2\n")
    assert result.returncode == 1
    assert result.stdout == "S:\nT:\ndelta: -1\ntau: 1\n"


def test_verify_witness_with_a_spec_of_the_wrong_length_is_a_usage_error(tmp_path):
    graph_file = tmp_path / "k2.g"
    graph_file.write_text("2 1\n0 1\n")
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("1 1\n1 1\n1 1\n")
    witness_file = tmp_path / "w.txt"
    witness_file.write_text("S:\nT:\ndelta: -1\ntau: 1\n")
    result = run_cli(["verify-witness", str(graph_file), "--spec-file", str(spec_file),
                      "--witness", str(witness_file)])
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: spec covers 3 vertices, graph has 2\n"
    )


def test_verify_witness_with_a_vertex_out_of_range_is_rejected(tmp_path):
    graph_file = tmp_path / "k2.g"
    graph_file.write_text("2 1\n0 1\n")
    witness_file = tmp_path / "w.txt"
    witness_file.write_text("S: 7\nT:\ndelta: -1\ntau: 1\n")
    result = run_cli(["verify-witness", str(graph_file), "--a", "1", "--b", "1",
                      "--witness", str(witness_file)])
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "rejected: malformed witness: vertex 7 not in 0..1\n", ""
    )


@pytest.mark.parametrize("command", ["solve", "decide", "deficiency", "verify-factor", "verify-witness"])
def test_instance_commands_share_the_graph_and_spec_arguments(command, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for line in ("graph file or '-' for stdin", "constant lower bound",
                 "constant upper bound", "per-vertex 'g f' lines"):
        assert line in out
