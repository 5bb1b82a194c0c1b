"""Command-line pipeline: exit codes, file formats, determinism, fits."""

import contextlib
import copy
import functools
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies

from fdsc import cli, css, gf2, groups, synth, verify


def run(capsys, *argv):
    try:
        rc = cli.main(list(argv))
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_synth_ghz(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, stdout, _ = run(capsys, "synth", "--code", "ghz", "--size", "5",
                        "--strategy", "greedy", "--out", str(out))
    assert rc == 0
    line = json.loads(stdout.strip())
    assert line == {"gate_count": 4, "n_qubits": 5, "s_size": 1}
    circ = synth.parse_circuit(out.read_text())
    assert circ.gate_count == 4


def test_synth_recursive_requires_power_of_two(capsys):
    rc, _, err = run(capsys, "synth", "--code", "toric", "--size", "3",
                     "--strategy", "toric_recursive")
    assert rc == 3
    assert "power of two" in err


def test_synth_bad_flags(capsys):
    rc, _, _ = run(capsys, "synth", "--code", "ghz", "--strategy", "greedy")
    assert rc == 2  # missing --size for a built-in family
    rc, _, _ = run(capsys, "synth", "--code", "ghz")
    assert rc == 2  # argparse: missing --strategy


def test_synth_verify_round_trip(tmp_path, capsys):
    for fam, size, strat in [("ghz", 4, "greedy"),
                             ("toric", 2, "toric_comb"),
                             ("haah", 2, "haah_canonical")]:
        out = tmp_path / f"{fam}.json"
        rc, _, _ = run(capsys, "synth", "--code", fam, "--size", str(size),
                       "--strategy", strat, "--out", str(out))
        assert rc == 0
        rc, stdout, _ = run(capsys, "verify", "--circuit", str(out),
                            "--code", fam, "--size", str(size))
        assert rc == 0
        assert json.loads(stdout.strip())["pass"] is True


def test_verify_oracle_flag(tmp_path, capsys):
    out = tmp_path / "t2.json"
    run(capsys, "synth", "--code", "toric", "--size", "2",
        "--strategy", "toric_comb", "--out", str(out))
    rc, stdout, _ = run(capsys, "verify", "--circuit", str(out), "--code",
                        "toric", "--size", "2", "--oracle")
    assert rc == 0


def test_verify_corrupted_circuit(tmp_path, capsys):
    out = tmp_path / "t.json"
    run(capsys, "synth", "--code", "toric", "--size", "2",
        "--strategy", "toric_comb", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["gates"] = doc["gates"][1:]
    out.write_text(json.dumps(doc))
    rc, stdout, _ = run(capsys, "verify", "--circuit", str(out), "--code",
                        "toric", "--size", "2")
    assert rc == 1
    report = json.loads(stdout.strip())
    assert not report["pass"]
    assert report["failed_x"] or report["failed_z"]


def test_verify_rejects_repeated_gate(tmp_path, capsys):
    # two equal CX gates cancel, so the file does not describe the GHZ state
    circ = tmp_path / "ghz3.json"
    circ.write_text(json.dumps({"version": 1, "n_qubits": 3, "plus_qubits": [0],
                                "gates": [[0, 1], [0, 2], [0, 1]]}))
    rc, stdout, err = run(capsys, "verify", "--circuit", str(circ), "--code",
                          "ghz", "--size", "3")
    assert rc == 2
    assert stdout == "" and "repeated" in err


def test_verify_garbage_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc, _, _ = run(capsys, "verify", "--circuit", str(bad), "--code", "ghz",
                   "--size", "3")
    assert rc == 2


def test_code_file_round_trip(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    code_path.write_text(css.serialize_code(css.build_ghz(4)))
    out = tmp_path / "c.json"
    rc, stdout, _ = run(capsys, "synth", "--code", f"file:{code_path}",
                        "--strategy", "greedy", "--out", str(out))
    assert rc == 0
    assert json.loads(stdout.strip())["gate_count"] == 3
    rc, _, _ = run(capsys, "verify", "--circuit", str(out),
                   "--code", f"file:{code_path}")
    assert rc == 0


@pytest.mark.parametrize("change", [{"params": {"L": 3}}, {"x_stabs": 5}])
def test_code_file_rejected_without_traceback(tmp_path, capsys, change):
    # a toric tag naming another size, and a malformed field
    doc = json.loads(css.serialize_code(css.build_toric(4)))
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({**doc, **change}))
    rc, stdout, err = run(capsys, "synth", "--code", f"file:{code_path}",
                          "--strategy", "toric_comb")
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("synth", "--code", "ghz", "--size", "3", "--strategy", "greedy",
     "--out", "{missing}/x.json"),
    ("scaling", "--code", "toric", "--strategy", "toric_comb",
     "--sizes", "2,3", "--out", "{missing}/x.csv"),
    ("synth", "--code", "file:{binary}", "--strategy", "greedy"),
    ("scaling", "--code", "file:{binary}", "--strategy", "greedy",
     "--sizes", "1"),
])
def test_unwritable_out_or_unreadable_code_without_traceback(tmp_path, capsys,
                                                              argv):
    binary = tmp_path / "code.json"
    binary.write_bytes(b"\xff\xfe{")   # not UTF-8
    argv = [a.format(missing=tmp_path / "missing", binary=binary) for a in argv]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("n_qubits", [10 ** 15, 2 ** 70])
def test_verify_huge_register_is_a_count_mismatch(tmp_path, capsys, n_qubits):
    # the register size must not size any allocation before the comparison
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "n_qubits": n_qubits,
                                "plus_qubits": [0], "gates": [[0, 1], [0, 2]],
                                "metadata": {}}))
    rc, stdout, err = run(capsys, "verify", "--circuit", str(path),
                          "--code", "ghz", "--size", "3")
    assert rc == 2
    assert stdout == "" and "qubit counts differ" in err


@pytest.mark.parametrize("n_qubits", [10 ** 13, 10 ** 30])
def test_verify_huge_code_is_a_count_mismatch(tmp_path, capsys, n_qubits):
    # loading a code allocates nothing per qubit, so a huge register in the
    # code file reaches the qubit-count comparison with the circuit
    circ = tmp_path / "c.json"
    circ.write_text(synth.serialize_circuit(synth.synthesize(css.build_ghz(3),
                                                             "greedy")))
    code = tmp_path / "code.json"
    code.write_text(json.dumps({**json.loads(css.serialize_code(css.build_ghz(3))),
                                "n_qubits": n_qubits, "family": "custom",
                                "params": {}}))
    rc, stdout, err = run(capsys, "verify", "--circuit", str(circ),
                          "--code", f"file:{code}")
    assert rc == 2
    assert stdout == "" and "qubit counts differ" in err


def test_code_file_index_beyond_int64_is_a_parse_error(tmp_path, capsys):
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"version": 1, "n_qubits": 2 ** 70,
                                "x_stabs": [[0, 2 ** 64]], "z_stabs": []}))
    rc, stdout, err = run(capsys, "synth", "--code", f"file:{code}",
                          "--strategy", "greedy")
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err


def test_synth_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "synth", "--code", "toric", "--size", "4",
            "--strategy", "toric_recursive", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_scaling_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    rc, stdout, _ = run(capsys, "scaling", "--code", "toric", "--strategy",
                        "toric_comb", "--sizes", "4,2,6", "--verify-upto", "4",
                        "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "family,strategy,L,n_qubits,s_size,gate_count,wall_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == [2, 4, 6]  # sorted by L
    result = json.loads(stdout.strip().splitlines()[-1])
    fit = result["fit"]
    # recompute the fit from the CSV rows
    xs = np.log([int(r[2]) for r in rows])
    ys = np.log([int(r[5]) for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    assert math.isclose(fit["slope"], slope, abs_tol=1e-9)
    assert math.isclose(fit["intercept"], intercept, abs_tol=1e-9)


def test_scaling_deterministic_modulo_wall_time(tmp_path, capsys):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        run(capsys, "scaling", "--code", "toric", "--strategy", "toric_comb",
            "--sizes", "2,3", "--out", str(path))
        rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_scaling_bad_strategy(capsys):
    rc, _, _ = run(capsys, "scaling", "--code", "toric", "--strategy",
                   "haah_canonical", "--sizes", "2,3")
    assert rc == 3


FAMILY_SIZES = {"ghz": 4, "toric": 2, "xcube": 2, "haah": 1}


@pytest.mark.parametrize("strategy", synth.STRATEGIES)
def test_every_strategy_runs_on_its_family_only(strategy, capsys):
    own = synth.LATTICE[strategy][0] if strategy != "greedy" else None
    for family, size in FAMILY_SIZES.items():
        rc, stdout, err = run(capsys, "synth", "--code", family, "--size",
                              str(size), "--strategy", strategy)
        if own in (None, family):
            assert rc == 0 and json.loads(stdout)["n_qubits"] > 0, err
        else:
            assert rc == 3 and stdout == "" and err.startswith("error: ")


def test_explicit_strategy_is_gone(capsys):
    rc, stdout, err = run(capsys, "synth", "--code", "toric", "--size", "2",
                          "--strategy", "explicit")
    assert rc == 3 and stdout == "" and "Traceback" not in err


@pytest.mark.parametrize("sizes", ["3,3,3", "2,2,5"])
def test_scaling_fits_only_three_distinct_sizes(sizes, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's RankWarning fails the test
        rc, stdout, err = run(capsys, "scaling", "--code", "toric",
                              "--strategy", "toric_comb", "--sizes", sizes)
    assert rc == 0 and err == ""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result == {"rows": 3, "failures": 0}


@pytest.mark.parametrize("flags", [
    ("--sizes", "a"), ("--sizes", "4,-1"), ("--sizes", "0"), ("--sizes", ","),
    ("--code", "bogus"), ("--code", "file:/nonexistent/code.json"),
    ("--sizes", "1")])   # below the toric minimum L = 2
def test_scaling_rejects_bad_sizes_and_code(capsys, flags):
    argv = {"--code": "toric", "--sizes": "4,8", **dict([flags])}
    rc, stdout, err = run(capsys, "scaling", "--strategy", "toric_comb",
                          *(x for kv in argv.items() for x in kv))
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err
    assert "failed" not in err


def test_scaling_file_code(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    code_path.write_text(css.serialize_code(css.build_ghz(4)))
    rc, stdout, _ = run(capsys, "scaling", "--code", f"file:{code_path}",
                        "--strategy", "greedy", "--sizes", "1,2",
                        "--verify-upto", "2")
    assert rc == 0
    assert [line.split(",")[5] for line in stdout.splitlines()[1:3]] == ["3", "3"]


def test_scaling_file_code_reports_no_fit(tmp_path, capsys):
    # one file code at every size: three rows, one n_qubits, no line to fit
    code_path = tmp_path / "t3.json"
    code_path.write_text(css.serialize_code(css.build_toric(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, stdout, err = run(capsys, "scaling", "--code", f"file:{code_path}",
                              "--strategy", "greedy", "--sizes", "2,4,8")
    assert rc == 0 and err == ""
    assert json.loads(stdout.splitlines()[-1]) == {"rows": 3, "failures": 0}


def count_runs(monkeypatch):
    """Record each call of synthesize ("synth") and verify_circuit ("verify")."""
    calls = []

    def counted(name, real):
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    monkeypatch.setattr(cli.synth, "synthesize",
                        counted("synth", cli.synth.synthesize))
    monkeypatch.setattr(cli.verify, "verify_circuit",
                        counted("verify", cli.verify.verify_circuit))
    return calls


def test_scaling_runs_a_file_code_once(tmp_path, monkeypatch, capsys):
    # a file code ignores --sizes: one synthesis and one verification give
    # every row, and every size up to --verify-upto still counts a failure
    code_path = tmp_path / "t3.json"
    code_path.write_text(css.serialize_code(css.build_toric(3)))
    calls = count_runs(monkeypatch)
    argv = ("scaling", "--code", f"file:{code_path}", "--strategy", "greedy",
            "--sizes", "2,4,8")
    rc, stdout, _ = run(capsys, *argv, "--verify-upto", "8")
    assert rc == 0 and calls == ["synth", "verify"]
    rows = [line.split(",") for line in stdout.splitlines()[1:4]]
    assert [r[2] for r in rows] == ["2", "4", "8"]
    assert len({tuple(r[:2] + r[3:]) for r in rows}) == 1   # wall_ms too
    calls.clear()
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and calls == ["synth"]

    def failing(code, circ):
        calls.append("verify")
        return verify.VerifyReport(False, (0,), (), 1)

    calls.clear()
    monkeypatch.setattr(cli.verify, "verify_circuit", failing)
    rc, stdout, err = run(capsys, *argv, "--verify-upto", "4")
    assert rc == 1 and calls == ["synth", "verify"]
    assert [line.split()[1] for line in err.splitlines()] == ["2", "4"]
    assert json.loads(stdout.splitlines()[-1]) == {"rows": 1, "failures": 2}


def test_scaling_counts_only_verification_failures(monkeypatch, capsys):
    real = cli.verify.verify_circuit

    def fail_at_3(code, circ):
        report = real(code, circ)
        return report if code.params["L"] != 3 else \
            type(report)(False, (0,), (), report.n_checked)

    monkeypatch.setattr(cli.verify, "verify_circuit", fail_at_3)
    rc, stdout, err = run(capsys, "scaling", "--code", "toric", "--strategy",
                          "toric_comb", "--sizes", "2,3,4", "--verify-upto", "4")
    assert rc == 1
    assert err.startswith("size 3 failed: verification failed")
    assert json.loads(stdout.splitlines()[-1]) == {"rows": 2, "failures": 1}


# rows as written before repeated sizes shared one run (wall_ms aside);
# L=5 is above --verify-upto, so it is synthesized but not verified
@pytest.mark.parametrize("sizes, rows, runs", [
    ("3,3,3", ["toric,toric_comb,3,18,8,34"] * 3, ["synth", "verify"]),
    ("2,2,5", ["toric,toric_comb,2,8,3,9"] * 2 + ["toric,toric_comb,5,50,24,156"],
     ["synth", "verify", "synth"]),
])
def test_scaling_runs_each_size_once(sizes, rows, runs, monkeypatch, capsys):
    calls = count_runs(monkeypatch)
    rc, stdout, err = run(capsys, "scaling", "--code", "toric", "--strategy",
                          "toric_comb", "--sizes", sizes, "--verify-upto", "3")
    assert rc == 0 and err == ""
    lines = stdout.splitlines()
    assert lines[0] == "family,strategy,L,n_qubits,s_size,gate_count,wall_ms"
    assert [line.rsplit(",", 1)[0] for line in lines[1:-1]] == rows
    assert json.loads(lines[-1]) == {"rows": 3, "failures": 0}
    assert calls == runs
    assert lines[1] == lines[2]   # one run, one wall_ms


def test_scaling_checks_the_smallest_size_first(monkeypatch, capsys):
    calls = count_runs(monkeypatch)
    rc, stdout, err = run(capsys, "scaling", "--code", "toric", "--strategy",
                          "toric_comb", "--sizes", "4,1")   # toric needs L >= 2
    assert rc == 2 and stdout == "" and err.startswith("error: ")
    assert calls == []


def test_scaling_reports_failures_in_size_order(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify, "verify_circuit",
                        lambda code, circ: verify.VerifyReport(False, (0,), (), 1))
    rc, stdout, err = run(capsys, "scaling", "--code", "toric", "--strategy",
                          "toric_comb", "--sizes", "6,4,2,3,4",
                          "--verify-upto", "4")
    assert rc == 1
    assert [line.split()[:2] for line in err.splitlines()] == \
        [["size", "2"], ["size", "3"], ["size", "4"], ["size", "4"]]
    assert json.loads(stdout.splitlines()[-1]) == {"rows": 1, "failures": 4}


# every integer the command line reads, with {} for the integer under test
INTEGER_INPUTS = {
    "synth --size": ("synth", "--code", "ghz", "--size", "{}",
                     "--strategy", "greedy"),
    "synth --seed": ("synth", "--code", "ghz", "--size", "3",
                     "--strategy", "greedy", "--seed", "{}"),
    "synth --restarts": ("synth", "--code", "ghz", "--size", "3",
                         "--strategy", "greedy", "--restarts", "{}"),
    "verify --size": ("verify", "--code", "ghz", "--size", "{}",
                      "--circuit", "{circuit}"),
    "scaling --sizes": ("scaling", "--code", "ghz", "--strategy", "greedy",
                        "--sizes", "{}"),
    "scaling --seed": ("scaling", "--code", "ghz", "--strategy", "greedy",
                       "--sizes", "3", "--seed", "{}"),
    "scaling --verify-upto": ("scaling", "--code", "ghz", "--strategy",
                              "greedy", "--sizes", "3", "--verify-upto", "{}"),
    "groups --lengths": ("groups", "--group", "dihedral:3", "--lengths", "{}"),
    "groups --trials": ("groups", "--group", "dihedral:3", "--lengths", "3",
                        "--trials", "{}"),
    "groups dihedral:N": ("groups", "--group", "dihedral:{}", "--lengths", "3"),
    "groups abelian:a,b": ("groups", "--group", "abelian:2,{}",
                           "--lengths", "3"),
}


def integer_argv(tmp_path, name, value):
    circuit = tmp_path / "ghz3.json"
    circuit.write_text(synth.serialize_circuit(
        synth.synthesize(css.build_ghz(3), "greedy")))
    return [a.replace("{}", value).format(circuit=circuit)
            for a in INTEGER_INPUTS[name]]


@pytest.mark.parametrize("value", ["1_6", "\u0663", "+3", "3.0", "", "4,,8",
                                   "4,"])
@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integers_are_ascii_digits(tmp_path, capsys, name, value):
    # int() alone reads '1_6' as 16, Arabic-Indic '\u0663' as 3 and '+3' as 3
    rc, stdout, err = run(capsys, *integer_argv(tmp_path, name, value))
    assert rc == 2 and stdout == "", err
    assert "integer" in err and "invalid literal" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, value", [
    *((name, "3") for name in INTEGER_INPUTS),
    ("synth --seed", "-5"), ("scaling --seed", "-5")])
def test_integers_still_read(tmp_path, capsys, name, value):
    rc, stdout, err = run(capsys, *integer_argv(tmp_path, name, value))
    assert rc == 0 and stdout and err == ""


@pytest.mark.parametrize("text", ["0", "3", "-5", "007", "-0", "12345678901234567890"])
def test_integer_reads_what_int_reads(text):
    assert cli.integer(text) == int(text)


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    block = Path(__file__).parents[1].joinpath("README.md").read_text() \
        .split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    assert len(commands) >= 5 and all(c[0] == "fdsc" for c in commands)
    for argv in commands:
        rc, _, err = run(capsys, *argv[1:])
        assert rc == 0, (argv, err)


@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_synth_rejects_restarts_below_one(capsys, restarts):
    rc, stdout, err = run(capsys, "synth", "--code", "toric", "--size", "3",
                          "--strategy", "greedy", "--restarts", restarts)
    assert rc == 2
    assert stdout == "" and err.startswith("error: ")


def test_synth_restarts(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        rc, stdout, _ = run(capsys, "synth", "--code", "toric", "--size", "3",
                            "--strategy", "greedy", "--seed", "0",
                            "--restarts", "5", "--out", str(path))
        assert rc == 0
        outs.append((path.read_bytes(), json.loads(stdout.strip())))
    assert outs[0] == outs[1]
    best = min(json.loads(run(capsys, "synth", "--code", "toric", "--size",
                              "3", "--strategy", "greedy", "--seed",
                              str(k))[1].strip())["gate_count"]
               for k in range(5))
    assert outs[0][1]["gate_count"] == best


def test_groups_dihedral(capsys):
    rc, stdout, _ = run(capsys, "groups", "--group", "dihedral:4",
                        "--lengths", "4,16,64", "--trials", "50")
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "n,depth,ancillas"
    depths = {int(line.split(",")[1]) for line in lines[1:]}
    assert len(depths) == 1


def test_groups_abelian(capsys):
    rc, stdout, _ = run(capsys, "groups", "--group", "abelian:2",
                        "--lengths", "8")
    assert rc == 0


@pytest.mark.parametrize("flags", [("--lengths", "0"), ("--lengths", "2,-1"),
                                   ("--lengths", ","),
                                   ("--lengths", "2", "--trials", "0"),
                                   ("--lengths", "2", "--trials", "-3")])
def test_groups_rejects_bad_lengths_and_trials(capsys, flags):
    rc, stdout, stderr = run(capsys, "groups", "--group", "dihedral:4", *flags)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "Traceback" not in stderr


def test_groups_malformed_file(tmp_path, capsys):
    bad = tmp_path / "g.json"
    bad.write_text('{"order": 2, "table": [[0, 1], [1, 1]], "series": []}')
    rc, _, _ = run(capsys, "groups", "--group", f"file:{bad}",
                   "--lengths", "4")
    assert rc == 2


SMOKE_MATRIX = (
    [("ghz", 8, "greedy")]
    + [("toric", L, s) for L in (2, 4, 8)
       for s in ("greedy", "toric_comb", "toric_recursive")]
    + [("xcube", L, s) for L in (2, 3) for s in ("greedy", "xcube_dual_trees")]
    + [("haah", L, s) for L in (1, 2, 3) for s in ("greedy", "haah_canonical")]
)


@pytest.mark.parametrize("family,size,strategy", SMOKE_MATRIX)
def test_synth_then_verify_smoke(family, size, strategy, tmp_path, capsys):
    out = tmp_path / "circ.json"
    rc, _, _ = run(capsys, "synth", "--code", family, "--size", str(size),
                   "--strategy", strategy, "--out", str(out))
    assert rc == 0
    rc, stdout, _ = run(capsys, "verify", "--circuit", str(out),
                        "--code", family, "--size", str(size))
    assert rc == 0 and json.loads(stdout.strip())["pass"] is True


def test_groups_file_round_trip(tmp_path, capsys):
    from fdsc import groups as G
    g, series = G.make_dihedral(3)
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({"order": g.order, "table": g.table.tolist(),
                                "series": [list(s) for s in series.subgroups]}))
    rc, _, _ = run(capsys, "groups", "--group", f"file:{path}",
                   "--lengths", "3,5", "--trials", "25")
    assert rc == 0


def test_groups_file_series_repeating_an_element(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]],
                                "series": [[0], [0, 1, 1]]}))
    rc, stdout, err = run(capsys, "groups", "--group", f"file:{path}",
                          "--lengths", "2")
    assert rc == 2 and stdout == "" and "twice" in err


@pytest.mark.parametrize("reader", ["code", "circuit", "group"])
def test_repeated_json_key_exits_2(tmp_path, capsys, reader):
    # a repeated key is rejected, not resolved by keeping its last value:
    # each file's later value alone would load and pass
    texts = {
        "code": '{"n_qubits":99,' + css.serialize_code(css.build_ghz(3))[1:],
        "circuit": '{"gates":[[0,7]],' + synth.serialize_circuit(
            synth.synthesize(css.build_toric(2), "toric_comb"))[1:],
        "group": '{"order":2,"table":[[0,1],[1,0]],"series":[[0],[0,1,1]],'
                 '"series":[[0],[0,1]]}',
    }
    path = tmp_path / f"{reader}.json"
    path.write_text(texts[reader])
    argv = [a.format(path=path) for a in FUZZ_ARGV[reader]]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2 and stdout == ""
    assert err.startswith("error: repeated JSON key") and "Traceback" not in err


@pytest.mark.parametrize("reader", ["code", "circuit", "group"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, reader):
    path = tmp_path / f"{reader}.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(path=path) for a in FUZZ_ARGV[reader]]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2 and stdout == "" and err.startswith("error: invalid JSON: ")


def test_groups_trivial_group_file(tmp_path, capsys):
    # the trivial group's series is the single entry {e}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"order": 1, "table": [[0]], "series": [[0]]}))
    rc, stdout, _ = run(capsys, "groups", "--group", f"file:{path}",
                        "--lengths", "1,2,5")
    assert rc == 0
    assert stdout.splitlines() == ["n,depth,ancillas", "1,1,1", "2,1,1", "5,1,1"]


# Each asks numpy for one array beyond the 128 TiB user address space
# (71 PiB, 71 PiB, 2.8 PiB, 909 TiB), so it is refused at once on any host.
@pytest.mark.parametrize("argv", [
    ("synth", "--code", "toric", "--size", "100000000",
     "--strategy", "toric_comb"),
    ("scaling", "--code", "toric", "--strategy", "toric_comb",
     "--sizes", "100000000"),
    ("groups", "--group", "dihedral:10000000", "--lengths", "2"),
    ("verify", "--code", "file:{code}", "--circuit", "{circuit}"),
])
def test_oversized_input_exits_2(tmp_path, capsys, argv):
    code, circuit = tmp_path / "code.json", tmp_path / "circuit.json"
    code.write_text(json.dumps({"version": 1, "n_qubits": 10 ** 15,
                                "family": "custom", "params": {},
                                "x_stabs": [[0, 1]], "z_stabs": [[0, 1]]}))
    circuit.write_text(json.dumps({"version": 1, "n_qubits": 10 ** 15,
                                   "plus_qubits": [0], "gates": [[0, 1]],
                                   "metadata": {}}))
    argv = [a.format(code=code, circuit=circuit) for a in argv]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err
    assert "too large to hold in memory" in err


# numpy's arange gives an empty array for 2^63 - 1 <= n < 2^64 and refuses
# larger n; lengths from about 10^6 to 2^62 would really be allocated
@pytest.mark.parametrize("group", ["dihedral:4", "abelian:2,4"])
@pytest.mark.parametrize("length", [2 ** 63 - 1, 2 ** 63, 10 ** 30])
def test_groups_huge_length_exits_2_before_output(capsys, group, length):
    rc, stdout, err = run(capsys, "groups", "--group", group,
                          "--lengths", f"2,{length}")
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("n_qubits", [2 ** 63, 2 ** 70, 10 ** 30])
def test_greedy_on_huge_register_exits_2(tmp_path, capsys, n_qubits):
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"version": 1, "n_qubits": n_qubits,
                                "family": "custom", "params": {},
                                "x_stabs": [[0, 1], [1, 2]],
                                "z_stabs": [[0, 1, 2]]}))
    rc, stdout, err = run(capsys, "synth", "--code", f"file:{code}",
                          "--strategy", "greedy")
    assert rc == 2
    assert stdout == "" and err.startswith("error: ") and "Traceback" not in err


def test_bug_propagates_past_the_exit_code_policy(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise synth.InternalInvariantViolation("emission broke its invariant")

    monkeypatch.setattr(cli.synth, "synthesize", broken)
    with pytest.raises(synth.InternalInvariantViolation):
        cli.main(["synth", "--code", "ghz", "--size", "3", "--strategy", "greedy"])


@pytest.mark.parametrize("module", [css, gf2, synth, verify, groups])
def test_every_error_class_is_an_input_error_or_a_bug(module):
    # ValueError subclasses exit 2 or 3; AssertionError subclasses are bugs.
    # An input error outside both would escape the policy in cli.main.
    errors = [c for c in vars(module).values()
              if isinstance(c, type) and issubclass(c, BaseException)
              and c.__module__ == module.__name__]
    assert errors
    for cls in errors:
        assert issubclass(cls, (ValueError, AssertionError)), cls


# -- fuzzing the file readers through the CLI --------------------------------

# Out-of-range integers stay beyond the address space when they size an
# array: an n_qubits between about 1e8 and 2^47 would really be allocated.
REPLACEMENTS = strategies.sampled_from(
    [-1, 0, 1, 2, 3, 2 ** 50, 2 ** 63, 2 ** 70,
     0.5, 1.0, True, False, "1", None, [[0]]])


def _paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield from _paths(child, path + (key,))


@strategies.composite
def one_mutation(draw, doc):
    """``doc`` with one value replaced (the root too), one key dropped, or
    one list entry duplicated or removed."""
    doc = copy.deepcopy(doc)
    path = draw(strategies.sampled_from(list(_paths(doc))))
    if not path:
        return draw(REPLACEMENTS)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    key = path[-1]
    kinds = ["replace", "delete"] + (["duplicate"] if isinstance(parent, list)
                                     else [])
    kind = draw(strategies.sampled_from(kinds))
    if kind == "replace":
        parent[key] = draw(REPLACEMENTS)
    elif kind == "delete":
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return doc


def _fuzz_run(tmp_dir, reader, doc):
    """Run ``reader``'s command on ``doc`` and check the exit-code contract."""
    path = tmp_dir / f"{reader}.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([a.format(path=path) for a in FUZZ_ARGV[reader]])
    assert rc in (0, 1, 2)
    assert rc != 2 or out.getvalue() == ""
    return rc


_D3, _D3_SERIES = groups.make_dihedral(3)
FUZZ_DOCS = {
    "code": {**json.loads(css.serialize_code(css.build_toric(2))),
             "family": "custom", "params": {}},
    "circuit": json.loads(synth.serialize_circuit(
        synth.synthesize(css.build_toric(2), "toric_comb"))),
    "group": {"order": 6, "table": _D3.table.tolist(),
              "series": [list(s) for s in _D3_SERIES.subgroups]},
}
FUZZ_ARGV = {
    "code": ["synth", "--code", "file:{path}", "--strategy", "greedy"],
    "circuit": ["verify", "--circuit", "{path}", "--code", "toric",
                "--size", "2", "--oracle"],
    "group": ["groups", "--group", "file:{path}", "--lengths", "2",
              "--trials", "5"],
}


@pytest.mark.parametrize("reader", sorted(FUZZ_DOCS))
def test_fuzz_base_documents_pass(tmp_path, reader):
    assert _fuzz_run(tmp_path, reader, FUZZ_DOCS[reader]) == 0


@pytest.mark.parametrize("reader", sorted(FUZZ_DOCS))
@settings(max_examples=200)
@given(data=strategies.data())
def test_fuzz_file_reader(tmp_path_factory, reader, data):
    doc = data.draw(one_mutation(FUZZ_DOCS[reader]))
    event(f"exit {_fuzz_run(tmp_path_factory.getbasetemp(), reader, doc)}")


# -- the reader contract -------------------------------------------------------

READERS = {"code": css.parse_code, "circuit": synth.parse_circuit,
           "group": groups.parse_group}
REQUIRED = {"code": ("version", "n_qubits", "x_stabs", "z_stabs"),
            "circuit": ("version", "n_qubits", "plus_qubits", "gates"),
            "group": ("order", "table", "series")}


def _changed(reader, field, index, value):
    """FUZZ_DOCS[reader] with entry ``index`` of list ``field`` replaced."""
    doc = copy.deepcopy(FUZZ_DOCS[reader])
    doc[field][index] = value
    return doc


CONTRACT_CASES = [
    *((reader, root, "the document must be a JSON object")
      for reader in sorted(READERS) for root in ([], 3, "x")),
    *((reader, {k: v for k, v in FUZZ_DOCS[reader].items() if k != field},
       f"missing field {field!r}")
      for reader in sorted(READERS) for field in REQUIRED[reader]),
    ("code", _changed("code", "x_stabs", 1, [0, True]),
     "x_stabs[1] must be a list of integers"),
    ("circuit", _changed("circuit", "gates", 2, [0, True]),
     "gates[2] must be a list of 2 integers"),
    ("circuit", _changed("circuit", "plus_qubits", 0, True),
     "plus_qubits must be a list of integers"),
    ("group", _changed("group", "table", 4, [True, 0, 1, 2, 3, 4]),
     "table[4] must be a list of 6 integers"),
    ("circuit", _changed("circuit", "gates", 1, [0, 1, 2]),
     "gates[1] must be a list of 2 integers"),
    ("group", _changed("group", "table", 3, [3, 4, 5, 0, 1]),
     "table[3] must be a list of 6 integers"),
]


@pytest.mark.parametrize("reader,doc,message", CONTRACT_CASES)
def test_reader_contract(tmp_path, capsys, reader, doc, message):
    # every reader rejects a malformed document with the same message,
    # which the CLI prints as the whole of stderr with exit 2
    text = json.dumps(doc)
    with pytest.raises(css.ParseError) as exc:
        READERS[reader](text)
    assert str(exc.value) == message
    path = tmp_path / f"{reader}.json"
    path.write_text(text)
    rc, stdout, err = run(capsys, *[a.format(path=path) for a in FUZZ_ARGV[reader]])
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("reader,field", [("code", "n_qubits"),
                                          ("circuit", "n_qubits"),
                                          ("group", "order")])
def test_integer_over_4300_digits_exits_2(tmp_path, capsys, reader, field):
    # json.loads refuses the integer with a plain ValueError that names a
    # Python setting; the reader calls the file invalid instead
    rest = {k: v for k, v in FUZZ_DOCS[reader].items() if k != field}
    path = tmp_path / f"{reader}.json"
    path.write_text(f'{{"{field}":{"7" * 5001},' + json.dumps(rest)[1:])
    rc, stdout, err = run(capsys, *[a.format(path=path) for a in FUZZ_ARGV[reader]])
    assert (rc, stdout) == (2, "") and "set_int_max_str_digits" not in err
    assert err == "error: invalid JSON: integer too long to read\n"


def test_only_css_reads_and_writes_json():
    # one JSON layer: a new reader or writer goes through css.load_json,
    # css.index_lists and css.dump_json
    sources = Path(css.__file__).parent.glob("*.py")
    users = sorted(p.name for p in sources
                   if re.search(r"json\.(loads|dumps)\b", p.read_text()))
    assert users == ["css.py"]
