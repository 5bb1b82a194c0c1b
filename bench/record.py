#!/usr/bin/env python3
"""Pin the expected outputs of every workload command.

    python3 bench/record.py            # writes bench/expected/<workload>.json
    python3 bench/record.py --smoke    # writes bench/expected/smoke/<workload>.json

Run once on the commit whose outputs are the reference.  Each command runs
once; its exit code, stdout, stderr and the SHA-256 of the files it writes
are pinned.  Before anything is written, every ``verify`` verdict is checked
against the CSS-state rule, against the state-vector oracle wherever the
code has at most 20 qubits, and seeded mutants are checked to be rejected
with exactly the generators the rule predicts.  A disagreement aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from checks import css_state_failures, invoke, mutant_expectation, sha256
from workloads import workloads

MUTANT_SEEDS = range(5)


def _code_of(cli, cmd):
    return cli.css.build_family(cmd.option("--code"), int(cmd.option("--size")))


def _cross_check(cli, cmd, work: Path, outcome) -> None:
    text = (work / Path(cmd.option("--circuit")).name).read_text()
    code = _code_of(cli, cmd)
    report = json.loads(outcome.stdout)
    if css_state_failures(code, json.loads(text)) != (report["failed_x"],
                                                      report["failed_z"]):
        raise run.BenchError(f"{cmd.id}: verdict disagrees with the CSS-state rule")
    if code.n_qubits <= 20:
        circ = cli.synth.parse_circuit(text)
        if cli.verify.statevector_check(code, circ) != report["pass"]:
            raise run.BenchError(f"{cmd.id}: verdict disagrees with the state vector")


def record(wl, cli, work: Path) -> dict:
    run.prepare(wl, work, 0, cli)
    pinned = {"workload": wl.name, "commit": run.git_commit(run.ROOT),
              "source_sha256": run.source_digest(run.ROOT),
              "setup_files": {c.out: sha256(work / c.out) for c in wl.setup},
              "commands": {}}
    for cmd in wl.commands:
        if cmd.mutant:
            continue
        outcome = invoke(cli.main, cmd.resolve(work))
        if outcome.error or outcome.exit != 0:
            raise run.BenchError(f"{cmd.id} failed: {outcome.error or outcome.stderr}")
        if cmd.argv[0] == "verify":
            _cross_check(cli, cmd, work, outcome)
        pinned["commands"][cmd.id] = {
            "exit": outcome.exit, "stdout": outcome.stdout, "stderr": outcome.stderr,
            "files": {cmd.out: sha256(work / cmd.out)} if cmd.out else {}}
    for seed in MUTANT_SEEDS if wl.mutant_bases else ():
        run.prepare(wl, work, seed, cli)
        for cmd in wl.commands:
            if not cmd.mutant:
                continue
            want = mutant_expectation(_code_of(cli, cmd),
                                      json.loads((work / cmd.mutant).read_text()))
            outcome = invoke(cli.main, cmd.resolve(work))
            got = {"exit": outcome.exit, "stdout": outcome.stdout,
                   "stderr": outcome.stderr, "files": {}}
            if want["exit"] != 1 or got != want:
                raise run.BenchError(f"{cmd.id} seed {seed}: {got} != {want}")
    return pinned


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    cli = run.import_cli()
    out_dir = run.HERE / "expected" / ("smoke" if args.smoke else "")
    out_dir.mkdir(parents=True, exist_ok=True)
    for wl in workloads(args.smoke).values():
        work = run.HERE / "work" / f"record-{wl.name}"
        try:
            pinned = record(wl, cli, work)
        except run.BenchError as e:
            print(f"record: {e}", file=sys.stderr)
            return 1
        (out_dir / f"{wl.name}.json").write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"pinned {len(pinned['commands'])} commands of {wl.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
