"""Running one CLI command in-process and checking what it produced.

Expected outputs are pinned per workload in ``expected/<workload>.json``
(``expected/smoke/`` for the smoke sizes): exit code, exact stdout and
stderr, and the SHA-256 of every file a command writes.  Mutant verdicts
depend on the seed, so they are derived here instead, from the rule that
the circuit's output is a CSS state (see :func:`css_state_failures`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Outcome:
    exit: int | None
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    error: str | None = None   # exception the command raised, if any


def invoke(main, argv: list[str]) -> Outcome:
    """Run ``main(argv)`` with stdout and stderr captured; time it."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed command, not a crash
            error = f"{type(e).__name__}: {e}"
        t1, c1 = time.perf_counter(), time.process_time()
    return Outcome(code, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0, error)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def css_state_failures(code, circuit: dict) -> tuple[list[int], list[int]]:
    """Generators of ``code`` that the circuit's output state does not fix.

    |+> on S, |0> elsewhere, then CX gates with controls in S, prepares the
    CSS state whose X group is the column span of M_c (identity on the S
    rows plus one bit per gate) and whose Z group is its orthogonal
    complement, all signs +1.  So X generator a holds iff a == M_c a|_S and
    Z generator b holds iff b is orthogonal to every column of M_c.
    """
    n, plus = circuit["n_qubits"], circuit["plus_qubits"]
    col = {q: i for i, q in enumerate(plus)}
    mc = np.zeros((n, len(plus)))
    mc[plus, np.arange(len(plus))] = 1
    for c, t in circuit["gates"]:
        mc[t, col[c]] = 1 - mc[t, col[c]]
    x = code.x_stabs.to_dense().astype(float)
    z = code.z_stabs.to_dense().astype(float)
    bad_x = ((mc @ x[plus]) % 2 != x).any(axis=0)
    bad_z = ((z.T @ mc) % 2 != 0).any(axis=1)
    return np.flatnonzero(bad_x).tolist(), np.flatnonzero(bad_z).tolist()


def mutant_expectation(code, circuit: dict) -> dict:
    failed_x, failed_z = css_state_failures(code, circuit)
    report = {"failed_x": failed_x, "failed_z": failed_z,
              "n_checked": code.n_x + code.n_z,
              "pass": not failed_x and not failed_z}
    return {"exit": 0 if report["pass"] else 1,
            "stdout": json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n",
            "stderr": "", "files": {}}


def check(outcome: Outcome, expected: dict | None, work: Path) -> str | None:
    """None if the command did what was pinned, else the first difference."""
    if expected is None:
        return "no pinned output for this command"
    if outcome.error:
        return f"raised {outcome.error}"
    if outcome.exit != expected["exit"]:
        return f"exit {outcome.exit} != {expected['exit']}"
    if outcome.stdout != expected["stdout"]:
        return f"stdout {outcome.stdout[:200]!r} != {expected['stdout'][:200]!r}"
    if outcome.stderr != expected["stderr"]:
        return f"stderr {outcome.stderr[:200]!r} != {expected['stderr'][:200]!r}"
    for name, digest in expected["files"].items():
        path = work / name
        if not path.is_file():
            return f"{name} not written"
        if sha256(path) != digest:
            return f"{name} differs from the pinned SHA-256"
    return None
