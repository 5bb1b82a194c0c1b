"""Command-line pipeline: synthesize, verify, scaling studies, group networks.

Exit codes: 0 success / verification pass, 1 a command's own failed check,
2 usage, file-format, I/O or too-large input, 3 incompatible strategy.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import css, groups, synth, verify


def integer(text: str) -> int:
    """ASCII digits after an optional minus sign (``int`` also reads '1_6')."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _positives(text: str, flag: str) -> list[int]:
    try:
        values = [integer(x) for x in text.split(",")]
    except ValueError:
        values = [0]                     # reported as not positive below
    if min(values) < 1:
        raise ValueError(f"{flag} must list positive integers, got {text!r}")
    return values


def _load_code(spec: str, size: int | None) -> css.CssCode:
    if spec.startswith("file:"):
        return css.parse_code(Path(spec[5:]).read_bytes())
    if spec not in css.SHAPES:
        raise css.ParseError(f"unknown code {spec!r}")
    if size is None:
        raise css.ParseError("--size is required for built-in families")
    return css.build_family(spec, size)


def cmd_synth(args) -> int:
    if args.restarts < 1:
        raise css.InvalidSize(f"--restarts must be positive, got {args.restarts}")
    code = _load_code(args.code, args.size)
    circ = synth.synthesize(code, args.strategy, seed=args.seed,
                            restarts=args.restarts)
    if args.out:
        data = synth.serialize_circuit(circ)
        with open(args.out, "wb") as f:   # no copy of the bytes with "\n" added
            f.write(data)
            f.write(b"\n")
    print(css.dump_json({"gate_count": len(circ.pairs),
                         "s_size": len(circ.plus_qubits),
                         "n_qubits": circ.n_qubits}))
    return 0


def cmd_verify(args) -> int:
    code = _load_code(args.code, args.size)
    circ = synth.parse_circuit(Path(args.circuit).read_bytes())
    report = verify.verify_circuit(code, circ)
    oracle_ok = not args.oracle or verify.statevector_check(code, circ)
    print(report.to_json())
    if not oracle_ok:
        print("error: state-vector oracle mismatch", file=sys.stderr)
    return 0 if report.passed and oracle_ok else 1


def fit_loglog(sizes, counts) -> dict:
    """Ordinary least squares of log(count) on log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sst if sst else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r2}


def _scaling_run(args, L: int):
    """One size's (family, n_qubits, s_size, gate_count, wall_ms) and its
    verify report (None above ``--verify-upto``).  The code and circuit
    die on return, so a study holds one size's at a time."""
    code = _load_code(args.code, L)
    t0 = time.perf_counter()   # wall_ms: synthesis and verification
    circ = synth.synthesize(code, args.strategy, seed=args.seed)
    report = verify.verify_circuit(code, circ) if L <= args.verify_upto else None
    return ((code.family, code.n_qubits, len(circ.plus_qubits), len(circ.pairs),
             (time.perf_counter() - t0) * 1000.0), report)


def cmd_scaling(args) -> int:
    # ascending, so a size below the family minimum fails before synthesis;
    # one run per distinct code, and a file code ignores L: one key for all
    runs, rows, failures = {}, [], 0
    for L in sorted(_positives(args.sizes, "--sizes")):
        key = None if args.code.startswith("file:") else L
        if key not in runs:
            runs[key] = _scaling_run(args, L)
        (family, *fields), report = runs[key]
        if L <= args.verify_upto and not report.passed:  # per-size failure
            print(f"size {L} failed: verification failed: "
                  f"{report.to_json()}", file=sys.stderr)
            failures += 1
            continue
        rows.append((family, args.strategy, L, *fields))
    text = "family,strategy,L,n_qubits,s_size,gate_count,wall_ms\n" + "".join(
        f"{','.join(map(str, r[:-1]))},{r[-1]:.3f}\n" for r in rows)
    if args.out:
        Path(args.out).write_bytes(text.encode())
    else:
        sys.stdout.write(text)
    result = {"rows": len(rows), "failures": failures}
    if len({r[3] for r in rows}) >= 3:   # a line through 3+ codes
        result["fit"] = fit_loglog([r[2] for r in rows], [r[5] for r in rows])
    print(css.dump_json(result))
    return 0 if not failures else 1


def _load_group(spec: str):
    if spec.startswith("dihedral:"):
        return groups.make_dihedral(integer(spec[9:]))
    if spec.startswith("abelian:"):
        return groups.make_abelian([integer(x) for x in spec[8:].split(",")])
    if spec.startswith("file:"):
        return groups.parse_group(Path(spec[5:]).read_bytes())
    raise groups.ParseError(f"unknown group spec {spec!r}")


def cmd_groups(args) -> int:
    series = _load_group(args.group)
    lengths = _positives(args.lengths, "--lengths")
    if args.trials < 1:
        raise groups.InvalidSize(f"--trials must be positive, got {args.trials}")
    rows = groups.depth_report(series, lengths)   # before any output
    print("n,depth,ancillas")
    for row in rows:
        print(f"{row['n']},{row['depth']},{row['ancillas']}")
    all_ok = True
    for n in lengths:
        ok = (groups.exhaustive_check(series, n) if series.group.order ** n <= 100_000
              else groups.random_check(series, n, args.trials, seed=0))
        if not ok:
            print(f"mismatch against table fold at n={n}", file=sys.stderr)
            all_ok = False
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fdsc",
                                description="One-layer commuting-CX circuit "
                                            "synthesis for CSS codes")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a preparation circuit")
    ps.add_argument("--code", required=True,
                    help="|".join((*css.SHAPES, "file:PATH")))
    ps.add_argument("--size", type=integer, default=None)
    ps.add_argument("--strategy", required=True)
    ps.add_argument("--seed", type=integer, default=None)
    ps.add_argument("--restarts", type=integer, default=1)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_synth)

    pv = sub.add_parser("verify", help="verify a circuit against a code")
    pv.add_argument("--circuit", required=True)
    pv.add_argument("--code", required=True)
    pv.add_argument("--size", type=integer, default=None)
    pv.add_argument("--oracle", action="store_true",
                    help="also run the state-vector oracle (<= 20 qubits)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("scaling", help="gate-count scaling study")
    pc.add_argument("--code", required=True)
    pc.add_argument("--strategy", required=True)
    pc.add_argument("--sizes", required=True)
    pc.add_argument("--seed", type=integer, default=None)
    pc.add_argument("--verify-upto", type=integer, default=0, dest="verify_upto")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_scaling)

    pg = sub.add_parser("groups", help="solvable-group multiplication networks")
    pg.add_argument("--group", required=True,
                    help="dihedral:N|abelian:a,b,...|file:PATH")
    pg.add_argument("--lengths", required=True)
    pg.add_argument("--trials", type=integer, default=100)
    pg.set_defaults(func=cmd_groups)
    return p


def main(argv=None) -> int:
    """Run one command.  This is the one place that maps errors to exit
    codes; any other exception is a bug and propagates with its traceback
    (``synth.InternalInvariantViolation`` is an ``AssertionError``)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except synth.IncompatibleStrategy as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MemoryError, OverflowError) as e:
        print(f"error: input too large to hold in memory: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
