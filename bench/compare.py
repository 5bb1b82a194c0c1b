#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py RESULTS_A RESULTS_B [--json rows.json]

Each argument is a result file or a directory of them (``bench/results`` by
default is where ``run.py`` writes); A is the reference (the parent commit,
or a first set of runs), B the change.  Only untraced runs are read.  For
every workload and end-to-end metric it prints both medians and quartiles,
how many seed-matched pairs B wins, and a verdict:

- ``better``: B wins at least nine tenths of at least ten pairs (ties count
  for neither) and the medians differ by more than A's quartile distance;
- ``unresolved``: the run-to-run spread (quartile distance over median, on
  either side) is wider than the metric's bound, unless every B run reads
  better, or every B run reads worse, than every A run;
- ``worse``: B's median is worse than A's by more than the bound;
- ``unchanged``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  ``failed_ratio`` has no
bound: any rise is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if "stamp" in r and r.get("trace") == 0]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs, metric):
    """Values paired by seed where both sides ran it, else in run order."""
    a_by = {r["stamp"]["seed"]: r for r in a_runs}
    b_by = {r["stamp"]["seed"]: r for r in b_runs}
    common = sorted(set(a_by) & set(b_by))
    if common:
        return [(value(a_by[s], metric), value(b_by[s], metric)) for s in common]
    return [(value(x, metric), value(y, metric)) for x, y in zip(a_runs, b_runs)]


def value(run: dict, metric: str) -> float:
    return run["failed_ratio"] if metric == "failed_ratio" else run["metrics"][metric]


def verdict(a, b, paired, bound, lower_better) -> tuple[str, int]:
    sign = 1 if lower_better else -1
    wins = sum(sign * (y - x) < 0 for x, y in paired)
    if bound is None:   # failed_ratio: exact
        diff = sign * (statistics.median(b) - statistics.median(a))
        return ("worse" if diff > 0 else "better" if diff < 0 else "unchanged"), wins
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    worse_by = sign * (mb - ma) / ma
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if (len(paired) >= MIN_PAIRS and wins >= 0.9 * len(paired)
            and worse_by < 0 and abs(mb - ma) > qa[2] - qa[0]):
        return "better", wins
    if spread > bound and not (all_better or all_worse):
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "unchanged", wins


def compare(a_runs, b_runs, spec) -> list[dict]:
    metrics = [(m["name"], m["unit"], m["bound"], m["better"] == "lower")
               for m in spec["end_to_end"]] + [("failed_ratio", "ratio", None, True)]
    rows = []
    for workload in sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs}):
        wa = [r for r in a_runs if r["workload"] == workload]
        wb = [r for r in b_runs if r["workload"] == workload]
        for name, unit, bound, lower in metrics:
            a = [value(r, name) for r in wa]
            b = [value(r, name) for r in wb]
            paired = pairs(wa, wb, name)
            v, wins = verdict(a, b, paired, bound, lower)
            qa, qb = quartiles(a), quartiles(b)
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "bound": bound, "a_n": len(a), "b_n": len(b),
                         "a_q1": qa[0], "a_median": qa[1], "a_q3": qa[2],
                         "b_q1": qb[0], "b_median": qb[1], "b_q3": qb[2],
                         "pairs": len(paired), "b_wins": wins, "verdict": v})
    return rows


def print_rows(rows) -> None:
    head = (f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':>30} "
            f"{'B median [q1, q3]':>30} {'change':>8} {'wins':>6} {'bound':>6}  verdict")
    print(head)
    for r in rows:
        change = ((r["b_median"] - r["a_median"]) / r["a_median"] * 100
                  if r["a_median"] else 0.0)
        bound = f"{r['bound'] * 100:.0f}%" if r["bound"] is not None else "-"
        a = f"{r['a_median']:.4g} [{r['a_q1']:.4g}, {r['a_q3']:.4g}]"
        b = f"{r['b_median']:.4g} [{r['b_q1']:.4g}, {r['b_q3']:.4g}]"
        print(f"{r['workload']:<14} {r['metric']:<14} {a:>30} {b:>30} "
              f"{change:+7.2f}% {r['b_wins']:>2}/{r['pairs']:<3} {bound:>6}  {r['verdict']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", type=Path, help="reference result file or directory")
    p.add_argument("b", type=Path, help="result file or directory to compare")
    p.add_argument("--json", type=Path, default=None, help="also write the rows here")
    p.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    a_runs, b_runs = load(args.a), load(args.b)
    if not a_runs or not b_runs:
        print("compare: no untraced result files on one side", file=sys.stderr)
        return 2
    rows = compare(a_runs, b_runs, json.loads(args.spec.read_text()))
    print_rows(rows)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
