#!/usr/bin/env python3
"""fdsc benchmark: drives the real CLI in-process and checks every output.

    python3 bench/run.py --workload toric-scaling --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20          # every workload
    python3 bench/run.py --workload groups --trace 1          # per-layer run
    python3 bench/run.py --workload groups --smoke --seconds 1

Run from the repository root; ``fdsc`` is imported from ``src/``.  Set-up
(interpreter start, the ``fdsc`` import, input generation) runs in a fresh
child process five times (once with ``--smoke``) and its median is
``setup_s``.  The workload then runs in this process, one thread, in passes
over its commands in a fixed order, until ``--seconds`` would be exceeded
(always at least one pass).  The seed draws the ``verify-sweep`` mutants.  Timings are medians over passes.  With ``--trace 1`` each
untraced pass is followed by a traced one and per-layer metrics are printed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full result file, with an environment
stamp, goes to ``bench/results/``.  Exit status: 0 when every output was
correct, 1 when one was not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: numpy's BLAS reads these when it is first imported, below.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy  # noqa: E402

from checks import check, invoke, mutant_expectation, sha256  # noqa: E402
from tracer import COUNTS, LAYERS, MAX_COUNTS, TIMES, Tracer  # noqa: E402
from workloads import workloads, write_mutants  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "largest_job_s": "s",
              "peak_rss_mb": "MB"}
# A traced command fails when its layer self times plus its counting time
# miss its measured wall time by more than this (seconds, plus a share of
# the wall time for collector pauses outside every span).
CLOSURE_ABS_S, CLOSURE_REL = 0.01, 0.002


class BenchError(Exception):
    """The benchmark cannot run here (no program, no expectations, ...)."""


def import_cli():
    """``fdsc.cli`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from fdsc import cli
    except ImportError as e:
        raise BenchError(f"cannot import fdsc from {src}: {e}") from e
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"fdsc imported from {cli.__file__}, not {src}")
    return cli


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--expected", type=Path, default=None,
                   help="directory of pinned outputs (default bench/expected)")
    p.add_argument("--results", type=Path, default=HERE / "results")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def work_dir(args) -> Path:
    return HERE / "work" / (("smoke-" if args.smoke else "") + args.workload)


# -- set-up -------------------------------------------------------------------


def prepare(wl, work: Path, seed: int, cli) -> None:
    """Write the workload's inputs into a fresh ``work`` directory."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for cmd in wl.setup:
        outcome = invoke(cli.main, cmd.resolve(work))
        if outcome.exit != 0 or outcome.error:
            raise BenchError(f"set-up command {cmd.id} failed: "
                             f"{outcome.error or outcome.stderr.strip()}")
    for base in wl.mutant_bases:
        write_mutants(work, base, seed)


def setup_inputs(args) -> None:
    """Child process: import fdsc and write the workload's inputs."""
    cli = import_cli()
    prepare(workloads(args.smoke)[args.workload], work_dir(args), args.seed, cli)


def timed_setups(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else 5):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up failed: " + proc.stderr.strip()[-2000:])
    return times


# -- environment stamp ---------------------------------------------------------


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(args, load_start, load_end) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"commit": git_commit(ROOT), "source_sha256": source_digest(ROOT),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": nproc,
            "loadavg_start": load_start, "loadavg_end": load_end,
            "overloaded": max(load_start[0], load_end[0]) > nproc,
            "seed": args.seed, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# -- passes --------------------------------------------------------------------


class Runner:
    def __init__(self, args, cli, wl, expected):
        self.args, self.cli, self.wl = args, cli, wl
        self.work = work_dir(args)
        try:
            self.expected = json.loads((expected / f"{wl.name}.json").read_text())
        except (OSError, ValueError) as e:
            raise BenchError(f"no pinned outputs for {wl.name}: {e}") from e
        self.mutant_expected: dict = {}
        self.records: list[dict] = []

    def _main(self, argv):
        return self.cli.main(argv)   # looked up per call, so tracing can rebind it

    def expectation(self, cmd) -> dict | None:
        if cmd.mutant is None:
            return self.expected["commands"].get(cmd.id)
        if cmd.id not in self.mutant_expected:
            code = self.cli.css.build_family(cmd.option("--code"),
                                             int(cmd.option("--size")))
            doc = json.loads((self.work / cmd.mutant).read_text())
            self.mutant_expected[cmd.id] = mutant_expectation(code, doc)
        return self.mutant_expected[cmd.id]

    def check_setup(self) -> None:
        for name, digest in self.expected.get("setup_files", {}).items():
            path = self.work / name
            reason = None
            if not path.is_file():
                reason = "not written"
            elif sha256(path) != digest:
                reason = "differs from the pinned SHA-256"
            self.records.append({"pass": None, "traced": False, "id": f"setup:{name}",
                                 "ok": reason is None, "reason": reason})

    def run_pass(self, index: int, tracer=None) -> list[dict]:
        records = []
        for cmd in self.wl.commands:
            if cmd.out:
                (self.work / cmd.out).unlink(missing_ok=True)
            gc.collect()
            if tracer is None:
                outcome = invoke(self._main, cmd.resolve(self.work))
            else:
                with tracer.command(f"{index}/{cmd.id}"):
                    outcome = invoke(self._main, cmd.resolve(self.work))
            reason = check(outcome, self.expectation(cmd), self.work)
            rec = {"pass": index, "traced": tracer is not None, "id": cmd.id,
                   "wall_s": outcome.wall_s, "cpu_s": outcome.cpu_s,
                   "exit": outcome.exit, "ok": reason is None, "reason": reason}
            if tracer is not None:
                rec["trace"] = tracer.command_summary(f"{index}/{cmd.id}")
                unclosed = close_trace(outcome.wall_s, rec["trace"])
                reason = reason or unclosed
                rec["ok"], rec["reason"] = reason is None, reason
            if cmd.out:
                (self.work / cmd.out).unlink(missing_ok=True)
            records.append(rec)
        self.records.extend(records)
        return records


def close_trace(wall_s: float, trace: dict) -> str | None:
    """Add to ``trace`` the time outside ``cli.main``'s span (counting, the
    call into it) and the time in no layer and not counting; return why the
    command fails if the latter is more than the tolerance, else None."""
    trace["outside_root_s"] = wall_s - trace["root_s"]
    trace["unattributed_s"] = wall_s - trace["counting_s"] - sum(trace["layers"].values())
    if abs(trace["unattributed_s"]) <= CLOSURE_ABS_S + CLOSURE_REL * wall_s:
        return None
    return (f"layer self times plus counting miss the traced wall "
            f"by {trace['unattributed_s']:.4f} s")


def pass_totals(records) -> dict:
    return {"wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records)}


def repeat(seconds: float, body) -> int:
    """Call ``body(i)`` until another call would pass ``seconds``; at least once."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        body(i)
        i += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return i


def end_to_end(runner, passes, setup_times) -> dict:
    largest = [next(r["wall_s"] for r in recs if r["id"] == runner.wl.largest)
               for recs in passes]
    return {"setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_totals(p)["wall_s"] for p in passes),
            "cpu_s": statistics.median(pass_totals(p)["cpu_s"] for p in passes),
            "largest_job_s": statistics.median(largest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes; counts from the last)
    and the largest time of a traced command that no layer accounts for."""

    def pass_sum(recs, field, key):
        return sum(r["trace"][field].get(key, 0.0) for r in recs)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            pass_sum(p, "layers", layer) for p in traced)
    for name in TIMES:
        if name != "cli.self_s":
            metrics[name] = statistics.median(pass_sum(p, "times", name) for p in traced)
    for name in COUNTS:
        values = [r["trace"]["counts"].get(name, 0) for r in traced[-1]]
        metrics[name] = max(values) if name in MAX_COUNTS else sum(values)
    traced_wall = statistics.median(pass_totals(p)["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        pass_totals(p)["wall_s"] for p in untraced)
    for name in ("counting_s", "outside_root_s"):
        metrics[f"trace.{name}"] = statistics.median(
            sum(r["trace"][name] for r in p) for p in traced)
    gaps = [abs(r["trace"]["unattributed_s"]) for p in traced for r in p]
    missing = sorted({m for p in traced for r in p for m in r["trace"]["missing"]})
    return metrics, {"max_unattributed_s": max(gaps), "missing_targets": missing}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def print_layers(metrics: dict, closure: dict, records) -> None:
    print("layer     self_s")
    for layer in LAYERS:
        print(f"{layer:<9} {metrics[layer + '.self_s']:.4f}")
    print("metric                       value")
    for name, value in metrics.items():
        if not name.endswith(".self_s"):
            print(f"{name:<28} {value:.6g} {unit_of(name)}")
    print(f"largest |command wall - counting - sum of self times| = "
          f"{closure['max_unattributed_s']:.3g} s")
    if closure["missing_targets"]:
        print("not found, so not traced: " + ", ".join(closure["missing_targets"]))
    traced = [r for r in records if r.get("traced")]
    last = max(r["pass"] for r in traced)
    print("command                                 wall_s  " + "  ".join(LAYERS)
          + "  counting")
    for r in traced:
        if r["pass"] == last:
            layers = "  ".join(f"{r['trace']['layers'][k]:.3f}" for k in LAYERS)
            print(f"{r['id']:<38} {r['wall_s']:7.3f}  {layers}  "
                  f"{r['trace']['counting_s']:.3f}")


def run_workload(args) -> int:
    wls = workloads(args.smoke)
    if args.workload not in wls:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wls)} or all")
    wl = wls[args.workload]
    load_start = list(os.getloadavg())
    setup_times = timed_setups(args)
    cli = import_cli()
    expected = args.expected or HERE / "expected" / ("smoke" if args.smoke else "")
    runner = Runner(args, cli, wl, expected)
    runner.check_setup()

    untraced, traced = [], []
    if args.trace:
        tracer = Tracer()

        def pair(i):
            untraced.append(runner.run_pass(2 * i))
            traced.append(runner.run_pass(2 * i + 1, tracer))

        repeat(args.seconds, pair)
    else:
        repeat(args.seconds, lambda i: untraced.append(runner.run_pass(i)))

    e2e = end_to_end(runner, untraced, setup_times)
    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    closure = None
    if args.trace:
        metrics, closure = per_layer(untraced, traced)
    else:
        metrics = e2e
    correct = failed == 0

    stem = (f"{wl.name}{'-smoke' if args.smoke else ''}_seed{args.seed}_"
            f"trace{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    args.results.mkdir(parents=True, exist_ok=True)
    result = {"workload": wl.name, "smoke": args.smoke, "trace": args.trace,
              "seconds": args.seconds,
              "stamp": stamp(args, load_start, list(os.getloadavg())),
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "end_to_end": e2e,
              "metrics": metrics, "setup_times_s": setup_times,
              "passes": len(untraced), "closure": closure,
              "records": runner.records}
    (args.results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        with open(args.results / f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans + tracer.aggregates:
                f.write(json.dumps(span) + "\n")

    for r in runner.records:
        if not r["ok"]:
            print(f"FAILED {r['id']} (pass {r['pass']}): {r['reason']}", file=sys.stderr)
    print(f"workload {wl.name}: {len(untraced)} pass(es), seed {args.seed}, "
          f"failed {failed}/{attempted} (failed_ratio {failed / attempted:.3g})")
    if args.trace:
        print_layers(metrics, closure, runner.records)
    else:
        for name, value in metrics.items():
            print(f"{name:<14} {value:.6g} {unit_of(name)}")
    print(f"result file: {args.results / stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to it alone."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads(args.smoke):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--results", str(args.results)]
        if args.smoke:
            argv.append("--smoke")
        if args.expected:
            argv += ["--expected", str(args.expected)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} did not run:\n{proc.stdout}")
        print(f"== {name}\n" + "\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            setup_inputs(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
