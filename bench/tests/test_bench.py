"""Tests of the benchmark itself, on the smoke sizes.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

# Layers each workload must reach, as per-layer metrics that must read > 0.
REACHED = {
    "toric-scaling": ("css.validate_s", "synth.reconstruct_s", "synth.emit_s",
                      "synth.serialize_s", "synth.gates", "synth.m_nnz",
                      "synth.max_fanout", "css.matrix_bytes"),
    "fracton-synth": ("gf2.elim_s", "gf2.mul_s", "gf2.elim_calls",
                      "gf2.elim_words", "synth.emit_s"),
    "verify-sweep": ("verify.propagate_s", "verify.membership_s", "verify.oracle_s",
                     "synth.parse_s", "verify.generators_checked",
                     "verify.generators_failed"),
    "groups": ("groups.build_s", "groups.plan_s", "groups.eval_s", "groups.fold_s",
               "groups.sequences", "groups.nodes", "groups.table_cells"),
}


def bench(tmp_path, *extra, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--smoke", "--seconds", "1",
            "--results", str(tmp_path / "results"), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def result_file(tmp_path) -> dict:
    (path,) = (tmp_path / "results").glob("*_trace*[0-9].json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path, workload):
    proc, out = bench(tmp_path, "--workload", workload, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    stamp = result_file(tmp_path)["stamp"]
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1
    assert set(stamp["threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(tmp_path, workload):
    proc, out = bench(tmp_path, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name in REACHED[workload]:
        assert out["metrics"][name]["value"] > 0, name
    result = result_file(tmp_path)
    assert result["closure"]["missing_targets"] == []
    for rec in result["records"]:
        if rec.get("traced"):
            trace = rec["trace"]
            layers = sum(trace["layers"].values())
            assert layers + trace["counting_s"] == pytest.approx(rec["wall_s"], abs=0.01)
            assert trace["outside_root_s"] >= trace["counting_s"] >= 0
    spans = (tmp_path / "results").glob("*.spans.jsonl")
    assert any(path.read_text() for path in spans)


def test_unattributed_time_is_a_failure():
    import run

    trace = {"root_s": 1.0, "counting_s": 0.25,
             "layers": {"cli": 0.5, "synth": 0.5, "gf2": 0.0}}
    assert run.close_trace(1.2505, dict(trace)) is None
    closed = dict(trace)
    assert "miss the traced wall" in run.close_trace(1.75, closed)
    assert closed["unattributed_s"] == pytest.approx(0.5)
    assert closed["outside_root_s"] == pytest.approx(0.75)


def test_corrupted_digest_is_a_failure(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(BENCH / "expected" / "smoke", expected)
    path = expected / "toric-scaling.json"
    doc = json.loads(path.read_text())
    entry = doc["commands"]["synth-toric-8-toric_comb"]
    (name,) = entry["files"]
    entry["files"][name] = "0" * 64
    path.write_text(json.dumps(doc))
    proc, out = bench(tmp_path, "--workload", "toric-scaling",
                      "--expected", str(expected))
    assert proc.returncode == 1
    assert out["correct"] is False and out["failed"] >= 1
    assert result_file(tmp_path)["failed_ratio"] > 0


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, out = bench(tmp_path, "--workload", WORKLOADS[0], cwd=bare)
    assert proc.returncode not in (0, 1)
    assert out is None


def test_mutants_differ_by_one_gate(tmp_path):
    gates = [[0, 3], [0, 4], [1, 4], [2, 5]]
    doc = {"version": 1, "n_qubits": 6, "plus_qubits": [0, 1, 2], "gates": gates,
           "metadata": {}}
    (tmp_path / "base.json").write_text(json.dumps(doc))
    first = workloads.write_mutants(tmp_path, "base.json", seed=7)
    texts = [(tmp_path / n).read_text() for n in first]
    assert workloads.write_mutants(tmp_path, "base.json", seed=7) == first
    assert [(tmp_path / n).read_text() for n in first] == texts
    base = {tuple(g) for g in gates}
    for text in texts:
        mutated = {tuple(g) for g in json.loads(text)["gates"]}
        assert len(base ^ mutated) == 1
        assert all(c in (0, 1, 2) and t in (3, 4, 5) for c, t in mutated)


def test_verdicts():
    a = [10.0 + 0.01 * i for i in range(10)]
    pairs = lambda b: list(zip(a, b))  # noqa: E731
    same = list(a)
    assert compare.verdict(a, same, pairs(same), 0.1, True)[0] == "unchanged"
    fast = [x * 0.5 for x in a]
    assert compare.verdict(a, fast, pairs(fast), 0.1, True) == ("better", 10)
    slow = [x * 1.5 for x in a]
    assert compare.verdict(a, slow, pairs(slow), 0.1, True)[0] == "worse"
    wild = [5.0, 15.0] * 5
    assert compare.verdict(a, wild, pairs(wild), 0.1, True)[0] == "unresolved"
    assert compare.verdict([0.0], [0.1], [(0.0, 0.1)], None, True)[0] == "worse"


def test_compare_reads_result_files(tmp_path):
    for side in ("a", "b"):
        proc, _ = bench(tmp_path / side, "--workload", "groups")
        assert proc.returncode == 0, proc.stderr
    argv = [sys.executable, "bench/compare.py", str(tmp_path / "a" / "results"),
            str(tmp_path / "b" / "results"), "--json", str(tmp_path / "rows.json")]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "rows.json").read_text())
    assert {r["metric"] for r in rows} == (
        {m["name"] for m in SPEC["end_to_end"]} | {"failed_ratio"})
    assert all(r["workload"] == "groups" for r in rows)
