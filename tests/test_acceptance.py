"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible under -s / -rA)
and then asserts.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from conftest import random_css_code, reverse_pivot_right_inverse
from fdsc import css, gf2, groups, synth, verify
from fdsc.cli import fit_loglog
from fdsc.synth import FdscCircuit


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


class budget:
    """Asserts the criterion's stated wall-clock budget on exit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s over the {self.seconds:.0f}s budget")
        return False


@functools.lru_cache(maxsize=None)
def circuit_for(family: str, L: int, strategy: str) -> FdscCircuit:
    return synth.synthesize(css.build_family(family, L), strategy)


@functools.lru_cache(maxsize=None)
def gates_for(family: str, L: int, strategy: str) -> int:
    return len(circuit_for(family, L, strategy).pairs)


def test_criterion_1_ghz_exactness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in range(2, 11):
        code = css.build_ghz(n)
        circ = synth.synthesize(code, "greedy")
        counts_ok = len(circ.pairs) == n - 1
        # exactly two equal-amplitude terms: |0...0> and |1...1>
        vec = verify.circuit_statevector(circ)
        state_ok = (np.count_nonzero(vec) == 2
                    and vec[0] == vec[(1 << n) - 1] > 0)
        if not (counts_ok and state_ok):
            ok = False
            details.append(f"n={n} gates={len(circ.pairs)} state_ok={state_ok}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, ("N=2..10 exact gates and state" if ok else "; ".join(details))
           + f"; {elapsed:.2f}s of 1s")
    assert ok


def test_criterion_2_toric_correctness():
    t0 = time.perf_counter()
    ok = True
    details = []
    cases = [(L, s) for L in (2, 3, 4) for s in ("greedy", "toric_comb")]
    cases += [(2, "toric_recursive"), (4, "toric_recursive")]
    for L, strategy in cases:
        code = css.build_toric(L)
        circ = synth.synthesize(code, strategy)
        rep = verify.verify_circuit(code, circ)
        if not (rep.passed and rep.n_checked == 2 * L * L):
            ok = False
            details.append(f"L={L} {strategy}: {rep.to_json()}")
    for strategy in ("greedy", "toric_comb", "toric_recursive"):
        code = css.build_toric(2)
        if not verify.statevector_check(code, synth.synthesize(code, strategy)):
            ok = False
            details.append(f"L=2 {strategy}: state-vector mismatch")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(2, ok, ("all stabilizers + L=2 state vector" if ok
                   else "; ".join(details)) + f"; {elapsed:.2f}s of 10s")
    assert ok


TORIC_FIT_SIZES = (8, 16, 32, 64, 128)


def test_criterion_3_toric_scaling():
    t0 = time.perf_counter()
    comb = [gates_for("toric", L, "toric_comb") for L in TORIC_FIT_SIZES]
    rec = [gates_for("toric", L, "toric_recursive") for L in TORIC_FIT_SIZES]
    fit_comb = fit_loglog(TORIC_FIT_SIZES, comb)
    fit_rec = fit_loglog(TORIC_FIT_SIZES, rec)
    comb_ok = abs(fit_comb["slope"] - 3.0) <= 0.2 and fit_comb["r_squared"] >= 0.99
    # Any subset satisfying the rank conditions on the toric vertex matrix is
    # a spanning tree of the torus grid, and every spanning tree of an L x L
    # grid has total fundamental-cycle length Omega(L^2 log L).  The measured
    # exponent of the self-similar tree over 8..128 therefore sits near 2.3;
    # the assertion is kept at its stated tolerance and documents the gap.
    rec_ok = abs(fit_rec["slope"] - 2.0) <= 0.2 and fit_rec["r_squared"] >= 0.99
    elapsed = time.perf_counter() - t0
    ok = comb_ok and rec_ok and elapsed < 120.0
    report(3, ok,
           f"comb slope {fit_comb['slope']:.3f} (R2 {fit_comb['r_squared']:.4f}), "
           f"recursive slope {fit_rec['slope']:.3f} (R2 {fit_rec['r_squared']:.4f})"
           f"; {elapsed:.1f}s of 120s")
    assert ok


def test_criterion_4_recursive_recurrence():
    ok = True
    details = []
    for L in (8, 16, 32, 64):
        lhs = gates_for("toric", 2 * L, "toric_recursive")
        rhs = 4 * gates_for("toric", L, "toric_recursive") + 17 * L * L + 8 * L
        if lhs > rhs:
            ok = False
        details.append(f"L={L}: {lhs} <= {rhs}")
    report(4, ok, "; ".join(details))
    assert ok


def test_criterion_5_xcube():
    ok = True
    details = []
    for L in (2, 3):
        code = css.build_xcube(L)
        rep = verify.verify_circuit(code, synth.synthesize(code, "xcube_dual_trees"))
        if not rep.passed:
            ok = False
            details.append(f"verify L={L} failed")
    sizes = (4, 6, 8, 12, 16)
    fit = fit_loglog(sizes, [gates_for("xcube", L, "xcube_dual_trees")
                             for L in sizes])
    slope_ok = abs(fit["slope"] - 4.0) <= 0.3
    ok = ok and slope_ok
    report(5, ok, f"verify L=2,3; slope {fit['slope']:.3f}")
    assert ok


def test_criterion_6_haah():
    ok = True
    details = []
    for L in (1, 2, 3):
        code = css.build_haah(L)
        rep = verify.verify_circuit(code, synth.synthesize(code, "haah_canonical"))
        if not rep.passed:
            ok = False
            details.append(f"verify L={L} failed")
    code1 = css.build_haah(1)
    if not verify.statevector_check(code1, synth.synthesize(code1, "haah_canonical")):
        ok = False
        details.append("L=1 state-vector failed")
    rng = np.random.default_rng(6)
    for L in (2, 3, 4):
        phi = rng.integers(0, 2, L ** 3).astype(np.uint8)
        z = synth.haah_z_from_phi(L, phi)
        z1 = np.array([z[css.qubit_index("haah", L, x, y, zz, 0)]
                       for x in range(L) for y in range(L) for zz in range(L)])
        if not np.array_equal(synth.haah_phi_solve(L, z1), phi):
            ok = False
            details.append(f"phi round trip L={L} failed")
    sizes = (4, 6, 8, 10, 12, 14)
    fit = fit_loglog(sizes, [gates_for("haah", L, "haah_canonical")
                             for L in sizes])
    slope_ok = abs(fit["slope"] - 5.0) <= 0.5
    ok = ok and slope_ok
    report(6, ok, f"verify L=1..3, round trips, slope {fit['slope']:.3f}"
           + ("" if not details else "; " + "; ".join(details)))
    assert ok


def _solves(code, s) -> bool:
    """Both rank conditions, |S| = rank(pi_S A) = rank(A): exactly when
    the reconstruction solve succeeds."""
    try:
        synth.build_reconstruction(code, s)
    except synth.InvalidSubset:
        return False
    return True


def test_criterion_7_greedy_convergence():
    ok = True
    bad = []
    sizes = (2, 3, 4)
    for seed in range(200):
        L = sizes[seed % 3]
        code = css.build_toric(L)
        s = synth.greedy_select(code, seed=seed)
        if len(s) != L * L - 1 or not _solves(code, s):
            ok = False
            bad.append(f"toric L={L} seed={seed}")
    rng = np.random.default_rng(7)
    for k in range(50):
        code = random_css_code(rng)
        s = synth.greedy_select(code, seed=k)
        a = gf2.BitMatrix.from_dense(code.x_stabs.to_dense())
        if len(s) != gf2.rank(a) or not _solves(code, s):
            ok = False
            bad.append(f"random #{k}")
    report(7, ok, "200 toric seeds + 50 random codes" if ok else "; ".join(bad))
    assert ok


def test_criterion_8_right_inverse_independence():
    ok = True
    rng = np.random.default_rng(8)
    for _ in range(50):
        code = random_css_code(rng)
        s = synth.greedy_select(code)
        a = gf2.BitMatrix.from_dense(code.x_stabs.to_dense())
        sub = a.to_dense()[s]
        m = synth.build_reconstruction(code, s).to_dense().T
        # the forward pivot order, then the reverse one: the right inverse
        # of the column-reversed matrix, rows reversed back
        for r in (gf2.right_inverse(gf2.BitMatrix.from_dense(sub)),
                  reverse_pivot_right_inverse(sub)):
            if not np.array_equal(m, gf2.mul(a, r).to_dense()):
                ok = False
    report(8, ok, "50 random codes, both pivot orders of A (pi_S A)^+ "
                  "bit-identical to the reconstruction")
    assert ok


GROUPS_CASES = (("D3", lambda: groups.make_dihedral(3)),
                ("D4", lambda: groups.make_dihedral(4)),
                ("D8", lambda: groups.make_dihedral(8)),
                ("Z2xZ4", lambda: groups.make_abelian([2, 4])))


def test_criterion_9_solvable_groups():
    ok = True
    details = []
    for name, make in GROUPS_CASES:
        series = make()
        n = 1
        while series.group.order ** (n + 1) <= 100_000:
            n += 1
        for m in range(1, n + 1):
            if not groups.exhaustive_check(series, m):
                ok = False
                details.append(f"{name} exhaustive n={m}")
        for m in (16, 64, 256):
            if not groups.random_check(series, m, trials=1000, seed=m):
                ok = False
                details.append(f"{name} random n={m}")
        rows = groups.depth_report(series, [16, 64, 256])
        if len({r["depth"] for r in rows}) != 1:
            ok = False
            details.append(f"{name} depth varies")
        # growth is at most linear: a 4x sequence-length step may scale the
        # ancilla count by at most 4 plus the stated 15% allowance
        ratio = rows[2]["ancillas"] / rows[1]["ancillas"]
        if ratio > 4 * 1.15:
            ok = False
            details.append(f"{name} ancilla ratio {ratio:.2f}")
    report(9, ok, "oracle agreement, constant depth, linear ancillas"
           if ok else "; ".join(details))
    assert ok


def _mutations(code, circ, rng, count=100):
    in_plus = set(circ.plus_qubits)
    targets = [q for q in range(code.n_qubits) if q not in in_plus]
    gate_set = set(circ.gates)
    for _ in range(count):
        if rng.random() < 0.5 and circ.gates:
            k = rng.integers(0, len(circ.gates))
            gates = circ.gates[:k] + circ.gates[k + 1:]
        else:
            while True:
                c = circ.plus_qubits[rng.integers(0, len(circ.plus_qubits))]
                t = targets[rng.integers(0, len(targets))]
                if (c, t) not in gate_set:
                    break
            gates = tuple(sorted(circ.gates + ((c, t),)))
        yield FdscCircuit(circ.n_qubits, circ.plus_qubits, gates, {})


def test_criterion_10_mutation_sensitivity():
    ok = True
    details = []
    for family, L, strategy in (("toric", 3, "toric_comb"),
                                ("haah", 2, "haah_canonical")):
        code = css.build_family(family, L)
        circ = synth.synthesize(code, strategy)
        rng = np.random.default_rng(10)
        fails = sum(not verify.verify_circuit(code, mut).passed
                    for mut in _mutations(code, circ, rng))
        if fails != 100:
            ok = False
        details.append(f"{family} L={L}: {fails}/100 detected")
    report(10, ok, "; ".join(details))
    assert ok
