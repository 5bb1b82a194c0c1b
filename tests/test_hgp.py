"""Hypergraph products of random (3,4)-regular classical codes.

On these codes the reconstruction's peel finds few X generators with a
single unresolved member of a greedy subset S, so it stalls early and the
dense core solves most of S: from N = 400 up, at least 5/6 of S on each of
seeds 0-7.  At N = 100 the peel and the core share the work.  Selection,
reconstruction and verification are compared with the dense oracles of
conftest.py; at N = 6,400, where those are too slow, the reconstruction is
compared with A R for a right inverse R of pi_S A, and one-gate mutants
with the parity rule.
"""

import numpy as np
import pytest

from conftest import (dense_greedy, dense_rank, dense_reconstruction,
                      dense_verify, full_reconstruction, hgp_code, packed,
                      regular_checks)
from fdsc import gf2
from fdsc.synth import (FdscCircuit, build_reconstruction, emit_circuit,
                        greedy_select)
from fdsc.verify import verify_circuit


def random_hgp(seed: int, n1: int, n2: int):
    rng = np.random.default_rng(seed)
    return hgp_code(regular_checks(rng, n1), regular_checks(rng, n2))


def reconstruct(monkeypatch, code, s):
    """build_reconstruction's result, and the number of S members its
    dense core solved (the rows handed to gf2.right_inverse)."""
    rows = []
    right_inverse = gf2.right_inverse

    def recorded(m, *args, **kwargs):
        rows.append(m.rows)
        return right_inverse(m, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(gf2, "right_inverse", recorded)
        mt = build_reconstruction(code, s)
    return mt, sum(rows)


def one_gate_mutants(circ, seed: int, count: int):
    """Seeded (gate, circuit) pairs: the circuit with that one gate dropped
    or, alternately, that one absent gate added (only added when there is
    no gate)."""
    rng = np.random.default_rng(seed)
    plus, outside = list(circ.plus_qubits), sorted(
        set(range(circ.n_qubits)) - set(circ.plus_qubits))
    present = set(circ.gates)
    for k in range(count):
        if k % 2 == 0 and len(circ.pairs):
            i = int(rng.integers(len(circ.pairs)))
            gate, gates = circ.gates[i], circ.gates[:i] + circ.gates[i + 1:]
        else:
            gate = None
            while gate is None or gate in present:
                gate = (plus[rng.integers(len(plus))],
                        outside[rng.integers(len(outside))])
            gates = tuple(sorted(circ.gates + (gate,)))
        yield gate, FdscCircuit(circ.n_qubits, circ.plus_qubits, gates)


def test_one_gate_mutants_of_a_circuit_with_no_gates_add_one():
    # nothing to drop: every mutant adds its one gate, a control in the
    # plus set and a target outside it
    mutants = list(one_gate_mutants(FdscCircuit(4, (0, 1), ()), 0, 4))
    assert len(mutants) == 4
    assert all(m.gates == (gate,) and gate[0] in (0, 1) and gate[1] in (2, 3)
               for gate, m in mutants)


def parity_rule(code, gate) -> tuple:
    """What verify must report for a passing circuit with the one gate
    (c, t) toggled: the parity at t changes for exactly the X generators
    on c, and the parity at c for exactly the Z generators on t."""
    c, t = gate
    return (tuple(np.flatnonzero(code.x_stabs.to_dense()[c]).tolist()),
            tuple(np.flatnonzero(code.z_stabs.to_dense()[t]).tolist()))


def test_hgp_code_is_the_product():
    code = random_hgp(0, 8, 12)
    assert (code.n_qubits, code.n_x, code.n_z) == (8 * 12 + 6 * 9, 6 * 12, 8 * 9)
    assert set(np.diff(code.x_stabs.start)) == set(np.diff(code.z_stabs.start)) == {7}


@pytest.mark.parametrize("seed,n1,n2", [(1, 8, 8), (2, 16, 16), (3, 16, 32),
                                        (4, 32, 32)])
def test_matches_dense_oracles(monkeypatch, seed, n1, n2):
    code = random_hgp(seed, n1, n2)
    a = code.x_stabs.to_dense()
    s = greedy_select(code)
    assert s.tolist() == dense_greedy(a)
    shuffled = greedy_select(code, seed)
    assert dense_rank(a[shuffled]) == len(shuffled) == len(s)
    mt, core = reconstruct(monkeypatch, code, s)
    assert core > 0 and (core >= len(s) / 2 or code.n_qubits < 400)
    assert np.array_equal(full_reconstruction(code, s, mt),
                          dense_reconstruction(a, s))
    circ = emit_circuit(code, s, mt)
    rep = verify_circuit(code, circ)
    assert rep.passed and (rep.failed_x, rep.failed_z, rep.n_checked) == \
        dense_verify(code, circ)
    for gate, mutant in one_gate_mutants(circ, seed, 4):
        rep = verify_circuit(code, mutant)
        assert (rep.failed_x, rep.failed_z, rep.n_checked) == \
            dense_verify(code, mutant)
        assert (rep.failed_x, rep.failed_z) == parity_rule(code, gate)


def test_reconstruction_at_6400_qubits_equals_right_inverse_product(monkeypatch):
    code = random_hgp(5, 64, 64)
    assert code.n_qubits == 6400
    s = greedy_select(code)
    mt, core = reconstruct(monkeypatch, code, s)
    assert core >= len(s) / 2
    a = code.x_stabs.to_dense()
    r = gf2.right_inverse(packed(a[s]))
    product = gf2.mul(packed(a), r)
    assert np.array_equal(full_reconstruction(code, s, mt), product.to_dense())
    circ = emit_circuit(code, s, mt)
    assert verify_circuit(code, circ).passed
    for gate, mutant in one_gate_mutants(circ, 5, 4):
        rep = verify_circuit(code, mutant)
        assert (rep.failed_x, rep.failed_z) == parity_rule(code, gate)
