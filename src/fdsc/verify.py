"""Exact verification of one-layer CX circuits against a CSS code, with a
brute-force state-vector oracle at toy sizes.

A circuit prepares |+> on S and |0> elsewhere, then applies CX gates whose
controls lie in S and whose targets lie outside it.  Its output is the
uniform superposition over the column span of M_c, the N x |S| matrix with
the identity on the S rows and a 1 at (t, c) for every gate (c, t).  That is
a CSS state: its stabilizer group is X^v for v in the column span of M_c
and Z^w for w orthogonal to every column, all with sign +1.  So:

* X generator a holds iff a == M_c a|_S, the only candidate combination
  since M_c is the identity on S: for every t outside S, a[t] equals the
  XOR of a over t's controls.
* Z generator b holds iff b is orthogonal to every column of M_c: for
  every s in S, b[s] equals the XOR of b over s's targets.

Both checks are exact and need no elimination and no sign bookkeeping.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import gf2
from .css import CssCode
from .gf2 import BitMatrix, DimensionMismatch
from .synth import FdscCircuit


class TooLarge(ValueError):
    """State-vector oracle cap exceeded."""


STATEVECTOR_CAP = 20


@dataclass(frozen=True)
class CssState:
    """Circuit output in CSS form: |+> on ``plus``, |0> elsewhere, then
    CX(controls[i], targets[i]) for every i.  M_c is the identity on the
    ``plus`` rows plus a 1 at (targets[i], controls[i])."""

    n_qubits: int
    plus: np.ndarray
    controls: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    failed_x: tuple[int, ...]
    failed_z: tuple[int, ...]
    n_checked: int

    def to_json(self) -> str:
        return json.dumps({"pass": self.passed,
                           "failed_x": list(self.failed_x),
                           "failed_z": list(self.failed_z),
                           "n_checked": self.n_checked},
                          sort_keys=True, separators=(",", ":"))


def final_state(circ: FdscCircuit) -> CssState:
    gates = np.fromiter(itertools.chain.from_iterable(circ.gates),
                        dtype=np.int64, count=2 * len(circ.gates)).reshape(-1, 2)
    return CssState(circ.n_qubits, np.asarray(circ.plus_qubits, dtype=np.int64),
                    gates[:, 0], gates[:, 1])


def _failed_generators(gens: BitMatrix, src: np.ndarray, dst: np.ndarray,
                       checked: np.ndarray) -> tuple[int, ...]:
    """Sorted indices of the generators (columns) g of ``gens`` for which
    g[q] differs from the XOR of g[src[i]] over all i with dst[i] == q, at
    some checked qubit q.  Every ``dst`` entry must be a checked qubit.

    The parities are counted over (generator, qubit) pairs: each set bit of
    ``gens`` in a checked row, plus each set bit of row src[i] moved to row
    dst[i].  Cost is nnz plus the summed row weights of ``src``.
    """
    own = np.flatnonzero(checked)
    i, g = gf2.row_spread(gens, np.concatenate([own, src]))
    n = gens.rows
    pairs, counts = np.unique(g * n + np.concatenate([own, dst])[i],
                              return_counts=True)
    return tuple(np.unique(pairs[counts & 1 == 1] // n).tolist())


def verify_circuit(code: CssCode, circ: FdscCircuit) -> VerifyReport:
    """Check every X and Z generator of the code against the output state."""
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    state = final_state(circ)
    in_s = np.zeros(code.n_qubits, dtype=bool)
    in_s[state.plus] = True
    failed_x = _failed_generators(code.x_stabs, state.controls, state.targets,
                                  ~in_s)
    failed_z = _failed_generators(code.z_stabs, state.targets, state.controls,
                                  in_s)
    return VerifyReport(not failed_x and not failed_z, failed_x, failed_z,
                        code.n_x + code.n_z)


# -- state-vector oracle ---------------------------------------------------


def _circuit_output_basis(circ: FdscCircuit) -> np.ndarray:
    """Computational-basis labels of the circuit output superposition."""
    plus = list(circ.plus_qubits)
    k = len(plus)
    labels = np.zeros(1 << k, dtype=np.uint64)
    idx = np.arange(1 << k, dtype=np.uint64)
    for pos, q in enumerate(plus):
        labels |= ((idx >> np.uint64(pos)) & np.uint64(1)) << np.uint64(q)
    for c, t in circ.gates:
        bit = (labels >> np.uint64(c)) & np.uint64(1)
        labels ^= bit << np.uint64(t)
    return labels


def circuit_statevector(circ: FdscCircuit) -> np.ndarray:
    """Amplitude vector of the circuit output (n <= 20)."""
    if circ.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={circ.n_qubits} > {STATEVECTOR_CAP}")
    labels = _circuit_output_basis(circ)
    vec = np.zeros(1 << circ.n_qubits, dtype=np.float64)
    np.add.at(vec, labels.astype(np.int64), 1.0)
    return vec / np.linalg.norm(vec)


def ground_state_statevector(code: CssCode) -> np.ndarray:
    """Equal superposition over applying every X-generator subset to |0...0>.

    Enumerates only an independent column subset of the X-stabilizer matrix
    so dependent generators do not blow the term count up.
    """
    if code.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={code.n_qubits} > {STATEVECTOR_CAP}")
    cols = gf2.column_rank_profile(code.x_stabs)
    dense = code.x_stabs.to_dense()
    supports = []
    for j in cols:
        mask = np.uint64(0)
        for q in np.flatnonzero(dense[:, j]):
            mask |= np.uint64(1) << np.uint64(q)
        supports.append(mask)
    k = len(supports)
    labels = np.zeros(1 << k, dtype=np.uint64)
    idx = np.arange(1 << k, dtype=np.uint64)
    for pos, mask in enumerate(supports):
        labels ^= np.where((idx >> np.uint64(pos)) & np.uint64(1), mask,
                           np.uint64(0))
    vec = np.zeros(1 << code.n_qubits, dtype=np.float64)
    np.add.at(vec, labels.astype(np.int64), 1.0)
    return vec / np.linalg.norm(vec)


def statevector_check(code: CssCode, circ: FdscCircuit) -> bool:
    """Exact equality of circuit output and the superposition ground state."""
    if code.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={code.n_qubits} > {STATEVECTOR_CAP}")
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    return np.allclose(circuit_statevector(circ),
                       ground_state_statevector(code), atol=1e-12)
