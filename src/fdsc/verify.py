"""Exact verification of one-layer CX circuits against a CSS code, and a toy-
size oracle: the output state vector against the ground state's basis labels.

A circuit prepares |+> on S and |0> elsewhere, then applies CX gates whose
controls lie in S and whose targets lie outside it.  Its output is the
uniform superposition over the column span of M_c, the N x |S| matrix with
the identity on the S rows and a 1 at (t, c) for every gate (c, t).  That is
a CSS state: its stabilizer group is X^v for v in the column span of M_c
and Z^w for w orthogonal to every column, all with sign +1.  With T the
N x N matrix whose row q lists q's targets, and W = I + T:

* X generator a holds iff a == M_c a|_S (M_c is the identity on S), that
  is, iff a W has no 1 outside S: a[t] is the XOR of a over t's controls.
* Z generator b holds iff b is orthogonal to every column of M_c, that is,
  iff W b has no 1 on S: b[s] is the XOR of b over s's targets.

Both checks are exact and need no elimination and no sign bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import css, gf2
from .css import CssCode, Supports, dump_json
from .gf2 import DimensionMismatch
from .synth import FdscCircuit


class TooLarge(ValueError):
    """State-vector oracle cap exceeded."""


STATEVECTOR_CAP = 20


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    failed_x: tuple[int, ...]
    failed_z: tuple[int, ...]
    n_checked: int

    def to_json(self) -> str:
        return dump_json({"pass": self.passed, "failed_x": list(self.failed_x),
                          "failed_z": list(self.failed_z),
                          "n_checked": self.n_checked})


def final_state(circ: FdscCircuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output state in CSS form, as int64 arrays (plus, controls,
    targets), ``plus`` sorted: |+> on ``plus``, |0> elsewhere, then
    CX(controls[i], targets[i]) for every i.  M_c is the identity on the
    ``plus`` rows plus a 1 at (targets[i], controls[i])."""
    return circ.plus_qubits, circ.pairs[:, 0], circ.pairs[:, 1]


def verify_circuit(code: CssCode, circ: FdscCircuit) -> VerifyReport:
    """Check every X and Z generator against the output state, each rule one
    ``css.odd_product`` with T.  The gates are sorted by control, so the
    rows of T are slices of the target column: no gate column is sorted or
    copied."""
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    n, (plus, controls, targets) = code.n_qubits, final_state(circ)
    first = np.searchsorted(controls, np.arange(n + 1))   # each qubit's gates
    x, z = code.x_stabs, code.z_stabs.transpose()
    off = ~np.isin(x.qubits, plus)
    # a W off S: a T (no 1 on S) plus a's own entries off S, by generator
    g = css.odd_product(x, Supports(n, first, targets),
                        (x.generators()[off], x.qubits[off]))[0]
    # W b on S: T b on S (whose rows of T tile the target column) plus b
    h = css.odd_product(Supports(n, first[np.append(plus, n)], targets), z,
                        z.spread(plus))[1]
    failed = [tuple(np.unique(v).tolist()) for v in (g, h)]
    return VerifyReport(not (g.size or h.size), *failed, code.n_x + code.n_z)


# -- state-vector oracle ---------------------------------------------------


def _span(masks: np.ndarray) -> np.ndarray:
    """The XOR span of the bit masks as int64 basis labels: label i XORs
    masks[j] for every set bit j of i."""
    labels = np.zeros(1, dtype=np.int64)
    for mask in masks.tolist():
        labels = np.concatenate((labels, labels ^ mask))
    return labels


def circuit_statevector(circ: FdscCircuit) -> np.ndarray:
    """Amplitude vector of the circuit output (n <= 20): uniform over the
    span of the columns of M_c, one bit mask per plus qubit, independent
    since M_c is the identity on the plus rows."""
    if circ.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={circ.n_qubits} > {STATEVECTOR_CAP}")
    plus, controls, targets = (a.astype(np.uint64) for a in final_state(circ))
    columns = np.uint64(1) << plus
    np.bitwise_or.at(columns, np.searchsorted(plus, controls),
                     np.uint64(1) << targets)
    labels = _span(columns)
    vec = np.zeros(1 << circ.n_qubits)
    vec[labels] = labels.size ** -0.5
    return vec


def ground_state_labels(code: CssCode) -> np.ndarray:
    """The 2^rank distinct basis labels of the ground state, the span of
    the X generators applied to |0...0>, enumerated from an independent
    generator subset so dependent generators do not blow the term count
    up: the column rank profile of the n x k matrix A, packed from the
    code's supports, with each kept generator's qubits as one bit mask."""
    if code.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={code.n_qubits} > {STATEVECTOR_CAP}")
    keep = gf2.column_rank_profile(code.x_stabs.transpose().packed())
    i, q = code.x_stabs.spread(keep)
    masks = np.zeros(len(keep), dtype=np.int64)
    np.bitwise_or.at(masks, i, 1 << q)
    return _span(masks)


def statevector_check(code: CssCode, circ: FdscCircuit) -> bool:
    """Exact equality of circuit output and the superposition ground state.
    Both are uniform with sign +1, so they are equal iff the circuit's
    nonzero amplitudes sit exactly on the ground state's labels."""
    if code.n_qubits > STATEVECTOR_CAP:
        raise TooLarge(f"n={code.n_qubits} > {STATEVECTOR_CAP}")
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    vec, labels = circuit_statevector(circ), ground_state_labels(code)
    return bool(np.count_nonzero(vec) == labels.size and (vec[labels] > 0).all())
