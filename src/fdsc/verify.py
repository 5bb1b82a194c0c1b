"""Exact verification of one-layer CX circuits against a CSS code, and a toy-
size oracle: the output state vector against the ground state's basis labels.

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

from dataclasses import dataclass

import numpy as np

from . import css, gf2
from .css import CssCode, Supports, dump_json, odd_pairs
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


def _failed_generators(gens: Supports, src: np.ndarray, dst: np.ndarray,
                       checked: np.ndarray) -> tuple[int, ...]:
    """Sorted indices of the generators g of ``gens`` for which g[q]
    differs from the XOR of g[src[i]] over all i with dst[i] == q, at some
    checked qubit q.  Every ``dst`` entry must be a checked qubit, and
    ``dst`` must be sorted.

    The parities are counted over (generator, qubit) pairs: each generator
    on a checked qubit, plus each generator on qubit src[i] moved to qubit
    dst[i].  Pairs on different checked qubits never meet, so they are
    counted in blocks of checked qubits, each about ``css.BLOCK`` checked
    qubits and gates, cut where every ``css.BLOCK``-th of either begins.
    Cost is about nnz plus the generators on the ``src`` qubits, and memory
    a block's share of that.
    """
    own = np.flatnonzero(checked)
    by_qubit = gens.transpose()
    step = css.BLOCK
    cuts = np.unique(np.concatenate((own[step::step], dst[step::step])))
    o = [0, *np.searchsorted(own, cuts).tolist(), own.size]
    d = [0, *np.searchsorted(dst, cuts).tolist(), dst.size]
    failed = []
    for a, b, c, e in zip(o, o[1:], d, d[1:]):
        i, g = by_qubit.spread(np.concatenate((own[a:b], src[c:e])))
        at = np.concatenate((own[a:b], dst[c:e]))
        failed.append(odd_pairs(g, at[i], gens.n_qubits)[0])
    return tuple(np.unique(np.concatenate(failed)).tolist())


def verify_circuit(code: CssCode, circ: FdscCircuit) -> VerifyReport:
    """Check every X and Z generator of the code against the output state.
    The gates are sorted by control already, as the Z rule needs; the X rule
    sorts them by target once."""
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    plus, controls, targets = final_state(circ)
    in_s = np.zeros(code.n_qubits, dtype=bool)
    in_s[plus] = True
    # the gates by target: one sort of target-major keys
    by_target, by_control = np.divmod(np.sort(targets * circ.n_qubits + controls),
                                      circ.n_qubits)
    failed_x = _failed_generators(code.x_stabs, by_control, by_target, ~in_s)
    failed_z = _failed_generators(code.z_stabs, targets, controls, in_s)
    return VerifyReport(not failed_x and not failed_z, failed_x, failed_z,
                        code.n_x + code.n_z)


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
