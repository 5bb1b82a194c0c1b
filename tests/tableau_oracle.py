"""Reference verifier: a signed-Pauli stabilizer tableau (Aaronson & Gottesman
2004, CHP) with exact group membership, used to cross-check the CSS-state
rule in :func:`fdsc.verify.verify_circuit`.

States are tracked as stabilizer tableaus: one generator per qubit, each a
signed Pauli product stored as an X-mask row, a Z-mask row, and a sign bit
(0 for +1).  Paulis use the X^x Z^z convention per qubit, so multiplying
P1 * P2 picks up (-1)^(z1 . x2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from conftest import packed
from fdsc.css import CssCode
from fdsc.gf2 import BitMatrix, DimensionMismatch
from fdsc.synth import FdscCircuit


class IndexOutOfRange(ValueError):
    """A qubit index is outside the register."""


class InvalidLayer(ValueError):
    """Controls and targets overlap; not a valid one-layer circuit."""


class EchelonBasis:
    """Incrementally maintained, fully reduced echelon basis over GF(2).

    Rows are 0/1 numpy arrays.  ``add`` returns True when the row enlarged
    the span.  ``decompose`` returns the sorted indices of previously added
    rows whose XOR equals the query, or None if the query is outside the
    span.  The basis is kept mutually reduced (each basis row is the only
    one with a 1 in its pivot column), so a single left-to-right reduction
    pass is exact.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self._rows: list[np.ndarray] = []
        self._combos: list[frozenset] = []
        self._pivot_of: dict[int, int] = {}
        self.n_added = 0

    def _reduce(self, row: np.ndarray):
        row = (np.asarray(row, dtype=np.uint8) & 1).copy()
        combo: frozenset = frozenset()
        for col in np.flatnonzero(row):
            i = self._pivot_of.get(int(col))
            if i is not None:
                row ^= self._rows[i]
                combo ^= self._combos[i]
        return row, combo

    def add(self, row: np.ndarray) -> bool:
        idx = self.n_added
        self.n_added += 1
        row, combo = self._reduce(row)
        combo ^= frozenset((idx,))
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return False
        p = int(nz[0])
        for j in range(len(self._rows)):
            if self._rows[j][p]:
                self._rows[j] = self._rows[j] ^ row
                self._combos[j] ^= combo
        self._pivot_of[p] = len(self._rows)
        self._rows.append(row)
        self._combos.append(combo)
        return True

    def decompose(self, row: np.ndarray) -> Optional[list[int]]:
        row, combo = self._reduce(row)
        if np.any(row):
            return None
        return sorted(combo)

    def contains(self, row: np.ndarray) -> bool:
        return self.decompose(row) is not None

    @property
    def rank(self) -> int:
        return len(self._rows)


@dataclass(frozen=True)
class SymplecticState:
    n_qubits: int
    stab_x: BitMatrix
    stab_z: BitMatrix
    signs: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        if (self.stab_x.rows != n or self.stab_z.rows != n
                or self.stab_x.cols != n or self.stab_z.cols != n
                or self.signs.shape != (n,)):
            raise DimensionMismatch("tableau must be n generators over n qubits")

    def generator(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        x = self.stab_x.to_dense()[i]
        z = self.stab_z.to_dense()[i]
        return x, z, int(self.signs[i])


def initial_state(n: int, plus_qubits: Iterable[int]) -> SymplecticState:
    """Product state |+> on the given qubits and |0> on the rest."""
    plus = sorted(set(int(q) for q in plus_qubits))
    if plus and not (0 <= plus[0] and plus[-1] < n):
        raise IndexOutOfRange(f"plus qubits outside 0..{n - 1}")
    in_plus = np.zeros(n, dtype=bool)
    in_plus[plus] = True
    sx = packed(np.diag(in_plus))
    sz = packed(np.diag(~in_plus))
    return SymplecticState(n, sx, sz, np.zeros(n, dtype=np.uint8))


def _col_bits(m: BitMatrix, j: int) -> np.ndarray:
    w, b = divmod(j, 64)
    return ((m.data[:, w] >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)


def _col_xor(m: BitMatrix, j: int, bits: np.ndarray) -> None:
    w, b = divmod(j, 64)
    m.data[:, w] ^= bits.astype(np.uint64) << np.uint64(b)


def apply_cx_layer(state: SymplecticState,
                   gates: Sequence[tuple[int, int]]) -> SymplecticState:
    """Conjugate every generator by the commuting CX layer.

    X on a control spreads to its target, Z on a target spreads to its
    control.  In the X^x Z^z phase convention the exponent updates never
    reorder an X past a Z on the same qubit, so CX conjugation leaves every
    sign bit unchanged; signs are still carried so membership tests stay
    honest about the +1 eigenvalue.
    """
    controls = {c for c, _ in gates}
    targets = {t for _, t in gates}
    if controls & targets:
        raise InvalidLayer("control and target sets overlap")
    for q in controls | targets:
        if not 0 <= q < state.n_qubits:
            raise IndexOutOfRange(q)
    sx = packed(state.stab_x.to_dense())
    sz = packed(state.stab_z.to_dense())
    for c, t in gates:
        xc = _col_bits(sx, c)
        zt = _col_bits(sz, t)
        _col_xor(sx, t, xc)
        _col_xor(sz, c, zt)
    return SymplecticState(state.n_qubits, sx, sz, state.signs.copy())


class GroupMembership:
    """Decides membership of signed Paulis in the generated stabilizer group."""

    def __init__(self, state: SymplecticState):
        self.state = state
        self.xs = state.stab_x.to_dense()
        self.zs = state.stab_z.to_dense()
        self.basis = EchelonBasis(2 * state.n_qubits)
        for i in range(state.n_qubits):
            self.basis.add(np.concatenate([self.xs[i], self.zs[i]]))

    def contains(self, x_mask: np.ndarray, z_mask: np.ndarray,
                 sign: int = 0) -> bool:
        target = np.concatenate([x_mask, z_mask]).astype(np.uint8) & 1
        combo = self.basis.decompose(target)
        if combo is None:
            return False
        acc_z = np.zeros(self.state.n_qubits, dtype=np.uint8)
        r = 0
        for i in combo:
            r ^= int(self.state.signs[i])
            r ^= int(np.bitwise_and(acc_z, self.xs[i]).sum() & 1)
            acc_z ^= self.zs[i]
        return r == (sign & 1)


def contains_stabilizer(state: SymplecticState, x_mask: np.ndarray,
                        z_mask: np.ndarray) -> bool:
    """True iff the +1-signed Pauli X^x Z^z is a product of the generators."""
    x_mask = np.asarray(x_mask, dtype=np.uint8) & 1
    z_mask = np.asarray(z_mask, dtype=np.uint8) & 1
    if x_mask.shape != (state.n_qubits,) or z_mask.shape != (state.n_qubits,):
        raise DimensionMismatch("mask length != n_qubits")
    return GroupMembership(state).contains(x_mask, z_mask)


def final_state(circ: FdscCircuit) -> SymplecticState:
    return apply_cx_layer(initial_state(circ.n_qubits, circ.plus_qubits),
                          circ.gates)


def tableau_verify(code: CssCode, circ: FdscCircuit):
    """(failed_x, failed_z, n_checked) by signed group membership of every
    X and Z generator of the code in the circuit's output tableau."""
    if circ.n_qubits != code.n_qubits:
        raise DimensionMismatch("circuit and code qubit counts differ")
    member = GroupMembership(final_state(circ))
    zeros = np.zeros(code.n_qubits, dtype=np.uint8)
    xcols = code.x_stabs.to_dense()
    zcols = code.z_stabs.to_dense()
    failed_x = tuple(j for j in range(code.n_x)
                     if not member.contains(xcols[:, j], zeros))
    failed_z = tuple(j for j in range(code.n_z)
                     if not member.contains(zeros, zcols[:, j]))
    return failed_x, failed_z, code.n_x + code.n_z
