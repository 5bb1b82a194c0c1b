"""Shared test helpers: dense-elimination oracles (rank, subset,
reconstruction, verification), the full reconstruction matrix from its
rows off S, a two-scan packed elimination kernel, the right inverse with
the reverse pivot order, a two-vector state-vector oracle, a per-gate
circuit check, the per-entry code-file rules, codes and packed matrices
from dense arrays, random codes (small ones, and hypergraph products of
random regular classical codes), and the hypothesis profile every
property runs under.

The dense helpers deliberately avoid the packed kernels in fdsc.gf2 so they
can serve as independent cross-checks.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from hypothesis import settings

from fdsc import css, gf2
from fdsc.gf2 import BitMatrix

# Every property draws the same examples on every run: no example
# database, no wall-clock deadline, a fixed derivation of the examples.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def dense_rref(a: np.ndarray):
    """Reduced row echelon form over GF(2) on a dense 0/1 array."""
    m = (np.asarray(a, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def reference_eliminate(data: np.ndarray, col_order, reduced: bool = False):
    """A two-scan packed elimination kernel, the reference for
    ``gf2._eliminate``: each step scans the pivot column for the pivot and
    again, after the swap, for the rows to clear.  In place; returns the
    same (pivot_row, pivot_col) list."""
    nrows = data.shape[0]
    pivots = []
    r = 0
    one = np.uint64(1)
    for col in col_order:
        if r == nrows:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        colbits = (data[r:, w] >> b) & one
        nz = np.flatnonzero(colbits)
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        below = r + 1 + np.flatnonzero((data[r + 1:, w] >> b) & one)
        if below.size:
            data[below] ^= data[r]
        if reduced and r:
            above = np.flatnonzero((data[:r, w] >> b) & one)
            if above.size:
                data[above] ^= data[r]
        pivots.append((r, col))
        r += 1
    return pivots


def dense_rank(a: np.ndarray) -> int:
    return len(dense_rref(a)[1])


def dense_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis (rows) of {x : a @ x = 0 mod 2}."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8) & 1)
    rref, pivots = dense_rref(a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        x = np.zeros(cols, dtype=np.uint8)
        x[f] = 1
        for r, p in enumerate(pivots):
            x[p] = rref[r, f]
        basis.append(x)
    return np.array(basis, dtype=np.uint8).reshape(len(basis), cols)


def dense_greedy(a: np.ndarray, order=None) -> list[int]:
    """Sorted rows of ``a`` that the greedy scan keeps: scanning rows in
    ``order`` (default index order), each row independent of those kept
    before it, read off the pivots of the RREF of the rows as columns."""
    order = np.arange(len(a)) if order is None else np.asarray(order)
    return sorted(int(order[p]) for p in dense_rref(np.asarray(a)[order].T)[1])


def dense_reconstruction(a, qubits):
    """A R for the right inverse R of a full-row-rank pi_S A, read off the
    RREF of [pi_S A | I]."""
    sub = a[list(qubits)]
    rows, cols = sub.shape
    rref, pivots = dense_rref(np.hstack([sub, np.eye(rows, dtype=np.uint8)]))
    assert len(pivots) == rows and all(p < cols for p in pivots)
    r = np.zeros((cols, rows), dtype=np.uint8)
    r[pivots] = rref[:rows, cols:]
    return (a.astype(np.int64) @ r) % 2


def full_reconstruction(code: css.CssCode, s, mt: BitMatrix) -> np.ndarray:
    """The dense N x |S| reconstruction matrix M from the rows off S that
    ``build_reconstruction`` returns as ``mt``: the identity rows on S,
    and column j of ``mt`` as row i of M for the i-th qubit outside S."""
    s = np.asarray(s, dtype=np.int64)
    m = np.zeros((code.n_qubits, len(s)), dtype=np.uint8)
    m[s, np.arange(len(s))] = 1
    m[np.delete(np.arange(code.n_qubits), s)] = mt.to_dense().T
    return m


def dense_verify(code: css.CssCode, circ) -> tuple:
    """(failed_x, failed_z, n_checked) by dense products.  The output's X
    stabilizers are the column span of M_c (the identity on the plus rows
    and a 1 at (t, c) per gate), so X generator a holds iff a = M_c a|plus
    and Z generator b iff b^T M_c = 0.  Products run in float64, exact for
    counts below 2^53."""
    plus = list(circ.plus_qubits)
    mc = np.zeros((circ.n_qubits, len(plus)))
    mc[plus, np.arange(len(plus))] = 1
    column = {q: j for j, q in enumerate(plus)}
    for c, t in circ.gates:
        mc[t, column[c]] = 1
    a, b = code.x_stabs.to_dense(), code.z_stabs.to_dense()
    failed_x = ((mc @ a[plus]) % 2 != a).any(axis=0)
    failed_z = ((b.T @ mc) % 2).any(axis=1)
    return (tuple(np.flatnonzero(failed_x).tolist()),
            tuple(np.flatnonzero(failed_z).tolist()), code.n_x + code.n_z)


def dense_supports(a) -> css.Supports:
    """Supports of the columns of a dense n x k 0/1 array."""
    a = np.asarray(a, dtype=np.uint8)
    gens, qubits = np.nonzero(a.T)   # by generator, then qubit
    weight = np.bincount(gens, minlength=a.shape[1])
    return css.Supports(a.shape[0], np.concatenate(([0], np.cumsum(weight))), qubits)


def dense_product(left: css.Supports, right: css.Supports, add=None):
    """The 1-entries of L @ R + A over GF(2), for two row-grouped lists and
    the (rows, cols) entries ``add``, as a sorted (rows, cols) pair: from
    dense count matrices, where an entry listed twice counts twice."""
    def counts(sup):
        a = np.zeros((len(sup), sup.n_qubits), dtype=np.int64)
        np.add.at(a, (sup.generators(), sup.qubits), 1)
        return a
    total = counts(left) @ counts(right)
    if add is not None:
        np.add.at(total, add, 1)
    return np.nonzero(total % 2)


def dense_code(a, b) -> css.CssCode:
    """The custom code with X supports the columns of ``a``, Z those of ``b``."""
    return css.CssCode(len(a), dense_supports(a), dense_supports(b))


def support_lists_ok(n: int, lists) -> bool:
    """The code-file rules for one support field, entry by entry: a list
    of nonempty lists of JSON integers, each strictly increasing within
    0..n-1."""
    return isinstance(lists, list) and all(
        isinstance(sup, list) and sup
        and all(type(q) is int for q in sup)
        and all(a < b for a, b in itertools.pairwise([-1, *sup, n]))
        for sup in lists)


def random_css_code(rng: np.random.Generator, n_max: int = 30) -> css.CssCode:
    """Random valid CSS code: random X supports, Z generators from the
    orthogonal complement of the X column space."""
    while True:
        n = int(rng.integers(4, n_max + 1))
        kx = int(rng.integers(1, min(6, n - 1) + 1))
        a = rng.integers(0, 2, size=(n, kx)).astype(np.uint8)
        for j in range(kx):
            if not a[:, j].any():
                a[rng.integers(0, n), j] = 1
        null = dense_nullspace(a.T)
        if null.shape[0] == 0:
            continue
        kz = int(rng.integers(1, 5))
        bcols = []
        for _ in range(kz):
            while True:
                combo = rng.integers(0, 2, size=null.shape[0]).astype(np.uint8)
                v = (combo @ null) % 2
                if v.any():
                    bcols.append(v)
                    break
        b = np.array(bcols, dtype=np.uint8).T
        return dense_code(a, b)


def regular_checks(rng: np.random.Generator, n: int, column_weight: int = 3,
                   row_weight: int = 4) -> np.ndarray:
    """A random m x n parity-check matrix with every column of weight
    ``column_weight`` and every row of weight ``row_weight`` (m = n *
    column_weight / row_weight): column and row sockets paired by a seeded
    shuffle, redrawn until no pair of sockets repeats an entry."""
    m = n * column_weight // row_weight
    cols = np.repeat(np.arange(n), column_weight)
    while True:
        h = np.zeros((m, n), dtype=np.uint8)
        np.add.at(h, (rng.permutation(np.repeat(np.arange(m), row_weight)), cols), 1)
        if h.max() == 1:
            return h


def hgp_code(h1: np.ndarray, h2: np.ndarray) -> css.CssCode:
    """The hypergraph product of the classical codes with parity checks h1
    (m1 x n1) and h2 (m2 x n2), on n1 n2 + m1 m2 qubits: the generators are
    the rows of HX = [H1 (x) I | I (x) H2^T] and HZ = [I (x) H2 | H1^T (x) I]."""
    (m1, n1), (m2, n2) = h1.shape, h2.shape
    eye = functools.partial(np.eye, dtype=np.uint8)
    hx = np.hstack([np.kron(h1, eye(n2)), np.kron(eye(m1), h2.T)])
    hz = np.hstack([np.kron(eye(n1), h2), np.kron(h1.T, eye(m2))])
    return dense_code(hx.T, hz.T)


def packed(a) -> BitMatrix:
    """The 0/1 array ``a`` as a packed matrix, from its nonzero positions."""
    a = np.asarray(a)
    return BitMatrix.from_entries(np.nonzero(a), *a.shape)


def padding_ok(m: BitMatrix) -> bool:
    """No set bits beyond the logical column count."""
    if m.cols % 64 == 0 or m.data.size == 0:
        return True
    tail = 64 - (m.cols % 64)
    mask = (~np.uint64(0)) >> np.uint64(tail)
    return bool(np.all(m.data[:, -1] & ~mask == 0))


def reverse_pivot_right_inverse(a) -> BitMatrix:
    """A right inverse of the dense 0/1 matrix ``a`` by Gauss-Jordan with
    its columns scanned last to first: ``gf2.right_inverse`` of the
    column-reversed matrix, with the rows of the result reversed back."""
    r = gf2.right_inverse(packed(np.asarray(a)[:, ::-1]))
    return packed(r.to_dense()[::-1])


def _span_state(n_qubits: int, masks: np.ndarray) -> np.ndarray:
    """Uniform superposition over the XOR span of the uint64 bit masks:
    basis label i XORs masks[j] for every set bit j of i."""
    idx = np.arange(1 << len(masks), dtype=np.uint64)
    labels = np.zeros_like(idx)
    for pos, mask in enumerate(masks):
        labels ^= ((idx >> np.uint64(pos)) & np.uint64(1)) * mask
    vec = np.zeros(1 << n_qubits, dtype=np.float64)
    np.add.at(vec, labels.astype(np.int64), 1.0)
    return vec / np.linalg.norm(vec)


def reference_statevector_check(code: css.CssCode, circ) -> bool:
    """The state-vector oracle with both states dense, the reference for
    ``verify.statevector_check`` (n <= 20): the circuit output, the span of
    the columns of M_c, against the superposition over an independent
    column subset of the X generators, compared by ``np.allclose``."""
    plus = circ.plus_qubits.astype(np.uint64)
    controls, targets = circ.pairs.T.astype(np.uint64)
    columns = np.uint64(1) << plus
    np.bitwise_or.at(columns, np.searchsorted(plus, controls),
                     np.uint64(1) << targets)
    a = code.x_stabs.to_dense()
    bits = a[:, gf2.column_rank_profile(packed(a))].astype(np.uint64)
    shifts = np.arange(code.n_qubits, dtype=np.uint64)[:, None]
    return np.allclose(_span_state(circ.n_qubits, columns),
                       _span_state(code.n_qubits,
                                   np.bitwise_or.reduce(bits << shifts, axis=0)),
                       atol=1e-12)


def circuit_oracle(n_qubits, plus_qubits, gates):
    """The one-layer circuit checks, one qubit and one gate at a time: the
    gates as a tuple of tuples, or ValueError with ``FdscCircuit``'s
    message for the first fault in input order.  The plus qubits come
    first (the register, then the order), then each gate in turn, its
    structure before its order."""
    if not all(0 <= q < n_qubits for q in plus_qubits):
        raise ValueError("plus qubit outside the register")
    for p, q in itertools.pairwise(plus_qubits):
        if p >= q:
            raise ValueError(f"plus qubit {q} repeated" if p == q
                             else f"plus qubit {q} out of increasing order")
    plus, before = set(plus_qubits), None
    for c, t in gates:
        gate = f"gate ({c},{t})"
        if not (0 <= t < n_qubits) or c not in plus or t in plus:
            raise ValueError(f"{gate} breaks the one-layer structure (control "
                             f"in the plus set, target in the register "
                             f"outside it)")
        if before is not None and (c, t) <= before:
            raise ValueError(f"{gate} repeated; equal CX gates cancel"
                             if (c, t) == before
                             else f"{gate} out of increasing order")
        before = (c, t)
    return tuple(map(tuple, gates))
