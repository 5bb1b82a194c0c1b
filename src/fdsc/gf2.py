"""Bit-packed dense linear algebra over GF(2): elimination (rank, rank
profiles, right inverse, solve), the product, row XORs by position and
set-bit scans.  Packed matrices only: sparse row-grouped lists and codes
live in ``css``, which packs a code's supports only where elimination runs.
Every elimination is one kernel, ``_eliminate``, reached as a module
global; it scans each pivot column once, and that one scan finds both the
pivot and the rows it clears.

Matrices are stored row-major as numpy uint64 words, 64 bits per word,
little-endian within each word.  Padding bits beyond ``cols`` in the last
word of each row are kept at zero by every operation.  All public
operations work on copies; no input is mutated, except the ``out`` matrix
that ``xor_rows`` is asked to write into and the matrix that
``row_rank_profile`` (also ``column_rank_profile``) eliminates in place.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

WORD = 64
_BIT = np.uint64(1) << np.arange(WORD, dtype=np.uint64)   # _BIT[b]: bit b alone


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class RankDeficient(ValueError):
    """A full-row-rank matrix was required."""


def _words(cols: int) -> int:
    return (cols + WORD - 1) // WORD


class BitMatrix:
    """Dense GF(2) matrix with 64-bit packed rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.data = np.zeros((rows, _words(cols)), dtype=np.uint64)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_entries(np.repeat(np.arange(n), 2).reshape(n, 2), n, n)

    @classmethod
    def from_dense(cls, arr) -> "BitMatrix":
        a = np.atleast_2d(np.asarray(arr, dtype=np.uint8) & 1)
        rows, cols = a.shape
        m = cls(rows, cols)
        if cols:
            padded = np.zeros((rows, _words(cols) * WORD), dtype=np.uint8)
            padded[:, :cols] = a
            m.data = np.packbits(padded, axis=1, bitorder="little").view(
                np.uint64).reshape(rows, _words(cols)).copy()
        return m

    @classmethod
    def from_entries(cls, entries: Sequence[tuple[int, int]], rows: int,
                     cols: int) -> "BitMatrix":
        """Build from (row, col) positions of the 1-bits (duplicates OR together)."""
        m = cls(rows, cols)
        if not len(entries):
            return m
        e = np.asarray(entries, dtype=np.int64)
        if e[:, 0].min() < 0 or e[:, 0].max() >= rows \
                or e[:, 1].min() < 0 or e[:, 1].max() >= cols:
            raise IndexError("entry out of range")
        words = _words(cols)
        flat = e[:, 0] * words + (e[:, 1] >> 6)
        bits = np.uint64(1) << (e[:, 1] & 63).astype(np.uint64)
        np.bitwise_or.at(m.data.reshape(-1), flat, bits)
        return m

    # -- conversions ---------------------------------------------------

    def to_dense(self) -> np.ndarray:
        if self.cols == 0:
            return np.zeros((self.rows, 0), dtype=np.uint8)
        bits = np.unpackbits(self.data.view(np.uint8), axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, :self.cols])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.rows == other.rows
                and self.cols == other.cols and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


# -- elimination core ----------------------------------------------------


def _eliminate(data: np.ndarray, col_order: Iterable[int], reduced: bool = False):
    """In-place Gaussian elimination over the given pivot-column order.

    Returns a list of (pivot_row, pivot_col) in elimination order.  Rows at
    and above previously placed pivots are only touched when ``reduced``.

    One scan of the pivot column below the placed pivots finds both the
    pivot row p (the first hit) and the rows it clears (the other hits):
    row r, swapped down into p, held a 0 there, so the swap moves no hit.
    ``reduced`` adds one scan of the rows above.
    """
    nrows = data.shape[0]
    pivots = []
    r = 0
    for col in col_order:
        if r == nrows:
            break
        w, bit = col >> 6, _BIT[col & 63]
        nz = (data[r:, w] & bit).nonzero()[0]
        if not nz.size:
            continue
        p = r + nz[0]
        if p != r:
            row = data[p].copy()
            data[p] = data[r]
            data[r] = row
        hits = r + nz[1:]
        if reduced and r:
            hits = np.concatenate(((data[:r, w] & bit).nonzero()[0], hits))
        if hits.size:
            data[hits] ^= data[r]
        pivots.append((r, col))
        r += 1
    return pivots


def rank(m: BitMatrix) -> int:
    """Dimension of the image, by Gaussian elimination on a working copy."""
    return len(_eliminate(m.data.copy(), range(m.cols)))


def row_rank_profile(m: BitMatrix, order: Optional[Sequence[int]] = None) -> list[int]:
    """Row indices of m^T forming its first independent row set in the given
    scan order (default index order, which gives m's column rank profile,
    ``column_rank_profile``): each row independent of the rows kept before
    it.  Those rows are columns of ``m``, so the scan is one elimination
    of ``m`` itself, in place, in that column order.
    """
    return [col for _, col in _eliminate(m.data,
                                         range(m.cols) if order is None else order)]


column_rank_profile = row_rank_profile


def mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.cols} != {b.rows}")
    return xor_rows(b, *nonzero(a), a.rows)


def nonzero(m: BitMatrix, lo: int = 0,
            hi: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the set bits in rows lo..hi-1 (all rows
    by default), in row-major order.

    One flat scan of those rows' packed words finds the nonzero words, and
    a divmod of their flat positions gives rows and word offsets.  Then
    only nonzero words are visited, once per set bit (lowest bit first),
    so the rest of the work follows nnz rather than rows x cols.
    """
    words = m.data[lo:hi].reshape(-1)
    at = np.flatnonzero(words)
    vals = words[at]
    rows, base = np.divmod(at, m.data.shape[1])
    rows += lo
    base *= WORD
    count = np.bitwise_count(vals)
    cols = np.empty(int(count.sum()), dtype=np.int64)
    pos = np.cumsum(count) - count
    while vals.size:
        low = vals & -vals
        cols[pos] = base + np.bitwise_count(low - 1)
        vals ^= low
        keep = vals != 0
        vals, pos, base = vals[keep], pos[keep] + 1, base[keep]
    return np.repeat(rows, count), cols


def xor_rows(m: BitMatrix, seg, src, n: int = 0, flips=None,
             out: Optional[BitMatrix] = None, dst=None) -> BitMatrix:
    """Row i: the XOR of rows src[j] of m over every j with seg[j] == i
    (seg nondecreasing), with bit c flipped for each pair (i, c) in
    ``flips``, for i in range(n).  Given ``out``, row i is written to out's
    row dst[i] in place instead (those rows must be zero) and out is
    returned.
    """
    if out is None:
        out, dst = BitMatrix(n, m.cols), np.arange(n)
    seg, src = np.asarray(seg), np.asarray(src)
    if seg.size:
        # rank by rank over segments sorted longest first: one gather per
        # rank into a prefix of the accumulator, faster than reduceat
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        lens = np.diff(starts, append=seg.size)
        by_len = np.argsort(-lens, kind="stable")
        starts, lens = starts[by_len], lens[by_len]
        acc = m.data[src[starts]]
        # segments longer than k, for k = 1, 2, ...: a prefix, by the sort
        for k, live in enumerate(np.searchsorted(-lens, -np.arange(1, lens[0])), 1):
            acc[:live] ^= m.data[src[starts[:live] + k]]
        out.data[dst[seg[starts]]] = acc
    if flips is not None:
        i, c = flips
        flat = dst[i] * out.data.shape[1] + (c >> 6)
        bits = np.uint64(1) << (c & 63).astype(np.uint64)
        np.bitwise_xor.at(out.data.reshape(-1), flat, bits)
    return out


def nnz(m: BitMatrix) -> int:
    """Number of set bits (padding excluded by construction)."""
    return int(np.bitwise_count(m.data).sum())


def right_inverse(m: BitMatrix) -> BitMatrix:
    """Any R with m @ R = I, via Gauss-Jordan with column pivoting.
    Raises RankDeficient unless m has full row rank.
    """
    # [m | I] with the identity starting at a word boundary
    aug = np.hstack([m.data, BitMatrix.identity(m.rows).data])
    pivots = _eliminate(aug, range(m.cols), reduced=True)
    if len(pivots) < m.rows:
        raise RankDeficient(f"rank {len(pivots)} < {m.rows} rows")
    out = BitMatrix(m.cols, m.rows)
    off = _words(m.cols)
    for prow, pcol in pivots:
        out.data[pcol] = aug[prow, off:]
    return out


def solve(m: BitMatrix, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Any x with m @ x = rhs, or None if no solution exists."""
    rhs = np.asarray(rhs, dtype=np.uint8) & 1
    if rhs.shape != (m.rows,):
        raise DimensionMismatch(f"rhs length {rhs.shape} != {m.rows}")
    wl = _words(m.cols)
    aug = np.hstack([m.data, rhs.astype(np.uint64)[:, None]])
    pivots = _eliminate(aug, range(m.cols), reduced=True)
    npiv = len(pivots)
    if np.any(aug[npiv:, wl]):
        return None
    x = np.zeros(m.cols, dtype=np.uint8)
    for prow, pcol in pivots:
        x[pcol] = int(aug[prow, wl])
    return x

