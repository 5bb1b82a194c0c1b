"""Packed GF(2) linear algebra against dense oracles and spec'd examples."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies

from conftest import (dense_rank, dense_supports, full_reconstruction, packed,
                      padding_ok, reference_eliminate,
                      reverse_pivot_right_inverse)
from fdsc import css, gf2
from fdsc.gf2 import BitMatrix, DimensionMismatch, RankDeficient
from tableau_oracle import EchelonBasis


def test_rank_identity():
    assert gf2.rank(BitMatrix.identity(3)) == 3


def test_bad_shapes_and_entries_raise():
    with pytest.raises(ValueError, match="negative dimensions"):
        BitMatrix(-1, 2)
    for r, c in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError, match="entry out of range"):
            BitMatrix.from_entries(([0, r], [0, c]), 2, 3)
    m = BitMatrix.identity(3)
    for rhs in ([1, 0], [1, 0, 1, 0], [[1, 0, 1]]):
        with pytest.raises(DimensionMismatch, match="rhs length"):
            gf2.solve(m, np.array(rhs, dtype=np.uint8))


def test_rank_duplicate_rows():
    assert gf2.rank(packed([[1, 1], [1, 1]])) == 1


def test_rank_toric_vertex_matrix():
    # product of all vertex operators is the identity: rank = L^2 - 1
    code = css.build_toric(2)
    assert gf2.rank(packed(code.x_stabs.to_dense())) == 3
    assert dense_rank(code.x_stabs.to_dense()) == 3


def test_rank_does_not_mutate_input():
    m = packed([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    before = m.data.copy()
    gf2.rank(m)
    assert np.array_equal(m.data, before)


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rng.integers(1, 40), rng.integers(1, 40)))
    m = packed(a)
    assert gf2.rank(m) == dense_rank(a)
    assert gf2.rank(packed(a.T)) == gf2.rank(m)


@pytest.mark.parametrize("seed", range(6))
def test_rank_invariant_under_permutation(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.integers(0, 2, size=(12, 17))
    r = gf2.rank(packed(a))
    pr = rng.permutation(12)
    pc = rng.permutation(17)
    assert gf2.rank(packed(a[pr][:, pc])) == r


def test_right_inverse_identity():
    r = gf2.right_inverse(BitMatrix.identity(4))
    assert r == BitMatrix.identity(4)


def test_right_inverse_postcondition():
    m = packed([[1, 1, 0], [0, 1, 1]])
    r = gf2.right_inverse(m)
    assert gf2.mul(m, r) == BitMatrix.identity(2)


def test_right_inverse_rank_deficient():
    with pytest.raises(RankDeficient):
        gf2.right_inverse(packed([[1, 1], [1, 1]]))


@pytest.mark.parametrize("seed", range(10))
def test_right_inverse_random_full_rank(seed):
    rng = np.random.default_rng(200 + seed)
    rows = int(rng.integers(1, 12))
    cols = rows + int(rng.integers(0, 12))
    while True:
        a = rng.integers(0, 2, size=(rows, cols))
        if dense_rank(a) == rows:
            break
    m = packed(a)
    for r in (gf2.right_inverse(m), reverse_pivot_right_inverse(a)):
        assert gf2.mul(m, r) == BitMatrix.identity(rows)
        assert padding_ok(r)


def test_mul_identity():
    b = packed([[1, 0, 1], [0, 1, 1]])
    assert gf2.mul(BitMatrix.identity(2), b) == b


def test_mul_mod2():
    a = packed([[1, 1]])
    b = packed([[1], [1]])
    assert gf2.mul(a, b).to_dense().tolist() == [[0]]


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gf2.mul(BitMatrix.identity(2), BitMatrix.identity(3))


def test_mul_toric_column_is_vertex_support():
    # A * (single vertex indicator) = the four edges of that vertex star
    L = 2
    code = css.build_toric(L)
    phi = np.zeros(L * L, dtype=np.uint8)
    phi[1] = 1
    z = (code.x_stabs.to_dense() @ phi) % 2
    assert np.array_equal(z, code.x_stabs.to_dense()[:, 1])
    assert z.sum() == 4


@pytest.mark.parametrize("seed", range(6))
def test_mul_matches_dense(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.integers(0, 2, size=(9, 13))
    b = rng.integers(0, 2, size=(13, 7))
    got = gf2.mul(packed(a), packed(b))
    assert np.array_equal(got.to_dense(), (a @ b) % 2)
    assert padding_ok(got)


def test_solve_identity():
    rhs = np.array([1, 0, 1], dtype=np.uint8)
    x = gf2.solve(BitMatrix.identity(3), rhs)
    assert np.array_equal(x, rhs)


def test_solve_underdetermined():
    a = np.array([[1, 1]], dtype=np.uint8)
    x = gf2.solve(packed(a), np.array([1], dtype=np.uint8))
    assert x is not None and ((a @ x) % 2).tolist() == [1]


def test_solve_no_solution():
    m = BitMatrix(2, 3)
    assert gf2.solve(m, np.array([1, 0], dtype=np.uint8)) is None


@pytest.mark.parametrize("seed", range(8))
def test_solve_random(seed):
    rng = np.random.default_rng(400 + seed)
    a = rng.integers(0, 2, size=(10, 14))
    m = packed(a)
    x0 = rng.integers(0, 2, size=14).astype(np.uint8)
    rhs = (a @ x0) % 2
    x = gf2.solve(m, rhs.astype(np.uint8))
    assert x is not None
    assert np.array_equal((a @ x) % 2, rhs)


def test_nnz():
    assert gf2.nnz(BitMatrix(4, 70)) == 0
    assert gf2.nnz(BitMatrix.identity(5)) == 5


def test_nnz_ghz_reconstruction_column():
    from fdsc import synth
    code = css.build_ghz(4)
    m = synth.build_reconstruction(code, [0])
    assert gf2.nnz(m) == 3   # the column off S: M is the identity on S
    assert full_reconstruction(code, [0], m).tolist() == [[1], [1], [1], [1]]


def test_from_entries_round_trip():
    """Positions as a (rows, cols) pair, in any order; a repeated position
    ORs into the same bit rather than cancelling."""
    rows, cols = [0, 0, 2, 1, 2, 0], [0, 65, 127, 64, 127, 0]
    m = BitMatrix.from_entries((rows, cols), 3, 128)
    d = m.to_dense()
    assert d[rows, cols].all()
    assert d.sum() == 4
    assert padding_ok(m)


@settings(max_examples=200)
@given(data=strategies.data())
def test_positions_round_trip(data):
    """Packing a matrix's own set-bit positions rebuilds it exactly: no
    rows, no columns, and column counts on either side of a word."""
    rows = data.draw(strategies.integers(0, 8))
    cols = data.draw(strategies.one_of(strategies.sampled_from([0, 1, 63, 64, 65, 128]),
                                       strategies.integers(0, 200)))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2 ** 32 - 1)))
    density = data.draw(strategies.sampled_from([0.0, 0.1, 0.5, 1.0]))
    m = packed(rng.random((rows, cols)) < density)
    got = BitMatrix.from_entries(gf2.nonzero(m), m.rows, m.cols)
    assert got == m and padding_ok(got)


@pytest.mark.parametrize("shape", [(5, 70), (40, 1), (3, 128), (6, 0), (0, 9)])
def test_nonzero_matches_dense(shape):
    rng = np.random.default_rng(sum(shape))
    a = (rng.random(shape) < 0.3).astype(np.uint8)
    rows, cols = gf2.nonzero(packed(a))
    want_rows, want_cols = np.nonzero(a)
    assert rows.tolist() == want_rows.tolist()
    assert cols.tolist() == want_cols.tolist()


@settings(max_examples=200)
@given(data=strategies.data())
def test_nonzero_matches_dense_in_row_ranges(data):
    """Rows lo..hi-1 scan as the dense slice does, at absolute row
    indices: column counts across word boundaries (padding columns), and
    rows that are empty, full (every word all ones) or random."""
    rows = data.draw(strategies.integers(0, 8))
    cols = data.draw(strategies.one_of(
        strategies.sampled_from([0, 1, 63, 64, 65, 128, 129]),
        strategies.integers(0, 200)))
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2 ** 32 - 1)))
    kinds = data.draw(strategies.lists(
        strategies.sampled_from(["empty", "full", "random"]),
        min_size=rows, max_size=rows))
    a = np.array([np.zeros(cols) if k == "empty" else np.ones(cols)
                  if k == "full" else rng.random(cols) < 0.3 for k in kinds],
                 dtype=np.uint8).reshape(rows, cols)
    lo = data.draw(strategies.integers(0, rows))
    hi = data.draw(strategies.one_of(strategies.none(),
                                     strategies.integers(lo, rows)))
    event(f"{'padding' if cols % 64 else 'whole words'}, "
          f"{'to the end' if hi is None else 'a range'}")
    m = packed(a)
    got = gf2.nonzero(m, lo, hi) if lo or hi is not None else gf2.nonzero(m)
    want_rows, want_cols = np.nonzero(a[lo:hi])
    assert got[0].tolist() == (want_rows + lo).tolist()
    assert got[1].tolist() == want_cols.tolist()


@pytest.mark.parametrize("shape,density", [((5, 70), 0.3), ((40, 1), 0.5),
                                           ((3, 128), 0.9), ((7, 200), 1.0),
                                           ((6, 0), 0.5), ((0, 9), 0.5)])
def test_row_spread_matches_dense(shape, density):
    """Spreading rows of the qubit x generator matrix through the code's
    transpose (Supports.spread over Supports.transpose; rows may repeat, and
    a row list may be empty) lists each row's set columns as the dense
    matrix does."""
    rng = np.random.default_rng(sum(shape))
    a = (rng.random(shape) < density).astype(np.uint8)
    m = packed(a)
    assert [x.tolist() for x in gf2.nonzero(m)] == [x.tolist() for x in np.nonzero(a)]
    sup = dense_supports(a)
    assert np.array_equal(sup.to_dense(), a)
    by_qubit = sup.transpose()
    assert np.array_equal(by_qubit.to_dense(), a.T)
    repeated = np.repeat(rng.integers(0, shape[0], size=8), 2) if shape[0] else []
    for rows in ([], rng.integers(0, shape[0], size=15) if shape[0] else [],
                 repeated):
        i, cols = by_qubit.spread(rows)
        want = [(k, c) for k, r in enumerate(rows) for c in np.flatnonzero(a[r])]
        assert list(zip(i.tolist(), cols.tolist())) == want


@pytest.mark.parametrize("seed", range(6))
def test_xor_rows_matches_dense(seed):
    """Segments of uneven length (and empty ones), bit flips, and the
    in-place form writing into chosen zero rows of another matrix."""
    rng = np.random.default_rng(900 + seed)
    a = rng.integers(0, 2, size=(11, 70)).astype(np.uint8)
    n = 6
    seg = np.sort(rng.integers(0, n, size=14))
    src = rng.integers(0, 11, size=14)
    flips = (rng.integers(0, n, size=5), rng.integers(0, 70, size=5))
    want = np.zeros((n, 70), dtype=np.uint8)
    for i, r in zip(seg, src):
        want[i] ^= a[r]
    for i, c in zip(*flips):
        want[i, c] ^= 1
    got = gf2.xor_rows(packed(a), seg, src, n, flips)
    assert np.array_equal(got.to_dense(), want) and padding_ok(got)
    dst = rng.permutation(9)[:n]
    out = gf2.xor_rows(packed(a), seg, src, flips=flips,
                       out=BitMatrix(9, 70), dst=dst)
    assert np.array_equal(out.to_dense()[dst], want)
    assert not np.delete(out.to_dense(), dst, axis=0).any()


@pytest.mark.parametrize("n,k,m", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0),
                                   (9, 70, 130), (70, 1, 65), (4, 64, 64)])
def test_mul_shapes_match_dense(n, k, m):
    rng = np.random.default_rng(n + k + m)
    a = rng.integers(0, 2, size=(n, k))
    b = rng.integers(0, 2, size=(k, m))
    got = gf2.mul(packed(a), packed(b))
    assert (got.rows, got.cols) == (n, m)
    assert np.array_equal(got.to_dense(), (a @ b) % 2)
    assert padding_ok(got)


def test_transpose_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=(5, 70))
    t = packed(packed(a).to_dense().T)
    assert np.array_equal(t.to_dense(), a.T)
    assert padding_ok(t)


def test_row_rank_profile_prefix_property():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, size=(20, 8))
    profile = gf2.row_rank_profile(packed(a.T))
    # each selected row increases the rank of the prefix
    for k in range(1, len(profile) + 1):
        assert dense_rank(a[profile[:k]]) == k
    assert len(profile) == dense_rank(a)


@pytest.mark.parametrize("seed", range(4))
def test_row_rank_profile_follows_scan_order(seed):
    """The greedy scan in a shuffled order keeps exactly the rows that
    raise the rank of the rows kept before them."""
    rng = np.random.default_rng(40 + seed)
    a = rng.integers(0, 2, size=(30, 70)) * (rng.random((30, 1)) < 0.7)
    order = rng.permutation(30).tolist()
    kept = []
    for r in order:
        if dense_rank(a[kept + [r]]) > len(kept):
            kept.append(r)
    assert gf2.row_rank_profile(packed(a.T), order) == kept


def test_column_rank_profile_lex_first():
    a = np.array([[1, 1, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0]])
    assert gf2.column_rank_profile(packed(a)) == [0, 3]


@pytest.mark.parametrize("seed", range(5))
def test_echelon_basis_decompose(seed):
    rng = np.random.default_rng(500 + seed)
    rows = rng.integers(0, 2, size=(10, 12)).astype(np.uint8)
    basis = EchelonBasis(12)
    for r in rows:
        basis.add(r)
    assert basis.rank == dense_rank(rows)
    combo_idx = rng.choice(10, size=4, replace=False)
    target = np.bitwise_xor.reduce(rows[combo_idx], axis=0)
    got = basis.decompose(target)
    assert got is not None
    assert np.array_equal(np.bitwise_xor.reduce(rows[got], axis=0), target)
    outside = np.ones(12, dtype=np.uint8)
    if dense_rank(np.vstack([rows, outside])) > basis.rank:
        assert basis.decompose(outside) is None


def test_zero_dimension_edge_cases():
    empty = BitMatrix(4, 0)
    assert gf2.rank(empty) == 0
    assert gf2.nnz(empty) == 0
    wide = BitMatrix(0, 7)
    assert gf2.rank(wide) == 0
    r = gf2.right_inverse(wide)
    assert (r.rows, r.cols) == (7, 0)


@strategies.composite
def elimination_inputs(draw):
    """Packed words and a pivot-column order: 0-200 rows, column counts
    across the 64- and 128-bit word boundaries, densities from a few bits
    a row to dense, some of low rank; orders by index, permuted, with
    repeated columns, or with the last word's padding columns mixed in."""
    rows = draw(strategies.integers(0, 200))
    cols = draw(strategies.one_of(strategies.sampled_from([1, 63, 64, 65, 127, 128, 129]),
                                  strategies.integers(0, 200)))
    rng = np.random.default_rng(draw(strategies.integers(0, 2 ** 32 - 1)))
    density = draw(strategies.sampled_from(["lattice", "sparse", "half", "full"]))
    if density == "lattice":   # a few bits a row, like a lattice code's
        a = np.zeros((rows, cols), dtype=np.uint8)
        if cols:
            a[np.arange(rows)[:, None], rng.integers(0, cols, (rows, 4))] = 1
    else:
        a = rng.random((rows, cols)) < {"sparse": 0.05, "half": 0.5, "full": 0.95}[density]
    if draw(strategies.booleans()):   # rank at most 8: most columns dependent
        a = (rng.integers(0, 2, (rows, 8)) @ a[:8]) % 2 if rows >= 8 else a
    kind = draw(strategies.sampled_from(["index", "permutation", "repeats", "padding"]))
    order = {"index": np.arange(cols), "permutation": rng.permutation(cols),
             "repeats": rng.integers(0, max(cols, 1), 2 * cols),
             "padding": rng.permutation(-(-cols // 64) * 64)}[kind]
    event(f"{density} {kind}")
    return packed(a).data, [int(c) for c in order]


@settings(max_examples=300)
@given(case=elimination_inputs(), reduced=strategies.booleans())
def test_eliminate_matches_reference_kernel(case, reduced):
    """The one-scan kernel returns the same pivots and leaves the same
    words as the two-scan reference kernel."""
    data, order = case
    got, want = data.copy(), data.copy()
    assert gf2._eliminate(got, order, reduced) == reference_eliminate(want, order, reduced)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("run", [
    gf2.rank, gf2.row_rank_profile, gf2.column_rank_profile, gf2.right_inverse,
    lambda m: gf2.solve(m, np.array([1, 0, 1], dtype=np.uint8))],
    ids=["rank", "row_rank_profile", "column_rank_profile", "right_inverse", "solve"])
def test_elimination_goes_through_the_module_kernel(monkeypatch, run):
    """Every elimination calls ``gf2._eliminate`` once, looked up as a
    module global, so a wrapper bound there sees every call."""
    calls = []
    kernel = gf2._eliminate

    def counted(data, *args, **kwargs):
        calls.append(data.shape)
        return kernel(data, *args, **kwargs)

    monkeypatch.setattr(gf2, "_eliminate", counted)
    run(packed([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0]]))
    assert len(calls) == 1
