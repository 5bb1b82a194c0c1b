"""Subset selection, reconstruction, emission, and the cubic-code potential."""

import collections
import hashlib
import json
import random
import re
import sys
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies

from conftest import (circuit_oracle, dense_code, dense_nullspace, dense_rank,
                      dense_reconstruction, full_reconstruction, hgp_code,
                      packed, random_css_code, regular_checks,
                      reverse_pivot_right_inverse, seed_profile)
from fdsc import css, gf2, synth
from fdsc.gf2 import BitMatrix
from fdsc.synth import (FdscCircuit, IncompatibleStrategy, InvalidSubset,
                        SizeNotPowerOfTwo, build_reconstruction, emit_circuit,
                        greedy_select, synthesize, tree_select)


def test_greedy_ghz_deterministic():
    s = greedy_select(css.build_ghz(4))
    assert s.dtype == np.int64 and s.tolist() == [0]


def test_greedy_toric_l2():
    code = css.build_toric(2)
    s = greedy_select(code)
    assert len(s) == 3
    build_reconstruction(code, s)


def test_greedy_no_x_stabilizers():
    code = dense_code(np.zeros((2, 0)), [[1], [1]])
    assert greedy_select(code).tolist() == []


@pytest.mark.parametrize("seed", range(12))
def test_greedy_seeded_satisfies_conditions(seed):
    rng = np.random.default_rng(seed)
    code = random_css_code(rng)
    s = greedy_select(code, seed=seed)
    assert len(s) == gf2.rank(packed(code.x_stabs.to_dense()))
    build_reconstruction(code, s)


def test_tree_select_comb_l2():
    code = css.build_toric(2)
    s = tree_select(code, "toric_comb")
    assert len(s) == 3
    build_reconstruction(code, s)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_comb_is_spanning_tree(L):
    code = css.build_toric(L)
    s = tree_select(code, "toric_comb")
    assert len(s) == L * L - 1
    build_reconstruction(code, s)


@pytest.mark.parametrize("L", [2, 4, 8, 16])
def test_recursive_is_spanning_tree(L):
    code = css.build_toric(L)
    s = tree_select(code, "toric_recursive")
    assert len(s) == L * L - 1


def test_recursive_rejects_non_power_of_two():
    with pytest.raises(SizeNotPowerOfTwo):
        tree_select(css.build_toric(3), "toric_recursive")


def test_haah_canonical_size():
    code = css.build_haah(2)
    s = tree_select(code, "haah_canonical")
    assert len(s) == 8


def test_strategy_family_mismatch():
    with pytest.raises(IncompatibleStrategy):
        tree_select(css.build_ghz(4), "toric_comb")
    with pytest.raises(IncompatibleStrategy):
        synthesize(css.build_toric(2), "haah_canonical")
    with pytest.raises(IncompatibleStrategy):
        synthesize(css.build_toric(2), "no_such_strategy")


@pytest.mark.parametrize("L", [2, 3])
def test_xcube_subset_conditions(L):
    code = css.build_xcube(L)
    s = tree_select(code, "xcube_dual_trees")
    build_reconstruction(code, s)


@pytest.mark.parametrize("L", range(2, 9))
def test_xcube_subset_closed_form(L):
    # the seeds the rank repair keeps: both in-plane coordinates below L - 1,
    # |S| = (L - 1)^2 (L + 2) = rank(A), log2 GSD = 6L - 3 for X-cube
    r = range(L - 1)
    want = sorted([css.qubit_index("xcube", L, x, y, z, 2) for x in r for y in r
                   for z in range(L)]
                  + [css.qubit_index("xcube", L, 0, y, z, 0) for y in r for z in r]
                  + [css.qubit_index("xcube", L, x, 0, z, 1) for x in r for z in r])
    s = tree_select(css.build_xcube(L), "xcube_dual_trees")
    assert s.dtype == np.int64 and s.tolist() == want
    assert len(s) == (L - 1) ** 2 * (L + 2)


@pytest.mark.parametrize("L", range(2, 13))
def test_xcube_subset_is_the_seed_profile_of_all_of_a(L):
    # eliminating A restricted to the sorted seeds keeps the seeds that the
    # whole packed A, eliminated over the sorted seeds alone, keeps
    code = css.build_xcube(L)
    v, h = np.indices((L, L, L)).reshape(3, -1), np.indices((L, L)).reshape(2, -1)
    seeds = np.sort(np.concatenate((css.qubit_index("xcube", L, *v, 2),
                                    css.qubit_index("xcube", L, 0, *h, 0),
                                    css.qubit_index("xcube", L, h[0], 0, h[1], 1))))
    assert synth.xcube_dual_qubits(code).tolist() == seed_profile(code, seeds)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("case", range(6))
def test_greedy_keeps_the_qubits_that_raise_the_rank(case, seed):
    """Greedy in its scan order (index order, or the seeded shuffle) keeps
    exactly the qubits whose A-row raises the rank of those kept, on codes
    with repeated and dependent X generators and qubits in no X generator."""
    rng = np.random.default_rng(3400 + case)
    n = int(rng.integers(4, 25))
    live = rng.permutation(n)[:int(rng.integers(2, n))]   # the rest: in no X generator
    a = np.zeros((n, int(rng.integers(2, 6))), dtype=np.uint8)
    a[live] = rng.random((live.size, a.shape[1])) < 0.4
    a[live[0]] = 1   # no empty generator
    a = np.column_stack([a, a[:, 0], a[:, 0] ^ a[:, 1]])
    a = a[:, a.any(axis=0)]
    code = dense_code(a, dense_nullspace(a.T).T)
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    kept = []
    for q in order:
        if dense_rank(a[kept + [q]]) > len(kept):
            kept.append(q)
    assert dense_rank(a) < a.shape[1] and not a.any(axis=1).all()   # as drawn
    assert greedy_select(code, seed).tolist() == sorted(kept)


def test_reconstruction_ghz_all_ones():
    code = css.build_ghz(4)
    m = build_reconstruction(code, [0])
    assert m.to_dense().T.tolist() == [[1], [1], [1]]
    assert full_reconstruction(code, [0], m).tolist() == [[1], [1], [1], [1]]


@pytest.mark.parametrize("seed", range(8))
def test_reconstruction_unit_rows_on_s(seed):
    # the rows off S, completed by unit rows on S, solve M pi_S A = A
    rng = np.random.default_rng(50 + seed)
    code = random_css_code(rng)
    s = greedy_select(code)
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    a = code.x_stabs.to_dense()
    assert np.array_equal(m[s], np.eye(len(s), dtype=np.uint8))
    assert np.array_equal(m.astype(np.int64) @ a[s] % 2, a)


@pytest.mark.parametrize("family,size,strategy", [
    ("ghz", 5, "greedy"), ("toric", 4, "toric_comb"),
    ("toric", 4, "toric_recursive"), ("xcube", 3, "xcube_dual_trees"),
    ("haah", 3, "haah_canonical"), ("hgp", 8, "greedy"), ("trivial", 3, "greedy")])
def test_reconstruction_shape_is_s_by_the_rest(family, size, strategy):
    if family == "trivial":
        code = dense_code(np.zeros((size, 0)), np.ones((size, 1)))
        s = greedy_select(code)
        mt = build_reconstruction(code, s)
    else:
        code, s, mt = subset_and_reconstruction(family, size, strategy)
    assert (mt.rows, mt.cols) == (len(s), code.n_qubits - len(s))


def test_reconstruction_image_equals_code_image():
    code = css.build_toric(2)
    s = greedy_select(code)
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    a = code.x_stabs.to_dense()
    stacked = np.hstack([m, a])
    assert dense_rank(stacked) == dense_rank(a) == dense_rank(m)


def test_reconstruction_rejects_bad_subset():
    code = css.build_toric(2)
    with pytest.raises(InvalidSubset):
        build_reconstruction(code, [0, 1])


def right_inverse_products(code, s):
    """Dense A (pi_S A)^+ for both pivot orders of the right inverse."""
    a = code.x_stabs.to_dense()
    return [gf2.mul(packed(a), r).to_dense()
            for r in (gf2.right_inverse(packed(a[s])),
                      reverse_pivot_right_inverse(a[s]))]


@pytest.mark.parametrize("seed", range(10))
def test_reconstruction_pivot_order_independent(seed):
    rng = np.random.default_rng(800 + seed)
    code = random_css_code(rng)
    s = greedy_select(code)
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    for product in right_inverse_products(code, s):
        assert np.array_equal(m, product)


def test_solve_matches_dense_oracle(monkeypatch):
    """Random codes with greedy subsets, as chosen or with a member
    dropped, swapped or added: InvalidSubset is raised exactly when a rank
    condition fails, and a valid M equals A R.  The
    peel stalls on some codes, so the dense core runs on valid and on
    perturbed subsets alike."""
    runs = collections.Counter()
    right_inverse = gf2.right_inverse

    def counted(*args, **kwargs):
        runs["right_inverse"] += 1
        return right_inverse(*args, **kwargs)

    monkeypatch.setattr(gf2, "right_inverse", counted)

    @settings(max_examples=200)
    @given(seed=strategies.integers(0, 2 ** 32 - 1),
           change=strategies.sampled_from(["none", "drop", "swap", "add"]),
           pick=strategies.integers(0, 2 ** 16))
    def check(seed, change, pick):
        code = random_css_code(np.random.default_rng(seed))
        a = code.x_stabs.to_dense()
        qubits = greedy_select(code).tolist()
        others = [q for q in range(code.n_qubits) if q not in qubits]
        if change in ("drop", "swap") and qubits:
            removed = qubits.pop(pick % len(qubits))
            if change == "swap":
                qubits.append(others[pick % len(others)] if others else removed)
        elif change == "add" and others:
            qubits.append(others[pick % len(others)])
        s = sorted(qubits)
        valid = dense_rank(a[s]) == len(s) == dense_rank(a)
        before = runs["right_inverse"]
        try:
            m = full_reconstruction(code, s, build_reconstruction(code, s))
        except InvalidSubset:
            m = None
        if runs["right_inverse"] > before:
            runs["core, valid" if valid else "core, invalid"] += 1
        assert (m is not None) == valid
        if valid:
            assert np.array_equal(m, dense_reconstruction(a, s))

    check()
    assert runs["core, valid"] >= 15 and runs["core, invalid"] >= 15, runs


@pytest.mark.parametrize("family,size,strategy", [
    ("toric", 16, "greedy"), ("xcube", 4, "xcube_dual_trees"),
    ("haah", 4, "haah_canonical")])
def test_family_reconstruction_equals_right_inverse_product(family, size,
                                                            strategy):
    # toric comb and recursive trees: test_toric_tree_path_equals_generic
    code = css.build_family(family, size)
    s = greedy_select(code) if strategy == "greedy" else tree_select(code, strategy)
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    for product in right_inverse_products(code, s):
        assert np.array_equal(m, product)


@pytest.mark.parametrize("L,strategy", [(2, "toric_comb"), (4, "toric_comb"),
                                        (4, "toric_recursive"),
                                        (8, "toric_recursive"),
                                        (8, "greedy"), (16, "toric_comb"),
                                        (16, "toric_recursive")])
def test_toric_tree_path_equals_generic(L, strategy):
    code = css.build_toric(L)
    s = greedy_select(code) if strategy == "greedy" else tree_select(code, strategy)
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    for product in right_inverse_products(code, s):
        assert np.array_equal(m, product)


@pytest.mark.parametrize("block", [1, 3, 1 << 40])
def test_reconstruction_is_the_product_off_s(monkeypatch, block):
    # M off S, and the gates read off it, equal the rows off S of
    # A (pi_S A)^+, on random codes and on a hypergraph product whose peel
    # stalls, at every block size
    monkeypatch.setattr(css, "BLOCK", block)
    cores, right_inverse = [], gf2.right_inverse
    monkeypatch.setattr(gf2, "right_inverse",
                        lambda m: cores.append(m.rows) or right_inverse(m))
    rng = np.random.default_rng(32)
    codes = [random_css_code(rng) for _ in range(12)]
    codes.append(hgp_code(regular_checks(rng, 12), regular_checks(rng, 12)))
    for code in codes:
        s = greedy_select(code)
        a = code.x_stabs.to_dense()
        off = np.delete(np.arange(code.n_qubits), s)
        want = gf2.mul(packed(a), right_inverse(packed(a[s]))).to_dense()[off]
        cores.clear()
        mt = build_reconstruction(code, s)
        assert np.array_equal(mt.to_dense().T, want)
        targets, controls = np.nonzero(want)
        gates = sorted(zip(s[controls].tolist(), off[targets].tolist()))
        assert emit_circuit(code, s, mt).gates == tuple(gates)
    assert sum(cores) >= len(s) / 2   # the hypergraph product's core


@pytest.mark.parametrize("family,size,strategy", [
    ("toric", 4, "toric_comb"), ("toric", 5, "greedy"),
    ("xcube", 2, "xcube_dual_trees"), ("haah", 2, "haah_canonical")])
def test_emit_matches_dense_scan(family, size, strategy):
    code = css.build_family(family, size)
    s = greedy_select(code) if strategy == "greedy" else tree_select(code, strategy)
    m = build_reconstruction(code, s)
    want = sorted((s[col], q) for q, col
                  in np.argwhere(full_reconstruction(code, s, m)) if q not in s)
    circ = emit_circuit(code, s, m)
    assert circ.gates == tuple(want)
    assert all(type(q) is int for g in circ.gates for q in g)


@pytest.mark.parametrize("qubits", [(3, 1), (1, 1), (0, 2, 2)])
def test_subset_rejects_unsorted_or_repeated(qubits):
    with pytest.raises(InvalidSubset):
        build_reconstruction(css.build_toric(2), qubits)


def test_subset_rejects_valid_members_out_of_order():
    code = css.build_toric(2)
    s = tree_select(code, "toric_comb")
    build_reconstruction(code, s)
    for bad in (s[::-1], np.concatenate((s[1:2], s[:1], s[2:]))):
        with pytest.raises(InvalidSubset, match="increase strictly"):
            build_reconstruction(code, bad)


def test_circuit_keeps_its_own_plus_qubits():
    code = css.build_toric(3)
    s = greedy_select(code)
    circ = emit_circuit(code, s, build_reconstruction(code, s))
    want = s.tolist()
    s[0] = 99
    assert circ.plus_qubits.tolist() == want


def test_explicit_rejects_repeated_or_outside_qubits():
    code = css.build_toric(2)
    s = tree_select(code, "toric_comb").tolist()
    for bad in (s + [s[0]], [-1] + s[1:], s[:-1] + [code.n_qubits]):
        with pytest.raises(InvalidSubset):
            build_reconstruction(code, sorted(bad))


@pytest.mark.parametrize("s", [[0.9], np.array([0.0]), [True], [0, 1.0],
                               [0, True], (np.False_, 1)])
def test_reconstruction_rejects_non_integers(s):
    # floats and booleans are rejected, never truncated to a subset
    with pytest.raises(InvalidSubset, match="must be integers"):
        build_reconstruction(css.build_ghz(3), s)


def test_reconstruction_takes_any_integer_dtype_or_empty_input():
    code = css.build_ghz(3)
    want = build_reconstruction(code, [0]).to_dense()
    got = build_reconstruction(code, np.array([0], dtype=np.uint8)).to_dense()
    assert np.array_equal(got, want)
    trivial = dense_code(np.zeros((2, 0)), [[1], [1]])
    mt = build_reconstruction(trivial, np.array([]))
    assert (mt.rows, mt.cols) == (0, 2)


def test_builtin_subset_failing_rank_conditions_is_internal_error(monkeypatch):
    monkeypatch.setitem(synth.LATTICE, "toric_comb",
                        ("toric", lambda code: np.array([0, 1])))
    with pytest.raises(synth.InternalInvariantViolation):
        synthesize(css.build_toric(2), "toric_comb")


def test_emit_ghz_gates():
    code = css.build_ghz(4)
    circ = synthesize(code, "greedy")
    assert circ.gates == ((0, 1), (0, 2), (0, 3))
    assert circ.plus_qubits.tolist() == [0]


def test_emit_trivial_code():
    code = dense_code(np.zeros((3, 0)), [[1], [1], [0]])
    circ = synthesize(code, "greedy")
    assert circ.gates == () and circ.plus_qubits.tolist() == []


def test_emit_gate_count_matches_nnz():
    code = css.build_toric(2)
    s = tree_select(code, "toric_comb")
    m = build_reconstruction(code, s)
    circ = emit_circuit(code, s, m)
    assert len(circ.pairs) == gf2.nnz(m)
    assert len(circ.pairs) == int(full_reconstruction(code, s, m).sum()) - len(s)


def test_gate_count_ghz():
    for n in (2, 5, 9):
        assert len(synthesize(css.build_ghz(n), "greedy").pairs) == n - 1


def test_comb_vs_recursive_both_computed():
    code = css.build_toric(4)
    comb = len(synthesize(code, "toric_comb").pairs)
    rec = len(synthesize(code, "toric_recursive").pairs)
    assert comb > 0 and rec > 0


def test_circuit_structure_invariants():
    code = css.build_toric(3)
    circ = synthesize(code, "toric_comb")
    plus = set(circ.plus_qubits)
    assert all(c in plus and t not in plus for c, t in circ.gates)
    assert list(circ.gates) == sorted(circ.gates)
    assert len(circ.pairs) <= code.n_qubits * len(plus)


def test_explicit_strategy():
    code = css.build_toric(2)
    s = tree_select(code, "toric_comb")
    circ = emit_circuit(code, s, build_reconstruction(code, s))
    assert len(circ.pairs) == len(synthesize(code, "toric_comb").pairs)
    with pytest.raises(InvalidSubset):
        build_reconstruction(code, [0, 1])


def test_greedy_restarts_deterministic():
    code = css.build_toric(3)
    c1 = synthesize(code, "greedy", seed=0, restarts=5)
    c2 = synthesize(code, "greedy", seed=0, restarts=5)
    assert c1 == c2
    best = min(len(synthesize(code, "greedy", seed=k).pairs) for k in range(5))
    assert len(c1.pairs) == best
    # seeds 0-2 on toric L=4: seeds 1 and 2 tie on the fewest gates
    code = css.build_toric(4)
    counts = [len(synthesize(code, "greedy", seed=k).pairs) for k in range(3)]
    tied = [k for k, count in enumerate(counts) if count == min(counts)]
    assert len(tied) > 1 and tied[0] > 0
    circ = synthesize(code, "greedy", seed=0, restarts=3)
    assert len(circ.pairs) == min(counts) and circ.metadata["seed"] == tied[0]


def test_fdsc_circuit_rejects_bad_gate():
    with pytest.raises(ValueError):
        FdscCircuit(3, (0,), ((1, 2),))
    with pytest.raises(ValueError):
        FdscCircuit(3, (0, 1), ((0, 1),))
    with pytest.raises(ValueError):
        FdscCircuit(3, (0,), ((0, 7),))
    with pytest.raises(ValueError):
        FdscCircuit(2, (5,), ())
    with pytest.raises(ValueError, match=r"gate \(0,1\) repeated"):
        FdscCircuit(3, (0,), ((0, 1), (0, 1), (0, 2)))
    with pytest.raises(ValueError, match=r"gate \(0,1\) out of increasing order"):
        FdscCircuit(3, (0,), ((0, 2), (0, 1)))
    with pytest.raises(ValueError, match=r"gate \(0,2\) out of increasing order"):
        FdscCircuit(3, (0, 1), ((1, 2), (0, 2)))
    with pytest.raises(ValueError, match="plus qubit 0 out of increasing order"):
        FdscCircuit(3, (1, 0), ())
    with pytest.raises(ValueError, match="plus qubit 1 repeated"):
        FdscCircuit(3, (1, 1), ())
    circ = FdscCircuit(3, [0], [(0, 1)])
    assert not circ.plus_qubits.flags.writeable and not circ.pairs.flags.writeable


@pytest.mark.parametrize("plus, gates", [
    ([0.5], [(0.2, 1.9)]),             # truncation would give plus [0], gate (0,1)
    (np.array([0.0]), []),
    ([0], np.array([[0.0, 1.0]])),
    ([0], [(0, 1.0)]),
    ([True], []),
    (np.array([0], dtype=object), [(0, 1.5)]),
    ([0], [(0, True)]),                # booleans beside integers: gate (0,1)
    ([0, True], []),
    ([0], [np.array([0, 1]), (np.int64(0), np.True_)])])
def test_fdsc_circuit_rejects_non_integers(plus, gates):
    with pytest.raises(ValueError, match="must be integers"):
        FdscCircuit(3, plus, gates)


def test_fdsc_circuit_takes_any_integer_dtype_or_empty_input():
    circ = FdscCircuit(3, np.array([0], dtype=np.uint16),
                       np.array([[0, 2]], dtype=np.int8))
    assert circ == FdscCircuit(3, [0], [(0, 2)])
    assert circ.pairs.dtype == circ.plus_qubits.dtype == np.int64
    empty = FdscCircuit(3, np.array([]), np.array([]))
    assert empty.gates == () and empty.plus_qubits.dtype == np.int64
    with pytest.raises(OverflowError):
        FdscCircuit(3, [0], [(0, 2 ** 70)])


@strategies.composite
def circuit_inputs(draw):
    """n <= 12, plus lists with repeats and out-of-range entries, and gate
    lists with repeats, out-of-range qubits and controls or targets on the
    wrong side of the plus set.  Both lists are drawn sorted, the order
    ``FdscCircuit`` requires; as a mutation, one of them is then shuffled."""
    n = draw(strategies.integers(0, 12))
    qubit = strategies.integers(-2, n + 1)
    stray_plus, stray = draw(strategies.sampled_from(
        [(False, False)] * 4 + [(False, True), (True, False), (True, True)]))
    plus = sorted(draw(strategies.lists(qubit, max_size=n + 2) if stray_plus else
                       strategies.lists(strategies.integers(0, max(n - 1, 0)),
                                        unique=True, max_size=n)))
    others = [q for q in range(n) if q not in plus]

    def side(qubits):
        if not qubits:
            return qubit
        inside = strategies.sampled_from(qubits)
        return strategies.one_of(inside, qubit) if stray else inside

    gates = sorted(draw(strategies.lists(
        strategies.tuples(side(plus), side(others)), max_size=3 * n + 2,
        unique=draw(strategies.booleans()))))
    shuffle = draw(strategies.sampled_from([None] * 4 + ["plus", "gates"]))
    if shuffle == "plus":
        plus = draw(strategies.permutations(plus))
    elif shuffle == "gates":
        gates = draw(strategies.permutations(gates))
    return n, tuple(plus), gates


@settings(max_examples=400)
@given(case=circuit_inputs())
def test_fdsc_circuit_matches_per_gate_checks(case):
    n, plus, gates = case
    try:
        want = circuit_oracle(n, plus, gates)
    except ValueError:
        want = None
    for form in (gates, np.array(gates, dtype=np.int64).reshape(-1, 2)):
        if want is None:
            with pytest.raises(ValueError):
                FdscCircuit(n, plus, form)
            continue
        circ = FdscCircuit(n, plus, form)
        assert circ.gates == want and circ.plus_qubits.tolist() == list(plus)
        assert circ.pairs.dtype == np.int64 and circ.pairs.shape == (len(want), 2)
        c, t = circ.pairs.T
        assert np.all((c[1:] > c[:-1]) | ((c[1:] == c[:-1]) & (t[1:] > t[:-1])))


# -- blocked emission and circuit checks ---------------------------------


def subset_and_reconstruction(family, size, strategy):
    """A code of the family (``hgp``: the hypergraph product of two seeded
    (3,4)-regular checks on ``size`` bits), its subset and its M."""
    if family == "hgp":
        rng = np.random.default_rng(0)
        code = hgp_code(regular_checks(rng, size), regular_checks(rng, size))
    else:
        code = css.build_family(family, size)
    s = greedy_select(code) if strategy == "greedy" else tree_select(code, strategy)
    return code, s, build_reconstruction(code, s)


@pytest.mark.parametrize("family,size,strategy", [
    ("toric", 4, "toric_comb"), ("toric", 4, "toric_recursive"),
    ("toric", 5, "greedy"), ("haah", 3, "haah_canonical"),
    ("xcube", 3, "xcube_dual_trees"), ("hgp", 8, "greedy")])
def test_blocked_emit_matches_one_block(monkeypatch, family, size, strategy):
    # blocks of a few set bits of M emit the same gate array as one block,
    # and pieces of a few gates write and read back the same circuit file
    code, s, mt = subset_and_reconstruction(family, size, strategy)
    monkeypatch.setattr(css, "BLOCK", 1 << 40)
    want = emit_circuit(code, s, mt)
    text = synth.serialize_circuit(want)
    scans = []
    nonzero = gf2.nonzero
    monkeypatch.setattr(gf2, "nonzero", lambda *a: scans.append(a) or nonzero(*a))
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(css, "BLOCK", block)
        scans.clear()
        assert emit_circuit(code, s, mt) == want
        # the scans tile M's rows, a row may be empty, and each scan holds
        # at most ``block`` set bits or is one row alone
        bounds = [(lo, hi) for _, lo, hi in scans]
        assert len(bounds) > 1 and bounds[-1][1] == mt.rows
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert all(hi - lo == 1 or np.bitwise_count(mt.data[lo:hi]).sum() <= block
                   for lo, hi in bounds)
        assert synth.serialize_circuit(want) == text
        assert synth._read_canonical(text) == want


def test_emit_rejects_m_not_s_by_the_rest():
    # M holds |S| rows over the N - |S| qubits off S: a matrix over all N
    # qubits (S rows included), or a row or column short or over, is an
    # internal error, as is a subset that does not match M
    code, s, mt = subset_and_reconstruction("toric", 4, "toric_comb")
    n, k = code.n_qubits, len(s)
    for rows, cols, subset in ((k, n, s), (k - 1, n - k, s), (k + 1, n - k, s),
                               (k, n - k - 1, s), (k, n - k + 1, s),
                               (k, n - k, s[1:])):
        with pytest.raises(synth.InternalInvariantViolation,
                           match=rf"M is {rows} x {cols}, not \|S\| x \(N - \|S\|\)"):
            emit_circuit(code, subset, BitMatrix(rows, cols))


@pytest.mark.parametrize("block", [1, 3, 1 << 40])
def test_emit_rejects_m_off_the_identity_on_s(monkeypatch, block):
    # M's part on S is the identity and is not passed: the full |S| x N
    # matrix, with its S part the identity, one S row short of its
    # diagonal bit, or holding another S member's, is an internal error
    # at every block size, and the emit reads no gate from it
    code, s, mt = subset_and_reconstruction("toric", 4, "toric_comb")
    monkeypatch.setattr(css, "BLOCK", block)
    full = full_reconstruction(code, s, mt).T.copy()
    shape = rf"M is {len(s)} x {code.n_qubits}, not \|S\| x \(N - \|S\|\)"
    for j, q in [(None, None)] + [(j, q) for j in (0, len(s) // 2, len(s) - 1)
                                  for q in (s[j], s[(j + 1) % len(s)])]:
        bad = full.copy()
        if j is not None:
            bad[j, q] ^= 1
        with unittest.mock.patch.object(gf2, "nonzero") as scan, \
                pytest.raises(synth.InternalInvariantViolation, match=shape):
            emit_circuit(code, s, packed(bad))
        scan.assert_not_called()


FAULTS = ("none", "range", "control", "target", "repeat", "order")


def valid_circuit(draw):
    """A valid circuit's (n, plus, others, pairs) drawn by ``draw``: 3 to
    12 qubits, plus a nonempty list of them, others the rest, and 2 to 40
    gates; or the same with every qubit (and n) shifted by 2^40, where the
    circuit check's plus-set table would be too large and np.isin reads
    membership."""
    n = draw(strategies.integers(3, 12))
    plus = sorted(draw(strategies.lists(strategies.integers(0, n - 1), unique=True,
                                        min_size=1, max_size=n - 1)))
    others = [q for q in range(n) if q not in plus]
    pairs = np.array(sorted(draw(strategies.lists(
        strategies.tuples(strategies.sampled_from(plus),
                          strategies.sampled_from(others)),
        unique=True, min_size=2, max_size=40))), dtype=np.int64)
    shift = draw(strategies.sampled_from([0, 2 ** 40]))
    event(f"qubits shifted by {shift}")
    return (n + shift, [q + shift for q in plus], [q + shift for q in others],
            pairs + shift)


def gate_index(draw, m):
    """One of m gates, drawn anywhere or at the first or last gate of a
    block of 2, 3 or 7."""
    edges = sorted({min(max(k * b + d, 0), m - 1) for b in (2, 3, 7)
                    for k in range(m // b + 1) for d in (-1, 0)})
    return draw(strategies.one_of(strategies.integers(0, m - 1),
                                  strategies.sampled_from(edges)))


def gate_fault(draw, fault, n, plus, others, pairs, i):
    """``pairs`` with ``fault`` at gate i: a target outside the register, a
    control outside the plus set, a target inside it, the gate repeated,
    or it and another gate swapped.  Qubits outside the register include
    -1, n, -2^63 and 2^63 - 1, and controls outside the plus set also
    plus[-1] + 1, just past its table (as a target, plus[-1] + 1 is n or
    one of the others a valid circuit draws)."""
    far = [-1, n, -2 ** 63, 2 ** 63 - 1]
    if fault == "range":
        pairs[i, 1] = draw(strategies.sampled_from(far + [n + 5]))
    elif fault == "control":
        pairs[i, 0] = draw(strategies.sampled_from(others + far + [plus[-1] + 1]))
    elif fault == "target":
        pairs[i, 1] = draw(strategies.sampled_from(plus))
    elif fault == "repeat":
        pairs = np.insert(pairs, i, pairs[i], axis=0)
    elif fault == "order":
        k = draw(strategies.integers(0, len(pairs) - 1).filter(lambda k: k != i))
        pairs[[i, k]] = pairs[[k, i]]
    return pairs


@strategies.composite
def one_fault_circuits(draw):
    """A valid circuit's (n, plus, pairs) with at most one fault of
    ``gate_fault``, at a gate drawn by ``gate_index``."""
    n, plus, others, pairs = valid_circuit(draw)
    i = gate_index(draw, len(pairs))
    fault = draw(strategies.sampled_from(FAULTS))
    event(fault)
    return n, plus, gate_fault(draw, fault, n, plus, others, pairs, i), fault


def oracle_outcome(n, plus, pairs):
    """``circuit_oracle``'s gates, or its error message."""
    try:
        return circuit_oracle(n, plus, pairs.tolist())
    except ValueError as e:
        return str(e)


def circuit_outcome(n, plus, pairs, block):
    """``FdscCircuit``'s gates, or its error message, with ``css.BLOCK``
    set to ``block``."""
    with unittest.mock.patch.object(css, "BLOCK", block):
        try:
            return FdscCircuit(n, plus, pairs).gates
        except ValueError as e:
            return str(e)


@settings(max_examples=400)
@given(case=one_fault_circuits())
def test_blocked_circuit_check_matches_one_block(case):
    # the same accept or reject, with the same message, in blocks of a few
    # gates as in one block of them all, and as the oracle's
    n, plus, pairs, fault = case
    want = circuit_outcome(n, plus, pairs, 1 << 40)
    assert isinstance(want, str) == (fault != "none")
    assert want == oracle_outcome(n, plus, pairs)
    for block in (1, 2, 3, 7):
        assert circuit_outcome(n, plus, pairs, block) == want


@strategies.composite
def many_fault_circuits(draw):
    """A valid circuit's (n, plus, pairs) with two to four faults: each of
    ``gate_fault`` at a gate drawn by ``gate_index``, or in the plus set (a
    qubit outside the register, repeated, or two swapped).  Faults may
    undo one another."""
    n, plus, others, pairs = valid_circuit(draw)
    faults = draw(strategies.lists(strategies.sampled_from(FAULTS[1:] + ("plus",)),
                                   min_size=2, max_size=4))
    event(f"first fault drawn: {faults[0]}")
    for fault in faults:
        if fault != "plus":
            i = gate_index(draw, len(pairs))
            pairs = gate_fault(draw, fault, n, plus, others, pairs, i)
            continue
        j = draw(strategies.integers(0, len(plus) - 1))
        kind = draw(strategies.sampled_from(["range", "repeat", "order"]))
        if kind == "range":
            plus[j] = draw(strategies.sampled_from([-1, n, n + 5]))
        elif kind == "repeat" or len(plus) == 1:
            plus.insert(j, plus[j])
        else:
            k = draw(strategies.integers(0, len(plus) - 1).filter(lambda k: k != j))
            plus[j], plus[k] = plus[k], plus[j]
    return n, plus, pairs


@settings(max_examples=400)
@given(case=many_fault_circuits())
@example(case=(4, [0], np.array([[0, 2], [0, 1], [1, 3]])))
@example(case=(4, [1, 0], np.array([[2, 3]])))
def test_circuit_check_names_the_first_fault_in_input_order(case):
    # the plus qubits first, then each gate in turn, its structure before
    # its order: the same message in blocks of a few gates as in one
    n, plus, pairs = case
    want = oracle_outcome(n, plus, pairs)
    for block in (1, 2, 3, 7, 1 << 40):
        assert circuit_outcome(n, plus, pairs, block) == want


@pytest.mark.parametrize("m", [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
def test_serialize_circuit_matches_json_of_tuples(m):
    # a star circuit on 2^16 + 2 qubits: writer pieces of 2^15 gates (2^16
    # qubits) split it
    circ = FdscCircuit(2 ** 16 + 2, (0,), [(0, t) for t in range(1, m + 1)],
                       {"strategy": "star"})
    doc = {"version": 1, "n_qubits": circ.n_qubits,
           "plus_qubits": circ.plus_qubits.tolist(), "gates": circ.gates,
           "metadata": circ.metadata}
    assert synth.serialize_circuit(circ) == json.dumps(
        doc, sort_keys=True, separators=(",", ":")).encode()


def compact_json(circ):
    """The circuit file as ``json.dumps`` writes it, gates as lists."""
    return json.dumps({"version": 1, "n_qubits": circ.n_qubits,
                       "plus_qubits": circ.plus_qubits.tolist(),
                       "gates": circ.pairs.tolist(), "metadata": circ.metadata},
                      sort_keys=True, separators=(",", ":"))


@strategies.composite
def valid_circuits(draw):
    """Random valid circuits: up to 4 controls, up to 40 gates or 2^16 - 1,
    2^16 or 2^16 + 1 (two writer pieces of 2^15), on distinct qubits below
    ``top``: a little above the gate count, far above it (the writer's
    table covers only the used qubits) or 2^40 (sometimes with a gate
    qubit 2^40 - 1).  ``n_qubits`` is ``top`` or 2^40."""
    m = draw(strategies.one_of(strategies.integers(0, 40), strategies.sampled_from(
        [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])))
    top = draw(strategies.sampled_from([m + 8, 8 * m + 2 ** 17, 2 ** 40]))
    rng = np.random.default_rng(draw(strategies.integers(0, 2 ** 32 - 1)))
    n_plus = draw(strategies.integers(1 if m else 0, 4))
    qubits = rng.choice(top - 1, size=min(top - 1, m + 8), replace=False)
    if draw(strategies.booleans()):
        qubits[0] = top - 1
    rng.shuffle(qubits)
    plus, others = np.sort(qubits[:n_plus]), qubits[n_plus:]
    pick = np.sort(rng.choice(n_plus * len(others), size=m, replace=False))
    pairs = np.column_stack((plus[pick // len(others)], others[pick % len(others)]))
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    meta = draw(strategies.sampled_from([{}, {"strategy": "greedy", "seed": 3},
                                         {"params": {"L": 4}, "family": "toric"}]))
    n = draw(strategies.sampled_from([top, 2 ** 40]))
    event("no gates" if m == 0 else f"{m} gates" if m > 40 else "1 to 40 gates")
    event(f"gate qubit 2^40 - 1: {bool(pairs.size) and pairs.max() == 2 ** 40 - 1}")
    return FdscCircuit(n, plus, pairs, meta)


@settings(max_examples=40)
@given(circ=valid_circuits())
def test_serialize_circuit_matches_json_dumps(circ):
    data = synth.serialize_circuit(circ)
    assert data == compact_json(circ).encode()
    assert synth.parse_circuit(data) == circ


def test_serialize_huge_qubit_without_a_register_sized_table():
    # gate qubits near 2^40: the number table holds the used qubits only
    n = 2 ** 40
    circ = FdscCircuit(n, (0, 7), [(0, 5), (0, n - 1), (7, n - 2)])
    tracemalloc.start()
    try:
        data = synth.serialize_circuit(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert data == compact_json(circ).encode()
    assert synth.parse_circuit(data) == circ


@pytest.mark.parametrize("circ", [
    FdscCircuit(3, (), ()), FdscCircuit(2 ** 40, (0, 7), [(0, 5), (7, 2 ** 40 - 2)]),
    synth.synthesize(css.build_toric(8), "toric_comb"),
    synth.synthesize(css.build_haah(3), "haah_canonical")],
    ids=["empty", "huge", "toric8", "haah3"])
def test_serialize_circuit_allocates_its_buffer_once(circ):
    # the writer counts the file's bytes first (four a gate, a digit per
    # qubit and per power of ten it reaches) and fills one buffer of that
    # length: a buffer grown piece by piece has slack, and its copies leave
    # holes in the heap
    data = synth.serialize_circuit(circ)
    assert data == compact_json(circ).encode()
    assert sys.getsizeof(data) == sys.getsizeof(bytearray(len(data)))


def test_circuit_serialization_round_trip():
    # each strategy's circuit file reads back to the same circuit, from its
    # bytes, any bytes-like copy or its decoded text, and writes out again
    # byte for byte
    for family, size, strategy in (("toric", 4, "toric_comb"),
                                   ("toric", 4, "toric_recursive"),
                                   ("xcube", 3, "xcube_dual_trees"),
                                   ("haah", 2, "haah_canonical"),
                                   ("ghz", 5, "greedy")):
        circ = synthesize(css.build_family(family, size), strategy)
        data = synth.serialize_circuit(circ)
        again = synth.parse_circuit(data)
        assert again == circ
        assert all(synth.parse_circuit(copy) == circ
                   for copy in (data.decode(), bytes(data), memoryview(data)))
        assert synth.serialize_circuit(again) == data


@pytest.mark.parametrize("family, size, strategy, digest", [
    ("toric", 4, "toric_comb", "4513344786"),
    ("toric", 4, "toric_recursive", "b50b0ea9c3"),
    ("xcube", 3, "xcube_dual_trees", "966f6a3a97"),
    ("haah", 2, "haah_canonical", "dd1990bfa5"),
    ("ghz", 5, "greedy", "be77cc7e9b")])
def test_circuit_file_bytes_pinned(family, size, strategy, digest):
    # identical flags give byte-identical circuit files, release to release
    circ = synthesize(css.build_family(family, size), strategy)
    data = synth.serialize_circuit(circ)
    assert hashlib.sha256(data).hexdigest().startswith(digest)


@pytest.mark.parametrize("data, offset", [
    (b'{"gates":[],\xff"metadata":{}}', 12),
    (b'{"gates":[[0,1]],"metadata":{"x":"\xc3"},"n_qubits":2}', 34)])
def test_parse_circuit_rejects_bytes_that_are_not_utf8(data, offset):
    # a decode error is a ParseError naming the byte, not the message that
    # json.loads gives a bytes document's decode error ("integer too long")
    with pytest.raises(css.ParseError, match=f"invalid UTF-8 at byte {offset}: "):
        synth.parse_circuit(data)


@strategies.composite
def digit_edge_circuits(draw):
    """Valid circuits whose qubits sit at the writer's digit edges, 10^j - 1
    and 10^j for j = 0..k (k up to 18), with 0 to 40 gates or 2^16 - 1,
    2^16 or 2^16 + 1 (the writer's block size) made up by targets from 2
    on; sometimes with a last target at 4 x (gate qubits) + 2^16, just past
    the largest range the writer's table covers, or one below it."""
    k = draw(strategies.integers(0, 18))
    rng = np.random.default_rng(draw(strategies.integers(0, 2 ** 32 - 1)))
    edges = sorted({10 ** j + d for j in range(k + 1) for d in (-1, 0)})
    plus = sorted(rng.choice(edges, draw(strategies.integers(
        1, min(3, len(edges)))), replace=False).tolist())
    gates = [(c, t) for c in plus for t in edges if t not in plus]
    m = draw(strategies.one_of(strategies.integers(0, 40), strategies.sampled_from(
        [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])))
    past = draw(strategies.sampled_from([None, 0, -1]))
    room = m - (past is not None)
    if room < len(gates):
        gates = [gates[i] for i in rng.choice(len(gates), max(room, 0), replace=False)]
    taken = set(edges)
    fill = (t for t in range(2, 2 * m + 60) if t not in taken)
    gates += [(plus[0], next(fill)) for _ in range(room - len(gates))]
    if past is not None and m:
        gates.append((plus[0], 8 * m + (1 << 16) + past))
    pairs = np.array(sorted(gates), dtype=np.int64).reshape(-1, 2)
    top = int(pairs.max(initial=edges[-1])) + 1
    event(f"used-qubit table: {top > 4 * pairs.size + (1 << 16)}")
    event("no gates" if not len(pairs) else f"{len(pairs)} gates"
          if len(pairs) > 40 else "1 to 40 gates")
    return FdscCircuit(top, plus, pairs, {})


@settings(max_examples=40, deadline=None)
@given(circ=digit_edge_circuits())
def test_serialize_circuit_writes_each_qubit_as_json_does(circ):
    assert synth.serialize_circuit(circ) == compact_json(circ).encode()


GHZ3_CIRCUIT = {"version": 1, "n_qubits": 3, "plus_qubits": [0],
                "gates": [[0, 1], [0, 2]], "metadata": {}}


@pytest.mark.parametrize("change", [
    {"plus_qubits": [0.9]},                            # float indices
    {"gates": [[0.2, 1.5], [0, 2]]},
    {"plus_qubits": [1.7], "gates": [[1, 0], [1, 2]]},
    {"plus_qubits": [True], "gates": [[1, 0], [1, 2]]},  # boolean index
    {"plus_qubits": [0, 0]},                           # repeated plus qubit
    {"n_qubits": -1, "plus_qubits": [], "gates": []},
    {"n_qubits": 3.0},
    {"version": True},
    {"gates": [[0, 1, 2]]},                            # malformed fields
    {"gates": [[0, 1], 5]},
    {"gates": 5},
    {"plus_qubits": 0},
    {"metadata": [["strategy", "greedy"]]},
    {"gates": [[0, 1], [0, 2 ** 70]]},                 # beyond int64
    {"plus_qubits": [2 ** 70]},
    {"gates": [[0, 2], [0, 1]]},                       # gates out of order
    {"plus_qubits": [1, 0], "gates": [[0, 2], [1, 2]]},  # plus out of order
])
def test_parse_circuit_rejects_instead_of_repairing(change):
    assert synth.parse_circuit(json.dumps(GHZ3_CIRCUIT)).gates == ((0, 1), (0, 2))
    with pytest.raises(css.ParseError):
        synth.parse_circuit(json.dumps({**GHZ3_CIRCUIT, **change}))


# Canonical documents of every family, an empty layer and a metadata seed.
CANONICAL = [synth.serialize_circuit(c).decode() for c in (
    synthesize(css.build_family("toric", 3), "toric_comb"),
    synthesize(css.build_family("toric", 4), "toric_recursive"),
    synthesize(css.build_family("xcube", 2), "xcube_dual_trees"),
    synthesize(css.build_family("haah", 2), "haah_canonical"),
    synthesize(css.build_family("ghz", 5), "greedy", seed=3),
    FdscCircuit(4, (0, 1, 2, 3), (), {"strategy": "none"}))]


def read_outcome(read, text):
    """The circuit ``read`` makes of ``text``, or its ParseError message."""
    try:
        return read(text)
    except css.ParseError as e:
        return f"ParseError: {e}"


@strategies.composite
def mutated_documents(draw):
    """A canonical circuit document with one mutation: text inserted or
    cut at a drawn place, or the document rewritten with its gates or its
    keys changed."""
    text = draw(strategies.sampled_from(CANONICAL))
    doc = json.loads(text)
    gates = doc["gates"]
    end = text.index('"metadata"') - 1   # the comma after the gates section
    numbers = [m.start() for m in re.finditer(r"(?<=[\[,:])\d", text)]
    at = draw(strategies.sampled_from(numbers))
    kind = draw(strategies.sampled_from([
        "none", "whitespace", "leading zero", "sign", "20 digits", "swapped keys",
        "repeated gates key", "truncated gates", "repeated gate", "reordered gate",
        "no gates", "after the newline"]))
    event(kind)
    if kind == "whitespace":
        k = draw(strategies.integers(0, len(text)))
        text = text[:k] + draw(strategies.sampled_from(" \n\t\r")) + text[k:]
    elif kind in ("leading zero", "sign"):
        text = text[:at] + draw(strategies.sampled_from(
            ["0"] if kind == "leading zero" else ["-", "+", "-0"])) + text[at:]
    elif kind == "20 digits":
        digits = str(draw(strategies.integers(10 ** 19, 10 ** 20 - 1)))
        size = re.match(r"\d+", text[at:]).end()
        text = text[:at] + digits + text[at + size:]
    elif kind == "swapped keys":
        keys = draw(strategies.permutations(sorted(doc)))
        text = json.dumps({k: doc[k] for k in keys}, separators=(",", ":"))
    elif kind == "repeated gates key":
        again = json.dumps(draw(strategies.sampled_from([[], gates, gates[:1]])),
                           separators=(",", ":"))
        text = f'{text[:end + 1]}"gates":{again},{text[end + 1:]}'
    elif kind == "truncated gates":
        text = text[:draw(strategies.integers(10, end))] + text[end:]
    elif kind in ("repeated gate", "reordered gate") and gates:
        i = draw(strategies.integers(0, len(gates) - 1))
        j = draw(strategies.integers(0, len(gates) - 1))
        gates = list(gates)
        if kind == "repeated gate":
            gates.insert(i, gates[i])
        else:
            gates[i], gates[j] = gates[j], gates[i]
        text = css.dump_json({**doc, "gates": gates})
    elif kind == "no gates":
        text = css.dump_json({**doc, "gates": []})
    elif kind == "after the newline":
        text += "\n" + draw(strategies.sampled_from(["", "\n", " ", "x", "{}"]))
    return text


@settings(max_examples=400)
@given(text=mutated_documents())
def test_reader_paths_agree_on_mutated_documents(text):
    # the round trip through the writer reads a text as the general path
    # does, or declines it; parse_circuit answers as the general path
    want = read_outcome(synth._read_general, text)
    assert read_outcome(synth.parse_circuit, text) == want
    assert read_outcome(synth.parse_circuit, text.encode()) == want
    try:
        fast = synth._read_canonical(text.encode())
    except Exception:
        fast = None
    event(f"round trip took it: {fast is not None}")
    # a written file, less one trailing newline, is always taken
    assert (fast is not None) >= (text.removesuffix("\n") in CANONICAL)
    if fast is not None:
        assert fast == want


def test_canonical_files_never_take_the_general_path(monkeypatch):
    # every family's written file, with or without the newline the CLI
    # adds, as bytes, any bytes-like copy or text, is read by the round
    # trip alone
    def general(text):
        raise AssertionError("the general path ran on a canonical file")
    monkeypatch.setattr(synth, "_read_general", general)
    for text in CANONICAL:
        circ = json.loads(text)
        for tail in ("", "\n"):
            data = (text + tail).encode()
            for copy in (data, bytearray(data), memoryview(data), text + tail):
                got = synth.parse_circuit(copy)
                assert got.gates == tuple(map(tuple, circ["gates"]))
                assert synth.serialize_circuit(got) == text.encode()


def test_lone_surrogate_in_text_is_read_by_the_general_path():
    # a str that cannot be encoded is read as text, its surrogate kept; in
    # bytes the same character is not UTF-8
    circ = FdscCircuit(3, (0,), ((0, 1), (0, 2)), {"note": "\ud800"})
    text = synth.serialize_circuit(circ).decode().replace("\\ud800", "\ud800")
    assert "\\ud800" not in text
    assert synth.parse_circuit(text) == circ
    with pytest.raises(css.ParseError, match="invalid UTF-8 at byte"):
        synth.parse_circuit(text.encode("utf-8", "surrogatepass"))


# -- cubic-code potential -----------------------------------------------------


def test_phi_solve_zero():
    assert not synth.haah_phi_solve(3, np.zeros(27, dtype=np.uint8)).any()


@pytest.mark.parametrize("size", [26, 28, 9])
def test_phi_maps_reject_a_wrong_length(size):
    values = np.zeros(size, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"z must have L\^3 = 27 entries"):
        synth.haah_phi_solve(3, values)
    with pytest.raises(ValueError, match=r"phi must have L\^3 = 27 entries"):
        synth.haah_z_from_phi(3, values)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_phi_round_trip(L):
    rng = np.random.default_rng(L)
    phi = rng.integers(0, 2, L ** 3).astype(np.uint8)
    z = synth.haah_z_from_phi(L, phi)
    z1 = np.array([z[css.qubit_index("haah", L, x, y, zz, 0)]
                   for x in range(L) for y in range(L) for zz in range(L)])
    assert np.array_equal(synth.haah_phi_solve(L, z1), phi)
    z2 = np.array([z[css.qubit_index("haah", L, x, y, zz, 1)]
                   for x in range(L) for y in range(L) for zz in range(L)])
    assert np.array_equal(synth.haah_phi_solve(L, z2, slot=1), phi)


def test_phi_single_seed_fractal_vs_reconstruction():
    # slot-1 subset: the potential solve is an independent route to M_S columns
    L = 4
    code = css.build_haah(L)
    s1 = sorted(css.qubit_index("haah", L, x, y, z, 0)
                for x in range(L) for y in range(L) for z in range(L))
    dense = full_reconstruction(code, s1, build_reconstruction(code, s1))
    z1 = np.zeros(L ** 3, dtype=np.uint8)
    z1[0] = 1
    phi = synth.haah_phi_solve(L, z1)
    assert phi[0] == 1
    expected = synth.haah_z_from_phi(L, phi)
    col = s1.index(css.qubit_index("haah", L, 0, 0, 0, 0))
    assert np.array_equal(dense[:, col], expected)
    # support grows with distance from the seeded corner
    shell = [expected[2 * v:2 * v + 2].sum()
             for v in range((L + 1) ** 3)]
    assert sum(shell) > 2


def test_canonical_columns_match_adjacent_solve():
    L = 3
    code = css.build_haah(L)
    s = tree_select(code, "haah_canonical")
    m = full_reconstruction(code, s, build_reconstruction(code, s))
    for probe in (0, 7, 13):
        z2 = np.zeros(L ** 3, dtype=np.uint8)
        z2[probe] = 1
        phi = synth.haah_phi_solve(L, z2, slot=1)
        assert np.array_equal(m[:, probe], synth.haah_z_from_phi(L, phi))


def test_recursive_tree_edge_count():
    for L in (2, 4, 8, 16, 32):
        qs = synth.toric_recursive_qubits(css.build_toric(L)).tolist()
        assert len(qs) == L * L - 1
        assert len(set(qs)) == len(qs)
