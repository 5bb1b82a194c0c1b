"""CSS-state verifier against the tableau and state-vector oracles; the
tableau oracle's own propagation and membership; mutation checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import tableau_oracle as tableau
from conftest import (dense_code, dense_rank, random_css_code,
                      reference_statevector_check)
from fdsc import css, gf2, synth, verify
from fdsc.gf2 import BitMatrix
from fdsc.synth import FdscCircuit
from fdsc.verify import TooLarge, statevector_check, verify_circuit
from tableau_oracle import (InvalidLayer, SymplecticState, apply_cx_layer,
                            contains_stabilizer, initial_state)


def gen_masks(state):
    return state.stab_x.to_dense(), state.stab_z.to_dense()


def state_is_wellformed(state):
    """Generators pairwise commute and (X|Z) rows have full rank."""
    x, z = gen_masks(state)
    sym = (x.astype(int) @ z.T.astype(int) + z.astype(int) @ x.T.astype(int)) % 2
    full = np.hstack([x, z])
    return not sym.any() and dense_rank(full) == state.n_qubits


def test_initial_state_all_zeros():
    st = initial_state(2, [])
    x, z = gen_masks(st)
    assert not x.any() and np.array_equal(z, np.eye(2, dtype=np.uint8))


def test_initial_state_all_plus():
    st = initial_state(2, [0, 1])
    x, z = gen_masks(st)
    assert np.array_equal(x, np.eye(2, dtype=np.uint8)) and not z.any()


def test_initial_state_mixed():
    st = initial_state(3, [0])
    x, z = gen_masks(st)
    assert x[0].tolist() == [1, 0, 0]
    assert z[1].tolist() == [0, 1, 0] and z[2].tolist() == [0, 0, 1]
    assert not st.signs.any()


def test_initial_state_index_range():
    with pytest.raises(tableau.IndexOutOfRange):
        initial_state(2, [2])


def test_cx_conjugation_rules():
    st = initial_state(2, [0])
    out = apply_cx_layer(st, [(0, 1)])
    x, z = gen_masks(out)
    assert x[0].tolist() == [1, 1] and z[0].tolist() == [0, 0]
    assert x[1].tolist() == [0, 0] and z[1].tolist() == [1, 1]
    assert not out.signs.any()


def test_cx_preserves_signs_in_xz_convention():
    # CX (X0 Z1) CX = +(X0 Z0)(X1 Z1): exponents change, the sign does not
    sx = BitMatrix.from_dense([[1, 0], [0, 1]])
    sz = BitMatrix.from_dense([[0, 1], [1, 0]])
    st = SymplecticState(2, sx, sz, np.array([0, 1], dtype=np.uint8))
    out = apply_cx_layer(st, [(0, 1)])
    assert out.stab_x.to_dense()[0].tolist() == [1, 1]
    assert out.stab_z.to_dense()[0].tolist() == [1, 1]
    assert out.signs.tolist() == [0, 1]


def test_membership_sign_accumulation():
    # (X0 Z0)(Z1) involves no same-qubit reorder: sign stays +
    st = SymplecticState(2, BitMatrix.from_dense([[1, 0], [0, 0]]),
                         BitMatrix.from_dense([[1, 0], [0, 1]]),
                         np.zeros(2, dtype=np.uint8))
    member = tableau.GroupMembership(st)
    assert member.contains(np.array([1, 0]), np.array([1, 1]), sign=0)
    # (X0 Z1)(Z0 X1) = -(X0 Z0)(X1 Z1): commuting pair whose canonical
    # product reorders Z1 past X1
    st2 = SymplecticState(2, BitMatrix.from_dense([[1, 0], [0, 1]]),
                          BitMatrix.from_dense([[0, 1], [1, 0]]),
                          np.zeros(2, dtype=np.uint8))
    member2 = tableau.GroupMembership(st2)
    one = np.array([1, 1])
    assert member2.contains(one, one, sign=1)
    assert not member2.contains(one, one, sign=0)


def test_empty_layer_is_identity():
    st = initial_state(3, [1])
    out = apply_cx_layer(st, [])
    assert out.stab_x == st.stab_x and out.stab_z == st.stab_z


def test_layer_rejects_overlap():
    st = initial_state(3, [0, 1])
    with pytest.raises(InvalidLayer):
        apply_cx_layer(st, [(0, 1), (1, 2)])


def test_ghz3_final_generators():
    circ = synth.synthesize(css.build_ghz(3), "greedy")
    st = tableau.final_state(circ)
    assert contains_stabilizer(st, np.array([1, 1, 1]), np.zeros(3, dtype=int))
    assert contains_stabilizer(st, np.zeros(3, dtype=int), np.array([1, 1, 0]))
    assert contains_stabilizer(st, np.zeros(3, dtype=int), np.array([1, 0, 1]))


def test_membership_rejects_anticommuting():
    circ = synth.synthesize(css.build_ghz(3), "greedy")
    st = tableau.final_state(circ)
    assert not contains_stabilizer(st, np.zeros(3, dtype=int),
                                   np.array([1, 0, 0]))


def test_toric_l3_all_plaquettes_stabilize():
    code = css.build_toric(3)
    circ = synth.synthesize(code, "toric_comb")
    st = tableau.final_state(circ)
    z = code.z_stabs.to_dense()
    zeros = np.zeros(code.n_qubits, dtype=np.uint8)
    for j in range(code.n_z):
        assert contains_stabilizer(st, zeros, z[:, j])


@pytest.mark.parametrize("layer_seed", range(4))
def test_layer_preserves_state_invariants(layer_seed):
    rng = np.random.default_rng(layer_seed)
    code = random_css_code(rng, n_max=12)
    circ = synth.synthesize(code, "greedy")
    st = tableau.final_state(circ)
    assert state_is_wellformed(st)


def test_gate_order_independence():
    code = css.build_toric(2)
    circ = synth.synthesize(code, "toric_comb")
    st1 = tableau.final_state(circ)
    rng = np.random.default_rng(3)
    perm = list(circ.gates)
    rng.shuffle(perm)
    st2 = apply_cx_layer(initial_state(circ.n_qubits, circ.plus_qubits), perm)
    m1 = tableau.GroupMembership(st1)
    m2 = tableau.GroupMembership(st2)
    x1, z1 = gen_masks(st1)
    x2, z2 = gen_masks(st2)
    for i in range(st1.n_qubits):
        assert m2.contains(x1[i], z1[i], int(st1.signs[i]))
        assert m1.contains(x2[i], z2[i], int(st2.signs[i]))


def test_verify_circuit_passes_families():
    cases = [(css.build_ghz(5), "greedy"),
             (css.build_toric(2), "toric_comb"),
             (css.build_toric(2), "toric_recursive"),
             (css.build_xcube(2), "xcube_dual_trees"),
             (css.build_haah(1), "haah_canonical")]
    for code, strat in cases:
        report = verify_circuit(code, synth.synthesize(code, strat))
        assert report.passed
        assert report.n_checked == code.n_x + code.n_z


def test_verify_detects_deleted_gate():
    code = css.build_toric(2)
    circ = synth.synthesize(code, "toric_comb")
    broken = FdscCircuit(circ.n_qubits, circ.plus_qubits, circ.gates[1:],
                         circ.metadata)
    report = verify_circuit(code, broken)
    assert not report.passed
    assert report.failed_x or report.failed_z


def test_verify_dimension_mismatch():
    code = css.build_ghz(3)
    circ = synth.synthesize(css.build_ghz(4), "greedy")
    with pytest.raises(gf2.DimensionMismatch):
        verify_circuit(code, circ)


def test_report_json():
    code = css.build_ghz(3)
    report = verify_circuit(code, synth.synthesize(code, "greedy"))
    assert report.to_json() == '{"failed_x":[],"failed_z":[],"n_checked":3,"pass":true}'


def test_final_state_css_form():
    circ = synth.synthesize(css.build_ghz(3), "greedy")
    plus, controls, targets = verify.final_state(circ)
    assert plus.tolist() == [0]
    assert controls.tolist() == [0, 0]
    assert targets.tolist() == [1, 2]
    assert plus.dtype == controls.dtype == targets.dtype == np.int64


# -- differential checks against the tableau and state-vector oracles --------


def statevector_failures(code, circ):
    """(failed_x, failed_z) read off the output state vector: X^a permutes
    basis labels by XOR with a, Z^b negates labels with odd overlap with b."""
    vec = verify.circuit_statevector(circ)
    labels = np.arange(vec.size)

    def mask(col):
        return sum(1 << int(q) for q in np.flatnonzero(col))

    x = code.x_stabs.to_dense()
    z = code.z_stabs.to_dense()
    failed_x = tuple(j for j in range(code.n_x)
                     if not np.allclose(vec[labels ^ mask(x[:, j])], vec))
    failed_z = tuple(j for j in range(code.n_z)
                     if not np.allclose(vec[np.bitwise_count(
                         labels & mask(z[:, j])) & 1 == 1], 0))
    return failed_x, failed_z


def assert_matches_oracles(code, circ):
    rep = verify_circuit(code, circ)
    assert (rep.failed_x, rep.failed_z, rep.n_checked) == \
        tableau.tableau_verify(code, circ)
    assert rep.passed == (not rep.failed_x and not rep.failed_z)
    if code.n_qubits <= verify.STATEVECTOR_CAP:
        assert (rep.failed_x, rep.failed_z) == statevector_failures(code, circ)
    return rep


def one_gate_mutants(circ, seed, count):
    """Seeded circuits with one gate dropped or one absent gate added,
    alternately (drops only when every control-target pair is present,
    adds only when there is no gate, and none when neither is possible)."""
    rng = np.random.default_rng(seed)
    plus = set(circ.plus_qubits)
    present = set(circ.gates)
    absent = [(c, t) for c in circ.plus_qubits for t in range(circ.n_qubits)
              if t not in plus and (c, t) not in present]
    for k in range(count):
        if circ.gates and (k % 2 == 0 or not absent):
            i = int(rng.integers(len(circ.gates)))
            gates = circ.gates[:i] + circ.gates[i + 1:]
        elif not absent:
            return
        else:
            added = absent[int(rng.integers(len(absent)))]
            gates = tuple(sorted(circ.gates + (added,)))
        yield FdscCircuit(circ.n_qubits, circ.plus_qubits, gates, {})


def test_one_gate_mutants_of_a_circuit_with_no_gates_add_one():
    # nothing to drop: every mutant adds one absent gate; nothing to add
    # either (every qubit in the plus set): no mutant
    mutants = list(one_gate_mutants(FdscCircuit(4, (0, 1), ()), seed=0, count=4))
    assert len(mutants) == 4
    assert all(len(m.gates) == 1 and m.gates[0][0] in (0, 1)
               and m.gates[0][1] in (2, 3) for m in mutants)
    assert list(one_gate_mutants(FdscCircuit(3, range(3), ()), seed=0, count=4)) == []


@pytest.mark.parametrize("family,size,strategy", [
    ("ghz", 5, "greedy"), ("ghz", 12, "greedy"),
    ("toric", 2, "toric_comb"), ("toric", 3, "toric_comb"),
    ("toric", 3, "greedy"), ("toric", 4, "toric_comb"),
    ("toric", 4, "toric_recursive"), ("toric", 5, "greedy"),
    ("toric", 6, "toric_comb"),
    ("xcube", 2, "xcube_dual_trees"), ("xcube", 3, "xcube_dual_trees"),
    ("haah", 1, "haah_canonical"), ("haah", 2, "haah_canonical"),
    ("haah", 3, "haah_canonical")])
def test_matches_oracles_on_one_gate_mutants(family, size, strategy):
    code = css.build_family(family, size)
    circ = synth.synthesize(code, strategy)
    assert assert_matches_oracles(code, circ).passed
    for mut in one_gate_mutants(circ, seed=size, count=12):
        rep = assert_matches_oracles(code, mut)
        assert not rep.passed
        if code.n_qubits <= verify.STATEVECTOR_CAP:
            assert not statevector_check(code, mut)


@settings(max_examples=80)
@given(seed=strategies.integers(0, 2 ** 32 - 1),
       synthesized=strategies.booleans(), flips=strategies.integers(0, 2))
def test_matches_oracles_on_random_layers(seed, synthesized, flips):
    """Random codes with either a random layer on a random |+> set, or the
    synthesized circuit with up to two control-target pairs toggled."""
    rng = np.random.default_rng(seed)
    code = random_css_code(rng, n_max=12)
    n = code.n_qubits
    if synthesized:
        circ = synth.synthesize(code, "greedy", seed=seed)
        plus, gates = circ.plus_qubits, set(circ.gates)
    else:
        plus = tuple(int(q) for q in np.flatnonzero(rng.random(n) < 0.5))
        gates = set()
    pairs = [(c, t) for c in plus for t in range(n) if t not in plus]
    if pairs:
        if not synthesized:
            gates = {p for p in pairs if rng.random() < 0.3}
        for _ in range(flips):
            gates ^= {pairs[int(rng.integers(len(pairs)))]}
    assert_matches_oracles(code, FdscCircuit(n, plus, sorted(gates)))


@pytest.mark.parametrize("family,size,strategy", [
    ("toric", 8, "toric_comb"), ("toric", 8, "toric_recursive"),
    ("xcube", 3, "xcube_dual_trees"), ("haah", 3, "haah_canonical")])
def test_blocked_verify_matches_one_block(monkeypatch, family, size, strategy):
    # blocks of a few checked qubits and gates count the same parities as
    # one block of them all, on a passing circuit and on one-gate mutants
    code = css.build_family(family, size)
    circ = synth.synthesize(code, strategy)
    circuits = [circ, *one_gate_mutants(circ, seed=size, count=8)]
    monkeypatch.setattr(css, "BLOCK", 1 << 40)
    want = [verify_circuit(code, c) for c in circuits]
    assert want[0].passed and not any(rep.passed for rep in want[1:])
    blocks = []
    monkeypatch.setattr(verify, "odd_pairs",
                        lambda *a: blocks.append(a) or css.odd_pairs(*a))
    for block in (1, 2, 5, 32):
        monkeypatch.setattr(css, "BLOCK", block)
        blocks.clear()
        assert [verify_circuit(code, c) for c in circuits] == want
        assert len(blocks) >= 4 * len(circuits)   # two blocks a rule, or more


# -- state-vector oracle ------------------------------------------------------


def test_ghz3_statevector_explicit():
    circ = synth.synthesize(css.build_ghz(3), "greedy")
    vec = verify.circuit_statevector(circ)
    expected = np.zeros(8)
    expected[0] = expected[7] = 2 ** -0.5
    assert np.allclose(vec, expected)


def test_toric_l2_superposition_term_count():
    code = css.build_toric(2)
    circ = synth.synthesize(code, "toric_comb")
    vec = verify.circuit_statevector(circ)
    assert np.count_nonzero(vec) == 8  # 2^rank terms
    assert statevector_check(code, circ)


def test_trivial_code_statevector():
    code = dense_code(np.zeros((3, 0)), [[1], [1], [1]])
    circ = synth.synthesize(code, "greedy")
    vec = verify.circuit_statevector(circ)
    assert vec[0] == 1.0 and np.count_nonzero(vec) == 1
    assert verify_circuit(code, circ).passed


def test_statevector_cap():
    code = css.build_toric(4)  # 32 qubits
    circ = synth.synthesize(code, "toric_comb")
    with pytest.raises(TooLarge):
        statevector_check(code, circ)
    with pytest.raises(TooLarge, match="n=32 > 20"):
        verify.circuit_statevector(circ)
    with pytest.raises(TooLarge, match="n=32 > 20"):
        verify.ground_state_labels(code)


def oracle_cases():
    """(code, circuit) pairs for the oracle's differential test: seeded
    random codes with their greedy circuits, ghz 2 to 20, toric 2 and 3
    and haah 1, each circuit with gates followed by its one-gate mutants,
    and |+> on every qubit."""
    rng = np.random.default_rng(2718)
    codes = [(random_css_code(rng, n_max=12), "greedy") for _ in range(24)]
    codes += [(css.build_ghz(n), "greedy") for n in range(2, 21)]
    codes += [(css.build_toric(2), "toric_comb"), (css.build_toric(3), "greedy"),
              (css.build_toric(3), "toric_comb"), (css.build_haah(1), "haah_canonical")]
    for k, (code, strategy) in enumerate(codes):
        circ = synth.synthesize(code, strategy, seed=k)
        yield code, circ
        # |+> on every qubit: the ground state's labels and more
        yield code, FdscCircuit(code.n_qubits, range(code.n_qubits), ())
        yield from ((code, c) for c in one_gate_mutants(circ, seed=k, count=4))


def test_statevector_check_matches_two_vector_reference():
    """The one-vector oracle gives the dense two-vector reference's verdict
    on passing circuits and on their one-gate mutants alike."""
    verdicts = [(statevector_check(code, circ), reference_statevector_check(code, circ))
                for code, circ in oracle_cases()]
    assert all(got == want for got, want in verdicts)
    assert {want for _, want in verdicts} == {True, False}


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_oracle_agreement(n):
    code = css.build_ghz(n)
    circ = synth.synthesize(code, "greedy")
    assert verify_circuit(code, circ).passed
    assert statevector_check(code, circ)


@pytest.mark.parametrize("seed", range(8))
def test_verifiers_agree_on_random_codes(seed):
    rng = np.random.default_rng(900 + seed)
    code = random_css_code(rng, n_max=12)
    circ = synth.synthesize(code, "greedy")
    rep = assert_matches_oracles(code, circ)
    assert rep.passed == statevector_check(code, circ)


def test_verifiers_agree_on_broken_circuit():
    code = css.build_ghz(5)
    circ = synth.synthesize(code, "greedy")
    broken = FdscCircuit(circ.n_qubits, circ.plus_qubits, circ.gates[:-1],
                         circ.metadata)
    assert not verify_circuit(code, broken).passed
    assert not statevector_check(code, broken)


def test_single_mutation_sensitivity_smoke():
    code = css.build_toric(2)
    circ = synth.synthesize(code, "toric_comb")
    gates = list(circ.gates)
    for k in range(len(gates)):
        broken = FdscCircuit(circ.n_qubits, circ.plus_qubits,
                             tuple(gates[:k] + gates[k + 1:]), {})
        assert not verify_circuit(code, broken).passed
