"""Solvable-group structure, network planning, and oracle agreement."""

import json

import numpy as np
import pytest

from fdsc import groups
from fdsc.groups import (FiniteGroup, GroupStructureError, InvalidSize,
                         LengthMismatch, SolvableSeries, evaluate,
                         make_abelian, make_dihedral, plan_network)


def dihedral_id(n, p, k):
    return p * n + k % n


def test_d3_basic_structure():
    g, series = make_dihedral(3)
    assert g.order == 6
    assert series.derived_length == 2
    assert g.identity == 0
    # r * r^2 = e, m r^1 * m r^1 = e
    assert g.mul(1, 2) == 0
    assert g.mul(4, 4) == 0


def test_d3_reflection_conjugation():
    n = 8
    g, _ = make_dihedral(n)
    m = dihedral_id(n, 1, 0)
    for k in range(n):
        r_k = dihedral_id(n, 0, k)
        assert g.mul(g.mul(m, r_k), g.inv(m)) == dihedral_id(n, 0, -k)


def test_d8_series_invariants():
    g, series = make_dihedral(8)
    series.validate(g)  # exhaustive normality and abelian-quotient checks


def test_dn_chi_trivial_and_phi_inverts():
    n = 5
    g, series = make_dihedral(n)
    level = groups._build_level(g, [list(s) for s in series.subgroups])
    assert (level.chi == level.n_local[g.identity]).all()
    # phi_m acts on rotations as k -> -k; phi_e is the identity
    h_m = level.tau[dihedral_id(n, 1, 0)]
    h_e = level.tau[0]
    for k in range(n):
        loc = level.n_local[dihedral_id(n, 0, k)]
        assert level.n_elements[level.phi[h_m, loc]] == dihedral_id(n, 0, -k)
        assert level.phi[h_e, loc] == loc


def test_phi_is_bijection():
    g, series = make_dihedral(6)
    level = groups._build_level(g, [list(s) for s in series.subgroups])
    for h in range(level.h_table.shape[0]):
        assert sorted(level.phi[h]) == list(range(len(level.n_elements)))


def test_chi_lands_in_normal_subgroup():
    g, series = make_dihedral(7)
    level = groups._build_level(g, [list(s) for s in series.subgroups])
    members = set(int(x) for x in level.n_elements)
    for i in range(level.chi.shape[0]):
        for j in range(level.chi.shape[1]):
            assert int(level.n_elements[level.chi[i, j]]) in members


def test_make_abelian():
    g, series = make_abelian([2])
    assert g.order == 2 and series.derived_length == 1
    g2, s2 = make_abelian([2, 4])
    assert g2.order == 8
    assert g2.is_abelian()
    assert s2.derived_length == 1


def test_invalid_sizes():
    with pytest.raises(InvalidSize):
        make_dihedral(2)
    with pytest.raises(InvalidSize):
        make_abelian([1, 3])
    g, series = make_dihedral(3)
    with pytest.raises(InvalidSize):
        plan_network(g, series, 0)


def test_abelian_depth_independent_of_n():
    g, series = make_abelian([6])
    depths = {plan_network(g, series, n).depth for n in (1, 2, 8, 33)}
    assert depths == {1}


def test_d4_network_against_oracle_random():
    g, series = make_dihedral(4)
    assert groups.random_check(g, series, 16, trials=1000, seed=1)


def test_d3_hand_example():
    # (m r^1)(m r^2) = r^1
    g, series = make_dihedral(3)
    net = plan_network(g, series, 2)
    assert evaluate(net, [dihedral_id(3, 1, 1), dihedral_id(3, 1, 2)]) == \
        dihedral_id(3, 0, 1)


def test_evaluate_identity_sequences():
    g, series = make_dihedral(5)
    net = plan_network(g, series, 7)
    assert evaluate(net, [0] * 7) == 0
    net1 = plan_network(g, series, 1)
    for a in range(g.order):
        assert evaluate(net1, [a]) == a


def test_evaluate_length_mismatch():
    g, series = make_dihedral(3)
    net = plan_network(g, series, 4)
    with pytest.raises(LengthMismatch):
        evaluate(net, [0, 0])


def test_dn_closed_formula():
    # m^{sum p} r^{sum (-1)^{p_{i+1}+...+p_n} k_i} against both the network
    # and the table fold
    n = 6
    g, series = make_dihedral(n)
    rng = np.random.default_rng(0)
    net = plan_network(g, series, 5)
    for _ in range(200):
        ps = rng.integers(0, 2, 5)
        ks = rng.integers(0, n, 5)
        seq = [dihedral_id(n, p, k) for p, k in zip(ps, ks)]
        p_tot = int(ps.sum()) % 2
        k_tot = 0
        for i in range(5):
            flip = int(ps[i + 1:].sum()) % 2
            k_tot += (-1) ** flip * int(ks[i])
        expected = dihedral_id(n, p_tot, k_tot)
        assert g.fold(seq) == expected
        assert evaluate(net, seq) == expected


def test_depth_constant_and_ancillas_linear():
    g, series = make_dihedral(4)
    rows = groups.depth_report(g, series, [4, 16, 64, 256])
    depths = {r["depth"] for r in rows}
    assert len(depths) == 1
    anc = {r["n"]: r["ancillas"] for r in rows}
    assert anc[256] / anc[64] <= 4.5


def test_zn_depth_one():
    g, series = make_abelian([6])
    rows = groups.depth_report(g, series, [4, 16, 64])
    assert all(r["depth"] == 1 for r in rows)


def test_exhaustive_small():
    g, series = make_dihedral(3)
    assert groups.exhaustive_check(g, series, 3)
    g2, s2 = make_abelian([2, 2])
    assert groups.exhaustive_check(g2, s2, 4)


def test_network_layer_outputs_disjoint():
    g, series = make_dihedral(4)
    net = plan_network(g, series, 9)
    for layer in net.layers:
        outs = [node.output for node in layer]
        assert len(outs) == len(set(outs))
    assert net.ancilla_count == net.n_slots - 9


def test_parse_group_round_trip():
    g, series = make_dihedral(3)
    doc = json.dumps({"order": g.order, "table": g.table.tolist(),
                      "series": [list(s) for s in series.subgroups]})
    g2, s2 = groups.parse_group(doc)
    assert np.array_equal(g2.table, g.table)
    assert s2.subgroups == series.subgroups


def test_parse_group_rejects_garbage():
    with pytest.raises(groups.ParseError):
        groups.parse_group("{oops")
    with pytest.raises(groups.ParseError):
        groups.parse_group('{"order": 2, "table": [[0, 1], [1, 1]], "series": [[0], [0, 1]]}')
    with pytest.raises(groups.ParseError):
        groups.parse_group(
            '{"order": 2, "table": [[0, 1], [1, 0]], "series": [[0, 1]]}')


def test_series_validation_failures():
    g, _ = make_dihedral(3)
    with pytest.raises(GroupStructureError):
        SolvableSeries(((0,), (0, 3), (0, 1, 2, 3, 4, 5))).validate(g)  # not closed
    # D3 is non-abelian, so the one-step series has a non-abelian quotient
    with pytest.raises(GroupStructureError):
        SolvableSeries(((0,), tuple(range(6)))).validate(g)


def test_associativity_checked():
    with pytest.raises(GroupStructureError):
        FiniteGroup.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
