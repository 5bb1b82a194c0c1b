"""Solvable-group structure, network planning, and oracle agreement."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from fdsc import groups
from fdsc.groups import (FiniteGroup, GroupStructureError, InvalidSize,
                         LengthMismatch, SolvableSeries, evaluate,
                         make_abelian, make_dihedral, plan_network)


def dihedral_id(n, p, k):
    return p * n + k % n


def make_s4():
    """S4 as the permutations of 4 under composition (a*b)(i) = a(b(i)),
    with the series {e} < V4 < A4 < S4 (derived length 3)."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    v4 = [index[p] for p in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                             (3, 2, 1, 0))]
    a4 = [i for i, p in enumerate(perms)
          if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    return SolvableSeries(FiniteGroup.from_table(table),
                          ((0,), tuple(sorted(v4)), tuple(a4), tuple(range(24))))


def make_d4_centre():
    """D4 with {e} < {e, r^2} < D4: the quotient is Z2 x Z2 and its section
    representatives r, m do not commute, so the cocycle chi is nontrivial."""
    return SolvableSeries(make_dihedral(4).group, ((0,), (0, 2), tuple(range(8))))


def make_s4_cycle():
    """S4 relabelled so that the 4-cycle i -> i+1 is element 1, the minimum
    of the odd coset: its square is a double transposition, so the cocycle
    chi takes values in A4 that are not central there."""
    series = make_s4()
    perms = list(itertools.permutations(range(4)))
    cycle = perms.index((1, 2, 3, 0))
    order = np.array([0, cycle] + [i for i in range(1, 24) if i != cycle])
    pos = np.argsort(order)
    g = FiniteGroup.from_table(pos[series.group.table[np.ix_(order, order)]])
    return SolvableSeries(g, tuple(tuple(sorted(pos[list(s)].tolist()))
                                   for s in series.subgroups))


CASES = {"D3": lambda: make_dihedral(3), "D4": lambda: make_dihedral(4),
         "D4c": make_d4_centre, "S4c": make_s4_cycle,
         "D8": lambda: make_dihedral(8), "Z2xZ4": lambda: make_abelian([2, 4]),
         "S4": make_s4}


@functools.cache
def planned(name, n):
    series = CASES[name]()
    return series.group, plan_network(series, n)


def test_d3_basic_structure():
    series = make_dihedral(3)
    g = series.group
    assert g.order == 6
    assert len(series.subgroups) - 1 == 2
    assert g.identity == 0
    # r * r^2 = e, m r^1 * m r^1 = e
    assert g.table[1, 2] == 0
    assert g.table[4, 4] == 0


def test_d3_reflection_conjugation():
    n = 8
    g = make_dihedral(n).group
    m = dihedral_id(n, 1, 0)
    for k in range(n):
        r_k = dihedral_id(n, 0, k)
        assert g.table[g.table[m, r_k], g.inverse[m]] == dihedral_id(n, 0, -k)


def test_d8_series_invariants():
    series = make_dihedral(8)
    # construction reruns the exhaustive normality and abelian-quotient checks
    SolvableSeries(series.group, series.subgroups)


def test_dn_chi_trivial_and_phi_inverts():
    n = 5
    series = make_dihedral(n)
    g = series.group
    level = groups._build_level(g, series.subgroups)
    assert (level.chi == level.n_local[g.identity]).all()
    # phi_m acts on rotations as k -> -k; phi_e is the identity
    h_m = level.tau[dihedral_id(n, 1, 0)]
    h_e = level.tau[0]
    for k in range(n):
        loc = level.n_local[dihedral_id(n, 0, k)]
        assert level.n_elements[level.phi[h_m, loc]] == dihedral_id(n, 0, -k)
        assert level.phi[h_e, loc] == loc


def test_phi_is_bijection():
    series = make_dihedral(6)
    level = groups._build_level(series.group, series.subgroups)
    for h in range(level.h_table.shape[0]):
        assert sorted(level.phi[h]) == list(range(len(level.n_elements)))


def test_chi_lands_in_normal_subgroup():
    series = make_dihedral(7)
    level = groups._build_level(series.group, series.subgroups)
    members = set(int(x) for x in level.n_elements)
    for i in range(level.chi.shape[0]):
        for j in range(level.chi.shape[1]):
            assert int(level.n_elements[level.chi[i, j]]) in members


def test_make_abelian():
    series = make_abelian([2])
    assert series.group.order == 2 and len(series.subgroups) - 1 == 1
    s2 = make_abelian([2, 4])
    g2 = s2.group
    assert g2.order == 8
    assert np.array_equal(g2.table, g2.table.T)
    assert len(s2.subgroups) - 1 == 1


def test_invalid_sizes():
    with pytest.raises(InvalidSize):
        make_dihedral(2)
    with pytest.raises(InvalidSize):
        make_abelian([1, 3])
    series = make_dihedral(3)
    with pytest.raises(InvalidSize):
        plan_network(series, 0)


def test_abelian_depth_independent_of_n():
    series = make_abelian([6])
    depths = {plan_network(series, n).depth for n in (1, 2, 8, 33)}
    assert depths == {1}


def test_d4_network_against_oracle_random():
    series = make_dihedral(4)
    assert groups.random_check(series, 16, trials=1000, seed=1)


def test_d3_hand_example():
    # (m r^1)(m r^2) = r^1
    series = make_dihedral(3)
    net = plan_network(series, 2)
    assert evaluate(net, [dihedral_id(3, 1, 1), dihedral_id(3, 1, 2)]) == \
        dihedral_id(3, 0, 1)


def test_evaluate_identity_sequences():
    series = make_dihedral(5)
    g = series.group
    net = plan_network(series, 7)
    assert evaluate(net, [0] * 7) == 0
    net1 = plan_network(series, 1)
    for a in range(g.order):
        assert evaluate(net1, [a]) == a


def test_evaluate_length_mismatch():
    series = make_dihedral(3)
    net = plan_network(series, 4)
    with pytest.raises(LengthMismatch):
        evaluate(net, [0, 0])
    for bad in (np.zeros((5, 3), dtype=int), np.zeros((4, 5), dtype=int), 0):
        with pytest.raises(LengthMismatch):
            evaluate(net, bad)
    assert evaluate(net, np.zeros((4, 4), dtype=int)).shape == (4,)


def test_dn_closed_formula():
    # m^{sum p} r^{sum (-1)^{p_{i+1}+...+p_n} k_i} against both the network
    # and the table fold
    n = 6
    series = make_dihedral(n)
    g = series.group
    rng = np.random.default_rng(0)
    net = plan_network(series, 5)
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
    series = make_dihedral(4)
    rows = groups.depth_report(series, [4, 16, 64, 256])
    depths = {r["depth"] for r in rows}
    assert len(depths) == 1
    anc = {r["n"]: r["ancillas"] for r in rows}
    assert anc[256] / anc[64] <= 4.5


def test_zn_depth_one():
    series = make_abelian([6])
    rows = groups.depth_report(series, [4, 16, 64])
    assert all(r["depth"] == 1 for r in rows)


def test_exhaustive_small():
    series = make_dihedral(3)
    assert groups.exhaustive_check(series, 3)
    s2 = make_abelian([2, 2])
    assert groups.exhaustive_check(s2, 4)


def test_network_layer_outputs_disjoint():
    # every non-input slot is written exactly once, and only from inputs or
    # outputs of earlier layers: the unstaged evaluation relies on both
    for name, n in (("D4", 9), ("Z2xZ4", 9), ("S4", 5)):
        _, net = planned(name, n)
        written = set(range(n))
        for layer in net.layers:
            outs = [int(s) for nodes in layer for s in nodes.outputs]
            assert len(outs) == len(set(outs)) and written.isdisjoint(outs)
            for nodes in layer:
                assert set(nodes.inputs.ravel().tolist()) <= written
                if nodes.combine:   # outputs[j] multiplies inputs[j:]
                    assert nodes.inputs.ndim == 1
                    assert len(nodes.outputs) <= len(nodes.inputs)
                else:
                    assert nodes.inputs.shape[1:] == nodes.outputs.shape
            written.update(outs)
        assert written == set(range(net.n_slots))
        assert net.ancilla_count == net.n_slots - n


@pytest.mark.parametrize("name, n, nodes, ancillas", [
    ("D4", 9, [18, 9, 17, 1, 1], 46),
    ("S4", 5, [10, 5, 9, 18, 9, 17, 1, 1, 1], 71),
    ("Z2xZ4", 9, [1], 1),
    ("D64", 256, [512, 256, 511, 1, 1], 1281),
])
def test_plan_shape_pinned(name, n, nodes, ancillas):
    # nodes per layer, depth and ancillas of the planned networks
    series = CASES.get(name, lambda: make_dihedral(int(name[1:])))()
    net = plan_network(series, n)
    assert [sum(len(s.outputs) for s in layer) for layer in net.layers] == nodes
    assert net.depth == len(nodes) and net.ancilla_count == ancillas


def test_s4_recursive_level():
    series = make_s4()
    level = groups._build_level(series.group, series.subgroups)
    assert level.sub is not None and level.sub.sub is None
    for n in (1, 2, 3):
        assert groups.exhaustive_check(series, n)
    assert groups.random_check(series, 40, trials=500, seed=3)
    assert {plan_network(series, n).depth for n in (2, 8, 32)} == {9}


@pytest.mark.parametrize("name", ["D3", "D4", "D5", "D6", "D7", "D8", "S4",
                                  "D4c", "S4c"])
def test_level_identities(name):
    # checked against the table by scalar products, not the array build
    series = CASES.get(name, lambda: make_dihedral(int(name[1:])))()
    level = groups._build_level(series.group, series.subgroups)
    sub_levels = 0
    while level is not None:
        h = level.group
        members = level.n_elements
        if level.sub is not None:   # built from the parent, not from_table
            sub_levels += 1
            sub, ref = level.sub.group, FiniteGroup.from_table(level.n_table)
            assert (sub.order, sub.identity) == (ref.order, ref.identity)
            assert np.array_equal(sub.table, ref.table)
            assert np.array_equal(sub.inverse, ref.inverse)
        for x in range(h.order):
            rep = int(level.psi[level.tau[x]])
            assert level.merge[rep, level.norm_part[x]] == x
        nh = len(level.psi)
        for i, j in itertools.product(range(nh), repeat=2):
            pi, pj = int(level.psi[i]), int(level.psi[j])
            prod = h.table[pi, pj]
            assert level.h_table[i, j] == level.tau[prod]
            pij = int(level.psi[level.h_table[i, j]])
            assert members[level.chi[i, j]] == h.table[h.inverse[pij], prod]
        for i, k in itertools.product(range(nh), range(len(members))):
            pi = int(level.psi[i])
            assert members[level.phi[i, k]] == \
                h.table[h.table[h.inverse[pi], members[k]], pi]
        level = level.sub
    assert sub_levels == (name in ("S4", "S4c"))


def test_d4_centre_series_nontrivial_cocycle():
    series = make_d4_centre()
    g = series.group
    level = groups._build_level(g, series.subgroups)
    assert (level.chi != level.n_local[g.identity]).any()
    for n in (1, 2, 3, 4):
        assert groups.exhaustive_check(series, n)
    assert groups.random_check(series, 64, trials=300, seed=4)


def test_s4_cocycle_not_central_in_normal_subgroup():
    # the network must keep chi and phi values in sequence order
    series = make_s4_cycle()
    level = groups._build_level(series.group, series.subgroups)
    n_group = level.sub.group
    chi = np.unique(level.chi)
    assert (n_group.table[chi] != n_group.table[:, chi].T).any()
    for n in (1, 2, 3):
        assert groups.exhaustive_check(series, n)
    assert groups.random_check(series, 40, trials=500, seed=5)


def test_checks_cover_every_sequence(monkeypatch):
    # small blocks, so that block boundaries are crossed many times
    monkeypatch.setattr(groups, "_BLOCK_CELLS", 200)
    seen = []
    real = groups.evaluate
    monkeypatch.setattr(groups, "evaluate",
                        lambda net, seq: seen.append(np.array(seq)) or real(net, seq))
    series = make_dihedral(3)
    assert groups.exhaustive_check(series, 3)
    assert len(seen) > 1
    assert np.concatenate(seen).tolist() == \
        [list(p) for p in itertools.product(range(6), repeat=3)]
    seen.clear()
    assert groups.random_check(series, 5, trials=1000, seed=2)
    assert len(seen) > 1 and sum(len(b) for b in seen) == 1000


@settings(max_examples=60)
@given(name=strategies.sampled_from(sorted(CASES)),
       n=strategies.integers(1, 6),
       batch=strategies.sampled_from([(1,), (5,), (2, 3), (3, 1)]),
       seed=strategies.integers(0, 2 ** 32 - 1))
def test_evaluate_batch_matches_rows(name, n, batch, seed):
    g, net = planned(name, n)
    seqs = np.random.default_rng(seed).integers(0, g.order, (*batch, n))
    got = evaluate(net, seqs)
    folded = g.fold(seqs)
    assert got.shape == folded.shape == batch
    for idx in np.ndindex(batch):
        row = seqs[idx].tolist()
        expected = functools.reduce(lambda a, b: g.table[a, b], row, g.identity)
        assert got[idx] == evaluate(net, row) == g.fold(row) == expected


def test_parse_group_round_trip():
    series = make_dihedral(3)
    g = series.group
    doc = json.dumps({"order": g.order, "table": g.table.tolist(),
                      "series": [list(s) for s in series.subgroups]})
    s2 = groups.parse_group(doc)
    assert np.array_equal(s2.group.table, g.table)
    assert s2.subgroups == series.subgroups


def test_parse_group_rejects_garbage():
    with pytest.raises(groups.ParseError):
        groups.parse_group("{oops")
    with pytest.raises(groups.ParseError):
        groups.parse_group('{"order": 2, "table": [[0, 1], [1, 1]], "series": [[0], [0, 1]]}')
    with pytest.raises(groups.ParseError):
        groups.parse_group(
            '{"order": 2, "table": [[0, 1], [1, 0]], "series": [[0, 1]]}')


def all_subgroups(g):
    """Every subgroup of g: the closures of the subsets holding the identity
    (in a finite group, closure under multiplication makes a subgroup)."""
    found = set()
    others = [x for x in range(g.order) if x != g.identity]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            sub = {g.identity, *extra}
            while not (grown := set(g.table[np.ix_(list(sub), list(sub))].flat)) <= sub:
                sub |= grown
            found.add(frozenset(sub))
    return found


def increasing_chains(subgroups, chain):
    """Strictly increasing chains of ``subgroups`` that extend ``chain`` up to
    the largest subgroup."""
    if len(chain[-1]) == max(map(len, subgroups)):
        yield chain
    for sub in subgroups:
        if chain[-1] < sub:
            yield from increasing_chains(subgroups, chain + (sub,))


def test_every_subgroup_chain_is_rejected_or_planned_correctly():
    # a chain fails on construction, or every network planned from it agrees
    # with the table fold and runs each combine layer over a commutative
    # table, so that layer is one simultaneous step: validation is the
    # planner's only guard, and a sequential fold would not notice a
    # non-abelian combine table
    total, valid, combines, failures = 0, 0, 0, set()
    for g in (make_dihedral(4).group, make_dihedral(6).group,
              make_abelian([2, 4]).group):
        subgroups = all_subgroups(g)
        for chain in increasing_chains(subgroups, (frozenset([g.identity]),)):
            total += 1
            try:
                series = SolvableSeries(g, tuple(tuple(sorted(s)) for s in chain))
            except GroupStructureError as e:
                failures.add(str(e).split(" under")[0])
                continue
            valid += 1
            assert all(groups.exhaustive_check(series, n) for n in (1, 2, 3)), chain
            for n in (1, 2, 3):
                tables = [nodes.table for layer in plan_network(series, n).layers
                          for nodes in layer if nodes.combine]
                combines += len(tables)
                assert all(np.array_equal(t, t.T) for t in tables), chain
    assert (total, valid, combines) == (62, 29, 219)
    assert failures == {"subgroup not normal", "quotient is not abelian"}


def test_series_validation_failures():
    g = make_dihedral(3).group
    with pytest.raises(GroupStructureError):
        SolvableSeries(g, ((0,), (0, 3), (0, 1, 2, 3, 4, 5)))  # not closed
    # D3 is non-abelian, so the one-step series has a non-abelian quotient
    with pytest.raises(GroupStructureError):
        SolvableSeries(g, ((0,), tuple(range(6))))


@pytest.mark.parametrize("series", [((0,), (0, 1, 1)), ((0, 0), (0, 1))])
def test_series_entry_listing_an_element_twice_is_rejected(series):
    # rejected, never deduplicated into the valid series ((0,), (0, 1))
    g = FiniteGroup.from_table([[0, 1], [1, 0]])
    with pytest.raises(GroupStructureError, match="twice"):
        SolvableSeries(g, series)


def test_series_validation_names_first_offender():
    g = make_dihedral(3).group
    # {e, m} is a subgroup, but r m r^-1 = m r^-2 lies outside it
    with pytest.raises(GroupStructureError, match="conjugation by 1$"):
        SolvableSeries(g, ((0,), (0, 3), tuple(range(6))))


@pytest.mark.parametrize("table, match", [
    ([[0, 1], [1, 0], [0, 1]], "square"),
    ([[0, 2], [1, 0]], "out of range"),
    ([[0, 1], [0, 1]], "identity"),           # left identities only
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "element 1 lacks"),   # 1*2 = e, 2*1 = 1
])
def test_from_table_names_the_failed_axiom(table, match):
    with pytest.raises(GroupStructureError, match=match):
        FiniteGroup.from_table(table)


@pytest.mark.parametrize("table", [
    [[0.9, 1.2], [1.7, 0.1]],                 # truncated, Z2
    [[True, False], [False, True]],           # as 0/1, Z2 with identity 1
    [[0, True], [True, 0]],                   # booleans beside integers: Z2
    [np.array([0, 1]), [np.True_, 0]],
])
def test_from_table_rejects_non_integers(table):
    with pytest.raises(GroupStructureError, match="must be integers"):
        FiniteGroup.from_table(table)


def test_from_table_takes_any_integer_dtype():
    g = FiniteGroup.from_table(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert g.table.dtype == np.int64 and g.identity == 0


def test_series_rejects_non_integer_members():
    # truncated, ((0,), (0, 1)) is Z2's one-step series
    g = FiniteGroup.from_table([[0, 1], [1, 0]])
    with pytest.raises(GroupStructureError, match="must be integers"):
        SolvableSeries(g, ((0.0,), (0.5, 1.0)))
    with pytest.raises(GroupStructureError, match="must be integers, not bool"):
        SolvableSeries(g, ((0,), (0, True)))


def test_associativity_checked():
    with pytest.raises(GroupStructureError):
        FiniteGroup.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_associativity_checked_above_order_64():
    # order 128 with r * r^2 = r^4 instead of r^3: identity and inverses
    # are intact, so only the associativity check can reject it
    t = make_dihedral(64).group.table.copy()
    t[1, 2] = 4
    with pytest.raises(GroupStructureError, match="associative"):
        FiniteGroup.from_table(t)


D3_DOC = {"order": 6, "table": make_dihedral(3).group.table.tolist(),
          "series": [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5]]}


@pytest.mark.parametrize("change", [
    {"table": (np.array(D3_DOC["table"]) + 0.4).tolist()},
    {"table": [[float(x) for x in row] for row in D3_DOC["table"]]},
    {"order": "6"},
    {"order": 6.7},
    {"order": 6.0},
    {"order": True},
    {"series": [[0], [0, 1.7, 2], list(range(6))]},
    {"series": [[0], [0, True, 2], list(range(6))]},
    {"series": 5},
    {"series": [0, [0, 1, 2], list(range(6))]},
    {"table": 5},
    {"table": [[10 ** 30] * 6] * 6},
    {"series": [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5, 10 ** 30]]},
])
def test_parse_group_rejects_instead_of_repairing(change):
    assert groups.parse_group(json.dumps(D3_DOC)).group.order == 6
    with pytest.raises(groups.ParseError):
        groups.parse_group(json.dumps({**D3_DOC, **change}))


@pytest.mark.parametrize("order", [0, -1, 2 ** 70])
def test_empty_group_table_is_a_parse_error(order):
    # an empty table decodes to no entries, whatever the order names
    doc = json.dumps({"order": order, "table": [], "series": []})
    with pytest.raises(groups.ParseError) as exc:
        groups.parse_group(doc)
    assert str(exc.value) == "table must be square and nonempty"
