"""Layered constant-depth multiplication planner for solvable finite groups.

Given a group table and a subnormal series with abelian quotients, builds a
classical dataflow network computing g1*...*gn whose layer count depends
only on the series length, never on n.  Each sequence element g splits as
a section image psi(h) times a normal part; the quotient suffix products
are formed in one simultaneous layer because the quotient is abelian, the
cocycle and conjugation corrections are parallel table lookups, and the
remaining 2n-1 normal-subgroup elements are multiplied recursively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .css import InvalidSize, ParseError, is_json_int

# Slot values evaluated per block by the checks: 1 MB of int64, enough for
# numpy to amortise its per-call cost, small enough to keep memory flat.
_BLOCK_CELLS = 1 << 17


class LengthMismatch(ValueError):
    """Sequence length differs from the planned network's arity."""


class GroupStructureError(ValueError):
    """Multiplication table or series fails a group axiom."""


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: np.ndarray
    identity: int
    inverse: np.ndarray

    @classmethod
    def from_table(cls, table, check_associativity: bool = True) -> "FiniteGroup":
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.size == 0:
            raise GroupStructureError("table must be square and nonempty")
        n = t.shape[0]
        if t.min() < 0 or t.max() >= n:
            raise GroupStructureError("table entries out of range")
        rng = np.arange(n)
        two_sided = (t == rng).all(axis=1) & (t == rng[:, None]).all(axis=0)
        if not two_sided.any():
            raise GroupStructureError("no identity element")
        ident = int(two_sided.argmax())
        is_e = t == ident
        inv = is_e.argmax(axis=1)
        has_inv = (is_e.sum(axis=1) == 1) & (t[inv, rng] == ident)
        if not has_inv.all():
            raise GroupStructureError(
                f"element {has_inv.argmin()} lacks a two-sided inverse")
        # row = t[a]: t[row][b, c] = (ab)c and row[t][b, c] = a(bc)
        if check_associativity and not all(np.array_equal(t[row], row[t])
                                           for row in t):
            raise GroupStructureError("multiplication is not associative")
        return cls(n, t, ident, inv)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def fold(self, seq) -> np.ndarray:
        """Left fold over the table of sequences laid along the last axis:
        the reference product that networks are checked against."""
        seqs = np.asarray(seq, dtype=np.int64)
        acc = np.full(seqs.shape[:-1], self.identity, dtype=np.int64)
        for k in range(seqs.shape[-1]):
            acc = self.table[acc, seqs[..., k]]
        return acc

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)


@dataclass(frozen=True)
class SolvableSeries:
    """Chain {e} = G_0 <= G_1 <= ... <= G_k = G, each step normal with
    abelian quotient."""

    subgroups: tuple[tuple[int, ...], ...]

    @property
    def derived_length(self) -> int:
        return len(self.subgroups) - 1

    def validate(self, group: FiniteGroup) -> None:
        chain = [_sorted_ids(s) for s in self.subgroups]
        if not chain or chain[0].tolist() != [group.identity]:
            raise GroupStructureError("series must start at the trivial subgroup")
        if not np.array_equal(chain[-1], np.arange(group.order)):
            raise GroupStructureError("series must end at the full group")
        steps = list(zip(chain, chain[1:]))
        if not all(np.isin(lo, hi).all() for lo, hi in steps):
            raise GroupStructureError("series is not increasing")
        t = group.table
        if not all(np.isin(t[np.ix_(m, m)], m).all() for m in chain):
            raise GroupStructureError("series entry is not a subgroup")
        for lo, hi in steps:
            conj = t[t[np.ix_(hi, lo)], group.inverse[hi, None]]
            outside = ~np.isin(conj, lo).all(axis=1)
            if outside.any():
                raise GroupStructureError(
                    f"subgroup not normal under conjugation by {hi[outside.argmax()]}")
            tau = _coset_map(group, lo)
            prods = t[np.ix_(hi, hi)]
            if not np.array_equal(tau[prods], tau[prods.T]):
                raise GroupStructureError("quotient is not abelian")


def _sorted_ids(members) -> np.ndarray:
    # sorted(set()) rather than np.unique, which imports numpy.ma (1.8 MB)
    return np.array(sorted(set(members)), dtype=np.int64)


def _coset_map(group: FiniteGroup, sub) -> np.ndarray:
    """Map each element g to the minimum member of its left coset g*sub."""
    return group.table[:, sub].min(axis=1)


@dataclass(frozen=True)
class _Level:
    """Structure of one series step: G with normal subgroup N and data for
    the abelian quotient H = G/N (elements indexed 0..|H|-1 by their
    minimum-id coset representative)."""

    group: FiniteGroup
    tau: np.ndarray              # |G| -> H index
    psi: np.ndarray              # H index -> representative element of G
    h_table: np.ndarray          # quotient multiplication
    n_elements: np.ndarray       # N as sorted element ids of G
    n_local: np.ndarray          # |G| -> local N index, -1 outside N
    norm_part: np.ndarray        # |G| -> local index of psi(tau(g))^-1 g
    chi: np.ndarray              # (|H|, |H|) -> local N index
    phi: np.ndarray              # (|H|, |N|) -> local N index
    merge: np.ndarray            # (|G|, |N|) -> G element: g * n
    n_table: np.ndarray          # multiplication of N in local indices
    sub: Optional["_Level"]      # recursive structure of N (None when the
    #                              remaining chain is a single abelian step)


def _build_level(group: FiniteGroup, chain: Sequence[Sequence[int]]) -> Optional[_Level]:
    """Recursive level data for the full chain ({e}, ..., G)."""
    if len(chain) < 2:
        return None
    t, inv = group.table, group.inverse
    n_elements = _sorted_ids(chain[-2])
    rep = _coset_map(group, n_elements)
    psi = np.flatnonzero(rep == np.arange(group.order))   # coset minima
    tau = np.searchsorted(psi, rep)
    h_table = tau[t[np.ix_(psi, psi)]]
    n_local = np.full(group.order, -1, dtype=np.int64)
    n_local[n_elements] = np.arange(n_elements.size)
    norm_part = n_local[t[inv[psi[tau]], np.arange(group.order)]]
    # chi(i, j) = psi(ij)^-1 psi(i) psi(j), phi(i, n) = psi(i)^-1 n psi(i)
    chi = n_local[t[t[inv[psi[h_table]], psi[:, None]], psi]]
    if (chi < 0).any():
        raise GroupStructureError("cocycle left the normal subgroup")
    phi = n_local[t[t[inv[psi, None], n_elements], psi[:, None]]]
    if (phi < 0).any():
        raise GroupStructureError("conjugation left the normal subgroup")
    merge = t[:, n_elements]
    n_table = n_local[t[np.ix_(n_elements, n_elements)]]
    sub = None
    if len(chain) > 3:
        sub_group = FiniteGroup.from_table(n_table, check_associativity=False)
        sub_chain = [n_local[_sorted_ids(members)] for members in chain[:-1]]
        sub = _build_level(sub_group, sub_chain)
    return _Level(group, tau, psi, h_table, n_elements, n_local, norm_part,
                  chi, phi, merge, n_table, sub)


# -- network ---------------------------------------------------------------


@dataclass
class Node:
    kind: str                    # quotient-lookup | normal-lookup | abelian-combine
    #                            | chi-lookup | phi-lookup | section-lift | group-mul
    inputs: tuple[int, ...]
    output: int
    table: np.ndarray


@dataclass
class MulNetwork:
    n_inputs: int
    layers: tuple[tuple[Node, ...], ...]
    output: int
    n_slots: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def ancilla_count(self) -> int:
        return self.n_slots - self.n_inputs


class _Builder:
    def __init__(self, n_inputs: int):
        self.next_slot = n_inputs
        self.layers: list[list[Node]] = []

    def slot(self) -> int:
        s = self.next_slot
        self.next_slot += 1
        return s

    def layer(self, nodes: list[Node]) -> None:
        self.layers.append(nodes)


def _plan(level: _Level, inputs: list[int], b: _Builder) -> int:
    """Emit layers computing the ordered product of the input slots."""
    n = len(inputs)
    h_slots = []
    n_slots = []
    split_layer = []
    for g in inputs:
        h = b.slot()
        split_layer.append(Node("quotient-lookup", (g,), h, level.tau))
        h_slots.append(h)
    for g in inputs:
        nl = b.slot()
        split_layer.append(Node("normal-lookup", (g,), nl, level.norm_part))
        n_slots.append(nl)
    b.layer(split_layer)
    suffix = [0] * n
    suffix_layer = []
    for j in range(n):
        s = b.slot()
        suffix_layer.append(Node("abelian-combine", tuple(h_slots[j:]), s,
                                 level.h_table))
        suffix[j] = s
    b.layer(suffix_layer)
    lookup_layer = []
    lift = b.slot()
    lookup_layer.append(Node("section-lift", (suffix[0],), lift, level.psi))
    nseq = []
    for i in range(n - 1):
        c = b.slot()
        lookup_layer.append(Node("chi-lookup", (h_slots[i], suffix[i + 1]), c,
                                 level.chi))
        v = b.slot()
        lookup_layer.append(Node("phi-lookup", (suffix[i + 1], n_slots[i]), v,
                                 level.phi))
        nseq.extend((c, v))
    nseq.append(n_slots[n - 1])
    b.layer(lookup_layer)
    if level.sub is not None:
        n_out = _plan(level.sub, nseq, b)
    else:
        # remaining chain is {e} <= N with N abelian: fold in one layer
        n_out = b.slot()
        b.layer([Node("abelian-combine", tuple(nseq), n_out, level.n_table)])
    out = b.slot()
    b.layer([Node("group-mul", (lift, n_out), out, level.merge)])
    return out


def plan_network(group: FiniteGroup, series: SolvableSeries, n: int) -> MulNetwork:
    """Build the layered network for products of n elements."""
    if n < 1:
        raise InvalidSize("sequence length must be >= 1")
    series.validate(group)
    chain = [list(s) for s in series.subgroups]
    if len(chain) <= 2:
        # abelian or trivial group: a single simultaneous combine layer
        if not group.is_abelian():
            raise GroupStructureError("one-step series requires an abelian group")
        b = _Builder(n)
        out = b.slot()
        b.layer([Node("abelian-combine", tuple(range(n)), out, group.table)])
        return MulNetwork(n, tuple(tuple(l) for l in b.layers), out, b.next_slot)
    level = _build_level(group, chain)
    b = _Builder(n)
    out = _plan(level, list(range(n)), b)
    return MulNetwork(n, tuple(tuple(l) for l in b.layers), out, b.next_slot)


def evaluate(net: MulNetwork, seq) -> np.ndarray:
    """Layer-by-layer evaluation of sequences laid along the last axis of
    ``seq``, with any batch shape in front (one sequence gives a 0-d
    result).  Every slot is written once, by a layer after those that wrote
    its inputs, so each node writes straight into the slot array."""
    seqs = np.asarray(seq, dtype=np.int64)
    if seqs.shape[-1:] != (net.n_inputs,):
        raise LengthMismatch(f"expected {net.n_inputs} elements along the "
                             f"last axis, got shape {seqs.shape}")
    slots = np.empty((net.n_slots, *seqs.shape[:-1]), dtype=np.int64)
    slots[:net.n_inputs] = np.moveaxis(seqs, -1, 0)
    for layer in net.layers:
        for node in layer:
            if node.kind == "abelian-combine":
                acc = slots[node.inputs[0]]
                for s in node.inputs[1:]:
                    acc = node.table[acc, slots[s]]
                slots[node.output] = acc
            else:
                slots[node.output] = node.table[tuple(slots[s] for s in node.inputs)]
    return slots[net.output]


# -- built-in families and file format --------------------------------------


def make_dihedral(n: int) -> tuple[FiniteGroup, SolvableSeries]:
    """Symmetries of the regular n-gon; elements p*n + k encode m^p r^k."""
    if n < 3:
        raise InvalidSize("dihedral group needs n >= 3")
    order = 2 * n
    p, k = np.divmod(np.arange(order), n)
    sign = 1 - 2 * p             # r^k m = m r^-k
    t = (p[:, None] ^ p) * n + (sign * k[:, None] + k) % n
    g = FiniteGroup.from_table(t)
    series = SolvableSeries(((0,), tuple(range(n)), tuple(range(order))))
    series.validate(g)
    return g, series


def make_abelian(orders: Sequence[int]) -> tuple[FiniteGroup, SolvableSeries]:
    """Direct product of cyclic groups, with the one-step series."""
    orders = list(orders)
    if not orders or any(d < 2 for d in orders):
        raise InvalidSize("cyclic factors must all be >= 2")
    total = int(np.prod(orders))
    # element x has digits x % d1, x // d1 % d2, ...: Fortran order
    digits = np.unravel_index(np.arange(total), orders, order="F")
    t = np.ravel_multi_index(tuple((v[:, None] + v) % d
                                   for v, d in zip(digits, orders)),
                             orders, order="F")
    g = FiniteGroup.from_table(t)
    series = SolvableSeries(((0,), tuple(range(total))))
    series.validate(g)
    return g, series


def parse_group(text: str) -> tuple[FiniteGroup, SolvableSeries]:
    """JSON group format: {"order": n, "table": [[..]], "series": [[ids]..]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    try:
        order = doc["order"]
        table = doc["table"]
        series = doc["series"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"missing field: {e}") from e
    if not is_json_int(order):
        raise ParseError("order must be an integer")
    if not _is_id_lists(table):
        raise ParseError("table must be a list of rows of integer element ids")
    if not _is_id_lists(series):
        raise ParseError("series must be a list of lists of integer element ids")
    try:
        g = FiniteGroup.from_table(table)
    except (ValueError, OverflowError) as e:   # also ragged rows, huge ids
        raise ParseError(str(e)) from e
    if g.order != order:
        raise ParseError("order field disagrees with table size")
    s = SolvableSeries(tuple(tuple(sub) for sub in series))
    try:
        s.validate(g)
    except (GroupStructureError, OverflowError) as e:
        raise ParseError(str(e)) from e
    return g, s


def _is_id_lists(v) -> bool:
    """JSON integers only: 1.0, 1.7 and true are not element ids."""
    return isinstance(v, list) and all(
        isinstance(row, list) and all(map(is_json_int, row)) for row in v)


def depth_report(group: FiniteGroup, series: SolvableSeries,
                 n_values: Sequence[int]) -> list[dict]:
    """Rows of (n, depth, ancilla_count) for the planned networks."""
    rows = []
    for n in n_values:
        net = plan_network(group, series, n)
        rows.append({"n": int(n), "depth": net.depth,
                     "ancillas": net.ancilla_count})
    return rows


def _block_rows(net: MulNetwork) -> int:
    return max(1, _BLOCK_CELLS // net.n_slots)


def exhaustive_check(group: FiniteGroup, series: SolvableSeries, n: int) -> bool:
    """Compare the network against the table fold on every length-n sequence."""
    net = plan_network(group, series, n)
    total = group.order ** n
    rows = _block_rows(net)
    for start in range(0, total, rows):
        index = np.arange(start, min(start + rows, total))
        seqs = np.stack(np.unravel_index(index, (group.order,) * n), axis=-1)
        if not np.array_equal(evaluate(net, seqs), group.fold(seqs)):
            return False
    return True


def random_check(group: FiniteGroup, series: SolvableSeries, n: int,
                 trials: int, seed: int = 0) -> bool:
    net = plan_network(group, series, n)
    rng = np.random.default_rng(seed)
    rows = _block_rows(net)
    for start in range(0, trials, rows):
        seqs = rng.integers(0, group.order, (min(rows, trials - start), n))
        if not np.array_equal(evaluate(net, seqs), group.fold(seqs)):
            return False
    return True
