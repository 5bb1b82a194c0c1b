"""Layered constant-depth multiplication planner for solvable finite groups.

Given a solvable series (a group table and a subnormal series with abelian
quotients, checked once when the series is made), builds a classical
dataflow network computing g1*...*gn whose layer count depends only on the
series length, never on n.  Each sequence element g splits as a section
image psi(h) times a normal part; the quotient suffix products are formed
in one simultaneous layer because the quotient is abelian, the cocycle and
conjugation corrections are parallel table lookups, and the remaining 2n-1
normal-subgroup elements are multiplied recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .css import InvalidSize, ParseError, _indices, index_lists, load_json

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
    def from_table(cls, table) -> "FiniteGroup":
        t = _indices(table, "table entries", GroupStructureError)
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
        if not all(np.array_equal(t[row], row[t]) for row in t):
            raise GroupStructureError("multiplication is not associative")
        return cls(n, t, ident, inv)

    def fold(self, seq) -> np.ndarray:
        """Left fold over the table of sequences laid along the last axis:
        the reference product that networks are checked against."""
        seqs = np.asarray(seq, dtype=np.int64)
        acc = np.full(seqs.shape[:-1], self.identity, dtype=np.int64)
        for k in range(seqs.shape[-1]):
            acc = self.table[acc, seqs[..., k]]
        return acc


@dataclass(frozen=True)
class SolvableSeries:
    """Chain {e} = G_0 <= G_1 <= ... <= G_k = G of ``group``, each step
    normal with abelian quotient.  Checked once, on construction, so every
    series that exists is valid and the planner trusts it."""

    group: FiniteGroup
    subgroups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        group = self.group
        chain = [_sorted_ids(s) for s in self.subgroups]
        if any(len(ids) != len(s) for ids, s in zip(chain, self.subgroups)):
            raise GroupStructureError("series entry lists an element twice")
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
    ids = _indices(members, "series members", GroupStructureError)
    return np.array(sorted(set(ids.tolist())), dtype=np.int64)


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


def _build_level(group: FiniteGroup, chain: Sequence[Sequence[int]]) -> _Level:
    """Recursive level data for the full chain ({e}, ..., G) of three or
    more subgroups."""
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
    # both lie in N because N is normal in G
    chi = n_local[t[t[inv[psi[h_table]], psi[:, None]], psi]]
    phi = n_local[t[t[inv[psi, None], n_elements], psi[:, None]]]
    merge = t[:, n_elements]
    n_table = n_local[t[np.ix_(n_elements, n_elements)]]
    sub = None
    if len(chain) > 3:
        # the validated series makes these N's own identity and inverses
        sub_group = FiniteGroup(n_elements.size, n_table,
                                int(n_local[group.identity]), n_local[inv[n_elements]])
        sub = _build_level(sub_group, [n_local[_sorted_ids(m)] for m in chain[:-1]])
    return _Level(group, tau, psi, h_table, n_elements, n_local, norm_part,
                  chi, phi, merge, n_table, sub)


# -- network ---------------------------------------------------------------


@dataclass(frozen=True)
class NodeSet:
    """The nodes of one layer that share a table, as slot arrays.  In a
    lookup set ``inputs`` has shape (arity, m) and node i writes
    ``table[inputs[0][i], inputs[1][i], ...]`` to slot ``outputs[i]``; in a
    combine set ``inputs`` is flat and ``outputs[j]`` is the product of the
    slots ``inputs[j:]``."""

    table: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    combine: bool = False


@dataclass
class MulNetwork:
    n_inputs: int
    layers: tuple[tuple[NodeSet, ...], ...]
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
        self.n_slots = n_inputs
        self.layers: list[tuple[NodeSet, ...]] = []

    def slots(self, count: int) -> np.ndarray:
        block = np.arange(self.n_slots, self.n_slots + count)
        self.n_slots += count
        return block

    def fold(self, table: np.ndarray, inputs: np.ndarray) -> int:
        """One layer multiplying all input slots into a new slot."""
        out = self.slots(1)
        self.layers.append((NodeSet(table, out, inputs, combine=True),))
        return int(out[0])


def _plan(level: _Level, inputs: np.ndarray, b: _Builder) -> int:
    """Emit layers computing the ordered product of the input slots."""
    n = inputs.size
    h, norm, suffix = b.slots(3 * n).reshape(3, n)
    b.layers.append((NodeSet(level.tau, h, inputs[None]),
                     NodeSet(level.norm_part, norm, inputs[None])))
    b.layers.append((NodeSet(level.h_table, suffix, h, combine=True),))
    lift = b.slots(1)
    chi_phi = b.slots(2 * (n - 1)).reshape(n - 1, 2)
    b.layers.append((
        NodeSet(level.psi, lift, suffix[None, :1]),
        NodeSet(level.chi, chi_phi[:, 0], np.stack((h[:-1], suffix[1:]))),
        NodeSet(level.phi, chi_phi[:, 1], np.stack((suffix[1:], norm[:-1])))))
    nseq = np.append(chi_phi, norm[-1])
    # with no sub-level the rest of the chain is {e} <= N, N abelian
    n_out = b.fold(level.n_table, nseq) if level.sub is None \
        else _plan(level.sub, nseq, b)
    out = b.slots(1)
    b.layers.append((NodeSet(level.merge, out, np.array([lift, [n_out]])),))
    return int(out[0])


def plan_network(series: SolvableSeries, n: int) -> MulNetwork:
    """Build the layered network for products of n elements."""
    if n < 1:
        raise InvalidSize("sequence length must be >= 1")
    inputs = np.arange(n)
    if inputs.size != n:       # numpy gives [] for 2^63 - 1 <= n < 2^64
        raise InvalidSize(f"sequence length {n} is too large")
    b = _Builder(n)
    if len(series.subgroups) <= 2:
        # G = G/{e} is abelian (or trivial): a single simultaneous combine layer
        out = b.fold(series.group.table, inputs)
    else:
        out = _plan(_build_level(series.group, series.subgroups), inputs, b)
    return MulNetwork(n, tuple(b.layers), out, b.n_slots)


def evaluate(net: MulNetwork, seq) -> np.ndarray:
    """Layer-by-layer evaluation of sequences laid along the last axis of
    ``seq``, with any batch shape in front (one sequence gives a 0-d
    result).  Every slot is written once, by a layer after those that
    wrote its inputs, so each node set writes straight into the slots: a
    lookup set by one gather, a combine set by one running product."""
    seqs = np.asarray(seq, dtype=np.int64)
    if seqs.shape[-1:] != (net.n_inputs,):
        raise LengthMismatch(f"expected {net.n_inputs} elements along the "
                             f"last axis, got shape {seqs.shape}")
    slots = np.empty((net.n_slots, *seqs.shape[:-1]), dtype=np.int64)
    slots[:net.n_inputs] = np.moveaxis(seqs, -1, 0)
    for layer in net.layers:
        for nodes in layer:
            if not nodes.combine:
                slots[nodes.outputs] = nodes.table[tuple(slots[nodes.inputs])]
                continue
            acc = None
            for j in range(len(nodes.inputs) - 1, -1, -1):
                x = slots[nodes.inputs[j]]
                acc = x if acc is None else nodes.table[x, acc]
                if j < len(nodes.outputs):
                    slots[nodes.outputs[j]] = acc
    return slots[net.output]


# -- built-in families and file format --------------------------------------


def make_dihedral(n: int) -> SolvableSeries:
    """Symmetries of the regular n-gon; elements p*n + k encode m^p r^k."""
    if n < 3:
        raise InvalidSize("dihedral group needs n >= 3")
    order = 2 * n
    p, k = np.divmod(np.arange(order), n)
    sign = 1 - 2 * p             # r^k m = m r^-k
    t = (p[:, None] ^ p) * n + (sign * k[:, None] + k) % n
    return SolvableSeries(FiniteGroup.from_table(t),
                          ((0,), tuple(range(n)), tuple(range(order))))


def make_abelian(orders: Sequence[int]) -> SolvableSeries:
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
    return SolvableSeries(FiniteGroup.from_table(t), ((0,), tuple(range(total))))


def parse_group(text: str | bytes) -> SolvableSeries:
    """JSON group format: {"order": n, "table": [[..]], "series": [[ids]..]},
    as str or bytes."""
    order, table, series = load_json(text, "order", "table", "series")
    if type(order) is not int:
        raise ParseError("order must be an integer")
    t = index_lists("table", table, width=order)[1].reshape(
        len(table), order if table else 0)   # [] may name any order, even -1
    index_lists("series", series)
    try:
        return SolvableSeries(FiniteGroup.from_table(t), tuple(map(tuple, series)))
    except GroupStructureError as e:
        raise ParseError(str(e)) from e


def depth_report(series: SolvableSeries, n_values: Sequence[int]) -> list[dict]:
    """Rows of (n, depth, ancilla_count) for the planned networks."""
    nets = (plan_network(series, n) for n in n_values)
    return [{"n": net.n_inputs, "depth": net.depth, "ancillas": net.ancilla_count}
            for net in nets]


def _agrees(series: SolvableSeries, n: int, total: int, draw) -> bool:
    """Compare the length-n network against the table fold on the sequences
    ``draw(start, stop)``, over blocks of rows covering 0..total-1."""
    net = plan_network(series, n)
    rows = max(1, _BLOCK_CELLS // net.n_slots)
    for start in range(0, total, rows):
        seqs = draw(start, min(start + rows, total))
        if not np.array_equal(evaluate(net, seqs), series.group.fold(seqs)):
            return False
    return True


def exhaustive_check(series: SolvableSeries, n: int) -> bool:
    """Compare the network against the table fold on every length-n sequence."""
    shape = (series.group.order,) * n
    return _agrees(series, n, series.group.order ** n, lambda lo, hi: np.stack(
        np.unravel_index(np.arange(lo, hi), shape), axis=-1))


def random_check(series: SolvableSeries, n: int, trials: int, seed: int = 0) -> bool:
    rng, order = np.random.default_rng(seed), series.group.order
    return _agrees(series, n, trials,
                   lambda lo, hi: rng.integers(0, order, (hi - lo, n)))
