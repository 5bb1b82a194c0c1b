"""Compiler core: subset selection, reconstruction matrix, circuit emission.

The preparation circuit for a CSS code is determined by a qubit subset S
whose rows of the X-stabilizer support matrix A form a basis of A's row
space (equivalently |S| = rank(pi_S A) = rank(A)).  The reconstruction
matrix M_S maps Z-values on S to Z-values everywhere; its off-diagonal
nonzero entries are exactly the CX gates of the one-layer circuit.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import css, gf2
from .css import CssCode
from .gf2 import BitMatrix

class IncompatibleStrategy(ValueError):
    """Strategy does not apply to this code family."""


class SizeNotPowerOfTwo(IncompatibleStrategy):
    """The recursive tree strategy needs L = 2^k."""


class InvalidSubset(ValueError):
    """Subset fails the rank conditions."""


class InternalInvariantViolation(AssertionError):
    """A built-in strategy's subset fails the rank conditions, or emission
    breaks the one-gate-per-nonzero rule (indicates a code bug)."""


@dataclass(frozen=True)
class SubsetS:
    """Sorted qubit indices whose A-rows form a basis of the row space."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in itertools.pairwise(self.qubits)):
            raise InvalidSubset("subset qubits must be strictly increasing")

    def __len__(self):
        return len(self.qubits)


@dataclass(frozen=True, eq=False)
class FdscCircuit:
    """Initial |+>/|0> assignment plus one commuting CX layer.

    Controls always lie in ``plus_qubits`` and targets outside it, so all
    gates commute pairwise.  The gates are held as ``pairs``, one read-only
    m x 2 int64 array of (control, target) rows, strictly increasing in
    (control, target) order; the constructor takes any sequence of pairs
    or such an array, and sorts it only if it is not sorted already.
    ``gates`` is the same layer as a tuple of int pairs, built on request.
    """

    n_qubits: int
    plus_qubits: tuple[int, ...]
    pairs: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        plus = np.sort(np.asarray(self.plus_qubits, dtype=np.int64))
        pairs = np.asarray(self.pairs, dtype=np.int64)
        pairs = pairs.reshape(len(pairs), 2)   # no gates: shape (0,) to (0, 2)
        if np.any(plus[1:] == plus[:-1]):
            raise ValueError("a plus qubit is listed twice")
        if plus.size and not 0 <= plus[0] <= plus[-1] < self.n_qubits:
            raise ValueError("plus qubit outside the register")
        c, t = pairs.T
        bad = (t < 0) | (t >= self.n_qubits) | ~np.isin(c, plus) | np.isin(t, plus)
        if bad.any():
            c, t = pairs[bad.argmax()]
            raise ValueError(f"gate ({c},{t}) breaks the one-layer structure "
                             f"(control in the plus set, target in the "
                             f"register outside it)")
        step = (c[1:] > c[:-1]) | ((c[1:] == c[:-1]) & (t[1:] > t[:-1]))
        if not step.all():
            pairs = pairs[np.lexsort((t, c))]
            same = np.all(pairs[1:] == pairs[:-1], axis=1)
            if same.any():
                c, t = pairs[same.argmax()]
                raise ValueError(f"gate ({c},{t}) repeated; equal CX gates cancel")
        pairs = pairs.view()
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FdscCircuit)
                and (self.n_qubits, self.plus_qubits, self.metadata)
                == (other.n_qubits, other.plus_qubits, other.metadata)
                and np.array_equal(self.pairs, other.pairs))

    @property
    def gates(self) -> tuple[tuple[int, int], ...]:
        c, t = self.pairs.T
        return tuple(zip(c.tolist(), t.tolist()))

    @property
    def gate_count(self) -> int:
        return len(self.pairs)


# -- subset selection ------------------------------------------------------


def check_subset(code: CssCode, s: SubsetS) -> bool:
    """Both rank conditions, |S| = rank(pi_S A) = rank(A): exactly when
    the reconstruction solve succeeds."""
    try:
        build_reconstruction(code, s)
    except InvalidSubset:
        return False
    return True


def greedy_select(code: CssCode, seed: Optional[int] = None) -> SubsetS:
    """Greedy scan keeping each qubit whose A-row is independent so far.

    ``seed=None`` scans qubits in index order (deterministic mode); an int
    seed scans a seeded random permutation.  Always reaches |S| = rank(A)
    for a valid code: a rank profile over all rows has length rank(A).
    """
    order = list(range(code.n_qubits))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return SubsetS(tuple(sorted(gf2.row_rank_profile(code.x_stabs.packed(), order))))


def toric_comb_qubits(code: CssCode) -> np.ndarray:
    """All horizontal rows plus the leftmost vertical column, with one edge
    dropped per row cycle and one from the column to leave a spanning tree."""
    L = int(code.params["L"])
    x, y = np.indices((L - 1, L))
    return np.concatenate((css.toric_edge_index(L, x, y, 0).ravel(),
                           css.toric_edge_index(L, 0, np.arange(L - 1), 1)))


def toric_recursive_qubits(code: CssCode) -> np.ndarray:
    """Self-similar tree: each m x m block (m = 2, 4, ..., L) joins its four
    half-size blocks by one edge at the mid-height of its left and right
    columns and one at the mid-width of its top row."""
    L = int(code.params["L"])
    if L < 2 or L & (L - 1):
        raise SizeNotPowerOfTwo(f"L={L} is not a power of two >= 2")
    edges = []
    for k in range(1, L.bit_length()):
        m, h = 1 << k, 1 << k - 1
        ox, oy = np.indices((L >> k, L >> k)).reshape(2, -1) * m
        edges += [css.toric_edge_index(L, ox, oy + h - 1, 1),          # left
                  css.toric_edge_index(L, ox + m - 1, oy + h - 1, 1),  # right
                  css.toric_edge_index(L, ox + h - 1, oy + m - 1, 0)]  # top
    return np.concatenate(edges)


def xcube_dual_qubits(code: CssCode) -> np.ndarray:
    """Vertical edges plus two boundary planes of horizontal edges, less
    each seed whose A-row depends on earlier ones: a rank profile over the
    seeds alone.  They span A's row space, so none is missing (and the
    reconstruction solve would reject a short set)."""
    L = int(code.params["L"])
    v, h = np.indices((L, L, L)).reshape(3, -1), np.indices((L, L)).reshape(2, -1)
    seeds = np.concatenate((css.xcube_edge_index(L, *v, 2),
                            css.xcube_edge_index(L, 0, *h, 0),
                            css.xcube_edge_index(L, h[0], 0, h[1], 1)))
    return np.array(gf2.row_rank_profile(code.x_stabs.packed(),
                                         np.sort(seeds).tolist()), dtype=np.int64)


def haah_canonical_qubits(code: CssCode) -> np.ndarray:
    """Second-slot qubits on the L^3 interior vertex block.

    Either per-vertex slot works (each corner relation is triangular in the
    coordinate sum), but the second-slot choice reproduces the published
    gate counts and control patterns.
    """
    L = int(code.params["L"])
    return css.haah_qubit_index(L, *np.indices((L, L, L)).reshape(3, -1), 2)


# Each lattice strategy: the code family it applies to, and its subset of
# that family's code.
LATTICE = {"toric_comb": ("toric", toric_comb_qubits),
           "toric_recursive": ("toric", toric_recursive_qubits),
           "xcube_dual_trees": ("xcube", xcube_dual_qubits),
           "haah_canonical": ("haah", haah_canonical_qubits)}
STRATEGIES = ("greedy", *LATTICE)


def tree_select(code: CssCode, strategy: str) -> SubsetS:
    """The named lattice construction, on a code of its family.  The
    reconstruction solve that follows selection in ``synthesize``
    validates the subset."""
    if strategy not in LATTICE:
        raise IncompatibleStrategy(f"unknown strategy {strategy!r}")
    family, qubits = LATTICE[strategy]
    if code.family != family or "L" not in code.params:
        raise IncompatibleStrategy(
            f"{strategy} needs a {family} code with lattice size params")
    return SubsetS(tuple(np.sort(qubits(code)).tolist()))


# -- reconstruction --------------------------------------------------------


def build_reconstruction(code: CssCode, s: SubsetS) -> BitMatrix:
    """The columns of the unique N x |S| matrix M with M pi_S A = A, as the
    rows of an |S| x N matrix (row j is column j of M, for S member j).

    Peeling: while some unused X generator g has exactly one unresolved S
    member s, resolve s by g: column s of M is A[:, g] XOR the columns of
    g's other S members, all resolved earlier.  Each round resolves its
    whole frontier at once and only rescans the generators it touched.
    Where the peel stalls, the unresolved members U and the unused
    generators G' on them are solved densely with a right inverse of
    pi_U A[:, G'].  A complete peel plus a full-row-rank core make
    pi_S A full row rank, so the final check that every non-pivot
    generator equals the XOR of M's columns over its S members holds
    exactly when rank(A) = |S|.  Raises InvalidSubset otherwise.
    """
    n, k = code.n_qubits, code.n_x
    cols = np.asarray(s.qubits, dtype=np.int64)
    if cols.size and not 0 <= cols[0] <= cols[-1] < n:
        raise InvalidSubset("subset qubit outside the register")
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[cols] = np.arange(cols.size)
    a = code.x_stabs
    q, g = a.qubits, a.generators()
    member = col_of[q] >= 0
    sc, sg = col_of[q[member]], g[member]   # (column, generator), by generator

    def grouped(rows, values, size):
        """Row-grouped list of values, for gf2.spread."""
        weight = np.bincount(rows, minlength=size)
        order = np.argsort(rows, kind="stable")
        return np.cumsum(weight) - weight, weight, values[order]

    gen_qubits = a.start[:-1], np.diff(a.start), q
    gen_cols = grouped(sg, sc, k)
    col_gens = grouped(sc, sg, cols.size)
    unresolved = gen_cols[1].copy()
    xor_cols = np.zeros(k, dtype=np.int64)   # XOR of unresolved member columns
    np.bitwise_xor.at(xor_cols, sg, sc)
    mt = BitMatrix.zeros(cols.size, n)
    pivot = np.zeros(k, dtype=bool)
    resolved = np.zeros(cols.size, dtype=bool)

    def combine(gens, keep, out=None, dst=None):
        """Rows A[:, g] XOR the columns of M over the S members of g that
        ``keep`` selects, a mask over (position in gens, column) pairs."""
        i, c = gf2.spread(*gen_cols, gens)
        keep = keep(i, c)
        return gf2.xor_rows(mt, i[keep], c[keep], len(gens),
                            gf2.spread(*gen_qubits, gens), out, dst)

    frontier = np.flatnonzero(unresolved == 1)
    while frontier.size:
        new, first = np.unique(xor_cols[frontier], return_index=True)
        gens = frontier[first]
        pivot[gens] = resolved[new] = True
        combine(gens, lambda i, c: c != new[i], mt, new)
        i, touched = gf2.spread(*col_gens, new)
        np.subtract.at(unresolved, touched, 1)
        np.bitwise_xor.at(xor_cols, touched, new[i])
        frontier = np.unique(touched[(unresolved[touched] == 1)
                                     & ~pivot[touched]])
    rest = np.flatnonzero(~pivot)
    core_cols = np.flatnonzero(~resolved)
    if core_cols.size:
        core = rest[unresolved[rest] > 0]
        rhs = combine(core, lambda i, c: resolved[c])
        i, c = gf2.spread(*gen_cols, core)
        on_core = ~resolved[c]
        u = np.searchsorted(core_cols, c[on_core])
        try:
            r = gf2.right_inverse(BitMatrix.from_entries(
                np.column_stack((u, i[on_core])), core_cols.size, core.size))
        except gf2.RankDeficient as e:
            raise InvalidSubset(f"pi_S A is not full row rank: {e}") from e
        # M_U = rhs R: column u of M_U XORs the rhs columns that R[:, u] picks
        gi, u = gf2.nonzero(r)
        order = np.argsort(u, kind="stable")
        gf2.xor_rows(rhs, u[order], gi[order], out=mt, dst=core_cols)
    # exact check (pi_S A)^T M^T == A^T on the non-pivot generators, in
    # blocks of about 2^26 bits of product
    for block in np.array_split(rest, rest.size * n >> 26 or 1):
        members, qubits = (BitMatrix.from_entries(
            np.column_stack(gf2.spread(*grouping, block)), block.size, width)
            for grouping, width in ((gen_cols, cols.size), (gen_qubits, n)))
        if gf2.mul(members, mt) != qubits:
            raise InvalidSubset("|S| != rank of the X-stabilizer matrix")
    return mt


def emit_circuit(code: CssCode, s: SubsetS, mt: BitMatrix,
                 metadata: Optional[dict] = None) -> FdscCircuit:
    """One CX per off-S nonzero of the reconstruction matrix, read from its
    columns (``mt`` as returned by ``build_reconstruction``).  The rows of
    ``mt`` follow the sorted subset and ``gf2.nonzero`` scans row-major, so
    the (control, target) array comes out sorted and the circuit keeps it
    as it is."""
    controls = np.asarray(s.qubits, dtype=np.int64)
    in_s = np.zeros(code.n_qubits, dtype=bool)
    in_s[controls] = True
    col, t = gf2.nonzero(mt)
    off = ~in_s[t]
    pairs = np.column_stack((controls[col[off]], t[off]))
    if len(pairs) != len(col) - len(controls):
        raise InternalInvariantViolation(
            f"gate count {len(pairs)} != nnz - |S| = {len(col) - len(controls)}")
    meta = dict(metadata or {})
    meta["gate_count"] = len(pairs)
    return FdscCircuit(code.n_qubits, s.qubits, pairs, meta)


def synthesize(code: CssCode, strategy: str, seed: Optional[int] = None,
               restarts: int = 1) -> FdscCircuit:
    """Select S, build the reconstruction, and emit the circuit.

    Greedy with ``restarts > 1`` tries seeds seed..seed+restarts-1 and keeps
    the smallest-gate-count circuit (ties to the lower seed).  A subset
    that fails the rank conditions is a bug here: it raises
    InternalInvariantViolation.  For a subset of the caller's own, use
    ``build_reconstruction`` and ``emit_circuit``, which raise InvalidSubset.
    """
    meta = {"family": code.family, "params": code.params, "strategy": strategy}
    if strategy == "greedy":
        base = 0 if seed is None else seed
        seeds = range(base, base + restarts) if restarts > 1 else [seed]
        picks = ((k, greedy_select(code, k)) for k in seeds)
    else:
        picks = [(None, tree_select(code, strategy))]
    best = None
    for k, s in picks:
        try:
            mt = build_reconstruction(code, s)
        except InvalidSubset as e:
            raise InternalInvariantViolation(f"{strategy}: {e}") from e
        if best is None or gf2.nnz(mt) < best[0]:
            best = (gf2.nnz(mt), k, s, mt)
    _, k, s, mt = best
    if k is not None:
        meta["seed"] = k
    return emit_circuit(code, s, mt, meta)


# -- cubic-code potential solve -------------------------------------------

# X-stencil corner offsets by vertex-qubit slot; each starts at (0, 0, 0).
_HAAH_X = {1: css.HAAH_X1, 2: css.HAAH_X2}


def haah_phi_solve(L: int, z: np.ndarray, slot: int = 1) -> np.ndarray:
    """Invert a corner relation on one slot's Z values to the cube potential.

    ``z[(x*L + y)*L + w]`` holds the slot-``slot`` Z value at vertex (x,y,w)
    for 0 <= x,y,w <= L-1.  That value is the XOR of phi over the cubes at
    (x,y,w) minus the slot's X-stencil offsets (``css.HAAH_X1`` or
    ``css.HAAH_X2``).  Apart from the cube at offset 0, each lies strictly
    closer to the origin, so sweeping in increasing x+y+w order is
    triangular and always solvable; out-of-range cubes count as zero.
    """
    z = np.asarray(z, dtype=np.uint8) & 1
    if z.shape != (L ** 3,):
        raise ValueError(f"z must have L^3 = {L**3} entries")
    offsets = _HAAH_X[slot][1:]
    phi = np.zeros(L ** 3, dtype=np.uint8)
    for ssum in range(3 * L - 2):
        for x in range(min(ssum, L - 1) + 1):
            for y in range(min(ssum - x, L - 1) + 1):
                zc = ssum - x - y
                if not 0 <= zc <= L - 1:
                    continue
                v = z[(x * L + y) * L + zc]
                for dx, dy, dz in offsets:
                    if x >= dx and y >= dy and zc >= dz:
                        v ^= phi[((x - dx) * L + y - dy) * L + zc - dz]
                phi[(x * L + y) * L + zc] = v
    return phi


def haah_z_from_phi(L: int, phi: np.ndarray) -> np.ndarray:
    """All-qubit Z values generated by a cube potential (open boundary):
    A phi over the cubic code's X generators, one per cube."""
    phi = np.asarray(phi, dtype=np.uint8) & 1
    if phi.shape != (L ** 3,):
        raise ValueError(f"phi must have L^3 = {L**3} entries")
    x = css.build_haah(L).x_stabs
    hit = x.qubits[phi[x.generators()] == 1]
    return (np.bincount(hit, minlength=x.n_qubits) & 1).astype(np.uint8)


# -- circuit serialization -------------------------------------------------


def serialize_circuit(circ: FdscCircuit) -> str:
    """The circuit as compact JSON with sorted keys.  "gates" sorts first,
    so its list is formatted 2^16 pairs at a time and spliced in front of
    the rest of the document, which ``json`` writes."""
    rest = json.dumps({"version": 1, "n_qubits": circ.n_qubits,
                       "plus_qubits": circ.plus_qubits,
                       "metadata": circ.metadata},
                      sort_keys=True, separators=(",", ":"))
    blocks = np.split(circ.pairs, range(1 << 16, len(circ.pairs), 1 << 16))
    gates = ",".join(",".join(["[%d,%d]"] * len(b)) % tuple(b.ravel().tolist())
                     for b in blocks)
    return '{"gates":[' + gates + "]," + rest[1:]


def parse_circuit(text: str) -> FdscCircuit:
    """Parse the JSON circuit format.  Malformed input is rejected, never
    repaired: every qubit index must be an integer and every gate a pair."""
    try:
        doc = json.loads(text)
        version, n, plus, gates = (doc[k] for k in
                                   ("version", "n_qubits", "plus_qubits", "gates"))
        meta = doc.get("metadata", {})
        if not css.is_json_int(version) or version != 1:
            raise css.ParseError(f"unsupported version {version!r}")
        ints = itertools.chain([n], plus, itertools.chain.from_iterable(gates))
        if not (isinstance(plus, list) and isinstance(meta, dict)
                and all(isinstance(g, list) and len(g) == 2 for g in gates)
                and all(map(css.is_json_int, ints)) and n >= 0):
            raise css.ParseError("n_qubits and qubit indices must be integers "
                                 "(n_qubits >= 0), gates [control, target] pairs")
        return FdscCircuit(n, tuple(plus), gates, meta)
    except json.JSONDecodeError as e:
        raise css.ParseError(f"invalid JSON: {e}") from e
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise css.ParseError(f"bad circuit document: {e}") from e
