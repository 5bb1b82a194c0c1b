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
from typing import Optional, Sequence

import numpy as np

from . import css, gf2
from .css import CssCode
from .gf2 import BitMatrix

STRATEGIES = ("greedy", "toric_comb", "toric_recursive", "xcube_dual_trees",
              "haah_canonical", "explicit")


class IncompatibleStrategy(ValueError):
    """Strategy does not apply to this code family."""


class SizeNotPowerOfTwo(ValueError):
    """The recursive tree strategy needs L = 2^k."""


class InvalidSubset(ValueError):
    """Subset fails the rank conditions."""


class InternalInvariantViolation(AssertionError):
    """Greedy selection could not make progress (indicates a code bug)."""


@dataclass(frozen=True)
class SubsetS:
    """Sorted qubit indices whose A-rows form a basis of the row space."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in itertools.pairwise(self.qubits)):
            raise InvalidSubset("subset qubits must be strictly increasing")

    def __len__(self):
        return len(self.qubits)


@dataclass(frozen=True)
class FdscCircuit:
    """Initial |+>/|0> assignment plus one commuting CX layer.

    Controls always lie in ``plus_qubits`` and targets outside it, so all
    gates commute pairwise.  Gates are sorted by (control, target).
    """

    n_qubits: int
    plus_qubits: tuple[int, ...]
    gates: tuple[tuple[int, int], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        plus = set(self.plus_qubits)
        if len(plus) != len(self.plus_qubits):
            raise ValueError("a plus qubit is listed twice")
        if plus and not all(0 <= q < self.n_qubits for q in plus):
            raise ValueError("plus qubit outside the register")
        for c, t in self.gates:
            if not (0 <= t < self.n_qubits):
                raise ValueError(f"gate target {t} outside the register")
            if c not in plus or t in plus:
                raise ValueError(f"gate ({c},{t}) breaks the one-layer structure")
        gates = tuple(sorted(self.gates))
        dup = next((g for g, h in itertools.pairwise(gates) if g == h), None)
        if dup is not None:
            raise ValueError(f"gate {dup} repeated; two equal CX gates cancel")
        object.__setattr__(self, "gates", gates)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


# -- subset selection ------------------------------------------------------


def check_subset(code: CssCode, s: SubsetS) -> bool:
    """Both rank conditions: |S| = rank(pi_S A) and |S| = rank(A)."""
    if s.qubits and not 0 <= s.qubits[0] <= s.qubits[-1] < code.n_qubits:
        return False
    a = code.x_stabs
    sub = a.row_select(list(s.qubits))
    return gf2.rank(sub) == len(s) and gf2.rank(a) == len(s)


def greedy_select(code: CssCode, seed: Optional[int] = None) -> SubsetS:
    """Greedy scan keeping each qubit whose A-row is independent so far.

    ``seed=None`` scans qubits in index order (deterministic mode); an int
    seed scans a seeded random permutation.  Always reaches |S| = rank(A)
    for a valid code; anything less raises InternalInvariantViolation.
    """
    a = code.x_stabs
    order = list(range(code.n_qubits))
    if seed is not None:
        random.Random(seed).shuffle(order)
    chosen = gf2.row_rank_profile(a, order)
    target = gf2.rank(a)
    if len(chosen) != target:
        raise InternalInvariantViolation(
            f"greedy stalled at {len(chosen)} of rank {target}")
    return SubsetS(tuple(sorted(chosen)))


def _require_family(code: CssCode, family: str, strategy: str) -> int:
    if code.family != family or "L" not in code.params:
        raise IncompatibleStrategy(
            f"{strategy} needs a {family} code with lattice size params")
    return int(code.params["L"])


def toric_comb_qubits(L: int) -> list[int]:
    """All horizontal rows plus the leftmost vertical column, with one edge
    dropped per row cycle and one from the column to leave a spanning tree."""
    qubits = []
    for y in range(L):
        for x in range(L - 1):
            qubits.append(css.toric_edge_index(L, x, y, 0))
    for y in range(L - 1):
        qubits.append(css.toric_edge_index(L, 0, y, 1))
    return qubits


def _recursive_tree_edges(L: int, ox: int, oy: int, out: list):
    """Self-similar tree: left and right columns plus the top row, built
    from four half-size copies attached on the top, left, and right."""
    if L == 2:
        out.append((ox, oy, 1))          # left column
        out.append((ox + 1, oy, 1))      # right column
        out.append((ox, oy + 1, 0))      # top row
        return
    m = L // 2
    for (qx, qy) in ((0, 0), (m, 0), (0, m), (m, m)):
        _recursive_tree_edges(m, ox + qx, oy + qy, out)
    out.append((ox, oy + m - 1, 1))           # left attachment
    out.append((ox + L - 1, oy + m - 1, 1))   # right attachment
    out.append((ox + m - 1, oy + L - 1, 0))   # top attachment


def toric_recursive_qubits(L: int) -> list[int]:
    if L < 2 or L & (L - 1):
        raise SizeNotPowerOfTwo(f"L={L} is not a power of two >= 2")
    edges: list = []
    _recursive_tree_edges(L, 0, 0, edges)
    return [css.toric_edge_index(L, x, y, o) for (x, y, o) in edges]


def xcube_dual_qubits(code: CssCode) -> list[int]:
    """Vertical edges plus two boundary planes of horizontal edges, then a
    greedy rank repair (drop dependent members, extend if short)."""
    L = int(code.params["L"])
    seed_set = []
    for x in range(L):
        for y in range(L):
            for z in range(L):
                seed_set.append(css.xcube_edge_index(L, x, y, z, 2))
    for y in range(L):
        for z in range(L):
            seed_set.append(css.xcube_edge_index(L, 0, y, z, 0))
    for x in range(L):
        for z in range(L):
            seed_set.append(css.xcube_edge_index(L, x, 0, z, 1))
    rest = sorted(set(range(code.n_qubits)) - set(seed_set))
    order = sorted(seed_set) + rest
    chosen = gf2.row_rank_profile(code.x_stabs, order)
    return sorted(chosen)


def haah_canonical_qubits(L: int) -> list[int]:
    """Second-slot qubits on the L^3 interior vertex block.

    Either per-vertex slot works (each corner relation is triangular in the
    coordinate sum), but the second-slot choice reproduces the published
    gate counts and control patterns.
    """
    return [css.haah_qubit_index(L, x, y, z, 2)
            for x in range(L) for y in range(L) for z in range(L)]


def _toric_edge_ends(L: int, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices x*L + y at both ends of toric edge qubits: (x, y) and its
    +x neighbour (horizontal edge) or +y neighbour (vertical edge)."""
    u = q >> 1
    x, y = u // L, u % L
    return u, np.where(q & 1, x * L + (y + 1) % L, (x + 1) % L * L + y)


def _toric_spanning_tree_parents(code: CssCode, qubits: Sequence[int]):
    """BFS structure of a toric edge subset, or None if not a spanning tree.

    A subset of edge qubits satisfies both rank conditions exactly when it
    is a spanning tree of the vertex graph (independent edge rows form a
    forest; |S| = L^2 - 1 = rank(A) makes it spanning).
    """
    L = int(code.params["L"])
    n_vert = L * L
    if len(qubits) != n_vert - 1:
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vert)]
    ends = _toric_edge_ends(L, np.asarray(qubits, dtype=np.int64))
    for q, u, v in zip(qubits, *(e.tolist() for e in ends)):
        adj[u].append((v, q))
        adj[v].append((u, q))
    parent = np.full(n_vert, -1, dtype=np.int64)
    parent_edge = np.full(n_vert, -1, dtype=np.int64)
    depth = np.zeros(n_vert, dtype=np.int64)
    seen = np.zeros(n_vert, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v, q in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                parent_edge[v] = q
                depth[v] = depth[u] + 1
                stack.append(v)
    if not seen.all():
        return None
    return parent, parent_edge, depth


def tree_select(code: CssCode, strategy: str) -> SubsetS:
    """The named lattice constructions; validates the rank conditions.

    Validation is family-specific: toric subsets are checked to be spanning
    trees (equivalent to the rank conditions), the X-cube repair is valid by
    construction of the rank profile, and the cubic-code subset is checked
    by the generic rank computations.
    """
    if strategy == "toric_comb":
        L = _require_family(code, "toric", strategy)
        qubits = toric_comb_qubits(L)
    elif strategy == "toric_recursive":
        L = _require_family(code, "toric", strategy)
        qubits = toric_recursive_qubits(L)
    elif strategy == "xcube_dual_trees":
        _require_family(code, "xcube", strategy)
        qubits = xcube_dual_qubits(code)
    elif strategy == "haah_canonical":
        L = _require_family(code, "haah", strategy)
        qubits = haah_canonical_qubits(L)
    else:
        raise IncompatibleStrategy(f"unknown tree strategy {strategy!r}")
    s = SubsetS(tuple(sorted(qubits)))
    if code.family == "toric":
        if _toric_spanning_tree_parents(code, s.qubits) is None:
            raise InternalInvariantViolation(f"{strategy} did not build a spanning tree")
    elif code.family == "haah":
        if not check_subset(code, s):
            raise InternalInvariantViolation(f"{strategy} subset fails rank conditions")
    return s


# -- reconstruction --------------------------------------------------------


def build_reconstruction(code: CssCode, s: SubsetS,
                         pivot_order: str = "forward",
                         method: str = "auto") -> BitMatrix:
    """The unique N x |S| matrix reconstructing all Z-values from S.

    Computed as A (pi_S A)^+ with any right inverse; rows indexed by
    qubits, columns by sorted S members.  Rows at S positions are unit
    vectors.  For toric spanning-tree subsets an equivalent tree-path
    construction is used unless ``method='generic'``.
    """
    if method not in ("auto", "generic", "tree"):
        raise ValueError(method)
    s_list = list(s.qubits)
    a = code.x_stabs
    if method != "generic" and code.family == "toric" and "L" in code.params:
        m = _toric_tree_reconstruction(code, s_list)
        if m is not None:
            return m
        if method == "tree":
            raise InvalidSubset("subset is not a toric spanning tree")
    sub = a.row_select(s_list)
    try:
        rinv = gf2.right_inverse(sub, pivot_order=pivot_order)
    except gf2.RankDeficient as e:
        raise InvalidSubset(str(e)) from e
    if gf2.rank(a) != len(s_list):
        raise InvalidSubset("|S| != rank of the X-stabilizer matrix")
    return gf2.mul(a, rinv)


def _toric_tree_reconstruction(code: CssCode, s_list: list[int]) -> Optional[BitMatrix]:
    """Path-based M_S for a toric spanning-tree subset (None if not a tree).

    Row q off S holds the tree edges on the path between q's two ends.  All
    rows walk together, each stepping its deeper end (both ends when level)
    to the parent until the ends meet: at most tree-depth vectorised steps.
    """
    L = int(code.params["L"])
    bfs = _toric_spanning_tree_parents(code, s_list)
    if bfs is None:
        return None
    parent, parent_edge, depth = bfs
    col_of = np.full(code.n_qubits, -1, dtype=np.int64)
    col_of[s_list] = np.arange(len(s_list))
    rows = np.flatnonzero(col_of < 0)
    u, v = _toric_edge_ends(L, rows)
    entries = [np.column_stack((s_list, col_of[s_list]))]
    live = u != v
    while live.any():
        rows, u, v = rows[live], u[live], v[live]
        up, vp = depth[u] >= depth[v], depth[v] >= depth[u]
        entries += [np.column_stack((rows[up], col_of[parent_edge[u[up]]])),
                    np.column_stack((rows[vp], col_of[parent_edge[v[vp]]]))]
        u, v = np.where(up, parent[u], u), np.where(vp, parent[v], v)
        live = u != v
    return BitMatrix.from_entries(np.concatenate(entries), code.n_qubits,
                                  len(s_list))


def emit_circuit(code: CssCode, s: SubsetS, m: BitMatrix,
                 metadata: Optional[dict] = None) -> FdscCircuit:
    """One CX per off-S nonzero of the reconstruction matrix."""
    controls = np.asarray(s.qubits, dtype=np.int64)
    in_s = np.zeros(code.n_qubits, dtype=bool)
    in_s[controls] = True
    t, col = gf2.nonzero(m)
    off = ~in_s[t]
    c, t = controls[col[off]], t[off]
    expected = gf2.nnz(m) - len(controls)
    if len(t) != expected:
        raise InternalInvariantViolation(
            f"gate count {len(t)} != nnz - |S| = {expected}")
    order = np.lexsort((t, c))
    # one shared int object per qubit keeps millions of gate tuples small
    qubit = np.arange(code.n_qubits).astype(object)
    gates = tuple(zip(qubit[c[order]].tolist(), qubit[t[order]].tolist()))
    meta = dict(metadata or {})
    meta["gate_count"] = len(gates)
    return FdscCircuit(code.n_qubits, s.qubits, gates, meta)


def synthesize(code: CssCode, strategy: str, seed: Optional[int] = None,
               restarts: int = 1,
               subset: Optional[Sequence[int]] = None) -> FdscCircuit:
    """Select S, build the reconstruction, and emit the circuit.

    Greedy with ``restarts > 1`` tries seeds seed..seed+restarts-1 and keeps
    the smallest-gate-count circuit (ties to the lower seed).  Strategy
    "explicit" synthesizes from the caller-provided subset.
    """
    if strategy == "explicit":
        if subset is None:
            raise IncompatibleStrategy("explicit strategy needs a subset")
        s = SubsetS(tuple(sorted(subset)))
        if not check_subset(code, s):
            raise InvalidSubset("explicit subset fails the rank conditions")
        m = build_reconstruction(code, s)
        return emit_circuit(code, s, m, {"family": code.family,
                                         "params": code.params,
                                         "strategy": "explicit"})
    if strategy == "greedy":
        if restarts > 1:
            base = 0 if seed is None else seed
            best = None
            for k in range(restarts):
                s = greedy_select(code, base + k)
                m = build_reconstruction(code, s)
                if best is None or gf2.nnz(m) < best[0]:
                    best = (gf2.nnz(m), s, m, base + k)
            _, s, m, used_seed = best
            meta = {"family": code.family, "params": code.params,
                    "strategy": strategy, "seed": used_seed}
            return emit_circuit(code, s, m, meta)
        s = greedy_select(code, seed)
    elif strategy in ("toric_comb", "toric_recursive", "xcube_dual_trees",
                      "haah_canonical"):
        s = tree_select(code, strategy)
    else:
        raise IncompatibleStrategy(f"unknown strategy {strategy!r}")
    m = build_reconstruction(code, s)
    meta = {"family": code.family, "params": code.params, "strategy": strategy}
    if strategy == "greedy" and seed is not None:
        meta["seed"] = seed
    return emit_circuit(code, s, m, meta)


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
    """All-qubit Z values generated by a cube potential (open boundary)."""
    phi = np.asarray(phi, dtype=np.uint8) & 1
    if phi.shape != (L ** 3,):
        raise ValueError(f"phi must have L^3 = {L**3} entries")
    z = np.zeros(2 * (L + 1) ** 3, dtype=np.uint8)

    def at(x, y, z_):
        if not (0 <= x < L and 0 <= y < L and 0 <= z_ < L):
            return 0
        return int(phi[(x * L + y) * L + z_])

    for x in range(L + 1):
        for y in range(L + 1):
            for zc in range(L + 1):
                for slot, offsets in _HAAH_X.items():
                    v = 0
                    for dx, dy, dz in offsets:
                        v ^= at(x - dx, y - dy, zc - dz)
                    z[css.haah_qubit_index(L, x, y, zc, slot)] = v
    return z


# -- circuit serialization -------------------------------------------------


def serialize_circuit(circ: FdscCircuit) -> str:
    doc = {
        "version": 1,
        "n_qubits": circ.n_qubits,
        "plus_qubits": circ.plus_qubits,
        "gates": circ.gates,  # tuples encode as JSON arrays
        "metadata": circ.metadata,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
        return FdscCircuit(n, tuple(plus), tuple(map(tuple, gates)), meta)
    except json.JSONDecodeError as e:
        raise css.ParseError(f"invalid JSON: {e}") from e
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise css.ParseError(f"bad circuit document: {e}") from e
