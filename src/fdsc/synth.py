"""Compiler core: subset selection, reconstruction matrix, circuit emission.

The preparation circuit for a CSS code is determined by a qubit subset S
whose rows of the X-stabilizer support matrix A form a basis of A's row
space (equivalently |S| = rank(pi_S A) = rank(A)).  The reconstruction
matrix M_S maps Z-values on S to Z-values everywhere.  On S it is the
identity; its nonzero entries off S are exactly the CX gates of the
one-layer circuit, and only those rows are stored.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import css, gf2
from .css import CssCode, _indices
from .gf2 import BitMatrix

class IncompatibleStrategy(ValueError):
    """Strategy does not apply to this code family."""


class SizeNotPowerOfTwo(IncompatibleStrategy):
    """The recursive tree strategy needs L = 2^k."""


class InvalidSubset(ValueError):
    """Subset fails the rank conditions."""


class InternalInvariantViolation(AssertionError):
    """A built-in strategy's subset fails the rank conditions, or emission
    is given a reconstruction matrix that is not |S| x (N - |S|)
    (indicates a code bug)."""


def _table_fits(top: int, entries: int) -> bool:
    """Whether a table over qubits 0..top-1 is small beside ``entries`` gate qubits."""
    return top <= 4 * entries + (1 << 16)


@dataclass(frozen=True, eq=False)
class FdscCircuit:
    """Initial |+>/|0> assignment plus one commuting CX layer.

    Controls always lie in ``plus_qubits`` and targets outside it, so all
    gates commute pairwise.  ``plus_qubits`` is held as one read-only int64
    array, strictly increasing, and the gates as ``pairs``, one read-only
    m x 2 int64 array of (control, target) rows, strictly increasing in
    (control, target) order.  The constructor takes any integer sequences
    or arrays in that order and rejects any other order.  Both are
    read-only views of int64 arrays passed in, which the caller must not
    change afterwards (``emit_circuit`` and ``parse_circuit`` pass arrays
    nobody else holds).  ``gates`` is the same layer as a tuple of int
    pairs, built on request.

    The constructor checks the plus qubits, then the gates in file order,
    ``css.BLOCK`` at a time, and reports the first fault; at a gate the
    structure rule (target in the register, control in the plus set, target
    outside it) comes before the order.  Plus-set membership is one bool
    table over the plus range, unless it does not ``_table_fits`` (np.isin).
    """

    n_qubits: int
    plus_qubits: np.ndarray
    pairs: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        plus = _indices(self.plus_qubits, "plus qubits")
        pairs = _indices(self.pairs, "gate qubits")
        pairs = pairs.reshape(len(pairs), 2)   # no gates: shape (0,) to (0, 2)
        if ((plus < 0) | (plus >= self.n_qubits)).any():
            raise ValueError("plus qubit outside the register")
        down = np.flatnonzero(plus[1:] <= plus[:-1])
        if down.size:
            q, before = plus[down[0] + 1], plus[down[0]]
            raise ValueError(f"plus qubit {q} repeated" if q == before
                             else f"plus qubit {q} out of increasing order")
        top = int(plus[-1]) + 1 if plus.size else 0
        in_plus = lambda q: np.isin(q, plus)
        if _table_fits(top, pairs.size):   # q reads q + 1, and q < 0 or q > plus[-1]
            table = np.isin(np.arange(-1, top + 1), plus)   # clips to a False end
            in_plus = lambda q: np.take(table, q + 1, mode="clip")   # (2^63 - 1 wraps)
        for lo in range(0, len(pairs), css.BLOCK):
            first = max(lo - 1, 0)   # this block and the gate before it
            c, t = pairs[first:lo + css.BLOCK].T
            broken = (t < 0) | (t >= self.n_qubits) | ~in_plus(c) | in_plus(t)
            bad = broken.copy()
            bad[1:] |= (c[1:] < c[:-1]) | ((c[1:] == c[:-1]) & (t[1:] <= t[:-1]))
            if bad.any():
                i = int(bad.argmax())
                gate = f"gate ({c[i]},{t[i]})"
                if broken[i]:
                    raise ValueError(f"{gate} breaks the one-layer structure "
                                     f"(control in the plus set, target in "
                                     f"the register outside it)")
                raise ValueError(f"{gate} repeated; equal CX gates cancel"
                                 if c[i] == c[i - 1] and t[i] == t[i - 1]
                                 else f"{gate} out of increasing order")
        for name, a in (("plus_qubits", plus), ("pairs", pairs)):
            a = a.view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FdscCircuit)
                and (self.n_qubits, self.metadata)
                == (other.n_qubits, other.metadata)
                and np.array_equal(self.plus_qubits, other.plus_qubits)
                and np.array_equal(self.pairs, other.pairs))

    @property
    def gates(self) -> tuple[tuple[int, int], ...]:
        c, t = self.pairs.T
        return tuple(zip(c.tolist(), t.tolist()))


# -- subset selection ------------------------------------------------------


def _independent_qubits(code: CssCode, qubits: np.ndarray) -> np.ndarray:
    """Sorted, each of the distinct int64 ``qubits`` whose A-row is independent
    of those before it: the rank profile of A restricted to them, in order."""
    return np.sort(qubits[gf2.row_rank_profile(code.x_stabs.restrict(qubits).packed())])


def greedy_select(code: CssCode, seed: Optional[int] = None) -> np.ndarray:
    """Greedy scan keeping each qubit whose A-row is independent so far, as
    a sorted int64 array.

    ``seed=None`` scans qubits in index order (deterministic mode); an int
    seed scans a seeded random permutation.  Always reaches |S| = rank(A)
    for a valid code: a rank profile over all rows has length rank(A).
    """
    order = list(range(code.n_qubits))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return _independent_qubits(code, np.array(order, dtype=np.int64))


def toric_comb_qubits(code: CssCode) -> np.ndarray:
    """All horizontal rows plus the leftmost vertical column, with one edge
    dropped per row cycle and one from the column to leave a spanning tree."""
    L = int(code.params["L"])
    x, y = np.indices((L - 1, L))
    return np.concatenate((css.qubit_index("toric", L, x, y, 0).ravel(),
                           css.qubit_index("toric", L, 0, np.arange(L - 1), 1)))


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
        edges += [css.qubit_index("toric", L, ox, oy + h - 1, 1),          # left
                  css.qubit_index("toric", L, ox + m - 1, oy + h - 1, 1),  # right
                  css.qubit_index("toric", L, ox + h - 1, oy + m - 1, 0)]  # top
    return np.concatenate(edges)


def xcube_dual_qubits(code: CssCode) -> np.ndarray:
    """Vertical edges plus two boundary planes of horizontal edges, less
    each seed whose A-row depends on earlier ones: a rank profile over the
    seeds alone.  They span A's row space, so none is missing (and the
    reconstruction solve would reject a short set)."""
    L = int(code.params["L"])
    v, h = np.indices((L, L, L)).reshape(3, -1), np.indices((L, L)).reshape(2, -1)
    seeds = np.concatenate((css.qubit_index("xcube", L, *v, 2),
                            css.qubit_index("xcube", L, 0, *h, 0),
                            css.qubit_index("xcube", L, h[0], 0, h[1], 1)))
    return _independent_qubits(code, np.sort(seeds))


def haah_canonical_qubits(code: CssCode) -> np.ndarray:
    """Second-slot qubits on the L^3 interior vertex block.

    Either per-vertex slot works (each corner relation is triangular in the
    coordinate sum), but the second-slot choice reproduces the published
    gate counts and control patterns.
    """
    L = int(code.params["L"])
    return css.qubit_index("haah", L, *np.indices((L, L, L)).reshape(3, -1), 1)


# Each lattice strategy: the code family it applies to, and its subset of
# that family's code.
LATTICE = {"toric_comb": ("toric", toric_comb_qubits),
           "toric_recursive": ("toric", toric_recursive_qubits),
           "xcube_dual_trees": ("xcube", xcube_dual_qubits),
           "haah_canonical": ("haah", haah_canonical_qubits)}
STRATEGIES = ("greedy", *LATTICE)


def tree_select(code: CssCode, strategy: str) -> np.ndarray:
    """The named lattice construction, on a code of its family, as a sorted
    int64 array.  The reconstruction solve that follows selection in
    ``synthesize`` validates the subset."""
    if strategy not in LATTICE:
        raise IncompatibleStrategy(f"unknown strategy {strategy!r}")
    family, qubits = LATTICE[strategy]
    if code.family != family or "L" not in code.params:
        raise IncompatibleStrategy(
            f"{strategy} needs a {family} code with lattice size params")
    return np.sort(qubits(code))


# -- reconstruction --------------------------------------------------------


def build_reconstruction(code: CssCode, s) -> BitMatrix:
    """The unique N x |S| matrix M with M pi_S A = A, off S (on S it is
    the identity), as an |S| x (N - |S|) matrix: row j, column i holds
    M[q_i, j], q_i the i-th qubit outside S in increasing order.  ``s`` is
    any integer sequence or array, strictly increasing within 0..N-1.

    Peeling: while some unused X generator g has exactly one unresolved S
    member s, resolve s by g: column s of M is A[:, g] XOR the columns of
    g's other S members, all resolved earlier.  Each round resolves its
    whole frontier at once and only rescans the generators it touched.
    Where the peel stalls, the unresolved members U and the unused
    generators G' on them are solved densely with a right inverse of
    pi_U A[:, G'].  A complete peel plus a full-row-rank core make
    pi_S A full row rank, so the final check that every non-pivot
    generator equals the XOR of M's columns over its S members holds
    exactly when rank(A) = |S| (it holds on S by construction, so only
    rows off S are compared).  Raises InvalidSubset otherwise, or when
    ``s`` holds non-integers or is not strictly increasing within 0..N-1.
    """
    n, k = code.n_qubits, code.n_x
    cols = _indices(s, "subset members", InvalidSubset)
    if cols.size and (cols[0] < 0 or cols[-1] >= n
                      or not np.all(cols[1:] > cols[:-1])):
        raise InvalidSubset(f"subset must increase strictly within 0..{n - 1}")
    gen_cols = code.x_stabs.restrict(cols)   # each generator's S members
    gen_off = code.x_stabs.restrict(np.delete(np.arange(n), cols))   # and those off S
    col_gens = gen_cols.transpose()
    sg = gen_cols.generators()
    unresolved = np.bincount(sg, minlength=k)
    xor_cols = np.zeros(k, dtype=np.int64)   # XOR of unresolved member columns
    np.bitwise_xor.at(xor_cols, sg, gen_cols.qubits)
    # row j is zero until S member j is resolved: combine's mask only skips
    # zero rows (5 % of the time on a stalled hypergraph product, N=30,625)
    mt = BitMatrix(cols.size, gen_off.n_qubits)
    pivot = np.zeros(k, dtype=bool)
    resolved = np.zeros(cols.size, dtype=bool)

    def combine(gens, out=None, dst=None):
        """Rows A[:, g] off S XOR the columns of M over the resolved S
        members of g, for g in gens."""
        i, c = gen_cols.spread(gens)
        keep = resolved[c]
        return gf2.xor_rows(mt, i[keep], c[keep], len(gens), gen_off.spread(gens),
                            out, dst)

    frontier = np.flatnonzero(unresolved == 1)
    while frontier.size:
        new, first = np.unique(xor_cols[frontier], return_index=True)
        gens = frontier[first]
        combine(gens, mt, new)   # all of g's S members but new[i] are resolved
        pivot[gens] = resolved[new] = True
        i, touched = col_gens.spread(new)
        np.subtract.at(unresolved, touched, 1)
        np.bitwise_xor.at(xor_cols, touched, new[i])
        frontier = touched[(unresolved[touched] == 1) & ~pivot[touched]]
        frontier.sort()   # np.unique hashes, several times slower
        frontier = frontier[np.diff(frontier, prepend=-1) > 0]
    rest = np.flatnonzero(~pivot)
    core_cols = np.flatnonzero(~resolved)
    if core_cols.size:
        core = rest[unresolved[rest] > 0]
        rhs = combine(core)
        try:   # pi_U A[:, G']: each member of U on its generators in G'
            r = gf2.right_inverse(col_gens.restrict(core).packed(core_cols))
        except gf2.RankDeficient as e:
            raise InvalidSubset(f"pi_S A is not full row rank: {e}") from e
        # M_U = rhs R: column u of M_U XORs the rhs columns that R[:, u] picks
        gi, u = gf2.nonzero(r)
        order = np.argsort(u, kind="stable")
        gf2.xor_rows(rhs, u[order], gi[order], out=mt, dst=core_cols)
    # exact check (pi_S A)^T M^T == A^T off S on the non-pivot generators,
    # in blocks of about 2^26 bits of product
    for block in np.array_split(rest, rest.size * mt.cols >> 26 or 1):
        if gf2.mul(gen_cols.packed(block), mt) != gen_off.packed(block):
            raise InvalidSubset("|S| != rank of the X-stabilizer matrix")
    return mt


def emit_circuit(code: CssCode, s: np.ndarray, mt: BitMatrix,
                 metadata: Optional[dict] = None) -> FdscCircuit:
    """One CX per nonzero of the reconstruction matrix off S, read from its
    columns (``mt`` as returned by ``build_reconstruction`` for the subset
    array ``s``, which are the controls): bit (j, i) of ``mt`` is the gate
    from s[j] to the i-th qubit outside S.  The rows of ``mt`` follow the
    sorted subset and ``gf2.nonzero`` scans row-major, so the (control,
    target) array comes out sorted, as the circuit requires.  Raises
    InternalInvariantViolation unless ``mt`` is |S| x (N - |S|).

    The gate array, one row per set bit, is allocated once and filled in
    the ``css.row_blocks`` of the set bits (at most ``css.BLOCK`` each, or
    one row alone), so no temporary grows with the circuit.  The row
    counts that cut the blocks are taken ``css.BLOCK`` words at a time.
    """
    off = np.delete(np.arange(code.n_qubits), s)
    if (mt.rows, mt.cols) != (len(s), len(off)):
        raise InternalInvariantViolation(f"M is {mt.rows} x {mt.cols}, not |S| x (N - |S|)")
    ends = np.zeros(mt.rows + 1, dtype=np.int64)   # row r's set bits at r + 1, then summed
    chunk = max(1, css.BLOCK // max(1, mt.data.shape[1]))
    for i in range(0, mt.rows, chunk):
        ends[i + 1:i + chunk + 1] = np.bitwise_count(mt.data[i:i + chunk]).sum(axis=1)
    pairs = np.empty((int(np.cumsum(ends, out=ends)[-1]), 2), dtype=np.int64)
    for lo, hi in css.row_blocks(ends):
        row, col = gf2.nonzero(mt, lo, hi)
        pairs[ends[lo]:ends[hi], 0] = s[row]
        pairs[ends[lo]:ends[hi], 1] = off[col]
    meta = dict(metadata or {})
    meta["gate_count"] = len(pairs)
    return FdscCircuit(code.n_qubits, s.copy(), pairs, meta)   # its own plus qubits


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
    else:
        seeds = [None]
    best = None
    for k in seeds:
        s = greedy_select(code, k) if strategy == "greedy" else tree_select(code, strategy)
        try:
            mt = build_reconstruction(code, s)
        except InvalidSubset as e:
            raise InternalInvariantViolation(f"{strategy}: {e}") from e
        # the gate count, counted only where candidates are compared
        weight = gf2.nnz(mt) if len(seeds) > 1 else 0
        if best is None or weight < best[0]:
            best = (weight, k, s, mt)
    _, k, s, mt = best
    if k is not None:
        meta["seed"] = k
    return emit_circuit(code, s, mt, meta)


# -- cubic-code potential solve -------------------------------------------

# X-stencil corner offsets by layout slot; each starts at (0, 0, 0).
_HAAH_X = {0: css.HAAH_X1, 1: css.HAAH_X2}


def haah_phi_solve(L: int, z: np.ndarray, slot: int = 0) -> np.ndarray:
    """Invert a corner relation on one slot's Z values to the cube potential.

    ``z[(x*L + y)*L + w]`` holds the Z value of layout slot ``slot`` (0 or
    1, as in ``css.SHAPES``) at vertex (x,y,w) for 0 <= x,y,w <= L-1.  That
    value is the XOR of phi over the cubes at (x,y,w) minus the slot's
    X-stencil offsets (``css.HAAH_X1`` or ``css.HAAH_X2``).  Apart from the
    cube at offset 0, each lies strictly closer to the origin, so sweeping
    in increasing x+y+w order is triangular and always solvable;
    out-of-range cubes count as zero.
    """
    z = np.asarray(z, dtype=np.uint8) & 1
    if z.shape != (L ** 3,):
        raise ValueError(f"z must have L^3 = {L**3} entries")
    z, phi = z.reshape(L, L, L), np.zeros((L, L, L), dtype=np.uint8)
    for x, y, w in sorted(np.ndindex(L, L, L), key=sum):
        phi[x, y, w] = z[x, y, w]
        for dx, dy, dw in _HAAH_X[slot][1:]:
            if x >= dx and y >= dy and w >= dw:
                phi[x, y, w] ^= phi[x - dx, y - dy, w - dw]
    return phi.ravel()


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


def _number_table(qubits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NUL-padded whole uint64 words, one void item each: ``,[q,`` in row 0
    and ``q]`` in row 1 for each q of the increasing nonnegative int64 array
    ``qubits``, and where each power of ten from 10 starts in ``qubits``.
    The digits are written by numpy arithmetic, one slice of equal digit
    count at a time (``qubits`` increase, so each count is one slice)."""
    digits = len(str(qubits[-1])) if len(qubits) else 1
    width = digits + 3 + 7 >> 3   # the longest row, ",[q,", in words
    table = np.zeros((2, len(qubits), 8 * width), dtype=np.uint8)
    ends = np.searchsorted(qubits, 10 ** np.arange(1, digits, dtype=np.int64))
    for d, (lo, hi) in enumerate(zip([0, *ends], [*ends, len(qubits)]), 1):
        row, q = table[0, lo:hi], qubits[lo:hi]
        for k in range(d + 1, 1, -1):   # last digit first
            q, row[:, k] = np.divmod(q, 10)
        row[:, 2:d + 2] += ord("0")
        row[:, :2], row[:, d + 2] = tuple(b",["), ord(",")
        table[1, lo:hi, :d], table[1, lo:hi, d] = row[:, 2:d + 2], ord("]")
    return table.view(f"V{8 * width}")[..., 0], ends


def _circuit_pieces(circ: FdscCircuit):
    """The circuit file's length, then the file as compact JSON with
    sorted keys, in bytes-like pieces.

    "gates" sorts first, so it is written in front of the rest of the
    document, which ``css.dump_json`` writes.  Its bytes are gathered from
    ``_number_table``, a gate (c, t) being row 0's item c and row 1's t,
    over 0..the largest gate qubit, or the used qubits only unless that
    range ``_table_fits``.  ``css.BLOCK`` qubits at a time, each row is
    gathered by one flat ``np.take`` into a (block, 2) array, whose bytes
    make a piece, NULs dropped, the first gate's comma skipped by a
    memoryview.  A gate writes 4 bytes and a digit a qubit, one more a power
    of ten reached (binary searches: powers in controls, targets in powers).
    """
    rest = css.dump_json({"version": 1, "n_qubits": circ.n_qubits, "metadata": circ.metadata,
                          "plus_qubits": circ.plus_qubits.tolist()}).encode()
    index = circ.pairs
    top = int(index.max()) + 1 if index.size else 0
    if not _table_fits(top, index.size):   # a table of the used qubits only
        used, index = np.unique(index, return_inverse=True)   # inverse monotone
        (table, cuts), index = _number_table(used), index.reshape(-1, 2)
        del used   # not held while the blocks are gathered
    else:
        table, cuts = _number_table(np.arange(top))
    half = max(css.BLOCK // 2, 1)   # gates a piece
    c, t = index.T
    digits = index.size + int((len(c) - np.searchsorted(c, cuts)).sum() + sum(
        np.searchsorted(cuts, t[lo:lo + half], "right").sum() for lo in range(0, len(t), half)))
    yield 11 + max(digits + 4 * len(index) - 1, 0) + len(rest)
    yield b'{"gates":['
    for lo in range(0, len(index), half):
        rows = np.empty((len(t[lo:lo + half]), 2), table.dtype)
        for k, column in enumerate((c, t)):   # in range, so "clip" never clips
            np.take(table[k], column[lo:lo + half], out=rows[:, k], mode="clip")
        piece = rows.tobytes()
        del rows   # freed before the piece is translated
        piece = piece.translate(None, b"\0")
        yield memoryview(piece)[1:] if lo == 0 else piece
        del piece   # not held while the next block is gathered
    yield b"],"
    yield memoryview(rest)[1:]   # its "{" dropped


def serialize_circuit(circ: FdscCircuit) -> bytearray:
    """The circuit file's bytes: each piece of ``_circuit_pieces`` copied,
    as it is made, into one buffer allocated once at the file's length."""
    pieces = _circuit_pieces(circ)
    out, pos = bytearray(next(pieces)), 0
    for piece in pieces:
        memoryview(out)[pos:pos + len(piece)] = piece   # no copy of the piece first
        pos += len(piece)
        del piece   # freed before the next piece is gathered
    return out


def _fields(text: str | bytes):
    """The checked fields of a circuit document other than its gates:
    n_qubits, plus qubits as an int64 array, the raw gates and metadata."""
    version, n, plus, gates, meta = css.load_json(
        text, "version", "n_qubits", "plus_qubits", "gates", metadata={})
    if type(version) is not int or version != 1:
        raise css.ParseError(f"unsupported version {version!r}")
    if type(n) is not int or n < 0:
        raise css.ParseError("n_qubits must be a nonnegative integer")
    if not css.is_index_list(plus):
        raise css.ParseError("plus_qubits must be a list of integers")
    if not isinstance(meta, dict):
        raise css.ParseError("metadata must be a JSON object")
    return n, css.index_lists("plus_qubits", [plus])[1], gates, meta


def _read_canonical(data: bytes | bytearray) -> Optional[FdscCircuit]:
    """The circuit whose file ``serialize_circuit`` writes as ``data``
    (less one trailing newline), or None.  The gates section, up to the
    first quote, is decoded by ``np.fromstring`` with its brackets gone,
    into an array sized once by its commas; the rest by ``css.load_json``.
    Any bytes that do not write back the same (the writer's length, then
    each of its pieces compared in place) may have been misread (a number
    missing leaves an entry unset), so the round trip is the one check."""
    if not data.startswith(b'{"gates":['):
        return None
    end = data.find(b'"', 10)   # of "metadata", the key after "gates"
    numbers = bytes(memoryview(data)[10:end - 2]).translate(None, b"[]")
    with warnings.catch_warnings():   # a bad number raises (older numpy warns)
        warnings.simplefilter("error")
        flat = np.fromstring(numbers, np.int64, numbers.count(b",") + bool(numbers), sep=",")
    del numbers
    n, plus, _, meta = _fields(b'{"gates":[],' + data[end:])
    circ = FdscCircuit(n, plus, flat.reshape(-1, 2), meta)
    pieces, pos = _circuit_pieces(circ), 0
    if next(pieces) != len(data) - data.endswith(b"\n"):   # the file's length
        return None
    for piece in pieces:   # the written bytes, a piece at a time
        if not data.startswith(piece, pos):
            return None
        pos += len(piece)
    return circ   # pos is the length, so data[pos:] is b"" or b"\n"


def _read_general(text: str | bytes) -> FdscCircuit:
    """The circuit in any JSON document, through ``css.load_json`` and
    ``css.index_lists``, or ParseError."""
    n, plus, gates, meta = _fields(text)
    pairs = css.index_lists("gates", gates, width=2)[1].reshape(-1, 2)
    try:
        return FdscCircuit(n, plus, pairs, meta)
    except ValueError as e:
        raise css.ParseError(f"bad circuit document: {e}") from e


def parse_circuit(text: str | bytes | bytearray | memoryview) -> FdscCircuit:
    """Parse the JSON circuit format, from UTF-8 bytes or str.  Malformed input
    is rejected, never repaired: every qubit index must be an integer and
    every gate a pair.

    A canonical file, the exact bytes ``serialize_circuit`` writes (a str
    is encoded once), is read by a round trip through the writer
    (``_read_canonical``).  Any other input, and any canonical reading
    that fails, is read by ``_read_general``; so every input is accepted
    as the same circuit, or rejected with the same message, as by
    ``_read_general`` alone.  MemoryError is not retried."""
    try:   # a memoryview, which has no bytes methods, is copied
        circ = _read_canonical(text.encode() if isinstance(text, str) else
                               bytes(text) if isinstance(text, memoryview) else text)
    except MemoryError:
        raise
    except Exception:   # whatever went wrong, the general path words it
        circ = None
    return _read_general(text) if circ is None else circ
