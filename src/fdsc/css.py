"""CSS stabilizer codes, the lattice families, and ``Supports``, the one
sparse row-grouped-list type (compressed sparse rows, CSR).

This module alone knows the CSR layout: code supports, their transpose,
the reconstruction's restricted lists, row gathers (``Supports.spread``)
and the one sparse GF(2) product (``odd_product``), behind the
commutation check and both verify rules.  A code is two ``Supports``
(``x_stabs`` and ``z_stabs``, each generator's qubits), so it costs
O(nnz) memory and every check on it O(nnz log nnz) time; packed
``BitMatrix`` rows are built only for elimination and products.
Construction checks that each support is nonempty and strictly increasing
within the register, and the CSS commutation condition (every X/Z
generator pair overlaps on an even number of qubits).  ``load_json``,
``index_lists`` and ``dump_json`` read and write every file format, and
``load_json`` alone decodes a file's bytes, as strict UTF-8.  Each index
in a file is decoded once, by ``index_lists``, into an int64 array, and
each from a library caller by ``_indices``, under the same rule.

Qubit layout (stable, a file-format convention): a family's qubits are
one row-major array of the shape ``SHAPES`` gives for its size, so qubit
q sits at ``np.unravel_index(q, shape)``; custom codes are (n_qubits,).
  ghz    (n,)                qubit q
  toric  (L, L, 2)           edge (x, y, o), o=0 horizontal (+x), 1 vertical (+y)
  xcube  (L, L, L, 3)        edge (x, y, z, axis), axis in {0, 1, 2}
  haah   (L+1, L+1, L+1, 2)  vertex (x, y, z), 0..L per axis (open boundary),
                             slot 0 for qubit 1 and 1 for qubit 2
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .gf2 import BitMatrix

# Each family's qubits as a row-major array, by the family's size (n for
# ghz, L for the lattices).
SHAPES = {"ghz": lambda n: (n,),
          "toric": lambda L: (L, L, 2),
          "xcube": lambda L: (L, L, L, 3),
          "haah": lambda L: (L + 1, L + 1, L + 1, 2)}
FAMILIES = (*SHAPES, "custom")

# Items per block of the loops that follow a circuit's size: set bits of M
# per emission block, gates per circuit-check block, qubits per piece of
# the circuit writer (``synth``), listed pairs per ``odd_product`` block.
# Smaller blocks sort faster and hold less; at 2^16 a verify-sweep job of
# the benchmark takes 1 to 5 blocks a rule, and toric L=128 comb 129.
BLOCK = 1 << 16


class InvalidSize(ValueError):
    """Lattice size below the family minimum."""


class ParseError(ValueError):
    """Malformed code, circuit or group file."""


class CommutationViolation(ValueError):
    """An X and a Z generator anticommute."""

    def __init__(self, i: int, j: int):
        super().__init__(f"x_stabs column {i} anticommutes with z_stabs column {j}")
        self.pair = (i, j)


def odd_pairs(rows, cols, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows[e], cols[e]) listed an odd number of times, sorted,
    as a row array and a column array; columns lie in 0..n_cols-1.

    One sort of the keys rows * n_cols + cols, made and sorted in place; a
    key is odd when its run of equal keys has odd length."""
    keys = np.multiply(rows, n_cols)
    keys += cols
    keys.sort()
    runs = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1,
                           [keys.size]))
    return np.divmod(keys[runs[:-1][np.diff(runs) & 1 == 1]], n_cols)


def row_blocks(ends: np.ndarray):
    """Row ranges (a, b), in order, of at most ``BLOCK`` items or of one row
    where a ``BLOCK``-th item falls, for ends[r] items before row r."""
    cuts = np.searchsorted(ends, np.arange(BLOCK, ends[-1], BLOCK))
    rows = np.unique(np.concatenate(([0], cuts - 1, cuts, [ends.size - 1]))).tolist()
    return zip(rows, rows[1:])


def odd_product(left: Supports, right: Supports, add=None):
    """The 1-entries of left @ right + add over GF(2), sorted, as a row and
    a column array (``add``, if given: 1-entries as a (rows, cols) pair).
    Row by row, as in Gustavson's sparse product: left's entry (i, q), in
    any order and repeats included, lists (i, c) for each c in right's row
    q; ``odd_pairs`` keeps the pairs listed an odd number of times, a
    ``row_blocks`` block at a time, then over all blocks and ``add``."""
    # pairs listed before each row, summed over left's entries by blocks
    weight, ends = np.diff(right.start), np.zeros(len(left) + 1, dtype=np.int64)
    for a, b in row_blocks(left.start):
        run = np.cumsum(np.append(0, weight[left.qubits[left.start[a]:left.start[b]]]))
        ends[a + 1:b + 1] = ends[a] + run[left.start[a + 1:b + 1] - left.start[a]]
    found = [add or (np.zeros(0, dtype=np.int64),) * 2]
    for a, b in row_blocks(ends):
        e, cols = right.spread(left.qubits[left.start[a]:left.start[b]])
        e = np.repeat(np.arange(a, b), np.diff(left.start[a:b + 1]))[e]
        found.append(odd_pairs(e, cols, right.n_qubits))
    return odd_pairs(*map(np.concatenate, zip(*found)), right.n_qubits)


@dataclass(frozen=True, eq=False)
class Supports:
    """A row-grouped list: row j holds the columns qubits[start[j]:start[j
    + 1]] of 0..n_qubits-1.  In a code, row j is generator j's qubits.

    ``start`` (k + 1 offsets rising from 0 to len(qubits)) and ``qubits``
    are read-only int64 arrays.  A code's supports are nonempty and strictly
    increasing (``CssCode`` checks this).  Only ``transpose``, ``restrict``,
    ``to_dense`` and ``packed`` allocate per column.
    """

    n_qubits: int
    start: np.ndarray
    qubits: np.ndarray

    def __post_init__(self):
        for name in ("start", "qubits"):
            a = np.asarray(getattr(self, name), dtype=np.int64).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.start.size - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Supports) and self.n_qubits == other.n_qubits
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.qubits, other.qubits))

    def generators(self) -> np.ndarray:
        """The row of each entry of ``qubits``."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def lists(self) -> list[list[int]]:
        return [sup.tolist() for sup in np.split(self.qubits, self.start[1:])[:-1]]

    def spread(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The entries of rows[0], rows[1], ... (rows may repeat), as pairs
        (i, column) for each column of row rows[i], ordered by i."""
        rows = np.asarray(rows, dtype=np.int64)
        lo = self.start[rows]
        w = self.start[rows + 1] - lo
        # position in qubits of each entry: its row's start plus its rank
        pos = np.repeat(lo - (np.cumsum(w) - w), w)
        pos += np.arange(pos.size)
        return np.repeat(np.arange(rows.size), w), self.qubits[pos]

    def transpose(self) -> "Supports":
        """Column c's rows, increasing, as row c (one stable sort)."""
        weight = np.bincount(self.qubits, minlength=self.n_qubits)
        order = np.argsort(self.qubits, kind="stable")
        return Supports(len(self), np.concatenate(([0], np.cumsum(weight))),
                        self.generators()[order])

    def restrict(self, cols) -> "Supports":
        """The same rows over the distinct columns ``cols`` alone, column
        cols[i] renamed i; entries keep their order, so no sort of them.
        Columns are found by binary search: no table is sized by n_qubits."""
        order = np.argsort(cols)
        new = np.append(order, -1)[np.searchsorted(cols, self.qubits, sorter=order)]
        keep = np.append(cols, -1)[new] == self.qubits   # -1: not found
        start = np.concatenate(([0], np.cumsum(keep)))[self.start]
        return Supports(len(cols), start, new[keep])

    def to_dense(self) -> np.ndarray:
        """The n_qubits x k 0/1 uint8 matrix; column j is generator j."""
        a = np.zeros((self.n_qubits, len(self)), dtype=np.uint8)
        a[self.qubits, self.generators()] = 1
        return a

    def packed(self, rows=None) -> BitMatrix:
        """Rows ``rows`` (default all) as a packed matrix over the n_qubits
        columns, for elimination and products: the positions ``spread``
        lists, packed by ``BitMatrix.from_entries``."""
        rows = np.arange(len(self)) if rows is None else np.asarray(rows)
        return BitMatrix.from_entries(self.spread(rows), rows.size, self.n_qubits)


@dataclass(frozen=True)
class CssCode:
    n_qubits: int
    x_stabs: Supports
    z_stabs: Supports
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_qubits
        if self.x_stabs.n_qubits != n or self.z_stabs.n_qubits != n:
            raise ParseError("stabilizer supports must be on n_qubits qubits")
        if self.family not in FAMILIES:
            raise ParseError(f"unknown family {self.family!r}")
        for name, sup in (("x_stabs", self.x_stabs), ("z_stabs", self.z_stabs)):
            q, g = sup.qubits, sup.generators()
            # an entry is bad outside the register or not above the entry
            # before it in the same generator; the first names its generator
            bad = (q < 0) | (q >= n)
            bad[1:] |= (g[1:] == g[:-1]) & (q[1:] <= q[:-1])
            if bad.any():
                raise ParseError(f"{name}[{g[bad.argmax()]}] must increase "
                                 f"strictly within 0..{n - 1}")
            empty = np.diff(sup.start) == 0
            if empty.any():
                raise ParseError(f"{name}[{empty.argmax()}] is empty")
        # X generator i and Z generator j anticommute when they share an odd
        # number of qubits: a 1 at (i, j) of X times Z-by-qubit on Z's qubits
        order = np.argsort(self.z_stabs.qubits, kind="stable")
        zq = self.z_stabs.qubits[order]
        head = np.flatnonzero(np.diff(zq, prepend=-1))   # each used qubit's first
        by_qubit = Supports(self.n_z, np.append(head, zq.size),
                            self.z_stabs.generators()[order])
        i, j = odd_product(self.x_stabs.restrict(zq[head]), by_qubit)
        if i.size:
            raise CommutationViolation(int(i[0]), int(j[0]))

    @property
    def n_x(self) -> int:
        return len(self.x_stabs)

    @property
    def n_z(self) -> int:
        return len(self.z_stabs)


# -- qubit layout ----------------------------------------------------------


def qubit_index(family: str, size: int, *coords):
    """The qubit at ``coords`` in the family's shape, each coordinate taken
    modulo its axis (the torus wrap); coordinates may be broadcast arrays."""
    q = np.ravel_multi_index(coords, SHAPES[family](size), mode="wrap")
    return int(q) if q.ndim == 0 else q


def qubit_coords(code: CssCode, q: int) -> tuple[int, ...]:
    """Qubit q's position in its family's shape, or ``(q,)`` for a custom
    code."""
    if not 0 <= q < code.n_qubits:
        raise IndexError(q)
    size = code.params.get("n" if code.family == "ghz" else "L")
    shape = SHAPES[code.family](size) if code.family in SHAPES else (code.n_qubits,)
    return tuple(map(int, np.unravel_index(q, shape)))


# -- family builders ------------------------------------------------------


def _stencil(n: int, columns, weight: int) -> Supports:
    """Generator j acts on row j of the qubit arrays ``columns`` stacked
    side by side and cut into rows of ``weight``, each in any order."""
    rows = np.sort(np.stack(columns, axis=1).reshape(-1, weight), axis=1)
    return Supports(n, np.arange(0, rows.size + 1, weight), rows.ravel())


def build_ghz(n: int) -> CssCode:
    """All-ones X generator plus the pairwise Z_0 Z_i generators."""
    if n < 2:
        raise InvalidSize("GHZ needs n >= 2")
    x = _stencil(n, [np.arange(n)], n)
    z = _stencil(n, [np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], 2)
    return CssCode(n, x, z, family="ghz", params={"n": n})


def build_toric(L: int) -> CssCode:
    """Toric code on an L x L torus: vertex stars (X) and plaquettes (Z)."""
    if L < 2:
        raise InvalidSize("toric code needs L >= 2")
    n = math.prod(SHAPES["toric"](L))
    vx, vy = np.divmod(np.arange(L * L), L)
    stars = ((vx, vy, 0), (vx - 1, vy, 0), (vx, vy, 1), (vx, vy - 1, 1))
    plaquettes = ((vx, vy, 0), (vx, vy + 1, 0), (vx, vy, 1), (vx + 1, vy, 1))
    x, z = ([qubit_index("toric", L, *e) for e in edges]
            for edges in (stars, plaquettes))
    return CssCode(n, _stencil(n, x, 4), _stencil(n, z, 4), family="toric",
                   params={"L": L})


_XCUBE_PERP = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def build_xcube(L: int) -> CssCode:
    """X-cube model on an L^3 torus: cube operators (X) and vertex crosses (Z)."""
    if L < 2:
        raise InvalidSize("X-cube needs L >= 2")
    n = math.prod(SHAPES["xcube"](L))
    c = np.arange(L ** 3)
    v = np.stack((c // (L * L), c // L % L, c % L))   # cube or vertex coords
    unit = np.eye(3, dtype=np.int64)[:, :, None]       # unit[a] steps along a
    x = [qubit_index("xcube", L, *(v + da * unit[a] + db * unit[b]), axis)
         for axis, (a, b) in _XCUBE_PERP.items() for da in (0, 1) for db in (0, 1)]
    # Z generator 3 * vertex + axis: the four edges at the vertex across axis
    z = [qubit_index("xcube", L, *(v + d * unit[ax]), ax)
         for axis in range(3) for ax in _XCUBE_PERP[axis] for d in (0, -1)]
    return CssCode(n, _stencil(n, x, 12), _stencil(n, z, 4), family="xcube",
                   params={"L": L})


# Corner offsets of the cube stabilizers, by vertex-qubit slot.
HAAH_X1 = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))  # X on qubit 1
HAAH_X2 = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))  # X on qubit 2
HAAH_Z1 = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))  # Z on qubit 1
HAAH_Z2 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))  # Z on qubit 2


def build_haah(L: int) -> CssCode:
    """Cubic two-qubit-per-vertex code with open boundaries, one X and one Z
    corner-pattern generator per cube."""
    if L < 1:
        raise InvalidSize("cubic code needs L >= 1")
    n = math.prod(SHAPES["haah"](L))
    c = np.arange(L ** 3)
    cx, cy, cz = c // (L * L), c // L % L, c % L
    x, z = ([qubit_index("haah", L, cx + dx, cy + dy, cz + dz, slot)
             for slot, offsets in enumerate(patterns) for dx, dy, dz in offsets]
            for patterns in ((HAAH_X1, HAAH_X2), (HAAH_Z1, HAAH_Z2)))
    return CssCode(n, _stencil(n, x, 8), _stencil(n, z, 8), family="haah",
                   params={"L": L})


_BUILDERS = {"ghz": build_ghz, "toric": build_toric, "xcube": build_xcube,
             "haah": build_haah}


def build_family(family: str, size: int) -> CssCode:
    if family not in _BUILDERS:
        raise ParseError(f"unknown family {family!r}")
    return _BUILDERS[family](size)


# -- file formats: the one JSON layer --------------------------------------


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_code(code: CssCode) -> str:
    return dump_json({"version": 1, "n_qubits": code.n_qubits, "family": code.family,
                      "x_stabs": code.x_stabs.lists(), "z_stabs": code.z_stabs.lists(),
                      "params": code.params})


def is_index_list(v) -> bool:
    """True for a list of JSON integers (``type(v) is int``: not true or 1.0)."""
    return type(v) is list and set(map(type, v)) <= {int}


def index_lists(name: str, v, width: int | None = None):
    """The row starts and entries of ``v``, a list of lists of JSON integers
    (each ``width`` long, if given), as int64 arrays; types checked in C.
    Else ParseError naming the first bad row, or for an integer beyond int64."""
    if not isinstance(v, list):
        raise ParseError(f"{name} must be a list of lists of integers")
    if not (set(map(type, v)) <= {list}
            and set(map(type, itertools.chain.from_iterable(v))) <= {int}
            and (width is None or set(map(len, v)) <= {width})):
        j = next(j for j, row in enumerate(v)
                 if not (is_index_list(row) and width in (None, len(row))))
        raise ParseError(f"{name}[{j}] must be a list of "
                         f"{'' if width is None else f'{width} '}integers")
    # no pass over rows of one width (an empty v may name any width at all)
    start = (np.arange(len(v) + 1) * width if v and width is not None
             else np.cumsum([0, *map(len, v)], dtype=np.int64))
    try:
        return start, np.fromiter(itertools.chain.from_iterable(v), np.int64,
                                  count=int(start[-1]))
    except OverflowError as e:
        raise ParseError(f"{name} holds an integer beyond int64") from e


def _indices(v, what: str, error=ValueError) -> np.ndarray:
    """``v`` as an int64 array; ``error`` unless its values are integers (an
    empty ``v`` passes whatever its dtype): floats and booleans are rejected,
    not truncated.  A sequence or object array is checked item by item and
    converted once; any other array by its dtype alone.  OverflowError for
    an integer beyond int64."""
    if isinstance(v, np.ndarray) and v.dtype != object:
        if v.size and v.dtype.kind not in "iu":
            raise error(f"{what} must be integers, not {v.dtype}")
        if v.dtype == np.uint64 and v.size and v.max() > np.iinfo(np.int64).max:
            raise OverflowError(f"{what} holds an integer beyond int64")
        return v.astype(np.int64, copy=False)
    items = np.asarray(v, dtype=object)
    for x in items.flat:
        if type(x) is not int and not isinstance(x, np.integer):
            raise error(f"{what} must be integers, not {type(x).__name__}")
    return items.astype(np.int64)


def _unique_keys(pairs) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"repeated JSON key "
                         f"{next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def load_json(text: str | bytes, *fields: str, **defaults) -> list:
    """The values of ``fields``, then of the keys of ``defaults`` (or their
    defaults), in the JSON object ``text``, a str or bytes-like object.
    ParseError for bytes that are not strict UTF-8 (decoded here, never by
    ``json.loads``, which would take UTF-16/32 and a BOM), invalid JSON
    (also nested too deeply, an integer over 4,300 digits or a repeated
    key), a document that is not an object, or a missing field.  The
    cyclic garbage collector is paused while ``json.loads`` runs: the
    millions of lists of a large file are not cycles, and scanning them
    repeatedly doubled the parse time."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text if isinstance(text, str) else str(text, "utf-8"),
                         object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid UTF-8 at byte {e.start}: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e
    except ParseError:
        raise
    except ValueError as e:   # int() refuses more than 4,300 digits
        raise ParseError("invalid JSON: integer too long to read") from e
    finally:
        if gc_was_on:
            gc.enable()
    if not isinstance(doc, dict):
        raise ParseError("the document must be a JSON object")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ParseError(f"missing field {missing[0]!r}")
    return [doc[f] for f in fields] + [doc.get(k, d) for k, d in defaults.items()]


def parse_code(text: str | bytes) -> CssCode:
    """Parse the JSON code format, str or bytes; validates all CssCode invariants.

    Malformed input is rejected, never repaired: indices must be JSON
    integers (``index_lists``), each support list strictly increasing
    within the register (checked by ``CssCode``), and a ghz/toric/xcube/haah
    tag must name exactly the ``build_family`` code of its size: that one is returned.
    """
    version, n, xs, zs, family, params = load_json(
        text, "version", "n_qubits", "x_stabs", "z_stabs", family="custom",
        params={})
    if type(version) is not int or version != 1:
        raise ParseError(f"unsupported version {version!r}")
    if type(n) is not int or n <= 0:
        raise ParseError("n_qubits must be a positive integer")
    if not isinstance(params, dict):
        raise ParseError("params must be a JSON object")
    x, z = (Supports(n, *index_lists(*f)) for f in (("x_stabs", xs), ("z_stabs", zs)))
    size, fault = params.get("n" if family == "ghz" else "L"), None
    try:  # qubit count first: never build a family far larger than the file
        if (family in tuple(SHAPES) and type(size) is int
                and math.prod(SHAPES[family](size)) == n):
            code = build_family(family, size)   # built and checked once
            if (code.x_stabs, code.z_stabs, code.params) == (x, z, params):
                return code
    except InvalidSize as e:
        fault = e
    code = CssCode(n, x, z, family=family, params=params)   # its own fault first
    if family != "custom":
        raise ParseError(str(fault or f"not the {family} code that its params name"))
    return code
