"""CSS stabilizer codes and the concrete lattice families.

A code is held as two sparse supports (``Supports``): ``x_stabs`` lists
the qubits of each X-type generator and ``z_stabs`` those of each Z-type
generator, in compressed sparse row form, so a code costs O(nnz) memory
and every check on it O(nnz log nnz) time.  This module is the only one
that knows that layout; a packed ``BitMatrix`` is built from it only
where GF(2) elimination runs.  Construction checks that each support is
nonempty and strictly increasing within the register, and the CSS
commutation condition (every X/Z generator pair overlaps on an even
number of qubits).

Qubit indexing conventions (stable, used by golden tests and file formats):
  ghz    flat 0..n-1
  toric  edge (x, y, o) -> 2*(x*L + y) + o, o=0 horizontal (+x), o=1 vertical (+y)
  xcube  edge (x, y, z, axis) -> 3*((x*L + y)*L + z) + axis, axis in {0,1,2}
  haah   vertex qubit (x, y, z, i) -> 2*(((x*(L+1)) + y)*(L+1) + z) + (i-1),
         vertices 0..L per axis (open boundary), i in {1, 2}
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .gf2 import BitMatrix

FAMILIES = ("ghz", "toric", "xcube", "haah", "custom")


class InvalidSize(ValueError):
    """Lattice size below the family minimum."""


class ParseError(ValueError):
    """Malformed code description."""


class CommutationViolation(ValueError):
    """An X and a Z generator anticommute."""

    def __init__(self, i: int, j: int):
        super().__init__(f"x_stabs column {i} anticommutes with z_stabs column {j}")
        self.pair = (i, j)


@dataclass(frozen=True, eq=False)
class Supports:
    """Generator supports in compressed sparse row form: generator j acts
    on the qubits qubits[start[j]:start[j + 1]] of an n_qubits register.

    ``start`` (k + 1 offsets rising from 0 to len(qubits)) and ``qubits``
    are read-only int64 arrays, built by ``from_lists``.  In a code each
    support is nonempty and strictly increasing within 0..n_qubits-1
    (``CssCode`` checks this).  Only ``by_qubit``, ``to_dense`` and
    ``packed`` allocate per qubit.
    """

    n_qubits: int
    start: np.ndarray
    qubits: np.ndarray

    def __post_init__(self):
        for name in ("start", "qubits"):
            a = np.asarray(getattr(self, name), dtype=np.int64).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_lists(cls, n_qubits: int, lists) -> "Supports":
        """Generator j acts on the qubit indices lists[j]."""
        weight = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        qubits = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                             count=int(weight.sum()))
        return cls(n_qubits, np.concatenate(([0], np.cumsum(weight))), qubits)

    def __len__(self) -> int:
        return self.start.size - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Supports) and self.n_qubits == other.n_qubits
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.qubits, other.qubits))

    def generators(self) -> np.ndarray:
        """The generator of each entry of ``qubits``."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def lists(self) -> list[list[int]]:
        return [sup.tolist() for sup in np.split(self.qubits, self.start[1:])[:-1]]

    def by_qubit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The qubit-major view (start, weight, generators) for gf2.spread:
        qubit q's generators, increasing, are generators[start[q]:start[q] +
        weight[q]].  One stable sort; start and weight are n_qubits long."""
        weight = np.bincount(self.qubits, minlength=self.n_qubits)
        order = np.argsort(self.qubits, kind="stable")
        return np.cumsum(weight) - weight, weight, self.generators()[order]

    def to_dense(self) -> np.ndarray:
        """The n_qubits x k 0/1 uint8 matrix; column j is generator j."""
        a = np.zeros((self.n_qubits, len(self)), dtype=np.uint8)
        a[self.qubits, self.generators()] = 1
        return a

    def packed(self) -> BitMatrix:
        """The k x n_qubits generator-by-qubit matrix, packed for elimination."""
        return BitMatrix.from_entries(np.column_stack((self.generators(), self.qubits)),
                                      len(self), self.n_qubits)


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
        # number of qubits: count pairs (i, j) over shared qubits, each X entry
        # found by binary search in the Z entries by qubit (no n_qubits table).
        order = np.argsort(self.z_stabs.qubits, kind="stable")
        zq, xq = self.z_stabs.qubits[order], self.x_stabs.qubits
        lo = np.searchsorted(zq, xq)
        e, j = gf2.spread(lo, np.searchsorted(zq, xq, "right") - lo,
                          self.z_stabs.generators()[order], np.arange(xq.size))
        i = self.x_stabs.generators()[e]
        pairs, counts = np.unique(i * self.n_z + j, return_counts=True)
        odd = pairs[counts & 1 == 1]
        if odd.size:
            raise CommutationViolation(*map(int, divmod(odd[0], self.n_z)))

    @property
    def n_x(self) -> int:
        return len(self.x_stabs)

    @property
    def n_z(self) -> int:
        return len(self.z_stabs)


# -- lattice index helpers ------------------------------------------------


def toric_edge_index(L: int, x: int, y: int, o: int) -> int:
    return 2 * ((x % L) * L + (y % L)) + o


def toric_edge_coords(L: int, q: int) -> tuple[int, int, int]:
    o = q & 1
    v = q >> 1
    return v // L, v % L, o


def xcube_edge_index(L: int, x: int, y: int, z: int, axis: int) -> int:
    return 3 * (((x % L) * L + (y % L)) * L + (z % L)) + axis


def xcube_edge_coords(L: int, q: int) -> tuple[int, int, int, int]:
    axis = q % 3
    v = q // 3
    return v // (L * L), (v // L) % L, v % L, axis


def haah_qubit_index(L: int, x: int, y: int, z: int, i: int) -> int:
    side = L + 1
    return 2 * ((x * side + y) * side + z) + (i - 1)


def haah_qubit_coords(L: int, q: int) -> tuple[int, int, int, int]:
    side = L + 1
    i = (q & 1) + 1
    v = q >> 1
    return v // (side * side), (v // side) % side, v % side, i


def qubit_coords(code: CssCode, q: int) -> tuple:
    """Family-specific lattice coordinates of a qubit (flat index for ghz
    and custom codes)."""
    if not 0 <= q < code.n_qubits:
        raise IndexError(q)
    coords = {"toric": toric_edge_coords, "xcube": xcube_edge_coords,
              "haah": haah_qubit_coords}.get(code.family)
    return coords(int(code.params["L"]), q) if coords else (q,)


# -- family builders ------------------------------------------------------


def _stencil(n: int, columns, weight: int) -> Supports:
    """Generator j acts on row j of the qubit arrays ``columns`` stacked
    side by side and cut into rows of ``weight``, each in any order."""
    rows = np.stack(columns, axis=1).reshape(-1, weight)
    return Supports.from_lists(n, np.sort(rows, axis=1).tolist())


def build_ghz(n: int) -> CssCode:
    """All-ones X generator plus the pairwise Z_0 Z_i generators."""
    if n < 2:
        raise InvalidSize("GHZ needs n >= 2")
    x = Supports.from_lists(n, [range(n)])
    z = Supports.from_lists(n, [(0, i) for i in range(1, n)])
    return CssCode(n, x, z, family="ghz", params={"n": n})


def build_toric(L: int) -> CssCode:
    """Toric code on an L x L torus: vertex stars (X) and plaquettes (Z)."""
    if L < 2:
        raise InvalidSize("toric code needs L >= 2")
    n = 2 * L * L
    vx, vy = np.divmod(np.arange(L * L), L)
    stars = ((vx, vy, 0), (vx - 1, vy, 0), (vx, vy, 1), (vx, vy - 1, 1))
    plaquettes = ((vx, vy, 0), (vx, vy + 1, 0), (vx, vy, 1), (vx + 1, vy, 1))
    x, z = ([toric_edge_index(L, *e) for e in edges] for edges in (stars, plaquettes))
    return CssCode(n, _stencil(n, x, 4), _stencil(n, z, 4), family="toric",
                   params={"L": L})


_XCUBE_PERP = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def build_xcube(L: int) -> CssCode:
    """X-cube model on an L^3 torus: cube operators (X) and vertex crosses (Z)."""
    if L < 2:
        raise InvalidSize("X-cube needs L >= 2")
    n = 3 * L ** 3
    c = np.arange(L ** 3)
    v = np.stack((c // (L * L), c // L % L, c % L))   # cube or vertex coords
    unit = np.eye(3, dtype=np.int64)[:, :, None]       # unit[a] steps along a
    x = [xcube_edge_index(L, *(v + da * unit[a] + db * unit[b]), axis)
         for axis, (a, b) in _XCUBE_PERP.items() for da in (0, 1) for db in (0, 1)]
    # Z generator 3 * vertex + axis: the four edges at the vertex across axis
    z = [xcube_edge_index(L, *(v + d * unit[ax]), ax)
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
    n = 2 * (L + 1) ** 3
    c = np.arange(L ** 3)
    cx, cy, cz = c // (L * L), c // L % L, c % L
    x, z = ([haah_qubit_index(L, cx + dx, cy + dy, cz + dz, slot)
             for slot, offsets in enumerate(patterns, 1) for dx, dy, dz in offsets]
            for patterns in ((HAAH_X1, HAAH_X2), (HAAH_Z1, HAAH_Z2)))
    return CssCode(n, _stencil(n, x, 8), _stencil(n, z, 8), family="haah",
                   params={"L": L})


_BUILDERS = {"ghz": build_ghz, "toric": build_toric, "xcube": build_xcube,
             "haah": build_haah}
_FAMILY_QUBITS = {"ghz": lambda n: n, "toric": lambda L: 2 * L * L,
                  "xcube": lambda L: 3 * L ** 3, "haah": lambda L: 2 * (L + 1) ** 3}


def build_family(family: str, size: int) -> CssCode:
    if family not in _BUILDERS:
        raise ParseError(f"unknown family {family!r}")
    return _BUILDERS[family](size)


# -- serialization --------------------------------------------------------


def serialize_code(code: CssCode) -> str:
    doc = {"version": 1, "n_qubits": code.n_qubits, "x_stabs": code.x_stabs.lists(),
           "z_stabs": code.z_stabs.lists(), "family": code.family,
           "params": code.params}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def is_json_int(v) -> bool:
    """True for JSON integers only: true, false and 1.0 are not indices."""
    return type(v) is int


def parse_code(text: str) -> CssCode:
    """Parse the JSON code format; validates all CssCode invariants.

    Malformed input is rejected, never repaired: indices must be JSON
    integers (checked here), each support list strictly increasing within
    the register (checked by ``CssCode``), and a ghz/toric/xcube/haah tag
    must name exactly the code ``build_family`` gives for its size.
    """
    try:
        doc = json.loads(text)
        version, n, xs, zs = (doc[k] for k in
                              ("version", "n_qubits", "x_stabs", "z_stabs"))
        family = doc.get("family", "custom")
        params = doc.get("params", {})
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except (KeyError, TypeError, AttributeError) as e:
        raise ParseError(f"missing field: {e}") from e
    if not is_json_int(version) or version != 1:
        raise ParseError(f"unsupported version {version!r}")
    if not is_json_int(n) or n <= 0:
        raise ParseError("n_qubits must be a positive integer")
    if not isinstance(params, dict):
        raise ParseError("params must be a JSON object")

    def supports(name, lists) -> Supports:
        if not isinstance(lists, list):
            raise ParseError(f"{name} must be a list of support lists")
        for j, sup in enumerate(lists):
            if not (isinstance(sup, list) and all(map(is_json_int, sup))):
                raise ParseError(f"{name}[{j}] must be a list of qubit indices")
        return Supports.from_lists(n, lists)

    try:
        code = CssCode(n, supports("x_stabs", xs), supports("z_stabs", zs),
                       family=family, params=params)
    except OverflowError as e:   # an index beyond int64
        raise ParseError(f"qubit index out of range: {e}") from e
    size = params.get("n" if family == "ghz" else "L")
    try:  # qubit count first: never build a family far larger than the file
        if family != "custom" and not (
                is_json_int(size) and _FAMILY_QUBITS[family](size) == n
                and code == build_family(family, size)):
            raise ParseError(f"not the {family} code that its params name")
    except InvalidSize as e:
        raise ParseError(str(e)) from e
    return code
