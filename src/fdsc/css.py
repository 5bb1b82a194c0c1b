"""CSS stabilizer codes and the concrete lattice families.

A code is held as two stabilizer-support matrices over GF(2): ``x_stabs``
(n_qubits x #X-generators, column i = support of the i'th X-type product)
and ``z_stabs`` likewise for Z-type.  Construction validates the CSS
commutation condition (every X/Z column pair overlaps on an even number
of qubits) and rejects empty generators.

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


@dataclass(frozen=True)
class CssCode:
    n_qubits: int
    x_stabs: BitMatrix
    z_stabs: BitMatrix
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_stabs.rows != self.n_qubits or self.z_stabs.rows != self.n_qubits:
            raise ParseError("stabilizer matrices must have n_qubits rows")
        if self.family not in FAMILIES:
            raise ParseError(f"unknown family {self.family!r}")
        q, i = gf2.nonzero(self.x_stabs)
        for name, m, cols in (("x", self.x_stabs, i),
                              ("z", self.z_stabs, gf2.nonzero(self.z_stabs)[1])):
            w = np.bincount(cols, minlength=m.cols)
            if w.size and w.min() == 0:
                raise ParseError(
                    f"{name}_stabs column {int(np.argmin(w))} is empty")
        # X generator i and Z generator j anticommute when they share an odd
        # number of qubits: count the pairs (i, j) over every shared qubit.
        k, j = gf2.row_spread(self.z_stabs, q)
        pairs, counts = np.unique(i[k] * self.n_z + j, return_counts=True)
        odd = pairs[counts & 1 == 1]
        if odd.size:
            raise CommutationViolation(*map(int, divmod(odd[0], self.n_z)))

    @property
    def n_x(self) -> int:
        return self.x_stabs.cols

    @property
    def n_z(self) -> int:
        return self.z_stabs.cols


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
    if code.family == "toric":
        return toric_edge_coords(int(code.params["L"]), q)
    if code.family == "xcube":
        return xcube_edge_coords(int(code.params["L"]), q)
    if code.family == "haah":
        return haah_qubit_coords(int(code.params["L"]), q)
    return (q,)


# -- family builders ------------------------------------------------------


def build_ghz(n: int) -> CssCode:
    """All-ones X generator plus the pairwise Z_0 Z_i generators."""
    if n < 2:
        raise InvalidSize("GHZ needs n >= 2")
    x = BitMatrix.from_dense(np.ones((n, 1), dtype=np.uint8))
    z = BitMatrix.from_entries([(q, i - 1) for i in range(1, n) for q in (0, i)],
                               n, n - 1)
    return CssCode(n, x, z, family="ghz", params={"n": n})


def build_toric(L: int) -> CssCode:
    """Toric code on an L x L torus: vertex stars (X) and plaquettes (Z)."""
    if L < 2:
        raise InvalidSize("toric code needs L >= 2")
    n = 2 * L * L
    xe, ze = [], []
    for vx in range(L):
        for vy in range(L):
            c = vx * L + vy
            for q in (toric_edge_index(L, vx, vy, 0),
                      toric_edge_index(L, vx - 1, vy, 0),
                      toric_edge_index(L, vx, vy, 1),
                      toric_edge_index(L, vx, vy - 1, 1)):
                xe.append((q, c))
            for q in (toric_edge_index(L, vx, vy, 0),
                      toric_edge_index(L, vx, vy + 1, 0),
                      toric_edge_index(L, vx, vy, 1),
                      toric_edge_index(L, vx + 1, vy, 1)):
                ze.append((q, c))
    x = BitMatrix.from_entries(xe, n, L * L)
    z = BitMatrix.from_entries(ze, n, L * L)
    return CssCode(n, x, z, family="toric", params={"L": L})


_XCUBE_PERP = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def build_xcube(L: int) -> CssCode:
    """X-cube model on an L^3 torus: cube operators (X) and vertex crosses (Z)."""
    if L < 2:
        raise InvalidSize("X-cube needs L >= 2")
    n = 3 * L ** 3
    xe, ze = [], []
    for cx in range(L):
        for cy in range(L):
            for cz in range(L):
                col = (cx * L + cy) * L + cz
                for axis in range(3):
                    a, b = _XCUBE_PERP[axis]
                    for da in (0, 1):
                        for db in (0, 1):
                            v = [cx, cy, cz]
                            v[a] += da
                            v[b] += db
                            xe.append((xcube_edge_index(L, *v, axis), col))
    for vx in range(L):
        for vy in range(L):
            for vz in range(L):
                base = 3 * ((vx * L + vy) * L + vz)
                for axis in range(3):
                    a, b = _XCUBE_PERP[axis]
                    for ax in (a, b):
                        for d in (0, -1):
                            v = [vx, vy, vz]
                            v[ax] += d
                            ze.append((xcube_edge_index(L, *v, ax), base + axis))
    x = BitMatrix.from_entries(xe, n, L ** 3)
    z = BitMatrix.from_entries(ze, n, 3 * L ** 3)
    return CssCode(n, x, z, family="xcube", params={"L": L})


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
    xe, ze = [], []
    for cx in range(L):
        for cy in range(L):
            for cz in range(L):
                col = (cx * L + cy) * L + cz
                for offs, slot, acc in ((HAAH_X1, 1, xe), (HAAH_X2, 2, xe),
                                        (HAAH_Z1, 1, ze), (HAAH_Z2, 2, ze)):
                    for (dx, dy, dz) in offs:
                        q = haah_qubit_index(L, cx + dx, cy + dy, cz + dz, slot)
                        acc.append((q, col))
    x = BitMatrix.from_entries(xe, n, L ** 3)
    z = BitMatrix.from_entries(ze, n, L ** 3)
    return CssCode(n, x, z, family="haah", params={"L": L})


_FAMILY_QUBITS = {"ghz": lambda n: n, "toric": lambda L: 2 * L * L,
                  "xcube": lambda L: 3 * L ** 3, "haah": lambda L: 2 * (L + 1) ** 3}


def build_family(family: str, size: int) -> CssCode:
    if family == "ghz":
        return build_ghz(size)
    if family == "toric":
        return build_toric(size)
    if family == "xcube":
        return build_xcube(size)
    if family == "haah":
        return build_haah(size)
    raise ParseError(f"unknown family {family!r}")


# -- serialization --------------------------------------------------------


def _support_lists(m: BitMatrix) -> list[list[int]]:
    q, j = gf2.nonzero(m)
    order = np.argsort(j, kind="stable")  # by column, rows stay ascending
    ends = np.cumsum(np.bincount(j, minlength=m.cols))
    return [sup.tolist() for sup in np.split(q[order], ends)[:-1]]


def serialize_code(code: CssCode) -> str:
    doc = {
        "version": 1,
        "n_qubits": code.n_qubits,
        "x_stabs": _support_lists(code.x_stabs),
        "z_stabs": _support_lists(code.z_stabs),
        "family": code.family,
        "params": code.params,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def is_json_int(v) -> bool:
    """True for JSON integers only: true, false and 1.0 are not indices."""
    return type(v) is int


def parse_code(text: str) -> CssCode:
    """Parse the JSON code format; validates all CssCode invariants.

    Malformed input is rejected, never repaired: indices must be integers,
    each support list strictly increasing, and a ghz/toric/xcube/haah tag
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

    def from_lists(name, lists) -> BitMatrix:
        if not isinstance(lists, list):
            raise ParseError(f"{name} must be a list of support lists")
        entries = []
        for j, sup in enumerate(lists):
            if not (isinstance(sup, list) and all(map(is_json_int, sup))):
                raise ParseError(f"{name}[{j}] must be a list of qubit indices")
            if any(a >= b for a, b in itertools.pairwise([-1, *sup, n])):
                raise ParseError(f"{name}[{j}] must increase strictly "
                                 f"within 0..{n - 1}")
            entries += ((q, j) for q in sup)
        return BitMatrix.from_entries(entries, n, len(lists))

    code = CssCode(n, from_lists("x_stabs", xs), from_lists("z_stabs", zs),
                   family=family, params=params)
    size = params.get("n" if family == "ghz" else "L")
    try:  # qubit count first: never build a family far larger than the file
        if family != "custom" and not (
                is_json_int(size) and _FAMILY_QUBITS[family](size) == n
                and code == build_family(family, size)):
            raise ParseError(f"not the {family} code that its params name")
    except InvalidSize as e:
        raise ParseError(str(e)) from e
    return code
