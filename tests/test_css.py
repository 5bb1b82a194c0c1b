"""Code families: structure, commutation, documented indexing, serialization."""

import gc
import hashlib
import itertools
import json
import math
import unittest.mock
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies

from conftest import (dense_code, dense_nullspace, dense_product, dense_rank,
                      dense_supports, packed, random_css_code,
                      reference_parse_code, support_lists_ok)
from fdsc import css, gf2, groups, synth
from fdsc.css import CommutationViolation, InvalidSize, ParseError


def overlap_parities(code):
    """Independent commutation check: per-pair support overlap popcounts."""
    a = code.x_stabs.to_dense()
    b = code.z_stabs.to_dense()
    return (a.T.astype(int) @ b.astype(int)) % 2


def test_ghz3_exact_stabilizers():
    code = css.build_ghz(3)
    assert code.x_stabs.to_dense().T.tolist() == [[1, 1, 1]]
    zcols = {tuple(c) for c in code.z_stabs.to_dense().T.tolist()}
    assert zcols == {(1, 1, 0), (1, 0, 1)}


def test_ghz2_bell_pair():
    code = css.build_ghz(2)
    assert code.n_qubits == 2 and code.n_x == 1 and code.n_z == 1


def test_ghz_invalid_size():
    with pytest.raises(InvalidSize):
        css.build_ghz(1)


def test_ghz7_commutation():
    assert not overlap_parities(css.build_ghz(7)).any()


def packed_rank(sup: css.Supports) -> int:
    return gf2.rank(packed(sup.to_dense()))


def test_toric_l2_structure():
    code = css.build_toric(2)
    assert code.n_qubits == 8
    assert code.n_x == 4
    assert (code.x_stabs.to_dense().sum(axis=0) == 4).all()
    assert packed_rank(code.x_stabs) == 3


@pytest.mark.parametrize("L", [2, 3, 5])
def test_toric_column_weights(L):
    code = css.build_toric(L)
    assert (code.x_stabs.to_dense().sum(axis=0) == 4).all()
    assert (code.z_stabs.to_dense().sum(axis=0) == 4).all()


def test_toric_l3_commutation():
    assert not overlap_parities(css.build_toric(3)).any()


@pytest.mark.parametrize("L", [2, 3, 4])
def test_toric_single_global_relation(L):
    code = css.build_toric(L)
    assert packed_rank(code.x_stabs) == L * L - 1
    assert packed_rank(code.z_stabs) == L * L - 1


def test_toric_invalid_size():
    with pytest.raises(InvalidSize):
        css.build_toric(1)


def test_xcube_l2_structure():
    code = css.build_xcube(2)
    assert code.n_qubits == 24
    assert code.n_x == 8
    assert (code.x_stabs.to_dense().sum(axis=0) == 12).all()
    assert (code.z_stabs.to_dense().sum(axis=0) == 4).all()
    assert not overlap_parities(code).any()


def test_xcube_l3_weights():
    code = css.build_xcube(3)
    assert (code.x_stabs.to_dense().sum(axis=0) == 12).all()
    assert (code.z_stabs.to_dense().sum(axis=0) == 4).all()


def test_haah_l1_structure():
    code = css.build_haah(1)
    assert code.n_qubits == 16
    assert code.n_x == 1
    assert code.x_stabs.to_dense().sum() == 8
    assert code.z_stabs.to_dense().sum() == 8


def test_haah_l2_commutation_all_cube_pairs():
    code = css.build_haah(2)
    assert not overlap_parities(code).any()


def test_haah_qubit_count():
    assert css.build_haah(3).n_qubits == 128


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_haah_x_generators_independent(L):
    code = css.build_haah(L)
    assert packed_rank(code.x_stabs) == L ** 3


def test_haah_corner_patterns():
    # every cube: 4 qubit-1 and 4 qubit-2 hits per generator type
    code = css.build_haah(2)
    x = code.x_stabs.to_dense()
    slot1 = x[0::2].sum(axis=0)
    slot2 = x[1::2].sum(axis=0)
    assert (slot1 == 4).all() and (slot2 == 4).all()


# -- qubit layout --------------------------------------------------------------

# The layout of the css docstring written out without css.SHAPES: per family,
# the coordinate ranges and the row-major index formula, both by size.
LAYOUT = {
    "ghz": (lambda n: (n,), lambda n, q: q),
    "toric": (lambda L: (L, L, 2), lambda L, x, y, o: 2 * (x * L + y) + o),
    "xcube": (lambda L: (L, L, L, 3),
              lambda L, x, y, z, a: 3 * ((x * L + y) * L + z) + a),
    "haah": (lambda L: (L + 1, L + 1, L + 1, 2),
             lambda L, x, y, z, s: 2 * ((x * (L + 1) + y) * (L + 1) + z) + s),
}


def test_build_family_rejects_an_unknown_family():
    with pytest.raises(ParseError, match="unknown family 'bogus'"):
        css.build_family("bogus", 3)


@pytest.mark.parametrize("family, size", [
    ("ghz", 4), ("toric", 2), ("toric", 3), ("toric", 4), ("xcube", 2),
    ("xcube", 3), ("haah", 1), ("haah", 2), ("haah", 3)])
def test_qubit_layout(family, size):
    ranges, formula = LAYOUT[family]
    code = css.build_family(family, size)
    coords = list(itertools.product(*map(range, ranges(size))))
    qubits = [formula(size, *c) for c in coords]
    assert sorted(qubits) == list(range(code.n_qubits))
    for c, q in zip(coords, qubits):
        assert css.qubit_index(family, size, *c) == q
        assert css.qubit_coords(code, q) == c
    assert css.qubit_index(family, size, *np.array(coords).T).tolist() == qubits
    if family in ("toric", "xcube"):   # every lattice axis wraps on the torus
        for axis in range(len(ranges(size)) - 1):
            for x, same in ((-1, size - 1), (size, 0)):
                c, c_same = [1] * len(ranges(size)), [1] * len(ranges(size))
                c[axis], c_same[axis] = x, same
                assert css.qubit_index(family, size, *c) == formula(size, *c_same)
    for q in (-1, code.n_qubits):
        with pytest.raises(IndexError):
            css.qubit_coords(code, q)
    custom = css.CssCode(code.n_qubits, code.x_stabs, code.z_stabs)
    assert css.qubit_coords(custom, code.n_qubits - 1) == (code.n_qubits - 1,)


# -- serialization -----------------------------------------------------------


def test_serialize_round_trip():
    code = css.build_ghz(3)
    again = css.parse_code(css.serialize_code(code))
    assert again.n_qubits == 3
    assert again.x_stabs == code.x_stabs
    assert again.z_stabs == code.z_stabs


def test_parse_anticommuting_pair():
    doc = ('{"version":1,"n_qubits":2,"x_stabs":[[0]],"z_stabs":[[0,1]],'
           '"family":"custom","params":{}}')
    with pytest.raises(CommutationViolation) as exc:
        css.parse_code(doc)
    assert exc.value.pair == (0, 0)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        css.parse_code("{not json")
    with pytest.raises(ParseError):
        css.parse_code('{"version":2,"n_qubits":1,"x_stabs":[],"z_stabs":[]}')
    with pytest.raises(ParseError):
        css.parse_code('{"version":1,"n_qubits":2,"x_stabs":[[0,5]],"z_stabs":[]}')


@pytest.mark.parametrize("gc_on", [True, False])
@pytest.mark.parametrize("text", ['{"a":[[1,2]]}', '{"a":[1,2', '{"a":1,"a":2}',
                                  '[1]', '{}'])
def test_load_json_leaves_gc_state(gc_on, text):
    # the collector is paused only while json.loads runs, on success and on
    # ParseError alike
    was_on = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        try:
            assert css.load_json(text, "a") == [[[1, 2]]]
        except ParseError:
            assert text != '{"a":[[1,2]]}'
        assert gc.isenabled() == gc_on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_hand_serialized_toric_matches_builder():
    # toric L=2 written as explicit support lists, compared up to column order
    L = 2
    code = css.build_toric(L)
    x_sets = []
    for vx in range(L):
        for vy in range(L):
            x_sets.append(sorted({
                css.qubit_index("toric", L, vx, vy, 0),
                css.qubit_index("toric", L, vx - 1, vy, 0),
                css.qubit_index("toric", L, vx, vy, 1),
                css.qubit_index("toric", L, vx, vy - 1, 1)}))
    z_sets = []
    for px in range(L):
        for py in range(L):
            z_sets.append(sorted({
                css.qubit_index("toric", L, px, py, 0),
                css.qubit_index("toric", L, px, py + 1, 0),
                css.qubit_index("toric", L, px, py, 1),
                css.qubit_index("toric", L, px + 1, py, 1)}))
    doc = json.dumps({"version": 1, "n_qubits": 8, "x_stabs": x_sets[::-1],
                      "z_stabs": z_sets, "family": "custom", "params": {}})
    parsed = css.parse_code(doc)
    def colset(sup):
        return {tuple(np.flatnonzero(col)) for col in sup.to_dense().T}
    assert colset(parsed.x_stabs) == colset(code.x_stabs)
    assert colset(parsed.z_stabs) == colset(code.z_stabs)


def test_empty_generator_rejected():
    with pytest.raises(ParseError):
        dense_code(np.zeros((3, 1)), np.zeros((3, 0)))


def test_supports_on_another_register_rejected():
    with pytest.raises(ParseError):
        css.CssCode(4, dense_supports(np.ones((3, 1))), dense_supports(np.ones((4, 0))))


@pytest.mark.parametrize("family,size", [("ghz", 5), ("toric", 3), ("xcube", 2),
                                         ("haah", 2)])
def test_packed_is_the_transposed_dense_matrix(family, size):
    code = css.build_family(family, size)
    for sup in (code.x_stabs, code.z_stabs):
        assert np.array_equal(sup.packed().to_dense(), sup.to_dense().T)


@strategies.composite
def listed_pairs(draw):
    """``n_cols`` from 1 to 5 and up to 40 (row, column) pairs, drawn from
    few enough values that pairs repeat, sometimes many times over."""
    n_cols = draw(strategies.integers(1, 5))
    pair = strategies.tuples(strategies.integers(0, draw(strategies.integers(0, 6))),
                             strategies.integers(0, n_cols - 1))
    return n_cols, draw(strategies.lists(pair, max_size=40))


@settings(max_examples=300)
@given(case=listed_pairs())
def test_odd_pairs_matches_counter(case):
    """The parity helper against a Counter over the listed pairs."""
    n_cols, pairs = case
    event("no pairs" if not pairs else f"n_cols {n_cols}")
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    got = css.odd_pairs(rows, cols, n_cols)
    want = sorted(p for p, count in Counter(pairs).items() if count % 2)
    assert list(zip(*(a.tolist() for a in got))) == want
    assert all(a.dtype == np.int64 for a in got)


@strategies.composite
def product_operands(draw):
    """Operands of ``css.odd_product``: left and right up to 6 rows each,
    rows listing their columns in any order, repeats included, so a row
    may be empty or cancel to zero (a left row lists up to 12 columns of
    right rows up to 6 long, heavier than a block of 1 or 3 pairs); and
    None or up to 8 (row, column) entries to add, repeats included."""
    def rows(n_rows, n_cols, max_size):
        lists = draw(strategies.lists(strategies.lists(
            strategies.integers(0, n_cols - 1), max_size=max_size),
            min_size=n_rows, max_size=n_rows))
        return css.Supports(n_cols, np.cumsum([0, *map(len, lists)]),
                            list(itertools.chain.from_iterable(lists)))

    n_left, n_mid, n_cols = (draw(strategies.integers(lo, 6)) for lo in (0, 1, 1))
    add = draw(strategies.none() | strategies.lists(strategies.tuples(
        strategies.integers(0, max(n_left - 1, 0)), strategies.integers(0, n_cols - 1)),
        max_size=8 if n_left else 0))
    if add is not None:
        add = tuple(np.array(add, dtype=np.int64).reshape(-1, 2).T)
    return rows(n_left, n_mid, 12), rows(n_mid, n_cols, 6), add


@pytest.mark.parametrize("block", [1, 3, 1 << 40], ids=["1", "3", "2^40"])
@settings(max_examples=200)
@given(operands=product_operands())
def test_odd_product_matches_dense(block, operands):
    """The sparse GF(2) product, with entries added or not, against
    L @ R + A over GF(2) of dense count matrices, in blocks of 1 and 3
    listed pairs and in one block."""
    with unittest.mock.patch.object(css, "BLOCK", block):
        got = css.odd_product(*operands)
    want = dense_product(*operands)
    event("zero product" if not want[0].size else "nonzero product")
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(a.dtype == np.int64 for a in got)


@pytest.mark.parametrize("seed", range(6))
def test_transpose_restrict_and_row_packing_match_dense(seed):
    """Row-grouped list operations against the dense qubit x generator
    matrix: the transpose, a restriction that drops and renames qubits (the
    peel's S-member lists), and packing chosen rows, repeats included."""
    rng = np.random.default_rng(seed)
    n, k = rng.integers(1, 12, size=2)
    a = (rng.random((n, k)) < 0.4).astype(np.uint8)
    sup = dense_supports(a)
    t = sup.transpose()
    assert (t.n_qubits, len(t)) == (k, n)
    assert np.array_equal(t.to_dense(), a.T) and t.transpose() == sup
    keep = np.flatnonzero(rng.random(n) < 0.5)
    assert np.array_equal(sup.restrict(keep).to_dense(), a[keep])
    assert np.array_equal(sup.restrict(keep[::-1]).to_dense(), a[keep[::-1]])
    rows = rng.integers(0, k, size=7)
    assert np.array_equal(sup.packed(rows).to_dense(), a.T[rows])
    assert sup.packed([]).to_dense().shape == (0, n)


@pytest.mark.parametrize("seed", range(10))
def test_random_codes_commute(seed):
    rng = np.random.default_rng(seed)
    code = random_css_code(rng)
    assert not overlap_parities(code).any()
    assert packed_rank(code.x_stabs) == dense_rank(code.x_stabs.to_dense())


@settings(max_examples=300)
@given(data=strategies.data())
def test_commutation_check_matches_overlap_parities(data):
    """Random dense X/Z pairs, half of them with Z drawn from the orthogonal
    complement of X: the code is accepted exactly when every overlap is
    even, and otherwise rejected with the lexicographically first pair,
    whatever the block (``css.BLOCK`` listed pairs) of the product."""
    block = data.draw(strategies.sampled_from([1, 3, 1 << 40]))
    n = data.draw(strategies.integers(1, 12))

    def columns(k, basis=None):
        """k nonzero columns, as combinations of ``basis`` rows if given."""
        if basis is not None and basis.shape[0] == 0:
            k = 0
        rows = basis if basis is not None else np.eye(n, dtype=np.uint8)
        cols = []
        for _ in range(k):
            mask = data.draw(strategies.integers(1, 2 ** rows.shape[0] - 1))
            pick = (mask >> np.arange(rows.shape[0])) & 1
            cols.append((pick @ rows) % 2)
        return np.array(cols, dtype=np.uint8).reshape(len(cols), n).T

    a = columns(data.draw(strategies.integers(0, 5)))
    commuting = data.draw(strategies.booleans())
    b = columns(data.draw(strategies.integers(0, 5)),
                dense_nullspace(a.T) if commuting and a.shape[1] else None)
    b = b[:, b.any(axis=0)]  # a combination may cancel to zero
    x, z = dense_supports(a), dense_supports(b)
    odd = np.argwhere(overlap_parities(SimpleNamespace(x_stabs=x, z_stabs=z)))
    with unittest.mock.patch.object(css, "BLOCK", block):
        if odd.size == 0:
            css.CssCode(n, x, z)
        else:
            with pytest.raises(CommutationViolation) as exc:
                css.CssCode(n, x, z)
            assert exc.value.pair == tuple(map(int, odd[0]))


@pytest.mark.parametrize("family,size", [("ghz", 5), ("toric", 4), ("xcube", 3),
                                         ("haah", 2)])
def test_family_serialize_round_trip(family, size):
    code = css.build_family(family, size)
    text = css.serialize_code(code)
    doc = json.loads(text)
    for name, m in (("x_stabs", code.x_stabs), ("z_stabs", code.z_stabs)):
        assert doc[name] == [np.flatnonzero(col).tolist() for col in m.to_dense().T]
    again = css.parse_code(text)
    assert again == code
    assert css.serialize_code(again) == text


@pytest.mark.parametrize("family, size, digest", [
    ("ghz", 5, "057fa166ee67"), ("toric", 3, "e2ba8cecf100"),
    ("xcube", 2, "ef4739c0d110"), ("haah", 2, "f87500baac71")])
def test_code_file_bytes_pinned(family, size, digest):
    # code files are a stable format: their bytes pin the qubit layout too
    text = css.serialize_code(css.build_family(family, size))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)


GHZ3 = {"version": 1, "n_qubits": 3, "x_stabs": [[0, 1, 2]],
        "z_stabs": [[0, 1], [0, 2]], "family": "custom", "params": {}}


@pytest.mark.parametrize("change", [
    {"x_stabs": [[0, 0, 1, 2]]},              # repeated qubit
    {"x_stabs": [[0, 2, 1]]},                 # unsorted support
    {"z_stabs": [[0, 1.7], [0, 2]]},          # float index
    {"z_stabs": [[0.9, 1], [0, 2]]},
    {"z_stabs": [[0, True], [0, 2]]},         # boolean index
    {"x_stabs": [[0, 1, 3]]},                 # out of range
    {"x_stabs": [[-1, 0, 1]]},
    {"x_stabs": 5},                           # malformed fields
    {"x_stabs": [5]},
    {"z_stabs": "01"},
    {"params": []},
    {"n_qubits": 3.0},
    {"n_qubits": -1},
    {"version": True},
    {"family": "ghz", "params": {}},          # tag without a size
    {"family": "ghz", "params": {"n": 4}},    # tag naming another code
    {"family": "ghz", "params": {"n": 3.0}},
    {"family": "ghz", "params": {"n": 3, "note": 1}},
    {"family": "toric", "params": {"L": 10 ** 9}},
    {"family": "toric", "params": {"L": 1}, "n_qubits": 2, "x_stabs": [[0, 1]],
     "z_stabs": [[0, 1]]},                    # below the family minimum
])
def test_parse_code_rejects_instead_of_repairing(change):
    assert css.parse_code(json.dumps(GHZ3)).n_qubits == 3
    with pytest.raises(ParseError):
        css.parse_code(json.dumps({**GHZ3, **change}))


def test_parse_code_accepts_matching_tag():
    code = css.parse_code(json.dumps({**GHZ3, "family": "ghz", "params": {"n": 3}}))
    assert code == css.build_ghz(3)


def _size_key(doc) -> str:
    return "n" if doc["family"] == "ghz" else "L"


def _sized(doc, change):
    """``doc`` with its tag's size changed by ``change``."""
    key = _size_key(doc)
    return {**doc, "params": {key: change(doc["params"][key])}}


def _resized(doc, size, valid):
    """``doc`` tagged with ``size`` on that size's qubit count, keeping its
    own supports or, if ``valid``, a GHZ-like code that fits the register."""
    n = math.prod(css.SHAPES[doc["family"]](size))
    new = {**doc, "n_qubits": n, "params": {_size_key(doc): size}}
    if valid:
        new.update(x_stabs=[list(range(n))], z_stabs=[[0, 1]] if n > 1 else [])
    return new


def _ends_swapped(rows):
    return [rows[-1], *rows[1:-1], rows[0]] if len(rows) > 1 else rows


MINIMUM = {"ghz": 1, "toric": 1, "xcube": 1, "haah": 0}   # one below each minimum


# One change each to a family's own code file, as a new document.
FILE_MUTATIONS = {
    "unchanged": lambda d: d,
    "entry changed": lambda d: {**d, "x_stabs": [d["x_stabs"][0][:-1]
                                                 + [d["x_stabs"][0][-1] + 1]]
                                + d["x_stabs"][1:]},
    "entry repeated": lambda d: {**d, "x_stabs": [d["x_stabs"][0][:1] + d["x_stabs"][0]]
                                 + d["x_stabs"][1:]},
    "entry dropped": lambda d: {**d, "x_stabs": [d["x_stabs"][0][:-1]] + d["x_stabs"][1:]},
    "entry out of range": lambda d: {**d, "z_stabs": d["z_stabs"][:-1]
                                     + [d["z_stabs"][-1][:-1] + [d["n_qubits"]]]},
    "generator dropped": lambda d: {**d, "x_stabs": d["x_stabs"][1:]},
    "supports swapped": lambda d: {**d, "z_stabs": _ends_swapped(d["z_stabs"])},
    "x and z swapped": lambda d: {**d, "x_stabs": d["z_stabs"], "z_stabs": d["x_stabs"]},
    "params key added": lambda d: {**d, "params": {**d["params"], "note": 1}},
    "size missing": lambda d: {**d, "params": {}},
    "size a float": lambda d: _sized(d, float),
    "size a boolean": lambda d: _sized(d, lambda v: True),
    "size plus one": lambda d: _sized(d, lambda v: v + 1),
    "size minus one": lambda d: _sized(d, lambda v: v - 1),
    "size negated": lambda d: _sized(d, lambda v: -v),
    "size and qubits plus one": lambda d: _resized(d, d["params"][_size_key(d)] + 1, False),
    "below minimum, own supports": lambda d: _resized(d, MINIMUM[d["family"]], False),
    "below minimum, valid supports": lambda d: _resized(d, MINIMUM[d["family"]], True),
    "unknown tag": lambda d: {**d, "family": "bogus"},
    "tag not a string": lambda d: {**d, "family": [d["family"]]},
    "another family's tag": lambda d: {**d, "family": "toric" if d["family"] == "ghz"
                                       else "ghz"},
    "custom tag": lambda d: {**d, "family": "custom"},
    "anticommuting supports": lambda d: {**d, "z_stabs": [[d["x_stabs"][0][0]],
                                                          *d["z_stabs"][1:]]},
}

FAMILY_FILES = [("ghz", 3), ("ghz", 5), ("toric", 2), ("toric", 3), ("xcube", 2),
                ("xcube", 3), ("haah", 1), ("haah", 2)]


def read_outcome(read, text):
    """The code ``read`` returns, or the class and message it raises."""
    try:
        return read(text)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("mutation", sorted(FILE_MUTATIONS))
@pytest.mark.parametrize("family, size", FAMILY_FILES)
def test_parse_code_matches_the_reader_that_built_twice(family, size, mutation):
    # reading a tagged file as the family it names changes no outcome:
    # the same code, or the same exception class and message, in the
    # same order of faults
    doc = FILE_MUTATIONS[mutation](json.loads(css.serialize_code(
        css.build_family(family, size))))
    text = json.dumps(doc).encode()
    got, want = read_outcome(css.parse_code, text), read_outcome(reference_parse_code, text)
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("family, size", FAMILY_FILES)
def test_parse_code_checks_one_code_per_file(family, size, monkeypatch):
    # a tagged file is the family's own code, built and checked once; a
    # custom file is its own code, checked once (the reader that compared
    # a second build ran the checks twice on a tagged file)
    real, calls = css.CssCode.__post_init__, []
    monkeypatch.setattr(css.CssCode, "__post_init__",
                        lambda self: calls.append(self.family) or real(self))
    code = css.build_family(family, size)
    tagged = css.serialize_code(code).encode()
    custom = json.dumps({**json.loads(tagged), "family": "custom", "params": {}})
    own = css.CssCode(code.n_qubits, code.x_stabs, code.z_stabs)
    for read, text, want, checks in ((css.parse_code, tagged, code, [family]),
                                     (css.parse_code, custom, own, ["custom"]),
                                     (reference_parse_code, tagged, code, [family] * 2)):
        calls.clear()
        assert read(text) == want and calls == checks


def test_supports_are_small_and_read_only():
    code = css.build_toric(128)
    arrays = [a for sup in (code.x_stabs, code.z_stabs)
              for a in (sup.start, sup.qubits)]
    assert sum(a.nbytes for a in arrays) < 2 * 2 ** 20   # dense packed: 134 MB
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1


def support_fields(n):
    """A support field as a code file may hold it: mostly valid lists, some
    unsorted, repeated, out of range, negative, float or boolean entries,
    some entries that are not lists, and fields that are not lists."""
    valid = strategies.sets(strategies.integers(0, n - 1), min_size=1).map(sorted)
    entry = strategies.one_of(strategies.integers(-2, n + 1),
                              strategies.floats(-1, n + 1), strategies.booleans())
    other = strategies.one_of(strategies.integers(-1, n), strategies.none(),
                              strategies.text(max_size=2))
    support = strategies.one_of(valid, strategies.lists(entry, max_size=5), other)
    clean = strategies.lists(valid, max_size=4)
    return strategies.one_of(clean, clean, clean,
                             strategies.lists(support, max_size=4), other)


@settings(max_examples=300)
@given(data=strategies.data())
def test_parse_code_fuzz_matches_entry_rules(data):
    """parse_code raises ParseError exactly when the per-entry rules reject
    a field; otherwise the code holds the lists as given (or the pair
    anticommutes) and serialization round-trips."""
    n = data.draw(strategies.integers(1, 6))
    xs, zs = data.draw(support_fields(n)), data.draw(support_fields(n))
    text = json.dumps({"version": 1, "n_qubits": n, "x_stabs": xs, "z_stabs": zs})
    if not (support_lists_ok(n, xs) and support_lists_ok(n, zs)):
        event("rejected")
        with pytest.raises(ParseError):
            css.parse_code(text)
        return
    a = np.zeros((n, len(xs)), dtype=int)
    b = np.zeros((n, len(zs)), dtype=int)
    for m, lists in ((a, xs), (b, zs)):
        for j, sup in enumerate(lists):
            m[sup, j] = 1
    if ((a.T @ b) % 2).any():
        event("anticommuting")
        with pytest.raises(CommutationViolation):
            css.parse_code(text)
        return
    event("accepted")
    code = css.parse_code(text)
    assert np.array_equal(code.x_stabs.to_dense(), a)
    assert np.array_equal(code.z_stabs.to_dense(), b)
    again = css.serialize_code(code)
    assert json.loads(again)["x_stabs"] == xs and json.loads(again)["z_stabs"] == zs
    assert css.parse_code(again) == code


INT64 = range(-2 ** 63, 2 ** 63)


def index_lists_reference(v, width):
    """``css.index_lists`` by the letter of its rule, in plain Python: the
    row starts and entries as lists, or the ParseError message."""
    if not isinstance(v, list):
        return "rows must be a list of lists of integers"
    for j, row in enumerate(v):
        if not (type(row) is list and all(type(x) is int for x in row)
                and width in (None, len(row))):
            return (f"rows[{j}] must be a list of "
                    f"{'' if width is None else f'{width} '}integers")
    entries = [x for row in v for x in row]
    if not all(x in INT64 for x in entries):
        return "rows holds an integer beyond int64"
    return list(itertools.accumulate(map(len, v), initial=0)), entries


def weighted(*pairs):
    """Draw from each strategy with its given relative weight."""
    return strategies.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(
        lambda s: s)


INT64_EDGES = strategies.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63,
                                       -2 ** 63 - 1, 2 ** 70])
NOT_INTS = strategies.sampled_from([True, False, 0.0, 1.5, "1", None, [], [1]])
INT_ENTRY = weighted((3, strategies.integers(-1, 9)), (1, INT64_EDGES))
INDEX_ENTRY = weighted((9, INT_ENTRY), (1, NOT_INTS))
INDEX_ROW = weighted((8, strategies.lists(INT_ENTRY, max_size=3)),
                     (1, strategies.lists(INDEX_ENTRY, max_size=4)), (1, INDEX_ENTRY))
INDEX_ROWS = weighted((9, strategies.lists(INDEX_ROW, max_size=4)), (1, INDEX_ENTRY))


@settings(max_examples=300)
@given(v=INDEX_ROWS,
       width=strategies.sampled_from([None, None, None, 0, 1, 2, -1]))
def test_index_lists_matches_plain_python(v, width):
    # bools, floats, strings, None, nested, ragged and empty rows, and the
    # int64 edges: both accept the same rows with equal arrays, or both
    # reject them with the same message
    expected = index_lists_reference(v, width)
    if isinstance(expected, str):
        event(f"rejected: {expected.split(' ', 1)[1]}")
        with pytest.raises(ParseError) as exc:
            css.index_lists("rows", v, width)
        assert str(exc.value) == expected
        return
    event("accepted")
    start, entries = css.index_lists("rows", v, width)
    assert start.dtype == entries.dtype == np.int64
    assert (start.tolist(), entries.tolist()) == expected


@pytest.mark.parametrize("v", [[2 ** 63], np.array([2 ** 63], np.uint64),
                               [[0, 2 ** 63]]], ids=["int", "uint64", "nested"])
@pytest.mark.parametrize("take", [
    lambda v: synth.FdscCircuit(3, v, []),
    lambda v: synth.FdscCircuit(3, [0], v),
    lambda v: synth.build_reconstruction(css.build_ghz(3), v),
    groups.FiniteGroup.from_table], ids=["plus", "gates", "subset", "table"])
def test_indices_beyond_int64_overflow(take, v):
    # numpy reads [2**63] as uint64 and [[0, 2**63]] as float64: neither
    # may wrap to a negative index or pass for a non-integer
    with pytest.raises(OverflowError):
        take(v)
