"""Memory budgets of the file readers, of verification, of the synthesis
stages and of the circuit writer: the tracemalloc peak of reading a
circuit file (also laid out by a JSON tool) and a code file, at sizes
where the index lists dominate, of verifying the circuit read (and at
haah 20, where the gate array dominates, one synthesized: no copy of a
gate column), of selecting the subset, building the reconstruction (and
at toric 128 recursive, where M dominates, only its rows off S) and
emitting that circuit, and of writing it back out; of greedy selection,
which eliminates its packed matrix in place; the state-vector oracle's
peak, which is one state vector; and a scaling study's peak, which is
one size's."""

import functools
import tracemalloc

import pytest

from conftest import layouts
from fdsc import cli, css, synth, verify

MiB = 2 ** 20

# (family, size, strategy): budgets in MiB for parse_circuit, parse_code,
# verify_circuit, tree_select, build_reconstruction, emit_circuit (M not
# counted) and serialize_circuit (its bytes counted).  Each is the peak
# read when it was set (Python 3.11, numpy 2.4) plus 10 %: toric 6.62, 4.69,
# 2.74, 0.125, 2.51, 7.07, 4.18; haah 2.95, 2.37, 2.80, 0.033, 0.418, 3.46,
# 2.36; xcube 1.83, 6.17, 2.91, 0.893, 1.20, 3.39, 1.93.  The circuit reader
# read haah 3.27 and xcube 2.59 with a round trip through the writer.  The circuit check
# reads plus-set membership from one table, where a block's np.isin calls
# read haah 3.64 and 4.53 (parse, emit) and xcube 2.91.  The reader budgets
# are for the files' bytes, which the CLI passes; a second copy of the gates
# section broke them (it read toric 10.06, haah 5.64, xcube 4.07), a sort
# of the gates by target breaks the verify budgets (11.5, 12.1, 12.4), M's
# rows on S, packed as well, break the reconstruct budgets (4.42, 0.522,
# 1.47), and writer pieces of css.BLOCK gates rather than qubits, with the
# buffer allocated at the file's length, break the writer budgets (5.18,
# 3.36, 2.93), and eliminating all of A over the xcube seeds, not A
# restricted to them, breaks the xcube select budget (1.93).
BUDGETS = {("toric", 64, "toric_comb"): (7.3, 5.2, 3.1, 0.14, 2.8, 7.8, 4.6),
           ("haah", 10, "haah_canonical"): (3.25, 2.7, 3.1, 0.037, 0.46, 3.8, 2.6),
           ("xcube", 12, "xcube_dual_trees"): (2.02, 6.8, 3.2, 0.98, 1.32, 3.7,
                                               2.1)}


@functools.cache
def documents(family, size, strategy):
    code = css.build_family(family, size)
    # the files' bytes, which is what the CLI hands the readers
    return (synth.serialize_circuit(synth.synthesize(code, strategy)),
            css.serialize_code(code).encode())


def traced_peak(run, arg) -> float:
    """The peak of memory traced while ``run(arg)`` runs, in MiB."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        run(arg)
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
@pytest.mark.parametrize("reader", [0, 1], ids=["circuit", "code"])
def test_reader_peak_within_budget(job, reader):
    read = (synth.parse_circuit, css.parse_code)[reader]
    peak = traced_peak(read, documents(*job)[reader])
    assert peak <= BUDGETS[job][reader]


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
def test_circuit_reader_encodes_a_str_once(job):
    # a str is encoded once, to the bytes the reader reads, so it costs the
    # bytes budget plus the document (read toric 9.64, haah 4.26, xcube 2.66)
    text = documents(*job)[0].decode()
    assert traced_peak(synth.parse_circuit, text) <= BUDGETS[job][0] + len(text) / MiB


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
def test_circuit_reader_peak_alike_in_any_layout(job):
    # the document as a JSON tool lays it out is read as the canonical file
    # is: json.dumps within 1.5 times the canonical budget (read toric
    # 7.05, haah 3.08, xcube 1.94; through Python lists 44.85, 20.01,
    # 12.46), an indented one within 2.5 times its bytes (read 13.23, 5.89,
    # 3.65 for 6.65, 2.95, 1.84 MiB)
    for name, text in list(layouts(documents(*job)[0].decode()))[1:]:
        data = text.encode()
        bound = 1.5 * BUDGETS[job][0] if name == "json.dumps" else 2.5 * len(data) / MiB
        assert traced_peak(synth.parse_circuit, data) <= bound, name


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
def test_verify_peak_within_budget(job):
    code = css.build_family(*job[:2])
    circ = synth.parse_circuit(documents(*job)[0])
    peak = traced_peak(lambda c: verify.verify_circuit(code, c), circ)
    assert peak <= BUDGETS[job][2]


def test_verify_copies_no_gate_column():
    # where the gate array dominates, verify reads the gates in place: read
    # 4.8 MiB at haah 20, whose pairs take 48.2 MiB (a column 24.1); a sort
    # of the gates by target (72.3) or a copy of the target column with a
    # running sum as long (49.8) breaks it
    code = css.build_family("haah", 20)
    circ = synth.synthesize(code, "haah_canonical")
    peak = traced_peak(lambda c: verify.verify_circuit(code, c), circ)
    assert peak <= 8


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
@pytest.mark.parametrize("stage", [3, 4, 5], ids=["select", "reconstruct", "emit"])
def test_synthesis_stage_peak_within_budget(job, stage):
    code = css.build_family(*job[:2])
    s = synth.tree_select(code, job[2])
    mt = synth.build_reconstruction(code, s) if stage == 5 else None
    run = {3: lambda c: synth.tree_select(c, job[2]),
           4: lambda c: synth.build_reconstruction(c, s),
           5: lambda c: synth.emit_circuit(c, s, mt)}[stage]
    assert traced_peak(run, code) <= BUDGETS[job][stage]


def test_reconstruction_holds_only_rows_off_s():
    # toric 128 recursive: M off S takes 32 MiB (|S| = 16,383 rows of
    # 16,385 bits) and the peak read 39.4 MiB; packing the rows on S as
    # well made it 76.3, above the 64 MiB that full-width M alone takes
    code = css.build_family("toric", 128)
    s = synth.tree_select(code, "toric_recursive")
    peak = traced_peak(lambda c: synth.build_reconstruction(c, s), code)
    assert peak <= 43.4 < 64


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
def test_writer_peak_within_budget(job):
    circ = synth.parse_circuit(documents(*job)[0])
    assert traced_peak(synth.serialize_circuit, circ) <= BUDGETS[job][6]


def test_greedy_select_eliminates_its_own_matrix():
    # A restricted to the scan order is packed for the elimination and
    # reduced in place: read 5.18 MiB at toric 64 (the restriction's
    # temporaries; 4.96 packing all of A unrestricted), where eliminating
    # a copy of it read 8.82
    code = css.build_family("toric", 64)
    assert traced_peak(synth.greedy_select, code) <= 5.5


def test_writer_peak_is_its_output_plus_one_block():
    # haah 14's file sets the peak of a synth --out run of the fracton
    # workload: the writer holds the file's bytes once, in a buffer
    # allocated at their length, the number table and one block's
    # temporaries (read 7.47 MiB for 6.35 MiB of output; a buffer grown
    # piece by piece read 7.75, pieces joined into a str 12.71)
    circ = synth.synthesize(css.build_family("haah", 14), "haah_canonical")
    size = len(synth.serialize_circuit(circ)) / MiB
    assert traced_peak(synth.serialize_circuit, circ) <= size + 3


@pytest.mark.parametrize("family,size,strategy", [
    ("ghz", 20, "greedy"), ("toric", 3, "toric_comb")])
def test_oracle_peak_is_one_state_vector(family, size, strategy):
    # the oracle holds the circuit's 2^n float64 vector and the ground
    # state's labels: read 8.01 MiB at ghz 20 and 2.01 MiB at toric 3
    code = css.build_family(family, size)
    circ = synth.synthesize(code, strategy)
    peak = traced_peak(lambda c: verify.statevector_check(code, c), circ)
    assert peak <= 1.1 * 8 * 2 ** code.n_qubits / MiB


def test_scaling_holds_one_size_at_a_time(capsys):
    # sizes 16 and 32 before 64 add only their rows and reports to the peak
    # of 64 alone: 1.000x, where holding their codes and circuits read
    # 1.044x (a run of size 8 first takes first-use allocations out)
    argv = ["scaling", "--code", "toric", "--strategy", "toric_recursive",
            "--sizes"]
    cli.main(argv + ["8"])
    one, all_three = (traced_peak(cli.main, argv + [sizes])
                      for sizes in ("64", "16,32,64"))
    assert all_three <= 1.02 * one
