"""Memory budgets of the file readers, of verification, of the synthesis
stages and of the circuit writer: the tracemalloc peak of reading a
circuit file and a code file, at sizes where the index lists dominate, of
verifying the circuit read, of selecting the subset, building the
reconstruction and emitting that circuit, and of writing it back out; the
state-vector oracle's peak, which is one state vector; and a scaling
study's peak, which is one size's."""

import functools
import tracemalloc

import pytest

from fdsc import cli, css, synth, verify

MiB = 2 ** 20

# (family, size, strategy): budgets in MiB for parse_circuit, parse_code,
# verify_circuit, tree_select, build_reconstruction, emit_circuit (M not
# counted) and serialize_circuit (its text counted).  Each is the peak read
# when it was set (Python 3.11, numpy 2.4) plus 10 %: toric 8.48, 4.8,
# 11.5, 0.125, 5.45, 8.08, 6.06; haah 5.26, 2.7, 12.1, 0.033, 0.520, 4.59,
# 3.37; xcube 3.78, 7.8, 12.4, 2.39, 1.47, 3.39, 2.62.
BUDGETS = {("toric", 64, "toric_comb"): (9.3, 5.4, 12.6, 0.14, 6.0, 8.9, 6.7),
           ("haah", 10, "haah_canonical"): (5.8, 3.0, 13.3, 0.037, 0.58, 5.1, 3.7),
           ("xcube", 12, "xcube_dual_trees"): (4.2, 8.6, 13.6, 2.64, 1.62, 3.7,
                                               2.9)}


@functools.cache
def documents(family, size, strategy):
    code = css.build_family(family, size)
    return (synth.serialize_circuit(synth.synthesize(code, strategy)),
            css.serialize_code(code))


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
def test_verify_peak_within_budget(job):
    code = css.build_family(*job[:2])
    circ = synth.parse_circuit(documents(*job)[0])
    peak = traced_peak(lambda c: verify.verify_circuit(code, c), circ)
    assert peak <= BUDGETS[job][2]


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


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
def test_writer_peak_within_budget(job):
    circ = synth.parse_circuit(documents(*job)[0])
    assert traced_peak(synth.serialize_circuit, circ) <= BUDGETS[job][6]


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
