"""Memory budgets of the file readers, of verification and of the synthesis
stages before emission: the tracemalloc peak of reading a circuit file and
a code file, at sizes where the index lists dominate, of verifying the
circuit read, and of selecting the subset and building the reconstruction
of that circuit."""

import functools
import tracemalloc

import pytest

from fdsc import css, synth, verify

MiB = 2 ** 20

# (family, size, strategy): budgets in MiB for parse_circuit, parse_code,
# verify_circuit, tree_select and build_reconstruction.  Each is the peak
# read when it was set (Python 3.11, numpy 2.4) plus 10 %: toric 11.4, 4.8,
# 11.5, 0.125, 5.45; haah 5.3, 2.7, 12.1, 0.033, 0.520; xcube 3.8, 7.8,
# 12.4, 2.39, 1.47.
BUDGETS = {("toric", 64, "toric_comb"): (12.5, 5.4, 12.6, 0.14, 6.0),
           ("haah", 10, "haah_canonical"): (5.8, 3.0, 13.3, 0.037, 0.58),
           ("xcube", 12, "xcube_dual_trees"): (4.2, 8.6, 13.6, 2.64, 1.62)}


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
@pytest.mark.parametrize("stage", [3, 4], ids=["select", "reconstruct"])
def test_synthesis_stage_peak_within_budget(job, stage):
    code = css.build_family(*job[:2])
    s = synth.tree_select(code, job[2])
    run = {3: lambda c: synth.tree_select(c, job[2]),
           4: lambda c: synth.build_reconstruction(c, s)}[stage]
    assert traced_peak(run, code) <= BUDGETS[job][stage]
