"""Memory budgets of the file readers and of verification: the
tracemalloc peak of reading a circuit file and a code file, at sizes
where the index lists dominate, and of verifying the circuit read."""

import functools
import tracemalloc

import pytest

from fdsc import css, synth, verify

MiB = 2 ** 20

# (family, size, strategy): budgets in MiB for parse_circuit, parse_code
# and verify_circuit.  Each is the peak read when it was set (Python 3.11,
# numpy 2.4) plus 10 %: toric 11.4, 4.8, 11.5; haah 5.3, 2.7, 12.1; xcube
# 3.8, 7.8, 12.4.
BUDGETS = {("toric", 64, "toric_comb"): (12.5, 5.4, 12.6),
           ("haah", 10, "haah_canonical"): (5.8, 3.0, 13.3),
           ("xcube", 12, "xcube_dual_trees"): (4.2, 8.6, 13.6)}


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
