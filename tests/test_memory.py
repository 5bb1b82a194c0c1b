"""Memory budgets of the file readers: the tracemalloc peak of reading a
circuit file and a code file, at sizes where the index lists dominate."""

import functools
import tracemalloc

import pytest

from fdsc import css, synth

MiB = 2 ** 20

# (family, size, strategy): budgets in MiB for parse_circuit, parse_code.
# Each is the peak read when it was set (Python 3.11, numpy 2.4) plus 10 %.
BUDGETS = {("toric", 64, "toric_comb"): (55.0, 5.4),     # read 50.0, 4.8
           ("haah", 10, "haah_canonical"): (24.6, 3.0),   # read 22.4, 2.7
           ("xcube", 12, "xcube_dual_trees"): (15.3, 8.6)}  # read 13.8, 7.8


@functools.cache
def documents(family, size, strategy):
    code = css.build_family(family, size)
    return (synth.serialize_circuit(synth.synthesize(code, strategy)),
            css.serialize_code(code))


def traced_peak(read, text) -> float:
    """The peak of memory traced while ``read(text)`` runs, in MiB."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("job", sorted(BUDGETS), ids=lambda job: f"{job[0]}{job[1]}")
@pytest.mark.parametrize("reader", [0, 1], ids=["circuit", "code"])
def test_reader_peak_within_budget(job, reader):
    read = (synth.parse_circuit, css.parse_code)[reader]
    peak = traced_peak(read, documents(*job)[reader])
    assert peak <= BUDGETS[job][reader]
