"""The benchmark's tracer (bench/tracing.py) wraps hopfcyclic functions at
the attributes where their callers look them up, read from each owner's own
``__dict__``.  Building its patch list, without applying it, raises as soon
as a refactor moves or deletes one of those attributes, so the test suite
catches what a later ``bench/run.py --trace 1`` run would.  One traced run
of a command checks the rest of what the tracer assumes: that wrapping
changes no report, and that ``len(matrix.entries)`` is a matrix's nnz."""

import sys

import pytest

from conftest import PKG_ROOT
from hopfcyclic.cohomology import B_matrix
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.hopf import sweedler_h4


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PKG_ROOT / "bench")] + sys.path)
    import inputs
    import tracing
    return tracing, inputs.import_package()


def test_benchmark_instrumentation_finds_every_attribute(bench):
    tracing, hc = bench
    patches = tracing.instrumentation(tracing.Tracer(), hc)
    assert patches
    for owner, attr, wrapped in patches:
        assert attr in vars(owner) and callable(wrapped), (owner, attr)


def test_traced_run_reports_the_same_and_counts_B_nnz(bench, capsys):
    tracing, hc = bench
    argv = ["cohomology", "--input", "sweedler", "--character", "delta",
            "--max-degree", "3"]
    assert hc["cli"].main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = tracing.Tracer()
    with tracing.patched(tracing.instrumentation(tracer, hc)):
        assert hc["cli"].main(argv) == 0
    assert capsys.readouterr().out == untraced
    H = sweedler_h4()
    module = HopfCyclicModule(H, H.character("delta"))
    assert tracer.calls["cohomology.B_matrix"] == 3
    assert tracer.sizes["cohomology.B_matrix.nnz"] == sum(
        len(B_matrix(module, n).entries) for n in range(3))
