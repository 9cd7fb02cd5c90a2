"""The benchmark's tracer (bench/tracing.py) wraps hopfcyclic functions at
the attributes where their callers look them up, read from each owner's own
``__dict__``.  Building its patch list, without applying it, raises as soon
as a refactor moves or deletes one of those attributes, so the test suite
catches what a later ``bench/run.py --trace 1`` run would.  One traced run
of a command checks the rest of what the tracer assumes: that wrapping
changes no report, and that ``len(matrix.entries)``, which the tracer
reads for B's nnz and for the rank's input sizes, is a matrix's nnz."""

import sys

import pytest

from conftest import PKG_ROOT
from hopfcyclic.cohomology import B_matrix, b_matrix
from hopfcyclic.cyclic_ops import NormalizedModule
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
    norm = NormalizedModule(sweedler_h4().character("delta"))
    # the report builds B on the normalized complex only, so the tracer's
    # B_matrix counters measure those matrices
    assert tracer.calls["cohomology.B_matrix"] == 3
    assert tracer.sizes["cohomology.B_matrix.nnz"] == sum(
        len(B_matrix(norm, n).entries) for n in range(3))
    # the rank's input sizes, read from len(matrix.entries).  Every matrix
    # is restricted to the phi_delta-invariant tuples.  The report ranks
    # only the total matrices T^n -> T^(n+1) for n < 3 of the normalized
    # complex, whose blocks are b_(m+1) and B_(m-1) for m = n, n-2, ...
    # HH and its representatives come from one elimination of the columns
    # of each normalized b_n and the kernel_basis of b_(n+1) on the rest,
    # n = 0..3; those eliminations and the lambda stage's [1 - lambda_(n-1)
    # | Y_n | b'_(n-1)] go through stacked_ranks, which is not wrapped.
    b = {n: norm.invariant_part(b_matrix(norm, n), n - 1, n)
         for n in range(1, 4)}
    B = {n: norm.invariant_part(B_matrix(norm, n), n + 1, n)
         for n in range(3)}
    blocks = [m for n in range(3) for m in range(n, -1, -2)]

    def total(n):
        return sum(len(norm.invariant_index(m)) for m in range(n, -1, -2))

    assert tracer.calls["linalg.rank"] == 3
    assert tracer.calls["linalg.kernel_basis"] == 4
    assert tracer.sizes["linalg.rank.nnz_in"] == sum(
        len(b[m + 1].entries) + (len(B[m - 1].entries) if m else 0)
        for m in blocks)
    assert tracer.sizes["linalg.rank.cells"] == sum(
        total(n + 1) * total(n) for n in range(3))
    assert all(type(m.rank()) is int for m in b.values())  # rank_out adds them
