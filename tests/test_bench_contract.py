"""The benchmark's tracer (bench/tracing.py) wraps hopfcyclic functions at
the attributes where their callers look them up, read from each owner's own
``__dict__``.  Building its patch list, without applying it, raises as soon
as a refactor moves or deletes one of those attributes, so the test suite
catches what a later ``bench/run.py --trace 1`` run would."""

import sys

from conftest import PKG_ROOT


def test_benchmark_instrumentation_finds_every_attribute(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PKG_ROOT / "bench")] + sys.path)
    import inputs
    import tracing

    patches = tracing.instrumentation(tracing.Tracer(), inputs.import_package())
    assert patches
    for owner, attr, wrapped in patches:
        assert attr in vars(owner) and callable(wrapped), (owner, attr)
