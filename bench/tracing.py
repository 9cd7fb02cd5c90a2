"""In-memory span tracer for the benchmark.

The tracer wraps public hopfcyclic functions at the attribute where their
callers look them up (a module global such as ``cli.cohomology_report`` or
a class attribute such as ``SparseMatrix.rank``), so no package code
changes.  Every wrapped call keeps a frame on one stack, which gives each
name its call count, inclusive seconds and self seconds (duration minus the
time its wrapped children cover).  Coarse calls are also kept as span
records ``(span_id, command_id, name, start, end, parent_id)``; per-scalar
and per-element calls are only aggregated, because recording millions of
them would swamp memory and time.  No wrapped function calls itself, so
inclusive seconds never count an interval twice.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sizes = defaultdict(int)
        self.command_id = None
        self._next_id = 0
        # sentinel frame: [seconds covered by child spans, nearest recorded span id]
        self._stack = [[0.0, None]]

    def wrap(self, fn, name, record=False, size=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``record`` keeps a span record per call; ``size(sizes, args, result)``
        adds size counters read from the call's arguments and return value.
        """
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if record:
                    self.spans.append((span_id, self.command_id, name,
                                       start, end, parent[1]))
            if size is not None:
                size(self.sizes, args, result)
            return result

        return traced

    def group_self_s(self, prefix):
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


@contextmanager
def patched(patches):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def _matrix_columns(sizes, args, result):
    sizes["cyclic_ops.operator_matrix.columns"] += result.ncols


def _B_nnz(sizes, args, result):
    sizes["cohomology.B_matrix.nnz"] += len(result.entries)


def _rank_sizes(sizes, args, result):
    matrix = args[0]
    sizes["linalg.rank.cells"] += matrix.nrows * matrix.ncols
    sizes["linalg.rank.nnz_in"] += len(matrix.entries)
    sizes["linalg.rank.rank_out"] += result


def _kernel_dim(sizes, args, result):
    sizes["linalg.kernel_basis.dim_out"] += len(result)


def instrumentation(tracer, hc):
    """Patch list wrapping every traced hopfcyclic entry point.

    ``hc`` maps module names (``cli``, ``fields``, ...) to the imported
    modules.  Each row is (owner, attribute, span name, recorded, size).
    """
    cli, fields, hopf, enveloping = hc["cli"], hc["fields"], hc["hopf"], hc["enveloping"]
    cyclic_ops, cohomology, linalg = hc["cyclic_ops"], hc["cohomology"], hc["linalg"]
    actions, reports = hc["actions"], hc["reports"]
    Cyc, Finite, Env = fields.Cyclotomic, hopf.FiniteHopf, enveloping.EnvelopingAlgebra
    modules = (cyclic_ops.HopfCyclicModule, cyclic_ops.CochainCyclicModule)
    rows = [
        (Cyc, "__mul__", "fields.cyclotomic_mul", False, None),
        (Cyc, "__rmul__", "fields.cyclotomic_mul", False, None),
        (Cyc, "__add__", "fields.cyclotomic_add", False, None),
        (Cyc, "__radd__", "fields.cyclotomic_add", False, None),
        (Cyc, "__sub__", "fields.cyclotomic_sub", False, None),
        (Cyc, "__rsub__", "fields.cyclotomic_sub", False, None),
        (Cyc, "__neg__", "fields.cyclotomic_neg", False, None),
        (Cyc, "__truediv__", "fields.cyclotomic_div", False, None),
        (Cyc, "__rtruediv__", "fields.cyclotomic_div", False, None),
        (linalg, "scalar_inv", "fields.scalar_inv", False, None),
        (Finite, "mul", "hopf.mul", False, None),
        (Finite, "twisted_antipode", "hopf.twisted_antipode", False, None),
        (cli, "check_hopf_axioms", "hopf.check_hopf_axioms", True, None),
        (Env, "mul", "enveloping.mul", False, None),
        (Env, "comul_basis", "enveloping.comul_basis", False, None),
    ]
    for module in modules:
        rows += [
            (module, "face", "cyclic_ops.face", False, None),
            (module, "degeneracy", "cyclic_ops.degeneracy", False, None),
            (module, "cyclic", "cyclic_ops.cyclic", False, None),
            (module, "operator_matrix", "cyclic_ops.operator_matrix", True,
             _matrix_columns),
        ]
    rows += [
        (cli, "relation_suite", "cyclic_ops.relation_suite", True, None),
        (cohomology, "b_matrix", "cohomology.b_matrix", True, None),
        (cohomology, "B_matrix", "cohomology.B_matrix", True, _B_nnz),
        (cohomology, "one_minus_lambda_matrix",
         "cohomology.one_minus_lambda_matrix", True, None),
        (cohomology, "B_operator", "cohomology.B_operator", False, None),
        (cohomology, "hochschild_dimensions",
         "cohomology.hochschild_dimensions", True, None),
        (cohomology, "lambda_complex_dimensions",
         "cohomology.lambda_complex_dimensions", True, None),
        (cohomology, "bicomplex_dimensions",
         "cohomology.bicomplex_dimensions", True, None),
        (linalg.SparseMatrix, "rank", "linalg.rank", True, _rank_sizes),
        (linalg.SparseMatrix, "kernel_basis", "linalg.kernel_basis", True,
         _kernel_dim),
        (actions, "check_action", "actions.check_action", True, None),
        (actions, "check_gamma_morphism", "actions.check_gamma_morphism",
         True, None),
        (actions, "pair_idempotent", "actions.pair_idempotent", True, None),
        (cli, "_load_hopf_arg", "presentations.load", True, None),
        (cli, "_load_json", "presentations.load", True, None),
        (cli, "load_lie", "presentations.load", True, None),
        (cli, "load_gamma_input", "presentations.load", True, None),
        (cli, "load_pairing_input", "presentations.load", True, None),
        (reports.CheckReport, "render", "reports.render", True, None),
        (cohomology.ComplexReport, "render", "reports.render", True, None),
    ]
    return [(owner, attr, tracer.wrap(owner.__dict__[attr], name, record, size))
            for owner, attr, name, record, size in rows]
