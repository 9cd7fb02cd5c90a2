"""Hochschild and cyclic cohomology of the cyclic module of a Hopf algebra.

The differentials follow the standard mixed-complex conventions:
b is the alternating sum of faces, lambda_n = (-1)^n tau_n, the norm is
N = sum of powers of lambda, the extra degeneracy is s = sigma_n tau_{n+1},
and B = N s (1 - lambda).

Two forms of each operator are kept.  The elementwise ones (hochschild_b,
B_operator, ...) act on single tensors; they serve symbolic modules and are
the oracle the tests compare the matrices with.  On a finite module every
matrix is built and read as its columns (``SparseMatrix.cols``), starting
from the face, degeneracy and cyclic matrices that the module assembles
from the structure constants: b_matrix adds the signed faces into the
columns of face_0, one_minus_lambda_matrix comes from tau_n, B_matrix is
composed from the columns of tau_n, tau_{n+1} and sigma_n, and the total
bicomplex matrix stacks the columns of b and B.  from_columns keeps the
dicts it is given, so each hands over fresh dicts, never a cache's.

cohomology_report builds each b_n and B_n once and passes the same
matrices to the mixed-complex checks and to every dimension function.  The
checks form each product exactly, one column at a time, and stop at the
first column that is not zero; no product matrix is stored.  The report
builds every b and checks b^2 = 0, computes HH and the lambda-method HC,
and drops b_(N+1), the largest b, before it builds any B; then it checks
B^2 = 0 and bB + Bb = 0 and computes the bicomplex dimensions.  No rank is
computed after a failed check: the report still runs every check, then
raises NotMixedComplexError rather than return a table for a complex that
fails an identity.

Scalars are canonical (see ``fields``), so on an integral presentation b,
1 - lambda, B, the gate's products and the elimination all run on int.

Cyclic cohomology is computed two ways: from the lambda-invariant
subcomplex (valid in characteristic 0) and from the total complex of the
first-quadrant (b, B)-bicomplex.  For a truncation at max degree N the
total complex is exact below the boundary; the top two degrees are still
flagged boundary-unreliable and excluded from cross-method assertions.
"""

from __future__ import annotations

from functools import partial

from .hopf import check_involution, vec_add_into, vec_scale, vec_sub
from .linalg import SparseMatrix, combine, first_nonzero_column
from .reports import CheckReport, first_failure


class NotCyclicError(Exception):
    """Raised when the twisted antipode is not an involution, so the
    cyclic operator machinery would be unsound."""


class NotMixedComplexError(Exception):
    """Raised when the assembled b and B fail b^2 = 0, B^2 = 0 or
    bB + Bb = 0, so no dimension computed from them means anything.
    ``report`` is the failed 'mixed-complex' check report."""

    def __init__(self, report):
        super().__init__(report.render())
        self.report = report


# ---------------------------------------------------------------------------
# elementwise differentials


def hochschild_b(module, n, t):
    """b = sum_i (-1)^i face_i, from degree n-1 to degree n."""
    out = {}
    for i in range(n + 1):
        vec_add_into(out, module.face(i, n, t), 1 if i % 2 == 0 else -1)
    return out


def signed_cyclic(module, n, t):
    """lambda_n = (-1)^n tau_n."""
    out = module.cyclic(n, t)
    return out if n % 2 == 0 else vec_scale(-1, out)


def norm_operator(module, n, t):
    """N = sum of the n+1 powers of lambda_n."""
    out = dict(t)
    acc = t
    for _ in range(n):
        acc = signed_cyclic(module, n, acc)
        vec_add_into(out, acc)
    return out


def extra_degeneracy(module, n, t):
    """s = sigma_n tau_{n+1}, from degree n+1 to degree n."""
    return module.degeneracy(n, n, module.cyclic(n + 1, t))


def B_operator(module, n, t):
    """B = N s (1 - lambda), from degree n+1 to degree n."""
    t1 = vec_sub(t, signed_cyclic(module, n + 1, t))
    return norm_operator(module, n, extra_degeneracy(module, n, t1))


# ---------------------------------------------------------------------------
# matrices (finite-dimensional modules)


def b_matrix(module, n):
    """b_n = sum_i (-1)^i face_i, from degree n-1 to degree n.  The faces
    are added into the columns of face_0 one face matrix at a time."""
    cols = module.face_matrix(0, n).cols
    for i in range(1, n + 1):
        for col, face in zip(cols, module.face_matrix(i, n).cols):
            vec_add_into(col, face, 1 if i % 2 == 0 else -1)
    return SparseMatrix.from_columns(cols, module.space_dim(n))


def B_matrix(module, n):
    """B_n = N_n sigma_n tau_(n+1) (1 - lambda_(n+1)), from degree n+1 to n.

    s = sigma_n tau_(n+1) is formed once per column of tau_(n+1); column j
    of B is then N_n applied to s e_j - (-1)^(n+1) s tau_(n+1) e_j, with
    N_n = 1 + lambda_n + ... + lambda_n^n applied through the columns of
    tau_n.  Columns are produced one at a time, so only the finished
    matrix and the columns of tau and s are held.
    """
    tau_up = module.cyclic_matrix(n + 1).cols
    sigma = module.degeneracy_matrix(n, n).cols
    s_cols = [combine(sigma, col) for col in tau_up]
    del sigma
    tau = module.cyclic_matrix(n).cols
    lam_sign = 1 if n % 2 == 0 else -1

    def columns():
        for j, col in enumerate(tau_up):
            vec = dict(s_cols[j])
            vec_add_into(vec, combine(s_cols, col), lam_sign)
            out = dict(vec)
            for _ in range(n):
                vec = combine(tau, vec, lam_sign)
                vec_add_into(out, vec)
            yield out

    return SparseMatrix.from_columns(columns(), module.space_dim(n))


def one_minus_lambda_matrix(module, n):
    """1 - lambda_n = 1 - (-1)^n tau_n."""
    sign = -1 if n % 2 == 0 else 1
    return SparseMatrix.from_columns(
        (vec_add_into({j: 1}, col, sign)
         for j, col in enumerate(module.cyclic_matrix(n).cols)),
        module.space_dim(n))


def require_involution(hopf, delta):
    ok, witness = check_involution(hopf, delta)
    if not ok:
        raise NotCyclicError(
            f"twisted antipode is not an involution on {hopf.name} "
            f"(witness basis element {witness!r}); refusing the cyclic "
            f"operator machinery")


# ---------------------------------------------------------------------------
# dimension computations


class ComplexReport:
    """Per-degree dimension table for one algebra/character pair."""

    def __init__(self, name, character, max_degree, method):
        self.name = name
        self.character = character
        self.max_degree = max_degree
        self.method = method
        self.rows = []  # dicts: degree, dim, rank_b, hh, hc_lambda, hc_bB, flag

    def add_row(self, **kw):
        self.rows.append(kw)

    def render(self):
        lines = [
            "report: cohomology",
            f"algebra: {self.name}",
            f"character: {self.character}",
            f"max-degree: {self.max_degree}",
            f"method: {self.method}",
            "columns: degree dim rank_b HH HC(lambda) HC(bB) flag",
        ]
        for row in self.rows:
            def fmt(key):
                v = row.get(key)
                return "-" if v is None else str(v)
            lines.append(
                f"degree {row['degree']}: dim={fmt('dim')} "
                f"rank_b={fmt('rank_b')} HH={fmt('hh')} "
                f"HC_lambda={fmt('hc_lambda')} HC_bB={fmt('hc_bB')}"
                f"{' flag=boundary-unreliable' if row.get('flag') else ''}")
        stab = self.stabilization()
        if stab is not None:
            lines.append(f"stabilization: {stab}")
        return "\n".join(lines)

    def negative_entries(self):
        """Computed dimensions that are negative, as 'COLUMN=value at degree
        n'; a dimension never is, so any entry here is a defect."""
        out = []
        for row in self.rows:
            for key, label in (("hh", "HH"), ("hc_lambda", "HC_lambda"),
                               ("hc_bB", "HC_bB")):
                v = row.get(key)
                if v is not None and v < 0:
                    out.append(f"{label}={v} at degree {row['degree']}")
        return out

    def stabilization(self):
        """Compare HC^n with HC^(n+2) where both are reliable; observational
        only (the periodicity map itself is not implemented)."""
        dims = [row.get("hc_lambda") if row.get("hc_lambda") is not None
                else row.get("hc_bB") for row in self.rows]
        pairs = []
        for n in range(len(dims) - 2):
            if dims[n] is None or dims[n + 2] is None:
                continue
            pairs.append(f"HC^{n}{'=' if dims[n] == dims[n + 2] else '!='}HC^{n + 2}")
        return " ".join(pairs) if pairs else None


def _homology_dims(sizes, ranks):
    """dim ker d_n - dim im d_(n-1) = size_n - rank d_n - rank d_(n-1)."""
    return [size - ranks[n] - (ranks[n - 1] if n else 0)
            for n, size in enumerate(sizes)]


def hochschild_dimensions(module, b):
    """HH^n = ker(b: C^n -> C^n+1) / im(b: C^n-1 -> C^n) for n <= N, given
    b = {n: b_n} for 1 <= n <= N+1."""
    ranks = [b[n + 1].rank() for n in range(len(b))]
    sizes = [module.space_dim(n) for n in range(len(b))]
    return _homology_dims(sizes, ranks), ranks


def lambda_complex_dimensions(module, b):
    """HC^n from the lambda-invariant subcomplex with differential b, for
    n <= N, given b = {n: b_n} for 1 <= n <= N+1.

    b_(n+1) K, for K the kernel vectors of 1 - lambda_n, is formed one
    kernel vector at a time from the columns of b_(n+1)."""
    kernel_dims, image_ranks = [], []
    for n in range(len(b)):
        kernel = one_minus_lambda_matrix(module, n).kernel_basis()
        kernel_dims.append(len(kernel))
        image = SparseMatrix.from_columns(
            (combine(b[n + 1].cols, vec) for vec in kernel), b[n + 1].nrows)
        del kernel
        image_ranks.append(image.rank())
    return _homology_dims(kernel_dims, image_ranks)


def bicomplex_dimensions(module, b, B):
    """HC^n from the total complex of the (b, B)-bicomplex truncated at
    column degree N, given b = {n: b_n} for 1 <= n <= N and B = {n: B_n}
    for 0 <= n < N.  Returns (dims, flags): dims[n] is None when the
    truncation cannot determine it; flags marks the top two degrees."""
    N_max = len(B)

    def offsets(n):
        """Row or column offset of each block C^m (m = n, n-2, ...) in the
        total space T^n, and the dimension of T^n."""
        off, size = {}, 0
        for m in range(n, -1, -2):
            off[m] = size
            size += module.space_dim(m)
        return off, size

    def total_matrix(n):
        """D = b + B from T^n to T^(n+1), column by column.  b sends block
        C^m to C^(m+1) and B sends it to C^(m-1), so the two never share a
        row, and the blocks C^m come in column order."""
        row_off, nrows = offsets(n + 1)
        cols = []
        for m in offsets(n)[0]:
            parts = [(row_off[m + 1], b[m + 1].cols)]
            if m >= 1:
                parts.append((row_off[m - 1], B[m - 1].cols))
            cols += ({r0 + r: v for r0, block in parts
                      for r, v in block[j].items()}
                     for j in range(module.space_dim(m)))
        return SparseMatrix.from_columns(cols, nrows)

    ranks = [total_matrix(n).rank() for n in range(N_max)]
    sizes = [offsets(n)[1] for n in range(N_max)]
    dims = _homology_dims(sizes, ranks) + [None]
    flags = [n >= N_max - 1 for n in range(N_max + 1)]
    return dims, flags


def cohomology_report(hopf, delta, N_max, method="both"):
    """Full dimension table.  method: 'lambda', 'bB' or 'both'.

    Raises NotMixedComplexError, carrying the failed 'mixed-complex'
    report, instead of returning the table of a complex that fails an
    identity.  The module docstring gives the order matrices are built in.
    """
    from .cyclic_ops import HopfCyclicModule
    require_involution(hopf, delta)
    module = HopfCyclicModule(hopf, delta)
    gate = CheckReport("mixed-complex", meta={"max-degree": N_max})
    b = {n: b_matrix(module, n) for n in range(1, N_max + 2)}
    check_b_square(gate, module, b)
    if gate.ok:  # no rank of a complex whose b^2 is not 0
        hh, b_ranks = hochschild_dimensions(module, b)
        hc_lambda = lambda_complex_dimensions(module, b) \
            if method in ("lambda", "both") else [None] * (N_max + 1)
    hc_bB, flags = [None] * (N_max + 1), [False] * (N_max + 1)
    if method in ("bB", "both"):
        del b[N_max + 1]  # served HH and HC(lambda) only
        B = {n: B_matrix(module, n) for n in range(N_max)}
        check_B_relations(gate, module, b, B)
        if gate.ok:
            hc_bB, flags = bicomplex_dimensions(module, b, B)
    if not gate.ok:
        raise NotMixedComplexError(gate)
    report = ComplexReport(hopf.name, delta.name, N_max, method)
    for n in range(N_max + 1):
        report.add_row(degree=n, dim=module.space_dim(n),
                       rank_b=(b_ranks[n - 1] if n >= 1 else 0),
                       hh=hh[n], hc_lambda=hc_lambda[n], hc_bB=hc_bB[n],
                       flag=flags[n])
    return report


def methods_agree(report):
    """True when the two HC columns coincide on all unflagged degrees."""
    for row in report.rows:
        if row.get("flag"):
            continue
        a, b = row.get("hc_lambda"), row.get("hc_bB")
        if a is not None and b is not None and a != b:
            return False
    return True


def mixed_complex_report(module, N_max, samples=None, title="mixed-complex"):
    """b^2 = 0, B^2 = 0 and bB + Bb = 0 on all basis tensors, degrees <= N_max.

    On a finite module these are products of b_1..b_(N+2) and B_0..B_(N-1),
    formed column by column by the checks cohomology_report runs.  With
    ``samples`` (a map degree -> list of tensors) they are checked
    elementwise on those tensors, which is how symbolic modules are
    checked.
    """
    report = CheckReport(title, meta={"max-degree": N_max})
    if samples is None:
        b = {n: b_matrix(module, n) for n in range(1, N_max + 3)}
        check_b_square(report, module, b)
        B = {n: B_matrix(module, n) for n in range(N_max)}
        check_B_relations(report, module, b, B)
        return report

    b, B = partial(hochschild_b, module), partial(B_operator, module)

    def anticommutes(n, t):
        anti = b(n, B(n - 1, t)) if n >= 1 else {}
        return not vec_add_into(anti, B(n, b(n + 1, t)))

    for n in range(N_max + 1):
        report.add(f"b2 n={n}", *first_failure(
            samples[n], lambda t: not b(n + 2, b(n + 1, t)),
            lambda t: ("b.b", sorted(t))))
    for n in range(N_max - 1):
        report.add(f"B2 n={n}", *first_failure(
            samples[n + 2], lambda t: not B(n, B(n + 1, t)),
            lambda t: ("B.B", sorted(t))))
    for n in range(N_max):
        report.add(f"bB+Bb n={n}", *first_failure(
            samples[n], lambda t: anticommutes(n, t),
            lambda t: ("bB+Bb", sorted(t))))
    return report


def _check_zero(report, check, module, name, degree, *products):
    """Add check to report: the sum of left @ right over the (left, right)
    pairs is zero.  Its witness is (name, [the basis tuple of degree that
    indexes the first nonzero column])."""
    j = first_nonzero_column(*products)
    report.add(check, j is None,
               None if j is None else (name, [module.key_of_index(j, degree)]))


def check_b_square(report, module, b):
    """Add 'b2 n=...' checks of b_(n+2) b_(n+1) = 0 to report, for every
    consecutive pair in b = {n: b_n}, 1 <= n <= top."""
    for n in range(len(b) - 1):
        _check_zero(report, f"b2 n={n}", module, "b.b", n,
                    (b[n + 2], b[n + 1]))


def check_B_relations(report, module, b, B):
    """Add 'B2 n=...' checks of B_n B_(n+1) = 0 and 'bB+Bb n=...' checks of
    b_n B_(n-1) + B_n b_(n+1) = 0 to report, for B = {n: B_n}, 0 <= n < N,
    and b = {n: b_n} for 1 <= n <= N at least."""
    for n in range(len(B) - 1):
        _check_zero(report, f"B2 n={n}", module, "B.B", n + 2,
                    (B[n], B[n + 1]))
    for n in range(len(B)):
        products = [(B[n], b[n + 1])] + ([(b[n], B[n - 1])] if n >= 1 else [])
        _check_zero(report, f"bB+Bb n={n}", module, "bB+Bb", n, *products)
