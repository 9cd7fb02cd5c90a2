"""Hochschild and cyclic cohomology of the cyclic module of a Hopf algebra.

The differentials follow the standard mixed-complex conventions:
b is the alternating sum of faces, lambda_n = (-1)^n tau_n, the norm is
N = sum of powers of lambda, the extra degeneracy is s = sigma_n tau_{n+1},
and B = N s (1 - lambda).

Two forms of each operator are kept.  The elementwise ones (hochschild_b,
B_operator, ...) act on single tensors; they serve symbolic modules and are
the oracle the tests compare the matrices with.  On a finite module every
matrix is built and read as its columns (``SparseMatrix.cols``) from the
module's recursions on the degree: b_matrix is the cobar recursion,
one_minus_lambda_matrix and B_matrix from the columns of tau_n alone, and
the total bicomplex matrix stacks the columns of b and B.  from_columns
keeps the dicts it is given, so each hands over fresh dicts, never a
cache's.

HH and the (b, B) method run on the normalized complex N^n =
(ker eps)^(x)n = meet of the ker sigma_i (``NormalizedModule``), a
sub-mixed complex with the same HH and HC as the whole module (Loday,
Cyclic Homology, 2.1 and 2.5).  In the rebased basis f_p = 1, f_i =
e_i - eps(e_i) 1 it is spanned by the basis tuples with no index p, so
N^n has (d-1)^n of the d^n basis tuples, and its b (inside N by the
counit axiom) and B are formed on those columns only.  As s lambda =
(-1)^(n+1) sigma_n tau_(n+1)^2 = (-1)^(n+1) tau_n sigma_0 by the relation
ts0, B = N (s + (-1)^n tau_n sigma_0), and sigma_0 vanishes on N, so the
same B_matrix gives B = N s there.  B sends N into N; an entry outside N
is never dropped but fails the gate (see ``_zero_witness``), so every
report checks that closure.

cohomology_report takes the character delta alone (H is delta.hopf),
builds each b_n and B_n once and passes the same matrices to the
mixed-complex checks and to every dimension function.  The dimension
functions take only matrices and read each size off their shapes, so any
complex of matrices serves them; the lambda stage takes 1 - lambda_n,
b'_n and the lifts Y_(n+1) from a generator, one degree at a time.  The
checks form each product exactly, one column at a time, and stop at the
first column that is not zero; no product matrix is stored.  Under every
method the report builds the normalized b_1..b_(N+1), which gives HH, and
under 'lambda' and 'both' the full b_1..b_N, whose b'_n and 1 - lambda_n
for n < N give HC(lambda); it checks b^2 = 0 on both.  The full b_(N+1),
larger than any other matrix, is never built, and the full b_N serves
b^2 = 0 alone.
After HH and HC(lambda) it keeps only the normalized b_1..b_N, builds B,
checks B^2 = 0 and bB + Bb = 0 on them and computes the bicomplex
dimensions from those same matrices.  No rank is computed after a failed
check: the report still runs every check, then raises
NotMixedComplexError rather than return a table for a complex that fails
an identity.

HC(lambda) is read one degree down (Loday, Cyclic Homology, 2.1.1 and
1.1.12).  For A_n = 1 - lambda_n and Z^n = ker b_(n+1) of the full
complex, the rank of b_(n+1) on ker A_n is rank b_(n+1) + rank(A_n on
Z^n) - rank A_n.  The inclusion iota of the normalized complex, f_i ->
e_i - eps(e_i) 1, is a quasi-isomorphism (Loday, 2.1), so Z^n is im b_n
plus iota of HH^n representatives of the normalized complex
(``hochschild_representatives``): kernel vectors of the normalized
b_(n+1) on a complement of its im b_n.  Each is checked as a cocycle of
the full module with the elementwise hochschild_b, in place of the
b_(N+1) b_N = 0 check that would need b_(N+1).  For S_n = [b_n | Z_n],
rank(A_n on Z^n) = rank(A_n S_n) =: rho_n and dim Z^n = rank b_n + HH^n,
so every size and rank of b cancels from HC^n = HH^n - rho_n + rank
A_(n-1) - rho_(n-1).  With b'_n = sum_(i<n) (-1)^i face_i = b_n - (-1)^n
(. (x) 1), the columns of A_n S_n are A_n b_n = b'_n A_(n-1) and A_n Z_n
= b'_n Y_n, where Y_n = s Z_n + (-1)^(n+1) sigma_(n-1) Z_n comes from
tau_(n-1), and b' is exact, so rho_n = rank [A_(n-1) | Y_n | b'_(n-1)] -
rank b'_(n-1) (``lambda_complex_dimensions``).  One pass over the
degrees (``_lambda_stages``) reads A_m and Y_(m+1) off one tau_m.  So
1 - lambda_n is built for n < N only: no tau_N, no 1 - lambda_N and no
matrix with d^N rows enters the lambda stage.  After b^2 = 0, the report
checks A_m b_m = b'_m A_(m-1) for 1 <= m < N on the whole matrices,
column by column, as each A_m is built; a column where the two differ
adds the failed check 'lambda-b n=m' with that column's tuple as the
witness and raises NotMixedComplexError, and a passing gate gains no
line.

Only the phi_delta-invariant cochains are ranked.  delta is a group-like of
H*, and conjugation by it, phi_delta(h) = delta(h_(1)) h_(2) delta(S
h_(3)), is a Hopf automorphism of finite order with delta o phi_delta =
delta, so acting factorwise it commutes with every face, degeneracy and
tau, and so with b, 1 - lambda and B.  When phi_delta is diagonal in the
basis, phi_delta(e_k) = c_k e_k (``hopf.coinner_eigenvalues``, which
checks delta(c_k e_k) = delta(e_k) and that each c_k is a root of unity,
exactly), every complex splits into the spans of the basis tuples with
one product of the c_k each.  As an inner automorphism of H*, phi_delta
is the identity on HH = Ext_(H*)(k, k), and through SBI on HC; on a
summand where it is c != 1 it is thus both c and 1 on the cohomology,
which vanishes.  So after the gate has passed on the whole matrices, the
report replaces each full b'_n and 1 - lambda_n and each normalized b_n
and B_n by its restriction to the tuples of product 1 on both sides
(``TensorBasis.invariant_part``), which frees the whole matrix, and takes
HH and the representatives from the restricted normalized b; their
images under iota, dicts on the whole full basis, and the lifts Y_n lie
on the kept tuples too.  An entry of a kept column at a dropped row is
never dropped: the report adds the failed check 'phi-invariant ...' with
that column's tuple as the witness and raises NotMixedComplexError at
once.  Where every c_k is 1 or phi_delta is not diagonal (every group
algebra, abelian k^G, every counit), nothing is restricted or copied.

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
from itertools import chain

from .cyclic_ops import HopfCyclicModule, NormalizedModule, on_rows
from .hopf import check_involution, vec_add_into, vec_scale, vec_sub
from .linalg import SparseMatrix, combine, first_nonzero_column, stacked_ranks
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
    """b_n = sum_i (-1)^i face_i, from degree n-1 to degree n, by the
    module's cobar recursion (``TensorBasis.cobar_matrix``)."""
    return module.cobar_matrix(n)


def B_matrix(module, n):
    """B_n = N_n s (1 - lambda_(n+1)), s = sigma_n tau_(n+1), from degree
    n+1 to n, from the columns of tau_n alone.

    By the relation ts0, s lambda_(n+1) = (-1)^(n+1) tau_n sigma_0, so
    column J = k d^n + x of B is N_n applied to s e_J + (-1)^n eps(e_k)
    tau_n e_x, with s from tau_n (``extra_degeneracy_columns``) and N_n =
    1 + lambda_n + ... + lambda_n^n applied through the columns of tau_n.
    On a NormalizedModule this runs on the columns of N in the rebased
    module, where eps(f_k) = 0 leaves N_n s, and ``restricted`` takes the
    result to the rows of N.  Columns are produced one at a time.
    """
    full, sources = module.full, module.full_index(n + 1)
    tau = full.cyclic_matrix(n)
    s_cols = full.extra_degeneracy_columns(tau, sources)
    counit = [full.hopf.counit_basis(k) for k in range(full.base)]
    sign = 1 if n % 2 == 0 else -1

    def columns():
        for j, out in zip(sources, s_cols):
            k, x = divmod(j, tau.ncols)
            vec = vec_add_into(out, tau.cols[x], sign * counit[k])
            for _ in range(n):
                vec = combine(tau.cols, vec, sign)
                vec_add_into(out, vec)
            yield out

    return module.restricted(columns(), n + 1, n)


def one_minus_lambda_matrix(tau, n):
    """1 - lambda_n = 1 - (-1)^n tau_n, from tau, the matrix of tau_n."""
    sign = -1 if n % 2 == 0 else 1
    return SparseMatrix.from_columns(
        (vec_add_into({j: 1}, col, sign) for j, col in enumerate(tau.cols)),
        tau.nrows)


def b_prime_matrix(module, b, n):
    """b'_n = sum_(i<n) (-1)^i face_i, from degree n-1 to degree n, from
    the matrix b of b_n: face_n appends the unit, so column x of b'_n is
    column x of b_n minus (-1)^n x (x) 1.  Fresh dicts, b is only read."""
    d = module.base
    unit = module.hopf.unit_element().items()
    sign = 1 if n % 2 else -1
    return SparseMatrix.from_columns(
        (vec_add_into(dict(col), {x * d + u: c for u, c in unit}, sign)
         for x, col in enumerate(b.cols)), b.nrows)


def require_involution(delta):
    ok, witness = check_involution(delta)
    if not ok:
        raise NotCyclicError(
            f"twisted antipode is not an involution on {delta.hopf.name} "
            f"(witness basis element {witness!r}); refusing the cyclic "
            f"operator machinery")


# ---------------------------------------------------------------------------
# dimension computations


class ComplexReport:
    """Per-degree dimension table for one algebra/character pair: each
    printed column by degree, None where not computed, and the flags."""

    def __init__(self, name, character, max_degree, method, columns, flags):
        self.name = name
        self.character = character
        self.max_degree = max_degree
        self.method = method
        self.columns = columns
        self.flags = flags

    def render(self):
        lines = [
            "report: cohomology",
            f"algebra: {self.name}",
            f"character: {self.character}",
            f"max-degree: {self.max_degree}",
            f"method: {self.method}",
            "columns: degree dim rank_b HH HC(lambda) HC(bB) flag",
        ]
        for n, flag in enumerate(self.flags):
            cells = " ".join(f"{key}={'-' if col[n] is None else col[n]}"
                             for key, col in self.columns.items())
            lines.append(f"degree {n}: {cells}"
                         f"{' flag=boundary-unreliable' if flag else ''}")
        stab = self.stabilization()
        if stab is not None:
            lines.append(f"stabilization: {stab}")
        return "\n".join(lines)

    def negative_entries(self):
        """Computed dimensions that are negative, as 'COLUMN=value at degree
        n'; a dimension never is, so any entry here is a defect."""
        return [f"{key}={self.columns[key][n]} at degree {n}"
                for n in range(len(self.flags))
                for key in ("HH", "HC_lambda", "HC_bB")
                if (self.columns[key][n] or 0) < 0]

    def methods_agree(self):
        """True when the two HC columns coincide on all unflagged degrees."""
        return all(a is None or b is None or a == b or flag
                   for a, b, flag in zip(self.columns["HC_lambda"],
                                         self.columns["HC_bB"], self.flags))

    def stabilization(self):
        """Compare HC^n with HC^(n+2) wherever both are printed, the flagged
        degree N-1 of HC(bB) included; observational only (the periodicity
        map itself is not implemented)."""
        dims = [a if a is not None else b for a, b
                in zip(self.columns["HC_lambda"], self.columns["HC_bB"])]
        pairs = [f"HC^{n}{'=' if dims[n] == dims[n + 2] else '!='}HC^{n + 2}"
                 for n in range(len(dims) - 2)
                 if dims[n] is not None and dims[n + 2] is not None]
        return " ".join(pairs) if pairs else None


def _homology_dims(sizes, ranks):
    """dim ker d_n - dim im d_(n-1) = size_n - rank d_n - rank d_(n-1)."""
    return [size - ranks[n] - (ranks[n - 1] if n else 0)
            for n, size in enumerate(sizes)]


def hochschild_dimensions(b):
    """HH^n = ker(b: C^n -> C^n+1) / im(b: C^n-1 -> C^n) for n <= N, given
    b = {n: b_n} for 1 <= n <= N+1, dim C^n the columns of b_(n+1)."""
    ranks = [b[n + 1].rank() for n in range(len(b))]
    sizes = [b[n + 1].ncols for n in range(len(b))]
    return _homology_dims(sizes, ranks), ranks


def lambda_complex_dimensions(hh0, stages):
    """HC^n from the lambda-invariant subcomplex with differential b, for
    n <= N, given hh0 = HH^0 and stages, which yields (A_m, b'_m, Y_(m+1))
    for m = 0..N-1 in order, A_m = 1 - lambda_m, b'_m = sum_(i<m) (-1)^i
    face_i (b'_0, from C^-1 = 0, has no column).  Y_n has a column Y z =
    (-1)^(n+1) h A_n z for each HH^n representative z, so HH^n =
    Y_n.ncols, h = sigma_(n-1) the counit on the last factor.

    rho_n = rank(A_n S_n), S_n = [b_n | Z_n] as in the module docstring,
    is read at degree n-1.  h is a contracting homotopy of b': h b'_(m+1)
    - b'_m h = (-1)^m id, so as b'_(n+1) A_n z = A_(n+1) b_(n+1) z = 0,
    A_n z = b'_n Y z, and with A_n b_n = b'_n A_(n-1) the columns of A_n S_n
    are b'_n [A_(n-1) | Y_n].  b' is exact, so rank(b'_n M) = rank [M |
    b'_(n-1)] - rank b'_(n-1), and rank b'_m = dim C^(m-1) - rank b'_(m-1)
    needs no elimination.  One ``stacked_ranks`` of the columns per
    degree gives rank A_(n-1) (its first block) and the stacked rank, so
    HC^n = HH^n - rho_n + rank A_(n-1) - rho_(n-1), with rho_0 = 0 as A_0 =
    0.  No A_N and no matrix on the rows of degree N is read.

    The homotopy holds at every degree exactly when (id (x) eps)D(e_s) =
    -eps(e_s) 1 for every s and eps(1) = 1, D the cobar table: b is the
    cobar recursion b_(m+1)(x (x) e_s) = b_m(x) (x) e_s + (-1)^m x (x)
    D(e_s), so h b_(m+1)(x (x) e_s) = eps(e_s) b'_m(x), while h b'_(m+1)
    = h b_(m+1) + (-1)^m id and b'_m h (x (x) e_s) = eps(e_s) b'_m(x); at
    m = 0, h b'_1 = eps(1).  In the rebased basis f, (id (x) eps)D(f_s) =
    0 = -eps(f_s) 1 for s != p says D(f_s) has no factor f_p, which
    ``NormalizedModule``, built first by every report, checks in its
    ``cobar_table`` (it refuses a broken counit); at f_p = 1 it is the
    counit axiom at 1 with eps(1) = 1, which ``hopf.rebased`` presumes and
    ``check_hopf_axioms`` checks.  h and b' keep the phi_delta labels, so
    the homotopy, and the closed form of rank b', hold on the kept tuples.
    Each A_m is taken from stages one degree at a time, so a generator
    bounds peak memory."""
    dims = [hh0]
    rho = rank_b_prime = 0
    for A, b_prime, Y in stages:
        rank_b_prime = b_prime.ncols - rank_b_prime  # of b'_(n-1)
        rank_A, stacked = stacked_ranks([
            A.transpose(), SparseMatrix.from_columns(
                chain(Y.cols, b_prime.cols), A.nrows).transpose()])
        del A  # not held while the next one is built
        below, rho = rank_A - rho, stacked - rank_b_prime
        dims.append(Y.ncols - rho + below)
    return dims


def hochschild_representatives(gate, full, norm, b, n, count):
    """iota of count = HH^n representatives of the normalized complex, as
    dicts on the full module's basis indices, b = {n: b_n} (1 <= n <= N+1)
    being the normalized b on its kept tuples.  An elimination of the
    columns of b_n (``stacked_ranks``) leads at one coordinate per
    dimension of im b_n; the other coordinates span a complement W of im
    b_n, so ker b_(n+1) = im b_n + (ker b_(n+1) meet W), and the kernel
    vectors of b_(n+1) on the columns of W are cocycles independent modulo
    im b_n, exactly HH^n of them.  ``norm.inclusion``
    takes each to the full module, where the elementwise hochschild_b
    checks that it is a cocycle.  A count other than HH^n, a
    representative that is not a cocycle or one with an entry outside the
    tuples ``full.invariant_index`` keeps adds a failed check to gate,
    with the lowest tuple of N in the representative as the witness, and
    raises NotMixedComplexError."""
    image = {}
    if n:
        stacked_ranks([b[n].transpose()], image)
    free = [j for j in range(b[n + 1].ncols) if j not in image]
    # b_(n+1) on the columns of W shares their dicts, which no one writes
    reps = [{free[j]: v for j, v in z.items()} for z in
            SparseMatrix.from_columns([b[n + 1].cols[j] for j in free],
                                      b[n + 1].nrows).kernel_basis()]
    if len(reps) != count:
        _refuse(gate, f"HH representatives n={n}",
                ("found", [len(reps), count]))
    kept = norm.invariant_index(n)

    def key_of(j):  # the tuple of N at kept column j
        return norm.key_of_index(j if kept is None else kept[j], n)

    cols = []
    for z in reps:
        tensor = norm.inclusion({key_of(j): v for j, v in z.items()})
        if hochschild_b(full, n + 1, tensor):
            _refuse(gate, f"b.iota n={n}", ("b.iota", [key_of(min(z))]))
        cols.append({full.key_index(key): v for key, v in tensor.items()})
    rows = full.invariant_index(n)
    if rows is not None:
        rows = set(rows)
        for z, col in zip(reps, cols):
            if not rows.issuperset(col):
                _refuse(gate, f"phi-invariant iota n={n}",
                        ("outside phi = 1", [key_of(min(z))]))
    return cols


def bicomplex_dimensions(b, B):
    """HC^n from the total complex of the (b, B)-bicomplex truncated at
    column degree N, given b = {n: b_n} for 1 <= n <= N and B = {n: B_n}
    for 0 <= n < N.  Returns (dims, flags): dims[n] is None when the
    truncation cannot determine it; flags marks the top two degrees."""
    N_max = len(B)

    def space_dim(m):  # the columns of b_(m+1), at the top the rows of b_N
        return b[m + 1].ncols if m < N_max else b[N_max].nrows

    def offsets(n):
        """Row or column offset of each block C^m (m = n, n-2, ...) in the
        total space T^n, and the dimension of T^n."""
        off, size = {}, 0
        for m in range(n, -1, -2):
            off[m] = size
            size += space_dim(m)
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
                     for j in range(space_dim(m)))
        return SparseMatrix.from_columns(cols, nrows)

    ranks = [total_matrix(n).rank() for n in range(N_max)]
    sizes = [offsets(n)[1] for n in range(N_max)]
    dims = _homology_dims(sizes, ranks) + [None]
    flags = [n >= N_max - 1 for n in range(N_max + 1)]
    return dims, flags


def cohomology_report(delta, N_max, method="both"):
    """Full dimension table.  method: 'lambda', 'bB' or 'both'.

    Raises NotMixedComplexError, carrying the failed 'mixed-complex'
    report, instead of returning the table of a complex that fails an
    identity.  The module docstring gives the order matrices are built in.
    """
    if method not in ("lambda", "bB", "both"):
        raise ValueError(f"unknown method {method!r}; expected 'lambda', "
                         f"'bB' or 'both'")
    require_involution(delta)
    gate = CheckReport("mixed-complex", meta={"max-degree": N_max})
    dims = [delta.hopf.dim ** n for n in range(N_max + 1)]
    hc_lambda = hc_bB = [None] * (N_max + 1)
    flags = [False] * (N_max + 1)
    norm = NormalizedModule(delta)
    b = {n: b_matrix(norm, n) for n in range(1, N_max + 2)}
    complexes = [(norm, b)]
    if method != "bB":
        full = HopfCyclicModule(delta)
        full_b = {n: b_matrix(full, n) for n in range(1, N_max + 1)}
        complexes.insert(0, (full, full_b))  # its b^2 witness comes first
    check_b_square(gate, *complexes)
    del complexes
    if gate.ok:  # no rank of a complex whose b^2 is not 0
        norm_b = {n: _invariant(gate, norm, "b", matrix, n - 1, n)
                  for n, matrix in b.items()}
        del b[N_max + 1]  # the B checks read the whole b_1..b_N only
        if method == "lambda":
            del b
        hh = hochschild_dimensions(norm_b)[0]
        b_ranks = [0]  # rank b_(n+1) = dim C^n - HH^n - rank b_n
        for dim, h in zip(dims, hh):
            b_ranks.append(dim - h - b_ranks[-1])
        if method != "bB":
            full_b.pop(N_max, None)  # the top b serves b^2 = 0 alone
            hc_lambda = lambda_complex_dimensions(hh[0], _lambda_stages(
                gate, full, norm, norm_b, hh, full_b))
            del full_b
        del norm_b[N_max + 1]  # only HH and the representatives read it
    if method != "lambda":
        B = {n: B_matrix(norm, n) for n in range(N_max)}
        check_B_relations(gate, norm, b, B)
        if gate.ok:
            del b
            for n in B:
                B[n] = _invariant(gate, norm, "B", B[n], n + 1, n)
            hc_bB, flags = bicomplex_dimensions(norm_b, B)
    if not gate.ok:
        raise NotMixedComplexError(gate)
    return ComplexReport(delta.hopf.name, delta.name, N_max, method, {
        "dim": dims, "rank_b": b_ranks[:N_max + 1], "HH": hh,
        "HC_lambda": hc_lambda, "HC_bB": hc_bB}, flags)


def _lambda_stages(gate, full, norm, norm_b, hh, b):
    """(A_m, b'_m, Y_(m+1)) for m = 0..N-1 on the kept tuples, A_m = 1 -
    lambda_m, from the normalized b on its kept tuples and its HH, which
    give the representatives (``hochschild_representatives``; those of
    HH^0, lifted to no row, first), and b = {m: b_m}, the whole full
    b_1..b_(N-1), which it empties.  tau_m is built once, A_m and Y_(m+1)
    (``_lifts``) are read off it, and it is dropped before b'_m is built.
    Before A_m and b'_m are restricted, A_m b_m = b'_m A_(m-1) is checked
    on the whole matrices, column by column; the first column where the
    two sides differ refuses the report with the check 'lambda-b n=m' and
    that column's tuple as the witness.  Only the whole A_(m-1) is held
    from one degree to the next, and not past the top degree."""
    hochschild_representatives(gate, full, norm, norm_b, 0, hh[0])
    previous = None
    for m in range(len(hh) - 1):
        reps = hochschild_representatives(gate, full, norm, norm_b, m + 1,
                                          hh[m + 1])
        tau = full.cyclic_matrix(m)
        A = one_minus_lambda_matrix(tau, m)
        Y = _lifts(gate, full, tau, reps, m)
        del tau  # not held while b'_m is built
        if m:
            b_m = b.pop(m)
            b_prime = b_prime_matrix(full, b_m, m)
            for x, col in enumerate(b_m.cols):
                if combine(A.cols, col) != combine(b_prime.cols,
                                                   previous.cols[x]):
                    _refuse(gate, f"lambda-b n={m}",
                            ("lambda-b", [full.key_of_index(x, m - 1)]))
            del b_m
            b_prime = _invariant(gate, full, "b'", b_prime, m - 1, m)
        else:
            b_prime = SparseMatrix(1, 0)
        # the whole A_m serves the check at m+1 alone: the top one is dropped
        previous = A if m + 2 < len(hh) else None
        A = _invariant(gate, full, "1-lambda", A, m, m)
        yield A, b_prime, Y
        del A  # not held while the next one is built


def _lifts(gate, full, tau, reps, m):
    """Y_(m+1) = s Z + (-1)^m sigma_m Z on the kept tuples of degree m,
    for the representatives Z = reps of degree m+1, given tau = tau_m: s
    = sigma_m tau_(m+1) comes off tau_m (``extra_degeneracy_columns``) and
    sigma_m e_(x, t) = eps(e_t) e_x.  An entry outside the kept tuples
    refuses with 'phi-invariant lift n=m+1', witness the lowest tuple of
    the representative."""
    d = full.base
    counit = [full.hopf.counit_basis(t) for t in range(d)]
    sign = 1 if m % 2 == 0 else -1
    cols = []
    for z in reps:
        sources = sorted(z)
        col = {}
        for J, image in zip(sources, full.extra_degeneracy_columns(
                tau, sources)):
            vec_add_into(image, {J // d: sign * counit[J % d]})
            vec_add_into(col, image, z[J])
        cols.append(col)
    rows = full.invariant_index(m)
    if rows is None:
        return SparseMatrix.from_columns(cols, tau.nrows)
    Y = on_rows(cols, rows, lambda i: full.key_of_index(min(reps[i]), m + 1))
    if Y.outside is not None:
        _refuse(gate, f"phi-invariant lift n={m + 1}",
                ("outside phi = 1", [Y.outside]))
    return Y


def _invariant(gate, module, name, matrix, src, tgt):
    """``module.invariant_part`` of matrix, from degree src to degree tgt.
    A kept column with an entry at a dropped row refuses the report with
    the check 'phi-invariant NAME n=SRC' and that column's basis tuple as
    the witness: no entry is dropped."""
    part = module.invariant_part(matrix, src, tgt)
    if part is not matrix and part.outside is not None:
        _refuse(gate, f"phi-invariant {name} n={src}",
                ("outside phi = 1", [part.outside]))
    return part


def _refuse(gate, check, witness):
    """Add the failed check with its witness to gate and raise
    NotMixedComplexError."""
    gate.add(check, False, witness)
    raise NotMixedComplexError(gate)


def mixed_complex_report(module, N_max, samples=None):
    """b^2 = 0, B^2 = 0 and bB + Bb = 0 on all basis tensors, degrees <= N_max.

    On a finite module these are products of b_1..b_(N+2) and B_0..B_(N-1),
    formed column by column by the checks cohomology_report runs.  With
    ``samples`` (a map degree -> list of tensors) they are checked
    elementwise on those tensors, which is how symbolic modules are
    checked.
    """
    report = CheckReport("mixed-complex", meta={"max-degree": N_max})
    if samples is None:
        b = {n: b_matrix(module, n) for n in range(1, N_max + 3)}
        check_b_square(report, (module, b))
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


def _zero_witness(module, name, degree, *products):
    """None when the sum of left @ right over the (left, right) pairs is
    zero, else the witness (name, [the basis tuple of degree that indexes
    the first nonzero column]).  On the normalized complex the products are
    formed on the rows of N only, so a factor with a column that has an
    entry outside N gives the witness ('outside N', [that column's tuple])
    first."""
    outside = [m.outside for pair in products for m in pair
               if getattr(m, "outside", None) is not None]
    if outside:
        return "outside N", outside[:1]
    j = first_nonzero_column(*products)
    return None if j is None else (name, [module.key_of_index(j, degree)])


def _check_zero(report, check, *args):
    witness = _zero_witness(*args)
    report.add(check, witness is None, witness)


def check_b_square(report, *complexes):
    """Add 'b2 n=...' checks of b_(n+2) b_(n+1) = 0 to report, one line for
    each n, over the (module, b = {n: b_n}, 1 <= n <= top) in complexes
    whose b reaches b_(n+2); the first complex to fail gives the witness."""
    for n in range(max(len(b) for _, b in complexes) - 1):
        witness = next(filter(None, (
            _zero_witness(module, "b.b", n, (b[n + 2], b[n + 1]))
            for module, b in complexes if n + 2 in b)), None)
        report.add(f"b2 n={n}", witness is None, witness)


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
