"""Exact sparse linear algebra over Q and Q(zeta_m).

A SparseMatrix is stored as its columns, ``cols``: a list of dicts, row ->
nonzero scalar.  ``from_columns`` keeps the dicts it is given, so a
producer hands over fresh dicts of its own, never a cache's, and a built
matrix is not changed.  ``entries`` is a read-only (row, col) view made on
demand for tests and the benchmark's tracer; no package code reads it.

Every matrix product goes through one kernel, combine: a matrix's columns
times a sparse vector.  The product @, apply, first_nonzero_column (the
mixed-complex gate) and the cohomology code's B assembly and lambda images
are all built on it.  Rank and kernel share one exact sparse Gaussian
elimination on the rows, _echelon.  The kernel basis is read off the
reduced row echelon form, which is unique, so it does not depend on the
order in which the elimination finds its pivots.

Entries are scalars in the canonical form of ``fields``, so the cohomology
matrices of an integral presentation are all ``int``.  The only division
is ``scalar_inv`` of a pivot, and ``_echelon`` defers a row that does not
lead with 1 or -1 until the other rows are in, so integral rows stay
integral as long as they can.  ``rank`` sorts the rows by leading column
and length (a static Markowitz order), which cuts fill-in and leaves the
rank unchanged.  ``kernel_basis`` keeps the given order and pivots on the
lowest column, so its vectors are those of the reduced row echelon form.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType

from .fields import scalar_inv
from .hopf import vec_add_into
from .reports import first_failure


class SparseMatrix:
    """Sparse matrix stored as its columns: ``cols[c]`` maps row -> nonzero
    scalar.  Immutable by convention once built."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, entries=None):
        """From a (row, col) -> scalar dict; zeros are dropped."""
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows, self.ncols = nrows, ncols
        self.cols = [{} for _ in range(ncols)]
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) out of bounds")
            if v:
                self.cols[c][r] = v

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_columns(cls, cols, nrows):
        """From sparse columns (dicts row -> scalar) in any iterable.  The
        matrix keeps the dicts; one that holds a zero is copied without it."""
        matrix = cls(nrows, 0)
        matrix.cols = cols = list(cols)
        matrix.ncols = len(cols)
        if (min(chain.from_iterable(cols), default=0) < 0
                or max(chain.from_iterable(cols), default=-1) >= nrows):
            raise ValueError(f"a row out of bounds in a {nrows}-row matrix")
        if not all(chain.from_iterable(map(dict.values, cols))):
            matrix.cols = [col if all(col.values()) else
                           {r: v for r, v in col.items() if v} for col in cols]
        return matrix

    @property
    def entries(self):
        """Read-only (row, col) -> scalar view of the nonzero entries."""
        return MappingProxyType({(r, c): v for c, col in enumerate(self.cols)
                                 for r, v in col.items()})

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def __repr__(self):
        nnz = sum(map(len, self.cols))
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={nnz})"

    def transpose(self):
        return SparseMatrix.from_columns(self.row_dicts(), self.ncols)

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][c] = v
        return rows

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        return SparseMatrix.from_columns(
            (combine(self.cols, col) for col in other.cols), self.nrows)

    def apply(self, vec):
        """Apply to a sparse vector (dict col -> scalar); returns dict row -> scalar."""
        return combine(self.cols, vec)

    def rank(self):
        """Rank.  Rows are eliminated in a static order, by leading column
        and, among rows that share it, shortest first, so each pivot comes
        from the sparsest candidate row (Markowitz's row count)."""
        rows = [row for row in self.row_dicts() if row]
        rows.sort(key=lambda row: (min(row), len(row)))
        return len(_echelon(rows))

    def kernel_basis(self):
        """Exact basis of the right kernel, as sparse column dicts: one
        vector per free column of the reduced row echelon form, which is 1
        at that column."""
        pivots = _echelon(self.row_dicts(), reduced=True)
        basis = {free: {free: 1} for free in range(self.ncols)
                 if free not in pivots}
        for col in sorted(pivots):
            for free, v in pivots[col].items():
                basis[free][col] = -v
        return list(basis.values())


def combine(cols, vec, c=1):
    """c * sum_j vec[j] cols[j]: the matrix whose columns are the sparse
    dicts cols, times the sparse vector vec (dict col -> scalar)."""
    out = {}
    for j, x in vec.items():
        vec_add_into(out, cols[j], x if c == 1 else c * x)
    return out


def first_nonzero_column(*products):
    """The first column of the sum of left @ right over the (left, right)
    pairs that is not zero, or None when the sum is zero.  The sum is formed
    exactly, one column at a time, and never stored."""
    nrows, ncols = products[0][0].nrows, products[0][1].ncols
    if any(left.ncols != right.nrows or left.nrows != nrows
           or right.ncols != ncols for left, right in products):
        raise ValueError("shape mismatch in product")

    def vanishes(j):
        out = {}
        for left, right in products:
            vec_add_into(out, combine(left.cols, right.cols[j]))
        return not out

    return first_failure(range(ncols), vanishes)[1]


def _echelon(rows, reduced=False):
    """Row echelon form of sparse rows (dicts col -> scalar), consumed in place.

    Returns {pivot column: rest of its row}, the row scaled so that its
    pivot, which is its lowest column and is not stored, is 1.  Each row in
    turn is reduced against the pivot rows found so far; what is left of it
    becomes a new pivot row.  A row left with a leading entry other than 1
    or -1 is set aside and reduced again after all the others: by then it
    often leads with a unit or vanishes, and a unit pivot keeps integral
    rows integral where a pivot of 2 would put Fractions into every row
    reduced against it.  The pivot columns, and so the rank, do not depend
    on the order.  With reduced=True, back-substitution also clears every
    pivot column from the other rows, giving the reduced row echelon form,
    which the row space alone determines.
    """
    pivots, deferred = {}, []
    for row in rows:
        _insert(row, pivots, deferred)
    for row in deferred:
        _insert(row, pivots, None)
    if reduced:
        # descending, so each pivot row used below is already fully reduced
        for col in sorted(pivots, reverse=True):
            tail = pivots[col]
            for other in [c for c in tail if c in pivots]:
                _subtract(tail, tail.pop(other), pivots[other])
    return pivots


def _insert(row, pivots, deferred):
    """Reduce row against the pivot rows; store what is left as a new pivot
    row, or append it to deferred (unless that is None) when its leading
    entry is not 1 or -1."""
    while row:
        col = min(row)
        tail = pivots.get(col)
        if tail is None:
            lead = row[col]
            if deferred is not None and lead != 1 and lead != -1:
                deferred.append(row)
                return
            inv = scalar_inv(row.pop(col))
            pivots[col] = {c: v * inv for c, v in row.items()}
            return
        _subtract(row, row.pop(col), tail)


def _subtract(row, factor, tail):
    """row -= factor * tail, dropping entries that cancel."""
    for c, v in tail.items():
        w = row.get(c, 0) - factor * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)
