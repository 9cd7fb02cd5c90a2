"""Exact sparse linear algebra over Q and Q(zeta_m).

Matrices store only nonzero entries.  Every matrix product goes through
one kernel, combine: a matrix given by its sparse columns times a sparse
vector.  The product @, apply, first_nonzero_column (the mixed-complex
gate) and the cohomology code's B assembly and lambda images are all built
on it.  Rank and kernel share one exact sparse Gaussian elimination,
_echelon.  The kernel basis is read off the reduced row echelon form, which
is unique, so it does not depend on the order in which the elimination
finds its pivots.

Entries are scalars in the canonical form of ``fields``, so the cohomology
matrices of an integral presentation are all ``int``.  The only division
is ``scalar_inv`` of a pivot, whose inverse is an ``int`` when the pivot is
1 or -1, so a row stays integral until a pivot other than a unit is met,
and ``_echelon`` sets aside a row whose leading entry is not a unit until
the other rows are in.  ``rank`` sorts the rows by leading column
and length first (a static Markowitz row order), which cuts fill-in; the
rank does not depend on the order.  ``kernel_basis`` keeps the rows and
columns in their given order, and the pivot is always the lowest column,
so its vectors are those of the reduced row echelon form in the given
column order.
"""

from __future__ import annotations

from .fields import scalar_inv
from .hopf import vec_add_into
from .reports import first_failure


class SparseMatrix:
    """Immutable-by-convention sparse matrix: map (row, col) -> nonzero scalar."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ValueError(f"entry ({r},{c}) out of bounds")
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_columns(cls, cols, nrows):
        """Build from sparse column dicts (row -> scalar), taken one at a time
        from a list or any other iterable, such as a generator."""
        entries = {}
        ncols = 0
        for c, col in enumerate(cols):
            ncols = c + 1
            for r, v in col.items():
                if not 0 <= r < nrows:
                    raise ValueError(f"entry ({r},{c}) out of bounds")
                if v:
                    entries[(r, c)] = v
        matrix = cls(nrows, ncols)
        matrix.entries = entries
        return matrix

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows,
                            {(c, r): v for (r, c), v in self.entries.items()})

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def column_dicts(self):
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols = self.column_dicts()
        return SparseMatrix.from_columns(
            (combine(cols, col) for col in other.column_dicts()), self.nrows)

    def apply(self, vec):
        """Apply to a sparse vector (dict col -> scalar); returns dict row -> scalar."""
        return combine(self.column_dicts(), vec)

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
    pairs = [(left.column_dicts(), right.column_dicts())
             for left, right in products]

    def vanishes(j):
        out = {}
        for left, right in pairs:
            vec_add_into(out, combine(left, right[j]))
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
