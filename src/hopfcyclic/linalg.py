"""Exact sparse linear algebra over Q and Q(zeta_m).

A SparseMatrix is stored as its columns, ``cols``: a list of dicts, row ->
nonzero scalar.  ``from_columns`` keeps the dicts it is given, so a
producer hands over fresh dicts of its own, never a cache's, and a built
matrix is not changed.  ``entries`` is a read-only (row, col) view made on
demand for tests and the benchmark's tracer; no package code reads it.

Every matrix product goes through one kernel, combine: a matrix's columns
times a sparse vector.  The product @, first_nonzero_column (the
mixed-complex gate), the cohomology code's B assembly and its check of
(1 - lambda) b = b' (1 - lambda) are all built on it.  combine
accumulates into one dict in its own loop, with no helper call per
column; it tests each vector entry once for the coefficient 1, whose
column it adds without multiplying, since on ``Cyclotomic`` scalars that
test is a method call.

One exact sparse Gaussian elimination, _echelon, serves both
orientations.  stacked_ranks feeds it the columns of [M_1 | M_2 | ...] as
``cohomology``'s HH and HC(lambda) stages build them, copying each only as
it is taken, so no matrix is changed or copied whole; rank (the total
complex alone) and kernel_basis feed it the rows, ``row_dicts``.  No
matrix is transposed.  The kernel basis is read off the reduced row
echelon form, which is unique, so it does not depend on the order in
which the elimination finds its pivots.

Entries are scalars in the canonical form of ``fields``, so the cohomology
matrices of an integral presentation are all ``int``.  The only division
is ``scalar_inv`` of a pivot that leads with neither 1 nor -1 (a vector
leading with 1 is kept as it is, one leading with -1 is negated), and
``_echelon`` defers such a vector until the others are in, so integral
vectors stay integral as long as they can.  stacked_ranks and rank take
each matrix's vectors by lowest index and then fewest entries (a static
Markowitz order), which cuts fill-in and leaves the rank unchanged.
``kernel_basis`` keeps the given order and pivots on the lowest column, so
its vectors are those of the reduced row echelon form.
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

    def rank(self):
        """Rank, by eliminating the rows in the order of stacked_ranks."""
        return len(_echelon(_markowitz(self.row_dicts()), {}))

    def kernel_basis(self):
        """Exact basis of the right kernel, as sparse column dicts: one
        vector per free column of the reduced row echelon form, which is 1
        at that column."""
        pivots = _echelon(_drain(self.row_dicts()), {}, reduced=True)
        basis = {free: {free: 1} for free in range(self.ncols)
                 if free not in pivots}
        for col in sorted(pivots):
            for free, v in pivots[col].items():
                basis[free][col] = -v
        return list(basis.values())


def combine(cols, vec, c=1):
    """c * sum_j vec[j] cols[j]: the matrix whose columns are the sparse
    dicts cols, times the sparse vector vec (dict col -> scalar).  Entries
    that cancel are dropped, so no zero is ever stored.  A coefficient of 1
    is found once per entry of vec, and then that column's scalars are
    added without a multiplication."""
    out = {}
    if not c:
        return out
    scale = c != 1
    get = out.get
    for j, x in vec.items():
        if scale:
            x = c * x
        if x == 1:
            for r, v in cols[j].items():
                w = get(r)
                if w is None:
                    out[r] = v
                else:
                    w += v
                    if w:
                        out[r] = w
                    else:
                        del out[r]
        elif x:
            for r, v in cols[j].items():
                v *= x
                w = get(r)
                if w is None:
                    out[r] = v
                else:
                    w += v
                    if w:
                        out[r] = w
                    else:
                        del out[r]
    return out


def first_nonzero_column(*products):
    """The first column of the sum of left @ right over the (left, right)
    pairs that is not zero, or None when the sum is zero.  The sum is formed
    exactly, one column at a time, and never stored."""
    nrows, ncols = products[0][0].nrows, products[0][1].ncols
    if any(left.ncols != right.nrows or left.nrows != nrows
           or right.ncols != ncols for left, right in products):
        raise ValueError("shape mismatch in product")
    (first_left, first_right), *rest = products

    def vanishes(j):
        out = combine(first_left.cols, first_right.cols[j])
        for left, right in rest:
            vec_add_into(out, combine(left.cols, right.cols[j]))
        return not out

    return first_failure(range(ncols), vanishes)[1]


def stacked_ranks(blocks, pivots=None):
    """[rank M_1, rank [M_1 | M_2], ...] for the list blocks of matrices
    with the same rows: each matrix's columns are reduced against the pivot
    columns of those before it, in a static order, by lowest row and then
    fewest entries (Markowitz's column count).  A column is copied only as
    the elimination takes it, so no block is changed.  A pivots dict,
    empty at first and keyed by each pivot column's lowest row, carries the
    stack from one call to the next; the ranks then count the columns of
    the earlier calls too."""
    if len({matrix.nrows for matrix in blocks}) > 1:
        raise ValueError("stacked matrices differ in their number of rows")
    pivots = {} if pivots is None else pivots
    ranks = []
    for matrix in blocks:
        _echelon(map(dict, _markowitz(matrix.cols)), pivots)
        ranks.append(len(pivots))
    return ranks


def _markowitz(vectors):
    """The nonzero vectors, each taken out of the list as it is yielded,
    by lowest index and then fewest entries; equal keys keep their order."""
    order = [vec for vec in vectors if vec]
    order.sort(key=lambda vec: (min(vec), len(vec)))
    return _drain(order)


def _echelon(rows, pivots, reduced=False):
    """Row echelon form of the sparse rows (dicts col -> scalar) that the
    iterable rows yields, continuing the pivot rows of the dict pivots,
    which it extends; fed columns, it gives the column echelon form.

    Returns {pivot column: rest of its row}, the row scaled so that its
    pivot, which is its lowest column and is not stored, is 1.  Each row in
    turn is reduced in place against the pivot rows found so far; what is
    left of it becomes a new pivot row, and a row that vanishes is freed at
    once.  A row left with a leading entry other than 1 or -1 is set aside
    and reduced again after all the others: by then it often leads with a
    unit or vanishes, and a unit pivot keeps integral rows integral where a
    pivot of 2 would put Fractions into every row reduced against it.  The
    pivot columns, and so the rank, do not depend on the order.  With
    reduced=True, back-substitution also clears every pivot column from
    the other rows, giving the reduced row echelon form, which the row
    space alone determines.
    """
    deferred = []
    for row in rows:
        _insert(row, pivots, deferred)
    for row in _drain(deferred):
        _insert(row, pivots, None)
    if reduced:
        # descending, so each pivot row used below is already fully reduced
        for col in sorted(pivots, reverse=True):
            tail = pivots[col]
            for other in [c for c in tail if c in pivots]:
                _subtract(tail, tail.pop(other), pivots[other])
    return pivots


def _drain(rows):
    """The items of the list rows in order, each removed as it is taken."""
    rows.reverse()
    while rows:
        yield rows.pop()


def _insert(row, pivots, deferred):
    """Reduce row against the pivot rows and keep what is left as a new
    pivot row, scaled in place to lead with 1: a lead of 1 needs nothing, a
    lead of -1 a negation, and only another lead a scalar_inv.  When
    deferred is a list, a row that leads with neither goes there instead."""
    while row:
        col = min(row)
        tail = pivots.get(col)
        if tail is None:
            lead = row[col]
            if deferred is not None and lead != 1 and lead != -1:
                deferred.append(row)
                return
            del row[col]
            if lead == -1:
                for c, v in row.items():
                    row[c] = -v
            elif lead != 1:
                inv = scalar_inv(lead)
                for c, v in row.items():
                    row[c] = v * inv
            pivots[col] = row
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
