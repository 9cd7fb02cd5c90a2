"""Exact sparse linear algebra over Q and Q(zeta_m).

Matrices store only nonzero entries.  Rank and kernel share one exact
sparse Gaussian elimination, _echelon.  The kernel basis is read off the
reduced row echelon form, which is unique, so it does not depend on the
order in which the elimination finds its pivots.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import scalar_inv


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
    def identity(cls, n, one=Fraction(1)):
        return cls(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_columns(cls, cols, nrows):
        """Build from a list of sparse column dicts (row -> scalar)."""
        entries = {}
        for c, col in enumerate(cols):
            for r, v in col.items():
                if v:
                    entries[(r, c)] = v
        return cls(nrows, len(cols), entries)

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

    def __add__(self, other):
        self._check_shape(other)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            w = entries.get(k, 0) + v
            if w:
                entries[k] = w
            else:
                entries.pop(k, None)
        return SparseMatrix(self.nrows, self.ncols, entries)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return SparseMatrix(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols,
                            {k: c * v for k, v in self.entries.items()})

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols_of_other = [dict() for _ in range(other.ncols)]
        for (r, c), v in other.entries.items():
            cols_of_other[c][r] = v
        entries = {}
        by_mid = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            by_mid[c][r] = v
        for c in range(other.ncols):
            acc = {}
            for mid, v in cols_of_other[c].items():
                for r, w in by_mid[mid].items():
                    s = acc.get(r, 0) + w * v
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
            for r, s in acc.items():
                entries[(r, c)] = s
        return SparseMatrix(self.nrows, other.ncols, entries)

    def apply(self, vec):
        """Apply to a sparse vector (dict col -> scalar); returns dict row -> scalar."""
        out = {}
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        for c, x in vec.items():
            if not x:
                continue
            for r, v in by_col.get(c, ()):
                s = out.get(r, 0) + v * x
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def rank(self):
        return len(_echelon(self.row_dicts()))

    def kernel_basis(self):
        """Exact basis of the right kernel, as sparse column dicts.

        One basis vector per free column of the reduced row echelon form.
        """
        pivots = _echelon(self.row_dicts(), reduced=True)
        # the field's 1, so kernel vectors have the matrix's scalar type
        sample = next(iter(self.entries.values()), None)
        one = Fraction(1) if sample is None else sample / sample
        basis = {free: {free: one} for free in range(self.ncols)
                 if free not in pivots}
        for col in sorted(pivots):
            for free, v in pivots[col].items():
                basis[free][col] = -v
        return list(basis.values())


def _echelon(rows, reduced=False):
    """Row echelon form of sparse rows (dicts col -> scalar), consumed in place.

    Returns {pivot column: rest of its row}, the row scaled so that its
    pivot, which is its lowest column and is not stored, is 1.  Each row in
    turn is reduced against the pivot rows found so far; what is left of it
    becomes a new pivot row.  With reduced=True, back-substitution also
    clears every pivot column from the other rows, giving the reduced row
    echelon form, which the row space alone determines.
    """
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            tail = pivots.get(col)
            if tail is None:
                inv = scalar_inv(row.pop(col))
                pivots[col] = {c: v * inv for c, v in row.items()}
                break
            _subtract(row, row.pop(col), tail)
    if reduced:
        # descending, so each pivot row used below is already fully reduced
        for col in sorted(pivots, reverse=True):
            tail = pivots[col]
            for other in [c for c in tail if c in pivots]:
                _subtract(tail, tail.pop(other), pivots[other])
    return pivots


def _subtract(row, factor, tail):
    """row -= factor * tail, dropping entries that cancel."""
    for c, v in tail.items():
        w = row.get(c, 0) - factor * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)
