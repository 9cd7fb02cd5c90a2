"""Exact sparse linear algebra, cross-checked against the dense oracle.

The random-matrix tests run over Q and over Q(zeta_4); the integer tests
use the int entries the cohomology matrices carry, with pivots other than 1
and -1.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_kernel, dense_product, dense_rank
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.fields import CyclotomicField, RationalField
from hopfcyclic.hopf import sweedler_h4
from hopfcyclic.linalg import SparseMatrix, first_nonzero_column

FIELDS = (RationalField(), CyclotomicField(4))


def random_sparse(rng, field, nrows, ncols, density=0.3):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                if field.kind == "cyclotomic":
                    v = v + rng.randrange(-2, 3) * field.zeta()
                if v:
                    entries[(r, c)] = v
    return SparseMatrix(nrows, ncols, entries)


def to_dense(m):
    return [[m.cols[c].get(r, Fraction(0)) for c in range(m.ncols)]
            for r in range(m.nrows)]


def test_known_rank():
    for field in FIELDS:
        one = field.one()
        m = SparseMatrix(2, 2, {(0, 0): one, (0, 1): 2 * one,
                                (1, 0): 2 * one, (1, 1): 4 * one})
        assert m.rank() == 1
        assert m.kernel_basis() == [{1: one, 0: -2 * one}]


def test_rank_matches_dense_oracle():
    for field in FIELDS:
        rng = random.Random(31)
        for _ in range(25):
            m = random_sparse(rng, field, rng.randrange(1, 9),
                              rng.randrange(1, 9))
            assert m.rank() == dense_rank(to_dense(m))


def test_rank_nullity():
    for field in FIELDS:
        rng = random.Random(7)
        for _ in range(25):
            m = random_sparse(rng, field, rng.randrange(1, 8),
                              rng.randrange(1, 8))
            assert m.rank() + len(m.kernel_basis()) == m.ncols


def test_kernel_vectors_annihilate():
    for field in FIELDS:
        rng = random.Random(13)
        for _ in range(20):
            m = random_sparse(rng, field, rng.randrange(1, 7),
                              rng.randrange(1, 7))
            for vec in m.kernel_basis():
                assert not m.apply(vec)


def test_kernel_dimension_matches_dense_oracle():
    # both sides read the basis off the reduced row echelon form, which is
    # unique, so the vectors themselves must agree
    for field in FIELDS:
        rng = random.Random(17)
        for _ in range(20):
            m = random_sparse(rng, field, rng.randrange(1, 7),
                              rng.randrange(1, 7))
            kernel = [[vec.get(c, 0) for c in range(m.ncols)]
                      for vec in m.kernel_basis()]
            assert kernel == dense_kernel(to_dense(m), m.ncols)


def test_transpose_rank():
    for field in FIELDS:
        rng = random.Random(23)
        for _ in range(15):
            m = random_sparse(rng, field, rng.randrange(1, 8),
                              rng.randrange(1, 8))
            assert m.rank() == m.transpose().rank()


def test_matmul_and_identity():
    for field in FIELDS:
        rng = random.Random(3)
        a = random_sparse(rng, field, 4, 5)
        eye = SparseMatrix.identity(5)
        assert (a @ eye).entries == a.entries
        b = random_sparse(rng, field, 5, 3)
        ab = a @ b
        # spot-check one entry by direct summation
        r, c = 2, 1
        want = sum((a.entries.get((r, k), Fraction(0))
                    * b.entries.get((k, c), Fraction(0)) for k in range(5)),
                   Fraction(0))
        assert ab.entries.get((r, c), Fraction(0)) == want


def test_deterministic():
    for field in FIELDS:
        rng = random.Random(47)
        m = random_sparse(rng, field, 8, 8)
        assert m.kernel_basis() == m.kernel_basis()


def test_column_store_rejects_a_row_out_of_range():
    for row in (-1, 2):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, {(row, 0): 1})
        with pytest.raises(ValueError):
            SparseMatrix.from_columns([{0: 1}, {row: 1}], 2)
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(0, 2): 1})
    empty = SparseMatrix.from_columns([{}, {}], 0)  # fits zero rows
    assert (empty.nrows, empty.ncols) == (0, 2)


def test_column_store_never_holds_a_zero():
    assert SparseMatrix(2, 2, {(0, 0): 0, (1, 1): 3}).cols == [{}, {1: 3}]
    col = {0: 1}
    m = SparseMatrix.from_columns([col, {0: 0, 1: 2}], 2)
    assert m.cols == [{0: 1}, {1: 2}] and m.cols[0] is col
    # Sweedler's counit vanishes on x and gx, so the degeneracy's columns
    # come out of the counit table with zeros in them
    H = sweedler_h4()
    module = HopfCyclicModule(H, H.character("delta"))
    for n in range(3):
        for i in range(n + 1):
            m = module.degeneracy_matrix(i, n)
            assert all(all(col.values()) for col in m.cols)
            assert sum(map(len, m.cols)) == len(m.entries) == 2 * 4 ** n


def test_integer_kernel_with_non_unit_pivot_has_no_float():
    # pivots 2 and 3: the reduced form needs Fractions, never a float
    m = SparseMatrix(2, 3, {(0, 0): 2, (0, 1): 1, (1, 1): 3, (1, 2): -1})
    kernel = m.kernel_basis()
    assert all(type(v) in (int, Fraction)
               for vec in kernel for v in vec.values())
    assert kernel == [{2: 1, 0: Fraction(-1, 6), 1: Fraction(1, 3)}]
    for vec in kernel:
        assert not m.apply(vec)
    assert [[vec.get(c, 0) for c in range(3)] for vec in kernel] == \
        dense_kernel(to_dense(m), 3)


def test_dense_oracle_divides_int_entries_exactly():
    kernel = dense_kernel([[2, 1]], 2)
    assert kernel == [[Fraction(-1, 2), Fraction(1)]]
    assert all(type(v) is Fraction for vec in kernel for v in vec)
    assert dense_rank([[2, 1], [1, 1], [3, 2]]) == 2
    assert dense_kernel([[2, 4], [3, 1]], 2) == []


@st.composite
def integer_matrices(draw):
    """Sparse matrices of small ints, some Fractions mixed in, so pivots
    other than 1 and -1 occur; with a row and a column permutation."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    scalar = st.one_of(st.integers(-3, 3),
                       st.fractions(-2, 2, max_denominator=3))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        scalar, max_size=nrows * ncols))
    row_perm = draw(st.permutations(range(nrows)))
    col_perm = draw(st.permutations(range(ncols)))
    return SparseMatrix(nrows, ncols, cells), row_perm, col_perm


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
def test_rank_matches_dense_oracle_under_permutations(case):
    m, row_perm, col_perm = case
    permuted = SparseMatrix(m.nrows, m.ncols, {
        (row_perm[r], col_perm[c]): v for (r, c), v in m.entries.items()})
    assert m.rank() == dense_rank(to_dense(m)) == permuted.rank()


@settings(max_examples=50, deadline=None)
@given(integer_matrices())
def test_entries_round_trip(case):
    m, _, _ = case
    entries = m.entries
    assert SparseMatrix(m.nrows, m.ncols, entries) == m
    assert all(v and m.cols[c][r] == v for (r, c), v in entries.items())
    assert len(entries) == sum(map(len, m.cols))
    with pytest.raises(TypeError):
        entries[0, 0] = 1


@st.composite
def gate_products(draw):
    """One or two (left, right) pairs of random sparse matrices over Q or
    Q(zeta_4), any side possibly 0, for first_nonzero_column.  Columns of
    right are drawn from the kernel of left and the second pair may be
    (-left, right) with some columns of right redrawn, so that columns of
    the product, or of the sum, cancel exactly."""
    field = draw(st.sampled_from(FIELDS))
    rng = draw(st.randoms(use_true_random=False))
    nrows, mid, ncols = (draw(st.integers(0, 5)) for _ in range(3))
    left = random_sparse(rng, field, nrows, mid)
    kernel = left.kernel_basis()
    right = random_sparse(rng, field, mid, ncols).cols
    for j in range(ncols):
        if kernel and rng.random() < 0.5:
            scale = rng.choice([1, -2, Fraction(1, 3)] + (
                [field.zeta()] if field.kind == "cyclotomic" else []))
            right[j] = {r: scale * v for r, v in rng.choice(kernel).items()}
    products = [(left, SparseMatrix.from_columns(right, mid))]
    mode = draw(st.sampled_from(["one", "cancel", "independent"]))
    if mode == "cancel":
        negated = SparseMatrix(nrows, mid,
                               {rc: -v for rc, v in left.entries.items()})
        redrawn = random_sparse(rng, field, mid, ncols).cols
        right = [redrawn[j] if rng.random() < 0.5 else col
                 for j, col in enumerate(right)]
        products.append((negated, SparseMatrix.from_columns(right, mid)))
    elif mode == "independent":
        other = draw(st.integers(0, 5))
        products.append((random_sparse(rng, field, nrows, other),
                         random_sparse(rng, field, other, ncols)))
    return products, ncols


@settings(max_examples=100, deadline=None)
@given(gate_products())
def test_first_nonzero_column_matches_dense_oracle(case):
    products, ncols = case
    total = [[0] * ncols for _ in range(products[0][0].nrows)]
    for left, right in products:
        product = dense_product(to_dense(left), to_dense(right), ncols)
        total = [[x + y for x, y in zip(a, b)] for a, b in zip(total, product)]
    nonzero = [c for c in range(ncols) if any(row[c] for row in total)]
    assert first_nonzero_column(*products) == min(nonzero, default=None)


def test_first_nonzero_column_refuses_shape_mismatch():
    two_by_three = SparseMatrix(2, 3, {(0, 0): 1})
    with pytest.raises(ValueError):
        first_nonzero_column((two_by_three, SparseMatrix(2, 2)))
    with pytest.raises(ValueError):  # the two products differ in shape
        first_nonzero_column((two_by_three, SparseMatrix(3, 2)),
                             (SparseMatrix(2, 2), SparseMatrix(2, 3)))
