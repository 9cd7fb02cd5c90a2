"""Exact sparse linear algebra, cross-checked against the dense oracle.

The random-matrix tests run over Q and over Q(zeta_4); the integer tests
use the int entries the cohomology matrices carry, with pivots other than 1
and -1.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import transpose
from dense_oracle import dense_kernel, dense_product, dense_rank
from hopfcyclic.cyclic_ops import HopfCyclicModule, NormalizedModule
from hopfcyclic.fields import CyclotomicField, RationalField
from hopfcyclic.hopf import sweedler_h4
from hopfcyclic import linalg
from hopfcyclic.linalg import (SparseMatrix, combine, first_nonzero_column,
                               stacked_ranks)

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
                assert not combine(m.cols, vec)


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
    # rank eliminates rows and stacked_ranks columns, through one _echelon
    for field in FIELDS:
        rng = random.Random(23)
        for _ in range(15):
            m = random_sparse(rng, field, rng.randrange(1, 8),
                              rng.randrange(1, 8))
            assert m.rank() == stacked_ranks([m])[0] == transpose(m).rank()


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
    # delta vanishes on Sweedler's x and gx, so s_0 = delta emits those
    # columns empty; s drops what cancels in e_a e_t, on the full module
    # and on the columns of N in the rebased one, so every column reaches
    # from_columns with no zero to drop and is kept as it is
    H = sweedler_h4()
    delta = H.character("delta")
    full = HopfCyclicModule(delta)
    assert list(full.extra_degeneracy_columns(
        SparseMatrix.identity(1), range(4))) == [{0: 1}, {0: -1}, {}, {}]
    norm = NormalizedModule(delta)
    for module, index in ((full, lambda m: range(4 ** m)),
                          (norm.full, norm.full_index)):
        for n in range(3):
            cols = list(module.extra_degeneracy_columns(
                module.cyclic_matrix(n), index(n + 1)))
            assert all(all(col.values()) for col in cols)
            m = SparseMatrix.from_columns(cols, 4 ** n)
            assert all(kept is col for kept, col in zip(m.cols, cols))
            assert sum(map(len, cols)) == len(m.entries) > 0


def test_integer_kernel_with_non_unit_pivot_has_no_float():
    # pivots 2 and 3: the reduced form needs Fractions, never a float
    m = SparseMatrix(2, 3, {(0, 0): 2, (0, 1): 1, (1, 1): 3, (1, 2): -1})
    kernel = m.kernel_basis()
    assert all(type(v) in (int, Fraction)
               for vec in kernel for v in vec.values())
    assert kernel == [{2: 1, 0: Fraction(-1, 6), 1: Fraction(1, 3)}]
    for vec in kernel:
        assert not combine(m.cols, vec)
    assert [[vec.get(c, 0) for c in range(3)] for vec in kernel] == \
        dense_kernel(to_dense(m), 3)


def test_dense_oracle_divides_int_entries_exactly():
    kernel = dense_kernel([[2, 1]], 2)
    assert kernel == [[Fraction(-1, 2), Fraction(1)]]
    assert all(type(v) is Fraction for vec in kernel for v in vec)
    assert dense_rank([[2, 1], [1, 1], [3, 2]]) == 2
    assert dense_kernel([[2, 4], [3, 1]], 2) == []
    # over Q(zeta_4) the second row turns int, [0, 2, 1], on elimination
    zeta = CyclotomicField(4).zeta()
    m = SparseMatrix(2, 3, {(0, 0): zeta, (0, 1): 1 + zeta, (1, 0): zeta,
                            (1, 1): 3 + zeta, (1, 2): 1})
    kernel = dense_kernel(to_dense(m), 3)
    assert not any(type(v) is float for vec in kernel for v in vec)
    assert kernel == [[vec.get(c, 0) for c in range(3)]
                      for vec in m.kernel_basis()]
    assert dense_rank(to_dense(m) + [[0, 2, 1]]) == 2


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


@st.composite
def combine_cases(draw):
    """(matrix, vec, c) for combine over Q or Q(zeta_4), c one of 1, -1, 0,
    2, 1/2 and zeta_4.  vec is a multiple of a kernel vector of the matrix,
    plus a few random entries (an explicit 0 among them) and, on a column
    appended as the negative of another, the same coefficient as on that
    column, so that the product cancels exactly in some or all rows."""
    field = draw(st.sampled_from(FIELDS))
    rng = draw(st.randoms(use_true_random=False))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    cols = random_sparse(rng, field, nrows, ncols).cols
    kernel = SparseMatrix.from_columns(cols, nrows).kernel_basis()
    zeta = [field.zeta()] if field.kind == "cyclotomic" else []
    vec = {}
    if kernel:
        scale = rng.choice([1, -1, 3, Fraction(1, 2)] + zeta)
        vec = {j: scale * v for j, v in rng.choice(kernel).items()}
    for j in rng.sample(range(ncols), rng.randrange(ncols + 1)):
        vec[j] = rng.choice([0, 1, -1, Fraction(2, 3)] + zeta)
    for j in list(vec):
        if vec[j] and rng.random() < 0.5:
            cols.append({r: -v for r, v in cols[j].items()})
            vec[len(cols) - 1] = vec[j]
    c = draw(st.sampled_from([1, -1, 0, 2, Fraction(1, 2),
                              CyclotomicField(4).zeta()]))
    return SparseMatrix.from_columns(cols, nrows), vec, c


@settings(max_examples=200, deadline=None)
@given(combine_cases())
def test_combine_matches_dense_oracle(case):
    matrix, vec, c = case
    out = combine(matrix.cols, vec, c)
    assert all(out.values())
    column = [[vec.get(j, 0)] for j in range(matrix.ncols)]
    product = dense_product(to_dense(matrix), column, 1)
    assert [out.get(r, 0) for r in range(matrix.nrows)] == \
        [c * row[0] for row in product]


def test_first_nonzero_column_refuses_shape_mismatch():
    two_by_three = SparseMatrix(2, 3, {(0, 0): 1})
    with pytest.raises(ValueError):
        first_nonzero_column((two_by_three, SparseMatrix(2, 2)))
    with pytest.raises(ValueError):  # the two products differ in shape
        first_nonzero_column((two_by_three, SparseMatrix(3, 2)),
                             (SparseMatrix(2, 2), SparseMatrix(2, 3)))


@st.composite
def stacked_pairs(draw):
    """(b, A) with a common number of columns, small ints over Q or ints
    plus multiples of zeta_4 over Q(zeta_4).  A is sometimes b itself, so
    that b vanishes on ker A."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 7))
    zeta = field.zeta() if field.kind == "cyclotomic" else 0
    scalar = st.builds(lambda a, z: a + z * zeta, st.integers(-3, 3),
                       st.integers(-1, 1))

    def matrix(nrows):
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            scalar, max_size=nrows * ncols)) if nrows else {}
        return SparseMatrix(nrows, ncols, cells)

    b = matrix(draw(st.integers(0, 8)))
    A = b if draw(st.booleans()) else matrix(draw(st.integers(0, 7)))
    return b, A


@settings(max_examples=150, deadline=None)
@given(stacked_pairs())
def test_stacked_ranks_give_the_rank_of_b_on_ker_A(case):
    # ker [b; A] = ker b meet ker A, so
    # rank(b on ker A) = rank [b; A] - rank A; stacked_ranks reduces
    # columns, so [b^T | A^T] is the row stack
    b, A = case
    dense_b, dense_A = to_dense(b), to_dense(A)
    kernel = dense_kernel(dense_A, A.ncols)
    on_kernel = dense_product(
        dense_b, [list(row) for row in zip(*kernel)] or
        [[] for _ in range(b.ncols)], len(kernel))
    b_t, A_t = transpose(b), transpose(A)
    rank_b, rank_stacked = stacked_ranks([b_t, A_t])
    assert rank_b == dense_rank(dense_b) == b.rank()
    assert rank_stacked == dense_rank(dense_b + dense_A)
    assert rank_stacked - A.rank() == dense_rank(on_kernel)
    # a second call with the same pivots continues the stack
    pivots = {}
    assert stacked_ranks([b_t], pivots) + stacked_ranks([A_t], pivots) == \
        [rank_b, rank_stacked]


@settings(max_examples=150, deadline=None)
@given(stacked_pairs())
def test_stacked_ranks_reduce_columns_and_change_no_block(case):
    """[rank M_1, rank [M_1 | M_2]] for M_1 = b^T and M_2 = A^T, which share
    their rows, whether the stack is one call or two sharing a pivots dict;
    the columns are copied as they are taken, never reduced in place."""
    first, second = (transpose(m) for m in case)
    before = [[dict(col) for col in m.cols] for m in (first, second)]
    dense_first, dense_second = to_dense(first), to_dense(second)
    ranks = [dense_rank(dense_first),
             dense_rank([left + right for left, right
                         in zip(dense_first, dense_second)])]
    assert stacked_ranks([first, second]) == ranks
    assert [first.cols, second.cols] == before
    pivots = {}
    assert stacked_ranks([first], pivots) + \
        stacked_ranks([second], pivots) == ranks
    assert [first.cols, second.cols] == before


def test_stacked_ranks_refuse_a_row_mismatch():
    with pytest.raises(ValueError):
        stacked_ranks([SparseMatrix(3, 2), SparseMatrix(2, 2)])


def _counted_scalar_inv(monkeypatch):
    calls = []
    inv = linalg.scalar_inv
    monkeypatch.setattr(linalg, "scalar_inv",
                        lambda x: calls.append(x) or inv(x))
    return calls


def test_unit_pivots_call_no_inverse(monkeypatch):
    # rows that lead with 1 or -1, each of its own column, over free
    # columns 5 and 6, then copies and negations of them that vanish
    calls = _counted_scalar_inv(monkeypatch)
    for field in FIELDS:
        rng = random.Random(5)
        zeta = field.zeta() if field.kind == "cyclotomic" else 1
        for _ in range(20):
            entries = {}
            for r in range(5):
                entries[r, r] = rng.choice([1, -1])
                for c in range(r + 1, 7):
                    if rng.random() < 0.5:
                        entries[r, c] = rng.randrange(-3, 4) * \
                            rng.choice([1, zeta])
            for r in range(5, 8):
                source, sign = rng.randrange(5), rng.choice([1, -1])
                entries.update({(r, c): sign * v for (q, c), v
                                in list(entries.items()) if q == source})
            m = SparseMatrix(8, 7, entries)
            assert m.rank() == dense_rank(to_dense(m)) == 5
            kernel = [[vec.get(c, 0) for c in range(7)]
                      for vec in m.kernel_basis()]
            assert kernel == dense_kernel(to_dense(m), 7)
    assert calls == []


def test_a_pivot_of_two_is_inverted(monkeypatch):
    calls = _counted_scalar_inv(monkeypatch)
    m = SparseMatrix(1, 2, {(0, 0): 2, (0, 1): 1})
    assert m.rank() == 1
    assert m.kernel_basis() == [{1: 1, 0: Fraction(-1, 2)}]
    assert calls == [2, 2]
