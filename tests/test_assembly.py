"""Matrices assembled from the structure constants against the elementwise
operators they replace.

The elementwise face, degeneracy and cyclic operators, and the b and B
built from them, are the specification; ``operator_matrix`` turns each into
a matrix one basis tensor at a time.  The assembled matrices must equal
those exactly, entry for entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDENS, minus_lambda
from hopfcyclic.cohomology import (B_matrix, B_operator, b_matrix,
                                   b_prime_matrix, extra_degeneracy,
                                   hochschild_b, mixed_complex_report,
                                   one_minus_lambda_matrix, signed_cyclic)
from hopfcyclic.cyclic_ops import HopfCyclicModule, NormalizedModule
from hopfcyclic.fields import Cyclotomic
from hopfcyclic.hopf import (BUILTIN_BUILDERS, check_involution,
                             function_algebra, group_algebra, vec_add_into,
                             vec_sub)
from hopfcyclic.linalg import SparseMatrix
from hopfcyclic.presentations import load_hopf

QZ4 = GOLDENS / "cli" / "qz4-zeta4.json"
TOP = 3


def involutive_cases():
    """(id, module) for every builtin with each involutive character, and
    QZ4 over Q(zeta_4) with delta(g^k) = zeta_4^k."""
    out = []
    for name in sorted(BUILTIN_BUILDERS):
        H = BUILTIN_BUILDERS[name]()
        for cname in sorted(H.characters):
            delta = H.characters[cname]
            if check_involution(delta)[0]:
                out.append((f"{name}-{cname}", HopfCyclicModule(delta)))
    H = load_hopf(str(QZ4))
    out.append(("qz4-zeta4-delta", HopfCyclicModule(H.character("delta"))))
    return out


CASES = involutive_cases()


def extra_degeneracy_matrix(module, n):
    """s from degree n+1 to degree n, every column from tau_n."""
    return SparseMatrix.from_columns(module.extra_degeneracy_columns(
        module.cyclic_matrix(n), range(module.space_dim(n + 1))),
        module.space_dim(n))


def assert_extra_degeneracy_columns(module, n, sources):
    """The columns of s at sources, and their sum and alternating sum,
    against the elementwise s; no column holds a zero."""
    cols = list(module.extra_degeneracy_columns(module.cyclic_matrix(n),
                                                sources))
    assert all(all(col.values()) for col in cols), n
    for sign in (1, -1):
        t, total = {}, {}
        for j, (J, col) in enumerate(zip(sources, cols)):
            t[module.key_of_index(J, n + 1)] = sign ** j
            vec_add_into(total, col, sign ** j)
            if sign == 1:
                assert col == {module.key_index(k): v for k, v in
                               extra_degeneracy(module, n, {
                                   module.key_of_index(J, n + 1): 1}).items()
                               }, (n, J)
        # images of basis tensors add up and cancel in the sum
        assert total == {module.key_index(k): v for k, v
                         in extra_degeneracy(module, n, t).items()}, (n, sign)


@pytest.mark.parametrize("module", [m for _, m in CASES],
                         ids=[i for i, _ in CASES])
def test_structure_matrices_match_elementwise(module):
    """tau, s and the cobar table D against the elementwise operators;
    s on every column of the full module and on the columns of N in the
    rebased one; -D(e_s) is b_2 e_s = face_0 - face_1 + face_2 of e_s."""
    norm = NormalizedModule(module.delta)
    for n in range(TOP + 1):
        assert module.cyclic_matrix(n) == module.operator_matrix(
            lambda t: module.cyclic(n, t), n, n), n
        assert extra_degeneracy_matrix(module, n) == module.operator_matrix(
            lambda t: extra_degeneracy(module, n, t), n + 1, n), n
        assert_extra_degeneracy_columns(
            module, n, range(module.space_dim(n + 1)))
        assert_extra_degeneracy_columns(norm.full, n, norm.full_index(n + 1))
    minus_table = SparseMatrix.from_columns(
        ({r: -c for r, c in row} for row in module.cobar_table()),
        module.space_dim(2))
    assert minus_table == module.operator_matrix(
        lambda t: hochschild_b(module, 2, t), 1, 2)


@pytest.mark.parametrize("cls", [HopfCyclicModule, NormalizedModule])
def test_B_matrix_builds_tau_n_only(cls, monkeypatch):
    """B_n reads s, N_n and the ts0 term off tau_n: it asks
    cyclic_matrix for degree n and for no other degree."""
    H = BUILTIN_BUILDERS["sweedler"]()
    module = cls(H.character("delta"))
    degrees = []
    cyclic_matrix = HopfCyclicModule.cyclic_matrix

    def counted(self, n):
        degrees.append(n)
        return cyclic_matrix(self, n)

    monkeypatch.setattr(HopfCyclicModule, "cyclic_matrix", counted)
    for n in range(4):
        degrees.clear()
        B_matrix(module, n)
        assert degrees == [n], (cls.__name__, n)


@pytest.mark.parametrize("case", ["sweedler-delta", "qz4-zeta4-delta"])
def test_cyclic_matrix_recursion_beyond_top(case):
    """cyclic_matrix builds tau_n from tau_(n-1); the closed form of tau
    reads the legs of Delta^(n-1) S~, so the two agree only if the
    recursion holds at every degree it passes through."""
    module = dict(CASES)[case]
    for n in (4, 5):
        assert module.cyclic_matrix(n) == module.operator_matrix(
            lambda t: module.cyclic_power_formula(1, n, t), n, n), n


@pytest.mark.parametrize("case", ["sweedler-delta", "qz4-zeta4-delta"])
def test_b_matrix_recursion_beyond_top(case):
    """b_matrix builds b_n from b_(n-1) and the cobar table; the elementwise
    b sums the n+1 faces, so the two agree only if the recursion holds at
    every degree it passes through."""
    module = dict(CASES)[case]
    for n in (4, 5):
        assert b_matrix(module, n) == module.operator_matrix(
            lambda t: hochschild_b(module, n, t), n - 1, n), n


@pytest.mark.parametrize("module", [m for _, m in CASES],
                         ids=[i for i, _ in CASES])
def test_differentials_match_elementwise(module):
    for n in range(TOP + 1):
        if n >= 1:
            assert b_matrix(module, n) == module.operator_matrix(
                lambda t: hochschild_b(module, n, t), n - 1, n), n
            # the lambda method rests on (1 - lambda) b = b' (1 - lambda),
            # with b' = sum_(i<n) (-1)^i face_i = b - (-1)^n face_n
            b_prime = module.operator_matrix(
                lambda t: vec_add_into(hochschild_b(module, n, t),
                                       module.face(n, n, t),
                                       -1 if n % 2 == 0 else 1), n - 1, n)
            assert b_prime_matrix(module, b_matrix(module, n), n) \
                == b_prime, n
            assert minus_lambda(module, n) @ b_matrix(module, n) \
                == b_prime @ minus_lambda(module, n - 1), n
        assert minus_lambda(module, n) == module.operator_matrix(
            lambda t: vec_sub(t, signed_cyclic(module, n, t)), n, n), n
        assert B_matrix(module, n) == module.operator_matrix(
            lambda t: B_operator(module, n, t), n + 1, n), n


@pytest.mark.parametrize("module", [m for _, m in CASES],
                         ids=[i for i, _ in CASES])
def test_mixed_complex_matrix_and_elementwise_reports_agree(module):
    samples = {n: module.samples(n) for n in range(TOP + 3)}
    by_matrix = mixed_complex_report(module, TOP)
    assert by_matrix.ok, by_matrix.render()
    assert by_matrix.render() == \
        mixed_complex_report(module, TOP, samples=samples).render()


def test_mixed_complex_witnesses_agree_on_failure():
    """Sweedler with the counit is not involutive, so B fails its
    identities; both paths must name the same first failing tensor."""
    H = BUILTIN_BUILDERS["sweedler"]()
    module = HopfCyclicModule(H.counit_character())
    samples = {n: module.samples(n) for n in range(TOP + 3)}
    by_matrix = mixed_complex_report(module, TOP)
    assert not by_matrix.ok
    assert by_matrix.render() == \
        mixed_complex_report(module, TOP, samples=samples).render()


def test_kernel_scalars_are_cyclotomic():
    """Over Q(zeta_4) the kernel vectors of 1 - lambda hold exact scalars
    of the field (an int where the value is integral, else a Fraction or an
    order-4 Cyclotomic, never a float), and equal by value the kernel of
    the elementwise 1 - lambda.  1 - lambda_0 is the zero 1x1 matrix."""
    H = load_hopf(str(QZ4))
    module = HopfCyclicModule(H.character("delta"))
    for n in range(3):
        kernel = minus_lambda(module, n).kernel_basis()
        assert kernel
        for v in (v for vec in kernel for v in vec.values()):
            assert type(v) in (int, Fraction) or (
                isinstance(v, Cyclotomic) and v.order == 4), (n, v)
        oracle = module.operator_matrix(
            lambda t: vec_sub(t, signed_cyclic(module, n, t)), n, n)
        assert kernel == oracle.kernel_basis(), n


def assembled_matrices(module, n):
    """(matrices from the structure tables alone, matrices that also use
    delta) in degree n: b; s, tau, 1 - lambda and B."""
    tables = [b_matrix(module, n)] if n >= 1 else []
    tau = module.cyclic_matrix(n)
    return tables, [extra_degeneracy_matrix(module, n), tau,
                    one_minus_lambda_matrix(tau, n), B_matrix(module, n)]


def test_assembled_scalars_are_int_when_presentation_is_integral():
    """Every builtin and QZ4 has integral structure constants, so the cobar
    table and b are int matrices; s, tau, 1 - lambda and B are too
    exactly when delta is integral (not on QZ4, where delta(g) = zeta_4).
    Their values are pinned against the elementwise operators above."""
    for case, module in CASES:
        H = module.hopf
        assert all(type(c) is int for c in [*H.unit.values(), *H.counit] + [
            c for table in (H.product, H.coproduct, H.antipode)
            for row in table.values() for c in row.values()]), case
        delta_integral = all(type(v) is int for v in module.delta.values)
        assert delta_integral == (case != "qz4-zeta4-delta")
        assert all(type(c) is int
                   for row in module.cobar_table() for _, c in row), case
        for n in range(TOP + 1):
            tables, with_delta = assembled_matrices(module, n)
            for m in tables + (with_delta if delta_integral else []):
                assert all(type(v) is int for v in m.entries.values()), \
                    (case, n, m)
        if not delta_integral:
            assert any(isinstance(v, Cyclotomic)
                       for v in module.cyclic_matrix(1).entries.values())


def _cyclic_product_table(orders):
    """Cayley table of Z_a x Z_b x ..., elements in mixed-radix order."""
    size = 1
    for m in orders:
        size *= m

    def digits(x):
        out = []
        for m in reversed(orders):
            x, r = divmod(x, m)
            out.append(r)
        return out[::-1]

    def index(ds):
        x = 0
        for d, m in zip(ds, orders):
            x = x * m + d
        return x

    return [[index([(a + b) % m for a, b, m in
                    zip(digits(i), digits(j), orders)])
             for j in range(size)] for i in range(size)]


@st.composite
def abelian_hopf_modules(draw):
    """k[G] or k^G for a cyclic or product group G of order <= 6, its
    non-identity elements relabelled at random, with an involutive
    character (every character is, G being abelian)."""
    orders = draw(st.sampled_from(
        [[1], [2], [3], [4], [5], [6], [2, 2], [2, 3], [3, 2]]))
    table = _cyclic_product_table(orders)
    size = len(table)
    perm = [0] + draw(st.permutations(list(range(1, size))))
    inv = {p: i for i, p in enumerate(perm)}
    relabelled = [[inv[table[perm[i]][perm[j]]] for j in range(size)]
                  for i in range(size)]
    labels = [f"g{i}" for i in range(size)]
    if draw(st.booleans()):
        H = group_algebra(labels, relabelled)
        delta = H.counit_character()
    else:
        H = function_algebra(labels, relabelled)
        delta = H.characters[f"eval_{labels[draw(st.integers(0, size - 1))]}"]
    return HopfCyclicModule(delta)


@settings(max_examples=25, deadline=None)
@given(abelian_hopf_modules(), st.integers(0, 3))
def test_random_group_cyclic_matrix(module, n):
    tau = module.cyclic_matrix(n)
    assert tau == module.operator_matrix(lambda t: module.cyclic(n, t), n, n)
    power = tau
    for _ in range(n):
        power = tau @ power
    assert power == SparseMatrix.identity(module.space_dim(n))


@settings(max_examples=25, deadline=None)
@given(abelian_hopf_modules(), st.integers(0, 2))
def test_random_group_matrices_are_int_and_match_elementwise(module, n):
    """Through degree 2: the elementwise B on 6^4 basis tensors would make
    degree 3 cost about 3 s of the suite; test_random_group_cyclic_matrix
    covers tau there."""
    tables, with_delta = assembled_matrices(module, n)
    assert all(type(v) is int
               for m in tables + with_delta for v in m.entries.values())
    ops = [(lambda t: hochschild_b(module, n, t), n - 1, n)] if n >= 1 else []
    ops += [(lambda t: extra_degeneracy(module, n, t), n + 1, n),
            (lambda t: module.cyclic(n, t), n, n),
            (lambda t: vec_sub(t, signed_cyclic(module, n, t)), n, n),
            (lambda t: B_operator(module, n, t), n + 1, n)]
    for m, (op, src, tgt) in zip(tables + with_delta, ops):
        assert m == module.operator_matrix(op, src, tgt), (n, m)
