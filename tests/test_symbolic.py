"""Rule-based enveloping algebras: PBW straightening, Hopf maps, characters."""

import random
from fractions import Fraction

import pytest

from conftest import DATA
from hopfcyclic.cohomology import mixed_complex_report
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.enveloping import (EnvelopingAlgebra, LieAlgebra,
                                   abelian_lie_algebra, ax_plus_b_lie_algebra,
                                   tensor_samples)
from hopfcyclic.hopf import linear, vec_add_into, vec_eq
from hopfcyclic.presentations import load_lie
from hopfcyclic.relations import check_cyclic_power_formula, relation_suite

ONE = Fraction(1)


def axb():
    return EnvelopingAlgebra(ax_plus_b_lie_algebra())


def test_straightening_one_step():
    U = axb()
    X, Y = U.generator(0), U.generator(1)
    # Y X = X Y - Y from [X, Y] = Y
    assert U.mul(Y, X) == {(1, 1): ONE, (0, 1): -ONE}


def test_unit_and_commutative_case():
    U = EnvelopingAlgebra(abelian_lie_algebra(2))
    m = U.monomial((2, 3))
    assert U.mul(U.unit_element(), m) == m
    assert U.mul(U.generator(0), U.generator(1)) == {(1, 1): ONE}
    assert U.mul(U.generator(1), U.generator(0)) == {(1, 1): ONE}


def test_coproduct_binomial():
    U = EnvelopingAlgebra(abelian_lie_algebra(1))
    # Delta(X^2) = X^2 (x) 1 + 2 X (x) X + 1 (x) X^2
    assert U.comul_basis((2,)) == {((2,), (0,)): ONE,
                                   ((1,), (1,)): Fraction(2),
                                   ((0,), (2,)): ONE}
    # Delta(ab) = Delta(a) Delta(b) on ax+b, the product taken leg by leg
    U = axb()
    monos = U.monomials_up_to_degree(2)

    def leg_product(left, right):
        return linear(lambda pq: linear(
            lambda rs: {(x, y): cx * cy
                        for x, cx in U.mul({pq[0]: 1}, {rs[0]: 1}).items()
                        for y, cy in U.mul({pq[1]: 1}, {rs[1]: 1}).items()},
            right), left)

    for a in monos:
        for b in monos:
            assert vec_eq(U.comul(U.mul({a: 1}, {b: 1})),
                          leg_product(U.comul_basis(a), U.comul_basis(b))), \
                (a, b)


def test_antipode():
    U = axb()
    assert U.antipode_basis((1, 0)) == {(1, 0): -ONE}
    # S(XY) = S(Y)S(X) = YX = XY - Y
    assert U.antipode_basis((1, 1)) == {(1, 1): ONE, (0, 1): -ONE}


def test_antipode_convolution_identity():
    """sum S(h_(1)) h_(2) = eps(h) 1 on PBW monomials of degree <= 4."""
    U = axb()
    for key in U.monomials_up_to_degree(4):
        total = {}
        for (k1, k2), c in U.comul_basis(key).items():
            vec_add_into(total, U.mul(U.antipode_basis(k1), U.monomial(k2)),
                         c)
        want = {(0, 0): U.counit_basis(key)} if U.counit_basis(key) else {}
        assert total == want, key


def test_jacobi_rejected():
    # [X,Y]=X, [Y,Z]=Y, [X,Z]=0: the Jacobi cyclic sum equals -X, not 0
    with pytest.raises(ValueError,
                       match=r"^Jacobi identity fails at \(0,1,2\)$"):
        LieAlgebra(3, {(0, 1): {0: ONE}, (1, 2): {1: ONE}})


def test_antisymmetry_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(2, {(0, 1): {1: ONE}, (1, 0): {1: ONE}})


def test_adjoint_trace_character():
    U = axb()
    delta = U.modular_character()
    assert delta.value((1, 0)) == ONE   # delta(X) = tr(ad X) = 1
    assert delta.value((0, 1)) == Fraction(0)
    assert delta.value((2, 0)) == ONE   # multiplicative on monomials
    assert delta.value((0, 0)) == ONE


def test_twisted_antipode_involution_degree_4():
    U = axb()
    delta = U.modular_character()
    for key in U.monomials_up_to_degree(4):
        once = U.twisted_antipode(delta, U.monomial(key))
        twice = U.twisted_antipode(delta, once)
        assert twice == U.monomial(key), key


def test_relation_suite_on_samples(seed=2):
    U = axb()
    module = HopfCyclicModule(U.modular_character())
    rng = random.Random(seed)
    samples = tensor_samples(U, 3, rng=rng)
    report = relation_suite(module, 3, samples=samples.__getitem__)
    assert report.ok, report.render()


def test_cyclic_power_formula_on_samples(seed=2):
    """The closed form of tau^j against the recursion of tau iterated j
    times, j = 1 included."""
    U = axb()
    module = HopfCyclicModule(U.modular_character())
    samples = tensor_samples(U, 3, rng=random.Random(seed))
    for n in range(1, 4):
        for j in range(1, n + 2):
            assert check_cyclic_power_formula(module, n, j, samples[n]) \
                == (True, None), (n, j)


def test_counit_is_evaluation_at_zero():
    U = axb()
    assert U.counit_basis((0, 0)) == ONE
    assert U.counit_basis((1, 2)) == Fraction(0)


@pytest.mark.parametrize("check", [relation_suite, mixed_complex_report])
def test_checks_without_samples_refuse_u_of_g(check):
    """U(g) has no finite basis to default to, so a check called without
    samples= raises one ValueError instead of a TypeError on dim None."""
    U = load_lie(str(DATA / "axb-lie.json"))
    module = HopfCyclicModule(U.modular_character())
    with pytest.raises(ValueError, match="no finite basis; pass samples="):
        check(module, 2)
