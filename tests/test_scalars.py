"""Exact scalar arithmetic: rationals and cyclotomic extensions."""

import cmath
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.fields import (Cyclotomic, CyclotomicField, FieldMismatchError,
                               RationalField, ScalarFormatError,
                               cyclotomic_polynomial, field_from_spec,
                               integral, parse_rational, scalar_inv)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # degree phi(12) = 4 with the classic palindromic coefficients
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_fourth_root_squares_to_minus_one():
    i = Cyclotomic(4, (0, 1))
    assert i * i == Cyclotomic(4, (-1,))
    assert i ** 4 == Cyclotomic(4, (1,))


def test_third_root_satisfies_quadratic():
    z = Cyclotomic(3, (0, 1))
    assert z * z + z + 1 == Cyclotomic(3, (0,))


def test_inverses_random(seed=5):
    rng = random.Random(seed)
    for order in (3, 4, 5, 8, 12):
        field = CyclotomicField(order)
        for _ in range(10):
            coeffs = tuple(Fraction(rng.randrange(-4, 5))
                           for _ in range(len(cyclotomic_polynomial(order)) - 1))
            a = Cyclotomic(order, coeffs)
            if not a:
                continue
            assert a * a.inverse() == field.one()


def test_mixed_orders_rejected():
    with pytest.raises(FieldMismatchError):
        Cyclotomic(3, (1,)) + Cyclotomic(4, (1,))


def test_rational_coercion():
    z = Cyclotomic(5, (0, 1))
    assert z + 1 == Cyclotomic(5, (1, 1))
    assert 2 * z == Cyclotomic(5, (0, 2))
    assert z - Fraction(1, 2) == Cyclotomic(5, (Fraction(-1, 2), 1))


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(ScalarFormatError):
        parse_rational("x")


def test_field_round_trip():
    for spec in ({"kind": "rational"}, {"kind": "cyclotomic", "order": 6}):
        field = field_from_spec(spec)
        assert field.to_spec() == spec
        for text in ("0", "1", "-2/3"):
            assert field.format(field.parse(text)) == text


def test_cyclotomic_parse_format_round_trip():
    field = CyclotomicField(8)
    a = field.parse("1/2 + 3*z^2 - z^3")
    assert field.parse(field.format(a)) == a


def test_rational_field_basics():
    field = RationalField()
    assert field.one() + field.one() == field.parse("2")
    assert field.zero() == Fraction(0)


def test_scalar_inv_keeps_int_units():
    for unit in (1, -1):
        assert type(scalar_inv(unit)) is int and scalar_inv(unit) == unit
    assert scalar_inv(2) == Fraction(1, 2)
    assert type(scalar_inv(2)) is Fraction
    assert scalar_inv(-3) == Fraction(-1, 3)
    # a field scalar keeps its type, even when its value is a unit
    assert type(scalar_inv(Fraction(-1))) is Fraction
    assert scalar_inv(Cyclotomic(4, (0, 1))) == Cyclotomic(4, (0, -1))
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0)


def test_integral_turns_only_rational_integers_into_int():
    for a, want in ((Fraction(3), 3), (Fraction(-2, 1), -2), (5, 5),
                    (Cyclotomic(4, (2,)), 2), (Cyclotomic(4, ()), 0),
                    (Cyclotomic(6, (-1,)), -1)):
        assert type(integral(a)) is int and integral(a) == want, a
    for a in (Fraction(1, 2), Cyclotomic(4, (Fraction(1, 2),)),
              Cyclotomic(4, (0, 1)), Cyclotomic(3, (1, 1))):
        assert integral(a) is a


ORDERS = (1, 2, 3, 4, 5, 8, 12)
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)
BINARY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__")
RATIONALS = st.one_of(st.integers(-4, 4),
                      st.fractions(-3, 3, max_denominator=4))


def cyclotomics(order):
    # up to phi(m) + 2 coefficients, so some need reducing modulo Phi_m
    deg = len(cyclotomic_polynomial(order)) - 1
    return st.lists(RATIONALS, max_size=deg + 2).map(
        lambda cs: Cyclotomic(order, cs))


@st.composite
def mixed_operands(draw):
    """(order, a Cyclotomic, an int, Fraction or Cyclotomic of that order)."""
    order = draw(st.sampled_from(ORDERS))
    a = draw(cyclotomics(order))
    return order, a, draw(st.one_of(RATIONALS, cyclotomics(order)))


def promoted(x, order):
    return x if isinstance(x, Cyclotomic) else Cyclotomic(order, [x])


def embedded(x, order):
    """x as a complex number, with zeta_m = exp(2 pi i / m): an oracle that
    shares no arithmetic with Cyclotomic."""
    zeta = cmath.exp(2j * cmath.pi / order)
    return sum(complex(c) * zeta ** i
               for i, c in enumerate(promoted(x, order).coeffs))


@settings(max_examples=120, deadline=None)
@given(mixed_operands(), st.booleans())
def test_rational_operands_act_as_constant_coefficients(case, swap):
    order, a, b = case
    x, y = (b, a) if swap else (a, b)
    for op in OPERATORS:
        if op is operator.truediv and not y:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        got = op(x, y)
        want = op(promoted(x, order), promoted(y, order))
        assert isinstance(got, Cyclotomic) and got.order == order
        assert got.coeffs == want.coeffs, (op, x, y)
        value = op(embedded(x, order), embedded(y, order))
        assert abs(embedded(got, order) - value) <= 1e-9 * max(1, abs(value))
        assert all(type(c) is Fraction for c in got.coeffs)
    if a:
        assert a * a.inverse() == 1
        assert all(type(c) is Fraction for c in a.inverse().coeffs)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(
    lambda m: st.tuples(cyclotomics(m), st.sampled_from(ORDERS).filter(
        lambda k: k != m).flatmap(cyclotomics))))
def test_every_operator_rejects_mixed_orders(pair):
    a, b = pair
    for name in BINARY_DUNDERS:
        with pytest.raises(FieldMismatchError):
            getattr(a, name)(b)
    for op in OPERATORS:
        with pytest.raises(FieldMismatchError):
            op(a, b)


def test_inverse_fails_loudly_on_an_irrational_norm(monkeypatch):
    # with every sigma_k replaced by the identity, the "norm" of 1 + zeta_4
    # is (1 + zeta_4)^2 = 2 zeta_4, which is not rational
    monkeypatch.setattr(Cyclotomic, "_galois", lambda self, k: self)
    with pytest.raises(AssertionError):
        Cyclotomic(4, (1, 1)).inverse()
