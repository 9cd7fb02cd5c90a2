"""Exact scalar arithmetic: rationals and cyclotomic extensions."""

import ast
import cmath
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PKG_ROOT
from hopfcyclic.fields import (Cyclotomic, CyclotomicField, FieldMismatchError,
                               RationalField, ScalarFormatError,
                               _poly_exact_div, cyclotomic_polynomial,
                               field_from_spec, parse_rational, scalar_inv)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # degree phi(12) = 4 with the classic palindromic coefficients
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_inexact_polynomial_division_raises():
    """A raise, not an assert, so python -O keeps the check."""
    with pytest.raises(ArithmeticError, match="nonexact"):
        _poly_exact_div([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2


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
            assert a * scalar_inv(a) == field.one()


def test_mixed_orders_rejected():
    with pytest.raises(FieldMismatchError):
        Cyclotomic(3, (1, 1)) + Cyclotomic(4, (1, 1))


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


def test_rational_field_is_the_order_one_cyclotomic_field():
    Q = RationalField()
    assert Q.order == 1 and Q.zeta() == 1
    assert Q == RationalField() and hash(Q) == hash(RationalField())
    assert Q != CyclotomicField(1) and CyclotomicField(1) != Q
    assert CyclotomicField(1).parse("z") == 1
    with pytest.raises(ScalarFormatError):
        Q.parse("z")  # a rational presentation holds no zeta


def test_cyclotomic_parse_format_round_trip():
    field = CyclotomicField(8)
    a = field.parse("1/2 + 3*z^2 - z^3")
    assert field.parse(field.format(a)) == a


@pytest.mark.parametrize("text", ["", " ", "+", "1 +", "1 + + z", "z^",
                                  "z^-1", "z^2^3"])
def test_malformed_cyclotomic_scalar_raises_format_error(text):
    # the same blank or dangling cell that parse_rational rejects over Q
    with pytest.raises(ScalarFormatError, match=re.escape(repr(text))):
        CyclotomicField(4).parse(text)


def test_cyclotomic_parse_accepts_a_leading_sign():
    field = CyclotomicField(4)
    assert field.parse("-z") == -field.zeta()
    assert field.parse("+z") == field.zeta()
    assert field.parse("-1/2 + z^3") == Fraction(-1, 2) - field.zeta()
    assert field.parse("1 + -z") == 1 - field.zeta()


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
    # the inverse is canonical: an int whenever its value is an integer
    assert type(scalar_inv(Fraction(-1))) is int
    assert type(scalar_inv(Fraction(1, 2))) is int
    assert scalar_inv(Cyclotomic(4, (0, 1))) == Cyclotomic(4, (0, -1))
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0)


ORDERS = (1, 2, 3, 4, 5, 8, 12)
# Q(zeta_1) = Q(zeta_2) = Q: only these orders have irrational scalars
IRRATIONAL_ORDERS = tuple(m for m in ORDERS
                          if len(cyclotomic_polynomial(m)) > 2)
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)
BINARY_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__")
RATIONALS = st.one_of(st.integers(-4, 4),
                      st.fractions(-3, 3, max_denominator=4))


def coefficient_lists(order):
    # up to phi(m) + 2 coefficients, so some need reducing modulo Phi_m
    deg = len(cyclotomic_polynomial(order)) - 1
    return st.lists(RATIONALS, max_size=deg + 2)


def cyclotomics(order):
    """Canonical scalars of Q(zeta_order): rational or Cyclotomic."""
    return coefficient_lists(order).map(lambda cs: Cyclotomic(order, cs))


def irrationals(order):
    return cyclotomics(order).filter(lambda x: isinstance(x, Cyclotomic))


def is_canonical_rational(q):
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def is_canonical(x, order):
    """x is in the canonical form of Q(zeta_order): an int for a rational
    integer, a Fraction for any other rational, else a reduced Cyclotomic
    of that order with a power of zeta_m left."""
    if not isinstance(x, Cyclotomic):
        return is_canonical_rational(x)
    deg = len(cyclotomic_polynomial(order)) - 1
    return (x.order == order and 2 <= len(x.coeffs) <= deg
            and x.coeffs[-1] != 0
            and all(is_canonical_rational(c) for c in x.coeffs))


def coefficients(x):
    return x.coeffs if isinstance(x, Cyclotomic) else (x,)


def value_of(coeffs, order):
    """sum c_i zeta_m^i as a complex number, with zeta_m = exp(2 pi i / m):
    an oracle that shares no arithmetic with Cyclotomic."""
    zeta = cmath.exp(2j * cmath.pi / order)
    return sum(complex(c) * zeta ** i for i, c in enumerate(coeffs))


def embedded(x, order):
    return value_of(coefficients(x), order)


def close(got, want):
    return abs(got - want) <= 1e-9 * max(1, abs(want))


def as_text(cs):
    """Coefficients c_k written as 'c0 + c1*z^1 + ...', parse's format."""
    return " + ".join(f"{c}*z^{k}" if k else str(c)
                      for k, c in enumerate(cs)) or "0"


def divide(x, y):
    """The field's division.  Between two rationals / is Python's, and
    int / int is a float, so they divide through scalar_inv."""
    if isinstance(x, Cyclotomic) or isinstance(y, Cyclotomic):
        return x / y
    return x * scalar_inv(y)


@st.composite
def parsed_operands(draw):
    """(order, two coefficient lists) for a Q(zeta_order) parse."""
    order = draw(st.sampled_from(ORDERS))
    return order, draw(coefficient_lists(order)), draw(coefficient_lists(order))


@settings(max_examples=150, deadline=None)
@given(parsed_operands())
def test_fields_return_the_canonical_form(case):
    """Field constants, parse, scalar_inv, inverse and every operator with
    a Cyclotomic operand return the canonical form; arithmetic on two
    rationals is Python's, exact but not always canonical in type
    (Fraction(1, 2) * 2 is Fraction(1, 1)).  Every value agrees with the
    complex oracle."""
    order, xs, ys = case
    field = CyclotomicField(order)
    for f in (RationalField(), field):
        assert type(f.zero()) is int and f.zero() == 0
        assert type(f.one()) is int and f.one() == 1
    assert is_canonical(field.zeta(), order)
    assert close(embedded(field.zeta(), order), value_of((0, 1), order))
    q = RationalField().parse(str(sum(xs, Fraction(0))))
    assert is_canonical_rational(q) and q == sum(xs, Fraction(0))
    x, y = field.parse(as_text(xs)), field.parse(as_text(ys))
    for v, cs in ((x, xs), (y, ys)):
        assert is_canonical(v, order), (v, cs)
        assert close(embedded(v, order), value_of(cs, order))
    for op, field_op in zip(OPERATORS, OPERATORS[:3] + (divide,)):
        if op is operator.truediv and not y:
            with pytest.raises(ZeroDivisionError):
                field_op(x, y)
            continue
        got = field_op(x, y)
        if isinstance(x, Cyclotomic) or isinstance(y, Cyclotomic):
            assert is_canonical(got, order), (op, x, y, got)
        else:
            assert type(got) in (int, Fraction), (op, x, y, got)
        assert close(embedded(got, order),
                     op(embedded(x, order), embedded(y, order)))
    if x:
        inv = scalar_inv(x)
        assert is_canonical(inv, order) and x * inv == 1
        assert close(embedded(inv, order), 1 / embedded(x, order))
        if isinstance(x, Cyclotomic):
            assert x.inverse() == inv


@st.composite
def mixed_operands(draw):
    """(order, a Cyclotomic, an int, Fraction or Cyclotomic of that order)."""
    order = draw(st.sampled_from(IRRATIONAL_ORDERS))
    a = draw(irrationals(order))
    return order, a, draw(st.one_of(RATIONALS, cyclotomics(order)))


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
        assert is_canonical(got, order), (op, x, y)
        value = op(embedded(x, order), embedded(y, order))
        assert close(embedded(got, order), value)
    assert a * a.inverse() == 1
    assert is_canonical(a.inverse(), order)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(IRRATIONAL_ORDERS).flatmap(
    lambda m: st.tuples(irrationals(m), st.sampled_from(
        IRRATIONAL_ORDERS).filter(lambda k: k != m).flatmap(irrationals))))
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
    # is (1 + zeta_4)^2 = 2 zeta_4, which is not rational; a raise, not an
    # assert, so python -O keeps the check
    monkeypatch.setattr(Cyclotomic, "_galois", lambda self, k: self)
    with pytest.raises(ArithmeticError, match="not rational"):
        Cyclotomic(4, (1, 1)).inverse()


def test_inverse_of_int_coefficients_is_exact():
    """int coefficients and an int norm must not divide as int / int, which
    would give floats: 1 / (1 + 2 zeta_m) has Fraction coefficients."""
    for order in IRRATIONAL_ORDERS:
        a = Cyclotomic(order, (1, 2))
        inv = a.inverse()
        assert all(type(c) in (int, Fraction) for c in inv.coeffs), inv
        assert is_canonical(inv, order) and a * inv == 1


def test_every_division_has_a_fraction_operand():
    """With canonical int scalars, int / int would be a float: every / in
    the package must have an explicit Fraction(...) operand."""
    def is_fraction_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction")

    sources = sorted((PKG_ROOT / "src" / "hopfcyclic").glob("*.py"))
    assert sources
    bad = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and not (is_fraction_call(node.left)
                             or is_fraction_call(node.right))):
                bad.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                bad.append(f"{path.name}:{node.lineno}")
    assert not bad, bad
