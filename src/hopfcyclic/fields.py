"""Exact ground fields: the rationals and cyclotomic extensions Q(zeta_m).

Every scalar has one canonical form, whichever field it came from:

- a scalar whose value is a rational integer is an ``int``;
- any other rational is a ``Fraction``;
- a ``Cyclotomic`` only ever holds an irrational value: a polynomial in
  zeta_m of degree < phi(m), reduced modulo the m-th cyclotomic
  polynomial, with canonical rational coefficients.

The field constants, ``parse``, every ``Cyclotomic`` operator, ``inverse``
and ``scalar_inv`` return this form; ``Cyclotomic(m, coeffs)`` itself
returns an ``int`` or ``Fraction`` when the value is rational.  The
rationals are thus shared by Q and every Q(zeta_m), so an integral
presentation yields ``int`` structure constants, matrices and elimination
rows, and a ``Fraction`` or ``Cyclotomic`` appears only where a
non-integral value occurs.  Plain ``int``/``Fraction`` arithmetic elsewhere
stays exact and equal by value (``Fraction(1, 2) * 2 == 1``), though it may
not be canonical in type.  No code divides one ``int`` by another: every
``/`` has an explicit ``Fraction`` operand.  As every field's 0 and 1 are
the ``int`` 0 and 1, package code writes them as literals; ``zero()`` and
``one()`` remain for callers outside the package.  Sparse vectors are
combined with ``hopf.linear`` (sum of c * image(k)) and ``hopf.evaluate``
(sum of c * values[k]), the key-level counterparts of ``linalg.combine``,
which stays the one inlined matrix kernel.

An ``int`` or ``Fraction`` operand of a ``Cyclotomic`` operator is its own
constant coefficient.  Two ``Cyclotomic`` scalars of different orders never
mix (``FieldMismatchError``).  The inverse is a^-1 = prod sigma_k(a) / N(a)
over the Galois automorphisms sigma_k: zeta_m -> zeta_m^k with k != 1 prime
to m, where the norm N(a) = a * prod sigma_k(a) is rational; division is
multiplication by ``scalar_inv``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd


class FieldMismatchError(Exception):
    """Raised when scalars from incompatible ground fields are combined."""


class ScalarFormatError(ValueError):
    """Raised when a scalar string cannot be parsed."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Integer coefficient list of Phi_m, lowest degree first."""
    if m < 1:
        raise ValueError("order must be >= 1")
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m.
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_exact_div(num, den):
    """Exact division of integer polynomials, lowest degree first;
    ArithmeticError when it leaves a remainder."""
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("nonexact polynomial division")
    return out


def _poly_trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


class Cyclotomic:
    """Irrational element of Q(zeta_m), immutable.

    ``Cyclotomic(m, coeffs)`` reduces the coefficients modulo Phi_m and
    returns the canonical scalar: the rational itself when no power of
    zeta_m is left, else a ``Cyclotomic``.
    """

    __slots__ = ("order", "coeffs")

    def __new__(cls, order, coeffs):
        phi = cyclotomic_polynomial(order)
        cs = list(coeffs)
        if len(cs) >= len(phi):
            cs = _reduce_mod(cs, phi)
        cs = [rational(c) for c in _poly_trim(cs)]
        if len(cs) <= 1:
            return cs[0] if cs else 0
        self = super().__new__(cls)
        self.order = order
        self.coeffs = tuple(cs)
        return self

    def _operand(self, other):
        """The coefficients of ``other`` in this field, or None if it is not
        a scalar.  An ``int`` or ``Fraction`` is its own constant
        coefficient; a ``Cyclotomic`` of another order raises."""
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatchError(
                    f"cannot mix Q(zeta_{self.order}) and Q(zeta_{other.order})")
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return (other,) if other else ()
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, [
            x + y for x, y in zip_longest(self.coeffs, o, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, [
            x - y for x, y in zip_longest(self.coeffs, o, fillvalue=0)])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, [
            y - x for x, y in zip_longest(self.coeffs, o, fillvalue=0)])

    def __mul__(self, other):
        # b, 1 - lambda and elimination mostly multiply by the int 1 or -1
        if type(other) is int:
            if other == 1:
                return self
            if other == -1:
                return -self
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o:
            return 0
        prod = [0] * (len(self.coeffs) + len(o) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o):
                    prod[i + j] += a * b
        return Cyclotomic(self.order, prod)

    __rmul__ = __mul__

    def _galois(self, k):
        """sigma_k(self) for k prime to the order: zeta_m goes to zeta_m^k."""
        cs = [0] * self.order
        for i, c in enumerate(self.coeffs):
            cs[i * k % self.order] += c
        return Cyclotomic(self.order, cs)

    def inverse(self):
        """1 / a = (prod of sigma_k(a), k != 1) / N(a), where the norm
        N(a) = a * prod sigma_k(a) is rational; ArithmeticError if not."""
        m = self.order
        conjugates = 1
        for k in range(2, m):
            if gcd(k, m) == 1:
                conjugates = conjugates * self._galois(k)
        norm = self * conjugates
        if isinstance(norm, Cyclotomic):
            raise ArithmeticError(f"norm of {self!r} is not rational")
        return conjugates * scalar_inv(norm)

    def __truediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self * scalar_inv(other)

    def __rtruediv__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = 1
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)!r})"

    def __str__(self):
        return format_scalar(self)


def _reduce_mod(coeffs, phi):
    """Reduce a coefficient list modulo the monic integer polynomial phi."""
    cs = list(coeffs)
    deg = len(phi) - 1
    for k in range(len(cs) - 1, deg - 1, -1):
        c = cs[k]
        if c:
            for i in range(deg):
                cs[k - deg + i] -= c * phi[i]
    return cs[:deg]


def rational(q):
    """The canonical form of the rational q: an ``int`` when its value is
    an integer, else a ``Fraction``."""
    return q.numerator if q.denominator == 1 else q


def scalar_inv(a):
    """Multiplicative inverse, in canonical form; raises ZeroDivisionError
    on zero."""
    if isinstance(a, Cyclotomic):
        return a.inverse()
    return rational(1 / Fraction(a))


class CyclotomicField:
    """Q(zeta_m); ``RationalField`` is its order-1 case, Q itself."""
    kind = "cyclotomic"

    def __init__(self, order):
        if type(order) is not int or order < 1:
            raise ValueError(
                f"cyclotomic order must be a positive integer, not {order!r}")
        self.order = order

    def zero(self):
        return 0

    def one(self):
        return 1

    def zeta(self):
        return Cyclotomic(self.order, [0, 1])

    def parse(self, text):
        return parse_cyclotomic(text, self.order)

    def format(self, a):
        return format_scalar(a)

    def __eq__(self, other):
        return type(other) is type(self) and other.order == self.order

    def __hash__(self):
        return hash((self.kind, self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    def to_spec(self):
        return {"kind": "cyclotomic", "order": self.order}


class RationalField(CyclotomicField):
    """Q as Q(zeta_1); its scalars are parsed as rationals, so a "z" in
    a rational presentation is refused."""
    kind = "rational"

    def __init__(self):
        super().__init__(1)

    def parse(self, text):
        return parse_rational(text)

    def __repr__(self):
        return "RationalField()"

    def to_spec(self):
        return {"kind": "rational"}


def field_from_spec(spec):
    if not isinstance(spec, dict):
        raise ScalarFormatError(f"field spec must be a mapping, not {spec!r}")
    kind = spec.get("kind")
    if kind == "rational":
        return RationalField()
    if kind == "cyclotomic":
        return CyclotomicField(spec["order"])
    raise ScalarFormatError(f"unknown field kind: {kind!r}")


def parse_rational(text):
    try:
        return rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarFormatError(f"bad rational {text!r}") from exc


def parse_cyclotomic(text, order):
    """Parse 'c0 + c1*z + c2*z^2 + ...' (rational coefficients) in Q(zeta_m).

    Terms are joined by '+' or '-' ('+ -' is '-'), and the first may lead
    with a sign.  An empty term or an exponent that is not a nonnegative
    integer raises ScalarFormatError naming the text."""
    deg = len(cyclotomic_polynomial(order)) - 1
    coeffs = [0] * max(deg, 1)
    terms = text.replace("-", "+-").split("+")
    for i, term in enumerate(terms):
        term = term.strip()
        if not term:
            if i + 1 < len(terms) and (
                    i == 0 or terms[i + 1].lstrip().startswith("-")):
                continue  # a leading sign, or the '+' of '+ -'
            raise ScalarFormatError(f"empty term in {text!r}")
        if "z" in term:
            head, _, tail = term.partition("z")
            head = head.strip().rstrip("*").strip()
            if head in ("", "-"):
                head += "1"
            tail = tail.strip()
            if tail.startswith("^"):
                digits = tail[1:].strip()
                if not (digits.isascii() and digits.isdigit()):
                    raise ScalarFormatError(
                        f"bad exponent {tail!r} in {text!r}")
                power = int(digits)
            elif tail == "":
                power = 1
            else:
                raise ScalarFormatError(f"bad cyclotomic term {term!r}")
            if power >= len(coeffs):
                coeffs.extend([0] * (power + 1 - len(coeffs)))
            coeffs[power] += parse_rational(head)
        else:
            coeffs[0] += parse_rational(term)
    return Cyclotomic(order, coeffs)


def format_scalar(a):
    if isinstance(a, Cyclotomic):
        parts = []
        for power, c in enumerate(a.coeffs):
            if not c:
                continue
            if power == 0:
                parts.append(str(c))
            else:
                z = "z" if power == 1 else f"z^{power}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out
    return str(a)
