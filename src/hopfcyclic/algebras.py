"""Finite-dimensional associative unital algebras by structure constants."""

from __future__ import annotations

import itertools

from .fields import RationalField
from .hopf import vec_add_into, vec_eq
from .reports import first_failure


class FiniteAlgebra:
    """Associative unital algebra: product tensor (i, j) -> {k: c}.

    Associativity and unitality are verified at construction.
    """

    def __init__(self, name, field, basis, unit, product):
        self.name = name
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.unit = {k: v for k, v in unit.items() if v}
        self.product = {k: {i: c for i, c in v.items() if c}
                        for k, v in product.items()}
        self._validate()

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, dim={self.dim})"

    def mul_basis(self, i, j):
        return self.product.get((i, j), {})

    def basis_element(self, i):
        return {i: self.field.one()}

    def unit_element(self):
        return dict(self.unit)

    def mul(self, a, b):
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                vec_add_into(out, self.mul_basis(i, j), ca * cb)
        return out

    def _validate(self):
        one = self.unit_element()
        basis = self.basis_element

        def unital(i):
            e = basis(i)
            return vec_eq(self.mul(one, e), e) and vec_eq(self.mul(e, one), e)

        def associative(ijk):
            i, j, k = map(basis, ijk)
            return vec_eq(self.mul(self.mul(i, j), k),
                          self.mul(i, self.mul(j, k)))

        ok, i = first_failure(range(self.dim), unital)
        if not ok:
            raise ValueError(f"{self.name}: unit law fails at basis {i}")
        ok, ijk = first_failure(
            itertools.product(range(self.dim), repeat=3), associative)
        if not ok:
            raise ValueError(
                "{}: associativity fails at ({},{},{})".format(self.name, *ijk))

    def reverse_product_table(self):
        """k -> list of (i, j, c) with e_i e_j containing c * e_k."""
        rev = {k: [] for k in range(self.dim)}
        for (i, j), comb in self.product.items():
            for k, c in comb.items():
                rev[k].append((i, j, c))
        for k in rev:
            rev[k].sort(key=lambda t: (t[0], t[1]))
        return rev


def algebra_of_hopf(H):
    """The underlying associative algebra of a FiniteHopf."""
    return FiniteAlgebra(H.name, H.field, H.basis, dict(H.unit),
                         {k: dict(v) for k, v in H.product.items()})


def matrix_algebra(n, field=None):
    """Full matrix algebra M_n(k) with basis e_{rc} in row-major order."""
    field = field or RationalField()
    one = field.one()
    basis = [f"e{r}{c}" for r in range(n) for c in range(n)]
    product = {}
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    i = r * n + c
                    j = r2 * n + c2
                    product[(i, j)] = {r * n + c2: one} if c == r2 else {}
    unit = {r * n + r: one for r in range(n)}
    return FiniteAlgebra(f"M{n}", field, basis, unit, product)
