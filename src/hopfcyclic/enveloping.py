"""Universal enveloping algebras U(g) in the Poincare-Birkhoff-Witt basis.

Elements are finite linear combinations of ordered monomials
X_1^{a_1} ... X_n^{a_n}, keyed by their exponent vectors.  Products are
straightened recursively: swapping an out-of-order pair X_j X_i (j > i)
via the bracket never raises total degree and strictly lowers the number
of inversions at fixed degree, so rewriting terminates.

Generators are primitive, which fixes the coproduct, counit and antipode.
The canonical character is the trace of the adjoint representation.
"""

from __future__ import annotations

import itertools
import math

from .fields import RationalField, rational
from .hopf import FiniteHopf, linear, vec_add_into, vec_eq, vec_scale
from .reports import first_failure

_RATIONAL = RationalField()
SAMPLE_DEGREE = 2  # total degree bound of the monomial sample tensors
RANDOM_SAMPLES = 3  # seeded random combinations per tensor degree


class LieAlgebra:
    """Lie algebra by structure constants: [X_i, X_j] = sum_k c^k_ij X_k.

    Antisymmetry and the Jacobi identity are checked at construction.
    """

    def __init__(self, dim, brackets, name=None):
        self.dim = dim
        self.name = name or f"lie-{dim}"
        self.brackets = {}  # (i, j) -> {k: c}, stored for all i != j
        table = {}
        for (i, j), comb in brackets.items():
            comb = {k: rational(v) for k, v in comb.items() if v}
            if i == j and comb:
                raise ValueError(f"[X{i},X{i}] must vanish")
            table[(i, j)] = comb
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                if (i, j) in table and (j, i) in table and not vec_eq(
                        table[(i, j)], vec_scale(-1, table[(j, i)])):
                    raise ValueError(f"brackets not antisymmetric at ({i},{j})")
                if (i, j) in table:
                    self.brackets[(i, j)] = table[(i, j)]
                else:
                    self.brackets[(i, j)] = vec_scale(-1, table.get((j, i), {}))
        self._check_jacobi()

    def bracket(self, i, j):
        if i == j:
            return {}
        return self.brackets.get((i, j), {})

    def _bracket_elem(self, a, b):
        """[a, b] for elements given as sparse generator combinations."""
        return linear(lambda i: linear(lambda j: self.bracket(i, j), b), a)

    def _check_jacobi(self):
        def jacobi(ijk):
            i, j, k = ijk
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                vec_add_into(total, self._bracket_elem(self.bracket(a, b),
                                                       {c: 1}))
            return not total

        ok, ijk = first_failure(itertools.product(range(self.dim), repeat=3),
                                jacobi)
        if not ok:
            raise ValueError("Jacobi identity fails at ({},{},{})".format(*ijk))

    def adjoint_trace_character(self):
        """delta(X_i) = trace(ad X_i) = sum_j c^j_ij, as generator values."""
        return [sum(self.bracket(i, j).get(j, 0) for j in range(self.dim))
                for i in range(self.dim)]


def abelian_lie_algebra(dim):
    return LieAlgebra(dim, {}, name=f"abelian-{dim}")


def ax_plus_b_lie_algebra():
    """Two generators with [X, Y] = Y."""
    return LieAlgebra(2, {(0, 1): {1: 1}}, name="ax+b")


class SymbolicCharacter:
    """Character of U(g), held as ``hopf``, determined by its values on the
    generators."""

    name = "delta"

    def __init__(self, hopf, gen_values):
        self.hopf = hopf
        self.gen_values = [rational(v) for v in gen_values]

    def value(self, key):
        out = 1
        for i, a in enumerate(key):
            if a:
                out *= self.gen_values[i] ** a
        return out


class EnvelopingAlgebra:
    """U(g) with the PBW monomial basis.

    Basis keys are exponent tuples; the empty monomial (0,...,0) is 1.
    Provides the same basis/element interface as FiniteHopf, so the cyclic
    operator machinery runs unchanged on symbolic elements.
    """

    def __init__(self, lie):
        self.lie = lie
        self.name = f"U({lie.name})"
        self.dim = None  # infinite-dimensional
        self.field = _RATIONAL
        self._one_key = (0,) * lie.dim
        self._gen_mul_cache = {}
        self._comul_cache = {}

    def __repr__(self):
        return f"EnvelopingAlgebra({self.lie.name!r})"

    def monomial(self, exponents):
        key = tuple(exponents)
        if len(key) != self.lie.dim:
            raise ValueError("exponent vector has wrong length")
        return {key: 1}

    def generator(self, i):
        key = [0] * self.lie.dim
        key[i] = 1
        return {tuple(key): 1}

    def unit_element(self):
        return {self._one_key: 1}

    def counit_basis(self, key):
        return 0 if any(key) else 1

    # -- product with straightening

    def _mono_times_gen(self, mono, i):
        """Normal form of (monomial) * X_i."""
        cached = self._gen_mul_cache.get((mono, i))
        if cached is not None:
            return cached
        j = max((idx for idx, a in enumerate(mono) if a), default=-1)
        if j <= i:
            out = list(mono)
            out[i] += 1
            result = {tuple(out): 1}
        else:
            # mono = head * X_j with j > i:  X_j X_i = X_i X_j + [X_j, X_i]
            head = list(mono)
            head[j] -= 1
            head = tuple(head)
            result = {}
            for m, c in self._mono_times_gen(head, i).items():
                lifted = list(m)
                lifted[j] += 1
                result[tuple(lifted)] = c
            for k, c in self.lie.bracket(j, i).items():
                vec_add_into(result, self._mono_times_gen(head, k), c)
        self._gen_mul_cache[(mono, i)] = result
        return result

    def _elem_times_gen(self, a, i):
        return linear(lambda m: self._mono_times_gen(m, i), a)

    def mul(self, a, b):
        out = {}
        for m, c in b.items():
            part = a
            for i, power in enumerate(m):
                for _ in range(power):
                    part = self._elem_times_gen(part, i)
            vec_add_into(out, part, c)
        return out

    # -- coproduct: generators primitive, extended multiplicatively

    def comul_basis(self, key):
        """Delta of a PBW monomial, computed once per key; the returned dict
        is the memo's own and is only read.  The X_i are primitive and
        X_i (x) 1 commutes with 1 (x) X_j, so Delta(X^a) = sum over b <= a
        of prod_i C(a_i, b_i) X^b (x) X^(a-b), both legs in PBW order."""
        cached = self._comul_cache.get(key)
        if cached is None:
            cached = self._comul_cache[key] = {
                (low, tuple(a - b for a, b in zip(key, low))):
                    math.prod(map(math.comb, key, low))
                for low in itertools.product(*(range(a + 1) for a in key))}
        return cached

    # -- antipode: S(X_i) = -X_i, extended antimultiplicatively

    def antipode_basis(self, key):
        total = sum(key)
        rev = self.unit_element()
        # reversed product X_n^{a_n} ... X_1^{a_1}
        for i in range(len(key) - 1, -1, -1):
            for _ in range(key[i]):
                rev = self._elem_times_gen(rev, i)
        return vec_scale(1 if total % 2 == 0 else -1, rev)

    # FiniteHopf's Delta, S, twist and S~ on elements read only comul_basis
    # and antipode_basis, so they run on PBW keys unchanged
    comul = FiniteHopf.comul
    antipode_of = FiniteHopf.antipode_of
    twist_automorphism = FiniteHopf.twist_automorphism
    twisted_antipode = FiniteHopf.twisted_antipode

    def modular_character(self):
        return SymbolicCharacter(self, self.lie.adjoint_trace_character())

    def monomials_up_to_degree(self, max_degree):
        """All PBW exponent vectors of total degree <= max_degree, lex order."""
        return [m for m in itertools.product(range(max_degree + 1),
                                             repeat=self.lie.dim)
                if sum(m) <= max_degree]


def tensor_samples(algebra, N_max, rng):
    """Sample tensors for relation checks on a rule-based algebra: all
    monomial tensors of total degree at most SAMPLE_DEGREE, plus
    RANDOM_SAMPLES seeded random linear combinations per degree."""
    monos = algebra.monomials_up_to_degree(SAMPLE_DEGREE)
    samples = {}
    # (tuple, total degree) in lexicographic order, extended one factor a
    # degree while the total stays within SAMPLE_DEGREE
    combos = [((), 0)]
    for n in range(N_max + 1):
        if n:
            combos = [(combo + (m,), d + sum(m)) for combo, d in combos
                      for m in monos if d + sum(m) <= SAMPLE_DEGREE]
        ts = [{combo: 1} for combo, _ in combos]
        if n >= 1:
            for _ in range(RANDOM_SAMPLES):
                t = {}
                for _ in range(2):
                    key = tuple(rng.choice(monos) for _ in range(n))
                    c = rng.randrange(-3, 4) or 1
                    t[key] = t.get(key, 0) + c
                t = {k: v for k, v in t.items() if v}
                if t:
                    ts.append(t)
        samples[n] = ts
    return samples
