"""Finite-dimensional algebras and Hopf algebras given by structure constants.

A ``FiniteAlgebra`` carries a product tensor and a unit over an exact
field and rejects, at construction, a table that breaks the unit law or
associativity.  A ``FiniteHopf`` is a FiniteAlgebra that also carries a
coproduct, counit, antipode and named characters; it shares the algebra's
storage, product and law predicates, and is never rejected at
construction.  Elements are sparse maps basis index -> scalar, and a map
given on basis elements extends to them through ``linear`` (to vectors)
or ``evaluate`` (to scalars).  Checker routines verify every Hopf axiom
and the twisted-antipode properties on basis elements; by linearity that
settles them everywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .fields import RationalField, rational, scalar_inv
from .reports import CheckReport, first_failure


class CharacterError(Exception):
    """Raised when a claimed character fails its defining identities."""


# ---------------------------------------------------------------------------
# sparse linear-combination helpers (shared by elements and tensors)

def vec_add_into(out, vec, c=1):
    """out += c * vec in place, dropping entries that cancel; returns out.

    ``out`` must be a dict the caller owns: a fresh accumulator, never a
    structure table's own dict (``mul_basis``, ``comul_basis``,
    ``antipode_basis`` and ``HopfAction.act_basis`` return those), a cached
    result or an argument that belongs to the caller's caller.  The cached
    results are U(g)'s generator products and ``comul_basis`` memo, and a
    ``HopfCyclicModule``'s tau images, slot-product table and twisted legs.
    ``vec`` is only read.  With c = 1 the entries of ``vec`` are added as
    they are, without a multiplication.
    """
    if not c:
        return out
    items = vec.items() if c == 1 else ((k, c * v) for k, v in vec.items())
    for k, v in items:
        w = out.get(k)
        s = v if w is None else w + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def linear(image, vec):
    """sum_k vec[k] * image(k) as a fresh dict: the linear extension of a
    map given on basis keys.  The dicts ``image`` returns are only read, so
    it may return a structure table's own dict or a cached result."""
    out = {}
    for k, c in vec.items():
        vec_add_into(out, image(k), c)
    return out


def evaluate(values, vec):
    """sum_k vec[k] * values[k]: a functional given by its values on the
    basis, applied to a sparse vector."""
    return sum(c * values[k] for k, c in vec.items())


def vec_scale(c, a):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def vec_sub(a, b):
    return vec_add_into(dict(a), b, -1)


def vec_eq(a, b):
    """a == b as linear combinations, an absent key counting as 0."""
    return (all(b.get(k, 0) == v for k, v in a.items())
            and all(k in a or not v for k, v in b.items()))


class Character:
    """Algebra homomorphism H -> k, stored as its value vector on the basis.

    Validated eagerly: delta(1) = 1 and delta(e_i e_j) = delta(e_i) delta(e_j)
    for all basis pairs.
    """

    def __init__(self, hopf, values, name="delta"):
        if len(values) != hopf.dim:
            raise CharacterError("character value vector has wrong length")
        self.hopf = hopf
        self.values = list(values)
        self.name = name
        if evaluate(self.values, hopf.unit) != 1:
            raise CharacterError("character does not send 1 to 1")

        def multiplicative(pair):
            return evaluate(self.values, hopf.mul_basis(*pair)) == \
                self.values[pair[0]] * self.values[pair[1]]

        ok, pair = first_failure(
            itertools.product(range(hopf.dim), repeat=2), multiplicative)
        if not ok:
            raise CharacterError(
                "character not multiplicative at basis pair ({},{})".format(
                    *pair))

    def value(self, key):
        return self.values[key]


class FiniteAlgebra:
    """Associative unital algebra by structure constants.

    product:    dict (i, j) -> {k: c}   meaning e_i e_j = sum c e_k
    unit:       sparse element of 1

    The unit law, then associativity, is checked at construction, and the
    first basis case where one fails raises ValueError.
    """

    def __init__(self, name, field, basis, unit, product):
        self.name = name
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.unit = {k: v for k, v in unit.items() if v}
        self.product = {k: {i: c for i, c in v.items() if c}
                        for k, v in product.items()}
        self._check_laws()

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, dim={self.dim})"

    def _check_laws(self):
        ok, i = first_failure(range(self.dim), self.unital)
        if not ok:
            raise ValueError(f"{self.name}: unit law fails at basis {i}")
        ok, ijk = first_failure(_basis_cases(self, 3),
                                lambda ijk: self.associative(*ijk))
        if not ok:
            raise ValueError(
                "{}: associativity fails at ({},{},{})".format(self.name, *ijk))

    # -- the algebra laws on basis elements; check_hopf_axioms reads them too

    def unital(self, i):
        """1 e_i = e_i = e_i 1."""
        e = self.basis_element(i)
        return (vec_eq(self.mul(self.unit, e), e)
                and vec_eq(self.mul(e, self.unit), e))

    def associative(self, i, j, k):
        """(e_i e_j) e_k = e_i (e_j e_k)."""
        i, j, k = map(self.basis_element, (i, j, k))
        return vec_eq(self.mul(self.mul(i, j), k),
                      self.mul(i, self.mul(j, k)))

    # -- basis and element level

    def mul_basis(self, i, j):
        return self.product.get((i, j), {})

    def basis_element(self, i):
        return {i: 1}

    def unit_element(self):
        return dict(self.unit)

    def mul(self, a, b):
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                c = ca * cb
                for k, ck in self.mul_basis(i, j).items():
                    s = out.get(k, 0) + c * ck
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def reverse_product_table(self):
        """k -> list of (i, j, c) with e_i e_j containing c * e_k."""
        rev = {k: [] for k in range(self.dim)}
        for (i, j), comb in self.product.items():
            for k, c in comb.items():
                rev[k].append((i, j, c))
        for k in rev:
            rev[k].sort(key=lambda t: (t[0], t[1]))
        return rev


class FiniteHopf(FiniteAlgebra):
    """Hopf algebra by structure constants: a FiniteAlgebra with

    coproduct:  dict i -> {(j, k): c}   meaning Delta(e_i) = sum c e_j (x) e_k
    counit:     list of scalars
    antipode:   dict i -> {j: c}        meaning S(e_i) = sum c e_j

    Its axioms, the algebra laws among them, are reported by
    ``check_hopf_axioms`` and never raise at construction.
    """

    def __init__(self, name, field, basis, unit, product, coproduct,
                 counit, antipode, characters=None):
        super().__init__(name, field, basis, unit, product)
        self.coproduct = {k: {p: c for p, c in v.items() if c}
                          for k, v in coproduct.items()}
        self.counit = list(counit)
        self.antipode = {k: {i: c for i, c in v.items() if c}
                         for k, v in antipode.items()}
        self.characters = {}
        for cname, values in (characters or {}).items():
            self.characters[cname] = Character(self, values, name=cname)

    def _check_laws(self):
        """check_hopf_axioms reports the algebra laws as rows instead."""

    # bench/tracing.py wraps mul in FiniteHopf's own __dict__
    mul = FiniteAlgebra.mul

    # -- basis-level structure maps

    def comul_basis(self, i):
        return self.coproduct.get(i, {})

    def counit_basis(self, i):
        return self.counit[i]

    def antipode_basis(self, i):
        return self.antipode.get(i, {})

    # -- element-level maps

    def counit_of(self, a):
        return evaluate(self.counit, a)

    # -- Delta, S, the twist and S~ on elements, read only through
    # comul_basis and antipode_basis; EnvelopingAlgebra runs them on U(g) too

    def comul(self, a):
        return linear(self.comul_basis, a)

    def antipode_of(self, a):
        return linear(self.antipode_basis, a)

    def twist_automorphism(self, delta, a):
        """sigma(h) = sum delta(h_(1)) h_(2) = (delta (x) id) Delta(h); an
        algebra automorphism."""
        return linear(lambda pair: {pair[1]: delta.value(pair[0])},
                      self.comul(a))

    def twisted_antipode(self, delta, a):
        """S~(h) = sum delta(h_(1)) S(h_(2))."""
        return self.antipode_of(self.twist_automorphism(delta, a))

    def character(self, name):
        try:
            return self.characters[name]
        except KeyError:
            raise CharacterError(
                f"{self.name} has no character named {name!r}") from None

    def counit_character(self):
        return Character(self, list(self.counit), name="counit")


def rebased(delta):
    """(delta', p): delta and its Hopf algebra H, as delta'.hopf, in the
    basis f_p = 1 and f_i = e_i - eps(e_i) 1 for i != p, where p is the
    lowest index in the support of the unit.  eps(f_p) = 1 and eps(f_i) = 0
    for i != p, so the f_i with i != p span ker eps.  Back in the basis f,
    e_i = f_i + eps(e_i) f_p for i != p and, as eps(1) = 1, e_p = eps(e_p)
    f_p - sum_(k != p) (u_k/u_p) f_k for the unit 1 = sum u_k e_k.  Basis
    labels are kept."""
    H = delta.hopf
    unit, eps = H.unit, H.counit
    p = min(unit)
    inv = scalar_inv(unit[p])
    old = [dict(unit) if i == p else vec_add_into({i: 1}, unit, -eps[i])
           for i in range(H.dim)]
    new = [vec_add_into({i: 1}, {p: eps[i]}) for i in range(H.dim)]
    new[p] = vec_add_into({p: eps[p]}, {k: u * inv for k, u in unit.items()
                                        if k != p}, -1)

    def canonical(x):
        return rational(x) if isinstance(x, Fraction) else x

    def to_new(image, vec):
        return {k: canonical(v) for k, v in linear(image, vec).items()}

    def pair_to_new(ab):
        return {(x, y): cx * cy for x, cx in new[ab[0]].items()
                for y, cy in new[ab[1]].items()}

    def value(values, vec):
        return canonical(evaluate(values, vec))

    Hr = FiniteHopf(
        H.name, H.field, H.basis, {p: 1},
        {(i, j): to_new(new.__getitem__, H.mul(old[i], old[j]))
         for i in range(H.dim) for j in range(H.dim)},
        {i: to_new(pair_to_new, H.comul(old[i])) for i in range(H.dim)},
        [value(eps, vec) for vec in old],
        {i: to_new(new.__getitem__, H.antipode_of(old[i]))
         for i in range(H.dim)})
    return Character(Hr, [value(delta.values, vec) for vec in old],
                     name=delta.name), p


# ---------------------------------------------------------------------------
# axiom checkers


def _basis_cases(H, arity):
    """All basis index tuples of the given length, lazily, in lex order."""
    return itertools.product(range(H.dim), repeat=arity)


def check_hopf_axioms(H):
    """Verify all Hopf axioms on basis elements; returns a CheckReport."""
    report = CheckReport(f"hopf-axioms[{H.name}]")
    one = H.unit_element()
    basis = H.basis_element

    def coassociative(case):
        coproduct = H.comul_basis(case[0])
        return vec_eq(
            linear(lambda jk: {(a, b, jk[1]): d for (a, b), d
                               in H.comul_basis(jk[0]).items()}, coproduct),
            linear(lambda jk: {(jk[0], a, b): d for (a, b), d
                               in H.comul_basis(jk[1]).items()}, coproduct))

    def counital(case):
        coproduct, e = H.comul_basis(case[0]), basis(case[0])
        left = linear(lambda jk: {jk[1]: H.counit[jk[0]]}, coproduct)
        right = linear(lambda jk: {jk[0]: H.counit[jk[1]]}, coproduct)
        return vec_eq(left, e) and vec_eq(right, e)

    def comul_multiplicative(ij):
        i, j = ij
        rhs = {}
        for (a, b), c in H.comul_basis(i).items():
            for (p, q), d in H.comul_basis(j).items():
                for r1, c1 in H.mul_basis(a, p).items():
                    vec_add_into(rhs, {(r1, r2): c1 * c2 for r2, c2
                                       in H.mul_basis(b, q).items()}, c * d)
        return vec_eq(H.comul(H.mul(basis(i), basis(j))), rhs)

    def counit_multiplicative(ij):
        i, j = ij
        return H.counit_of(H.mul(basis(i), basis(j))) == \
            H.counit[i] * H.counit[j]

    def convolution(case):
        i = case[0]
        coproduct = H.comul_basis(i)
        left = linear(lambda jk: H.mul(H.antipode_basis(jk[0]), basis(jk[1])),
                      coproduct)
        right = linear(lambda jk: H.mul(basis(jk[0]), H.antipode_basis(jk[1])),
                       coproduct)
        expected = vec_scale(H.counit[i], one)
        return vec_eq(left, expected) and vec_eq(right, expected)

    for name, arity, holds in (("associativity", 3,
                                lambda ijk: H.associative(*ijk)),
                               ("unit", 1, lambda case: H.unital(*case)),
                               ("coassociativity", 1, coassociative),
                               ("counit", 1, counital),
                               ("coproduct-multiplicative", 2,
                                comul_multiplicative)):
        report.add(name, *first_failure(_basis_cases(H, arity), holds))
    if H.counit_of(one) != 1:
        report.add("counit-multiplicative", False, ("1",))
    else:
        report.add("counit-multiplicative", *first_failure(
            _basis_cases(H, 2), counit_multiplicative))
    report.add("antipode-convolution",
               *first_failure(_basis_cases(H, 1), convolution))
    return report


def check_twisted_properties(delta):
    """Antihomomorphism, twisted coalgebra antimorphism, and counit identity
    of the twisted antipode, verified on all basis pairs/elements."""
    H = delta.hopf
    report = CheckReport(f"twisted-antipode[{H.name}/{delta.name}]")
    basis = H.basis_element

    def st(e):
        return H.twisted_antipode(delta, e)

    def antimultiplicative(ij):
        i, j = map(basis, ij)
        return vec_eq(st(H.mul(i, j)), H.mul(st(j), st(i)))

    def coalgebra_antimorphism(case):
        def term(jk):
            """S(e_k) (x) S~(e_j) for the term e_j (x) e_k of Delta(e_i)."""
            sj = st(basis(jk[0]))
            return linear(lambda a: {(a, b): cb for b, cb in sj.items()},
                          H.antipode_basis(jk[1]))

        i = case[0]
        return vec_eq(H.comul(st(basis(i))), linear(term, H.comul_basis(i)))

    one = H.unit_element()
    if not vec_eq(st(one), one):
        report.add("antihomomorphism", False, ("1",))
    else:
        report.add("antihomomorphism", *first_failure(
            _basis_cases(H, 2), antimultiplicative))
    report.add("coalgebra-antimorphism", *first_failure(
        _basis_cases(H, 1), coalgebra_antimorphism))
    report.add("counit-composition", *first_failure(
        _basis_cases(H, 1),
        lambda case: H.counit_of(st(basis(case[0]))) == delta.value(case[0])))
    return report


def check_involution(delta):
    """True iff the twisted antipode squares to the identity; else a witness."""
    H = delta.hopf
    def involutive(i):
        e = H.basis_element(i)
        return vec_eq(H.twisted_antipode(delta, H.twisted_antipode(delta, e)),
                      e)

    return first_failure(range(H.dim), involutive, lambda i: H.basis[i])


def coinner_eigenvalues(delta):
    """[c_k] with phi_delta(e_k) = c_k e_k, or None when phi_delta is not
    diagonal in the basis.  phi_delta(h) = delta(h_(1)) h_(2)
    delta(S h_(3)) is conjugation by the group-like delta of H*: a Hopf
    automorphism of finite order with delta o phi_delta = delta.  Both are
    checked exactly on each c_k, delta(c_k e_k) = delta(e_k) and c_k^r = 1
    for r = lcm(2, m) on Q(zeta_m), whose roots of unity all have order
    dividing r; None as well when one fails, so no c_k is used unchecked."""
    H = delta.hopf
    r = lcm(2, H.field.order)
    delta_of_S = [evaluate(delta.values, H.antipode_basis(q))
                  for q in range(H.dim)]

    def phi(pair):  # h' (x) h'' -> delta(S h'') sum delta(h'_(1)) h'_(2)
        return vec_scale(delta_of_S[pair[1]],
                         H.twist_automorphism(delta, {pair[0]: 1}))

    out = []
    for k, value in enumerate(delta.values):
        image = linear(phi, H.comul_basis(k))
        if image.keys() != {k}:
            return None
        c = image[k]
        if c * value != value or c ** r != 1:
            return None
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# built-in constructions


def cayley_inverses(table):
    """inverse[i] = j with table[i][j] = 0 (the identity sits at index 0);
    raises ValueError when some element has no inverse."""
    inverse = [row.index(0) if 0 in row else None for row in table]
    if None in inverse:
        raise ValueError("Cayley table has a non-invertible element")
    return inverse


def group_algebra(labels, table, name=None, field=None):
    """Group algebra k[G] from a Cayley table: table[i][j] = index of g_i g_j.

    Identity element must be at index 0.  Coproduct is group-like, antipode
    is inversion, and the counit is the only character installed by default.
    """
    field = field or RationalField()
    n = len(labels)
    for j in range(n):
        if table[0][j] != j or table[j][0] != j:
            raise ValueError("identity must sit at index 0 of the Cayley table")
    inverse = cayley_inverses(table)
    product = {(i, j): {table[i][j]: 1} for i in range(n) for j in range(n)}
    coproduct = {i: {(i, i): 1} for i in range(n)}
    counit = [1] * n
    antipode = {i: {inverse[i]: 1} for i in range(n)}
    H = FiniteHopf(name or f"group-algebra[{'.'.join(labels)}]", field, labels,
                   {0: 1}, product, coproduct, counit, antipode)
    H.characters["counit"] = H.counit_character()
    return H


def cyclic_group_algebra(n, field=None):
    labels = [f"g^{k}" if k else "e" for k in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(labels, table, name=f"QZ{n}", field=field)


def trivial_hopf():
    """Q as a one-dimensional Hopf algebra."""
    H = cyclic_group_algebra(1)
    H.name = "trivial"
    return H


def function_algebra(labels, table, name=None):
    """Function Hopf algebra Q^G on a finite group: dual basis, pointwise
    product, convolution coproduct, evaluation characters."""
    n = len(labels)
    product = {(i, i): {i: 1} for i in range(n)}
    coproduct = {}
    for g in range(n):
        pairs = {}
        for a in range(n):
            for b in range(n):
                if table[a][b] == g:
                    pairs[(a, b)] = 1
        coproduct[g] = pairs
    counit = [1 if g == 0 else 0 for g in range(n)]
    inverse = cayley_inverses(table)
    antipode = {i: {inverse[i]: 1} for i in range(n)}
    unit = {i: 1 for i in range(n)}
    H = FiniteHopf(name or f"function-algebra[{'.'.join(labels)}]",
                   RationalField(), [f"d_{l}" for l in labels], unit,
                   product, coproduct, counit, antipode)
    for point in range(n):
        values = [1 if g == point else 0 for g in range(n)]
        H.characters[f"eval_{labels[point]}"] = Character(
            H, values, name=f"eval_{labels[point]}")
    H.characters["counit"] = H.counit_character()
    return H


def sweedler_h4():
    """The 4-dimensional Hopf algebra with g^2=1, x^2=0, xg=-gx.

    Basis order: 1, g, x, gx.  Coproduct: Delta(g)=g(x)g,
    Delta(x)=x(x)1 + g(x)x.  Distinguished character: delta(g)=-1, delta(x)=0.
    The antipode has infinite order on x (S^2(x) = -x), which makes this the
    smallest nontrivial test of the twisted involution condition.
    """
    I, G, X, GX = 0, 1, 2, 3
    product = {
        (I, I): {I: 1}, (I, G): {G: 1}, (I, X): {X: 1}, (I, GX): {GX: 1},
        (G, I): {G: 1}, (G, G): {I: 1}, (G, X): {GX: 1}, (G, GX): {X: 1},
        (X, I): {X: 1}, (X, G): {GX: -1}, (X, X): {}, (X, GX): {},
        (GX, I): {GX: 1}, (GX, G): {X: -1}, (GX, X): {}, (GX, GX): {},
    }
    coproduct = {
        I: {(I, I): 1},
        G: {(G, G): 1},
        X: {(X, I): 1, (G, X): 1},
        GX: {(GX, G): 1, (I, GX): 1},
    }
    counit = [1, 1, 0, 0]
    antipode = {I: {I: 1}, G: {G: 1}, X: {GX: -1}, GX: {X: 1}}
    H = FiniteHopf("sweedler-h4", RationalField(), ["1", "g", "x", "gx"],
                   {I: 1}, product, coproduct, counit, antipode)
    H.characters["delta"] = Character(H, [1, -1, 0, 0], name="delta")
    H.characters["counit"] = H.counit_character()
    return H


def matrix_algebra(n):
    """Full matrix algebra M_n(Q) with basis e_{rc} in row-major order."""
    basis = [f"e{r}{c}" for r in range(n) for c in range(n)]
    product = {}
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    i = r * n + c
                    j = r2 * n + c2
                    product[(i, j)] = {r * n + c2: 1} if c == r2 else {}
    unit = {r * n + r: 1 for r in range(n)}
    return FiniteAlgebra(f"M{n}", RationalField(), basis, unit, product)


BUILTIN_BUILDERS = {
    "trivial": trivial_hopf,
    "qz2": lambda: cyclic_group_algebra(2),
    "qz3": lambda: cyclic_group_algebra(3),
    "sweedler": sweedler_h4,
    "fun-z2": lambda: function_algebra(
        ["e", "g"], [[0, 1], [1, 0]], name="fun-z2"),
}
