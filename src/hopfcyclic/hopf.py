"""Finite-dimensional Hopf algebras given by structure constants.

A ``FiniteHopf`` carries product and coproduct structure tensors, counit,
antipode and named characters over an exact field.  Elements are sparse
maps basis index -> scalar.  Checker routines verify every Hopf axiom and
the twisted-antipode properties on basis elements; by linearity that
settles them everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RationalField, scalar_inv
from .reports import CheckReport


class CharacterError(Exception):
    """Raised when a claimed character fails its defining identities."""


# ---------------------------------------------------------------------------
# sparse linear-combination helpers (shared by elements and tensors)

def vec_add(a, b):
    return vec_add_into(dict(a), b)


def vec_add_into(out, vec, c=1):
    """out += c * vec in place, dropping entries that cancel; returns out."""
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


def vec_scale(c, a):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def vec_sub(a, b):
    return vec_add(a, vec_scale(-1, b))


def vec_eq(a, b):
    return vec_sub(a, b) == {}


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
        one = sum((self.values[i] * c for i, c in hopf.unit.items()),
                  hopf.field.zero())
        if one != hopf.field.one():
            raise CharacterError("character does not send 1 to 1")
        for i in range(hopf.dim):
            for j in range(hopf.dim):
                lhs = sum((c * self.values[k]
                           for k, c in hopf.mul_basis(i, j).items()),
                          hopf.field.zero())
                if lhs != self.values[i] * self.values[j]:
                    raise CharacterError(
                        f"character not multiplicative at basis pair ({i},{j})")

    def value(self, key):
        return self.values[key]

    def of_element(self, elem):
        return sum((c * self.values[i] for i, c in elem.items()),
                   self.hopf.field.zero())

    def is_counit(self):
        return all(self.values[i] == self.hopf.counit[i]
                   for i in range(self.hopf.dim))


class FiniteHopf:
    """Hopf algebra by structure constants.

    product:    dict (i, j) -> {k: c}   meaning e_i e_j = sum c e_k
    coproduct:  dict i -> {(j, k): c}   meaning Delta(e_i) = sum c e_j (x) e_k
    counit:     list of scalars
    antipode:   dict i -> {j: c}        meaning S(e_i) = sum c e_j
    unit:       sparse element of 1
    """

    def __init__(self, name, field, basis, unit, product, coproduct,
                 counit, antipode, characters=None):
        self.name = name
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.unit = {k: v for k, v in unit.items() if v}
        self.product = {k: {i: c for i, c in v.items() if c}
                        for k, v in product.items()}
        self.coproduct = {k: {p: c for p, c in v.items() if c}
                          for k, v in coproduct.items()}
        self.counit = list(counit)
        self.antipode = {k: {i: c for i, c in v.items() if c}
                         for k, v in antipode.items()}
        self.characters = {}
        for cname, values in (characters or {}).items():
            self.characters[cname] = Character(self, values, name=cname)

    def __repr__(self):
        return f"FiniteHopf({self.name!r}, dim={self.dim})"

    # -- basis-level structure maps

    def mul_basis(self, i, j):
        return self.product.get((i, j), {})

    def comul_basis(self, i):
        return self.coproduct.get(i, {})

    def counit_basis(self, i):
        return self.counit[i]

    def antipode_basis(self, i):
        return self.antipode.get(i, {})

    # -- element-level maps

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

    def comul(self, a):
        out = {}
        for i, c in a.items():
            for pair, ck in self.comul_basis(i).items():
                s = out.get(pair, 0) + c * ck
                if s:
                    out[pair] = s
                else:
                    out.pop(pair, None)
        return out

    def counit_of(self, a):
        return sum((c * self.counit[i] for i, c in a.items()),
                   self.field.zero())

    def antipode_of(self, a):
        out = {}
        for i, c in a.items():
            out = vec_add(out, vec_scale(c, self.antipode_basis(i)))
        return out

    def twist_automorphism(self, delta, a):
        """sigma(h) = sum delta(h_(1)) h_(2); an algebra automorphism."""
        out = {}
        for i, c in a.items():
            for (j, k), ck in self.comul_basis(i).items():
                s = out.get(k, 0) + c * ck * delta.value(j)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out

    def twisted_antipode(self, delta, a):
        """S~(h) = sum delta(h_(1)) S(h_(2))."""
        return self.antipode_of(self.twist_automorphism(delta, a))

    def basis_element(self, i):
        return {i: self.field.one()}

    # -- matrix views (columns indexed by basis)

    def map_matrix(self, fn):
        """Column dicts of the linear map taking e_i to fn(e_i)."""
        return [fn(self.basis_element(i)) for i in range(self.dim)]

    def twisted_antipode_matrix(self, delta):
        return self.map_matrix(lambda e: self.twisted_antipode(delta, e))

    def character(self, name):
        try:
            return self.characters[name]
        except KeyError:
            raise CharacterError(
                f"{self.name} has no character named {name!r}") from None

    def counit_character(self):
        return Character(self, list(self.counit), name="counit")


# ---------------------------------------------------------------------------
# axiom checkers


def check_hopf_axioms(H):
    """Verify all Hopf axioms on basis elements; returns a CheckReport."""
    report = CheckReport(f"hopf-axioms[{H.name}]")
    one = H.unit_element()
    dim = H.dim

    def basis(i):
        return H.basis_element(i)

    ok, witness = True, None
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = H.mul(H.mul(basis(i), basis(j)), basis(k))
                rhs = H.mul(basis(i), H.mul(basis(j), basis(k)))
                if not vec_eq(lhs, rhs):
                    ok, witness = False, (i, j, k)
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("associativity", ok, witness)

    ok, witness = True, None
    for i in range(dim):
        e = basis(i)
        if not (vec_eq(H.mul(one, e), e) and vec_eq(H.mul(e, one), e)):
            ok, witness = False, (i,)
            break
    report.add("unit", ok, witness)

    ok, witness = True, None
    for i in range(dim):
        lhs = {}
        rhs = {}
        for (j, k), c in H.comul_basis(i).items():
            for (a, b), d in H.comul_basis(j).items():
                lhs = vec_add(lhs, {(a, b, k): c * d})
            for (a, b), d in H.comul_basis(k).items():
                rhs = vec_add(rhs, {(j, a, b): c * d})
        if not vec_eq(lhs, rhs):
            ok, witness = False, (i,)
            break
    report.add("coassociativity", ok, witness)

    ok, witness = True, None
    for i in range(dim):
        left = {}
        right = {}
        for (j, k), c in H.comul_basis(i).items():
            left = vec_add(left, {k: c * H.counit[j]})
            right = vec_add(right, {j: c * H.counit[k]})
        if not (vec_eq(left, basis(i)) and vec_eq(right, basis(i))):
            ok, witness = False, (i,)
            break
    report.add("counit", ok, witness)

    ok, witness = True, None
    for i in range(dim):
        for j in range(dim):
            lhs = H.comul(H.mul(basis(i), basis(j)))
            rhs = {}
            for (a, b), c in H.comul_basis(i).items():
                for (p, q), d in H.comul_basis(j).items():
                    for r1, c1 in H.mul_basis(a, p).items():
                        for r2, c2 in H.mul_basis(b, q).items():
                            rhs = vec_add(rhs, {(r1, r2): c * d * c1 * c2})
            if not vec_eq(lhs, rhs):
                ok, witness = False, (i, j)
                break
        if not ok:
            break
    report.add("coproduct-multiplicative", ok, witness)

    ok, witness = True, None
    if H.counit_of(one) != H.field.one():
        ok, witness = False, ("1",)
    else:
        for i in range(dim):
            for j in range(dim):
                if H.counit_of(H.mul(basis(i), basis(j))) != \
                        H.counit[i] * H.counit[j]:
                    ok, witness = False, (i, j)
                    break
            if not ok:
                break
    report.add("counit-multiplicative", ok, witness)

    ok, witness = True, None
    for i in range(dim):
        conv_left = {}
        conv_right = {}
        for (j, k), c in H.comul_basis(i).items():
            conv_left = vec_add(
                conv_left, vec_scale(c, H.mul(H.antipode_basis(j), basis(k))))
            conv_right = vec_add(
                conv_right, vec_scale(c, H.mul(basis(j), H.antipode_basis(k))))
        expected = vec_scale(H.counit[i], one)
        if not (vec_eq(conv_left, expected) and vec_eq(conv_right, expected)):
            ok, witness = False, (i,)
            break
    report.add("antipode-convolution", ok, witness)

    return report


def check_twisted_properties(H, delta):
    """Antihomomorphism, twisted coalgebra antimorphism, and counit identity
    of the twisted antipode, verified on all basis pairs/elements."""
    report = CheckReport(f"twisted-antipode[{H.name}/{delta.name}]")

    def st(e):
        return H.twisted_antipode(delta, e)

    ok, witness = True, None
    one = H.unit_element()
    if not vec_eq(st(one), one):
        ok, witness = False, ("1",)
    else:
        for i in range(H.dim):
            for j in range(H.dim):
                lhs = st(H.mul(H.basis_element(i), H.basis_element(j)))
                rhs = H.mul(st(H.basis_element(j)), st(H.basis_element(i)))
                if not vec_eq(lhs, rhs):
                    ok, witness = False, (i, j)
                    break
            if not ok:
                break
    report.add("antihomomorphism", ok, witness)

    ok, witness = True, None
    for i in range(H.dim):
        lhs = H.comul(st(H.basis_element(i)))
        rhs = {}
        for (j, k), c in H.comul_basis(i).items():
            sk = H.antipode_basis(k)
            sj = st(H.basis_element(j))
            for a, ca in sk.items():
                for b, cb in sj.items():
                    rhs = vec_add(rhs, {(a, b): c * ca * cb})
        if not vec_eq(lhs, rhs):
            ok, witness = False, (i,)
            break
    report.add("coalgebra-antimorphism", ok, witness)

    ok, witness = True, None
    for i in range(H.dim):
        if H.counit_of(st(H.basis_element(i))) != delta.value(i):
            ok, witness = False, (i,)
            break
    report.add("counit-composition", ok, witness)

    return report


def check_involution(H, delta):
    """True iff the twisted antipode squares to the identity; else a witness."""
    for i in range(H.dim):
        e = H.basis_element(i)
        if not vec_eq(H.twisted_antipode(delta, H.twisted_antipode(delta, e)), e):
            return False, H.basis[i]
    return True, None


# ---------------------------------------------------------------------------
# built-in constructions


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
    one = field.one()
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inverse[i] = j
    if any(v is None for v in inverse):
        raise ValueError("Cayley table has a non-invertible element")
    product = {(i, j): {table[i][j]: one} for i in range(n) for j in range(n)}
    coproduct = {i: {(i, i): one} for i in range(n)}
    counit = [one] * n
    antipode = {i: {inverse[i]: one} for i in range(n)}
    H = FiniteHopf(name or f"group-algebra[{'.'.join(labels)}]", field, labels,
                   {0: one}, product, coproduct, counit, antipode)
    H.characters["counit"] = H.counit_character()
    return H


def cyclic_group_algebra(n, field=None):
    labels = [f"g^{k}" if k else "e" for k in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(labels, table, name=f"QZ{n}", field=field)


def trivial_hopf(field=None):
    """The ground field as a one-dimensional Hopf algebra."""
    H = cyclic_group_algebra(1, field=field)
    H.name = "trivial"
    return H


def function_algebra(labels, table, name=None, field=None):
    """Function Hopf algebra k^G on a finite group: dual basis, pointwise
    product, convolution coproduct, evaluation characters."""
    field = field or RationalField()
    n = len(labels)
    one = field.one()
    product = {(i, i): {i: one} for i in range(n)}
    coproduct = {}
    for g in range(n):
        pairs = {}
        for a in range(n):
            for b in range(n):
                if table[a][b] == g:
                    pairs[(a, b)] = one
        coproduct[g] = pairs
    counit = [one if g == 0 else field.zero() for g in range(n)]
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inverse[i] = j
    antipode = {i: {inverse[i]: one} for i in range(n)}
    unit = {i: one for i in range(n)}
    H = FiniteHopf(name or f"function-algebra[{'.'.join(labels)}]", field,
                   [f"d_{l}" for l in labels], unit, product, coproduct,
                   counit, antipode)
    for point in range(n):
        values = [one if g == point else field.zero() for g in range(n)]
        H.characters[f"eval_{labels[point]}"] = Character(
            H, values, name=f"eval_{labels[point]}")
    H.characters["counit"] = H.counit_character()
    return H


def sweedler_h4(field=None):
    """The 4-dimensional Hopf algebra with g^2=1, x^2=0, xg=-gx.

    Basis order: 1, g, x, gx.  Coproduct: Delta(g)=g(x)g,
    Delta(x)=x(x)1 + g(x)x.  Distinguished character: delta(g)=-1, delta(x)=0.
    The antipode has infinite order on x (S^2(x) = -x), which makes this the
    smallest nontrivial test of the twisted involution condition.
    """
    field = field or RationalField()
    one = field.one()
    m1 = -one
    I, G, X, GX = 0, 1, 2, 3
    product = {
        (I, I): {I: one}, (I, G): {G: one}, (I, X): {X: one}, (I, GX): {GX: one},
        (G, I): {G: one}, (G, G): {I: one}, (G, X): {GX: one}, (G, GX): {X: one},
        (X, I): {X: one}, (X, G): {GX: m1}, (X, X): {}, (X, GX): {},
        (GX, I): {GX: one}, (GX, G): {X: m1}, (GX, X): {}, (GX, GX): {},
    }
    coproduct = {
        I: {(I, I): one},
        G: {(G, G): one},
        X: {(X, I): one, (G, X): one},
        GX: {(GX, G): one, (I, GX): one},
    }
    counit = [one, one, field.zero(), field.zero()]
    antipode = {I: {I: one}, G: {G: one}, X: {GX: m1}, GX: {X: one}}
    H = FiniteHopf("sweedler-h4", field, ["1", "g", "x", "gx"], {I: one},
                   product, coproduct, counit, antipode)
    H.characters["delta"] = Character(
        H, [one, m1, field.zero(), field.zero()], name="delta")
    H.characters["counit"] = H.counit_character()
    return H


BUILTIN_BUILDERS = {
    "trivial": trivial_hopf,
    "qz2": lambda: cyclic_group_algebra(2),
    "qz3": lambda: cyclic_group_algebra(3),
    "sweedler": sweedler_h4,
    "fun-z2": lambda: function_algebra(
        ["e", "g"], [[0, 1], [1, 0]], name="fun-z2"),
}
