"""Hopf actions on algebras, invariant traces, the characteristic map,
cyclic-cocycle checking and the idempotent pairing.

An action of a Hopf algebra H on an algebra A is given by one exact matrix
per H-basis element.  A trace is a coefficient vector.  The characteristic
map gamma sends a degree-n tensor over H to the (n+1)-linear form

    gamma(h^1 ox ... ox h^n)(x^0, ..., x^n) = tau(x^0 h^1(x^1) ... h^n(x^n))

and, when the trace is invariant for the character delta, gamma commutes
with every face, degeneracy and cyclic operator of the two cyclic modules.
The action holds H and A, so the checks and gamma take it, never H or A
beside it, and refuse a character that is not over its H or a trace that
is not over its A; gamma reads n off the keys of its tensor.
"""

from __future__ import annotations

import itertools

from .cohomology import hochschild_b, signed_cyclic
from .cyclic_ops import CochainCyclicModule, HopfCyclicModule
from .hopf import (cayley_inverses, evaluate, function_algebra,
                   group_algebra, linear, vec_add_into, vec_eq, vec_scale,
                   vec_sub)
from .relations import apply_generator, word_source_degree
from .reports import CheckReport, first_failure


class ActionError(Exception):
    pass


def _require_held(held, given, role):
    """ActionError naming both unless given is the action's algebra held."""
    if given is not held:
        raise ActionError(f"the {role} is over {given.name}, not the "
                          f"action's {held.name}")


class HopfAction:
    """One matrix per H-basis element, acting on the algebra A.

    ``matrices[i]`` is a dict (row, col) -> scalar: the action of basis
    element i of H sends A-basis element ``col`` to the column vector.
    """

    def __init__(self, hopf, algebra, matrices):
        self.hopf = hopf
        self.algebra = algebra
        self.matrices = matrices
        for i in range(hopf.dim):
            if i not in matrices:
                raise ActionError(f"missing action matrix for basis element {i}")
        self._columns = {i: {} for i in matrices}
        for i, matrix in matrices.items():
            for (r, c), v in matrix.items():
                if v:
                    self._columns[i].setdefault(c, {})[r] = v

    def act_basis(self, i, a):
        """Action of H-basis element i on A-basis element a: column a of
        matrix i, kept by column since __init__.  Callers only read it."""
        return self._columns[i].get(a, {})

    def act(self, h, a):
        """Action of an H element (dict) on an A element (dict)."""
        return linear(lambda i: linear(lambda j: self.act_basis(i, j), a), h)

    @classmethod
    def trivial(cls, hopf, algebra):
        """h acts by counit: h(a) = eps(h) a."""
        matrices = {}
        for i in range(hopf.dim):
            e = hopf.counit_basis(i)
            matrices[i] = {(r, r): e for r in range(algebra.dim)} if e else {}
        return cls(hopf, algebra, matrices)


class Trace:
    """Linear functional on A given by its values on the basis."""

    def __init__(self, algebra, values, name="trace"):
        if len(values) != algebra.dim:
            raise ActionError("trace vector has the wrong length")
        self.algebra = algebra
        self.values = list(values)
        self.name = name

    def of(self, a):
        return evaluate(self.values, a)

    def is_trace(self):
        """tau(ab) = tau(ba) on all basis pairs; returns (ok, witness)."""
        A = self.algebra

        def commutes(ij):
            i, j = ij
            return self.of(A.mul_basis(i, j)) == self.of(A.mul_basis(j, i))

        return first_failure(itertools.product(range(A.dim), repeat=2),
                             commutes)

    def as_cochain(self):
        return {(i,): v for i, v in enumerate(self.values) if v}


def check_action(action):
    """Unit action, module axiom and multiplicativity of the action."""
    hopf, algebra = action.hopf, action.algebra
    report = CheckReport("hopf-action",
                         meta={"hopf": hopf.name, "algebra": algebra.name})
    unit_h = hopf.unit_element()
    unit_a = algebra.unit_element()

    def unit_acts(a):
        basis_a = {a: 1}
        return vec_eq(action.act(unit_h, basis_a), basis_a)

    def module_axiom(case):
        i, j, a = case
        return vec_eq(action.act({i: 1}, action.act_basis(j, a)),
                      action.act(hopf.mul_basis(i, j), {a: 1}))

    def multiplicative(case):
        i, a, b = case
        rhs = linear(lambda jk: algebra.mul(action.act_basis(jk[0], a),
                                            action.act_basis(jk[1], b)),
                     hopf.comul_basis(i))
        return vec_eq(action.act({i: 1}, algebra.mul_basis(a, b)), rhs)

    def unit_by_counit(i):
        return vec_eq(action.act({i: 1}, unit_a),
                      vec_scale(hopf.counit_basis(i), unit_a))

    h_basis, a_basis = range(hopf.dim), range(algebra.dim)
    report.add("unit-acts-as-identity", *first_failure(a_basis, unit_acts))
    report.add("module-axiom", *first_failure(
        itertools.product(h_basis, h_basis, a_basis), module_axiom))
    report.add("action-multiplicative", *first_failure(
        itertools.product(h_basis, a_basis, a_basis), multiplicative))
    report.add("acts-on-unit-by-counit",
               *first_failure(h_basis, unit_by_counit))
    return report


def check_delta_invariance(action, delta, trace):
    """tau(h(a) b) = tau(a S~(h)(b)) on all basis triples."""
    hopf, algebra = action.hopf, action.algebra
    _require_held(hopf, delta.hopf, "character")
    _require_held(algebra, trace.algebra, "trace")
    report = CheckReport("trace-invariance",
                         meta={"hopf": hopf.name, "algebra": algebra.name,
                               "character": delta.name, "trace": trace.name})
    report.add("trace-property", *trace.is_trace())
    # S~(e_i) is computed once, not once per case
    twisted = [hopf.twisted_antipode(delta, {i: 1})
               for i in range(hopf.dim)]

    def invariant(case):
        i, a, b = case
        left = algebra.mul(action.act_basis(i, a), {b: 1})
        right = algebra.mul({a: 1}, action.act(twisted[i], {b: 1}))
        return trace.of(left) == trace.of(right)

    report.add("integration-by-parts", *first_failure(
        itertools.product(range(hopf.dim), range(algebra.dim),
                          range(algebra.dim)), invariant))
    return report


def characteristic_map(action, trace, t):
    """tau(x^0 h^1(x^1) ... h^n(x^n)) as a coefficient dict over (n+1)-tuples
    of A-basis indices, n read off t's keys.  Degree 0 recovers the trace."""
    algebra = action.algebra
    _require_held(algebra, trace.algebra, "trace")
    n = len(next(iter(t), ()))
    out = {}
    for xs in itertools.product(range(algebra.dim), repeat=n + 1):
        total = 0
        for key, c in t.items():
            prod = {xs[0]: 1}
            for h, x in zip(key, xs[1:]):
                prod = algebra.mul(prod, action.act_basis(h, x))
            total = total + c * trace.of(prod)
        if total:
            out[xs] = total
    return out


def check_gamma_morphism(action, delta, trace, N_max):
    """gamma intertwines every face, degeneracy and cyclic operator up to
    degree N_max, checked on all basis tensors of the Hopf side."""
    hopf, algebra = action.hopf, action.algebra
    _require_held(hopf, delta.hopf, "character")
    hside = HopfCyclicModule(delta)
    aside = CochainCyclicModule(algebra)
    report = CheckReport("characteristic-map",
                         meta={"hopf": hopf.name, "algebra": algebra.name,
                               "character": delta.name, "trace": trace.name,
                               "max-degree": N_max})
    basis_gamma = {}  # basis tuple -> its gamma

    def gamma_basis(key):
        """gamma is linear, so it is computed once per basis tensor."""
        image = basis_gamma.get(key)
        if image is None:
            image = basis_gamma[key] = characteristic_map(
                action, trace, {key: 1})
        return image

    def commutes(gen):
        return lambda t: vec_eq(
            linear(gamma_basis, apply_generator(hside, gen, t)),
            apply_generator(aside, gen, linear(gamma_basis, t)))

    # Lambda's generator tags in report order: faces for n = 1..N_max,
    # degeneracies for n = 0..N_max-1, then tau for n = 1..N_max
    tags = [(kind, i, n) for kind, low in (("d", 1), ("s", 0), ("t", 1))
            for n in range(low, N_max + low)
            for i in range(1 if kind == "t" else n + 1)]
    names = {"d": "face i={1} n={2}", "s": "degeneracy i={1} n={2}",
             "t": "cyclic n={2}"}
    for gen in tags:
        report.add(names[gen[0]].format(*gen), *first_failure(
            hside.samples(word_source_degree([gen], gen[2])), commutes(gen),
            sorted))
    return report


# ---------------------------------------------------------------------------
# cyclic cocycles on the algebra side


def cochain_from_function(algebra, n, fn):
    """Coefficient dict of the (n+1)-linear form fn on basis tuples."""
    out = {}
    for key in itertools.product(range(algebra.dim), repeat=n + 1):
        v = fn(*key)
        if v:
            out[key] = v
    return out


def check_cyclic_cocycle(algebra, phi):
    """lambda phi = phi and b phi = 0, at the degree read off phi (0 if phi
    is zero); for degree 2 the two conditions are the cyclicity of the
    trilinear form and the four-term identity."""
    n = len(next(iter(phi))) - 1 if phi else 0
    cmod = CochainCyclicModule(algebra)
    report = CheckReport("cyclic-cocycle",
                         meta={"algebra": algebra.name, "degree": n})
    for check, residue in (
            ("cyclicity", vec_sub(signed_cyclic(cmod, n, phi), phi)),
            ("hochschild-cocycle", hochschild_b(cmod, n + 1, phi))):
        report.add(check, not residue, min(residue) if residue else None)
    return report


# ---------------------------------------------------------------------------
# matrices over A and the idempotent pairing


def mat_over_mul(algebra, X, Y):
    out = {}
    for (r, k1), x in X.items():
        for (k2, c), y in Y.items():
            if k1 != k2:
                continue
            prod = algebra.mul(x, y)
            if prod:
                vec_add_into(out.setdefault((r, c), {}), prod)
    return {k: v for k, v in out.items() if v}


def mat_over_identity(algebra, q):
    return {(i, i): algebra.unit_element() for i in range(q)}


def mat_over_eq(X, Y):
    keys = set(X) | set(Y)
    return all(vec_eq(X.get(k, {}), Y.get(k, {})) for k in keys)


def is_idempotent(algebra, E):
    return mat_over_eq(mat_over_mul(algebra, E, E), E)


def eval_cochain(phi, elems):
    """Evaluate a coefficient-dict cochain on a tuple of A elements."""
    total = 0
    for key, c in phi.items():
        for elem, k in zip(elems, key):
            c = c * elem.get(k, 0)
        total = total + c
    return total


def pair_idempotent(algebra, phi, E, q):
    """<E, phi> for an even cochain phi of degree 0 or 2: the sum over
    (i0, ..., in) of phi(E_i0i1, E_i1i2, ..., E_ini0).  Degree 0 is the
    trace extension sum_i phi(E_ii)."""
    if not is_idempotent(algebra, E):
        raise ActionError("matrix is not idempotent")
    degree = len(next(iter(phi))) - 1 if phi else 0
    if degree not in (0, 2):
        raise ActionError(
            f"pairing implemented for degrees 0 and 2, not {degree}")
    total = 0
    for idx in itertools.product(range(q), repeat=degree + 1):
        total = total + eval_cochain(phi, [
            E.get((i, j), {}) for i, j in zip(idx, idx[1:] + idx[:1])])
    return total


def random_conjugate(algebra, E, q, rng):
    """Conjugate E by a product of three elementary matrices I + a e_rs
    (r != s), whose inverses are I - a e_rs, so invertibility is exact by
    design."""
    if q < 2:
        raise ValueError(f"random_conjugate needs q >= 2, got {q}: M_{q}(A) "
                         f"has no off-diagonal elementary matrix")
    out = E
    for _ in range(3):
        r = rng.randrange(q)
        s = rng.randrange(q)
        while s == r:
            s = rng.randrange(q)
        a = {rng.randrange(algebra.dim): rng.randrange(-3, 4) or 1}
        # r != s, so (r, s) is not a diagonal entry of the identity
        u = mat_over_identity(algebra, q)
        u[(r, s)] = a
        uinv = mat_over_identity(algebra, q)
        uinv[(r, s)] = vec_scale(-1, a)
        out = mat_over_mul(algebra, mat_over_mul(algebra, u, out), uinv)
    return out


# ---------------------------------------------------------------------------
# the translation example


def translation_action(labels, table):
    """Group algebra H of G acting on functions on G by right translation
    of the argument: (g . f)(s) = f(s g).  The action holds H and A, the
    function Hopf algebra k^G, which serves wherever an algebra is read."""
    points, inv = range(len(labels)), cayley_inverses(table)
    # g sends the indicator of the point t to the indicator of t g^{-1}
    matrices = {g: {(table[t][inv[g]], t): 1 for t in points} for g in points}
    return HopfAction(group_algebra(labels, table),
                      function_algebra(labels, table), matrices)


def summation_trace(algebra):
    """Sum of the values of a function; invariant under translation."""
    return Trace(algebra, [1] * algebra.dim, name="summation")


def point_trace(algebra, point):
    """Evaluation at one point; a trace (A commutative) but not invariant."""
    values = [0] * algebra.dim
    values[point] = 1
    return Trace(algebra, values, name=f"eval@{point}")
