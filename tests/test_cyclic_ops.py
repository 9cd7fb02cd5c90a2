"""The cyclic module of a Hopf algebra and of an algebra's cochains."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from hopfcyclic import cyclic_ops
from hopfcyclic.cyclic_ops import (CochainCyclicModule, HopfCyclicModule,
                                   NormalizedModule, TensorBasis)
from hopfcyclic.enveloping import (EnvelopingAlgebra, ax_plus_b_lie_algebra,
                                   tensor_samples)
from hopfcyclic.hopf import (FiniteAlgebra, cyclic_group_algebra,
                             linear, matrix_algebra, sweedler_h4)
from hopfcyclic.relations import check_cyclic_power_formula, relation_suite

ONE = Fraction(1)


def sweedler_module():
    H = sweedler_h4()
    return HopfCyclicModule(H.character("delta"))


def test_degree_zero_conventions():
    mod = sweedler_module()
    scalar = {(): ONE}
    # both degree-1 faces are the unit map, the degeneracy is the counit
    assert mod.face(0, 1, scalar) == {(0,): ONE}
    assert mod.face(1, 1, scalar) == {(0,): ONE}
    assert mod.degeneracy(0, 0, {(0,): ONE}) == {(): ONE}
    assert mod.cyclic(0, scalar) == scalar
    assert mod.cyclic_power_formula(1, 0, scalar) == scalar


def test_face_inserts_unit_and_coproduct():
    mod = sweedler_module()
    t = {(2,): ONE}  # the element x in degree 1
    assert mod.face(0, 2, t) == {(0, 2): ONE}
    assert mod.face(2, 2, t) == {(2, 0): ONE}
    # middle face applies the coproduct: Delta(x) = x(x)1 + g(x)x
    assert mod.face(1, 2, t) == {(2, 0): ONE, (1, 2): ONE}


def test_cyclic_degree_one_is_twisted_antipode():
    H = sweedler_h4()
    mod = HopfCyclicModule(H.character("delta"))
    for i in range(H.dim):
        assert mod.cyclic(1, {(i,): ONE}) == \
            {(j,): c for j, c in H.twisted_antipode(
                H.character("delta"), {i: ONE}).items()}


def test_relation_suite_sweedler():
    report = relation_suite(sweedler_module(), 3)
    assert report.ok, report.render()


def test_relation_suite_group_algebra():
    H = cyclic_group_algebra(3)
    report = relation_suite(HopfCyclicModule(H.counit_character()), 3)
    assert report.ok, report.render()


def test_relation_suite_counit_sweedler_fails_at_tpow():
    H = sweedler_h4()
    report = relation_suite(HopfCyclicModule(H.counit_character()), 2)
    failed = sorted(name for name, _ in report.failures())
    assert failed == ["tpow n=1", "tpow n=2"]


_COUNIT_SWEEDLER_TPOW = {
    1: "check tpow n=1 status=FAIL witness="
       "((), [(2,)], [((2,), -1)], [((2,), 1)])",
    2: "check tpow n=2 status=FAIL witness="
       "((), [(0, 2)], [((0, 2), -1)], [((0, 2), 1)])",
    3: "check tpow n=3 status=FAIL witness="
       "((), [(0, 0, 2)], [((0, 0, 2), -1)], [((0, 0, 2), 1)])",
}


@pytest.mark.parametrize("N_max", [2, 3])
def test_relation_suite_counit_sweedler_report(N_max):
    """The whole report of the failing counit-Sweedler suite, witnesses
    included: tau^(n+1) = -id on x in each degree, and every other check
    passes, in report order."""
    passing = {2: ["dd n=2", "sd n=0", "sd n=1", "ss n=2", "td n=1",
                   "td n=2", "td0 n=1", "td0 n=2", "tpow n=0"],
               3: ["dd n=2", "dd n=3", "sd n=0", "sd n=1", "sd n=2",
                   "ss n=2", "ss n=3", "td n=1", "td n=2", "td n=3",
                   "td0 n=1", "td0 n=2", "td0 n=3", "tpow n=0"]}[N_max]
    after = {2: ["ts n=1", "ts0 n=0", "ts0 n=1"],
             3: ["ts n=1", "ts n=2", "ts0 n=0", "ts0 n=1", "ts0 n=2"]}[N_max]
    lines = (["report: cyclic-relations", f"max-degree: {N_max}"]
             + [f"check {name} status=pass" for name in passing]
             + [_COUNIT_SWEEDLER_TPOW[n] for n in range(1, N_max + 1)]
             + [f"check {name} status=pass" for name in after]
             + [f"summary: pass={len(passing) + len(after)} fail={N_max}"])
    H = sweedler_h4()
    report = relation_suite(HopfCyclicModule(H.counit_character()), N_max)
    assert report.render() == "\n".join(lines)


def test_cyclic_power_formula(seed=3):
    rng = random.Random(seed)
    for H, cname in [(cyclic_group_algebra(2), "counit"),
                     (sweedler_h4(), "delta")]:
        delta = H.counit_character() if cname == "counit" \
            else H.character(cname)
        mod = HopfCyclicModule(delta)
        for n in range(1, 4):
            tensors = []
            for _ in range(20):
                key = tuple(rng.randrange(H.dim) for _ in range(n))
                tensors.append({key: Fraction(rng.randrange(-3, 4) or 1)})
            for j in range(1, n + 2):
                assert check_cyclic_power_formula(mod, n, j, tensors) \
                    == (True, None), (n, j)


def _relation_suite_case(case):
    """The module, samples and relation suite of the call-count tests."""
    if case == "sweedler":
        mod = sweedler_module()
        return mod, lambda: relation_suite(mod, 4)
    U = EnvelopingAlgebra(ax_plus_b_lie_algebra())
    mod = HopfCyclicModule(U.modular_character())
    samples = tensor_samples(U, 4, rng=random.Random(0))
    return mod, lambda: relation_suite(mod, 4, samples=samples.__getitem__)


@pytest.mark.parametrize("case", ["sweedler", "axb"])
def test_iterated_coproduct_built_once_per_first_factor(monkeypatch, case):
    """tau reads Delta^(n-1) S~(e_k) from the module's cache: the relation
    suite through degree 4 builds it once per (k, n), 4 x 4 on Sweedler and
    39 times on the ax+b samples of seed 0."""
    calls = []
    build = cyclic_ops.iterated_comul

    def counted(H, elem, n):
        calls.append((tuple(sorted(elem.items())), n))
        return build(H, elem, n)

    monkeypatch.setattr(cyclic_ops, "iterated_comul", counted)
    _, suite = _relation_suite_case(case)
    assert suite().ok
    assert len(set(calls)) == len(calls) == {"sweedler": 16, "axb": 39}[case]


@pytest.mark.parametrize("case, products, images", [
    ("sweedler", 12, 340), ("axb", 98, 541)])
def test_tau_slot_products_and_images_built_once(monkeypatch, case,
                                                  products, images):
    """The elementwise tau is linear in cached images: the relation suite
    through degree 4 builds each slot product e_k * factor with one
    ``H.mul`` and each image tau_n^j(key) once.  A slot whose factor is the
    unit forms no product, as e_k 1 = e_k."""
    mod, suite = _relation_suite_case(case)
    H = mod.hopf
    mul, build = H.mul, HopfCyclicModule._tau_image
    mul_calls, image_calls = [], []

    def counted_mul(a, b):
        if sys._getframe(1).f_globals["__name__"] == cyclic_ops.__name__:
            mul_calls.append((tuple(sorted(a.items())),
                              tuple(sorted(b.items()))))
        return mul(a, b)

    def counted_build(self, j, n, key):
        image_calls.append((j, n, key))
        return build(self, j, n, key)

    monkeypatch.setattr(H, "mul", counted_mul)
    monkeypatch.setattr(HopfCyclicModule, "_tau_image", counted_build)
    assert suite().ok
    assert len(set(mul_calls)) == len(mul_calls) == products
    assert len(set(image_calls)) == len(image_calls) == images


@pytest.mark.parametrize("case, faces, degeneracies, images", [
    ("sweedler", 398, 1252, 340), ("axb", 522, 986, 541)])
def test_relation_suite_applies_each_generator_once_per_key(
        monkeypatch, case, faces, degeneracies, images):
    """The relation suite through degree 4 applies face, degeneracy and the
    closed form of tau once per distinct (generator, key), each time to
    one basis key with coefficient 1, and composes every word from those
    images."""
    mod, suite = _relation_suite_case(case)
    calls = {"face": [], "degeneracy": [], "_tau_image": []}

    def counted(name):
        op, seen = getattr(HopfCyclicModule, name), calls[name]

        def wrapper(self, i, n, t):
            (key, c), = t.items()
            assert c == 1
            seen.append((i, n, key))
            return op(self, i, n, t)
        return wrapper

    def counted_image(self, j, n, key):
        calls["_tau_image"].append((j, n, key))
        return build(self, j, n, key)

    build = HopfCyclicModule._tau_image
    for name in ("face", "degeneracy"):
        monkeypatch.setattr(HopfCyclicModule, name, counted(name))
    monkeypatch.setattr(HopfCyclicModule, "_tau_image", counted_image)
    assert suite().ok
    for name, count in [("face", faces), ("degeneracy", degeneracies),
                        ("_tau_image", images)]:
        assert len(set(calls[name])) == len(calls[name]) == count, name


def _check_linear(mod, n, t):
    """face, degeneracy and cyclic of t, of degree n, equal the sum of
    their images of t's keys with t's coefficients."""
    ops = [lambda v, i=i: mod.face(i, n + 1, v) for i in range(n + 2)]
    ops += [lambda v, i=i: mod.degeneracy(i, n - 1, v) for i in range(n)]
    ops.append(lambda v: mod.cyclic(n, v))
    for op in ops:
        assert op(t) == linear(lambda key: op({key: 1}), t), (n, t)


@pytest.mark.parametrize("seed", range(4))
def test_operators_are_linear_on_axb_samples(seed):
    """Every ax+b sample of the relation suite that is not a single key
    with coefficient 1: the suite itself only applies the operators to
    single keys."""
    U = EnvelopingAlgebra(ax_plus_b_lie_algebra())
    mod = HopfCyclicModule(U.modular_character())
    samples = tensor_samples(U, 4, rng=random.Random(seed))
    checked = 0
    for n, ts in samples.items():
        for t in ts:
            if len(t) > 1 or 1 not in t.values():
                _check_linear(mod, n, t)
                checked += 1
    assert checked >= 9


def test_operators_are_linear_on_sweedler_sums(seed=5):
    """Random integer sums of Sweedler basis tensors through degree 3."""
    rng = random.Random(seed)
    mod = sweedler_module()
    for n in range(4):
        keys = list(mod.basis_keys(n))
        for _ in range(12):
            t = {}
            for key in rng.sample(keys, min(3, len(keys))):
                t[key] = rng.choice([-3, -2, -1, 2, 3])
            _check_linear(mod, n, t)


@pytest.mark.parametrize("case", ["sweedler", "axb"])
def test_cached_tau_returns_fresh_dicts(case):
    """The images are read, never handed out: every call returns a new dict
    and mutating it leaves the next result unchanged."""
    mod, _ = _relation_suite_case(case)
    H = mod.hopf
    keys = range(H.dim) if case == "sweedler" \
        else H.monomials_up_to_degree(1)
    for n in range(4):
        ops = [mod.cyclic] + [
            lambda n, t, j=j: mod.cyclic_power_formula(j, n, t)
            for j in range(1, n + 2)]
        for key, op in itertools.product(
                itertools.product(keys, repeat=n), ops):
            first = op(n, {key: 1})
            expected = dict(first)
            first.clear()
            again = op(n, {key: 1})
            assert again == expected and again is not first


def test_enveloping_coproduct_memo_is_not_mutated():
    """After an ax+b relation suite and S~ of a combination of every PBW
    monomial up to degree 3, whose twist reads the memo through
    ``hopf.linear``, every memoized coproduct of those monomials equals the
    one of a fresh algebra."""
    mod, suite = _relation_suite_case("axb")
    assert suite().ok
    U, fresh = mod.hopf, EnvelopingAlgebra(ax_plus_b_lie_algebra())
    keys = U.monomials_up_to_degree(3)
    U.twisted_antipode(mod.delta, {key: i + 1 for i, key in enumerate(keys)})
    for key in keys:
        assert U.comul_basis(key) is U.comul_basis(key)
        assert U.comul_basis(key) == fresh.comul_basis(key)


def test_cyclic_power_order():
    mod = sweedler_module()
    for n in range(1, 5):
        m = mod.cyclic_matrix(n)
        p = m
        for _ in range(n):
            p = m @ p
        eye = type(m).identity(mod.space_dim(n))
        assert p.entries == eye.entries


def test_cochain_module_relations():
    A = cyclic_group_algebra(2)
    report = relation_suite(CochainCyclicModule(A), 3)
    assert report.ok, report.render()


def test_cochain_module_of_a_hopf_algebra_reads_its_algebra_half():
    H = cyclic_group_algebra(2)
    A = FiniteAlgebra(H.name, H.field, H.basis, H.unit, H.product)
    assert relation_suite(CochainCyclicModule(H), 2).render() == \
        relation_suite(CochainCyclicModule(A), 2).render()


def test_cochain_module_relations_matrix_algebra():
    report = relation_suite(CochainCyclicModule(matrix_algebra(2)), 2)
    assert report.ok, report.render()


def test_cochain_cyclic_rotates():
    A = matrix_algebra(2)
    cmod = CochainCyclicModule(A)
    assert cmod.cyclic(2, {(0, 1, 2): ONE}) == {(1, 2, 0): ONE}


def test_one_degeneracy_for_both_modules():
    """Both classes bind TensorBasis.degeneracy in their own __dict__; on
    cochains it contracts argument i + 1 against the unit's coefficients."""
    assert HopfCyclicModule.__dict__["degeneracy"] \
        is CochainCyclicModule.__dict__["degeneracy"] \
        is cyclic_ops.TensorBasis.degeneracy
    A = matrix_algebra(2)  # the unit is e_00 + e_11, indices 0 and 3
    cmod = CochainCyclicModule(A)
    phi = {(1, 0, 2): ONE, (1, 3, 2): 2 * ONE, (1, 1, 2): 5 * ONE}
    assert cmod.degeneracy(0, 1, phi) == {(1, 2): 3 * ONE}
    assert cmod.degeneracy(1, 1, {(1, 2, 3): ONE}) == {(1, 2): ONE}


def test_face_index_bounds():
    mod = sweedler_module()
    with pytest.raises(IndexError):
        mod.face(3, 2, {(0, 0): ONE})
    with pytest.raises(IndexError):
        mod.degeneracy(2, 1, {(0, 0): ONE})


def test_each_tensor_basis_member_is_defined_once():
    """A cyclic module redefines no TensorBasis member: a name in both
    class dicts is the same object, as the degeneracy and operator_matrix
    aliases that bench/tracing.py wraps per class are.  Only cochains
    differ: their tuples have one extra factor, and they carry no
    character, so no coinner."""
    base = vars(TensorBasis)
    for cls in (HopfCyclicModule, NormalizedModule, CochainCyclicModule):
        redefined = sorted(name for name, value in vars(cls).items()
                           if not name.startswith("__") and name in base
                           and value is not base[name])
        allowed = (["coinner", "extra_factors"] if cls is CochainCyclicModule
                   else [])
        assert redefined == allowed, cls.__name__
