"""The cyclic module of a Hopf algebra and of an algebra's cochains."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import DATA
from hopfcyclic import cyclic_ops
from hopfcyclic.cyclic_ops import (CochainCyclicModule, HopfCyclicModule,
                                   NormalizedModule, TensorBasis)
from hopfcyclic.enveloping import (EnvelopingAlgebra, ax_plus_b_lie_algebra,
                                   tensor_samples)
from hopfcyclic.hopf import (BUILTIN_BUILDERS, FiniteAlgebra,
                             cyclic_group_algebra, linear, matrix_algebra,
                             sweedler_h4)
from hopfcyclic.presentations import load_hopf
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


_ORACLE_INPUTS = [(name, cname) for name in sorted(BUILTIN_BUILDERS)
                  for cname in sorted(BUILTIN_BUILDERS[name]().characters)]
_ORACLE_INPUTS += [(f"{stem}.json", cname) for stem in ("qz2", "sweedler-h4")
                   for cname in sorted(load_hopf(DATA / f"{stem}.json")
                                       .characters)]


def _assert_tau_is_closed_form(modules, keys_of):
    """tau_n {key: 1}, by the recursion on a module built by modules(),
    equals the closed form tau_n^1 on another, for every key of
    keys_of(n), 1 <= n <= 4."""
    recursion, closed = modules(), modules()
    for n in range(1, 5):
        for key in keys_of(n):
            assert recursion.cyclic(n, {key: 1}) == \
                closed.cyclic_power_formula(1, n, {key: 1}), (n, key)


@pytest.mark.parametrize("source, cname", _ORACLE_INPUTS,
                         ids=[f"{s}-{c}" for s, c in _ORACLE_INPUTS])
def test_recursive_tau_is_the_closed_form(source, cname):
    """On every basis tensor through degree 4 of every builtin and data
    presentation, with each of its characters (on Sweedler/counit tau^(n+1)
    is not the identity, so tpow does not pin tau there)."""
    def module():
        H = BUILTIN_BUILDERS[source]() if source in BUILTIN_BUILDERS \
            else load_hopf(DATA / source)
        return HopfCyclicModule(H.character(cname))

    _assert_tau_is_closed_form(module, lambda n: module().basis_keys(n))


@pytest.mark.parametrize("seed", range(4))
def test_recursive_tau_is_the_closed_form_on_axb_samples(seed):
    """On every key of the ax+b samples of the relation suite through
    degree 4."""
    def module():
        return HopfCyclicModule(
            EnvelopingAlgebra(ax_plus_b_lie_algebra()).modular_character())

    samples = tensor_samples(module().hopf, 4, rng=random.Random(seed))
    _assert_tau_is_closed_form(
        module, lambda n: sorted({key for t in samples[n] for key in t}))


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
    """tau_1 reads S~(e_k) from the module's cache, and tau_n, n > 1, comes
    from tau_(n-1) with no Delta^(n-1) expanded: the relation suite through
    degree 4 calls ``iterated_comul`` once per k, at n = 1 only, 4 times on
    Sweedler and 14 times on the ax+b samples of seed 0."""
    calls = []
    build = cyclic_ops.iterated_comul

    def counted(H, elem, n):
        calls.append((tuple(sorted(elem.items())), n))
        return build(H, elem, n)

    monkeypatch.setattr(cyclic_ops, "iterated_comul", counted)
    _, suite = _relation_suite_case(case)
    assert suite().ok
    assert {n for _, n in calls} == {1}
    assert len(set(calls)) == len(calls) == {"sweedler": 4, "axb": 14}[case]


@pytest.mark.parametrize("case, products, images", [
    ("sweedler", 12, 340), ("axb", 98, 717)])
def test_tau_slot_products_and_images_built_once(monkeypatch, case,
                                                  products, images):
    """The relation suite through degree 4 builds each tau image once per
    key, prefixes of the recursion included, each last-factor table
    Delta(e_a)(e_s (x) 1) once per (a, s) (16 on Sweedler, 112 on ax+b)
    and each product e_p e_s with one ``H.mul`` per pair.  A table whose
    e_s is the unit forms no product, as e_p 1 = e_p."""
    mod, suite = _relation_suite_case(case)
    H = mod.hopf
    mul = H.mul
    build, table = HopfCyclicModule.tau_image, \
        HopfCyclicModule._last_factor_table
    mul_calls, image_calls, table_calls = [], [], []

    def counted_mul(a, b):
        if sys._getframe(1).f_globals["__name__"] == cyclic_ops.__name__:
            mul_calls.append((tuple(sorted(a.items())),
                              tuple(sorted(b.items()))))
        return mul(a, b)

    def counted_build(self, key, prefix):
        image_calls.append(key)
        return build(self, key, prefix)

    def counted_table(self, a, s):
        table_calls.append((a, s))
        return table(self, a, s)

    monkeypatch.setattr(H, "mul", counted_mul)
    monkeypatch.setattr(HopfCyclicModule, "tau_image", counted_build)
    monkeypatch.setattr(HopfCyclicModule, "_last_factor_table",
                        counted_table)
    assert suite().ok
    assert len(set(mul_calls)) == len(mul_calls) == products
    assert len(set(image_calls)) == len(image_calls) == images
    assert len(set(table_calls)) == len(table_calls) == \
        {"sweedler": 16, "axb": 112}[case]


@pytest.mark.parametrize("case, faces, degeneracies, images", [
    ("sweedler", 398, 1252, 340), ("axb", 522, 986, 717)])
def test_relation_suite_applies_each_generator_once_per_key(
        monkeypatch, case, faces, degeneracies, images):
    """The relation suite through degree 4 applies face and degeneracy
    once per distinct (generator, key), each time to one basis key with
    coefficient 1, builds tau's image of each key once (``tau_image``,
    the prefixes its recursion reads included), and composes every word
    from those images."""
    mod, suite = _relation_suite_case(case)
    calls = {"face": [], "degeneracy": [], "tau_image": []}

    def counted(name):
        op, seen = getattr(HopfCyclicModule, name), calls[name]

        def wrapper(self, i, n, t):
            (key, c), = t.items()
            assert c == 1
            seen.append((i, n, key))
            return op(self, i, n, t)
        return wrapper

    def counted_image(self, key, prefix):
        calls["tau_image"].append(key)
        return build(self, key, prefix)

    build = HopfCyclicModule.tau_image
    for name in ("face", "degeneracy"):
        monkeypatch.setattr(HopfCyclicModule, name, counted(name))
    monkeypatch.setattr(HopfCyclicModule, "tau_image", counted_image)
    assert suite().ok
    for name, count in [("face", faces), ("degeneracy", degeneracies),
                        ("tau_image", images)]:
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
