"""Acceptance suite: eleven end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every comparison is exact (no tolerances: the arithmetic is over Q
or a cyclotomic extension), and every expected value either follows from a
convention fixed in the package or is frozen in tests/goldens/ from the
independent dense oracle in dense_oracle.py.
"""

import random
import time
from fractions import Fraction

from conftest import differentials, load_golden
from hopfcyclic import actions as act
from hopfcyclic.cohomology import (bicomplex_dimensions, cohomology_report,
                                   hochschild_dimensions,
                                   mixed_complex_report)
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.enveloping import (EnvelopingAlgebra, ax_plus_b_lie_algebra,
                                   tensor_samples)
from hopfcyclic.fields import CyclotomicField
from hopfcyclic.hopf import (BUILTIN_BUILDERS, Character, check_involution,
                             check_twisted_properties, cyclic_group_algebra,
                             sweedler_h4, trivial_hopf)
from hopfcyclic.lambda_cat import (check_functoriality, cyclic_morphism,
                                   identity_morphism)
from hopfcyclic.relations import check_cyclic_power_formula, relation_suite

ONE = Fraction(1)


def verdict(number, ok, text):
    line = f"criterion {number:2d}: {'pass' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def builtin_cases():
    out = []
    for name in sorted(BUILTIN_BUILDERS):
        H = BUILTIN_BUILDERS[name]()
        delta = H.character("delta") if "delta" in H.characters \
            else H.counit_character()
        out.append((name, H, delta))
    return out


def test_criterion_1_relation_suites():
    elapsed = {}
    ok = True
    for H, delta in [(sweedler_h4(), None), (cyclic_group_algebra(2), None)]:
        delta = H.character("delta") if "delta" in H.characters \
            else H.counit_character()
        start = time.time()
        report = relation_suite(HopfCyclicModule(delta), 4)
        elapsed[H.name] = time.time() - start
        ok = ok and report.ok and elapsed[H.name] < 10.0
    verdict(1, ok, "all cyclic-module relations hold exactly for degrees "
            f"<= 4 (times: {', '.join(f'{k} {v:.2f}s' for k, v in elapsed.items())})")


def test_criterion_2_counit_negative_control():
    H = sweedler_h4()
    eps = H.counit_character()
    inv_ok, witness = check_involution(eps)
    module = HopfCyclicModule(eps)
    m = module.cyclic_matrix(2)
    cube = m @ m @ m
    eye = type(m).identity(module.space_dim(2))
    ok = (not inv_ok) and witness == "x" and cube.entries != eye.entries
    verdict(2, ok, "counit character on the 4-dim algebra: involution fails "
            "at witness x and the degree-2 cyclic operator has order > 3")


def test_criterion_3_twisted_antipode_properties():
    ok = True
    for name, H, delta in builtin_cases():
        for ch in list(H.characters.values()) + [H.counit_character()]:
            ok = ok and check_twisted_properties(ch).ok
        # eps(S~(h)) = delta(h) exactly on every basis element
        for i in range(H.dim):
            st = H.twisted_antipode(delta, {i: ONE})
            ok = ok and H.counit_of(st) == delta.value(i)
    # 100 seeded random characters of cyclic group algebras over Q(zeta_n):
    # every character sends the generator to some n-th root of unity
    rng = random.Random(301)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 6, 8])
        field = CyclotomicField(n)
        H = cyclic_group_algebra(n, field=field)
        k = rng.randrange(n)
        delta = Character(H, [field.zeta() ** (k * j) for j in range(n)])
        ok = ok and check_twisted_properties(delta).ok
    verdict(3, ok, "twisted-antipode identities on all builtins and 100 "
            "seeded root-of-unity characters")


def test_criterion_4_cyclic_power_formula():
    rng = random.Random(401)
    ok = True
    for name, H, delta in builtin_cases():
        module = HopfCyclicModule(delta)
        for n in range(1, 4):
            tensors = []
            for _ in range(100):
                key = tuple(rng.randrange(H.dim) for _ in range(n))
                tensors.append({key: Fraction(rng.randrange(-4, 5) or 1)})
            for j in range(1, n + 2):
                holds, _ = check_cyclic_power_formula(module, n, j, tensors)
                ok = ok and holds
    verdict(4, ok, "closed rotation formula for all powers of the cyclic "
            "operator, 100 seeded tensors per degree and example")


def test_criterion_5_mixed_complex_identities():
    ok = True
    for name, H, delta in builtin_cases():
        if not check_involution(delta)[0]:
            continue  # the cyclic machinery is defined only with involution
        module = HopfCyclicModule(delta)
        report = mixed_complex_report(module, 5 if H.dim <= 3 else 4)
        ok = ok and report.ok
    # the largest example at full depth
    H = sweedler_h4()
    module = HopfCyclicModule(H.character("delta"))
    ok = ok and mixed_complex_report(module, 5).ok
    verdict(5, ok, "b^2 = 0, B^2 = 0 and bB + Bb = 0 exactly through "
            "degree 5 on every example")


def test_criterion_6_trivial_dimensions():
    start = time.time()
    H = trivial_hopf()
    module = HopfCyclicModule(H.counit_character())
    b, _ = differentials(module, 4)
    hh, b_ranks = hochschild_dimensions(b)
    report = cohomology_report(module.delta, 4, method="lambda")
    hc = report.columns["HC_lambda"]
    took = time.time() - start
    ok = hh == [1, 0, 0, 0, 0] and hc == [1, 0, 1, 0, 1] and took < 1.0 \
        and report.columns["HH"] == hh \
        and report.columns["rank_b"] == [0] + b_ranks[:4]
    verdict(6, ok, f"ground field: HH = {hh}, HC = {hc} in {took:.3f}s")


def test_criterion_7_method_agreement():
    ok = True
    details = []
    for name, builder, cname in [
            ("qz2", lambda: cyclic_group_algebra(2), "counit"),
            ("qz3", lambda: cyclic_group_algebra(3), "counit"),
            ("sweedler", sweedler_h4, "delta")]:
        H = builder()
        delta = H.counit_character() if cname == "counit" \
            else H.character(cname)
        module = HopfCyclicModule(delta)
        golden = load_golden(name)
        hc_lambda = cohomology_report(delta, 4,
                                      method="lambda").columns["HC_lambda"]
        dims, flags = bicomplex_dimensions(*differentials(module, 6))
        agree = all(hc_lambda[n] == dims[n] == golden["HC"][n]
                    for n in range(5) if not flags[n])
        ok = ok and agree and hc_lambda == golden["HC"]
        details.append(f"{name} HC={hc_lambda}")
    verdict(7, ok, "invariant-subcomplex and bicomplex dimensions match the "
            f"frozen dense-oracle goldens ({'; '.join(details)})")


def test_criterion_8_symbolic_enveloping_algebra():
    U = EnvelopingAlgebra(ax_plus_b_lie_algebra())
    delta = U.modular_character()
    ok = delta.value((1, 0)) == ONE and delta.value((0, 1)) == 0
    for key in U.monomials_up_to_degree(4):
        twice = U.twisted_antipode(delta, U.twisted_antipode(
            delta, U.monomial(key)))
        ok = ok and twice == U.monomial(key)
    module = HopfCyclicModule(delta)
    rng = random.Random(801)
    samples = tensor_samples(U, 3, rng=rng)
    ok = ok and relation_suite(module, 3, samples=samples.__getitem__).ok
    # the generator X is a Hochschild 1-cocycle: b(X) = 0 since X is
    # primitive, and b: C^0 -> C^1 is the zero map, so X is not a boundary
    from hopfcyclic.cohomology import hochschild_b
    x = {((1, 0),): ONE}
    ok = ok and hochschild_b(module, 2, x) == {}
    ok = ok and hochschild_b(module, 1, {(): ONE}) == {}
    verdict(8, ok, "U(g) for [X,Y] = Y: adjoint-trace character, twisted "
            "involution to degree 4, relation suite on seeded samples, X a "
            "nontrivial 1-cocycle")


def test_criterion_9_functoriality():
    H = cyclic_group_algebra(2)
    module = HopfCyclicModule(H.counit_character())
    rng = random.Random(901)
    ok, tested = check_functoriality(module, rng, 4, words_per_degree=200)
    for n in range(5):
        t = cyclic_morphism(n)
        power = identity_morphism(n + 1)
        for _ in range(n + 1):
            power = t.compose(power)
        ok = ok and power == identity_morphism(n + 1)
    verdict(9, ok, f"{tested} random generator words per normal form agree "
            "as operators; the cyclic staircase has exact order n+1")


def test_criterion_10_characteristic_map():
    action = act.translation_action(["e", "g"], [[0, 1], [1, 0]])
    A, eps = action.algebra, action.hopf.counit_character()
    good = act.check_gamma_morphism(action, eps, act.summation_trace(A), 3)
    bad = act.check_gamma_morphism(action, eps, act.point_trace(A, 0), 2)
    cyclic_failed = any(name.startswith("cyclic")
                        for name, _ in bad.failures())
    ok = good.ok and not bad.ok and cyclic_failed
    verdict(10, ok, "characteristic map commutes with all operators for the "
            "invariant trace and fails cyclic-compatibility for point "
            "evaluation")


def test_criterion_11_pairing_invariance():
    ok = True
    for builder in (trivial_hopf, lambda: cyclic_group_algebra(2)):
        A = builder()
        trace = act.Trace(A, [ONE] + [Fraction(0)] * (A.dim - 1))
        E = {(0, 0): A.unit_element()}
        base = act.pair_idempotent(A, trace.as_cochain(), E, 2)
        rng = random.Random(1101)
        for _ in range(20):
            E2 = act.random_conjugate(A, E, 2, rng)
            ok = ok and act.is_idempotent(A, E2)
            ok = ok and act.pair_idempotent(A, trace.as_cochain(), E2, 2) == base
    verdict(11, ok, "idempotent pairing exactly invariant under 20 seeded "
            "similarity conjugations over both coefficient algebras")
