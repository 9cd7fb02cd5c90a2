"""Structure-constant Hopf algebras: axioms, characters, twisted antipode."""

import copy
import random
from fractions import Fraction

import pytest

from hopfcyclic.fields import CyclotomicField
from hopfcyclic.hopf import (BUILTIN_BUILDERS, Character, CharacterError,
                             check_hopf_axioms, check_involution,
                             check_twisted_properties, cyclic_group_algebra,
                             evaluate, function_algebra, group_algebra, linear,
                             sweedler_h4)


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_builtin_axioms(name):
    H = BUILTIN_BUILDERS[name]()
    report = check_hopf_axioms(H)
    assert report.ok, report.render()


def test_corrupted_product_fails_with_witness():
    H = sweedler_h4()
    H.product[(1, 1)] = {2: Fraction(1)}  # g*g = x breaks associativity
    report = check_hopf_axioms(H)
    assert not report.ok
    names = [n for n, _ in report.failures()]
    assert any("assoc" in n or "antipode" in n or "unit" in n for n in names)
    assert all(w is not None for _, w in report.failures())


def test_sweedler_structure():
    H = sweedler_h4()
    one = Fraction(1)
    # xg = -gx and x^2 = 0 in the basis order 1, g, x, gx
    assert H.mul_basis(2, 1) == {3: -one}
    assert H.mul_basis(2, 2) == {}
    assert H.comul_basis(2) == {(2, 0): one, (1, 2): one}
    assert H.antipode_basis(2) == {3: -one}
    # S^2(x) = -x: the antipode has infinite order
    assert H.antipode_of(H.antipode_basis(2)) == {2: -one}


def test_sweedler_twisted_antipode():
    H = sweedler_h4()
    delta = H.character("delta")
    # twisted antipode sends x to gx, and squares to the identity
    assert H.twisted_antipode(delta, {2: Fraction(1)}) == {3: Fraction(1)}
    ok, witness = check_involution(delta)
    assert ok and witness is None


def test_sweedler_counit_not_involutive():
    H = sweedler_h4()
    ok, witness = check_involution(H.counit_character())
    assert not ok
    assert witness == "x"


def test_twisted_properties_all_builtins():
    for name in sorted(BUILTIN_BUILDERS):
        H = BUILTIN_BUILDERS[name]()
        chars = dict(H.characters)
        chars["counit"] = H.counit_character()
        for delta in chars.values():
            report = check_twisted_properties(delta)
            assert report.ok, f"{name}/{delta.name}\n" + report.render()


def test_counit_after_twist_is_character():
    """eps(S~(h)) = delta(h) on every basis element, on Sweedler and on QZ4
    over Q(zeta_4), with ``evaluate`` giving the same counit.  ``linear``,
    which runs comul, antipode_of and twisted_antipode, is the dense sum,
    stores no zero and leaves the coproduct and antipode tables as built."""
    F = CyclotomicField(4)
    z = F.zeta()
    qz4 = cyclic_group_algebra(4, field=F)
    cases = [(sweedler_h4(), None, [1, -1, Fraction(1, 2), 3]),
             (qz4, Character(qz4, [1, z, -1, -z]), [1, z, -2, 1 + z])]
    for H, delta, coeffs in cases:
        delta = delta or H.character("delta")
        tables = copy.deepcopy((H.coproduct, H.antipode))
        for i in range(H.dim):
            st = H.twisted_antipode(delta, {i: Fraction(1)})
            assert H.counit_of(st) == evaluate(H.counit, st) == \
                delta.value(i)
        a = dict(enumerate(coeffs))
        for image in (H.comul_basis, H.antipode_basis):
            keys = {k for i in a for k in image(i)}
            dense = {k: sum(c * image(i).get(k, 0) for i, c in a.items())
                     for k in keys}
            assert linear(image, a) == {k: v for k, v in dense.items() if v}
        H.comul(a)
        H.antipode_of(a)
        H.twisted_antipode(delta, a)
        assert (H.coproduct, H.antipode) == tables
    assert linear(lambda k: {0: k, 1: 1}, {1: 1, 2: -1}) == {0: -1}


def test_character_validation():
    H = sweedler_h4()
    with pytest.raises(CharacterError,
                       match=r"^character not multiplicative at basis pair "
                             r"\(1,1\)$"):
        # delta(g) = 2 is not multiplicative: delta(g)^2 must equal delta(1)=1
        Character(H, [Fraction(1), Fraction(2), Fraction(0), Fraction(0)])
    with pytest.raises(CharacterError):
        Character(H, [Fraction(1)])  # wrong length


def test_group_algebra_inverse_antipode():
    H = cyclic_group_algebra(5)
    one = Fraction(1)
    for k in range(5):
        assert H.antipode_basis(k) == {(5 - k) % 5: one}
    assert check_hopf_axioms(H).ok


@pytest.mark.parametrize("build", [group_algebra, function_algebra])
def test_non_invertible_cayley_table_rejected(build):
    # g g = g: the identity row and column are right, but g has no inverse
    with pytest.raises(ValueError, match="non-invertible"):
        build(["e", "g"], [[0, 1], [1, 1]])


def test_function_algebra_characters():
    labels = ["e", "g"]
    table = [[0, 1], [1, 0]]
    F = function_algebra(labels, table)
    # point evaluations are exactly the algebra characters
    for i, label in enumerate(labels):
        ch = F.character(f"eval_{label}")
        assert ch.value(i) == Fraction(1)
        assert sum(ch.values) == Fraction(1)


def test_random_group_algebra_characters_twisted(seed=101):
    """Characters of k[Z/n] are n-th roots of unity; sample them over a
    cyclotomic field and confirm the twisted-antipode identities."""
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.choice([2, 3, 4, 6])
        field = CyclotomicField(n)
        H = cyclic_group_algebra(n, field=field)
        k = rng.randrange(n)
        values = [field.zeta() ** (k * j) for j in range(n)]
        delta = Character(H, values, name=f"zeta^{k}")
        assert check_twisted_properties(delta).ok
