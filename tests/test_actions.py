"""Actions, invariant traces, the characteristic map, cocycles, pairing."""

import random
import re
from fractions import Fraction

import pytest

from hopfcyclic import actions as act
from hopfcyclic.fields import RationalField
from hopfcyclic.hopf import (FiniteAlgebra, FiniteHopf, check_hopf_axioms,
                             cyclic_group_algebra, matrix_algebra,
                             trivial_hopf)
from hopfcyclic.presentations import load_gamma_input

ONE = Fraction(1)
Z2_LABELS = ["e", "g"]
Z2_TABLE = [[0, 1], [1, 0]]


def translation_setup():
    action = act.translation_action(Z2_LABELS, Z2_TABLE)
    H, A = action.hopf, action.algebra
    return H, A, action, H.counit_character()


def matrix_trace_cochain(n=2):
    A = matrix_algebra(n)
    values = [ONE if divmod(i, n)[0] == divmod(i, n)[1] else Fraction(0)
              for i in range(n * n)]
    return A, act.Trace(A, values, name="matrix-trace")


def trace_of_product(A, *key):
    elem = {key[0]: ONE}
    for k in key[1:]:
        elem = A.mul(elem, {k: ONE})
    n = int(A.dim ** 0.5)
    return sum((c for i, c in elem.items() if divmod(i, n)[0] == divmod(i, n)[1]),
               Fraction(0))


def test_translation_action_valid():
    H, A, action, _ = translation_setup()
    assert act.check_action(action).ok


def test_trivial_action_valid():
    H, A, action, _ = translation_setup()
    assert act.check_action(act.HopfAction.trivial(H, A)).ok


def test_corrupted_action_fails_with_witness():
    H, A, action, _ = translation_setup()
    bad = act.HopfAction(H, A, {0: action.matrices[0], 1: {(0, 0): ONE}})
    report = act.check_action(bad)
    assert not report.ok
    assert all(w is not None for _, w in report.failures())


def test_algebra_validation_names_first_failure():
    """FiniteAlgebra raises at the first basis case where a law fails, and
    check_hopf_axioms, on a FiniteHopf with the same algebra half (built
    without complaint), fails that law's row at the same case."""
    Q = RationalField()
    # e_0 is the unit on the left only: e_1 e_0 = 0
    non_unital = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 1): {0: ONE}}
    # e_0 is the unit, a b = a, b a = b and a a = b b = 0, so
    # (a b) a = 0 but a (b a) = a
    non_associative = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                       (0, 2): {2: ONE}, (2, 0): {2: ONE}, (1, 2): {1: ONE},
                       (2, 1): {2: ONE}}
    for name, basis, product, message, row, witness in (
            ("A", ["e", "g"], non_unital, "unit law fails at basis 1",
             "unit", (1,)),
            ("D", ["e", "a", "b"], non_associative,
             r"associativity fails at \(1,2,1\)", "associativity",
             (1, 2, 1))):
        with pytest.raises(ValueError, match=f"^{name}: {message}$"):
            FiniteAlgebra(name, Q, basis, {0: ONE}, product)
        n = len(basis)
        H = FiniteHopf(name, Q, basis, {0: ONE}, product,
                       {i: {(i, i): ONE} for i in range(n)}, [ONE] * n,
                       {i: {i: ONE} for i in range(n)})
        assert (row, witness) in check_hopf_axioms(H).failures()


def test_random_conjugate_needs_an_off_diagonal_entry():
    # M_1(A) has no elementary matrix I + a e_rs with r != s
    A, _ = matrix_trace_cochain()
    E = {(0, 0): A.unit_element()}
    with pytest.raises(ValueError, match="q >= 2"):
        act.random_conjugate(A, E, 1, random.Random(0))


def test_summation_trace_invariant():
    H, A, action, eps = translation_setup()
    trace = act.summation_trace(A)
    assert act.check_delta_invariance(action, eps, trace).ok


def test_point_trace_not_invariant():
    H, A, action, eps = translation_setup()
    report = act.check_delta_invariance(action, eps, act.point_trace(A, 0))
    assert not report.ok
    assert report.failures()[0][1] is not None


def test_trace_and_character_over_other_algebras_are_refused():
    """A trace or a character is read on the action's own A and H, so one
    over another algebra is refused, naming both, rather than checked."""
    H, A, action, eps = translation_setup()
    _, matrix_trace = matrix_trace_cochain()
    other_eps = cyclic_group_algebra(2).counit_character()
    trace = act.summation_trace(A)
    refusals = [
        (lambda: act.check_delta_invariance(action, eps, matrix_trace),
         f"trace is over M2, not the action's {A.name}"),
        (lambda: act.characteristic_map(action, matrix_trace, {(1,): ONE}),
         f"trace is over M2, not the action's {A.name}"),
        (lambda: act.check_delta_invariance(action, other_eps, trace),
         f"character is over QZ2, not the action's {H.name}"),
        (lambda: act.check_gamma_morphism(action, other_eps, trace, 1),
         f"character is over QZ2, not the action's {H.name}")]
    for call, message in refusals:
        with pytest.raises(act.ActionError, match=re.escape(message)):
            call()


def test_characteristic_map_degree_zero_recovers_trace():
    H, A, action, _ = translation_setup()
    trace = act.summation_trace(A)
    phi = act.characteristic_map(action, trace, {(): ONE})
    assert phi == {(i,): v for i, v in enumerate(trace.values) if v}


def test_characteristic_map_trivial_action():
    """With the counit action, gamma(h) is eps(h) tau(x0 x1)."""
    H, A, _, _ = translation_setup()
    action = act.HopfAction.trivial(H, A)
    trace = act.summation_trace(A)
    phi_g = act.characteristic_map(action, trace, {(1,): ONE})
    phi_e = act.characteristic_map(action, trace, {(0,): ONE})
    assert phi_g == phi_e  # eps(g) = eps(e) = 1


def test_characteristic_map_translation_value():
    """gamma(g)(f0, f1) = sum_s f0(s) f1(s g) on indicator functions."""
    H, A, action, _ = translation_setup()
    trace = act.summation_trace(A)
    phi = act.characteristic_map(action, trace, {(1,): ONE})
    # f0 = indicator of s, f1 = indicator of t: value 1 iff t = s*g
    assert phi == {(0, 1): ONE, (1, 0): ONE}


def test_gamma_commutes_with_all_operators():
    H, A, action, eps = translation_setup()
    trace = act.summation_trace(A)
    report = act.check_gamma_morphism(action, eps, trace, 3)
    assert report.ok, report.render()


def test_gamma_computed_once_per_basis_tensor(monkeypatch, data_dir):
    action, delta, trace = load_gamma_input(
        str(data_dir / "gamma-translation.json"))
    calls = []
    characteristic_map = act.characteristic_map

    def counted(action, trace, t):
        calls.append(tuple(t))
        return characteristic_map(action, trace, t)

    monkeypatch.setattr(act, "characteristic_map", counted)
    report = act.check_gamma_morphism(action, delta, trace, 4)
    assert report.ok, report.render()
    # one call per basis tensor of degrees 0..4 over the 2-dimensional QZ2
    assert action.hopf.dim == 2 and len(calls) == len(set(calls)) == 31


def test_gamma_fails_for_point_trace():
    H, A, action, eps = translation_setup()
    report = act.check_gamma_morphism(action, eps, act.point_trace(A, 0), 2)
    failed = [name for name, _ in report.failures()]
    assert any(name.startswith("cyclic") for name in failed)


def test_trace_of_product_is_cyclic_cocycle():
    A, _ = matrix_trace_cochain()
    phi = act.cochain_from_function(
        A, 2, lambda i, j, k: trace_of_product(A, i, j, k))
    report = act.check_cyclic_cocycle(A, phi)
    assert report.ok, report.render()


def test_product_of_traces_fails_hochschild_condition():
    A, trace = matrix_trace_cochain()
    phi = act.cochain_from_function(
        A, 2,
        lambda i, j, k: trace.values[i] * trace.values[j] * trace.values[k])
    report = act.check_cyclic_cocycle(A, phi)
    names = dict((name, ok) for name, ok, _ in report.entries)
    assert names["cyclicity"]
    assert not names["hochschild-cocycle"]


def test_trace_is_cyclic_zero_cocycle():
    A, trace = matrix_trace_cochain()
    assert act.check_cyclic_cocycle(A, trace.as_cochain()).ok


def test_pairing_basic():
    A, trace = matrix_trace_cochain()
    E = {(0, 0): {0: ONE}}  # e_11 via q = 1
    assert act.pair_idempotent(A, trace.as_cochain(), E, 1) == 1


def test_pairing_rejects_non_idempotent():
    A, trace = matrix_trace_cochain()
    E = {(0, 0): {1: ONE}}  # e_12 is nilpotent
    with pytest.raises(act.ActionError):
        act.pair_idempotent(A, trace.as_cochain(), E, 1)


def test_pairing_degree_two():
    A, _ = matrix_trace_cochain()
    phi = act.cochain_from_function(
        A, 2, lambda i, j, k: trace_of_product(A, i, j, k))
    E = {(0, 0): {0: ONE}}
    assert act.pair_idempotent(A, phi, E, 1) == 1


def test_trace_extension_is_a_trace(seed=29):
    """The amplified functional X -> sum tau(X_ii) kills commutators."""
    rng = random.Random(seed)
    A = cyclic_group_algebra(2)
    trace = act.Trace(A, [ONE, Fraction(0)])
    q = 2
    for _ in range(10):
        def rand_mat():
            return {(r, c): {rng.randrange(A.dim): Fraction(rng.randrange(-2, 3))}
                    for r in range(q) for c in range(q)}
        X, Y = rand_mat(), rand_mat()
        def ext(M):
            return sum((trace.of(M.get((i, i), {})) for i in range(q)),
                       Fraction(0))
        assert ext(act.mat_over_mul(A, X, Y)) == \
            ext(act.mat_over_mul(A, Y, X))


@pytest.mark.parametrize("builder", [trivial_hopf,
                                     lambda: cyclic_group_algebra(2)])
def test_pairing_similarity_invariance(builder, seed=37):
    A = builder()
    trace = act.Trace(A, [ONE] + [Fraction(0)] * (A.dim - 1))
    E = {(0, 0): A.unit_element()}  # diag(1, 0) in M_2(A)
    base = act.pair_idempotent(A, trace.as_cochain(), E, 2)
    rng = random.Random(seed)
    for _ in range(20):
        Ec = act.random_conjugate(A, E, 2, rng)
        assert act.is_idempotent(A, Ec)
        assert act.pair_idempotent(A, trace.as_cochain(), Ec, 2) == base
