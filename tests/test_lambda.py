"""The small cyclic category: normal forms, decomposition, functoriality."""

import random

import pytest

from hopfcyclic import lambda_cat
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.hopf import cyclic_group_algebra, sweedler_h4
from hopfcyclic.lambda_cat import (LambdaMorphism, check_functoriality,
                                   compose_word, cyclic_morphism, decompose,
                                   face_morphism, degeneracy_morphism,
                                   identity_morphism,
                                   morphism_relation_suite, random_word)


def test_face_degeneracy_values():
    d1 = face_morphism(2, 1)       # injection on 3 points missing 1
    assert [d1(x) for x in range(2)] == [0, 2]
    s0 = degeneracy_morphism(1, 0)  # surjection collapsing 0, 1
    assert [s0(x) for x in range(3)] == [0, 0, 1]


def test_decompose_refuses_a_word_that_does_not_recompose(monkeypatch):
    monkeypatch.setattr(lambda_cat, "compose_word",
                        lambda word, source_degree: identity_morphism(
                            source_degree + 1))
    with pytest.raises(ValueError, match="does not recompose"):
        decompose(cyclic_morphism(2))


def test_cyclic_is_shift():
    t = cyclic_morphism(2)
    # x -> x - 1, stored with f(0) normalized into [0, 3)
    assert [t(x) for x in range(3)] == [2, 3, 4]
    assert t(3) == t(0) + 3
    assert (t.compose(t).compose(t)) == identity_morphism(3)


def test_composition_periodicity():
    f = face_morphism(2, 0).compose(degeneracy_morphism(1, 1))
    for x in range(-3, 6):
        assert f(x + 3) == f(x) + 3


def test_relation_suite_normal_forms():
    report = morphism_relation_suite(4)
    assert report.ok, report.render()


def test_decompose_round_trip(seed=11):
    rng = random.Random(seed)
    for _ in range(300):
        degree, word = random_word(rng, 4)
        f = compose_word(word, source_degree=degree)
        redone = compose_word(decompose(f), source_degree=degree)
        assert redone == f, (word, f.values)


def test_decompose_identity():
    n = 3
    assert decompose(identity_morphism(n)) == []


def test_simplicial_decomposition_shape(seed=19):
    """A simplicial morphism decomposes as faces after degeneracies."""
    rng = random.Random(19)
    for _ in range(100):
        degree, word = random_word(rng, 4)
        f = compose_word(word, source_degree=degree)
        if not f.is_simplicial():
            continue
        tags = [tag for tag, _, _ in decompose(f)]
        assert "t" not in tags
        # list order is faces first, then degeneracies (applied right to left)
        seen_s = False
        for tag in tags:
            if tag == "s":
                seen_s = True
            else:
                assert tag == "d" and not seen_s


def test_invalid_morphism_rejected():
    with pytest.raises(ValueError):
        LambdaMorphism(1, 1, [1, 0])  # not nondecreasing
    with pytest.raises(ValueError):
        LambdaMorphism(1, 1, [0, 3])  # jumps past one period


def test_functoriality_on_modules(seed=23):
    rng = random.Random(seed)
    for H, cname in [(cyclic_group_algebra(2), "counit"),
                     (sweedler_h4(), "delta")]:
        delta = H.counit_character() if cname == "counit" \
            else H.character(cname)
        module = HopfCyclicModule(delta)
        assert check_functoriality(module, rng, 3, words_per_degree=40)
