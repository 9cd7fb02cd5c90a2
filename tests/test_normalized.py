"""The normalized complex N^n = (ker eps)^(x)n against the full cyclic module.

In the rebased presentation f_p = 1, f_i = e_i - eps(e_i) 1, N^n is spanned
by the basis tuples with no index p.  Its b and B are checked here against
the full b_matrix and B_matrix through the change of basis, written out
independently below, and its HH and HC against the full complex's.
"""

from fractions import Fraction

import pytest

from conftest import DATA, differentials
from hopfcyclic import cohomology
from hopfcyclic.cli import main
from hopfcyclic.cohomology import (B_matrix, b_matrix, bicomplex_dimensions,
                                   cohomology_report, hochschild_dimensions)
from hopfcyclic.cyclic_ops import HopfCyclicModule, NormalizedModule
from hopfcyclic.fields import rational
from hopfcyclic.hopf import (FiniteHopf, check_hopf_axioms, check_involution,
                             rebased, sweedler_h4, vec_add_into)
from hopfcyclic.linalg import combine
from hopfcyclic.presentations import load_hopf
from test_assembly import CASES as BUILTIN_CASES


def presentation_cases():
    """(id, H, delta): the involutive builtin cases, QZ4 over Q(zeta_4) and
    every Hopf presentation in data/ with each of its involutive
    characters."""
    out = [(i, m.hopf, m.delta) for i, m in BUILTIN_CASES]
    for name in ("qz2", "sweedler-h4"):
        H = load_hopf(str(DATA / f"{name}.json"))
        out += [(f"{name}-json-{c}", H, H.character(c))
                for c in sorted(H.characters)
                if check_involution(H.character(c))[0]]
    return out


CASES = presentation_cases()
IDS = [c[0] for c in CASES]


def old_basis(H, key):
    """f_(k_1) (x) ... (x) f_(k_n) in the basis e, as a dict of tuples."""
    p = min(H.unit)
    out = {(): 1}
    for k in key:
        f = dict(H.unit) if k == p else vec_add_into(
            {k: 1}, H.unit, -H.counit[k])
        out = {t + (i,): c * v for t, c in out.items() for i, v in f.items()}
    return out


def in_old_basis(module, norm, col, n):
    """A column of a normalized matrix to degree n, as coordinates in the
    basis e of the full module."""
    out = {}
    for r, v in col.items():
        vec_add_into(out, old_basis(module.hopf, norm.key_of_index(r, n)), v)
    return {module.key_index(k): v for k, v in out.items()}


@pytest.mark.parametrize("H,delta", [c[1:] for c in CASES], ids=IDS)
def test_rebased_presentation_is_hopf_and_reports_the_same(H, delta):
    delta_r, p = rebased(delta)
    Hr = delta_r.hopf
    assert check_hopf_axioms(Hr).ok
    assert Hr.unit == {p: 1}
    assert [Hr.counit[k] for k in range(H.dim)] == [
        int(k == p) for k in range(H.dim)]
    assert cohomology_report(delta_r, 3).render() == \
        cohomology_report(delta, 3).render()


def assert_restricts(module, norm, bar, whole, src, tgt):
    """P bar = whole P from degree src to degree tgt, for P the inclusion
    of N in the full module through the change of basis."""
    for j, key in enumerate(norm.basis_keys(src)):
        x = {module.key_index(k): v
             for k, v in old_basis(module.hopf, key).items()}
        assert combine(whole.cols, x) == in_old_basis(
            module, norm, bar.cols[j], tgt), (src, key)


@pytest.mark.parametrize("H,delta", [c[1:] for c in CASES], ids=IDS)
def test_normalized_b_and_B_are_the_full_ones_on_N(H, delta):
    """P b_norm = b P and P B_norm = B P, for P the inclusion of N in the
    full module through the change of basis, through degree 4.  The
    normalized b is built on N's own rows; B keeps an ``outside`` witness,
    which is None."""
    module = HopfCyclicModule(delta)
    norm = NormalizedModule(delta)
    for n in range(5):
        bar = B_matrix(norm, n)
        assert bar.outside is None
        assert_restricts(module, norm, bar, B_matrix(module, n), n + 1, n)
        if n >= 1:
            assert_restricts(module, norm, b_matrix(norm, n),
                             b_matrix(module, n), n - 1, n)


@pytest.mark.parametrize("case", ["sweedler-delta", "qz4-zeta4-delta"])
def test_normalized_b_recursion_beyond_top(case):
    """The normalized b and the full b each come from their own cobar
    recursion; they must still agree through the change of basis at
    degree 5."""
    H, delta = dict((c[0], c[1:]) for c in CASES)[case]
    module = HopfCyclicModule(delta)
    norm = NormalizedModule(delta)
    assert_restricts(module, norm, b_matrix(norm, 5), b_matrix(module, 5),
                     4, 5)


def test_normalized_module_refuses_a_broken_counit():
    """QZ2 with eps(g) = -1: (eps (x) id) Delta(g) = -g, so the reduced
    coproduct of f_g = g + 1 keeps -2 f_g (x) f_e, and N is refused with
    that term named by its indices."""
    H = load_hopf(str(DATA / "qz2.json"))
    broken = FiniteHopf(
        H.name, H.field, H.basis, H.unit, H.product, H.coproduct, [1, -1],
        H.antipode, {})
    assert not check_hopf_axioms(broken).ok
    with pytest.raises(ValueError, match="counit axiom fails on .* at "
                                         "basis index 1: D\\(e_1\\) keeps "
                                         "the term -2 e_1 \\(x\\) e_0$"):
        NormalizedModule(broken.counit_character())


@pytest.mark.parametrize("H,delta", [c[1:] for c in CASES], ids=IDS)
def test_normalized_dimensions_equal_the_full_ones(H, delta):
    module = HopfCyclicModule(delta)
    norm = NormalizedModule(delta)
    b, B = differentials(module, 5)
    b_bar, B_bar = differentials(norm, 5)
    assert hochschild_dimensions(b_bar)[0] == hochschild_dimensions(b)[0]
    assert bicomplex_dimensions(b_bar, B_bar) == bicomplex_dimensions(b, B)


def relabelled(H, delta, order, scale):
    """H and delta in the basis e'_i = scale[i] e_(order[i])."""
    new = {k: i for i, k in enumerate(order)}

    def to_new(vec, c=1):
        return {new[k]: rational(Fraction(c * v) / scale[new[k]])
                for k, v in vec.items()}

    H2 = FiniteHopf(
        H.name, H.field, [H.basis[k] for k in order], to_new(H.unit),
        {(i, j): to_new(H.mul_basis(a, b), scale[i] * scale[j])
         for i, a in enumerate(order) for j, b in enumerate(order)},
        {i: {(new[x], new[y]): rational(Fraction(scale[i] * v)
                                        / (scale[new[x]] * scale[new[y]]))
             for (x, y), v in H.comul_basis(a).items()}
         for i, a in enumerate(order)},
        [scale[i] * H.counit[a] for i, a in enumerate(order)],
        {i: to_new(H.antipode_basis(a), scale[i])
         for i, a in enumerate(order)},
        {delta.name: [scale[i] * delta.values[a]
                      for i, a in enumerate(order)]})
    return H2, H2.character(delta.name)


@pytest.mark.parametrize("order,scale", [((2, 3, 0, 1), (1, 1, 2, 1)),
                                         ((3, 0, 2, 1), (1, -1, 1, 3))])
def test_unit_off_index_zero(order, scale):
    """Sweedler's H4 with the unit at index 2 and 1 = e'_2 / 2, or at
    index 1 with 1 = -e'_1: p, the digits of N and the rebasing move, and
    every report stays the same."""
    H = sweedler_h4()
    H2, delta2 = relabelled(H, H.character("delta"), order, scale)
    assert check_hopf_axioms(H2).ok
    assert NormalizedModule(delta2).p == order.index(0)
    for method in ("both", "bB"):
        assert cohomology_report(delta2, 4, method).render() == \
            cohomology_report(H.character("delta"), 4, method).render()


def test_normalized_index_skips_the_unit():
    H = load_hopf(str(DATA / "qz2.json"))
    norm = NormalizedModule(H.counit_character())
    assert norm.p == 0 and norm.space_dim(3) == 1
    assert list(norm.basis_keys(2)) == [(1, 1)]
    assert norm.key_of_index(0, 2) == (1, 1) and norm.key_index((1, 1)) == 0


def test_report_refuses_B_column_outside_N(capsys, monkeypatch):
    """B_1 with an entry on the rebased tuple (p,), which no row of N
    holds, is refused with that column as the witness."""
    def leaky(module, n):
        matrix = B_matrix(module, n)
        if n == 1:
            rows = module.full_index(1)
            cols = [{rows[r]: v for r, v in col.items()}
                    for col in matrix.cols]
            cols[0][module.p] = 1
            matrix = module.restricted(cols, 2, 1)
        return matrix

    monkeypatch.setattr(cohomology, "B_matrix", leaky)
    code = main(["cohomology", "--input", "sweedler", "--character", "delta",
                 "--max-degree", "3", "--method", "bB"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("report: mixed-complex\n")
    witness = "witness=('outside N', [(1, 1)])"
    for check in ("B2 n=0", "B2 n=1", "bB+Bb n=1", "bB+Bb n=2"):
        assert f"check {check} status=FAIL {witness}" in out
    assert "check bB+Bb n=0 status=pass" in out
    assert not any(line.startswith("degree ") for line in out.splitlines())
