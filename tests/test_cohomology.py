"""Cohomology dimensions and the mixed-complex identities."""

import itertools

import pytest
from hypothesis import given, settings

from conftest import differentials, load_golden
from dense_oracle import oracle_dimensions
from hopfcyclic.cli import main
from hopfcyclic.cohomology import (NotCyclicError, NotMixedComplexError,
                                   b_matrix, bicomplex_dimensions,
                                   cohomology_report, B_operator, hochschild_b,
                                   hochschild_dimensions,
                                   lambda_complex_dimensions,
                                   mixed_complex_report,
                                   one_minus_lambda_matrix, require_involution)
from hopfcyclic.cyclic_ops import HopfCyclicModule
from hopfcyclic.hopf import (cyclic_group_algebra, function_algebra,
                             group_algebra, sweedler_h4, trivial_hopf)
from hopfcyclic.linalg import SparseMatrix
from test_assembly import abelian_hopf_modules

CASES = [
    ("trivial", trivial_hopf, "counit"),
    ("qz2", lambda: cyclic_group_algebra(2), "counit"),
    ("qz3", lambda: cyclic_group_algebra(3), "counit"),
    ("sweedler", sweedler_h4, "delta"),
]


def module_of(builder, cname):
    H = builder()
    delta = H.counit_character() if cname == "counit" else H.character(cname)
    return H, delta, HopfCyclicModule(delta)


def test_trivial_dimensions():
    H, delta, module = module_of(trivial_hopf, "counit")
    b, _ = differentials(module, 4)
    hh, ranks = hochschild_dimensions(b)
    assert hh == [1, 0, 0, 0, 0]
    minus = [one_minus_lambda_matrix(module, n) for n in range(len(b))]
    assert lambda_complex_dimensions(b, minus) == ([1, 0, 1, 0, 1], ranks)


@pytest.mark.parametrize("name,builder,cname", CASES)
def test_lambda_dimensions_match_goldens(name, builder, cname):
    _, _, module = module_of(builder, cname)
    golden = load_golden(name)
    b, _ = differentials(module, 4)
    hh, ranks = hochschild_dimensions(b)
    assert hh == golden["HH"]
    minus = [one_minus_lambda_matrix(module, n) for n in range(len(b))]
    assert lambda_complex_dimensions(b, minus) == (golden["HC"], ranks)


@pytest.mark.parametrize("name,builder,cname", CASES[:3])
def test_bicomplex_matches_goldens_below_boundary(name, builder, cname):
    _, _, module = module_of(builder, cname)
    golden = load_golden(name)
    dims, flags = bicomplex_dimensions(*differentials(module, 4))
    for n in range(4):
        if not flags[n]:
            assert dims[n] == golden["HC"][n], n


def test_oracle_agrees_with_package_on_sweedler():
    H, delta, module = module_of(sweedler_h4, "delta")
    hh_oracle, hc_oracle = oracle_dimensions(H, list(delta.values), 3)
    b, _ = differentials(module, 3)
    hh, ranks = hochschild_dimensions(b)
    assert hh == hh_oracle
    minus = [one_minus_lambda_matrix(module, n) for n in range(len(b))]
    assert lambda_complex_dimensions(b, minus) == (hc_oracle, ranks)


def test_dimensions_read_sizes_off_the_matrices():
    """A hand-built integer complex with no module behind it and B = 0.
    The total complex is then a sum of shifted copies of (C, b), so HC^n =
    sum_k HH^(n-2k), and with B = 0 the truncation loses nothing, so this
    holds at the flagged degree N-1 too.  C^0 is seen only as the columns
    of b_1, which is zero, and the bicomplex, given b_1..b_4, sees its top
    degree C^4 only as the rows of b_4, the block above C^2 in T^4."""
    sizes = [1, 2, 3, 2, 3, 1]  # dim C^n for n = 0..5
    entries = {1: {}, 2: {(0, 0): 2, (0, 1): -2}, 3: {(1, 1): 3},
               4: {(2, 0): 1}, 5: {(0, 0): 5, (0, 1): 5}}
    b = {n: SparseMatrix(sizes[n], sizes[n - 1], e)
         for n, e in entries.items()}
    hh, ranks = hochschild_dimensions(b)
    assert (hh, ranks) == ([1, 1, 1, 0, 1], [0, 1, 1, 1, 1])
    B = {n: SparseMatrix(sizes[n], sizes[n + 1]) for n in range(4)}
    dims, flags = bicomplex_dimensions({n: b[n] for n in range(1, 5)}, B)
    assert flags == [False, False, False, True, True] and dims[4] is None
    for n in range(4):
        assert dims[n] == sum(hh[n - 2 * k] for k in range(n // 2 + 1)), n
    assert dims[:4] == [1, 1, 2, 1]


@pytest.mark.parametrize("name,builder,cname", CASES)
def test_mixed_complex_identities(name, builder, cname):
    _, _, module = module_of(builder, cname)
    report = mixed_complex_report(module, 3)
    assert report.ok, report.render()


@pytest.mark.parametrize("name,builder,cname", CASES[:3])
def test_method_agreement_report(name, builder, cname):
    H, delta, _ = module_of(builder, cname)
    report = cohomology_report(delta, 4, method="both")
    assert report.methods_agree()
    # rendering is deterministic
    assert report.render() == cohomology_report(delta, 4,
                                                method="both").render()


def test_involution_refusal():
    H = sweedler_h4()
    with pytest.raises(NotCyclicError):
        require_involution(H.counit_character())
    with pytest.raises(NotCyclicError):
        cohomology_report(H.counit_character(), 2)


@pytest.mark.parametrize("method", ["lamda", "BB", "", None])
def test_report_refuses_an_unknown_method(method):
    H = sweedler_h4()
    with pytest.raises(ValueError, match="unknown method"):
        cohomology_report(H.character("delta"), 2, method=method)


def test_report_refuses_broken_mixed_complex(capsys, perturbed_B1):
    H = sweedler_h4()
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(H.character("delta"), 3)
    report = caught.value.report
    assert not report.ok
    # the command line prints the library's report and nothing else
    assert main(["cohomology", "--input", "sweedler", "--character", "delta",
                 "--max-degree", "3"]) == 1
    assert capsys.readouterr().out == report.render() + "\n"


def test_b_image_is_cyclic_invariant():
    """b restricted to the invariant subcomplex lands in it again."""
    _, _, module = module_of(sweedler_h4, "delta")
    for n in range(3):
        proj = one_minus_lambda_matrix(module, n + 1)
        for vec in one_minus_lambda_matrix(module, n).kernel_basis():
            t = {module.key_of_index(i, n): c for i, c in vec.items()}
            img = hochschild_b(module, n + 1, t)
            coords = {module.key_index(k): v for k, v in img.items()}
            assert not proj.apply(coords)


def test_B_image_in_cyclic_kernel():
    _, _, module = module_of(sweedler_h4, "delta")
    for n in range(3):
        proj = one_minus_lambda_matrix(module, n)
        for t in module.samples(n + 1):
            img = B_operator(module, n, t)
            coords = {module.key_index(k): v for k, v in img.items()}
            assert not proj.apply(coords)


def test_matrix_and_elementwise_b_agree():
    _, _, module = module_of(sweedler_h4, "delta")
    n = 2
    mat = b_matrix(module, n)
    for t in module.samples(n - 1):
        coords = {module.key_index(k): v for k, v in t.items()}
        img = hochschild_b(module, n, t)
        want = {module.key_index(k): v for k, v in img.items()}
        assert mat.apply(coords) == want


# S_3 as permutations of (0, 1, 2), the identity first; (p q)(x) = p(q(x))
S3 = list(itertools.permutations(range(3)))
S3_TABLE = [[S3.index(tuple(p[q[x]] for x in range(3))) for q in S3]
            for p in S3]
S3_LABELS = ["".join(map(str, p)) for p in S3]


def assert_semisimple_dual_closed_form(module, top=3):
    """k[G] and k^G are coalgebras whose duals k^G and k[G] are semisimple,
    so the cobar complex computing HH is exact above degree 0:
    HH = (1, 0, 0, ...).  The SBI sequence then forces HC = (1, 0, 1, 0, ...)
    for every character.  Both methods, every degree the truncation
    determines."""
    report = cohomology_report(module.delta, top, method="both")
    columns = report.columns
    for n, flag in enumerate(report.flags):
        assert columns["HH"][n] == (1 if n == 0 else 0), (n, report.render())
        assert columns["HC_lambda"][n] == (1 - n % 2), (n, report.render())
        if not flag:
            assert columns["HC_bB"][n] == (1 - n % 2), (n, report.render())


@settings(max_examples=10, deadline=None)
@given(abelian_hopf_modules())
def test_abelian_group_closed_form(module):
    assert_semisimple_dual_closed_form(module)


@pytest.mark.parametrize("builder", [group_algebra, function_algebra],
                         ids=["k[S3]", "k^S3"])
def test_s3_closed_form(builder):
    H = builder(S3_LABELS, S3_TABLE)
    assert_semisimple_dual_closed_form(
        HopfCyclicModule(H.counit_character()))
