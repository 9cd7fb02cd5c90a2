"""Cohomology dimensions and the mixed-complex identities."""

import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import (DATA, GOLDENS, differentials, lambda_oracle,
                      load_golden, minus_lambda, stacked_lambda_dimensions)
from dense_oracle import oracle_dimensions
from hopfcyclic import cohomology, cyclic_ops
from hopfcyclic.cli import main
from hopfcyclic.cohomology import (NotCyclicError, NotMixedComplexError,
                                   B_matrix, b_matrix, b_prime_matrix,
                                   bicomplex_dimensions,
                                   cohomology_report, B_operator, hochschild_b,
                                   hochschild_dimensions,
                                   hochschild_representatives,
                                   lambda_complex_dimensions,
                                   mixed_complex_report,
                                   require_involution)
from hopfcyclic.cyclic_ops import HopfCyclicModule, NormalizedModule, on_rows
from hopfcyclic.hopf import (BUILTIN_BUILDERS, FiniteHopf, check_hopf_axioms,
                             check_involution, coinner_eigenvalues,
                             cyclic_group_algebra, evaluate, function_algebra,
                             group_algebra, linear, sweedler_h4, trivial_hopf,
                             vec_add_into, vec_scale, vec_sub)
from hopfcyclic.linalg import SparseMatrix, combine
from hopfcyclic.presentations import load_gamma_input, load_hopf
from hopfcyclic.reports import CheckReport
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
    report = cohomology_report(delta, 4, method="lambda")
    assert report.columns["HH"] == hh
    assert report.columns["rank_b"] == [0] + ranks[:4]
    assert report.columns["HC_lambda"] == [1, 0, 1, 0, 1] == \
        lambda_oracle(delta, 4)


@pytest.mark.parametrize("name,builder,cname", CASES)
def test_lambda_dimensions_match_goldens(name, builder, cname):
    _, delta, module = module_of(builder, cname)
    golden = load_golden(name)
    b, _ = differentials(module, 4)
    hh, ranks = hochschild_dimensions(b)
    assert hh == golden["HH"]
    report = cohomology_report(delta, 4, method="lambda")
    assert report.columns["HH"] == hh
    assert report.columns["rank_b"] == [0] + ranks[:4]
    assert report.columns["HC_lambda"] == golden["HC"]


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
    assert hochschild_dimensions(b)[0] == hh_oracle
    minus = [minus_lambda(module, n) for n in range(len(b))]
    assert stacked_lambda_dimensions(b, minus) == hc_oracle
    report = cohomology_report(delta, 3, method="lambda")
    assert report.columns["HH"] == hh_oracle
    assert report.columns["HC_lambda"] == hc_oracle


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
        proj = minus_lambda(module, n + 1)
        for vec in minus_lambda(module, n).kernel_basis():
            t = {module.key_of_index(i, n): c for i, c in vec.items()}
            img = hochschild_b(module, n + 1, t)
            coords = {module.key_index(k): v for k, v in img.items()}
            assert not combine(proj.cols, coords)


def test_B_image_in_cyclic_kernel():
    _, _, module = module_of(sweedler_h4, "delta")
    for n in range(3):
        proj = minus_lambda(module, n)
        for t in module.samples(n + 1):
            img = B_operator(module, n, t)
            coords = {module.key_index(k): v for k, v in img.items()}
            assert not combine(proj.cols, coords)


def test_matrix_and_elementwise_b_agree():
    _, _, module = module_of(sweedler_h4, "delta")
    n = 2
    mat = b_matrix(module, n)
    for t in module.samples(n - 1):
        coords = {module.key_index(k): v for k, v in t.items()}
        img = hochschild_b(module, n, t)
        want = {module.key_index(k): v for k, v in img.items()}
        assert combine(mat.cols, coords) == want


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


# ---------------------------------------------------------------------------
# the co-inner reduction: only the phi_delta-invariant cochains are ranked


def character_cases():
    """(id, delta) for every character of every builtin, of each Hopf
    presentation in data/, and of QZ4 over Q(zeta_4)."""
    out = [(f"{name}-{cname}", delta)
           for name, build in sorted(BUILTIN_BUILDERS.items())
           for cname, delta in sorted(build().characters.items())]
    for path in (DATA / "qz2.json", DATA / "sweedler-h4.json",
                 GOLDENS / "cli" / "qz4-zeta4.json"):
        H = load_hopf(str(path))
        out += [(f"{path.stem}-json-{c}", H.characters[c])
                for c in sorted(H.characters)]
    _, delta, _ = load_gamma_input(str(DATA / "gamma-translation.json"))
    return out + [(f"gamma-translation-{delta.name}", delta)]


CHARACTERS = character_cases()


@pytest.mark.parametrize("case,delta", CHARACTERS,
                         ids=[case for case, _ in CHARACTERS])
def test_coinner_eigenvalues_of_every_character(case, delta):
    """phi_delta is x -> -x, gx -> -gx on Sweedler/delta, also on N's
    digits 1, 2, 3 of the rebased basis; the identity everywhere else."""
    if case in ("sweedler-delta", "sweedler-h4-json-delta"):
        assert coinner_eigenvalues(delta) == [1, 1, -1, -1]
        assert NormalizedModule(delta).coinner == [1, -1, -1]
    else:
        assert coinner_eigenvalues(delta) == [1] * delta.hopf.dim
        assert HopfCyclicModule(delta).invariant_index(3) is None


def _tampered(H, coproduct=(), antipode=()):
    return FiniteHopf(H.name, H.field, H.basis, H.unit, H.product,
                      {**H.coproduct, **dict(coproduct)}, H.counit,
                      {**H.antipode, **dict(antipode)}, {})


@pytest.mark.parametrize("H", [
    # S(g) = -g: phi_eps(g) = -g, a root of unity, but eps(-g) != eps(g)
    _tampered(cyclic_group_algebra(2), antipode={1: {1: -1}}),
    # Delta(x) = x (x) 1 + 2 g (x) x: phi_eps(x) = 2x keeps eps(x) = 0, but
    # 2 is no root of unity
    _tampered(sweedler_h4(), coproduct={2: {(2, 0): 1, (1, 2): 2}}),
], ids=["QZ2-delta-not-kept", "sweedler-not-a-root-of-unity"])
def test_coinner_eigenvalues_refuse_an_unchecked_value(H):
    """phi_eps is diagonal on these broken presentations, but one value
    fails an exact check, so none is returned."""
    assert coinner_eigenvalues(H.counit_character()) is None


def dropped_part(module, matrix, src, tgt):
    """matrix on the basis tuples where phi_delta is not 1, on both sides;
    it must hold every entry of those columns, so the dropped tuples span
    a summand of the complex."""
    kept_src = set(module.invariant_index(src))
    kept_tgt = set(module.invariant_index(tgt))
    cols = [j for j in range(matrix.ncols) if j not in kept_src]
    part = on_rows((matrix.cols[j] for j in cols),
                   [r for r in range(matrix.nrows) if r not in kept_tgt],
                   lambda j: module.key_of_index(cols[j], src))
    assert part.outside is None, part.outside
    return part


def test_dropped_cochains_carry_no_cohomology():
    """On Sweedler/delta through degree 4 the phi_delta = -1 summand of the
    full b, b', 1 - lambda and the normalized b, B has HH = HC(lambda) = 0,
    and HC(bB) = 0 below the boundary, by the report's dimension
    functions."""
    _, delta, full = module_of(sweedler_h4, "delta")
    norm = NormalizedModule(delta)
    b = {n: dropped_part(full, b_matrix(full, n), n - 1, n)
         for n in range(1, 6)}
    minus = [dropped_part(full, minus_lambda(full, n), n, n)
             for n in range(5)]
    assert [m.ncols for m in minus] == [0, 2, 8, 32, 128]
    assert hochschild_dimensions(b)[0] == [0] * 5
    assert stacked_lambda_dimensions(b, minus) == [0] * 5
    # with HH = 0 there is no representative and so no lift; C^0 has no
    # dropped tuple, so b'_0 is 0 x 0, and the stage needs no A_4
    lifts = [SparseMatrix(minus[m].nrows, 0) for m in range(4)]
    b_prime = [SparseMatrix(0, 0)] + [
        dropped_part(full, b_prime_matrix(full, b_matrix(full, m), m),
                     m - 1, m) for m in range(1, 4)]
    assert lambda_complex_dimensions(0, zip(minus, b_prime, lifts)) == \
        [0] * 5
    nb = {n: dropped_part(norm, b_matrix(norm, n), n - 1, n)
          for n in range(1, 5)}
    nB = {n: dropped_part(norm, B_matrix(norm, n), n + 1, n)
          for n in range(4)}
    dims, flags = bicomplex_dimensions(nb, nB)
    assert [d for d, flag in zip(dims, flags) if not flag] == [0] * 3


def test_report_equals_the_unrestricted_dimensions():
    """The degree-5 report against the dimension functions run on the whole
    matrices of the full and the normalized complex."""
    _, delta, full = module_of(sweedler_h4, "delta")
    norm = NormalizedModule(delta)
    b = {n: b_matrix(full, n) for n in range(1, 7)}
    hh, ranks = hochschild_dimensions(b)
    hc_lambda = stacked_lambda_dimensions(
        b, [minus_lambda(full, n) for n in range(6)])
    hc_bB, flags = bicomplex_dimensions(*differentials(norm, 5))
    report = cohomology_report(delta, 5, method="both")
    assert report.columns == {
        "dim": [4 ** n for n in range(6)], "rank_b": [0] + ranks[:5],
        "HH": hh, "HC_lambda": hc_lambda, "HC_bB": hc_bB}
    assert report.flags == flags


@pytest.mark.parametrize("method", ["lambda", "bB", "both"])
def test_wrong_coinner_classes_are_refused(monkeypatch, capsys, method):
    """With phi_delta taken as (1, -1, 1, -1) on Sweedler/delta, b_2 sends
    the kept x to g (x) x, a dropped tuple: the report is refused with that
    column as the witness, never a table."""
    monkeypatch.setattr(cyclic_ops, "coinner_eigenvalues",
                        lambda delta: [1, -1, 1, -1])
    delta = sweedler_h4().character("delta")
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(delta, 3, method=method)
    assert caught.value.report.failures() == [
        ("phi-invariant b n=1", ("outside phi = 1", [(2,)]))]
    assert main(["cohomology", "--input", "sweedler", "--character", "delta",
                 "--max-degree", "3", "--method", method]) == 1
    out = capsys.readouterr().out
    assert out == caught.value.report.render() + "\n"
    assert not any(line.startswith("degree ") for line in out.splitlines())


def recorded_lambda_stage(monkeypatch):
    """Wrap the report's one_minus_lambda_matrix, b_prime_matrix and
    lambda_complex_dimensions; returns the dict the wrappers fill: the
    matrices built ('built_minus', 'built_b_prime') and what the lambda
    stage got ('hh0', and from its stages 'minus', 'b_prime' and
    'lifts')."""
    seen = {"built_minus": [], "built_b_prime": [], "hh0": None,
            "minus": [], "b_prime": [], "lifts": []}
    one_minus_lambda = cohomology.one_minus_lambda_matrix

    def built_minus(*args):
        seen["built_minus"].append(one_minus_lambda(*args))
        return seen["built_minus"][-1]

    def built_b_prime(module, b, n):
        seen["built_b_prime"].append(b_prime_matrix(module, b, n))
        return seen["built_b_prime"][-1]

    def stage(hh0, stages):
        seen["hh0"] = hh0
        stages = list(stages)
        seen["minus"] = [A for A, _, _ in stages]
        seen["b_prime"] = [b_prime for _, b_prime, _ in stages]
        seen["lifts"] = [Y for _, _, Y in stages]
        return lambda_complex_dimensions(hh0, stages)

    monkeypatch.setattr(cohomology, "one_minus_lambda_matrix", built_minus)
    monkeypatch.setattr(cohomology, "b_prime_matrix", built_b_prime)
    monkeypatch.setattr(cohomology, "lambda_complex_dimensions", stage)
    return seen


def test_lambda_stage_ranks_half_the_sweedler_cochains(monkeypatch):
    """2^(2n-1) of the 4^n tuples of degree n >= 1 have an even number of
    factors x or gx; the lambda stage gets only those, on both sides, the
    lift of one HH^n representative in each even degree, and nothing on
    the tuples of the top degree 4."""
    seen = recorded_lambda_stage(monkeypatch)
    cohomology_report(sweedler_h4().character("delta"), 4, method="lambda")
    kept = [1] + [2 ** (2 * n - 1) for n in range(1, 5)]
    assert seen["hh0"] == 1
    assert [(Y.nrows, Y.ncols) for Y in seen["lifts"]] == [
        (kept[n - 1], 1 - n % 2) for n in range(1, 5)]
    assert [(A.nrows, A.ncols) for A in seen["minus"]] == [
        (k, k) for k in kept[:4]]
    assert [(m.nrows, m.ncols) for m in seen["b_prime"]] == [(1, 0)] + [
        (kept[m], kept[m - 1]) for m in range(1, 4)]


def test_lambda_stage_gets_qz4_matrices_uncopied(monkeypatch):
    """phi_delta is the identity on QZ4 over Q(zeta_4): the lambda stage
    gets the very matrices one_minus_lambda_matrix and b_prime_matrix
    built, 1 - lambda_n for n < 3 only."""
    seen = recorded_lambda_stage(monkeypatch)
    H = load_hopf(str(GOLDENS / "cli" / "qz4-zeta4.json"))
    cohomology_report(H.character("delta"), 3, method="lambda")
    assert len(seen["minus"]) == len(seen["built_minus"]) == 3
    assert all(a is b for a, b in zip(seen["minus"], seen["built_minus"]))
    assert len(seen["built_b_prime"]) == 2
    assert all(a is b for a, b in zip(seen["b_prime"][1:],
                                      seen["built_b_prime"]))


# ---------------------------------------------------------------------------
# the lambda stage: HH^n representatives instead of b_(N+1)


LAMBDA_CASES = [(case, delta) for case, delta in CHARACTERS
                if check_involution(delta)[0]]


@pytest.mark.parametrize("case,delta", LAMBDA_CASES,
                         ids=[case for case, _ in LAMBDA_CASES])
def test_lambda_stage_equals_the_stacked_formula(case, delta):
    """HC(lambda) from the representatives against rank [b_(n+1); 1 -
    lambda_n] - rank(1 - lambda_n) on the whole full matrices, through
    degree 5."""
    report = cohomology_report(delta, 5, method="lambda")
    assert report.columns["HC_lambda"] == lambda_oracle(delta, 5)


@pytest.mark.parametrize("source", ["sweedler", "qz4-zeta4"])
def test_lambda_stage_equals_the_stacked_formula_at_degree_6(source):
    H = (sweedler_h4() if source == "sweedler"
         else load_hopf(str(GOLDENS / "cli" / "qz4-zeta4.json")))
    delta = H.character("delta")
    report = cohomology_report(delta, 6, method="lambda")
    assert report.columns["HC_lambda"] == lambda_oracle(delta, 6)


def sheared_sweedler_delta():
    """delta on Sweedler's H4 in the basis 1, g, 1 + x, gx: eps is 1 on the
    third basis element, where it is 0 on x.  phi_delta is not diagonal in
    this basis (it sends 1 + x to 1 - x), so nothing is restricted."""
    H = sweedler_h4()
    old = [{0: 1}, {1: 1}, {0: 1, 2: 1}, {3: 1}]  # the new basis, in e
    new = [{0: 1}, {1: 1}, {0: -1, 2: 1}, {3: 1}]  # each e_k, in the new

    def to_new(vec):
        return linear(new.__getitem__, vec)

    def pair_to_new(ab):
        return {(x, y): cx * cy for x, cx in new[ab[0]].items()
                for y, cy in new[ab[1]].items()}

    delta = H.character("delta")
    sheared = FiniteHopf(
        H.name, H.field, ["1", "g", "1+x", "gx"], {0: 1},
        {(i, j): to_new(H.mul(old[i], old[j]))
         for i in range(4) for j in range(4)},
        {i: linear(pair_to_new, H.comul(old[i])) for i in range(4)},
        [evaluate(H.counit, vec) for vec in old],
        {i: to_new(H.antipode_of(old[i])) for i in range(4)},
        {"delta": [evaluate(delta.values, vec) for vec in old]})
    assert check_hopf_axioms(sheared).ok
    return sheared.character("delta")


def test_a_wrong_inclusion_is_refused(monkeypatch):
    """iota sends f_k to e_k - eps(e_k) 1.  In Sweedler's own basis every
    representative is a tensor of x and gx, where eps is 0, so a mutant
    iota without the eps term agrees with iota on them.  In the basis 1, g,
    1 + x, gx the report is the same, and the mutant sends the degree-2
    representative f_gx (x) f_(1+x) = gx (x) x to gx (x) (1 + x), which
    the elementwise b refuses."""
    delta = sheared_sweedler_delta()
    standard = sweedler_h4().character("delta")
    reports = {method: cohomology_report(standard, 4, method).render()
               for method in ("lambda", "both")}
    for method, text in reports.items():
        assert cohomology_report(delta, 4, method).render() == text
    monkeypatch.setattr(NormalizedModule, "inclusion",
                        lambda self, vec: dict(vec))
    assert cohomology_report(standard, 4, "lambda").render() == \
        reports["lambda"]
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(delta, 4, "lambda")
    assert caught.value.report.failures() == [
        ("b.iota n=2", ("b.iota", [(3, 2)]))]


def sweedler_cocycles(monkeypatch, N_max):
    """hochschild_representatives on Sweedler/delta in each degree n <=
    N_max, as the report calls it, with the normalized tensors iota gets
    recorded; returns (the representatives by degree, those tensors, the
    seconds spent in hochschild_b)."""
    delta = sweedler_h4().character("delta")
    full, norm = HopfCyclicModule(delta), NormalizedModule(delta)
    b = {n: norm.invariant_part(b_matrix(norm, n), n - 1, n)
         for n in range(1, N_max + 2)}
    seen, spent = [], [0.0]
    include, check = NormalizedModule.inclusion, cohomology.hochschild_b

    def recorded(self, vec):
        seen.append(dict(vec))
        return include(self, vec)

    def timed(module, n, t):
        start = time.perf_counter()
        try:
            return check(module, n, t)
        finally:
            spent[0] += time.perf_counter() - start

    monkeypatch.setattr(NormalizedModule, "inclusion", recorded)
    monkeypatch.setattr(cohomology, "hochschild_b", timed)
    gate = CheckReport("mixed-complex")
    cocycles = [hochschild_representatives(gate, full, norm, b, n, count)
                for n, count in enumerate(hochschild_dimensions(b)[0])]
    assert gate.entries == []
    return cocycles, seen, spent[0]


def test_each_sweedler_representative_is_one_tensor(monkeypatch):
    """On Sweedler/delta at degree 8 the representative of HH^(2k) is the
    single tensor (gx (x) x)^(x)k of N, so iota and the elementwise b that
    checks it cost next to nothing."""
    cocycles, seen, spent = sweedler_cocycles(monkeypatch, 8)
    assert seen == [{(3, 2) * k: 1} for k in range(5)]
    assert [len(Z) for Z in cocycles] == [1, 0] * 4 + [1]
    assert all(len(col) == 1 for Z in cocycles for col in Z)
    assert spent < 0.01


def test_a_representative_outside_the_kept_tuples_is_refused(monkeypatch):
    """iota plus the cocycle (g - 1) (x) x, on which phi_delta is -1, at
    degree 2: still a cocycle, but off the kept rows."""
    include = NormalizedModule.inclusion

    def leaky(self, vec):
        out = include(self, vec)
        if len(next(iter(vec))) == 2:
            out.update({(1, 2): 1, (0, 2): -1})
        return out

    monkeypatch.setattr(NormalizedModule, "inclusion", leaky)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 3, "lambda")
    assert caught.value.report.failures() == [
        ("phi-invariant iota n=2", ("outside phi = 1", [(3, 2)]))]


def test_a_missing_representative_is_refused(monkeypatch):
    """A kernel basis short of one vector leaves HH^0 without its
    representative: one fewer found than HH^0 = 1."""
    kernel = SparseMatrix.kernel_basis
    monkeypatch.setattr(SparseMatrix, "kernel_basis",
                        lambda self: kernel(self)[1:])
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 3, "lambda")
    assert caught.value.report.failures() == [
        ("HH representatives n=0", ("found", [0, 1]))]


# ---------------------------------------------------------------------------
# the lambda stage one degree down: b', its homotopy and the lifts Y_n


def counit_on_last_factor(module, m):
    """h = sigma_(m-1), from degree m to degree m-1, elementwise."""
    return module.operator_matrix(
        lambda t: module.degeneracy(m - 1, m - 1, t), m, m - 1)


@pytest.mark.parametrize("case,delta", CHARACTERS,
                         ids=[case for case, _ in CHARACTERS])
def test_counit_contracts_b_prime(case, delta):
    """h b'_(m+1) - b'_m h = (-1)^m id on C^m for m <= 4, so b' is exact
    through degree 5; at m = 0, h b'_1 = eps(1) = 1."""
    module = HopfCyclicModule(delta)
    b_prime = {m: b_prime_matrix(module, b_matrix(module, m), m)
               for m in range(1, 6)}
    h = {m: counit_on_last_factor(module, m) for m in range(1, 6)}
    assert h[1] @ b_prime[1] == SparseMatrix.identity(1)
    for m in range(1, 5):
        left, right = h[m + 1] @ b_prime[m + 1], b_prime[m] @ h[m]
        assert [vec_add_into(dict(col), right.cols[j], -1)
                for j, col in enumerate(left.cols)] == [
            {j: (-1) ** m} for j in range(module.space_dim(m))], m


def assert_b_prime_ranks_closed_form(module, top):
    """rank b'_m = dim C^(m-1) - rank b'_(m-1) on the kept tuples, rank
    b'_0 = 0, against the elimination of each restricted b'_m."""
    rank = 0
    for m in range(1, top + 1):
        b_prime = module.invariant_part(
            b_prime_matrix(module, b_matrix(module, m), m), m - 1, m)
        rank = b_prime.ncols - rank
        assert b_prime.rank() == rank, m


@pytest.mark.parametrize("case,delta", CHARACTERS,
                         ids=[case for case, _ in CHARACTERS])
def test_b_prime_ranks_have_the_closed_form(case, delta):
    assert_b_prime_ranks_closed_form(HopfCyclicModule(delta), 5)


@settings(max_examples=10, deadline=None)
@given(abelian_hopf_modules())
def test_abelian_b_prime_ranks_have_the_closed_form(module):
    assert_b_prime_ranks_closed_form(module, 3)


def test_lifts_are_the_elementwise_homotopy(monkeypatch):
    """On Sweedler/delta through degree 6, each column of Y_n is
    (-1)^(n+1) sigma_(n-1) (1 - lambda_n) z for its HH^n representative z,
    by the elementwise operators, and b'_n takes it to (1 - lambda_n) z.
    The representatives are the tensors iota returns in the report."""
    seen = recorded_lambda_stage(monkeypatch)
    cocycles = [[] for _ in range(7)]
    include = NormalizedModule.inclusion

    def recorded(self, vec):
        out = include(self, vec)
        cocycles[len(next(iter(vec)))].append(out)
        return out

    monkeypatch.setattr(NormalizedModule, "inclusion", recorded)
    delta = sweedler_h4().character("delta")
    cohomology_report(delta, 6, "lambda")
    full = HopfCyclicModule(delta)
    assert [len(Z) for Z in cocycles] == [1, 0] * 3 + [1]
    assert [Y.ncols for Y in seen["lifts"]] == [0, 1] * 3

    def tensor(col, n):  # a column on the kept tuples of degree n
        kept = full.invariant_index(n)
        return {full.key_of_index(kept[i], n): v for i, v in col.items()}

    for n in range(1, 7):
        for z, y in zip(cocycles[n], seen["lifts"][n - 1].cols):
            y = tensor(y, n - 1)
            minus_z = vec_sub(z, cohomology.signed_cyclic(full, n, z))
            assert y == vec_scale((-1) ** (n + 1),
                                  full.degeneracy(n - 1, n - 1, minus_z)), n
            b_prime_y = vec_add_into(hochschild_b(full, n, y),
                                     full.face(n, n, y), -(-1) ** n)
            assert b_prime_y == minus_z, n


@pytest.mark.parametrize("source", ["sweedler", "qz4-zeta4"])
@pytest.mark.parametrize("method", ["lambda", "both"])
def test_no_report_builds_the_top_tau(monkeypatch, source, method):
    """Neither tau_N nor 1 - lambda_N is built, and no tau twice: each
    module, the full one and the rebased one B reads, builds tau_n for
    each n < N exactly once, and one_minus_lambda_matrix is called for
    n < N once each."""
    degrees, minus = {}, []
    cyclic_matrix = HopfCyclicModule.cyclic_matrix
    build_minus = cohomology.one_minus_lambda_matrix
    monkeypatch.setattr(HopfCyclicModule, "cyclic_matrix", lambda self, n:
                        degrees.setdefault(id(self), []).append(n)
                        or cyclic_matrix(self, n))
    monkeypatch.setattr(cohomology, "one_minus_lambda_matrix",
                        lambda *args: minus.append(args[-1])
                        or build_minus(*args))
    H = (sweedler_h4() if source == "sweedler"
         else load_hopf(str(GOLDENS / "cli" / "qz4-zeta4.json")))
    cohomology_report(H.character("delta"), 4, method)
    assert len(degrees) == (1 if method == "lambda" else 2)
    assert all(sorted(built) == [0, 1, 2, 3] for built in degrees.values())
    assert minus == [0, 1, 2, 3]


def test_a_broken_lambda_b_identity_is_refused():
    """Delta(g) = g (x) g + (e - g) (x) (e - g) on QZ2 is coassociative and
    counital but not multiplicative.  b^2 = 0 holds, but (1 - lambda_2) b_2
    != b'_2 (1 - lambda_1) at the column of g, so the report is refused
    there; without the check the lambda stage read HC^3 = -1."""
    H = load_hopf(str(GOLDENS / "cli" / "qz2-bad-coproduct.json"))
    delta = H.counit_character()
    assert cohomology_report(delta, 2, "lambda").columns["HC_lambda"] == \
        [1, 0, 1]
    for method in ("lambda", "both"):
        with pytest.raises(NotMixedComplexError) as caught:
            cohomology_report(delta, 3, method)
        assert caught.value.report.failures() == [
            ("lambda-b n=2", ("lambda-b", [(1,)]))], method


def test_a_wrong_one_minus_lambda_is_refused(monkeypatch):
    """1 - lambda_1 on Sweedler/delta with one entry changed fails (1 -
    lambda_2) b_2 = b'_2 (1 - lambda_1), which is checked on the whole
    matrices before any of them is restricted."""
    build = cohomology.one_minus_lambda_matrix

    def wrong(tau, n):
        matrix = build(tau, n)
        if n == 1:
            matrix.cols[2][2] = matrix.cols[2].get(2, 0) + 1
        return matrix

    monkeypatch.setattr(cohomology, "one_minus_lambda_matrix", wrong)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 3, "lambda")
    assert caught.value.report.failures() == [
        ("lambda-b n=2", ("lambda-b", [(2,)]))]


# ---------------------------------------------------------------------------
# each phi-invariant restriction refuses an entry on a dropped tuple.  Each
# leak adds one entry that no earlier check can see, and the wrappers take
# *args, so they do not depend on the signature of what they wrap.


def test_a_lift_off_the_kept_tuples_is_refused(monkeypatch):
    """s of the degree-2 representative gx (x) x with an entry at x, a
    dropped tuple of degree 1; under 'lambda' nothing else reads s."""
    extra = HopfCyclicModule.extra_degeneracy_columns

    def leaky(*args):
        out = list(extra(*args))
        out[0][2] = 1
        return out

    monkeypatch.setattr(HopfCyclicModule, "extra_degeneracy_columns", leaky)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 3, "lambda")
    assert caught.value.report.failures() == [
        ("phi-invariant lift n=2", ("outside phi = 1", [(3, 2)]))]


def test_a_b_prime_off_the_kept_tuples_is_refused(monkeypatch):
    """b'_1 with an entry at x: A_0 = 0, so 'lambda-b n=1' compares A_1 b_1
    with b'_1 A_0 = 0 and cannot see it."""
    build = cohomology.b_prime_matrix

    def leaky(*args):
        matrix = build(*args)
        if args[-1] == 1:
            matrix.cols[0][2] = 1
        return matrix

    monkeypatch.setattr(cohomology, "b_prime_matrix", leaky)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 2, "lambda")
    assert caught.value.report.failures() == [
        ("phi-invariant b' n=0", ("outside phi = 1", [()]))]


def test_a_one_minus_lambda_off_the_kept_tuples_is_refused(monkeypatch):
    """1 - lambda_1 with an entry at x in the column of 1: at N = 2 it
    enters only 'lambda-b n=1', as A_1 b_1 with b_1 = 0."""
    build = cohomology.one_minus_lambda_matrix

    def leaky(*args):
        matrix = build(*args)
        if args[-1] == 1:
            matrix.cols[0][2] = 1
        return matrix

    monkeypatch.setattr(cohomology, "one_minus_lambda_matrix", leaky)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 2, "lambda")
    assert caught.value.report.failures() == [
        ("phi-invariant 1-lambda n=1", ("outside phi = 1", [(0,)]))]


def test_a_B_off_the_kept_tuples_is_refused(monkeypatch):
    """The normalized B_1 at N = 2 with an entry at f_x in the column of
    f_x (x) f_x: B_0 is 0 on f_x, which phi_delta negates, and f_x (x) f_x
    is no row of b_2, so neither B2 n=0 nor bB+Bb n=1 sees it."""
    build = cohomology.B_matrix

    def leaky(*args):
        matrix = build(*args)
        if args[-1] == 1:
            matrix.cols[4][1] = 1
        return matrix

    monkeypatch.setattr(cohomology, "B_matrix", leaky)
    with pytest.raises(NotMixedComplexError) as caught:
        cohomology_report(sweedler_h4().character("delta"), 2, "bB")
    assert caught.value.report.failures() == [
        ("phi-invariant B n=2", ("outside phi = 1", [(2, 2)]))]
