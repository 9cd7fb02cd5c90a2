"""Command-line interface: exit codes, determinism, report output."""

import ast
import collections
import json
import shlex

import pytest

from conftest import PKG_ROOT
from hopfcyclic import cohomology, linalg, presentations
from hopfcyclic.cli import main
from hopfcyclic.cyclic_ops import NormalizedModule
from hopfcyclic.hopf import cyclic_group_algebra
from hopfcyclic.linalg import SparseMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_check_hopf_builtin_pass(capsys):
    code, out = run(capsys, "check-hopf", "--input", "sweedler",
                    "--character", "delta", "--require-involution")
    assert code == 0
    assert "fail=0" in out


def test_check_hopf_counit_involution_fails(capsys):
    code, out = run(capsys, "check-hopf", "--input", "sweedler",
                    "--character", "counit", "--require-involution")
    assert code == 1
    assert "witness=x" in out


def test_check_hopf_file_input(capsys, data_dir):
    code, _ = run(capsys, "check-hopf", "--input",
                  str(data_dir / "sweedler-h4.json"), "--character", "delta")
    assert code == 0


def test_malformed_input_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    code = main(["check-hopf", "--input", str(p)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""  # no partial report
    assert "error" in out.err


def test_cyclic_relations_pass(capsys):
    code, out = run(capsys, "cyclic-relations", "--input", "qz2",
                    "--max-degree", "4")
    assert code == 0
    assert "fail=0" in out


def test_cyclic_relations_counit_sweedler_fails(capsys):
    code, out = run(capsys, "cyclic-relations", "--input", "sweedler",
                    "--character", "counit", "--max-degree", "2")
    assert code == 1
    assert "tpow" in out


def test_cyclic_relations_symbolic(capsys, data_dir):
    code, out = run(capsys, "cyclic-relations", "--input",
                    str(data_dir / "axb-lie.json"),
                    "--max-degree", "3", "--seed", "1")
    assert code == 0
    assert "seed: 1" in out


@pytest.mark.parametrize("name,extra", [
    ("axb-lie.json", []), ("sweedler-h4.json", ["--character", "delta"])])
def test_cyclic_relations_parses_its_input_once(capsys, monkeypatch,
                                                data_dir, name, extra):
    parses = []
    load = presentations.json.load
    monkeypatch.setattr(presentations.json, "load",
                        lambda fh: parses.append(fh.name) or load(fh))
    code, out = run(capsys, "cyclic-relations", "--input",
                    str(data_dir / name), "--max-degree", "2", *extra)
    assert code == 0 and "fail=0" in out
    assert parses == [str(data_dir / name)]


@pytest.mark.parametrize("character", ["bogus", "counit"])
def test_cyclic_relations_lie_refuses_character(capsys, data_dir, character):
    path = data_dir / "axb-lie.json"
    assert main(["cyclic-relations", "--input", str(path),
                 "--character", character]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "modular character" in lines[0]


def test_cohomology_trivial(capsys):
    code, out = run(capsys, "cohomology", "--input", "trivial",
                    "--max-degree", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("degree")]
    assert "HC_lambda=1" in lines[0] and "HC_lambda=0" in lines[1]


def test_cohomology_refuses_without_involution(capsys):
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "counit", "--max-degree", "2")
    assert code == 1
    assert "involution" in out


def test_cohomology_refuses_a_method_disagreement(capsys, monkeypatch):
    """HC(lambda) one higher at degree 0, an unflagged degree: the report is
    printed, then the disagreement, and the exit code is 1."""
    hc_lambda = cohomology.lambda_complex_dimensions
    monkeypatch.setattr(cohomology, "lambda_complex_dimensions",
                        lambda *args: [d + (n == 0) for n, d
                                       in enumerate(hc_lambda(*args))])
    report = cohomology.cohomology_report(
        cyclic_group_algebra(2).counit_character(), 3, method="both")
    assert not report.methods_agree()
    code, out = run(capsys, "cohomology", "--input", "qz2",
                    "--max-degree", "3", "--method", "both")
    assert code == 1
    assert out == report.render() + \
        "\nerror: method disagreement on an unflagged degree\n"


def test_cohomology_deterministic(capsys):
    _, out1 = run(capsys, "cohomology", "--input", "qz2", "--max-degree", "3")
    _, out2 = run(capsys, "cohomology", "--input", "qz2", "--max-degree", "3")
    assert out1 == out2


def test_output_flag(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code = main(["cohomology", "--input", "qz2", "--max-degree", "3",
                 "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert "report: cohomology" in target.read_text()


@pytest.mark.parametrize("where", ["missing-dir/x.txt", "."])
def test_unwritable_output_exit_2(capsys, tmp_path, where):
    target = tmp_path / where  # a missing directory, or a directory itself
    code = main(["check-hopf", "--input", "qz2", "--output", str(target)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {target}")
    assert len(out.err.splitlines()) == 1


def test_pair_subcommand(capsys, data_dir):
    code, out = run(capsys, "pair", "--input", str(data_dir / "pair-qz2.json"))
    assert code == 0
    assert "value: 1" in out


def test_pair_rejects_non_idempotent(capsys, tmp_path, data_dir):
    data = json.loads((data_dir / "pair-qz2.json").read_text())
    data["idempotent"] = [[0, 0, 0, "2"]]  # 2*unit is not idempotent
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(data))
    code, out = run(capsys, "pair", "--input", str(p))
    assert code == 1
    assert "not idempotent" in out


def test_gamma_check(capsys, data_dir):
    code, out = run(capsys, "gamma-check", "--input",
                    str(data_dir / "gamma-translation.json"),
                    "--max-degree", "2")
    assert code == 0
    assert "fail=0" in out


def test_gamma_check_bad_trace(capsys, tmp_path, data_dir):
    data = json.loads((data_dir / "gamma-translation.json").read_text())
    data["trace"] = ["1", "0"]  # point evaluation: not invariant
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps(data))
    code, out = run(capsys, "gamma-check", "--input", str(p))
    assert code == 1


def test_gamma_check_refuses_without_involution(capsys, tmp_path, data_dir):
    """Sweedler with the counit acting on k: the action and the trace pass,
    but S~ = S is no involution, so gamma is not checked and the exit code
    is 1."""
    hopf = json.loads((data_dir / "sweedler-h4.json").read_text())
    data = {"hopf": hopf, "character": "counit",
            "algebra": {"name": "k", "field": {"kind": "rational"}, "dim": 1,
                        "basis": ["1"], "unit": ["1"],
                        "product": [[0, 0, 0, "1"]]},
            "action": [[[0, 0, c]] for c in hopf["counit"]],
            "trace": ["1"]}
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps(data))
    code, out = run(capsys, "gamma-check", "--input", str(p))
    assert code == 1
    failed = [line for line in out.splitlines() if "status=FAIL" in line]
    assert len(failed) == 1 and failed[0].startswith(
        "check twisted-antipode-involution status=FAIL witness=twisted "
        "antipode is not an involution on sweedler-h4")
    assert out.endswith("summary: pass=6 fail=1\n")


def test_unknown_character_exit_2(capsys):
    code = main(["cohomology", "--input", "qz2", "--character", "nope"])
    assert code == 2
    capsys.readouterr()
    for command in ("check-hopf", "cyclic-relations", "cohomology"):
        assert main([command, "--input", "qz2", "--character", "nope"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: QZ2 has no character named 'nope'"], command


def test_bad_max_degree():
    with pytest.raises(SystemExit):
        main(["cohomology", "--input", "qz2", "--max-degree", "0"])


# Delta(g) = g@g + (e-g)@(e-g) on QZ2 is coassociative and counital but
# not multiplicative; the complex built from it has HC_lambda^3 = -1
NON_MULTIPLICATIVE_COPRODUCT = [[0, 0, 0, "1"], [1, 0, 0, "1"],
                                [1, 0, 1, "-1"], [1, 1, 0, "-1"],
                                [1, 1, 1, "2"]]


def test_cohomology_refuses_non_hopf_input(capsys, tmp_path, data_dir):
    bad = NON_MULTIPLICATIVE_COPRODUCT
    hopf = json.loads((data_dir / "qz2.json").read_text())
    hopf["coproduct"] = bad
    p = tmp_path / "qz2-bad-coproduct.json"
    p.write_text(json.dumps(hopf))
    gamma = json.loads((data_dir / "gamma-translation.json").read_text())
    gamma["hopf"]["coproduct"] = bad
    q = tmp_path / "gamma-bad-coproduct.json"
    q.write_text(json.dumps(gamma))
    for command, path in (("cohomology", p), ("cyclic-relations", p),
                          ("gamma-check", q)):
        code, out = run(capsys, command, "--input", str(path),
                        "--max-degree", "3")
        assert code == 1
        assert out.startswith("report: hopf-axioms[")
        assert "check coproduct-multiplicative status=FAIL witness=(1, 1)" \
            in out
        assert "degree" not in out


def test_non_multiplicative_counit_exit_2(capsys, tmp_path, data_dir):
    data = json.loads((data_dir / "qz2.json").read_text())
    data["counit"] = ["1", "2"]
    del data["characters"]
    p = tmp_path / "qz2-bad-counit.json"
    p.write_text(json.dumps(data))
    code = main(["check-hopf", "--input", str(p), "--require-involution"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: character not multiplicative")


def test_cohomology_refuses_broken_mixed_complex(capsys, perturbed_B1):
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3")
    assert code == 1
    assert out.startswith("report: mixed-complex\n")
    # witnesses are basis tuples of the rebased presentation
    assert "check B2 n=1 status=FAIL witness=('B.B', [(1, 1, 2)])" in out
    assert "check bB+Bb n=1 status=FAIL witness=('bB+Bb', [(2,)])" in out
    assert "check bB+Bb n=2 status=FAIL witness=('bB+Bb', [(1, 2)])" in out
    assert not any(line.startswith("degree ") for line in out.splitlines())
    # the lambda method builds no B, so only b^2 = 0 is checked
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3",
                    "--method", "lambda")
    assert code == 0
    assert "degree 3:" in out


def _non_hopf_qz2(request, tmp_path):
    data = json.loads((request.getfixturevalue("data_dir") / "qz2.json")
                      .read_text())
    data["coproduct"] = NON_MULTIPLICATIVE_COPRODUCT
    p = tmp_path / "qz2-bad-coproduct.json"
    p.write_text(json.dumps(data))
    return ["cohomology", "--input", str(p), "--max-degree", "3"]


def _counit_on_sweedler(request, tmp_path):
    return ["cohomology", "--input", "sweedler", "--character", "counit",
            "--max-degree", "2"]


def _broken_mixed_complex(request, tmp_path):
    request.getfixturevalue("perturbed_B1")
    return ["cohomology", "--input", "sweedler", "--character", "delta",
            "--max-degree", "3"]


def _non_idempotent_pair(request, tmp_path):
    data = json.loads((request.getfixturevalue("data_dir") / "pair-qz2.json")
                      .read_text())
    data["idempotent"] = [[0, 0, 0, "2"]]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(data))
    return ["pair", "--input", str(p)]


def _negative_dimension(request, tmp_path):
    request.getfixturevalue("monkeypatch").setattr(
        cohomology, "lambda_complex_dimensions",
        lambda hh0, stages: [1, -1] + [0] * (len(list(stages)) - 1))
    return ["cohomology", "--input", "qz2", "--max-degree", "3",
            "--method", "lambda"]


# one command per refusal family, and how its refusal text starts
REFUSALS = {
    "hopf-axioms": (_non_hopf_qz2, "report: hopf-axioms["),
    "not-cyclic": (_counit_on_sweedler, "error: twisted antipode"),
    "not-mixed-complex": (_broken_mixed_complex, "report: mixed-complex\n"),
    "action-error": (_non_idempotent_pair, "error: matrix is not idempotent"),
    "negative-dimension": (_negative_dimension, "error: negative dimension"),
}


@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_refusal_goes_where_the_report_goes(capsys, request, tmp_path,
                                            refusal):
    build, start = REFUSALS[refusal]
    argv = build(request, tmp_path)
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith(start)
    target = tmp_path / "refusal.txt"
    code = main([*argv, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == ""
    assert target.read_text(encoding="utf-8") == out


def test_main_alone_prints_and_picks_the_exit_code():
    """_emit is called, and --output read, once each, both in main."""
    tree = ast.parse((PKG_ROOT / "src/hopfcyclic/cli.py").read_text())
    users = sorted(fn.name for fn in tree.body
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and node.id == "_emit"
                   or isinstance(node, ast.Attribute)
                   and node.attr == "output")
    assert users == ["main", "main"]


B_SQUARE_FAILS = """\
report: mixed-complex
max-degree: 3
check b2 n=0 status=pass
check b2 n=1 status=FAIL witness=('b.b', [{}])
check b2 n=2 status=pass
"""
# the normalized b_2 enters no bB + Bb check below degree 4 on Sweedler's
# H4: there the normalized b_1 and B_1 are zero
B_RELATIONS_AFTER_B_SQUARE_FAILS = """\
check B2 n=0 status=pass
check B2 n=1 status=pass
check bB+Bb n=0 status=pass
check bB+Bb n=1 status=pass
check bB+Bb n=2 status=pass
summary: pass=7 fail=1
"""


@pytest.mark.parametrize("method", ["both", "bB", "lambda"])
def test_cohomology_computes_no_rank_when_b_square_fails(
        capsys, monkeypatch, corrupted_b2, method):
    ranks = []
    rank, stacked = SparseMatrix.rank, cohomology.stacked_ranks
    monkeypatch.setattr(SparseMatrix, "rank",
                        lambda self: ranks.append(self) or rank(self))
    monkeypatch.setattr(cohomology, "stacked_ranks",
                        lambda blocks, pivots=None: ranks.append(blocks)
                        or stacked(blocks, pivots))
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3",
                    "--method", method)
    assert code == 1
    assert ranks == []
    # under bB, b^2 = 0 is checked on the normalized b alone, whose
    # witness is a tuple of the rebased basis
    b_square_fails = B_SQUARE_FAILS.format("(1,)" if method == "bB"
                                           else "(3,)")
    if method == "lambda":
        assert out == b_square_fails + "summary: pass=2 fail=1\n"
    else:
        assert out == b_square_fails + B_RELATIONS_AFTER_B_SQUARE_FAILS


def test_cohomology_refuses_negative_dimension(capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "lambda_complex_dimensions",
                        lambda hh0, stages:
                        [1, -1] + [0] * (len(list(stages)) - 1))
    code, out = run(capsys, "cohomology", "--input", "qz2",
                    "--max-degree", "3", "--method", "lambda")
    assert code == 1
    assert out == "error: negative dimension HC_lambda=-1 at degree 1\n"


@pytest.mark.parametrize("method", ["both", "bB", "lambda"])
def test_cohomology_builds_each_matrix_once(capsys, monkeypatch, method):
    calls = collections.Counter()
    for name in ("b_matrix", "B_matrix", "one_minus_lambda_matrix"):
        # one_minus_lambda_matrix takes the matrix of tau in place of a module
        def counted(source, n, name=name, build=getattr(cohomology, name)):
            normalized = isinstance(source, NormalizedModule)
            calls[name, normalized, n] += 1
            return build(source, n)
        monkeypatch.setattr(cohomology, name, counted)
    code, _ = run(capsys, "cohomology", "--input", "sweedler",
                  "--character", "delta", "--max-degree", "4",
                  "--method", method)
    assert code == 0
    # the normalized b serves HH and the HH^n representatives under every
    # method; the full complex, to b_N only, serves HC(lambda), whose
    # stage builds 1 - lambda_n for n < N only
    built = {("b_matrix", True, n): 1 for n in range(1, 6)}
    if method != "bB":
        built.update({("b_matrix", False, n): 1 for n in range(1, 5)})
        built.update({("one_minus_lambda_matrix", False, n): 1
                      for n in range(4)})
    if method != "lambda":  # HC(bB) on the normalized complex
        built.update({("B_matrix", True, n): 1 for n in range(4)})
    assert dict(calls) == built


def test_cyclotomic_lambda_report_inverts_few_pivots(capsys, monkeypatch):
    # unit pivots are stored as they are or negated; only the few other
    # pivots of this report cost a Cyclotomic inverse (2,398 when every
    # pivot was inverted)
    calls = []
    inv = linalg.scalar_inv
    monkeypatch.setattr(linalg, "scalar_inv",
                        lambda x: calls.append(x) or inv(x))
    code, _ = run(capsys, "cohomology", "--input",
                  str(PKG_ROOT / "tests/goldens/cli/qz4-zeta4.json"),
                  "--character", "delta", "--max-degree", "5",
                  "--method", "lambda")
    assert code == 0
    assert 0 < len(calls) <= 21


def _readme_commands():
    text = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hopfcyclic ")]
    assert commands, "README.md has no hopfcyclic command-line examples"
    return commands


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[" ".join(a[:3]) for a in README_COMMANDS])
def test_readme_command_line_examples_run(capsys, monkeypatch, argv):
    monkeypatch.chdir(PKG_ROOT)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.startswith("report: ")
