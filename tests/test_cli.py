"""Command-line interface: exit codes, determinism, report output."""

import collections
import json
import shlex

import pytest

from conftest import PKG_ROOT
from hopfcyclic import cohomology
from hopfcyclic.cli import main
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


def test_unknown_character_exit_2(capsys):
    code = main(["cohomology", "--input", "qz2", "--character", "nope"])
    assert code == 2


def test_bad_max_degree():
    with pytest.raises(SystemExit):
        main(["cohomology", "--input", "qz2", "--max-degree", "0"])


def test_cohomology_refuses_non_hopf_input(capsys, tmp_path, data_dir):
    # Delta(g) = g@g + (e-g)@(e-g) is coassociative and counital but not
    # multiplicative; the complex built from it has HC_lambda^3 = -1
    bad = [[0, 0, 0, "1"], [1, 0, 0, "1"], [1, 0, 1, "-1"], [1, 1, 0, "-1"],
           [1, 1, 1, "2"]]
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


def test_cohomology_refuses_broken_mixed_complex(capsys, flipped_B1):
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3")
    assert code == 1
    assert out.startswith("report: mixed-complex\n")
    assert "check B2 n=1 status=FAIL witness=('B.B', [(0, 0, 1)])" in out
    assert "check bB+Bb n=1 status=FAIL witness=('bB+Bb', [(1,)])" in out
    assert not any(line.startswith("degree ") for line in out.splitlines())
    # the lambda method builds no B, so only b^2 = 0 is checked
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3",
                    "--method", "lambda")
    assert code == 0
    assert "degree 3:" in out


B_SQUARE_FAILS = """\
report: mixed-complex
max-degree: 3
check b2 n=0 status=pass
check b2 n=1 status=FAIL witness=('b.b', [(3,)])
check b2 n=2 status=pass
"""
B_RELATIONS_AFTER_B_SQUARE_FAILS = """\
check B2 n=0 status=pass
check B2 n=1 status=pass
check bB+Bb n=0 status=pass
check bB+Bb n=1 status=FAIL witness=('bB+Bb', [(3,)])
check bB+Bb n=2 status=FAIL witness=('bB+Bb', [(0, 2)])
summary: pass=5 fail=3
"""


@pytest.mark.parametrize("method", ["both", "bB", "lambda"])
def test_cohomology_computes_no_rank_when_b_square_fails(
        capsys, monkeypatch, corrupted_b2, method):
    ranks = []
    rank = SparseMatrix.rank
    monkeypatch.setattr(SparseMatrix, "rank",
                        lambda self: ranks.append(self) or rank(self))
    code, out = run(capsys, "cohomology", "--input", "sweedler",
                    "--character", "delta", "--max-degree", "3",
                    "--method", method)
    assert code == 1
    assert ranks == []
    if method == "lambda":
        assert out == B_SQUARE_FAILS + "summary: pass=2 fail=1\n"
    else:
        assert out == B_SQUARE_FAILS + B_RELATIONS_AFTER_B_SQUARE_FAILS


def test_cohomology_refuses_negative_dimension(capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "lambda_complex_dimensions",
                        lambda module, b: [1, -1] + [0] * (len(b) - 2))
    code, out = run(capsys, "cohomology", "--input", "qz2",
                    "--max-degree", "3", "--method", "lambda")
    assert code == 1
    assert out == "error: negative dimension HC_lambda=-1 at degree 1\n"


@pytest.mark.parametrize("method", ["both", "lambda"])
def test_cohomology_builds_each_matrix_once(capsys, monkeypatch, method):
    calls = collections.Counter()
    for name in ("b_matrix", "B_matrix", "one_minus_lambda_matrix"):
        def counted(module, n, name=name, build=getattr(cohomology, name)):
            calls[name, n] += 1
            return build(module, n)
        monkeypatch.setattr(cohomology, name, counted)
    code, _ = run(capsys, "cohomology", "--input", "sweedler",
                  "--character", "delta", "--max-degree", "4",
                  "--method", method)
    assert code == 0
    built = {("b_matrix", n): 1 for n in range(1, 6)}
    built.update({("one_minus_lambda_matrix", n): 1 for n in range(5)})
    if method == "both":
        built.update({("B_matrix", n): 1 for n in range(4)})
    assert dict(calls) == built


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
