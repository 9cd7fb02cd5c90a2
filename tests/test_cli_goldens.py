"""Byte-for-byte pins of the command-line reports.

Each ``*-both.txt``/``*-lambda.txt`` file in tests/goldens/cli/ is the
standard output of ``hopfcyclic cohomology --input INPUT --character CHAR
--max-degree 4 --method METHOD``, captured before the matrices were
assembled from the structure constants, so any refactor of the pipeline
must reproduce it exactly.  The ``*-bB.txt`` files were captured from the
full (b, B)-bicomplex before the bB method moved to the normalized
complex.  ``qz4-zeta4.json`` is QZ4 over Q(zeta_4) with
delta(g^k) = zeta_4^k, written by ``presentations.dump_hopf``.

The ``check-hopf-*``, ``cyclic-relations-*`` and ``gamma-check-*`` files are
the standard output of the checker commands, passing runs and runs that
fail with a witness, captured before the checkers shared one first-failure
helper; together with the exit codes below they pin every check's name,
order and witness format.  Their broken inputs sit beside them:
``qz2-bad-coproduct.json`` (Delta(g) = g@g + (e-g)@(e-g), not
multiplicative), ``qz2-nonassociative.json`` (g e = 0, no characters),
``qz2-noncoassociative.json`` (Delta(g) = g@g + g@e),
``qz2-bad-antipode.json`` (S(g) = 2g),
``gamma-point-trace.json`` (a trace that is not invariant) and
``gamma-bad-action.json`` (g sends d_g to 2 d_e).
"""

import pytest

from conftest import DATA, GOLDENS
from hopfcyclic.cli import main
from hopfcyclic.hopf import BUILTIN_BUILDERS

CLI_GOLDENS = GOLDENS / "cli"

# (golden stem, --input, --character, --method)
CASES = [
    ("trivial", "trivial", "counit", "both"),
    ("qz2", "qz2", "counit", "both"),
    ("qz3", "qz3", "counit", "both"),
    ("sweedler", "sweedler", "delta", "both"),
    ("fun-z2", "fun-z2", "counit", "both"),
    ("fun-z2", "fun-z2", "eval_e", "both"),
    ("fun-z2", "fun-z2", "eval_g", "both"),
    ("qz2-json", str(DATA / "qz2.json"), "counit", "both"),
    ("sweedler-h4-json", str(DATA / "sweedler-h4.json"), "delta", "both"),
    ("qz4-zeta4", str(CLI_GOLDENS / "qz4-zeta4.json"), "delta", "lambda"),
    ("trivial", "trivial", "counit", "bB"),
    ("qz2", "qz2", "counit", "bB"),
    ("qz3", "qz3", "counit", "bB"),
    ("sweedler", "sweedler", "delta", "bB"),
    ("fun-z2", "fun-z2", "counit", "bB"),
    ("fun-z2", "fun-z2", "eval_e", "bB"),
    ("fun-z2", "fun-z2", "eval_g", "bB"),
    ("qz2-json", str(DATA / "qz2.json"), "counit", "bB"),
    ("sweedler-h4-json", str(DATA / "sweedler-h4.json"), "delta", "bB"),
    ("qz4-zeta4", str(CLI_GOLDENS / "qz4-zeta4.json"), "delta", "bB"),
]


@pytest.mark.parametrize("stem,source,character,method", CASES,
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CASES])
def test_cohomology_report_is_byte_identical(capsys, stem, source, character,
                                             method):
    code = main(["cohomology", "--input", source, "--character", character,
                 "--max-degree", "4", "--method", method])
    out = capsys.readouterr().out
    assert code == 0
    golden = CLI_GOLDENS / f"{stem}-{character}-{method}.txt"
    assert out == golden.read_text(encoding="utf-8")


def _checker_cases():
    """(golden stem, argv, exit code) for every pinned checker run."""
    cases = []
    for name in sorted(BUILTIN_BUILDERS):
        for cname in sorted(BUILTIN_BUILDERS[name]().characters):
            cases.append((f"check-hopf-{name}-{cname}",
                          ["check-hopf", "--input", name, "--character",
                           cname, "--require-involution"],
                          1 if (name, cname) == ("sweedler", "counit") else 0))
            cases.append((f"cyclic-relations-{name}-{cname}",
                          ["cyclic-relations", "--input", name,
                           "--character", cname, "--max-degree", "3"],
                          1 if (name, cname) == ("sweedler", "counit") else 0))
    bad_coproduct = str(CLI_GOLDENS / "qz2-bad-coproduct.json")
    cases += [
        ("check-hopf-qz2-bad-coproduct", ["check-hopf", "--input",
                                          bad_coproduct], 1),
        ("check-hopf-qz2-bad-coproduct-counit",
         ["check-hopf", "--input", bad_coproduct, "--character", "counit",
          "--require-involution"], 1),
    ]
    for variant in ("nonassociative", "noncoassociative", "bad-antipode"):
        source = str(CLI_GOLDENS / f"qz2-{variant}.json")
        argv = ["check-hopf", "--input", source]
        if variant == "bad-antipode":
            argv += ["--character", "counit", "--require-involution"]
        cases.append((f"check-hopf-qz2-{variant}", argv, 1))
    for stem, source, cname, code in (("qz2-json", "qz2.json", "counit", 0),
                                      ("sweedler-h4-json", "sweedler-h4.json",
                                       "counit", 1),
                                      ("sweedler-h4-json", "sweedler-h4.json",
                                       "delta", 0)):
        cases.append((f"cyclic-relations-{stem}-{cname}",
                       ["cyclic-relations", "--input", str(DATA / source),
                        "--character", cname, "--max-degree", "3"], code))
    for seed in (0, 1):
        for degree, suffix in ((3, ""), (4, "-degree4")):
            cases.append((f"cyclic-relations-axb-lie{suffix}-seed{seed}",
                          ["cyclic-relations", "--input",
                           str(DATA / "axb-lie.json"), "--max-degree",
                           str(degree), "--seed", str(seed)], 0))
    for stem, source, code in (
            ("translation", DATA / "gamma-translation.json", 0),
            ("point-trace", CLI_GOLDENS / "gamma-point-trace.json", 1),
            ("bad-action", CLI_GOLDENS / "gamma-bad-action.json", 1)):
        cases.append((f"gamma-check-{stem}",
                      ["gamma-check", "--input", str(source)], code))
    return cases


CHECKER_CASES = _checker_cases()


@pytest.mark.parametrize("stem,argv,code", CHECKER_CASES,
                         ids=[c[0] for c in CHECKER_CASES])
def test_checker_report_is_byte_identical(capsys, stem, argv, code):
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (CLI_GOLDENS / f"{stem}.txt").read_text(encoding="utf-8")
