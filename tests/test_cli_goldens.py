"""Byte-for-byte pins of the `cohomology` command's reports.

Each file in tests/goldens/cli/ is the standard output of
``hopfcyclic cohomology --input INPUT --character CHAR --max-degree 4
--method METHOD``, captured before the matrices were assembled from the
structure constants, so any refactor of the pipeline must reproduce it
exactly.  ``qz4-zeta4.json`` is QZ4 over Q(zeta_4) with delta(g^k) = zeta_4^k,
written by ``presentations.dump_hopf``.
"""

import pytest

from conftest import DATA, GOLDENS
from hopfcyclic.cli import main

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
