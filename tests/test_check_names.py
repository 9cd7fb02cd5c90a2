"""Every check the cohomology report can refuse with is named in a test,
so some test reaches each refusal."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COHOMOLOGY = ROOT / "src/hopfcyclic/cohomology.py"


def refusal_names():
    """The check names, without ' n=...', that cohomology.py passes to
    _refuse, and 'phi-invariant NAME' for each NAME it passes to
    _invariant, which refuses with that check."""
    names = set()
    for node in ast.walk(ast.parse(COHOMOLOGY.read_text())):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "_refuse":
            head = node.args[1].values[0].value  # an f-string's literal head
            if head != "phi-invariant ":  # _invariant's own, named below
                assert head.endswith(" n="), head
                names.add(head.removesuffix(" n="))
        elif node.func.id == "_invariant":
            names.add(f"phi-invariant {node.args[2].value}")
    return sorted(names)


def test_every_refusal_is_named_in_a_test():
    names = refusal_names()
    assert "lambda-b" in names and "phi-invariant 1-lambda" in names, names
    texts = [path.read_text(errors="replace")
             for path in ROOT.glob("tests/**/*")
             if path.is_file() and path.suffix != ".pyc"
             and path != Path(__file__).resolve()]
    unnamed = [name for name in names
               if not any(f"{name} n=" in text for text in texts)]
    assert not unnamed, unnamed
