"""Every name a source, test or bench file imports is read in that file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/hopfcyclic/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("bench/*.py")])
# bench/tracing.py wraps cli.load_lie where the CLI looks it up
READ_ELSEWHERE = {("src/hopfcyclic/cli.py", "load_lie")}


def unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT).as_posix()
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and (rel, name) not in READ_ELSEWHERE)


def test_every_import_is_read():
    assert FILES
    unread = {path.relative_to(ROOT).as_posix(): found for path in FILES
              if (found := unread_imports(path))}
    assert not unread, unread
