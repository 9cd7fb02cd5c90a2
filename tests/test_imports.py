"""Every name a source, test or bench file imports is read in that file,
and every parameter of a source function is read in its body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/hopfcyclic/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("bench/*.py")])
# bench/tracing.py wraps cli.load_lie where the CLI looks it up
READ_ELSEWHERE = {("src/hopfcyclic/cli.py", "load_lie")}
# methods that implement an interface shared with a class that reads the
# parameter: apply_generator calls cyclic(n, t) on both cyclic modules
INTERFACE_PARAMETERS = {("CochainCyclicModule.cyclic", "n")}


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


def unread_parameters(path):
    """(line, function, parameter) for each parameter that a function,
    nested ones and lambdas included, never reads; a method's self or cls
    is not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(node): f"{cls.name}.{node.name}"
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        name = methods.get(id(node), getattr(node, "name", "<lambda>"))
        if id(node) in methods:
            params = params[1:]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, name, p) for p in params
                if p not in read and (name, p) not in INTERFACE_PARAMETERS]
    return out


def test_every_parameter_is_read():
    """A value a function could work out from its other inputs is not a
    parameter of it; a parameter it never reads is the plainest case."""
    unread = {path.name: found
              for path in sorted(ROOT.glob("src/hopfcyclic/*.py"))
              if (found := unread_parameters(path))}
    assert not unread, unread


def hopf_beside_delta(path):
    """(line, function) for each function with a parameter named delta
    beside one named hopf or H."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(node): f"{cls.name}.{node.name}"
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = {a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs)}
            if "delta" in params and params & {"hopf", "H"}:
                out.append((node.lineno, methods.get(
                    id(node), getattr(node, "name", "<lambda>"))))
    return out


def test_no_hopf_beside_delta():
    """A character holds its Hopf algebra as delta.hopf, so no function
    takes H beside delta, where the two could disagree."""
    found = {path.name: hits
             for path in sorted(ROOT.glob("src/hopfcyclic/*.py"))
             if (hits := hopf_beside_delta(path))}
    assert not found, found
