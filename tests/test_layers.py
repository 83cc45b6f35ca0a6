"""The layer boundary: only ratho._complex talks to ratho._linalg.

Every module under src/ratho is parsed, not imported, so the check holds
for code no test runs.  Elimination reaches the rest of ratho only through
Complex (homology, image, primitive, class_key), and the echelon of
boundaries stays private to it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ratho"
MODULES = sorted(SRC.rglob("*.py"))


def _imports_linalg(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "_linalg" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.split(".")[-1] == "_linalg"
                or any(a.name == "_linalg" for a in node.names))
    return False


def _calls_echelon(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("echelon", "_echelon"))


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_complex_uses_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    nodes = list(ast.walk(tree))
    importers = [n.lineno for n in nodes if _imports_linalg(n)]
    if path.name == "_complex.py":
        assert importers
        return
    assert not importers, "%s imports _linalg at lines %s" % (path, importers)
    calls = [n.lineno for n in nodes if _calls_echelon(n)]
    assert not calls, "%s calls .echelon( at lines %s" % (path, calls)


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"_complex.py", "_linalg.py", "dgca.py", "minimal_model.py",
            "main.py"} <= names
