"""The layer boundary: only ratho._complex talks to ratho._linalg.

Every module under src/ratho is parsed, not imported, so the check holds
for code no test runs.  Elimination reaches the rest of ratho only through
Complex (homology, image, primitive, class_key), and the echelon of
boundaries stays private to it.

Concordance has one decision route: character.py imports nothing from
twisted_derham.py, the residue complex of twisted de Rham cohomology
(_residues) stays inside twisted_derham.py, and a decidable family
(character._Family) carries no differential of its own: witnesses are
checked with apply_d on the family's algebra.  A straight cylinder has one
join: only _straight_concordance reads a cylinder's report besides
verify_concordance, and only it integrates a witness off a cylinder.

The layers perfbench/tracer.py wraps must exist too: each LAYERS path
resolves to a function the way Tracer.install looks it up, so removing or
renaming a traced function fails here, not only in a traced bench run.
"""

import ast
import importlib.util
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ratho"
MODULES = sorted(SRC.rglob("*.py"))
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _imports(node, target):
    """Whether node imports the ratho module target, or a name from it."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == target for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.split(".")[-1] == target
                or any(a.name == target for a in node.names))
    return False


def _calls_echelon(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("echelon", "_bounds"))


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_complex_uses_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    nodes = list(ast.walk(tree))
    importers = [n.lineno for n in nodes if _imports(n, "_linalg")]
    if path.name == "_complex.py":
        assert importers
        return
    assert not importers, "%s imports _linalg at lines %s" % (path, importers)
    calls = [n.lineno for n in nodes if _calls_echelon(n)]
    assert not calls, ("%s reaches the boundary echelon at lines %s"
                       % (path, calls))


_TWISTED_ONLY = ("_residues",)


def _names(tree):
    """(line, name) of every identifier, attribute and imported name."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.lineno, n.id
        elif isinstance(n, ast.Attribute):
            yield n.lineno, n.attr
        elif isinstance(n, ast.alias):
            yield n.lineno, n.name.split(".")[-1]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_twisted_derham_uses_the_residue_complex(path):
    if path.name == "twisted_derham.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    uses = [(line, name) for line, name in _names(tree)
            if name in _TWISTED_ONLY]
    assert not uses, "%s references %s" % (path, uses)


def test_character_imports_nothing_from_twisted_derham():
    tree = ast.parse((SRC / "character.py").read_text(encoding="utf-8"))
    importers = [n.lineno for n in ast.walk(tree)
                 if _imports(n, "twisted_derham")]
    assert not importers, ("character.py imports twisted_derham at lines %s"
                           % importers)


def test_families_carry_no_differential():
    from ratho import character
    assert "d" not in character._Family._fields


def _callers(tree, names):
    """name -> the functions whose bodies call it."""
    out = {name: set() for name in names}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                        and n.func.id in out:
                    out[n.func.id].add(fn.name)
    return out


def test_one_join_certifies_every_straight_cylinder():
    tree = ast.parse((SRC / "character.py").read_text(encoding="utf-8"))
    assert _callers(tree, ("_concordance_report", "fiber_integrate",
                           "verify_concordance")) == {
        "_concordance_report": {"verify_concordance",
                                "_straight_concordance"},
        "fiber_integrate": {"_straight_concordance"},
        "verify_concordance": set(),
    }


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"_complex.py", "_linalg.py", "dgca.py", "minimal_model.py",
            "main.py"} <= names


def _traced_layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("layer", _traced_layers(), ids=lambda l: l[0])
def test_traced_layer_resolves(layer):
    _, module_name, path, _, _ = layer
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__.get(attr)), (
        "%s has no %r to trace" % (module_name, path))
