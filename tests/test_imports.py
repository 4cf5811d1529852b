"""Every module of the package uses each name it imports, and every public
function and class has a reader.

Deleting a function often leaves its imports behind; this guard catches
them. Annotations count as uses, including names inside string annotations.
The package ``__init__`` is exempt: it imports names to re-export them. The
dead-code guard checks the other direction: a public module-level function
or class must be named by other code of the package, exported by
``__init__``, or wrapped by the benchmark's tracer. The last test checks the
other side of a deletion: every function the tracer wraps still resolves.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drdkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, and names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_guard_sees_annotations_and_unused_names():
    tree = ast.parse(
        "from typing import Optional\n"
        "from a import B, C, D\n"
        "import numpy as np\n"
        "def f(x: Optional['B']) -> C:\n"
        "    return np.zeros(1)\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"D"}


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


# Public names that only the tests read today. Moving each into the tests,
# or giving it a reader in the package, takes it off this list.
TEST_ONLY = {
    "check_definition_drd",
    "out_distance_partition",
    "hoffman_polynomial",
    "span_solve",
    "predistance_polynomials",
    "poly_inner_product_trace",
}


def unread_definitions(modules: dict[str, ast.Module], kept: set[str]) -> set[str]:
    """Public module-level functions and classes of `modules` that no code
    names, outside the definition itself, as a name, an attribute or inside
    a string annotation, and that are not in `kept`."""
    defined: set[str] = set()
    named: set[str] = set()
    for tree in modules.values():
        for stmt in tree.body:
            uses = used_names(ast.Module(body=[stmt], type_ignores=[]))
            uses |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.add(stmt.name)
                uses.discard(stmt.name)
            named |= uses
    return defined - named - kept


def test_every_public_definition_has_a_reader():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        elt.value
        for node in init.body
        if isinstance(node, ast.Assign) and any(t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    traced = {path.split(".")[0] for _, _, path in _tracer().TARGETS}
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert unread_definitions(modules, exported | traced) == TEST_ONLY


def test_dead_code_guard_sees_unread_definitions():
    modules = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def by_attribute(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def exported(): pass\n"
            "def _private(): pass\n"
            "class Annotated: pass\n"
            "class Unread: pass\n"
        ),
        "b.py": ast.parse(
            "from a import used\n"
            "import a\n"
            "def f(x: 'Annotated'):\n"
            "    return used() + a.by_attribute()\n"
        ),
    }
    assert unread_definitions(modules, {"exported"}) == {"recursive", "Unread", "f"}


def test_tracer_targets_resolve():
    """Every function the benchmark's span tracer wraps still exists, so a
    deleted or renamed one fails here rather than in a traced run."""
    tracer = _tracer()
    assert tracer.TARGETS
    for _, module, path in tracer.TARGETS:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, path)
