"""No module of the package raises AssertionError, apart from the dispatch
branch of `cli.main` that argparse makes unreachable.

A broken internal invariant raises `InternalInconsistency`, which `drdkit
check` turns into exit 3. An AssertionError would escape as a traceback with
exit status 1, which is the exit status of the verdict "no".
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drdkit"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("cli.py", "main")}


def _is_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def assertion_raises(tree: ast.Module) -> list[tuple[str, int]]:
    """(innermost enclosing function or None, line) of each `raise
    AssertionError`, called or bare."""
    found = []

    def visit(node: ast.AST, function) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and _is_assertion_error(child.exc):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assertion_error_is_raised(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raises = [(f, line) for f, line in assertion_raises(tree) if (path.name, f) not in ALLOWED]
    assert not raises, f"{path.name} raises AssertionError at {raises}; raise InternalInconsistency"


def test_the_allowed_branch_is_the_only_one_in_cli_main():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert [f for f, _ in assertion_raises(tree)] == ["main"]


def test_guard_sees_bare_called_and_nested_raises():
    tree = ast.parse(
        "raise AssertionError\n"
        "def f():\n"
        "    def g():\n"
        "        raise AssertionError('x')\n"
        "    if True:\n"
        "        raise AssertionError('y')\n"
        "    raise ValueError('z')\n"
    )
    assert assertion_raises(tree) == [(None, 1), ("g", 4), ("f", 6)]
