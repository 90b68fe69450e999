"""Checks on the library's source text."""

import ast
from pathlib import Path

import quatwitt


def _library_nodes():
    package = Path(quatwitt.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # an `assert` vanishes under python -O, so every exact check in the
    # library must raise an error of its own instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_imports_no_process_pool():
    # verify-theorem --jobs forks its own workers; a pool would cost every
    # batch its import and start-up
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        for module in modules(node)
        if module.split(".")[0] in ("concurrent", "multiprocessing")
    ]
    assert found == []
