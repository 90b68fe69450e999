"""Checks on the library's source text."""

import ast
from pathlib import Path

import quatwitt


def test_library_has_no_assert_statements():
    # an `assert` vanishes under python -O, so every exact check in the
    # library must raise an error of its own instead
    package = Path(quatwitt.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
