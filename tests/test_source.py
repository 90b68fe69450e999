"""Checks on the library's source text."""

import ast
import re
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


# the library modules that may name the seeded faults: the faults
# themselves, the hidden CLI flag and the sweep
_FAULT_MODULES = ("faults.py", "cli.py", "batteries.py")


def _imports_faults(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "quatwitt.faults" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("faults", "quatwitt.faults"):
            return True
        if (node.level and not module) or module == "quatwitt":
            return any(alias.name == "faults" for alias in node.names)
    return False


def test_only_the_fault_modules_import_faults():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if _imports_faults(node) and name not in _FAULT_MODULES
    ]
    assert found == []


def test_no_other_library_module_mentions_faults():
    package = Path(quatwitt.__file__).resolve().parent
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name not in _FAULT_MODULES
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bfault", line, re.IGNORECASE)
    ]
    assert found == []
