"""Every module-level import in the library modules and the tests is used.

No linter ships with the project, so this walks each module's syntax tree
with the stdlib `ast` module.  The package's `__init__.py` is exempt: its
imports are the package's exports.
"""

import ast
from pathlib import Path

import torsorlab

PACKAGE = Path(torsorlab.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    source = ("from dataclasses import dataclass\n"
              "from functools import lru_cache\n"
              "import itertools\n"
              "cache = lru_cache\n")
    assert unused_imports(source) == [(1, "dataclass"), (3, "itertools")]


def assert_no_unused_imports(modules):
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_library_modules_have_no_unused_imports():
    assert_no_unused_imports(
        sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))


def test_test_modules_have_no_unused_imports():
    assert_no_unused_imports(sorted(TESTS.glob("*.py")))
