"""Static guards over the library's syntax trees.

Every module-level import in the library modules and the tests is used,
every module-level private name of the library is referenced somewhere in
the library, and only `reports.py` builds a Report.  No linter ships with
the project, so this walks each module's syntax tree with the stdlib `ast`
module.  The package's `__init__.py` is exempt from the import guard: its
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


def library_trees():
    return {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


def private_definitions(tree):
    """Module-level private names bound by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def loaded_names(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def unreferenced_private_names(trees):
    used = set().union(*(loaded_names(t) for t in trees.values()))
    return sorted((module, name) for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in used)


def report_constructions(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Report"]


def test_private_guard_flags_a_stranded_helper():
    trees = {"m.py": ast.parse("_kept = 1\n"
                               "def _stranded(x):\n"
                               "    return _kept\n")}
    assert unreferenced_private_names(trees) == [("m.py", "_stranded")]


def test_every_private_library_name_is_referenced():
    assert unreferenced_private_names(library_trees()) == []


def test_only_reports_module_builds_reports():
    found = {name: report_constructions(tree)
             for name, tree in library_trees().items() if name != "reports.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
