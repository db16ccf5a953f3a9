"""Static guards over the library's syntax trees.

Every module-level import in the library modules and the tests is used;
every module-level name a library module defines is loaded by the library
itself, not only by the package's exports or the tests; no library module
reads the process environment; only `reports.py` builds a Report, only
`matrices.py` calls `_eliminate`, only `matrices._product` calls the
product kernels, only `involutions.involution` builds an Involution, only
`subspaces.orthocomplement` and the rank-nullity law call `kernel_basis`,
only `Involution.__call__` and `relations.adjoint` call `orthocomplement`,
only `reports.cases` calls `trial_rng`, and only `reports.run_law` and
three draw pools call `cases` (a law hands its draw to `run_law`); every
library function reads each of its parameters, a law's predicate each slot
it names, and no parameter takes one value from every library call; only
`cli.main` catches `FieldSyntaxError`; no handler in `cli.py` that
catches ValueError wraps a call that raises `UsageError` itself; and only
`Subspace.__new__` reads the subspace intern table or gets past a
Subspace's refusing `__setattr__`.  No linter ships with the project, so
this walks each module's syntax tree with the stdlib `ast` module.  The
package's `__init__.py` is exempt from the import guard and from the name
guard: its imports are the package's exports, and an export alone is no
caller.
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


def definitions(tree):
    """Module-level names bound by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def loaded_names(tree, modules):
    """Bare names loaded, and attributes read off one of the modules, as in
    `homotopes.check_group_laws`; `field.sort_key` loads no module name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in modules):
            found.add(node.attr)
    return found


def unreferenced_names(trees):
    """(module, name) for each name no module but `__init__.py` loads."""
    trees = {m: t for m, t in trees.items() if m != "__init__.py"}
    modules = {Path(m).stem for m in trees}
    used = set().union(*(loaded_names(t, modules) for t in trees.values()))
    return sorted((module, name) for module, tree in trees.items()
                  for name in definitions(tree) if name not in used)


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """Lines that read the process environment through `os`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
        if names & ENVIRONMENT_NAMES:
            lines.add(node.lineno)
    return sorted(lines)


def calls_to(tree, name):
    """Lines that call `name`, as a bare name or as a module attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_call_guard_sees_names_and_attributes():
    tree = ast.parse("import m\n"
                     "m._eliminate(r, rows, 2)\n"
                     "_eliminate(r, rows, 2)\n"
                     "_eliminate_mod_p(5, rows, 2)\n")
    assert calls_to(tree, "_eliminate") == [2, 3]


def test_private_guard_flags_a_stranded_helper():
    """A stranded helper, private or not; exports are no callers, and
    neither is an attribute of the same name read off a value."""
    trees = {"m.py": ast.parse("_kept = 1\n"
                               "def _stranded(x):\n"
                               "    return _kept\n"
                               "def used():\n"
                               "    return 0\n"
                               "def exported():\n"
                               "    return 0\n"
                               "def sort_key(e):\n"
                               "    return e\n"),
             "n.py": ast.parse("import m\n"
                               "LIMIT = m.used()\n"
                               "def twice():\n"
                               "    return 2 * LIMIT\n"
                               "def order(field, e):\n"
                               "    return field.sort_key(e)\n"
                               "twice()\n"
                               "order\n"),
             "__init__.py": ast.parse("from .m import exported\n"
                                      "exported()\n")}
    assert unreferenced_names(trees) == [("m.py", "_stranded"),
                                         ("m.py", "exported"),
                                         ("m.py", "sort_key")]


# The brute-force reference that the tests compare Gamma against.
REFERENCE_ONLY = [("gamma.py", "gamma_oracle_enum")]


def test_every_library_name_has_a_library_caller():
    """Each name feeds a law, a command or another library function."""
    assert unreferenced_names(library_trees()) == REFERENCE_ONLY


def test_environment_guard_sees_attributes_and_imports():
    tree = ast.parse("import os\n"
                     "os.environ.get('X')\n"
                     "os.getenv('Y')\n"
                     "from os import environ\n"
                     "os.path.join('a', 'b')\n"
                     "environment = 1\n")
    assert environment_reads(tree) == [2, 3, 4]


def test_no_library_module_reads_the_environment():
    """A knob hidden in an environment variable cannot come back."""
    found = {name: environment_reads(tree)
             for name, tree in library_trees().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def calls_outside(module, name):
    found = {other: calls_to(tree, name)
             for other, tree in library_trees().items() if other != module}
    return {other: lines for other, lines in found.items() if lines}


def test_only_reports_module_builds_reports():
    assert calls_outside("reports.py", "Report") == {}


def test_only_matrices_module_eliminates():
    """Pivots come from `_eliminate`, or from `pivot_cols` on a stored basis."""
    assert calls_outside("matrices.py", "_eliminate") == {}


def callers_of(trees, name):
    """(module, definition) for each top-level function, or method named
    `Class.method`, whose body calls `name`; any other statement that calls
    it counts as `<module>`."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                if calls_to(part, name):
                    owner = getattr(part, "name", "<module>")
                    if part is not node:
                        owner = node.name + "." + owner
                    found.add((module, owner))
    return sorted(found)


def test_caller_guard_names_functions_methods_and_modules():
    trees = {"m.py": ast.parse("import k\n"
                               "def f(x):\n"
                               "    def inner():\n"
                               "        return k.kernel_basis(x)\n"
                               "    return inner\n"
                               "class C:\n"
                               "    def __call__(self, x):\n"
                               "        return kernel_basis(x)\n"
                               "    def other(self):\n"
                               "        return self.kernel_basis\n"
                               "kernel_basis(0)\n"),
             "n.py": ast.parse("def g():\n"
                               "    return kernel_basis\n")}
    assert callers_of(trees, "kernel_basis") == [
        ("m.py", "<module>"), ("m.py", "C.__call__"), ("m.py", "f")]


PRODUCT_KERNELS = ("_mul_mod_p", "_mul_rat", "_mul_dual", "_mul_generic")


def product_kernel_calls(trees):
    """(module, definition, kernel) for each product kernel call made
    anywhere but in `matrices._product`."""
    return sorted((module, owner, kernel) for kernel in PRODUCT_KERNELS
                  for module, owner in callers_of(trees, kernel)
                  if (module, owner) != ("matrices.py", "_product"))


def test_product_guard_sees_functions_methods_and_modules():
    source = ("def _product(ring, rows, cols):\n"
              "    if ring:\n"
              "        return _mul_rat(rows, cols)\n"
              "    return _mul_dual(ring, rows, cols)\n"
              "class Matrix:\n"
              "    def __mul__(self, other):\n"
              "        return _mul_mod_p(2, self, other)\n")
    trees = {"matrices.py": ast.parse(source),
             "n.py": ast.parse("import matrices\n"
                               "def _product(x):\n"
                               "    return matrices._mul_generic(x, (), ())\n"
                               "def f(x):\n"
                               "    return matrices._mul_dual\n")}
    assert product_kernel_calls(trees) == [
        ("matrices.py", "Matrix.__mul__", "_mul_mod_p"),
        ("n.py", "_product", "_mul_generic")]


def test_only_the_product_dispatch_calls_product_kernels():
    """Every matrix product, the pair products of the dual rings
    included, picks its kernel in `matrices._product`."""
    assert product_kernel_calls(library_trees()) == []


def test_only_orthocomplement_and_rank_nullity_take_kernels():
    """tau has one kernel: an Involution applies itself through
    `orthocomplement`, and the rank-nullity law checks `kernel_basis`."""
    assert callers_of(library_trees(), "kernel_basis") == [
        ("checks.py", "_run_rank_nullity"),
        ("subspaces.py", "orthocomplement")]


def test_a_law_applies_tau_through_its_involution():
    """tau is applied one way: through `Involution.__call__`.  The only
    other caller of `orthocomplement` is `relations.adjoint`, whose pairing
    is a Form, since `relations` cannot import `involutions`."""
    assert callers_of(library_trees(), "orthocomplement") == [
        ("involutions.py", "Involution.__call__"),
        ("relations.py", "adjoint")]


def test_only_the_case_generator_seeds_trials():
    """Sampled cases have one source: trial i of every law is drawn from
    trial_rng(seed, i) inside `reports.cases`."""
    assert callers_of(library_trees(), "trial_rng") == [
        ("reports.py", "cases")]


def test_a_law_hands_its_draw_to_run_law():
    """`run_law` picks every law's cases.  The only other callers of
    `cases` draw a pool that a law sweeps: the parameters `a` of
    semitorsor-closure, the family parameters of hull-closure, and the
    violations that first-kind-negative-control counts."""
    assert callers_of(library_trees(), "cases") == [
        ("checks.py", "_run_semitorsor_closure"),
        ("homotopes.py", "check_first_kind_control"),
        ("homotopes.py", "family_params"),
        ("reports.py", "run_law")]


def test_only_the_involution_builder_builds_involutions():
    """Every Involution the library builds has passed the order-two check."""
    assert calls_outside("involutions.py", "Involution") == {}
    tree = library_trees()["involutions.py"]
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "involution")
    assert calls_to(tree, "Involution") == calls_to(builder, "Involution")
    assert calls_to(builder, "Involution")


INTERN_TABLE = "_INTERNED"
BYPASSES = ("__new__", "__setattr__", "__delattr__")


def intern_sites(trees):
    """(module, definition, what) for each read of the intern table and each
    call of `__new__`, `__setattr__` or `__delattr__` off `object` or
    `super()`, named as in `callers_of`.  A write to a method's own receiver
    is not listed, except in `Subspace`: the frozen values set their caches
    that way, and a Subspace is the one value whose identity is its
    equality."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                owner = getattr(part, "name", "<module>")
                receiver = None
                if part is not node:
                    owner = node.name + "." + owner
                    args = getattr(part, "args", None)
                    if node.name != "Subspace" and args and args.args:
                        receiver = args.args[0].arg
                for n in ast.walk(part):
                    if (isinstance(getattr(n, "ctx", None), ast.Load)
                            and INTERN_TABLE in (getattr(n, "id", None),
                                                 getattr(n, "attr", None))):
                        found.add((module, owner, INTERN_TABLE))
                    if not (isinstance(n, ast.Call)
                            and isinstance(n.func, ast.Attribute)
                            and n.func.attr in BYPASSES):
                        continue
                    base = n.func.value
                    if isinstance(base, ast.Call):  # super() acts on self
                        base, target = base.func, receiver
                    else:
                        target = n.args and getattr(n.args[0], "id", None)
                    if getattr(base, "id", None) not in ("object", "super"):
                        continue
                    if (n.func.attr != "__new__" and receiver is not None
                            and target == receiver):
                        continue
                    found.add((module, owner, base.id + "." + n.func.attr))
    return sorted(found)


def test_intern_guard_sees_reads_bypasses_and_receivers():
    source = ("_INTERNED = {}\n"
              "_INTERNED.clear()\n"
              "class Subspace:\n"
              "    def __new__(cls, basis):\n"
              "        live = _INTERNED.get(basis)\n"
              "        live = object.__new__(cls)\n"
              "        object.__setattr__(live, 'basis', basis)\n"
              "        return live\n"
              "    def reset(self, basis):\n"
              "        object.__setattr__(self, 'basis', basis)\n"
              "    def drop(self):\n"
              "        super().__delattr__('basis')\n"
              "class Matrix:\n"
              "    def __hash__(self):\n"
              "        object.__setattr__(self, '_hash', 1)\n"
              "        super().__setattr__('_hash', 2)\n"
              "    def poke(self, sub):\n"
              "        object.__setattr__(sub, 'basis', self)\n")
    trees = {"subspaces.py": ast.parse(source),
             "n.py": ast.parse("import subspaces\n"
                               "def twin(s):\n"
                               "    return object.__new__(type(s))\n"
                               "def table():\n"
                               "    return subspaces._INTERNED\n"
                               "def name(s):\n"
                               "    return s.__new__, setattr(s, 'x', 1)\n")}
    assert intern_sites(trees) == [
        ("n.py", "table", "_INTERNED"), ("n.py", "twin", "object.__new__"),
        ("subspaces.py", "<module>", "_INTERNED"),
        ("subspaces.py", "Matrix.poke", "object.__setattr__"),
        ("subspaces.py", "Subspace.__new__", "_INTERNED"),
        ("subspaces.py", "Subspace.__new__", "object.__new__"),
        ("subspaces.py", "Subspace.__new__", "object.__setattr__"),
        ("subspaces.py", "Subspace.drop", "super.__delattr__"),
        ("subspaces.py", "Subspace.reset", "object.__setattr__")]


def test_only_the_subspace_constructor_interns():
    """Equality of subspaces is identity, which is right only while each
    basis has one live Subspace: only `Subspace.__new__` reads the intern
    table or makes and fills a Subspace past its refusing `__setattr__`."""
    assert intern_sites(library_trees()) == [
        ("subspaces.py", "Subspace.__new__", "_INTERNED"),
        ("subspaces.py", "Subspace.__new__", "object.__new__"),
        ("subspaces.py", "Subspace.__new__", "object.__setattr__")]


def unread_parameters(tree, module):
    """(function, parameter) for each parameter that a function's body never
    loads, nested functions and methods included.

    Exempt are a method's receiver, which dispatch sets and no caller
    chooses; bodies that only raise, the stubs a subclass overrides; the
    field, ambient and config of a suite runner, a top-level `checks._run_*`,
    which the registry's signature sets; and lambdas, which are not
    definitions.  A function nested in a runner is not exempt.  A law's
    predicate takes its slots as parameters (`reports.run_law` calls
    holds(**case)), so a `def` predicate must read every slot its law
    draws.
    """
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner + child.name + ".")
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, owner)
                continue
            name = owner + child.name
            visit(child, name + ".")
            body = child.body
            if ast.get_docstring(child) is not None:
                body = body[1:]
            if all(isinstance(s, ast.Raise) for s in body):
                continue
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            if isinstance(node, ast.ClassDef):
                params = params[1:]
            if module == "checks.py" and owner == "" and name.startswith(
                    "_run_"):
                params = [p for p in params
                          if p not in ("field", "ambient", "config")]
            read = {n.id for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend((name, p) for p in params if p not in read)

    visit(tree, "")
    return found


def test_parameter_guard_sees_functions_methods_and_nesting():
    tree = ast.parse("def f(x, unused, *rest, flag=0):\n"
                     "    unused = 0\n"
                     "    def inner(y, lost):\n"
                     "        return x + y\n"
                     "    return inner, rest, lambda ignored: 0\n"
                     "class C:\n"
                     "    def method(self, value):\n"
                     "        return 1\n"
                     "    def stub(self, k):\n"
                     "        \"Overridden.\"\n"
                     "        raise NotImplementedError\n"
                     "def _run_x(field, ambient, config):\n"
                     "    return field\n"
                     "def _run_y(check, field, ambient, config):\n"
                     "    def holds(c):\n"
                     "        return field\n"
                     "    return holds\n"
                     "def check_law(config):\n"
                     "    def holds(x, a):\n"
                     "        return x\n"
                     "    return run_law('s', 'l', holds, config)\n")
    unread = [("f.inner", "lost"), ("f", "unused"), ("f", "flag"),
              ("C.method", "value")]
    nested = [("_run_y.holds", "c"), ("_run_y", "check")]
    slot = [("check_law.holds", "a")]
    assert unread_parameters(tree, "m.py") == unread + [
        ("_run_x", "ambient"), ("_run_x", "config")] + nested + [
        ("_run_y", "ambient"), ("_run_y", "config")] + slot
    assert unread_parameters(tree, "checks.py") == unread + nested + slot


def test_every_library_function_reads_its_parameters():
    """A parameter that the body never reads is a setting no caller can
    change; it goes, or the body starts to read it."""
    found = {name: unread_parameters(tree, name)
             for name, tree in library_trees().items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def handlers_of(tree, name):
    """(definition, line) for each `except` clause that names `name`, alone,
    in a tuple or as a module attribute; the definition is the top-level
    function or class around the clause, or `<module>`."""
    found = []
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for handler in ast.walk(node):
            if (isinstance(handler, ast.ExceptHandler) and handler.type
                    and any(name in (getattr(n, "id", None),
                                     getattr(n, "attr", None))
                            for n in ast.walk(handler.type))):
                found.append((owner, handler.lineno))
    return found


def test_handler_guard_sees_tuples_attributes_and_nesting():
    tree = ast.parse("try:\n"
                     "    pass\n"
                     "except FieldSyntaxError:\n"
                     "    pass\n"
                     "def f():\n"
                     "    try:\n"
                     "        pass\n"
                     "    except (ValueError, fields.FieldSyntaxError):\n"
                     "        pass\n"
                     "    except:\n"
                     "        pass\n"
                     "def g():\n"
                     "    def inner():\n"
                     "        try:\n"
                     "            pass\n"
                     "        except (FieldSyntaxError, KeyError) as exc:\n"
                     "            raise ValueError(exc)\n"
                     "    try:\n"
                     "        pass\n"
                     "    except ValueError:\n"
                     "        FieldSyntaxError\n")
    assert handlers_of(tree, "FieldSyntaxError") == [
        ("<module>", 3), ("f", 8), ("g", 16)]


def test_only_main_catches_field_syntax_errors():
    """`main` reports a FieldSyntaxError with exit code 2, so a command that
    re-raises one as a UsageError refuses the same input twice."""
    found = handlers_of(library_trees()["cli.py"], "FieldSyntaxError")
    assert [owner for owner, _ in found] == ["main"]



def _functions(tree, owner=""):
    """(qualified name, def) for each function that is not a method, nested
    functions included as `outer.inner`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            continue
        if isinstance(node, ast.FunctionDef):
            yield owner + node.name, node
            yield from _functions(node, owner + node.name + ".")
        else:
            yield from _functions(node, owner)


def direct_calls(trees):
    """{(module, function): (def, calls)}, with the calls that name the
    function: bare in its own module, where a nested function of that name
    counts too, bare in a module that imports it, or as an attribute of its
    module."""
    stems = {Path(m).stem: m for m in trees}
    defs = {m: dict(_functions(tree)) for m, tree in trees.items()}
    found = {(m, name): (node, []) for m, named in defs.items()
             for name, node in named.items()}
    for module, tree in trees.items():
        imported = {alias.asname or alias.name: stems[node.module]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in stems for alias in node.names}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            targets = []
            if isinstance(func, ast.Name):
                targets = [(module, name) for name in defs[module]
                           if name.rsplit(".", 1)[-1] == func.id]
                if not targets and func.id in imported:
                    targets = [(imported[func.id], func.id)]
            elif (isinstance(func, ast.Attribute)
                  and getattr(func.value, "id", None) in stems):
                targets = [(stems[func.value.id], func.attr)]
            for target in targets:
                if target in found:
                    found[target][1].append(call)
    return found


def _literal(node):
    """(type name, repr) of a literal argument, or None for any other."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value).__name__, repr(value)


def _spreads(call):
    """Whether a call passes `*args` or `**kwargs`, which hide its values."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def _argument(call, name, index, npositional):
    """The argument a call passes to parameter `name`, at `index` among the
    parameters, or None if it passes none."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if index < npositional and index < len(call.args):
        return call.args[index]
    return None


# The interpreter's command line sets `argv`, not a library call.
COMMAND_LINE = [("cli.py", "main", "argv")]


def unvaried_parameters(trees):
    """(module, function, parameter) for each parameter that one value
    serves: every library call passes it the same literal, or it has a
    default that no library call overrides.

    Only direct calls count (see `direct_calls`), so a function with none,
    such as a suite runner or a `partial` target, is exempt, and so is one
    that some call passes `*args` or `**kwargs`.  `cli.main`'s `argv` is
    exempt too.
    """
    found = []
    for (module, name), (node, sites) in sorted(direct_calls(trees).items()):
        if not sites or any(map(_spreads, sites)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = dict(zip([a.arg for a in positional][::-1],
                            args.defaults[::-1]))
        defaults.update((a.arg, d) for a, d in
                        zip(args.kwonlyargs, args.kw_defaults) if d)
        for index, param in enumerate(positional + args.kwonlyargs):
            default = defaults.get(param.arg)
            passed = [_argument(call, param.arg, index, len(positional))
                      for call in sites]
            if all(p is None for p in passed):
                unvaried = default is not None
            else:
                values = {None if e is None else _literal(e) for e in
                          (default if p is None else p for p in passed)}
                unvaried = len(values) == 1 and None not in values
            if unvaried:
                found.append((module, name, param.arg))
    return sorted(set(found) - set(COMMAND_LINE))


def test_unvaried_guard_sees_literals_defaults_and_exemptions():
    trees = {"m.py": ast.parse("def f(x, mode, flag=False, limit=3):\n"
                               "    return x, mode, flag, limit\n"
                               "def g(x, mode=1):\n"
                               "    def inner(rng, ring=ring, k=0):\n"
                               "        return rng, ring, k\n"
                               "    return inner(x), mode\n"
                               "def h(*rows, scale=2):\n"
                               "    return rows, scale\n"
                               "def runner(field, size=4):\n"
                               "    return field, size\n"
                               "f(1, 'a', limit=3)\n"
                               "f(2, 'a')\n"
                               "g(3, mode=2)\n"
                               "g(4)\n"
                               "h(*rows)\n"),
             "n.py": ast.parse("from . import m\n"
                               "from .m import f\n"
                               "f(5, 'a', flag=True)\n"
                               "m.f(6, mode='a', flag=True)\n"
                               "m.runner\n"),
             "cli.py": ast.parse("def main(argv=None):\n"
                                 "    return argv\n"
                                 "def other(argv=None):\n"
                                 "    return argv\n"
                                 "main()\n"
                                 "other()\n")}
    assert unvaried_parameters(trees) == [
        ("cli.py", "other", "argv"), ("m.py", "f", "limit"),
        ("m.py", "f", "mode"), ("m.py", "g.inner", "k"),
        ("m.py", "g.inner", "ring")]


def test_no_library_parameter_has_one_value():
    """A value that one caller sets, or no caller, is a constant; a value
    that the other arguments fix is derived from them."""
    trees = {m: t for m, t in library_trees().items() if m != "__init__.py"}
    assert unvaried_parameters(trees) == []


CATCHES_VALUE_ERRORS = {"ValueError", "UsageError", "Exception",
                        "BaseException"}


def rewrapped_calls(tree):
    """(line, name) for each call to `_parse_matrix`, `_parse_subspace` or an
    `_emit*` function inside the body of a `try` that catches ValueError,
    bare, by name or by a base class."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Try) and any(
                h.type is None or CATCHES_VALUE_ERRORS & {
                    getattr(n, "id", None) for n in ast.walk(h.type)}
                for h in node.handlers)):
            continue
        for call in (n for stmt in node.body for n in ast.walk(stmt)):
            if not isinstance(call, ast.Call):
                continue
            name = (getattr(call.func, "id", None)
                    or getattr(call.func, "attr", ""))
            if (name in ("_parse_matrix", "_parse_subspace")
                    or name.startswith("_emit")):
                found.append((call.lineno, name))
    return sorted(found)


def test_rewrap_guard_sees_bodies_tuples_and_bare_handlers():
    tree = ast.parse("try:\n"
                     "    _emit_reports(r, args)\n"
                     "except (KeyError, ValueError):\n"
                     "    _emit(x, args)\n"
                     "try:\n"
                     "    m = _parse_matrix(t, f)\n"
                     "except:\n"
                     "    pass\n"
                     "try:\n"
                     "    s = _parse_subspace(t, f)\n"
                     "except KeyError:\n"
                     "    pass\n"
                     "else:\n"
                     "    _emit_table(e, u, t, args)\n")
    assert rewrapped_calls(tree) == [(2, "_emit_reports"),
                                     (6, "_parse_matrix")]


def test_no_handler_rewraps_a_usage_error():
    """`_parse_matrix` and the `_emit` functions raise UsageError, a
    ValueError; a handler around them that re-raises a UsageError with the
    same text refuses the same input twice."""
    assert rewrapped_calls(library_trees()["cli.py"]) == []
