"""Every name a lensfill module imports is used in that module, every
module-level import comes from a short allow-list of cheap modules, only
the cli and the package ``__init__`` import the report module, and no
command loads the heavy stdlib modules the package does without; every
module-level private name is used somewhere in the package, every exported
name is reached from the commands' entry points, every public-named function
they do not reach is one that perfbench's traced.py wraps by name, no module
holds an ``assert`` statement, since ``python -O`` strips those, every
``raise`` names one of the package's two exception classes, no ``raise``
outside ``errors.py`` writes a lens space's ``L(`` name, no call passes
``indent=`` to ``json.dumps`` or ``json.dump``, every function that raises
``TheoremViolation`` is mapped to a test that fires that raise, and the
package exports exactly its modules' ``__all__`` lists.

No linter ships with the package, so these are stdlib AST checks.  The
package ``__init__.py`` is skipped by the import check, since its imports
are re-exports, and so are ``__future__`` imports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lensfill
from lensfill import cfrac, errors, exact, fillings, homology, lattice, report

EXPORTING_MODULES = (cfrac, exact, fillings, homology, lattice)

PACKAGE = Path(lensfill.__file__).parent
SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def findings(check, skip=""):
    """{file name: check(source)} for each package module but skip where
    check finds anything."""
    return {
        f"{m}.py": found for m, source in SOURCES.items() if m != skip and (found := check(source))
    }


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "from __future__ import annotations\nimport json\nfrom math import gcd, isqrt\nisqrt(4)\n"
    assert unused_imports(source) == [(2, "json"), (3, "gcd")]


def test_no_unused_imports_in_package():
    assert findings(unused_imports, skip="__init__") == {}


# the stdlib modules a module of the package may import at module level; the
# package's own modules are allowed too.  Every command starts a fresh process,
# so an import here is paid on each run
ALLOWED_IMPORTS = {
    "__future__", "argparse", "contextlib", "functools", "io", "json", "math", "os", "sys",
    "typing",
}


def module_level_imports(source):
    """(line, top-level module) for each import that runs when the module is
    imported, that is, outside every function body; a relative import is "."."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." if node.level else node.module.split(".")[0]))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def disallowed_imports(source):
    allowed = ALLOWED_IMPORTS | {".", "lensfill"}
    return [(line, name) for line, name in module_level_imports(source) if name not in allowed]


def test_disallowed_imports_detected():
    source = (
        "import inspect\nfrom dataclasses import dataclass\nimport json, os.path\n"
        "from .cfrac import eval_cf\nif True:\n    import csv\n"
        "def f():\n    from fractions import Fraction\n"
        "class C:\n    from decimal import Decimal\n    def g(self):\n        import ast\n"
    )
    assert disallowed_imports(source) == [
        (1, "inspect"), (2, "dataclasses"), (6, "csv"), (10, "decimal"),
    ]


def test_module_level_imports_are_allowed():
    assert findings(disallowed_imports) == {}


def report_importers(sources):
    """Sorted names of the modules in ``sources`` (module name -> source
    text) that import the report module, relatively or as lensfill.report."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["lensfill" if node.level else "", node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if "lensfill.report" in names:
                found.add(module)
    return sorted(found)


def test_report_importers_detected():
    sources = {
        "cli": "from .report import build_report\n", "relative": "from . import report\n",
        "absolute": "import json, lensfill.report\n",
        "inside": "def f():\n    from lensfill.report import render_json\n",
        "clean": "from .homology import spin_rows\nfrom .reporting import x\nimport report\n",
    }
    assert report_importers(sources) == ["absolute", "cli", "inside", "relative"]


def test_only_cli_imports_report():
    # report assembles and renders; the layers below it never import it
    assert report_importers(SOURCES) == ["__init__", "cli"]


# stdlib modules the package does without: dataclasses alone pulls in inspect,
# ast, dis and tokenize, and fractions pulls in decimal and numbers
HEAVY_MODULES = ("dataclasses", "inspect", "csv", "fractions", "decimal")

GUARDED_COMMANDS = [
    ["fillings", "34111385", "29134601"],
    ["lattice-check", "151316", "110771", "--json"],
    ["sweep", "12", "--json"],
    ["zeroseq", "5"],
]

# run in a fresh interpreter: the heavy modules loaded after importing the cli,
# then after each command, as [exit code, *modules]
GUARD_SCRIPT = """
import contextlib, io, json, sys
heavy = {heavy!r}
import lensfill.cli
steps = [[m for m in heavy if m in sys.modules]]
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lensfill.cli.main(argv)
    steps.append([code] + [m for m in heavy if m in sys.modules])
print(json.dumps(steps))
"""


def test_commands_load_no_heavy_module():
    script = GUARD_SCRIPT.format(heavy=HEAVY_MODULES, commands=GUARDED_COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[]] + [[0]] * len(GUARDED_COMMANDS)


def dead_private_names(sources):
    """(module, name) for each module-level ``_name`` that no source uses.

    ``sources`` maps module names to source text.  A use is a load of the
    name, an attribute of that name, or an import of it from another module.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in used)


def test_dead_private_names_detected():
    sources = {
        "a": "_used = 1\n_dead = 2\n_imported = 3\n__dunder__ = 4\n"
        "def _helper():\n    return _used\nclass _Orphan:\n    pass\n",
        "b": "from .a import _imported\nprint(_imported)\n",
    }
    assert dead_private_names(sources) == [("a", "_Orphan"), ("a", "_dead"), ("a", "_helper")]


def test_no_dead_private_names_in_package():
    assert dead_private_names(SOURCES) == []


def reached_definitions(sources, roots):
    """The (module, name) of each top-level definition in ``sources`` that a
    definition in ``roots`` reaches, roots included.

    ``sources`` maps module names to source text and ``roots`` lists (module,
    name) pairs.  A definition is a top-level def or class, or an assignment
    to a name.  It reaches every definition whose name it loads anywhere in
    its body, nested functions and methods included, resolved in its own
    module: a name defined there, or one bound by a relative ``from`` import.
    """
    defs, scope = {}, {}
    for module, source in sources.items():
        names = scope[module] = {}
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                assigned = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [t.id for t in assigned if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.ImportFrom) and stmt.level and stmt.module:
                for alias in stmt.names:
                    names[alias.asname or alias.name] = (stmt.module, alias.name)
                continue
            else:
                continue
            for name in targets:
                defs[module, name] = stmt
                names[name] = (module, name)
    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        names = scope[key[0]]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                stack.append(names[node.id])
    return reached


def uncalled_public_names(exported, sources, roots):
    """(module, name) for each name in ``exported`` (module name -> its
    ``__all__`` list) that no definition in ``roots`` reaches in ``sources``."""
    reached = reached_definitions(sources, roots)
    return sorted(
        (m, name) for m, names in exported.items() for name in names if (m, name) not in reached
    )


def test_uncalled_public_names_detected():
    exported = {"a": ["used", "aliased", "recursive", "Orphan", "chained", "via_table"]}
    sources = {
        "a": "def used():\n    return 1\ndef aliased():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1)\nclass Orphan:\n    pass\n"
        "def chained():\n    return 3\ndef unused():\n    return chained()\n"
        "def via_table():\n    return 4\nTABLE = {'x': via_table}\n"
        "__all__ = ['used', 'Orphan']\n",
        "b": "from .a import used, TABLE, aliased as other, recursive\n"
        "def main():\n    def inner():\n        return other()\n"
        "    return used(), inner(), TABLE\n"
        "def recursive():\n    return 0\n",  # b's own definition hides a's
    }
    # chained has a caller, but only unused calls it, and no root reaches unused
    assert uncalled_public_names(exported, sources, [("b", "main")]) == [
        ("a", "Orphan"), ("a", "chained"), ("a", "recursive"),
    ]


# where the commands start: cli's main and cmd_* functions and the verify suites
COMMAND_ROOTS = [
    (module, stmt.name)
    for module, prefix in (("cli", "main"), ("cli", "cmd_"), ("suites", "suite_"))
    for stmt in ast.parse(SOURCES[module]).body
    if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith(prefix)
]

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def traced_layers():
    """(module, name) for each function perfbench/traced.py wraps, read from
    its LAYERS literal."""
    for stmt in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["LAYERS"]:
            layers = ast.literal_eval(stmt.value)
            return {(module, name) for module, names in layers.items() for name in names}
    raise AssertionError("traced.py assigns no LAYERS")


def test_every_public_name_has_a_caller():
    # a public name is one the commands run; the demos are a tour of this
    # surface, and a demo or test alone does not make a name public.
    # __version__ is data, not code
    exported = {module.__name__.rpartition(".")[2]: module.__all__ for module in EXPORTING_MODULES}
    exported["report"] = ["build_report"]
    assert uncalled_public_names(exported, SOURCES, COMMAND_ROOTS) == []
    # a public-named function no command reaches stays only while perfbench's
    # traced.py wraps it by name (eval_cf, invariants, spin_structures,
    # gamma_filling and gamma_standard), so this set can only shrink
    reached = reached_definitions(SOURCES, COMMAND_ROOTS)
    unreached = {
        (module, stmt.name)
        for module, source in SOURCES.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        and (module, stmt.name) not in reached
    }
    assert unreached <= traced_layers(), sorted(unreached - traced_layers())


def assert_statements(source):
    """Line numbers of the ``assert`` statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_assert_statements_detected():
    source = "x = 1\nassert x, 'x'\ndef f():\n    assert x == 1\n    return 'assert'\n"
    assert assert_statements(source) == [2, 4]


def test_no_assert_statements_in_package():
    assert findings(assert_statements) == {}


ERROR_CLASSES = ("LensfillError", "TheoremViolation")


def stray_raises(source):
    """Line numbers of the ``raise`` statements in source that are neither a
    bare re-raise nor a raise of LensfillError or TheoremViolation."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in ERROR_CLASSES):
                lines.append(node.lineno)
    return sorted(lines)


def test_stray_raises_detected():
    source = (
        "try:\n    x = 1\nexcept KeyError:\n    raise\n"
        "raise LensfillError('a')\nraise TheoremViolation('b') from None\n"
        "raise ValueError('x')\nraise KeyError\nraise errors.LensfillError('c')\n"
    )
    assert stray_raises(source) == [7, 8, 9]


def test_every_raise_names_a_package_error():
    assert findings(stray_raises) == {}


# module.function -> a test, as file::name, that makes that function raise
# TheoremViolation; a raise inside a nested function or a method belongs to
# the top-level def or class that holds it
RAISE_TESTS = {
    "cfrac.dual_expansion": "test_cfrac.py::test_dual_expansion_raises_when_the_routes_disagree",
    "fillings.classify": "test_fillings.py::test_orbits_reject_a_reversal_outside_the_set",
    "fillings.uniqueness_predicate": "test_fillings.py::test_uniqueness_predicate_examples",
    "homology._dual_gammas": "test_homology.py::test_spin_rows_refuse_a_chain_that_is_not_the_dual",
    "homology._spin_structures": "test_cli.py::test_forced_failure_names_its_pair_once",
    "homology.spin_rows": "test_cli.py::test_gamma_formulas_must_agree_strictly",
    "lattice.build_string": "test_lattice.py::test_pairing_violation_names_its_filling",
    "lattice.check_filling": "test_lattice.py::test_check_filling_forced_failure",
    "lattice.complement_homology": "test_lattice.py::test_b2_violation_names_its_filling",
    "suites.suite_catalan": "test_cfrac.py::test_suite_catalan_fails_on_a_swapped_tuple",
    "suites.suite_duality": "test_cli.py::test_forced_suite_failure_names_its_counterexample",
    "suites.suite_mcduff": "test_cli.py::test_verify_all_reports_a_failed_suite_and_runs_the_rest",
    "suites.suite_rational_ball": "test_cli.py::test_rational_ball_order_must_match_the_witness",
}


def raise_table_gaps(sources, tests, table):
    """Where ``table`` and the sources part ways, as sorted (kind, name).

    ``sources`` maps module names to package source text, ``tests`` maps test
    file names to source text, and ``table`` maps ``module.function`` to
    ``file::test``.  Kinds: "unmapped" for a top-level def or class whose body
    raises TheoremViolation and has no entry, "stale" for an entry whose
    function raises none, "no test" for an entry naming a test function that
    its file does not define at top level.
    """
    raising = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "TheoremViolation":
                        raising.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
    defined = {
        f"{name}::{stmt.name}"
        for name, source in tests.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    gaps = [("unmapped", f) for f in raising - set(table)]
    gaps += [("stale", f) for f in set(table) - raising]
    gaps += [("no test", t) for t in set(table.values()) - defined]
    return sorted(gaps)


def test_raise_table_gaps_detected():
    sources = {
        "a": "def mapped():\n    raise TheoremViolation('x')\n"
        "def unmapped(x):\n    def inner():\n        raise TheoremViolation('y') from None\n"
        "    return inner\n"
        "class Holder:\n    def method(self):\n        raise TheoremViolation\n"
        "def refusal():\n    raise LensfillError('z')\n",
    }
    tests = {"test_a.py": "def test_mapped():\n    pass\ndef helper():\n    pass\n"}
    table = {
        "a.mapped": "test_a.py::test_mapped",
        "a.refusal": "test_a.py::test_refusal",
        "a.gone": "test_a.py::helper",
    }
    assert raise_table_gaps(sources, tests, table) == [
        ("no test", "test_a.py::test_refusal"),
        ("stale", "a.gone"), ("stale", "a.refusal"),
        ("unmapped", "a.Holder"), ("unmapped", "a.unmapped"),
    ]


def test_every_theorem_violation_has_a_test_that_fires_it():
    tests = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(Path(__file__).resolve().parent.glob("test_*.py"))
    }
    assert raise_table_gaps(SOURCES, tests, RAISE_TESTS) == []


def pair_naming_raises(source):
    """Line numbers of the ``raise`` statements in source whose exception
    holds a string constant containing ``L(``, plain or in an f-string.
    ``errors.naming`` is the one place that names the pair."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(
                isinstance(c, ast.Constant) and isinstance(c.value, str) and "L(" in c.value
                for c in ast.walk(node.exc)
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_pair_naming_raises_detected():
    source = (
        "raise LensfillError(f'L({p},{q}): bad')\nraise TheoremViolation('L(4,1) bad')\n"
        "raise LensfillError(f'{p}/{q} bad')\nname = f'L({p},{q})'\nraise\n"
        "raise LensfillError('L(%d,%d): bad' % (p, q))\nprint('L(4,1)')\n"
    )
    assert pair_naming_raises(source) == [1, 2, 6]


def test_only_errors_names_the_pair_in_a_raise():
    assert findings(pair_naming_raises, skip="errors") == {}


def indented_json_calls(source):
    """Line numbers of the calls in source to ``dump`` or ``dumps`` (as a
    name or an attribute) that pass ``indent=``.  With an indent the stdlib
    encodes in pure Python; ``report.render_json`` writes reports and
    ``cli._render`` every other JSON payload instead."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps"):
                lines.append(node.lineno)
    return sorted(lines)


def test_indented_json_calls_detected():
    source = (
        "import json\nfrom json import dumps\njson.dumps(x)\njson.dumps(x, indent=2)\n"
        "dumps(x, indent=None)\njson.dump(x, fh, indent=1)\nprint(x, indent=2)\n"
        "json.loads(s)\n"
    )
    assert indented_json_calls(source) == [4, 5, 6]


def test_no_indented_json_calls_in_package():
    assert findings(indented_json_calls) == {}


def test_errors_defines_exactly_two_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert tuple(node.name for node in tree.body if isinstance(node, ast.ClassDef)) == ERROR_CLASSES
    assert issubclass(errors.TheoremViolation, errors.LensfillError)


def test_package_exports_each_module_all_once():
    exported = lensfill.__all__
    assert len(exported) == len(set(exported))
    declared = {name for module in EXPORTING_MODULES for name in module.__all__}
    assert set(exported) == declared | {"build_report", "__version__"}


def test_package_exports_are_the_defining_objects():
    owner = {name: module for module in EXPORTING_MODULES for name in module.__all__}
    owner["build_report"] = report
    for name, module in owner.items():
        assert getattr(lensfill, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lensfill import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lensfill.__all__)
