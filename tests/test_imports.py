"""Every name a lensfill module imports is used in that module.

No linter ships with the package, so this is a stdlib AST check.  The
package ``__init__.py`` is skipped, since its imports are re-exports, and
so are ``__future__`` imports.
"""

import ast
from pathlib import Path

import lensfill

PACKAGE = Path(lensfill.__file__).parent


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
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
