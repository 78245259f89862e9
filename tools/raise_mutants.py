"""Disable each ``raise TheoremViolation`` in the package, one at a time, and
list the sites that no test notices.

    python3 tools/raise_mutants.py [pytest arguments...]

Run from anywhere; the checkout is the parent of this directory.  The
checkout (without .git and caches) is copied to a temporary directory once.
For each raise site in src/lensfill the copy gets that one statement turned
into an expression statement that builds the exception without raising it
(any ``from`` clause dropped), and ``python -m pytest -q -x`` runs in the
copy with the given arguments (none: the whole tier-1 suite), less the test
of the raise table (TABLE_TEST).  The unmutated copy runs first and must
pass, or nothing is concluded.  A site whose mutant
passes every test is a survivor: no test reaches the raise, or nothing can.
Each site is printed with the first test that failed, then the survivors;
the exit code is 1 if there is a survivor, 2 if the unmutated run fails.
A full run takes about one tier-1 run per site.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHES = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
# reads the source, not the behaviour: it fails on every mutant, since the
# mutated function no longer holds the raise its table entry expects
TABLE_TEST = "tests/test_imports.py::test_every_theorem_violation_has_a_test_that_fires_it"


def raise_sites(source):
    """(raise node, name of the top-level def or class holding it) for each
    ``raise TheoremViolation`` in source, in line order."""
    sites = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "TheoremViolation":
                    sites.append((node, getattr(stmt, "name", "<module>")))
    return sorted(sites, key=lambda site: (site[0].lineno, site[0].col_offset))


def disabled(source, node):
    """source with the raise statement node reduced to its exception
    expression; ast offsets count UTF-8 bytes, so the edit is on bytes."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(line, col):
        return starts[line - 1] + col

    exc = node.exc
    head, tail = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
    body = data[at(exc.lineno, exc.col_offset):at(exc.end_lineno, exc.end_col_offset)]
    return (data[:head] + body + data[tail:]).decode()


def run_tests(root, args):
    """(passed, first failing test or pytest's last line) for the copy at root."""
    # no bytecode cache: a mutant and the next one can match in size and mtime second
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", TABLE_TEST, *args],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.M)
    lines = res.stdout.strip().splitlines() or [f"pytest exit {res.returncode}"]
    return res.returncode == 0, failed.group(1) if failed else lines[-1]


def main(args):
    with tempfile.TemporaryDirectory(prefix="raise-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*CACHES))
        passed, detail = run_tests(copy, args)
        if not passed:
            print(f"unmutated run fails ({detail}); no conclusion")
            return 2
        survivors = []
        for path in sorted((copy / "src" / "lensfill").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            for node, function in raise_sites(source):
                site = f"{path.relative_to(copy)}:{node.lineno} {function}"
                path.write_text(disabled(source, node), encoding="utf-8")
                try:
                    passed, detail = run_tests(copy, args)
                finally:
                    path.write_text(source, encoding="utf-8")
                print(f"{site}: {'SURVIVES' if passed else 'killed by ' + detail}", flush=True)
                if passed:
                    survivors.append(site)
        print(f"{len(survivors)} survivors")
        for site in survivors:
            print(f"  {site}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
