"""Pinned command line output: stdout, stderr and exit code per invocation.

Each case runs ``cli.main`` in-process and compares with the file
``golden/<name>.json``, which stores the argument list, the exit code and
the two streams as lists of lines.  A change that only restructures code
must reproduce them byte for byte.

    python tests/test_golden.py

writes the file of every case that has none yet and never overwrites an
existing one, so a change that is meant to alter output has to delete the
affected files explicitly.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

if __name__ == "__main__":
    # pytest puts src/ on the path from pyproject.toml; a script run does it here
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lensfill import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# argparse wraps usage lines to the terminal width, which it reads from COLUMNS
COLUMNS = "80"

CASES = {
    "expand-9-2": ["expand", "9", "2"],
    "expand-9-2-json": ["expand", "9", "2", "--json"],
    "expand-24-5-json": ["expand", "24", "5", "--json"],
    "zeroseq-1": ["zeroseq", "1"],
    "zeroseq-1-json": ["zeroseq", "1", "--json"],
    "zeroseq-5": ["zeroseq", "5"],
    "zeroseq-5-json": ["zeroseq", "5", "--json"],
    "zeroseq-0": ["zeroseq", "0"],
    "zeroseq-16": ["zeroseq", "16"],
    "fillings-4-1": ["fillings", "4", "1"],
    "fillings-13-5": ["fillings", "13", "5"],
    "fillings-9-2-json": ["fillings", "9", "2", "--json"],
    "fillings-9-2-csv": ["fillings", "9", "2", "--csv"],
    "fillings-9-2-json-csv": ["fillings", "9", "2", "--json", "--csv"],
    "fillings-6-4": ["fillings", "6", "4"],
    "fillings-missing-q": ["fillings", "9"],
    "classify-8-3": ["classify", "8", "3"],
    "classify-8-3-json": ["classify", "8", "3", "--json"],
    "classify-30-7": ["classify", "30", "7"],
    "gamma-4-1": ["gamma", "4", "1"],
    "gamma-4-1-json": ["gamma", "4", "1", "--json"],
    "gamma-9-2": ["gamma", "9", "2"],
    "rot-9-2": ["rot", "9", "2"],
    "rot-9-2-json": ["rot", "9", "2", "--json"],
    "rot-21-8": ["rot", "21", "8"],
    "rot-21-8-json": ["rot", "21", "8", "--json"],
    "lattice-check-9-2": ["lattice-check", "9", "2"],
    "lattice-check-9-2-json": ["lattice-check", "9", "2", "--json"],
    "lattice-check-30-7": ["lattice-check", "30", "7"],
    "sweep-12": ["sweep", "12"],
    "sweep-6-json": ["sweep", "6", "--json"],
    "sweep-12-csv": ["sweep", "12", "--csv"],
    "sweep-30-rational-ball": ["sweep", "30", "--rational-ball"],
    "sweep-20-rational-ball-csv": ["sweep", "20", "--rational-ball", "--csv"],
    "sweep-40-unique": ["sweep", "40", "--unique"],
    "sweep-pmax-10-min-fillings-2": ["sweep", "--pmax", "10", "--min-fillings", "2"],
    "sweep-pmax-10-min-fillings-3": ["sweep", "--pmax", "10", "--min-fillings", "3"],
    "sweep-25-unique-rational-ball-json": ["sweep", "25", "--unique", "--rational-ball", "--json"],
    "sweep-4-unique-json": ["sweep", "4", "--unique", "--json"],
    "sweep-1": ["sweep", "1"],
    "sweep-no-bound": ["sweep"],
    "sweep-5-pmax-3": ["sweep", "5", "--pmax", "3"],
    "verify-catalan": ["verify", "catalan", "--kmax", "6"],
    "verify-duality": ["verify", "duality", "--pmax", "20"],
    "verify-gamma": ["verify", "gamma", "--pmax", "30"],
    "verify-rotation": ["verify", "rotation", "--kmax", "6"],
    "verify-lattice": ["verify", "lattice", "--pmax", "12", "--kmax", "5"],
    "verify-mcduff": ["verify", "mcduff", "--pmax", "20"],
    "verify-rational-ball": ["verify", "rational-ball", "--pmax", "50"],
    "verify-corollary-c": ["verify", "corollary-c", "--pmax", "40"],
    "verify-all": ["verify", "all", "--pmax", "12", "--kmax", "5"],
    "verify-nosuchsuite": ["verify", "nosuchsuite"],
    "verify-catalan-kmax-16": ["verify", "catalan", "--kmax", "16"],
    "no-command": [],
}


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == CASES[name]
    code = cli.main(list(CASES[name]))
    out, err = capsys.readouterr()
    assert out == "".join(want["stdout"])
    assert err == "".join(want["stderr"])
    assert code == want["exit"]


def record():
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN / f"{name}.json"
        if path.exists():
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        payload = {
            "argv": argv,
            "exit": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True),
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {path.name}", file=sys.stderr)


if __name__ == "__main__":
    record()
