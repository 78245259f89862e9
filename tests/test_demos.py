import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=REPO, timeout=120
    )
    assert res.returncode == 0, res.stderr


README_EXAMPLES = [
    line[len("$ lensfill "):].split()
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("$ lensfill ")
]


def test_readme_examples_cover_every_subcommand():
    from lensfill.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert {argv[0] for argv in README_EXAMPLES} == set(sub.choices)


@pytest.mark.parametrize("argv", README_EXAMPLES, ids="-".join)
def test_readme_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    from lensfill.cli import main

    monkeypatch.chdir(tmp_path)  # an --out example writes here
    assert main(argv) == 0, capsys.readouterr().err
