"""Self-tests of the benchmark harness, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  They show that a tampered output, a
non-zero exit and a timeout each count as a failed command, that every
output check catches a tampered output on its own (with the digest check
satisfied), and that the traced run writes the same bytes as the untraced
one and prints nothing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference as ref
import run
from run import BENCH, Command, Runner

ROOT = BENCH.parent
SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())


def _edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _drop_last_filling(path):
    lines = path.read_text().splitlines(keepends=True)
    last = max(i for i, ln in enumerate(lines) if ln.startswith("    ["))
    path.write_text("".join(lines[:last] + lines[last + 1:]))


def _duplicate_first_tuple(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1] + [lines[1]]))


def _bump_si_count(data):
    data["fillings"][0]["si_counts"][0] += 1


def _flip_ball_flag(data):
    report = next(r for r in data if (r["p"], r["q"]) == (4, 1))
    report["flags"]["rational_ball"] = not report["flags"]["rational_ball"]


# tiny command, and a tampering that keeps the file well-formed
CASES = {
    "deep": (run.deep_command((3, 4, 3, 4, 3)), _drop_last_filling),
    "lattice": (run.lattice_command((3, 4, 3, 4)), lambda p: _edit_json(p, _bump_si_count)),
    "census": (Command(["sweep", "12", "--json"], lambda p: ref.check_census(p, 12, SCHEMA, 0)),
               lambda p: _edit_json(p, _flip_ball_flag)),
    "catalan": (Command(["zeroseq", "6"], lambda p: ref.check_catalan(p, 6)),
                _duplicate_first_tuple),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class HarnessTest(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest", dir=ROOT / ".perfbench"))
        self.addCleanup(shutil.rmtree, self.workdir, True)
        self.runner = Runner(ROOT, self.workdir, {})

    def record(self, cmd):
        code, _, _, out, _ = self.runner.spawn(cmd.argv)
        self.assertEqual(code, 0)
        self.runner.digests[" ".join(cmd.argv)] = sha256(out)
        return out

    def test_clean_outputs_pass(self):
        for name, (cmd, _) in CASES.items():
            with self.subTest(name):
                self.record(cmd)
                attempt = self.runner.attempt(cmd)
                self.assertTrue(attempt.ok)
                self.assertGreater(attempt.tuples, 0)
        self.assertEqual((self.runner.attempted, self.runner.failed), (len(CASES), 0))

    def test_tampered_output_fails_every_check(self):
        for name, (cmd, tamper) in CASES.items():
            with self.subTest(name):
                out = self.record(cmd)
                tamper(out)
                _, problems = self.runner.verify(cmd, 0, out)
                self.assertTrue(any(p.startswith("sha256") for p in problems), problems)
                # with the digest made to match, the independent check alone must object
                self.runner.digests[" ".join(cmd.argv)] = sha256(out)
                _, problems = self.runner.verify(cmd, 0, out)
                self.assertTrue(problems)
                self.assertFalse(any(p.startswith("sha256") for p in problems), problems)

    def test_change_no_check_reads_fails_the_digest(self):
        cmd = CASES["deep"][0]
        out = self.record(cmd)
        out.write_text(out.read_text().replace("meridian scale", "meridian-scale"))
        _, problems = self.runner.verify(cmd, 0, out)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("sha256"))

    def test_nonzero_exit_counts_as_failure(self):
        attempt = self.runner.attempt(Command(["fillings", "6", "4"], lambda p: (1, [])))
        self.assertFalse(attempt.ok)
        self.assertEqual((self.runner.attempted, self.runner.failed), (1, 1))

    def test_timeout_counts_as_failure(self):
        saved = run.COMMAND_TIMEOUT_S
        run.COMMAND_TIMEOUT_S = 0.2
        try:
            attempt = self.runner.attempt(
                Command(["zeroseq", "12"], lambda p: ref.check_catalan(p, 12)))
        finally:
            run.COMMAND_TIMEOUT_S = saved
        self.assertFalse(attempt.ok)
        self.assertLess(attempt.wall_s, 5)
        self.assertEqual(self.runner.failed, 1)

    def test_traced_output_is_identical_and_stdout_is_empty(self):
        for name, (cmd, _) in CASES.items():
            with self.subTest(name):
                out = self.record(cmd)
                trace = self.workdir / "trace.json"
                traced_out = self.workdir / "traced.out"
                res = subprocess.run(
                    [sys.executable, str(run.TRACED), str(trace), *cmd.argv, "--out", str(traced_out)],
                    cwd=ROOT, env=self.runner.env, capture_output=True)
                self.assertEqual(res.returncode, 0, res.stderr)
                self.assertEqual(res.stdout, b"")
                self.assertEqual(sha256(traced_out), sha256(out))
                spans = json.loads(trace.read_text())
                self.assertEqual(spans["cli.main"]["calls"], 1)
                self.assertGreaterEqual(spans["cli.main"]["total_s"], spans["cli.main"]["self_s"])


if __name__ == "__main__":
    unittest.main()
