"""End-to-end benchmark of the lensfill command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of the workload runs as a
fresh `python -m lensfill ... --out FILE` process, one at a time (a closed
loop with a single client), with LENS_THREADS unset.  A round is one pass
over the workload's commands; a new round starts only while a round of
average length still fits in S seconds.
Every output is checked (exit code, sha256 against the digest recorded in
inputs.json, and the independent checks in reference.py); a command that
fails any of them counts in `failed`.

--trace 0 reports tuples_per_s (upper quartile over rounds), peak_rss_mb (largest
per-process peak RSS) and setup_s (median import-and-parser time of fresh
interpreters started between the rounds).  --trace 1 runs every command
untraced and under traced.py, and reports per-layer totals per round.  The last
line of stdout is the JSON result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference as ref

BENCH = Path(__file__).resolve().parent
TRACED = BENCH / "traced.py"
COMMAND_TIMEOUT_S = 25  # about 3x the slowest traced command; keeps a hung run under 180 s
SETUP_PROBES_PER_ROUND = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import lensfill.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Path], tuple[int, list[str]]]


@dataclass
class Attempt:
    wall_s: float
    rss_kb: int
    tuples: int
    ok: bool
    trace: dict | None = None


def pick(pools, seed, default_seed):
    """One chain per slot: the first of each pool for the default seed,
    otherwise a seeded draw."""
    if seed == default_seed:
        return [pool[0] for pool in pools]
    rng = random.Random(seed)
    return [rng.choice(pool) for pool in pools]


def deep_command(b) -> Command:
    p, q = ref.chain_pair(b)
    return Command(["fillings", str(p), str(q)], lambda path: ref.check_deep(path, b))


def lattice_command(b) -> Command:
    p, q = ref.chain_pair(b)
    return Command(["lattice-check", str(p), str(q), "--json"],
                   lambda path: ref.check_lattice(path, b))


def census_command(root: Path, seed: int) -> Command:
    schema = json.loads((root / "schema" / "report.schema.json").read_text())
    return Command(["sweep", "200", "--json"],
                   lambda path: ref.check_census(path, 200, schema, seed))


def catalan_command() -> Command:
    return Command(["zeroseq", "13"], lambda path: ref.check_catalan(path, 13))


def workload_commands(name, seed, root, inputs) -> list[Command]:
    if name == "census":
        return [census_command(root, seed)]
    if name == "deep":
        return [deep_command(b) for b in pick(inputs["deep"], seed, inputs["default_seed"])]
    if name == "lattice":
        return [lattice_command(b) for b in pick(inputs["lattice"], seed, inputs["default_seed"])]
    if name == "catalan":
        return [catalan_command()]
    raise ValueError(f"unknown workload {name!r}")


class Runner:
    """Spawns lensfill processes in a scratch directory and checks outputs."""

    def __init__(self, root: Path, workdir: Path, digests: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.digests = digests
        self.env = dict(os.environ)
        self.env.pop("LENS_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[tuple[str, str], tuple[int, list[str]]] = {}
        self._serial = 0

    def spawn(self, argv, traced=False):
        """Run one command; returns (exit code or None on timeout, wall
        seconds, peak RSS in KiB, output path, trace path)."""
        self._serial += 1
        out = self.workdir / f"out{self._serial}"
        trace = self.workdir / f"trace{self._serial}.json" if traced else None
        prefix = [sys.executable, str(TRACED), str(trace)] if traced else [sys.executable, "-m", "lensfill"]
        with open(self.workdir / "stderr.txt", "w", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen([*prefix, *argv, "--out", str(out)], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            expired = threading.Event()

            def expire():
                expired.set()
                os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(COMMAND_TIMEOUT_S, expire)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = perf_counter() - start
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if expired.is_set() else proc.returncode
        return code, wall, usage.ru_maxrss, out, trace

    def verify(self, cmd: Command, code, out: Path) -> tuple[int, list[str]]:
        """Tuples in the output and the problems found; no problems means correct."""
        if code is None:
            return 0, [f"timed out after {COMMAND_TIMEOUT_S} s"]
        if code != 0:
            return 0, [f"exit code {code}"]
        key = " ".join(cmd.argv)
        try:
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
        except OSError as exc:
            return 0, [f"output unreadable: {exc}"]
        problems = [] if self.digests.get(key) == digest else [
            f"sha256 {digest[:12]} differs from the recorded {str(self.digests.get(key))[:12]}"]
        if (key, digest) not in self._verdicts:  # equal bytes give equal verdicts
            try:
                self._verdicts[key, digest] = cmd.check(out)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self._verdicts[key, digest] = (0, [f"output unparseable: {exc!r}"])
        tuples, found = self._verdicts[key, digest]
        return tuples, problems + found

    def attempt(self, cmd: Command, traced=False) -> Attempt:
        code, wall, rss_kb, out, trace_path = self.spawn(cmd.argv, traced)
        tuples, problems = self.verify(cmd, code, out)
        self.attempted += 1
        trace = None
        if trace_path is not None:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"trace file unreadable: {exc}")
        if problems:
            self.failed += 1
            tail = (self.workdir / "stderr.txt").read_text()[-400:]
            print(f"FAIL {' '.join(cmd.argv)}{' (traced)' if traced else ''}: "
                  f"{'; '.join(problems)}\n{tail}", file=sys.stderr)
        for path in (out, trace_path):
            if path is not None and path.exists():
                path.unlink()
        return Attempt(wall, rss_kb, tuples if not problems else 0, not problems, trace)

    def setup_probe(self) -> float | None:
        """Seconds a fresh interpreter takes to import lensfill.cli and
        build the parser, measured inside that process; None if it fails."""
        self.attempted += 1
        try:
            res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.root, env=self.env,
                                 capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            if res.returncode == 0:
                return float(res.stdout)
            problem = res.stderr[-400:]
        except subprocess.TimeoutExpired:
            problem = f"timed out after {COMMAND_TIMEOUT_S} s"
        self.failed += 1
        print(f"FAIL setup probe: {problem}", file=sys.stderr)
        return None


# Per-layer metrics: name -> (unit, function of the per-round span totals).
def _self(*names):
    return lambda s: sum(s.get(n, {}).get("self_s", 0.0) for n in names)


def _field(name, key):
    return lambda s: s.get(name, {}).get(key, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


LAYER_METRICS = {
    "cfrac.bounded_zero_cf.self_s": ("s", _self("cfrac.bounded_zero_cf")),
    "cfrac.bounded_zero_cf.calls": ("count", _field("cfrac.bounded_zero_cf", "calls")),
    "cfrac.bounded_zero_cf.tuples": ("count", _field("cfrac.bounded_zero_cf", "tuples")),
    "cfrac.bounded_zero_cf.calls_per_report": ("ratio", _ratio(
        _field("cfrac.bounded_zero_cf", "calls"), _field("report.build_report", "calls"))),
    "cfrac.enumerate_zero_cf.self_s": ("s", _self("cfrac.enumerate_zero_cf")),
    "cfrac.eval_cf.calls": ("count", _field("cfrac.eval_cf", "calls")),
    "fillings.make_params.self_s": ("s", _self("fillings.make_params")),
    "fillings.classify.self_s": ("s", _self("fillings.classify")),
    "fillings.invariants.self_s": ("s", _self("fillings.invariants")),
    "fillings.invariants.calls_per_filling": ("ratio", _ratio(
        _field("fillings.invariants", "calls"), _field("report.build_report", "fillings"))),
    "fillings.uniqueness_predicate.self_s": ("s", _self("fillings.uniqueness_predicate")),
    "homology.spin_gamma.self_s": ("s", _self(
        "homology.spin_structures", "homology.gamma_filling", "homology.gamma_standard",
        "homology.mu_basis")),
    "homology.mu_basis.calls_per_spin": ("ratio", _ratio(
        _field("homology.mu_basis", "calls"), _field("homology.spin_structures", "spins"))),
    "homology.rotation_numbers.self_s": ("s", _self("homology.rotation_numbers")),
    "lattice.build_string.self_s": ("s", _self("lattice.build_string")),
    "lattice.validate.self_s": ("s", _self(
        "lattice.validate_hom_classes", "lattice.validate_string_lemma")),
    "lattice.complement_homology.self_s": ("s", _self("lattice.complement_homology")),
    "lattice.minimal_si_counts.self_s": ("s", _self("lattice.minimal_si_counts")),
    "lattice.orthogonal_minus_one_classes.self_s": ("s", _self(
        "lattice.orthogonal_minus_one_classes")),
    "lattice.m_total": ("count", _field("lattice.build_string", "m_total")),
    "exact.smith_diagonal.self_s": ("s", _self("exact.smith_diagonal")),
    "exact.smith_diagonal.cells": ("count", _field("exact.smith_diagonal", "cells")),
    "report.build_report.self_s": ("s", _self("report.build_report")),
    "render.self_s": ("s", _self("report.render_table", "report.render_csv", "cli._dump_json")),
    "render.bytes": ("bytes", lambda s: sum(
        s.get(n, {}).get("bytes", 0)
        for n in ("report.render_table", "report.render_csv", "cli._dump_json"))),
    "cli.self_s": ("s", _self("cli.main")),
}


def upper_quartile(xs):
    """The 75th percentile, interpolated within the data.

    Throughput is taken here rather than at the median because other
    tenants' load on a shared host only ever slows a round down, in bursts
    that can cover half a run; the faster rounds are the ones that measure
    the program."""
    return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]


def merge(totals: dict, trace: dict) -> None:
    for name, rec in trace.items():
        into = totals.setdefault(name, {})
        for key, value in rec.items():
            into[key] = into.get(key, 0) + value


def run(args, root: Path) -> dict:
    inputs = json.loads((BENCH / "inputs.json").read_text())
    commands = workload_commands(args.workload, args.seed, root, inputs)
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run", dir=root / ".perfbench"))
    try:
        runner = Runner(root, workdir, inputs["digests"])
        if not args.trace:
            runner.setup_probe()  # compiles the bytecode; not counted
        setup = []
        rounds = []
        start = perf_counter()
        # start a round only if a round of average length still fits
        while not rounds or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
            plain, traced = [], []
            # with tracing, alternate which run goes first so neither always follows the other
            modes = ([False, True] if len(rounds) % 2 == 0 else [True, False]) if args.trace else [False]
            for cmd in commands:
                for use_trace in modes:
                    (traced if use_trace else plain).append(runner.attempt(cmd, traced=use_trace))
            rounds.append((plain, traced))
            if not args.trace:  # spread over the run, like the rounds
                setup += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
            print(f"round {len(rounds)}: {sum(a.wall_s for a in plain):.3f} s untraced"
                  + (f", {sum(a.wall_s for a in traced):.3f} s traced" if args.trace else ""),
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        totals: dict = {}
        for _, traced in rounds:
            for a in traced:
                merge(totals, a.trace or {})
        n = len(rounds)
        per_round = {name: {k: v / n for k, v in rec.items()} for name, rec in totals.items()}
        metrics = {name: {"value": fn(per_round), "unit": unit}
                   for name, (unit, fn) in LAYER_METRICS.items()}
        plain_wall = sum(a.wall_s for plain, _ in rounds for a in plain)
        traced_wall = sum(a.wall_s for _, traced in rounds for a in traced)
        metrics["trace.wall_s"] = {"value": traced_wall / n, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    else:
        rates = [sum(a.tuples for a in plain) / sum(a.wall_s for a in plain) for plain, _ in rounds]
        setup = [x for x in setup if x is not None]
        metrics = {
            "tuples_per_s": {"value": upper_quartile(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": max(a.rss_kb for plain, _ in rounds for a in plain) / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup) if setup else None, "unit": "s"},
        }
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["census", "deep", "lattice", "catalan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = BENCH.parent
    missing = [p for p in ("src/lensfill/cli.py", "schema/report.schema.json")
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: {root} is not a lensfill checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
