"""Rebuild perfbench/inputs.json: the seeded chain pools and output digests.

    python3 perfbench/record.py

Run from the root of a checkout whose output is the reference (byte-identical
output is part of lensfill's contract, so the digests only change when
inputs.json does).  Each pool starts with the default chain of its slot.
Other members are perturbations of it with entries in 3..7 whose filling
count and work size are both within 5% of the default's, so that a seed
changes the inputs but not the amount of work.  Work size is the number of
nodes a forced-tail depth-first search visits for `deep`, and the sum of
M^2 over the fillings for `lattice`, M being the number of exceptional
classes of the lattice configuration.  Every recorded output must first
pass the independent checks.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import reference as ref
from run import BENCH, Runner, catalan_command, census_command, deep_command, lattice_command

DEFAULTS = {
    "deep": [(7,) * 9, (5,) * 10, (3, 4, 5, 6, 7) * 2],
    "lattice": [(6,) * 8, (4,) * 9],
}
POOL_SIZE = 8
TOLERANCE = 0.05
MAX_TRIALS = 300
MAX_COSTED = 40


def search_nodes(b) -> int:
    """Nodes of the depth-first search that fixes n_1, n_2, ... in turn,
    each within the range the forced tail value allows."""
    k, count = len(b), 0
    stack = [(1, 0, 1)]
    while stack:
        i, num, den = stack.pop()
        count += 1
        if i < k:
            stack.extend((i + 1, den, v * den - num) for v in range(num // den + 1, b[i - 1] + 1))
    return count


def lattice_work(b) -> int:
    k = len(b)
    return sum((k - 1 + sum(x - y for x, y in zip(b, n))) ** 2 for n in ref.bounded(b))


def pool(default, cost, rng) -> list[tuple[int, ...]]:
    fillings, work = len(ref.bounded(default)), cost(default)
    out, seen, costed = [default], {default}, 0
    for _ in range(MAX_TRIALS):
        if len(out) == POOL_SIZE or costed == MAX_COSTED:
            break
        b = tuple(min(7, max(3, x + rng.choice((-2, -1, 1, 2)))) if rng.random() < 0.3 else x
                  for x in default)
        if b in seen:
            continue
        seen.add(b)
        if abs(len(ref.bounded(b)) / fillings - 1) > TOLERANCE:
            continue
        costed += 1
        if abs(cost(b) / work - 1) <= TOLERANCE:
            out.append(b)
    return out


def main() -> int:
    root = BENCH.parent
    rng = random.Random(312354)
    inputs = {
        "default_seed": 0,
        "deep": [pool(b, search_nodes, rng) for b in DEFAULTS["deep"]],
        "lattice": [pool(b, lattice_work, rng) for b in DEFAULTS["lattice"]],
        "digests": {},
    }
    for key in ("deep", "lattice"):
        print(key, [len(p) for p in inputs[key]], file=sys.stderr)
    commands = [deep_command(b) for slot in inputs["deep"] for b in slot]
    commands += [lattice_command(b) for slot in inputs["lattice"] for b in slot]
    commands += [census_command(root, inputs["default_seed"]), catalan_command()]
    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record", dir=root / ".perfbench"))
    try:
        runner = Runner(root, workdir, {})
        for cmd in commands:
            code, _, _, out, _ = runner.spawn(cmd.argv)
            tuples, problems = runner.verify(cmd, code, out)
            problems = [p for p in problems if not p.startswith("sha256")]
            if problems:
                print(f"{' '.join(cmd.argv)}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            inputs["digests"][" ".join(cmd.argv)] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{' '.join(cmd.argv)}: {tuples} tuples", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
