"""Independent reference arithmetic and output checks for the benchmark.

Nothing here imports lensfill.  The zero tuples come from the closure of
(0) under strict blowups, evaluated with a continuant recursion written
for this file, so a bug in lensfill's bounded search or in its evaluator
cannot hide itself.  Each check_* function reads one output file and
returns (tuples, problems): the number of tuples the output holds and a
list of human-readable failures, empty when the output is correct.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache
from math import comb, gcd


def continuant(t) -> int:
    """K(t_1..t_k) for the minus-sign continued fraction; K() = 1."""
    prev2, prev = 0, 1
    for x in t:
        prev2, prev = prev, x * prev - prev2
    return prev


def is_zero_tuple(t) -> bool:
    """Whether [t_1, ..., t_k] is admissible (every tail denominator is
    positive) and evaluates to 0."""
    num, den = 1, 0  # K(t_{i..k}), K(t_{i+1..k}) while walking bottom up
    for i in range(len(t) - 1, 0, -1):
        num, den = t[i] * num - den, num
        if num <= 0:
            return False
    return t[0] * num - den == 0 if t else False


def chain_pair(b) -> tuple[int, int]:
    """The pair (p, q) with p/(p-q) = [b_1, ..., b_k]."""
    p = continuant(b)
    return p, p - continuant(b[1:])


@lru_cache(maxsize=None)
def zero_tuples(k: int) -> frozenset:
    """All admissible zero tuples of length k, as the closure of (0) under
    strict blowups (insert a 1 at position s >= 2, bump its neighbours)."""
    level = {(0,)}
    for j in range(1, k):
        nxt = set()
        for t in level:
            for s in range(1, j + 1):  # 0-based insertion index, never 0
                u = list(t[:s]) + [1] + list(t[s:])
                u[s - 1] += 1
                if s < j:
                    u[s + 1] += 1
                nxt.add(tuple(u))
        level = nxt
    return frozenset(level)


def bounded(b) -> list[tuple[int, ...]]:
    """Zero tuples n with n_i <= b_i, in lexicographic order."""
    return sorted(n for n in zero_tuples(len(b)) if all(x <= y for x, y in zip(n, b)))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def rational_ball_witnesses(pmax: int) -> dict[tuple[int, int], list[int]]:
    """(p, q) -> [m, h] for p = m^2, q = mh - 1, gcd(m, h) = 1, q < p,
    built upward from (m, h) rather than by testing each pair."""
    out = {}
    m = 2
    while m * m <= pmax:
        for h in range(1, m + 1):
            q = m * h - 1
            if gcd(m, h) == 1 and 1 <= q < m * m:
                out[(m * m, q)] = [m, h]
        m += 1
    return out


def _tuple_text(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def check_deep(path, b) -> tuple[int, list[str]]:
    """Table output of `fillings p q` for the chain b."""
    problems = []
    p, q = chain_pair(b)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(f"L({p},{q})"):
        problems.append(f"header does not name L({p},{q})")
    if len(lines) < 2 or f"p/(p-q) = {_tuple_text(b)}" not in lines[1]:
        problems.append(f"chain line does not show {_tuple_text(b)}")
    rows = [re.match(r"    \[(\d+)\] n=\(([\d,]+)\) chi=(\d+) b2=(\d+) handles=\(([\d,]+)\)", ln)
            for ln in lines]
    rows = [r for r in rows if r]
    z = [tuple(map(int, r.group(2).split(","))) for r in rows]
    want = bounded(b)
    if z != want:
        problems.append(f"z_set has {len(z)} tuples, the bounded filter has {len(want)}")
    if f"  fillings ({len(want)}):" not in lines:
        problems.append(f"no 'fillings ({len(want)}):' line")
    for r, n in zip(rows, z):
        handles = tuple(map(int, r.group(5).split(",")))
        chi = int(r.group(3))
        if handles != tuple(x - y for x, y in zip(b, n)) or chi != sum(handles) or int(r.group(4)) != chi - 1:
            problems.append(f"row {r.group(1)} has wrong handles, chi or b2")
            break
    return len(z), problems


def check_lattice(path, b) -> tuple[int, list[str]]:
    """JSON output of `lattice-check p q --json` for the chain b."""
    problems = []
    p, q = chain_pair(b)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if (data.get("p"), data.get("q")) != (p, q):
        problems.append(f"payload names ({data.get('p')}, {data.get('q')}), expected ({p}, {q})")
    rows = data.get("fillings", [])
    if [tuple(r["n"]) for r in rows] != bounded(b):
        problems.append("the rows' n are not the bounded filter of the reference set")
    k = len(b)
    for r in rows:
        handles = [x - y for x, y in zip(b, r["n"])]
        if not (r["minimal"] is True and r["hom_classes"] is True and r["string_lemma"] is True):
            problems.append(f"n={r['n']}: a validation flag is not true")
        elif r["si_counts"] != handles or r["b2"] != sum(handles) - 1:
            problems.append(f"n={r['n']}: si_counts or b2 disagree with b - n")
        elif r["m_total"] != k - 1 + sum(handles):
            problems.append(f"n={r['n']}: M = {r['m_total']}, expected {k - 1 + sum(handles)}")
        else:
            continue
        break
    return len(rows), problems


def check_catalan(path, k) -> tuple[int, list[str]]:
    """Text output of `zeroseq k`."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    want = catalan(k - 1)
    if not lines or lines[0] != f"# {want} zero tuples of length {k}":
        problems.append(f"header is not '# {want} zero tuples of length {k}'")
    tuples = [tuple(map(int, ln.split())) for ln in lines[1:]]
    if len(tuples) != want:
        problems.append(f"{len(tuples)} tuples, Catalan({k - 1}) = {want}")
    if any(a >= c for a, c in zip(tuples, tuples[1:])):
        problems.append("tuples are not strictly increasing (sorted and distinct)")
    bad = next((t for t in tuples if len(t) != k or not is_zero_tuple(t)), None)
    if bad is not None:
        problems.append(f"{bad} is not an admissible zero tuple of length {k}")
    return len(tuples), problems


def check_census(path, pmax, schema, seed, sample=40) -> tuple[int, list[str]]:
    """JSON output of `sweep pmax --json`.

    Every report: the pair list, the chain, the z_set members and the
    rational-ball flags.  A seeded sample: schema validity and, for short
    chains, z_set equal to the bounded filter of the reference set.
    """
    import jsonschema

    problems = []
    with open(path, encoding="utf-8") as fh:
        reports = json.load(fh)
    pairs = [(p, q) for p in range(2, pmax + 1) for q in range(1, p) if gcd(p, q) == 1]
    got = [(r["p"], r["q"]) for r in reports]
    if got != pairs:
        problems.append(f"{len(got)} reports, expected one per coprime pair ({len(pairs)})")
    balls = rational_ball_witnesses(pmax)
    tuples = 0
    for r in reports:
        key = (r["p"], r["q"])
        b, zs = r["b"], [tuple(n) for n in r["z_set"]]
        tuples += len(zs)
        fl = r["flags"]
        if chain_pair(b) != key:
            problems.append(f"L{key}: chain {b} presents {chain_pair(b)}")
        elif fl["rational_ball"] != (key in balls) or fl["rational_ball_witness"] != balls.get(key):
            problems.append(f"L{key}: rational-ball flags disagree with the (m^2, mh-1) census")
        elif zs != sorted(set(zs)) or len(r["fillings"]) != len(zs):
            problems.append(f"L{key}: z_set is not sorted and distinct, or fillings differ")
        elif any(len(n) != len(b) or any(x > y for x, y in zip(n, b)) or not is_zero_tuple(n)
                 for n in zs):
            problems.append(f"L{key}: a z_set member is not a bounded zero tuple")
        else:
            continue
        break
    rng = random.Random(seed)
    for r in rng.sample(reports, min(sample, len(reports))):
        try:
            jsonschema.validate(r, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"L({r['p']},{r['q']}) fails the schema: {exc.message}")
            break
        if len(r["b"]) <= 10 and [tuple(n) for n in r["z_set"]] != bounded(r["b"]):
            problems.append(f"L({r['p']},{r['q']}): z_set is not the bounded filter")
            break
    return tuples, problems
