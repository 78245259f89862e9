"""Named verification sweeps over the package's structural claims.

Each suite re-derives a family of facts two independent ways and compares,
returning a SuiteResult instead of raising, so the command line tool can
print counts and the first counterexample.  The test suite drives the same
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, gcd
from typing import Callable, Optional

from .cfrac import bounded_zero_cf, enumerate_zero_cf, eval_cf, reverse
from .fillings import classify, make_params, rational_ball_criterion, zset
from .errors import TheoremViolation
from .homology import rotation_numbers
from .lattice import check_filling
from .report import spin_rows

__all__ = ["SuiteResult", "SUITES", "resolve_suite"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    cases: int
    detail: str
    counterexample: Optional[str] = None


def _coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def suite_catalan(kmax: int = 12, brute_kmax: int = 7) -> SuiteResult:
    """Zero-tuple census: counts are Catalan numbers, and the generated
    sets equal brute-force filtration for small lengths."""
    cases = 0
    brute_kmax = min(brute_kmax, kmax)
    for k in range(2, kmax + 1):
        got = enumerate_zero_cf(k)
        want = _catalan(k - 1)
        cases += 1
        if len(got) != want:
            return SuiteResult(
                "catalan", False, cases, f"k={k}", f"|set| = {len(got)}, Catalan = {want}"
            )
    for k in range(2, brute_kmax + 1):
        brute = {
            t
            for t in product(range(1, k + 1), repeat=k)
            if (v := eval_cf(t)).admissible and v.value == 0
        }
        cases += 1
        if enumerate_zero_cf(k) != brute:
            return SuiteResult("catalan", False, cases, f"k={k}", "set != brute force")
    return SuiteResult(
        "catalan", True, cases, f"counts to k={kmax}, brute force to k={brute_kmax}"
    )


def suite_duality(pmax: int = 300) -> SuiteResult:
    """Reversal symmetry: the inverse-parameter lens space has the
    reversed chain and the reversed fillings."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        pr = make_params(p, q)
        prbar = make_params(p, pr.qbar)
        cases += 1
        if prbar.b != reverse(pr.b):
            return SuiteResult("duality", False, cases, f"(p,q)=({p},{q})", "chain not reversed")
        if sorted(reverse(n) for n in zset(pr)) != zset(prbar):
            return SuiteResult(
                "duality", False, cases, f"(p,q)=({p},{q})", "fillings not reversed"
            )
    return SuiteResult("duality", True, cases, f"all pairs with p <= {pmax}")


def suite_gamma(pmax: int = 100) -> SuiteResult:
    """The two plane-field invariant formulas agree exactly on every spin
    structure; the report's spin section raises where they differ."""
    cases = pairs = 0
    for p, q in _coprime_pairs(pmax):
        try:
            cases += len(spin_rows(make_params(p, q)))
        except TheoremViolation as exc:
            return SuiteResult("gamma", False, cases, f"(p,q)=({p},{q})", str(exc))
        pairs += 1
    # "negated for 0" keeps the published detail format: no pair may pass with
    # the formulas of opposite sign
    return SuiteResult(
        "gamma", True, cases, f"p <= {pmax}; convention: direct for {pairs} pairs, negated for 0"
    )


def suite_rotation(kmax: int = 10) -> SuiteResult:
    """Terminal relation of the rotation recursion on every zero tuple of
    length 2..kmax."""
    cases = 0
    for k in range(2, kmax + 1):
        for n in bounded_zero_cf((k - 1,) * k):  # lexicographic, like zeroseq
            try:
                rotation_numbers(n)
            except Exception as exc:  # TerminalRelationViolated or worse
                return SuiteResult("rotation", False, cases, f"k={k}", f"{n}: {exc}")
            cases += 1
    return SuiteResult("rotation", True, cases, f"all zero tuples with k <= {kmax}")


def suite_lattice(pmax: int = 60) -> SuiteResult:
    """Geometric cross-checks: class shapes, exceptional-set nesting,
    complement homology, count recovery, and minimality."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        pr = make_params(p, q)
        for n in zset(pr):
            try:
                check_filling(pr.b, n)
            except Exception as exc:
                return SuiteResult("lattice", False, cases, f"(p,q)=({p},{q}), n={n}", str(exc))
            cases += 1
    return SuiteResult("lattice", True, cases, f"all fillings with p <= {pmax}")


def suite_mcduff(pmax: int = 100) -> SuiteResult:
    """Classification counts for L(p, 1): one class except two at p = 4."""
    cases = 0
    for p in range(2, pmax + 1):
        got = len(classify(make_params(p, 1)))
        want = 2 if p == 4 else 1
        cases += 1
        if got != want:
            return SuiteResult(
                "mcduff", False, cases, f"p={p}", f"{got} classes, expected {want}"
            )
    return SuiteResult("mcduff", True, cases, f"L(p,1) for p <= {pmax}")


def suite_rational_ball(pmax: int = 500) -> SuiteResult:
    """A filling with b2 = 0 exists iff (p, q) = (m^2, m h - 1) with m, h
    coprime; the witness pairs are enumerated independently."""
    expected = set()
    m = 2
    while m * m <= pmax:
        for h in range(1, m + 1):
            q = m * h - 1
            if 1 <= q < m * m and gcd(m, h) == 1:
                expected.add((m * m, q))
        m += 1
    cases = 0
    found = set()
    for p, q in _coprime_pairs(pmax):
        pr = make_params(p, q)
        has_ball = any(sum(pr.b) - sum(n) == 1 for n in zset(pr))
        witness = rational_ball_criterion(p, q)
        cases += 1
        if has_ball != (witness is not None):
            return SuiteResult(
                "rational-ball",
                False,
                cases,
                f"(p,q)=({p},{q})",
                f"b2=0 filling: {has_ball}, witness: {witness}",
            )
        if has_ball:
            found.add((p, q))
    if found != expected:
        diff = sorted(found ^ expected)[:5]
        return SuiteResult(
            "rational-ball", False, cases, "pair census", f"symmetric difference {diff}"
        )
    return SuiteResult(
        "rational-ball", True, cases, f"p <= {pmax}; {len(found)} rational-ball pairs"
    )


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "catalan": suite_catalan,
    "duality": suite_duality,
    "gamma": suite_gamma,
    "rotation": suite_rotation,
    "lattice": suite_lattice,
    "mcduff": suite_mcduff,
    "rational-ball": suite_rational_ball,
}

_ALIASES = {"corollary-c": "rational-ball"}


def resolve_suite(name: str) -> Callable[..., SuiteResult]:
    return SUITES[_ALIASES.get(name, name)]
