"""Named verification sweeps over the package's structural claims.

Each suite re-derives a family of facts two independent ways and compares,
returning a SuiteResult instead of raising, so the command line tool can
print counts and the first counterexample.  The test suite drives the same
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Callable, Optional

from .cfrac import bounded_zero_cf, enumerate_zero_cf, reverse
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


def _triangulation_tuples(k: int):
    """Triangle counts at v_1..v_k, once per triangulation of the polygon
    v_0..v_k (k >= 2).  The triangle on the edge v_0 v_k has its apex at
    some v_j and splits off the smaller polygons v_0..v_j and v_j..v_k."""
    fans = {1: [(0, 0)]}  # counts at both ends; an edge bounds no triangle

    def splits(m):
        for j in range(1, m):
            for a in fans[j]:
                for c in fans[m - j]:
                    yield (a[0] + 1, *a[1:-1], a[-1] + c[0] + 1, *c[1:-1], c[-1] + 1)

    for m in range(2, k):
        fans[m] = list(splits(m))  # small; the top level is streamed
    return (t[1:] for t in splits(k))


def suite_catalan(kmax: int = 12) -> SuiteResult:
    """Zero tuples of length k >= 2 are the triangle counts at v_1..v_k, one
    per triangulation of the polygon v_0..v_k (Conway-Coxeter), so Catalan(k-1)
    of them: each k's search set must lose each such tuple once and end empty."""
    for k in range(2, kmax + 1):
        got = enumerate_zero_cf(k)
        size, want = len(got), _catalan(k - 1)
        try:
            for t in _triangulation_tuples(k):
                got.remove(t)
        except KeyError as exc:
            return SuiteResult("catalan", False, k - 2, f"k={k}", f"{exc} missing or repeated")
        if got or size != want:
            extra = f"|set| = {size}, Catalan = {want}, {len(got)} not from a triangulation"
            return SuiteResult("catalan", False, k - 2, f"k={k}", extra)
    return SuiteResult("catalan", True, kmax - 1, f"search = triangulation census for k <= {kmax}")


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
    roots = range(2, isqrt(pmax) + 1)  # 1 <= h < m keeps 1 <= q < m^2; h = m is not coprime
    expected = {(m * m, m * h - 1) for m in roots for h in range(1, m) if gcd(m, h) == 1}
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
