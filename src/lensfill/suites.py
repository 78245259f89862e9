"""Named verification sweeps over the package's structural claims.

Each suite checks one family of facts from Lisca's classification over a
range of pairs, lengths or p, and returns (cases, detail) when every case
holds.  At the first case that fails it raises TheoremViolation naming the
location (the pair, k or p) and what disagreed; the command line tool
prints that message as the suite's first counterexample.  The test suite
drives the same functions.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Callable

from .cfrac import _catalan, bounded_zero_cf, enumerate_zero_cf, reverse
from .fillings import classify, make_params, rational_ball_criterion, zset
from .errors import LensfillError, TheoremViolation
from .homology import rotation_numbers
from .lattice import check_filling
from .report import spin_rows

__all__ = ["SUITES"]


def _coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


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


def suite_catalan(kmax: int = 12) -> tuple[int, str]:
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
            raise TheoremViolation(f"k={k}: {exc} missing or repeated") from None
        if got or size != want:
            raise TheoremViolation(
                f"k={k}: |set| = {size}, Catalan = {want}, {len(got)} not from a triangulation"
            )
    return kmax - 1, f"search = triangulation census for k <= {kmax}"


def suite_duality(pmax: int = 300) -> tuple[int, str]:
    """Reversal symmetry: the inverse-parameter lens space has the
    reversed chain and the reversed fillings."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        pr = make_params(p, q)
        prbar = make_params(p, pr.qbar)
        if prbar.b != reverse(pr.b):
            raise TheoremViolation(f"(p,q)=({p},{q}): chain not reversed")
        if sorted(reverse(n) for n in zset(pr)) != zset(prbar):
            raise TheoremViolation(f"(p,q)=({p},{q}): fillings not reversed")
        cases += 1
    return cases, f"all pairs with p <= {pmax}"


def suite_gamma(pmax: int = 100) -> tuple[int, str]:
    """The two plane-field invariant formulas agree exactly on every spin
    structure; spin_rows raises, naming L(p,q) and s, where they differ.
    Both expand to the same polynomial in the meridian classes (see
    homology), so this checks the two implementations, not two
    derivations."""
    cases = pairs = 0
    for p, q in _coprime_pairs(pmax):
        cases += len(spin_rows(make_params(p, q)))
        pairs += 1
    # "negated for 0" keeps the published detail format: no pair may pass with
    # the formulas of opposite sign
    return cases, f"p <= {pmax}; convention: direct for {pairs} pairs, negated for 0"


def suite_rotation(kmax: int = 10) -> tuple[int, str]:
    """Terminal relation of the rotation recursion on every zero tuple of
    length 2..kmax; rotation_numbers raises, naming n, where it fails."""
    cases = 0
    for k in range(2, kmax + 1):
        for n in bounded_zero_cf((k - 1,) * k):  # lexicographic, like zeroseq
            rotation_numbers(n)
            cases += 1
    return cases, f"all zero tuples with k <= {kmax}"


def suite_lattice(pmax: int = 60) -> tuple[int, str]:
    """Geometric cross-checks: class shapes, exceptional-set nesting,
    complement homology, count recovery, and minimality."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        pr = make_params(p, q)
        for n in zset(pr):
            try:
                check_filling(pr.b, n)
            except LensfillError as exc:  # n came from zset, so any refusal is a violation
                raise TheoremViolation(f"(p,q)=({p},{q}): {exc}") from None
            cases += 1
    return cases, f"all fillings with p <= {pmax}"


def suite_mcduff(pmax: int = 100) -> tuple[int, str]:
    """Classification counts for L(p, 1): one class except two at p = 4."""
    for p in range(2, pmax + 1):
        got = len(classify(make_params(p, 1)))
        want = 2 if p == 4 else 1
        if got != want:
            raise TheoremViolation(f"p={p}: {got} classes, expected {want}")
    return pmax - 1, f"L(p,1) for p <= {pmax}"


def suite_rational_ball(pmax: int = 500) -> tuple[int, str]:
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
        if has_ball != (witness is not None):
            raise TheoremViolation(
                f"(p,q)=({p},{q}): b2=0 filling: {has_ball}, witness: {witness}"
            )
        if has_ball:
            found.add((p, q))
        cases += 1
    if found != expected:
        raise TheoremViolation(f"pair census: symmetric difference {sorted(found ^ expected)[:5]}")
    return cases, f"p <= {pmax}; {len(found)} rational-ball pairs"


SUITES: dict[str, Callable[[int], tuple[int, str]]] = {
    "catalan": suite_catalan,
    "duality": suite_duality,
    "gamma": suite_gamma,
    "rotation": suite_rotation,
    "lattice": suite_lattice,
    "mcduff": suite_mcduff,
    "rational-ball": suite_rational_ball,
}

_ALIASES = {"corollary-c": "rational-ball"}
