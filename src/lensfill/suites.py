"""Named verification sweeps over the package's structural claims.

Each suite checks one family of facts from Lisca's classification over a
range of pairs, lengths or p, and returns (cases, detail) when every case
holds.  At the first case that fails it raises TheoremViolation naming
what disagreed and where: k, or the pair through a naming scope per pair.
The command line tool prints that message as the suite's first
counterexample.  SUITES holds each suite with its bound's flag and default,
which verify reads.  The test suite drives the same functions.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Callable

from .cfrac import _catalan, dual_expansion, enumerate_zero_cf, reverse
from .fillings import classify, make_params, rational_ball_criterion, zset
from .errors import TheoremViolation, naming
from .exact import continuants
from .homology import rotation_numbers, spin_rows
from .lattice import check_fillings

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


def suite_catalan(kmax: int) -> tuple[int, str]:
    """Zero tuples of length k >= 2 are the triangle counts at v_1..v_k, one
    per triangulation of the polygon v_0..v_k (Conway-Coxeter), so Catalan(k-1)
    of them: each k's search list, counted before it becomes a set, must lose
    each such tuple once and end empty."""
    for k in range(2, kmax + 1):
        got = enumerate_zero_cf(k)
        size, want = len(got), _catalan(k - 1)
        got = set(got)
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


def suite_duality(pmax: int) -> tuple[int, str]:
    """Reversal symmetry: the inverse-parameter lens space has the
    reversed chain and the reversed fillings.  The relation is symmetric, so
    each lens space is compared once, at its pair with q <= qbar, and counts
    as its two pairs (one where q = qbar, whose set must be its own reversal);
    each chain is searched once."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        with naming(p, q):
            pr = make_params(p, q)
            if q > pr.qbar:
                continue  # compared at (p, qbar)
            two = q < pr.qbar  # two pairs, or one self-inverse pair
            prbar = make_params(p, pr.qbar) if two else pr
            if prbar.b != reverse(pr.b):
                raise TheoremViolation("chain not reversed")
            zs = zset(pr)
            if sorted(reverse(n) for n in zs) != (zset(prbar) if two else zs):
                raise TheoremViolation("fillings not reversed")
        cases += 2 if two else 1
    return cases, f"all pairs with p <= {pmax}"


def suite_gamma(pmax: int) -> tuple[int, str]:
    """Gamma of the filling's boundary, read from the chain b, equals Gamma of
    the standard contact structure, read from the dual chain a = HJ(p/q), on
    every spin structure; spin_rows raises, naming s, where they differ or
    where a has no spin structure to pair with s (see homology)."""
    cases = pairs = 0
    for p, q in _coprime_pairs(pmax):
        with naming(p, q):
            b = make_params(p, q).b
            cases += len(spin_rows(b, dual_expansion(b)))
        pairs += 1
    # "negated for 0" keeps the published detail format: no pair may pass with
    # the formulas of opposite sign
    return cases, f"p <= {pmax}; convention: direct for {pairs} pairs, negated for 0"


def suite_rotation(kmax: int) -> tuple[int, str]:
    """Every searched zero tuple of length 2..kmax is admissible:
    rotation_numbers refuses any other, naming n.  The terminal relation
    of its recursion holds by proof (see rotation_numbers), unchecked."""
    cases = 0
    for k in range(2, kmax + 1):
        for n in enumerate_zero_cf(k):  # lexicographic, like zeroseq
            rotation_numbers(n)
            cases += 1
    return cases, f"all zero tuples with k <= {kmax}"


def suite_lattice(pmax: int) -> tuple[int, str]:
    """Geometric cross-checks: class shapes, exceptional-set nesting,
    complement homology and minimality.  A size refusal stays a LensfillError
    (at p <= 120 the most work is 14,161 units, at L(120,1))."""
    cases = 0
    for p, q in _coprime_pairs(pmax):
        with naming(p, q):
            pr = make_params(p, q)
            cases += len(check_fillings(pr.b, zset(pr)))
    return cases, f"all fillings with p <= {pmax}"


def suite_mcduff(pmax: int) -> tuple[int, str]:
    """Classification counts for L(p, 1): one class except two at p = 4."""
    for p in range(2, pmax + 1):
        with naming(p, 1):
            pr = make_params(p, 1)
            got = len(classify(pr, zset(pr)))
            want = 2 if p == 4 else 1
            if got != want:
                raise TheoremViolation(f"{got} classes, expected {want}")
    return pmax - 1, f"L(p,1) for p <= {pmax}"


def suite_rational_ball(pmax: int) -> tuple[int, str]:
    """A filling with b2 = 0 exists iff (p, q) = (m^2, m h - 1) with m, h
    coprime; the witness pairs are enumerated independently.  Such a filling
    is n = b - e_j with its only 1 at j, so b_j = 2; its handle side
    H_1 = Z/g, g = K(n_1..n_{j-1}), must have g = m."""
    roots = range(2, isqrt(pmax) + 1)  # 1 <= h < m keeps 1 <= q < m^2; h = m is not coprime
    expected = {(m * m, m * h - 1) for m in roots for h in range(1, m) if gcd(m, h) == 1}
    cases = 0
    found = set()
    for p, q in _coprime_pairs(pmax):
        with naming(p, q):
            pr = make_params(p, q)
            balls = [n for n in zset(pr) if sum(pr.b) - sum(n) == 1]
            witness = rational_ball_criterion(p, q)
            if bool(balls) != (witness is not None):
                raise TheoremViolation(f"b2=0 filling: {bool(balls)}, witness: {witness}")
            for n in balls:
                j = next(i for i, (ni, bi) in enumerate(zip(n, pr.b), 1) if ni < bi)
                ones = [i for i, ni in enumerate(n, 1) if ni == 1]
                if ones != [j]:
                    raise TheoremViolation(f"b2=0 filling {n}: 1 at positions {ones}, not [{j}]")
                g = continuants(n)[j]  # K(n_1..n_{j-1})
                if g != witness[0]:
                    raise TheoremViolation(f"b2=0 filling {n}: g = {g}, witness: {witness}")
        if balls:
            found.add((p, q))
        cases += 1
    if found != expected:
        raise TheoremViolation(f"pair census: symmetric difference {sorted(found ^ expected)[:5]}")
    return cases, f"p <= {pmax}; {len(found)} rational-ball pairs"


# name -> (suite, the verify flag that sets its one bound, the bound's default)
SUITES: dict[str, tuple[Callable[[int], tuple[int, str]], str, int]] = {
    "catalan": (suite_catalan, "kmax", 12),
    "duality": (suite_duality, "pmax", 300),
    "gamma": (suite_gamma, "pmax", 100),
    "rotation": (suite_rotation, "kmax", 10),
    "lattice": (suite_lattice, "pmax", 60),
    "mcduff": (suite_mcduff, "pmax", 100),
    "rational-ball": (suite_rational_ball, "pmax", 500),
}

_ALIASES = {"corollary-c": "rational-ball"}
