"""Minimal symplectic fillings of the lens space L(p, q) with its standard
contact structure, indexed combinatorially.

For coprime p > q >= 1, write p/(p-q) = [b_1, ..., b_k] with all b_i >= 2.
The minimal fillings correspond exactly to the admissible zero continued
fractions n with 0 <= n_i <= b_i; the filling attached to n is built from
one 0-handle, one 1-handle and b_i - n_i two-handles over the i-th chain
component.  Two fillings of the same lens space are diffeomorphic iff
their tuples are equal, or q is self-inverse mod p and the tuples are
reverses of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Sequence

from .cfrac import CFTuple, _check_pair, bounded_zero_cf, eval_cf, hj_expand, reverse
from .errors import (
    ConsistencyViolated,
    HypothesisViolated,
    NotAFilling,
    PreconditionViolated,
    TheoremViolation,
)
from .exact import mod_inverse

__all__ = [
    "LensParams",
    "FillingDescriptor",
    "FillingClass",
    "make_params",
    "zset",
    "invariants",
    "classify",
    "minimal_filling_family",
    "unique_one_value",
    "rational_ball_criterion",
    "uniqueness_predicate",
]


@dataclass(frozen=True)
class LensParams:
    """A lens space L(p, q) together with its chain data.

    b is the expansion of p/(p-q) with entries >= 2; qbar is the inverse
    of q mod p, normalized into [1, p-1].
    """

    p: int
    q: int
    b: CFTuple
    qbar: int


@dataclass(frozen=True)
class FillingDescriptor:
    """One minimal filling: its tuple n and the handle-level invariants.

    chi is the Euler characteristic (one 0-handle, one 1-handle, and
    sum(b_i - n_i) two-handles), b2 = chi - 1 the second Betti number, and
    handle_counts the per-component two-handle multiplicities b_i - n_i.
    """

    params: LensParams
    n: CFTuple
    chi: int
    b2: int
    handle_counts: tuple[int, ...]


@dataclass(frozen=True)
class FillingClass:
    """Fillings identified up to orientation-preserving diffeomorphism."""

    representatives: tuple[FillingDescriptor, ...]


def make_params(p: int, q: int) -> LensParams:
    """Validate the pair and populate the chain data for L(p, q)."""
    _check_pair(p, q)
    return LensParams(p=p, q=q, b=hj_expand(p, p - q), qbar=mod_inverse(q, p))


def zset(params: LensParams) -> list[CFTuple]:
    """The admissible zero tuples bounded entrywise by b, lexicographic.

    These index the minimal symplectic fillings of L(p, q).  For k = 1
    (q = p - 1) the set is {(0,)}.
    """
    return bounded_zero_cf(params.b)


def _check_member(params: LensParams, n: Sequence[int]) -> CFTuple:
    n = tuple(n)
    b = params.b
    if len(n) != len(b) or any(x < 0 or x > bi for x, bi in zip(n, b)):
        raise NotAFilling(f"{n} is not bounded by {b}")
    v = eval_cf(n)
    if not v.admissible or v.value != 0:
        raise NotAFilling(f"{n} is not an admissible zero tuple")
    return n


def _describe(params: LensParams, n: CFTuple) -> FillingDescriptor:
    handles = tuple(bi - ni for bi, ni in zip(params.b, n))
    chi = sum(handles)
    return FillingDescriptor(params=params, n=n, chi=chi, b2=chi - 1, handle_counts=handles)


def invariants(params: LensParams, n: Sequence[int]) -> FillingDescriptor:
    """Handle counts and Euler characteristic of the filling attached to n."""
    return _describe(params, _check_member(params, n))


def _orbits(params: LensParams, zs: list[CFTuple]) -> list[list[CFTuple]]:
    """The classes of classify, as tuples, from the already computed zset."""
    members = set(zs)
    active = (params.q * params.q) % params.p == 1
    out = []
    seen = set()
    for n in zs:
        if n in seen:
            continue
        orbit = [n]
        seen.add(n)
        if active:
            rn = reverse(n)
            if rn != n:
                if rn not in members:
                    raise ConsistencyViolated(
                        f"reversal of {n} escapes the bounded set of {params}"
                    )
                orbit.append(rn)
                seen.add(rn)
        out.append(orbit)
    return out


def classify(params: LensParams) -> list[FillingClass]:
    """Partition the fillings by the diffeomorphism relation.

    The reversal n ~ reverse(n) is active exactly when q^2 = 1 mod p (then
    qbar = q and reversal preserves the bound b, which is a palindrome).
    Classes are listed by their lexicographically least representative,
    least first within each class.
    """
    return [
        FillingClass(tuple(invariants(params, m) for m in orbit))
        for orbit in _orbits(params, zset(params))
    ]


def minimal_filling_family(params: LensParams, r: int) -> CFTuple:
    """The r-th member of a family of fillings with chi increasing in r.

    Applies when k >= 4, b_2, ..., b_{k-2} >= 3 and b_k >= k - 2; then for
    0 <= r <= k - 4 the tuple

        (1, 2 x r, 3, 2 x (k-4-r), 1, k-2-r)

    is a bounded admissible zero tuple and the attached filling has
    chi = 5 + sum(b_i - 3) + r.  Distinct r give fillings distinguished by
    their Euler characteristics, all of them minimal manifolds.
    """
    b = params.b
    k = len(b)
    if k < 4:
        raise HypothesisViolated(f"need k >= 4, got k = {k}")
    if any(b[i] < 3 for i in range(1, k - 2)):
        raise HypothesisViolated(f"need b_2..b_{{k-2}} >= 3, got {b}")
    if b[k - 1] < k - 2:
        raise HypothesisViolated(f"need b_k >= k - 2, got b_k = {b[k-1]}")
    if not 0 <= r <= k - 4:
        raise HypothesisViolated(f"need 0 <= r <= {k - 4}, got r = {r}")
    n = (1,) + (2,) * r + (3,) + (2,) * (k - 4 - r) + (1,) + (k - 2 - r,)
    try:
        desc = invariants(params, n)
    except NotAFilling as exc:
        raise TheoremViolation(f"family member {n} failed membership: {exc}") from exc
    expected_chi = 5 + sum(bi - 3 for bi in b) + r
    if desc.chi != expected_chi:
        raise TheoremViolation(
            f"family member {n} has chi = {desc.chi}, expected {expected_chi}"
        )
    return n


def unique_one_value(n: Sequence[int]) -> tuple[int, int]:
    """Decompose the value obtained by bumping the unique 1 in n to a 2.

    For an admissible zero tuple of length >= 3 with exactly one entry
    equal to 1, replacing that entry by 2 yields a fraction of the shape
    m^2/(m*nn + 1) with gcd(m, nn) = 1; returns (m, nn).  A qualifying
    tuple whose value is not of that shape would contradict the structure
    theory, so that case aborts loudly.
    """
    n = tuple(n)
    k = len(n)
    v = eval_cf(n)
    if k < 3 or any(x < 1 for x in n) or not v.admissible or v.value != 0:
        raise PreconditionViolated(f"{n} is not a positive zero tuple of length >= 3")
    ones = [i for i, x in enumerate(n) if x == 1]
    if len(ones) != 1:
        raise PreconditionViolated(f"{n} has {len(ones)} entries equal to 1, need exactly 1")
    j = ones[0]
    bumped = n[:j] + (2,) + n[j + 1 :]
    w = eval_cf(bumped)
    if not w.admissible or w.value is None:
        raise TheoremViolation(f"bumped tuple {bumped} is inadmissible")
    num, den = w.value.numerator, w.value.denominator
    m = isqrt(num)
    if m * m != num or (den - 1) % m:
        raise TheoremViolation(f"[{bumped}] = {num}/{den} is not of the shape m^2/(m*nn+1)")
    nn = (den - 1) // m
    if nn < 1 or gcd(m, nn) != 1:
        raise TheoremViolation(f"witness pair ({m}, {nn}) for {num}/{den} is not coprime")
    return m, nn


def rational_ball_criterion(p: int, q: int) -> Optional[tuple[int, int]]:
    """Witness (m, h) with p = m^2, q = m*h - 1, gcd(m, h) = 1, or None.

    Such a pair exists iff L(p, q) bounds a filling with b2 = 0 (the
    rational-ball pieces of the rational blowdown construction); the
    equivalence with the handle count is checked by the test suite rather
    than assumed here.
    """
    _check_pair(p, q)
    m = isqrt(p)
    if m * m != p or (q + 1) % m:
        return None
    h = (q + 1) // m
    if h < 1 or gcd(m, h) != 1:
        return None
    return m, h


def _certify_unique(params: LensParams, zs: list[CFTuple]) -> bool:
    """Assert that zs is the staircase alone, for a pair whose expansion of
    p/q has all entries >= 5."""
    k = len(params.b)
    expected = (1,) + (2,) * (k - 2) + (1,)
    if zs != [expected]:
        raise TheoremViolation(
            f"expansion of {params.p}/{params.q} has all entries >= 5 but fillings are {zs}"
        )
    return True


def uniqueness_predicate(p: int, q: int) -> bool:
    """True when the expansion of p/q has all entries >= 5.

    In that case the lens space has exactly one minimal filling, the one
    attached to (1, 2, ..., 2, 1); this is asserted, not assumed.
    """
    a = hj_expand(p, q)
    if any(x < 5 for x in a):
        return False
    params = make_params(p, q)
    return _certify_unique(params, zset(params))
