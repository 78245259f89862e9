"""Minimal symplectic fillings of the lens space L(p, q) with its standard
contact structure, indexed combinatorially.

For coprime p > q >= 1, write p/(p-q) = [b_1, ..., b_k] with all b_i >= 2.
The minimal fillings correspond exactly to the admissible zero continued
fractions n with 0 <= n_i <= b_i; the filling attached to n is built from
one 0-handle, one 1-handle and b_i - n_i two-handles over the i-th chain
component.  Two fillings of the same lens space are diffeomorphic iff
their tuples are equal, or q is self-inverse mod p and the tuples are
reverses of each other.  classify and uniqueness_predicate take the zset
their caller has already searched, so a report searches once.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .cfrac import CFTuple, _check_pair, _is_zero_tuple, bounded_zero_cf, hj_expand, reverse
from .errors import LensfillError, TheoremViolation
from .exact import mod_inverse

__all__ = [
    "LensParams",
    "make_params",
    "zset",
    "classify",
    "rational_ball_criterion",
    "uniqueness_predicate",
]


class LensParams(NamedTuple):
    """A lens space L(p, q) together with its chain data.

    b is the expansion of p/(p-q) with entries >= 2; qbar is the inverse
    of q mod p, normalized into [1, p-1].
    """

    p: int
    q: int
    b: CFTuple
    qbar: int


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


def invariants(params: LensParams, n: Sequence[int]) -> tuple[int, ...]:
    """The two-handle counts b_i - n_i of the filling attached to n, which
    must be an admissible zero tuple bounded by b.  With its one 0-handle and
    one 1-handle, chi = sum(invariants(params, n)) and b2 = chi - 1."""
    n, b = tuple(n), params.b
    if len(n) != len(b) or any(x < 0 or x > bi for x, bi in zip(n, b)):
        raise LensfillError(f"{n} is not bounded by {b}")
    if not _is_zero_tuple(n):
        raise LensfillError(f"{n} is not an admissible zero tuple")
    return tuple(bi - ni for bi, ni in zip(b, n))


def classify(params: LensParams, zs: list[CFTuple]) -> list[tuple[CFTuple, ...]]:
    """Partition zs = zset(params), the fillings as their tuples n, by the
    diffeomorphism relation.

    The reversal n ~ reverse(n) is active exactly when q^2 = 1 mod p (then
    qbar = q and reversal preserves the bound b, which is a palindrome).
    zs is lexicographic, so each class opens with its least member and the
    classes follow the order of those; a reversal outside zs is a violation.
    """
    if (params.q * params.q) % params.p != 1:
        return [(n,) for n in zs]
    members = set(zs)
    out = []
    for n in zs:
        rn = reverse(n)
        if rn not in members:
            raise TheoremViolation(f"reversal of {n} escapes the bounded set")
        if n == rn:
            out.append((n,))
        elif n < rn:
            out.append((n, rn))
    return out


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


def uniqueness_predicate(a: CFTuple, zs: list[CFTuple]) -> bool:
    """True when a, the expansion of p/q, has all entries >= 5; zs is zset.

    Then the lens space has exactly one minimal filling, attached to
    (1, 2, ..., 2, 1) of length sum(a_j - 2) + 1 = len(b) (point diagram
    duality); this is asserted, not assumed, so any other zs raises
    TheoremViolation.  It is the report's only source for its
    unique_filling_certified flag.
    """
    if any(x < 5 for x in a):
        return False
    k = sum(a) - 2 * len(a) + 1
    if zs != [(1,) + (2,) * (k - 2) + (1,)]:
        raise TheoremViolation(f"the expansion of p/q has all entries >= 5 but fillings are {zs}")
    return True
