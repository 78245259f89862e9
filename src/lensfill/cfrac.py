"""Hirzebruch-Jung continued fractions and the blowup calculus on tuples.

A tuple t = (t_1, ..., t_k) of non-negative integers encodes the
minus-sign continued fraction

    [t_1, ..., t_k] = t_1 - 1/(t_2 - 1/( ... - 1/t_k)) .

The tuple is *admissible* when every denominator met during bottom-up
evaluation, i.e. every tail value [t_i, ..., t_k] for i >= 2, is positive.
Admissible tuples evaluating to 0 are exactly the tuples reachable from
(0) by strict blowups, and there are Catalan(k-1) of them in each length
k >= 2.  Expansions with all entries >= 2 are the unique such expansions
of rationals > 1 and are the combinatorial backbone of cyclic quotient
singularities and lens spaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .errors import LensfillError, TheoremViolation
from .exact import continuant, continuants

__all__ = [
    "eval_cf",
    "hj_expand",
    "is_admissible_matrix",
    "blowdown",
    "blowup",
    "enumerate_zero_cf",
    "strict_blowup_sequence",
    "bounded_zero_cf",
    "dual_expansion",
    "reverse",
]

CFTuple = tuple[int, ...]

# the most tuples one search may produce: bounded_zero_cf refuses to emit
# more, and zeroseq and verify --kmax refuse lengths k whose Catalan(k-1)
# zero tuples exceed it, so they admit k <= 14
MAX_TUPLES = 10**6
# the most entries one expansion may have: hj_expand refuses longer ones,
# since every later stage is at least linear in the length
MAX_CHAIN = 10**5


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _zero_tuple_count(k: int, action: str) -> int:
    """Catalan(k-1), the number of zero tuples of length k >= 1; refuses
    counts above MAX_TUPLES before anything is enumerated."""
    count = _catalan(max(k - 1, 0))
    if count > MAX_TUPLES:
        raise LensfillError(
            f"{action} Catalan({k - 1}) = {count} tuples, "
            f"more than the limit of {MAX_TUPLES}"
        )
    return count


def _check_entries(t: Sequence[int]) -> None:
    for x in t:
        if not isinstance(x, int) or x < 0:
            raise LensfillError(f"tuple entries must be non-negative ints, got {x!r}")


def eval_cf(t: Sequence[int]) -> Optional[Fraction]:
    """Evaluate [t_1, ..., t_k] exactly, bottom up.

    Returns the reduced rational, or None when t is inadmissible (a tail
    value <= 0, zero included, consumed as a denominator) or empty.  The
    value 0 is falsy, so test with ``is None`` or ``== 0``.  Tracking tail
    continuants makes one integer pass decide admissibility and the value.
    """
    _check_entries(t)
    k = len(t)
    if k == 0:
        return None
    # s1, s2 = K(t_{i+1}..t_k), K(t_{i+2}..t_k);  tail value = K_i / K_{i+1}
    s1, s2 = 1, 0
    for i in range(k, 1, -1):
        s1, s2 = t[i - 1] * s1 - s2, s1
        if s1 <= 0:
            return None
    return Fraction(t[0] * s1 - s2, s1)


def _check_pair(p: int, q: int) -> None:
    """Raise LensfillError unless p and q are coprime ints with p > q >= 1."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise LensfillError(f"p, q must be ints, got {p!r}, {q!r}")
    if q < 1 or p <= q or gcd(p, q) != 1:
        raise LensfillError(f"need coprime p > q >= 1, got ({p}, {q})")


def hj_expand(p: int, q: int) -> CFTuple:
    """The unique expansion of p/q with all entries >= 2.

    Requires coprime p > q >= 1.  Each step takes the ceiling and recurses
    on the reciprocal remainder.  Raises LensfillError rather than emit
    more than MAX_CHAIN entries.
    """
    _check_pair(p, q)
    out = []
    x, y = p, q
    while y:
        if len(out) == MAX_CHAIN:
            raise LensfillError(f"the expansion of {p}/{q} has more than {MAX_CHAIN} entries")
        a = -(-x // y)
        out.append(a)
        x, y = y, a * y - x
    return tuple(out)


def is_admissible_matrix(t: Sequence[int]) -> bool:
    """Admissibility of a tuple of positive integers, by the matrix test.

    The tuple is admissible iff the symmetric tridiagonal matrix with
    diagonal t and off-diagonal -1 entries is positive semi-definite of
    rank >= k-1.  The leading principal minors of that matrix are the
    prefix continuants K(t_1..t_i), and for an irreducible tridiagonal
    matrix the test reduces to: all proper leading minors positive and the
    determinant non-negative.
    """
    if any(x < 1 for x in t):
        raise LensfillError("matrix admissibility test needs positive entries")
    k = len(t)
    prev2, prev = 0, 1
    for i in range(k - 1):
        prev2, prev = prev, t[i] * prev - prev2
        if prev <= 0:
            return False
    return k == 0 or t[k - 1] * prev - prev2 >= 0


def blowdown(t: Sequence[int], s: int) -> CFTuple:
    """Remove the entry t_s = 1 and decrement both neighbors.

    s is 1-based; truncation applies at the ends.  The result of blowing
    down an admissible zero tuple is again an admissible zero tuple, one
    shorter.
    """
    t = tuple(t)
    k = len(t)
    if not (1 <= s <= k) or k < 2:
        raise LensfillError(f"position {s} out of range for length {k}")
    if t[s - 1] != 1:
        raise LensfillError(f"entry at position {s} is {t[s - 1]}, not 1")
    left = t[: s - 2] + (t[s - 2] - 1,) if s >= 2 else ()
    right = ((t[s] - 1,) + t[s + 1 :]) if s <= k - 1 else ()
    return left + right


def blowup(t: Sequence[int], s: int) -> CFTuple:
    """Insert a 1 at position s (1-based, 1..k+1) and increment the
    neighbors that exist.  Inverse of blowdown at s; strict when s > 1."""
    t = tuple(t)
    k = len(t)
    if not (1 <= s <= k + 1):
        raise LensfillError(f"insertion position {s} out of range for length {k}")
    out = list(t[: s - 1]) + [1] + list(t[s - 1 :])
    if s >= 2:
        out[s - 2] += 1
    if s <= k:
        out[s] += 1
    return tuple(out)


def enumerate_zero_cf(k: int) -> set[CFTuple]:
    """All admissible tuples of positive integers of length k with value 0.

    This is the bounded search with every entry bounded by k - 1: a zero
    tuple of length k has entries <= k - 1, by induction on k, since (0)
    has entry 0 and a strict blowup raises the largest entry by at most
    one.  For k = 1 this is {(0,)} by convention; for k >= 2 the count is
    the Catalan number C(k-1).
    """
    if k < 1:
        raise LensfillError(f"length must be >= 1, got {k}")
    return set(bounded_zero_cf((k - 1,) * k))


def strict_blowup_sequence(n: Sequence[int]) -> tuple[int, ...]:
    """A canonical sequence of strict insertion positions building n from (0).

    Deterministic choice: at every stage the tuple is blown down at its
    earliest entry equal to 1 in a strict position (index >= 2); the
    recorded positions are returned in forward (blowup) order.  Works for
    any length, unlike replaying the Catalan-sized generation.
    """
    n = tuple(n)
    if eval_cf(n) != 0:
        raise LensfillError(f"{n} is not an admissible zero tuple")
    seq = []
    cur = n
    while len(cur) > 1:
        for s in range(2, len(cur) + 1):
            if cur[s - 1] == 1:
                seq.append(s)
                cur = blowdown(cur, s)
                break
        else:
            raise TheoremViolation(f"{cur} has no strict entry equal to 1")
    return tuple(reversed(seq))


def bounded_zero_cf(bounds: Sequence[int]) -> list[CFTuple]:
    """All admissible zero tuples n with 0 <= n_i <= bounds_i, lexicographic.

    Depth-first search on forced tail values: once n_1..n_{i-1} are fixed,
    the tail [n_i, ..., n_k] must equal a known reduced rational num/den.
    Choosing n_i = v > num/den leaves m = k - i entries that must form an
    admissible tuple of value x = den/d, d = v*den - num, and for an
    admissible n, d is the continuant K(n_{i+2}..n_k).

    Cap rule: tail values are monotone in their entries, and a continuant
    is the product of its tail values, so d <= K(bounds_{i+2}..bounds_k);
    the empty continuant is 1, so the last two entries are forced.  If a
    tail of the bounds past the first entry is <= 0, no n <= bounds exists
    and the cap computed there is <= 0, which prunes every branch.

    Length rule: the Hirzebruch-Jung expansion of x (ceil(x), then entries
    >= 2) is its shortest admissible representation.  Any other one has a
    1 past its first entry, and a strict blowdown there keeps the value and
    admissibility and drops an entry; strict blowups lengthen it again.  So
    with no bounds v has a completion iff that expansion has at most m
    entries.  Such an expansion has x >= [1, 2, ..., 2] = 1/m, so
    v <= num//den + m joins the cap; its denominators strictly decrease, so
    d <= m passes at once; otherwise it is run for at most m steps.  Under
    bounds (k-1,)*k, which never bind, every entered position is a prefix
    of an output tuple.  The explicit stack leaves the recursion limit alone.
    Raises LensfillError rather than emit more than MAX_TUPLES tuples.
    """
    _check_entries(bounds)
    k = len(bounds)
    if k == 0:
        return []
    last = k - 1
    # caps[j] = K(bounds[j+2:]), the largest denominator allowed after choosing
    # position j: prefix continuants of the reversed bounds, by reversal invariance
    caps = continuants(bounds[::-1])[k - 1 :: -1]
    out: list[CFTuple] = []
    limit = MAX_TUPLES
    path = [0] * k
    frames: list[tuple[int, int, int]] = []  # (num, den, hi) per open position
    num, den = 0, 1
    while True:
        j = len(frames)
        if j < last:
            # open position j just below its first candidate num//den + 1
            v = num // den
            hi = v + last - j
            if bounds[j] < hi:
                hi = bounds[j]
            c = (caps[j] + num) // den
            if c < hi:
                hi = c
            frames.append((num, den, hi))
            path[j] = v
        elif num <= bounds[last]:  # den == 1 here, so n_k = num
            if len(out) == limit:
                raise LensfillError(
                    f"the zero tuples bounded by {tuple(bounds)} number more than "
                    f"the limit of {limit}"
                )
            path[last] = num
            out.append(tuple(path))
        # advance the deepest open position to its next value whose tail
        # has an expansion of at most m entries
        while frames:
            num, den, hi = frames[-1]
            j = len(frames) - 1
            m = last - j
            v = path[j] + 1
            while v <= hi:
                d = v * den - num
                if d <= m:
                    break
                p, q, s = den, d, m
                while q and s:
                    p, q = q, -p % q
                    s -= 1
                if not q:
                    break
                v += 1
            else:
                frames.pop()
                continue
            path[j] = v
            num, den = den, d
            break
        else:
            return out


def dual_expansion(b: Sequence[int]) -> CFTuple:
    """The expansion of p/q given the expansion of p/(p-q), via the point
    diagram.

    Row i of the diagram carries b_i - 1 dots and each row starts under
    the last dot of the previous one; the column counts plus one give the
    dual expansion.  The result is cross-checked against the direct route
    (p = K(b) and p - q = K(b_2..b_k), expand p/q); a mismatch raises
    TheoremViolation.  The direct route runs first, so it refuses an
    expansion past MAX_CHAIN before the diagram is drawn.
    """
    b = tuple(b)
    if not b or any(x < 2 for x in b):
        raise LensfillError(f"need a tuple with all entries >= 2, got {b}")
    p = continuant(b)
    direct = hj_expand(p, p - continuant(b[1:]))
    counts = [1] * (sum(b) - 2 * len(b) + 1)  # one more than the dots per column
    col = 0
    for x in b:
        for j in range(col, col + x - 1):
            counts[j] += 1
        col += x - 2
    a = tuple(counts)
    if a != direct:
        raise TheoremViolation(f"point diagram of b = {b} gives {a}, direct route {direct}")
    return a


def reverse(t: Sequence[int]) -> CFTuple:
    """Entries in reversed order."""
    return tuple(reversed(t))
