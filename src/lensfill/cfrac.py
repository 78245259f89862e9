"""Hirzebruch-Jung continued fractions and the blowup calculus on tuples.

A tuple t = (t_1, ..., t_k) of non-negative integers encodes the
minus-sign continued fraction

    [t_1, ..., t_k] = t_1 - 1/(t_2 - 1/( ... - 1/t_k)) .

The tuple is *admissible* when every denominator met during bottom-up
evaluation, i.e. every tail value [t_i, ..., t_k] for i >= 2, is positive.
A *strict blowup* at a 1-based position s >= 2 inserts a 1 at s and adds
1 to each neighbor of that 1; it keeps the value and admissibility, and a
blowdown undoes it.  Admissible tuples evaluating to 0 are exactly the
tuples reachable from (0) by strict blowups, and there are Catalan(k-1) of
them in each length k >= 2.  Expansions with all entries >= 2 are the
unique such expansions of rationals > 1 and are the combinatorial backbone
of cyclic quotient singularities and lens spaces.
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import LensfillError, TheoremViolation
from .exact import continuant, continuants

if TYPE_CHECKING:  # eval_cf's annotation; no command imports fractions
    from fractions import Fraction

__all__ = [
    "hj_expand",
    "blowdown",
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
# since every later stage is at least linear in the length; lattice.build_string
# refuses more exceptional classes M, since its replay is linear in M
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


def _continuant_pair(t: Sequence[int]) -> Optional[tuple[int, int]]:
    """(K(t), K(t_2..t_k)), the numerator and denominator of [t_1, ..., t_k],
    or None when t is inadmissible (a tail value <= 0, zero included,
    consumed as a denominator) or empty.

    Tracking tail continuants makes one integer pass decide admissibility
    and the value; the denominator is positive and the pair is coprime.
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
    return t[0] * s1 - s2, s1


def _is_zero_tuple(t: Sequence[int]) -> bool:
    """Whether t is an admissible zero tuple, eval_cf(t) == 0 without a Fraction."""
    pair = _continuant_pair(t)
    return pair is not None and pair[0] == 0


def eval_cf(t: Sequence[int]) -> Optional[Fraction]:
    """Evaluate [t_1, ..., t_k] exactly, bottom up.

    Returns the reduced rational, or None when t is inadmissible (a tail
    value <= 0, zero included, consumed as a denominator) or empty.  The
    value 0 is falsy, so test with ``is None`` or ``== 0``.  The package's
    own zero tests read _continuant_pair instead, so no command imports
    fractions.
    """
    from fractions import Fraction

    pair = _continuant_pair(t)
    return None if pair is None else Fraction(*pair)


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
    return _hj_expand(p, q)


def _hj_expand(p: int, q: int) -> CFTuple:
    """hj_expand for a pair already checked, such as one make_params took."""
    out = []
    x, y = p, q
    while y:
        if len(out) == MAX_CHAIN:
            raise LensfillError(f"the expansion of {p}/{q} has more than {MAX_CHAIN} entries")
        a = -(-x // y)
        out.append(a)
        x, y = y, a * y - x
    return tuple(out)


def blowdown(t: Sequence[int], s: int) -> CFTuple:
    """Remove the entry t_s = 1 and decrement both neighbors.

    s is 1-based; truncation applies at the ends.  This undoes the blowup
    that inserted that 1 at s, strict when s >= 2.  The result of blowing
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


def enumerate_zero_cf(k: int, *, _totals: Optional[list[int]] = None) -> list:
    """All admissible tuples of positive integers of length k with value 0,
    lexicographic, as the search emits them (a repeat would stay).

    This is the bounded search with every entry bounded by k - 1: a zero
    tuple of length k has entries <= k - 1, by induction on k, since (0)
    has entry 0 and a strict blowup raises the largest entry by at most
    one.  For k = 1 this is [(0,)] by convention; for k >= 2 the count is
    the Catalan number C(k-1).  _totals, which turns on bounded_zero_cf's
    text blocks, is passed on to the search.
    """
    if k < 1:
        raise LensfillError(f"length must be >= 1, got {k}")
    return bounded_zero_cf((k - 1,) * k, _totals=_totals)


def strict_blowup_sequence(n: Sequence[int]) -> tuple[int, ...]:
    """A canonical sequence of strict insertion positions building n from (0).

    Deterministic choice: at every stage the tuple is blown down at its
    earliest entry equal to 1 in a strict position (index >= 2); the
    recorded positions are returned in the order in which strict blowups
    at them rebuild n from (0).  Works for any length, unlike replaying the
    Catalan-sized generation.

    Such an entry exists: a zero tuple of length k >= 3 counts the triangles
    at v_1..v_k of a triangulation of the polygon v_0..v_k, whose two
    non-adjacent ears (entries 1) cannot both be v_0 and v_1; for k = 2 it is
    (1, 1).  Blowing down an ear cuts it off, leaving a zero tuple again.
    """
    n = tuple(n)
    if not _is_zero_tuple(n):
        raise LensfillError(f"{n} is not an admissible zero tuple")
    seq = []
    cur = n
    while len(cur) > 1:
        seq.append(cur.index(1, 1) + 1)  # the earliest strict 1, which exists (above)
        cur = blowdown(cur, seq[-1])
    return tuple(reversed(seq))


def _over_limit(bounds: Sequence[int], limit: int) -> str:
    return f"the zero tuples bounded by {tuple(bounds)} number more than the limit of {limit}"


def bounded_zero_cf(bounds: Sequence[int], *, _totals: Optional[list[int]] = None) -> list:
    """All admissible zero tuples n with 0 <= n_i <= bounds_i, lexicographic.

    Depth-first search on forced tail values: once n_1..n_{i-1} are fixed,
    the tail [n_i, ..., n_k] must equal a known reduced rational num/den.
    Choosing n_i = v > num/den leaves m = k - i entries that must form an
    admissible tuple of value x = den/d, d = v*den - num, and for an
    admissible n, d is the continuant K(n_{i+2}..n_k).

    Cap rule: tail values are monotone in their entries, and a continuant
    is the product of its tail values, so d <= K(bounds_{i+2}..bounds_k).
    If a tail of the bounds past the first entry is <= 0, no n <= bounds
    exists and the cap computed there is <= 0, which prunes every branch.

    Value rule: by the same monotonicity the next tail x = den/d is at most
    [bounds_{i+1}..bounds_k] = K(bounds_{i+1}..)/K(bounds_{i+2}..), so
    d >= den*K(bounds_{i+2}..)/K(bounds_{i+1}..), the lower end that pairs
    with the cap.  It raises the first candidate; it is skipped where
    K(bounds_{i+1}..bounds_k) <= 0, and there no n <= bounds exists anyway.

    Length rule: the Hirzebruch-Jung expansion HJ(y) of y > 0 (ceil(y), then
    entries >= 2) is its shortest admissible representation.  Any other one
    has a 1 past its first entry, and a strict blowdown there keeps the value
    and admissibility and drops an entry; strict blowups lengthen it again.
    So with no bounds v has a completion iff HJ(den/d) has at most m entries.
    That length is exact in v: if HJ(y) = (c_1..c_L) then HJ(y/(1+y)) =
    (1, c_1+1, c_2..c_L), and raising v by one maps the tail value y to
    y/(1+y), so each raise adds one entry.  The first candidate
    v_0 = num//den + 1 leaves 1/(ceil(num/den) - num/den), whose expansion is
    HJ(num/den) without its first entry, or the tail 1 when num/den is an
    integer.  So if that tail has l_0 entries, the completable values are
    exactly v_0 .. v_0 + m - l_0, and that end joins the cap and the bound;
    no candidate is tested.  Under bounds (k-1,)*k, which never bind, every
    candidate tried is a prefix of an output tuple.

    Shared completions: below position j the bounds, the caps, the value
    rule and the expansion length depend only on j and the tail value
    num/den, so every prefix that reaches j with that value has the same
    completions n_j..n_k.  When the frame at j closes, the span of the
    output that its search filled is stored under (j, num, den), and a later
    prefix that reaches j with the same value extends the output with its
    own head on the tails of that span instead of searching again; a span
    may be empty, so a dead tail is searched once.  The order stays
    lexicographic: prefixes are visited in order, and each span is in the
    order it was found.  At position k-1 the length rule leaves den = 1, so
    the last entry is num, kept when num <= bounds_k; for k = 1 that is
    (0,).

    Text blocks: given an empty list _totals, the search emits text instead
    of tuples, each tuple as "\n" followed by its entries joined by spaces,
    and returns blocks of such text, far fewer than the tuples (8,046 blocks
    for the 208,012 tuples under (12,)*13).  A fresh tuple is one block;
    a share appends one block, a copy of its span's blocks.  The search puts
    0 in _totals and appends the running tuple count after each block, so
    _totals[i] tuples precede block i and _totals[-1] is the count.  The
    span stored under (j, num, den) also keeps the text "\n" + n_1..n_j (a
    space after each entry) that every tuple in it starts with, and the
    search keeps that head text for each position as the position advances.
    A share copies the span with one str.replace of the stored head by its
    own.  That is exact: "\n" opens every tuple and occurs nowhere else, so
    each occurrence of the stored head starts a tuple, the occurrences do not
    overlap, and every tuple of the span has one.  A tail is thus formatted
    once, when it is first emitted, and each byte of the output belongs to
    one block, made by one join and one replace: for bounds (12,)*13 the
    7,969 shares wrote 5,407,299 of the 5,409,313 bytes emitted.

    The explicit stack leaves the recursion limit alone.  Raises
    LensfillError rather than emit more than MAX_TUPLES tuples, from a shared
    span as from a fresh tuple.
    """
    _check_entries(bounds)
    k = len(bounds)
    last = k - 1
    # ks[j] = K(bounds[j:]), prefix continuants of the reversed bounds by
    # reversal invariance; choosing position j caps d at ks[j + 2]
    ks = continuants(bounds[::-1])[k + 1 :: -1]
    out: list = []
    limit = MAX_TUPLES
    text = _totals is not None
    if text:
        _totals.append(0)
    # heads[j] is "\n" and n_1..n_j, each followed by a space (text blocks only)
    heads = ["\n"] * k
    path = [0] * k
    # (num, den, hi, e, start) per open position: candidate v leaves a tail
    # whose expansion has v + e entries, and out[start:] holds its tuples
    frames: list[tuple[int, int, int, int, int]] = []
    # by (position, tail value), the span of out that holds its completions and
    # the head text its tuples start with
    shared: dict[tuple[int, int, int], tuple[int, int, str]] = {}
    num, den, length = 0, 1, 1  # length of the expansion of num/den
    while True:
        j = len(frames)
        if text and j:
            heads[j] = f"{heads[j - 1]}{path[j - 1]} "
        if j < last:
            if (j, num, den) in shared:
                first, end, old = shared[j, num, den]
                if text:
                    size, count = _totals[-1], _totals[end] - _totals[first]
                else:
                    size, count = len(out), end - first
                if size + count > limit:
                    raise LensfillError(_over_limit(bounds, limit))
                if not text:
                    head = tuple(path[:j])
                    out += [head + t[j:] for t in out[first:end]]
                elif count:
                    out.append("".join(out[first:end]).replace(old, heads[j]))
                    _totals.append(size + count)
            else:
                # open position j just below its first candidate v_0 = num//den + 1, whose
                # tail has l_0 = length - 1 entries, or 1 if num/den is an integer; e = l_0 - v_0
                v = num // den
                e = (length - 1 or 1) - v - 1
                hi = last - j - e
                if bounds[j] < hi:
                    hi = bounds[j]
                cap = ks[j + 2]
                c = (cap + num) // den
                if c < hi:
                    hi = c
                above = ks[j + 1]
                if above > 0:  # value rule: v*den - num >= den*cap/above
                    lo = (num * above + den * cap - 1) // (den * above)
                    if lo > v:
                        v = lo
                frames.append((num, den, hi, e, len(out)))
                path[j] = v
        elif j == last and num <= bounds[j]:  # den = 1; k = 0 has no position
            size = _totals[-1] if text else len(out)
            if size == limit:
                raise LensfillError(_over_limit(bounds, limit))
            path[j] = num
            if text:
                out.append(f"{heads[j]}{num}")
                _totals.append(size + 1)
            else:
                out.append(tuple(path))
        # advance the deepest open position that has a value left
        while frames:
            num, den, hi, e, start = frames[-1]
            j = len(frames) - 1
            v = path[j] + 1
            if v <= hi:
                path[j] = v
                num, den, length = den, v * den - num, v + e
                break
            frames.pop()
            shared[j, num, den] = (start, len(out), heads[j])
        else:
            return out


def dual_expansion(b: Sequence[int]) -> CFTuple:
    """The expansion of p/q given the expansion b of p/(p-q), via the point
    diagram (see _dual_expansion).

    The direct route here reads the pair from b's continuants, p = K(b) and
    p - q = K(b_2..b_k); a report passes its own pair to _dual_expansion.
    """
    b = tuple(b)
    if not b or any(x < 2 for x in b):
        raise LensfillError(f"need a tuple with all entries >= 2, got {b}")
    p = continuant(b)
    return _dual_expansion(b, p, p - continuant(b[1:]))


def _dual_expansion(b: CFTuple, p: int, q: int) -> CFTuple:
    """dual_expansion for b = hj_expand(p, p - q), given the pair (p, q).

    Row i of the diagram carries b_i - 1 dots and each row starts under
    the last dot of the previous one; the column counts plus one give the
    dual expansion.  The columns are read left to right: each row starts in
    the current column, and a row with b_i > 2 closes it, has the next
    b_i - 3 columns to itself and opens the one after with its last dot.
    The direct route expands p/q itself, so a report, which holds its pair,
    ties a to that pair; a mismatch raises TheoremViolation.  The direct
    route runs first, so it refuses an expansion past MAX_CHAIN before the
    diagram is drawn.
    """
    direct = hj_expand(p, q)
    counts = []  # one more than the dots per column
    dots = 0  # in the current column
    for x in b:
        dots += 1
        if x > 2:
            counts.append(dots + 1)
            counts += [2] * (x - 3)
            dots = 1
    counts.append(dots + 1)
    a = tuple(counts)
    if a != direct:
        raise TheoremViolation(f"point diagram of b = {b} gives {a}, direct route {direct}")
    return a


def reverse(t: Sequence[int]) -> CFTuple:
    """Entries in reversed order."""
    return tuple(reversed(t))
