import random
import re
import sys
import time
from fractions import Fraction
from itertools import product
from math import ceil, comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lensfill.cfrac import (
    blowdown,
    bounded_zero_cf,
    dual_expansion,
    enumerate_zero_cf,
    eval_cf,
    hj_expand,
    reverse,
    strict_blowup_sequence,
)
from lensfill import cfrac, suites
from lensfill.errors import LensfillError, TheoremViolation
from lensfill.exact import continuant, mod_inverse
from lensfill.fillings import make_params, zset


def eval_oracle_full(t):
    """All tail values as Fractions, None past the first failure."""
    tails = {}
    value = None
    for i in range(len(t), 0, -1):
        if value is not None and value <= 0:
            return None
        if value is None:
            value = Fraction(t[i - 1])
        else:
            value = Fraction(t[i - 1]) - 1 / value
        tails[i] = value
    return tails


def blowup(t, s):
    """Insert a 1 at the 1-based position s (1..k+1) and add 1 to each
    neighbor that exists; blowdown at s undoes it, and it is strict when s > 1."""
    t = tuple(t)
    assert 1 <= s <= len(t) + 1, (t, s)
    out = list(t[: s - 1]) + [1] + list(t[s - 1 :])
    if s >= 2:
        out[s - 2] += 1
    if s <= len(t):
        out[s] += 1
    return tuple(out)


def test_eval_examples():
    assert eval_cf((1, 1)) == 0
    assert eval_cf((2, 1, 2)) == 0
    assert eval_cf((1, 0, 1)) is None
    assert eval_cf((0,)) == 0
    assert eval_cf((7,)) == 7
    assert eval_cf(()) is None
    assert eval_cf((1, 0)) is None
    assert eval_cf((5, 2, 0)) is None


def test_eval_rejects_negative_entries():
    with pytest.raises(LensfillError, match="tuple entries must be non-negative ints, got -1"):
        eval_cf((2, -1))


def test_eval_matches_fraction_oracle_exhaustively():
    for k in range(1, 6):
        for t in product(range(0, 5), repeat=k):
            got = eval_cf(t)
            tails = eval_oracle_full(t)
            if tails is None:
                assert got is None
            else:
                assert got == tails[1]
                assert all(tails[i] > 0 for i in range(2, k + 1))
                # numerator and denominator are consecutive continuants
                assert got == Fraction(continuant(t), continuant(t[1:]))


def test_zero_core_agrees_with_eval_cf_exhaustively():
    # the package's zero tests read _continuant_pair, not eval_cf's Fraction;
    # inadmissible tuples and the empty one are included
    for k in range(0, 6):
        for t in product(range(0, 5), repeat=k):
            zero = eval_cf(t) == 0
            assert cfrac._is_zero_tuple(t) == zero, t
            tails = eval_oracle_full(t) if t else None
            assert zero == (tails is not None and tails[1] == 0), t
            pair = cfrac._continuant_pair(t)
            assert (pair is None) == (eval_cf(t) is None), t
            if pair is not None:
                assert pair == (continuant(t), continuant(t[1:])), t
    with pytest.raises(LensfillError, match="got -1"):
        cfrac._is_zero_tuple((2, -1))


def test_hj_expand_examples():
    assert hj_expand(4, 3) == (2, 2, 2)
    assert hj_expand(9, 2) == (5, 2)
    assert hj_expand(2, 1) == (2,)
    for p in range(2, 51):
        assert hj_expand(p, p - 1) == (2,) * (p - 1)


def test_hj_expand_rejects_bad_pairs():
    for p, q in ((6, 4), (3, 3), (2, 5), (5, 0), (0, 1), (-4, 1)):
        with pytest.raises(LensfillError, match=f"need coprime p > q >= 1, got \\({p}, {q}\\)"):
            hj_expand(p, q)


def test_hj_expand_round_trip_large_sweep():
    # all coprime pairs, p <= 2000: expansion entries >= 2 and the value
    # comes back exactly; also the numerator/denominator are consecutive
    # continuants.
    for p in range(2, 2001):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            b = hj_expand(p, q)
            assert all(x >= 2 for x in b)
            assert continuant(b) == p
            assert continuant(b[1:]) == q
    # spot-check full Fraction evaluation on a thinner sweep
    for p in range(2, 200):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert eval_cf(hj_expand(p, q)) == Fraction(p, q)


def test_reversal_gives_inverse_denominator():
    # [a_h, ..., a_1] = p / qbar where q * qbar = 1 mod p
    for p in range(2, 501):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            a = hj_expand(p, q)
            rev = reverse(a)
            qbar = mod_inverse(q, p)
            assert continuant(rev) == p
            assert continuant(rev[1:]) == qbar


def test_admissibility_matrix_separating_witness():
    # admissibility of the suffix evaluation is not reversal-symmetric, so it
    # differs from the tridiagonal matrix criterion, which is: (1, 1, 2) is
    # admissible with value -1 (tail values 2 and 1/2 are positive), while its
    # reversal is not (its tail [1, 1] is 0)
    assert eval_cf((1, 1, 2)) == -1
    assert reverse((1, 1, 2)) == (2, 1, 1)
    assert eval_cf((2, 1, 1)) is None


def test_blowdown_examples():
    assert blowdown((1, 2, 1), 3) == (1, 1)
    assert blowdown((2, 1, 2), 2) == (1, 1)
    assert blowdown((1, 1), 1) == (0,)
    assert blowdown((1, 1), 2) == (0,)
    with pytest.raises(LensfillError, match="entry at position 1 is 2, not 1"):
        blowdown((2, 1, 2), 1)
    with pytest.raises(LensfillError, match="position 1 out of range for length 1"):
        blowdown((1,), 1)
    with pytest.raises(LensfillError, match="position 5 out of range for length 2"):
        blowdown((1, 2), 5)


def test_blowup_examples():
    assert blowup((1, 1), 2) == (2, 1, 2)
    assert blowup((1, 1), 3) == (1, 2, 1)
    assert blowup((0,), 2) == (1, 1)
    assert blowup((0,), 1) == (1, 1)


def test_blowup_blowdown_inverse_on_zero_tuples():
    for k in range(1, 11):
        for t in enumerate_zero_cf(k):
            for s in range(1, k + 2):
                up = blowup(t, s)
                assert blowdown(up, s) == t
                assert eval_cf(up) == 0


def test_blowdown_then_blowup_identity():
    for k in range(2, 11):
        for t in enumerate_zero_cf(k):
            for s in range(1, k + 1):
                if t[s - 1] == 1:
                    down = blowdown(t, s)
                    assert blowup(down, s) == t
                    assert eval_cf(down) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=9), st.data())
def test_blowdown_undoes_blowup_on_any_tuple(t, data):
    s = data.draw(st.integers(1, len(t) + 1), label="s")
    assert blowdown(blowup(t, s), s) == tuple(t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=9), st.data())
def test_strict_blowup_keeps_admissibility_and_value(t, data):
    v = eval_cf(t)
    assume(v is not None)
    s = data.draw(st.integers(2, len(t) + 1), label="s")
    assert eval_cf(blowup(t, s)) == v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=12))
def test_value_is_the_ratio_of_consecutive_continuants(t):
    v = eval_cf(t)
    assume(v is not None)
    assert v == Fraction(continuant(t), continuant(t[1:]))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def closure_zero_cf(k):
    """Zero tuples of length k as the closure of {(0)} under strict blowups
    (insertion position >= 2), level by level, deduplicating as it goes."""
    level = {(0,)}
    for j in range(1, k):
        level = {blowup(t, s) for t in level for s in range(2, j + 2)}
    return level


def test_enumerate_zero_cf_equals_closure():
    for k in range(1, 13):
        assert set(enumerate_zero_cf(k)) == closure_zero_cf(k), k


def test_enumerate_zero_cf_rejects_empty_length():
    with pytest.raises(LensfillError, match="length must be >= 1, got 0"):
        enumerate_zero_cf(0)


def test_enumerate_zero_cf_small():
    assert set(enumerate_zero_cf(1)) == {(0,)}
    assert set(enumerate_zero_cf(2)) == {(1, 1)}
    assert set(enumerate_zero_cf(3)) == {(1, 2, 1), (2, 1, 2)}
    assert len(enumerate_zero_cf(4)) == 5 == catalan(3)


def test_enumerate_zero_cf_counts():
    for k in range(2, 13):
        assert len(enumerate_zero_cf(k)) == catalan(k - 1)


def test_enumerate_zero_cf_equals_brute_force():
    # entries of a zero tuple of length k never exceed k, so filtering all
    # positive tuples with entries <= k is a complete independent census
    for k in range(2, 8):
        brute = {
            t
            for t in product(range(1, k + 1), repeat=k)
            if eval_cf(t) == 0
        }
        assert enumerate_zero_cf(k) == sorted(brute)  # lexicographic, no repeats


def test_no_zero_entries_and_bounded_by_length():
    for k in range(2, 11):
        for t in enumerate_zero_cf(k):
            assert all(1 <= x <= k for x in t)


def test_zero_cf_closed_under_reversal():
    for k in range(2, 11):
        zs = set(enumerate_zero_cf(k))
        assert {reverse(t) for t in zs} == zs


def test_strict_blowup_sequence_rebuilds():
    for k in range(1, 10):
        for t in enumerate_zero_cf(k):
            cur = (0,)
            for s in strict_blowup_sequence(t):
                assert s >= 2
                cur = blowup(cur, s)
            assert cur == t
    with pytest.raises(LensfillError, match=r"\(2, 2\) is not an admissible zero tuple"):
        strict_blowup_sequence((2, 2))


def test_bounded_zero_cf_equals_filter():
    cases = [
        (2, 2, 2),
        (2, 2, 2, 3),
        (3, 3, 3),
        (2, 3, 3, 3, 3),
        (5, 2, 2, 2),
        (2,) * 7,
        (4, 4, 4, 4),
    ]
    for bounds in cases:
        k = len(bounds)
        expected = sorted(t for t in closure_zero_cf(k) if all(x <= b for x, b in zip(t, bounds)))
        assert bounded_zero_cf(bounds) == expected
    assert bounded_zero_cf((7,)) == [(0,)]
    assert bounded_zero_cf(()) == []


def test_bounded_zero_cf_large_length():
    # far beyond Catalan reach: 99 twos bound only the single staircase tuple
    bounds = (2,) * 99
    assert bounded_zero_cf(bounds) == [(1,) + (2,) * 97 + (1,)]


def test_bounded_zero_cf_refuses_more_than_the_tuple_limit(monkeypatch):
    monkeypatch.setattr(cfrac, "MAX_TUPLES", 5)
    assert len(bounded_zero_cf((3,) * 4)) == 5  # Catalan(3) = 5, exactly the limit
    with pytest.raises(LensfillError, match=r"bounded by \(4, 4, 4, 4, 4\) number more than the limit of 5$"):
        bounded_zero_cf((4,) * 5)  # Catalan(4) = 14


def test_bounded_zero_cf_refuses_at_every_limit_on_both_emit_paths(monkeypatch):
    # bounds (6,)*7 never bind, so tail values repeat at a position and a
    # refusal can come while extending from a shared span as well as at a
    # fresh tuple
    bounds = (6,) * 7
    full = bounded_zero_cf(bounds)
    assert len(full) == 132  # Catalan(6)
    raise_lines = set()
    for limit in range(1, 132):
        monkeypatch.setattr(cfrac, "MAX_TUPLES", limit)
        message = (
            f"the zero tuples bounded by (6, 6, 6, 6, 6, 6, 6) number more than "
            f"the limit of {limit}"
        )
        with pytest.raises(LensfillError) as info:
            bounded_zero_cf(bounds)
        assert str(info.value) == message
        raise_lines.add(info.traceback[-1].lineno)
    assert len(raise_lines) == 2  # the shared extension and the fresh append
    monkeypatch.setattr(cfrac, "MAX_TUPLES", 132)
    assert bounded_zero_cf(bounds) == full


def text_blocks(search, *args):
    """The blocks and running counts of a search in text mode, checked against
    each other: every block is one or more whole tuples."""
    totals = []
    blocks = search(*args, _totals=totals)
    assert len(totals) == len(blocks) + 1 and totals[0] == 0
    for block, before, after in zip(blocks, totals, totals[1:]):
        assert block.startswith("\n") and block.count("\n") == after - before > 0
    return blocks, totals[-1]


def formatted(tuples):
    return "".join("\n" + " ".join(map(str, t)) for t in tuples)


def test_text_items_equal_the_formatted_tuples_of_every_length():
    for k in range(1, 13):
        tuples = enumerate_zero_cf(k)
        blocks, count = text_blocks(enumerate_zero_cf, k)
        assert "".join(blocks) == formatted(tuples) and count == len(tuples), k
    assert len(blocks) < count // 10  # a share copies its span as one block: 3,973 for 58,786


def test_text_items_equal_the_formatted_tuples_under_any_bounds():
    # a zero tuple of length k has entries <= k - 1, so only the longer random
    # bounds put two-digit entries in the head of a share
    rng = random.Random(20031215)
    chains = [make_params(p, q).b for p in range(2, 81) for q in range(1, p) if gcd(p, q) == 1]
    randoms = [tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 9))) for _ in range(2000)]
    randoms += [tuple(rng.randint(0, 12) for _ in range(rng.randint(10, 12))) for _ in range(200)]
    emitted = 0
    for bounds in chains + randoms:
        tuples = bounded_zero_cf(bounds)
        emitted += len(tuples)
        blocks, count = text_blocks(bounded_zero_cf, bounds)
        assert "".join(blocks) == formatted(tuples) and count == len(tuples), bounds
    assert emitted > 10_000


def test_text_items_are_refused_at_every_limit_on_both_emit_paths(monkeypatch):
    bounds = (6,) * 7
    raise_lines = set()
    for limit in range(1, 132):
        monkeypatch.setattr(cfrac, "MAX_TUPLES", limit)
        with pytest.raises(LensfillError, match=f"more than the limit of {limit}$") as info:
            bounded_zero_cf(bounds, _totals=[])
        raise_lines.add(info.traceback[-1].lineno)
    assert len(raise_lines) == 2  # the shared extension and the fresh append
    monkeypatch.setattr(cfrac, "MAX_TUPLES", 132)
    assert text_blocks(bounded_zero_cf, bounds)[1] == 132


def test_bounded_zero_cf_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert bounded_zero_cf((2,) * 5000) == [(1,) + (2,) * 4998 + (1,)]
    assert sys.getrecursionlimit() == limit


def hj_length(x):
    """Number of entries of the expansion ceil(x), then entries >= 2, of a
    non-negative Fraction x."""
    n = 1
    while x.denominator != 1:
        x = 1 / (-(-x.numerator // x.denominator) - x)
        n += 1
    return n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fractions(min_value=0, max_value=50, max_denominator=10**6))
@example(Fraction(7))
@example(Fraction(1, 5))
def test_hj_length_identities_behind_the_search_interval(x):
    # raising a candidate by one maps its tail y to y/(1+y), one entry longer;
    # the first candidate floor(x) + 1 leaves 1/(ceil(x) - x), one entry shorter
    if x > 0:
        assert hj_length(x / (1 + x)) == hj_length(x) + 1
    if x.denominator != 1:
        assert hj_length(1 / (ceil(x) - x)) == hj_length(x) - 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=8))
@example([7] * 8)
def test_zero_tuple_tails_are_at_most_the_bound_tails(b):
    # the value rule of bounded_zero_cf, on Fractions: for admissible n <= b
    # every tail [n_i..n_k] is at most [b_i..b_k], since tail values are
    # monotone in their entries
    bound_tails = eval_oracle_full(b)
    for n in bounded_zero_cf(b):
        tails = eval_oracle_full(n)
        assert tails is not None and tails[1] == 0, n
        for i in range(1, len(b) + 1):
            assert tails[i] <= bound_tails[i], (n, i)


def test_hj_expansion_is_shortest_admissible_representation():
    # the length rule of bounded_zero_cf, by brute force on Fractions: an
    # admissible tuple of positive value x has at least as many entries as
    # the expansion of x, so a tail of value x fits in m entries iff its
    # expansion does; also x >= 1/length
    assert hj_length(Fraction(1, 5)) == 5 and hj_length(Fraction(7, 1)) == 1
    checked = 0
    for k in range(1, 6):
        for t in product(range(1, 7), repeat=k):
            tails = eval_oracle_full(t)
            if tails is None or tails[1] <= 0:
                continue
            x = tails[1]
            assert k >= hj_length(x), t
            assert x >= Fraction(1, k), t
            checked += 1
    assert checked > 1000
    assert eval_oracle_full((1, 2, 2, 2, 2))[1] == Fraction(1, 5)


def brute_bounded_zero_cf(bounds):
    """Every tuple 0 <= n <= bounds, filtered by evaluation."""
    return [
        t
        for t in product(*(range(b + 1) for b in bounds))
        if eval_cf(t) == 0
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=7))
@example([1, 1, 1])  # tail [1, 1] = 0: every branch is pruned
@example([3, 2, 0, 4])  # tail [0, 4] < 0 in the middle
# K(bounds_2..bounds_k) <= 0, where the value rule is skipped
@example([1, 1, 1, 4])
@example([3, 0, 5, 5])
@example([2, 1, 1, 2, 3])
@example([5, 1, 1, 1, 4])
# completions below a tail value depend on the position too
@example([2, 3, 1, 3, 2])
@example([7] * 6)
def test_bounded_zero_cf_equals_brute_force(bounds):
    assert bounded_zero_cf(bounds) == brute_bounded_zero_cf(bounds)


def unpruned_bounded_zero_cf(bounds):
    """The search without the continuant cap, recursive, as first written."""
    k = len(bounds)
    if k == 0:
        return []
    out = []
    path = []

    def extend(i, num, den):
        # the tail [n_i .. n_k] must evaluate to num/den, with den > 0
        if i == k:
            v, r = divmod(num, den)
            if not r and 0 <= v <= bounds[k - 1]:
                out.append(tuple(path) + (v,))
            return
        for v in range(num // den + 1, bounds[i - 1] + 1):
            path.append(v)
            extend(i + 1, den, v * den - num)
            path.pop()

    extend(1, 0, 1)
    return out


def test_bounded_zero_cf_equals_unpruned_search_all_pairs():
    # chains of every coprime pair p <= 300 reach length 299, far past
    # what the Catalan filter can check
    for p in range(2, 301):
        for q in range(1, p):
            if gcd(p, q) == 1:
                b = hj_expand(p, p - q)
                assert bounded_zero_cf(b) == unpruned_bounded_zero_cf(b), (p, q)


# The polygon-triangulation census (Conway-Coxeter) from lensfill.suites is
# an oracle for the bounded search that never evaluates a continued fraction.
def triangulation_bounded(bounds):
    return sorted(
        t
        for t in suites._triangulation_tuples(len(bounds))
        if all(x <= b for x, b in zip(t, bounds))
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), min_size=2, max_size=9))
@example([1, 1, 1])
@example([9] * 9)
def test_bounded_zero_cf_equals_triangulation_census(bounds):
    assert bounded_zero_cf(bounds) == triangulation_bounded(bounds)


@st.composite
def lowered_anywhere(draw):
    """Bounds of length 10-11 with entries 4..10, one to three of them
    lowered so that they bind."""
    bounds = draw(st.lists(st.integers(4, 10), min_size=10, max_size=11))
    anywhere = st.integers(0, len(bounds) - 1)
    for i in draw(st.lists(anywhere, min_size=1, max_size=3, unique=True)):
        bounds[i] = draw(st.integers(1, bounds[i] - 1))
    return bounds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lowered_anywhere())
@example([10] * 11)
@example([4] * 5 + [1, 4, 2, 4, 4])
def test_bounded_zero_cf_shares_completions_under_binding_bounds(bounds):
    assert bounded_zero_cf(bounds) == triangulation_bounded(bounds)


def test_long_chains_with_few_fillings_are_fast():
    # every tail value is searched once per position, so the dead tails of
    # the long run of twos are not searched again for each prefix
    assert make_params(79746381976, 49285974541).b == (3,) * 20 + (2,) * 480
    for t in (50, 100, 480):
        bounds = (3,) * 20 + (2,) * t
        start = time.perf_counter()
        tuples = bounded_zero_cf(bounds)
        elapsed = time.perf_counter() - start
        assert len(tuples) == 2149
        assert all(a < b for a, b in zip(tuples, tuples[1:]))
        for n in tuples:
            assert eval_cf(n) == 0 and all(x <= b for x, b in zip(n, bounds)), n
    assert elapsed < 5, elapsed  # the t = 480 call


def test_zset_equals_triangulation_census_all_pairs():
    checked = 0
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) == 1:
                pr = make_params(p, q)
                if 2 <= len(pr.b) <= 9:
                    assert zset(pr) == triangulation_bounded(pr.b), (p, q)
                    checked += 1
    assert checked == 824


def test_suite_catalan_fails_on_a_swapped_tuple(monkeypatch):
    staircase, fake = (1,) + (2,) * 7 + (1,), (2,) * 9
    assert eval_cf(fake) != 0
    search = suites.enumerate_zero_cf

    def swapped(k):
        got = search(k)
        if k == 9:  # same length, same count, one tuple wrong
            got[got.index(staircase)] = fake
        return got

    monkeypatch.setattr(suites, "enumerate_zero_cf", swapped)
    with pytest.raises(TheoremViolation, match=rf"^k=9: {re.escape(str(staircase))} missing"):
        suites.suite_catalan(kmax=9)


def test_suite_catalan_fails_on_a_repeated_triangulation_tuple(monkeypatch):
    census = suites._triangulation_tuples

    def repeating(k):
        yield from census(k)
        if k == 5:
            yield (1, 2, 2, 2, 1)

    monkeypatch.setattr(suites, "_triangulation_tuples", repeating)
    with pytest.raises(TheoremViolation, match=r"^k=5: \(1, 2, 2, 2, 1\) missing or repeated$"):
        suites.suite_catalan(kmax=9)


def test_suite_catalan_fails_on_an_extra_tuple(monkeypatch):
    search = suites.enumerate_zero_cf
    monkeypatch.setattr(suites, "enumerate_zero_cf", lambda k: search(k) + [(2,) * k])
    with pytest.raises(
        TheoremViolation, match=r"^k=2: \|set\| = 2, Catalan = 1, 1 not from a triangulation$"
    ):
        suites.suite_catalan(kmax=9)


def test_suite_catalan_fails_on_a_tuple_the_search_emits_twice(monkeypatch):
    # the suite counts the search's list, so a repeat cannot hide in a set
    search = cfrac.bounded_zero_cf

    def repeating(bounds, *, _totals=None):
        got = search(bounds, _totals=_totals)
        return got + got[:1] if len(bounds) == 5 else got

    monkeypatch.setattr(cfrac, "bounded_zero_cf", repeating)
    with pytest.raises(
        TheoremViolation, match=r"^k=5: \|set\| = 15, Catalan = 14, 0 not from a triangulation$"
    ):
        suites.suite_catalan(kmax=6)


def test_dual_expansion_examples():
    assert dual_expansion((2, 2, 2)) == (4,)
    assert dual_expansion((2, 2, 2, 3)) == (5, 2)
    for p in range(2, 30):
        assert dual_expansion((p,)) == (2,) * (p - 1)
    with pytest.raises(LensfillError, match=r"need a tuple with all entries >= 2, got \(2, 1, 2\)"):
        dual_expansion((2, 1, 2))
    with pytest.raises(LensfillError, match=r"need a tuple with all entries >= 2, got \(\)"):
        dual_expansion(())


def test_dual_expansion_sweep_and_length_duality():
    # point diagram against the direct route for every pair p <= 500,
    # plus sum(a_i - 1) = sum(b_j - 1) = h + k - 1
    for p in range(2, 501):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            b = hj_expand(p, p - q)
            a = dual_expansion(b)
            assert a == hj_expand(p, q)
            h, k = len(a), len(b)
            assert sum(x - 1 for x in a) == sum(x - 1 for x in b) == h + k - 1


def test_dual_expansion_raises_when_the_routes_disagree(monkeypatch):
    # a wrong direct route must raise even under python -O, so no assert
    monkeypatch.setattr(cfrac, "hj_expand", lambda p, q: (4, 2))
    with pytest.raises(TheoremViolation, match="point diagram of b") as info:
        dual_expansion((2, 2, 2, 3))
    assert str(info.value) == "point diagram of b = (2, 2, 2, 3) gives (5, 2), direct route (4, 2)"


def test_reverse_examples():
    assert reverse((5, 2)) == (2, 5)
    assert reverse((1, 2, 1)) == (1, 2, 1)
    assert reverse(()) == ()
