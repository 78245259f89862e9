import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensfill.cfrac import (
    blowdown,
    blowup,
    bounded_zero_cf,
    dual_expansion,
    enumerate_zero_cf,
    eval_cf,
    hj_expand,
    is_admissible_matrix,
    reverse,
    strict_blowup_sequence,
)
from lensfill import cfrac, suites
from lensfill.errors import ConsistencyViolated, InvalidInput, InvalidPair, NotBlowdownable
from lensfill.exact import continuant, mod_inverse
from lensfill.fillings import make_params, zset


def eval_oracle(t):
    """Independent evaluation: top-down Fractions, denominators checked.

    Returns (admissible, value, first bad position) like eval_cf but
    computed the naive way.
    """
    k = len(t)
    value = None
    for i in range(k, 0, -1):
        if i < k:
            if value <= 0:
                # scan deeper tails for the earliest failure bottom-up
                return False, None, i + 1
            value = Fraction(t[i - 1]) - 1 / value
        else:
            value = Fraction(t[i - 1])
    if k >= 2 and value is not None:
        # the last computed tail is [t_1..t_k]; the denominators were the
        # deeper tails, all already checked, except [t_2..t_k]
        pass
    return True, value, None


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


def test_eval_examples():
    v = eval_cf((1, 1))
    assert v.admissible and v.value == 0
    v = eval_cf((2, 1, 2))
    assert v.admissible and v.value == 0
    v = eval_cf((1, 0, 1))
    assert not v.admissible and v.position == 2 and v.value is None
    v = eval_cf((0,))
    assert v.admissible and v.value == 0
    v = eval_cf((7,))
    assert v.admissible and v.value == 7
    v = eval_cf(())
    assert v.admissible and v.value is None and v.position is None
    v = eval_cf((1, 0))
    assert not v.admissible and v.position == 2
    v = eval_cf((5, 2, 0))
    assert not v.admissible and v.position == 3


def test_eval_rejects_negative_entries():
    with pytest.raises(ValueError):
        eval_cf((2, -1))


def test_eval_matches_fraction_oracle_exhaustively():
    for k in range(1, 6):
        for t in product(range(0, 5), repeat=k):
            got = eval_cf(t)
            tails = eval_oracle_full(t)
            if tails is None:
                assert not got.admissible
                # position = largest index whose tail is the first bottom-up failure
                bad = None
                value = None
                for i in range(k, 0, -1):
                    if value is None:
                        value = Fraction(t[i - 1])
                    else:
                        value = Fraction(t[i - 1]) - 1 / value
                    if i >= 2 and value <= 0:
                        bad = i
                        break
                assert got.position == bad
            else:
                assert got.admissible
                assert got.value == tails[1]
                assert all(tails[i] > 0 for i in range(2, k + 1))
                # numerator and denominator are consecutive continuants
                assert got.value == Fraction(continuant(t), continuant(t[1:]))


def test_hj_expand_examples():
    assert hj_expand(4, 3) == (2, 2, 2)
    assert hj_expand(9, 2) == (5, 2)
    assert hj_expand(2, 1) == (2,)
    for p in range(2, 51):
        assert hj_expand(p, p - 1) == (2,) * (p - 1)


def test_hj_expand_rejects_bad_pairs():
    for p, q in ((6, 4), (3, 3), (2, 5), (5, 0), (0, 1), (-4, 1)):
        with pytest.raises(InvalidPair):
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
                v = eval_cf(hj_expand(p, q))
                assert v.admissible and v.value == Fraction(p, q)


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


def test_admissibility_matrix_examples():
    assert is_admissible_matrix((1, 1)) is True
    assert is_admissible_matrix((1, 1, 1)) is False
    assert is_admissible_matrix((2, 2)) is True
    assert is_admissible_matrix((1,)) is True
    with pytest.raises(ValueError):
        is_admissible_matrix((0, 2))


def test_admissibility_matrix_vs_evaluation_exhaustive():
    # The matrix criterion is reversal-symmetric, suffix evaluation is not:
    # (1,1,2) evaluates with positive denominators (value -1) but its
    # matrix is indefinite.  Exhaustively over positive tuples of length
    # <= 8 with entries <= 6, the exact relationship is
    #   matrix(t)  <=>  eval(t) and eval(reverse(t)) both admissible
    #              <=>  eval(t) admissible with value >= 0,
    # and on tuples of value 0 the two verdicts coincide outright.
    for k in range(1, 9):
        for t in product(range(1, 7), repeat=k):
            m = is_admissible_matrix(t)
            e = eval_cf(t)
            er = eval_cf(t[::-1])
            assert m == (e.admissible and er.admissible), t
            assert m == (e.admissible and e.value >= 0), t
            if e.admissible and e.value == 0:
                assert m, t


def test_admissibility_matrix_separating_witness():
    e = eval_cf((1, 1, 2))
    assert e.admissible and e.value == -1
    assert is_admissible_matrix((1, 1, 2)) is False
    assert eval_cf((2, 1, 1)).admissible is False


def test_blowdown_examples():
    assert blowdown((1, 2, 1), 3) == (1, 1)
    assert blowdown((2, 1, 2), 2) == (1, 1)
    assert blowdown((1, 1), 1) == (0,)
    assert blowdown((1, 1), 2) == (0,)
    with pytest.raises(NotBlowdownable):
        blowdown((2, 1, 2), 1)
    with pytest.raises(NotBlowdownable):
        blowdown((1,), 1)
    with pytest.raises(NotBlowdownable):
        blowdown((1, 2), 5)


def test_blowup_examples():
    assert blowup((1, 1), 2) == (2, 1, 2)
    assert blowup((1, 1), 3) == (1, 2, 1)
    assert blowup((0,), 2) == (1, 1)
    assert blowup((0,), 1) == (1, 1)
    with pytest.raises(ValueError):
        blowup((1, 1), 4)


def test_blowup_blowdown_inverse_on_zero_tuples():
    for k in range(1, 11):
        for t in enumerate_zero_cf(k):
            for s in range(1, k + 2):
                up = blowup(t, s)
                assert blowdown(up, s) == t
                v = eval_cf(up)
                assert v.admissible and v.value == 0


def test_blowdown_then_blowup_identity():
    for k in range(2, 11):
        for t in enumerate_zero_cf(k):
            for s in range(1, k + 1):
                if t[s - 1] == 1:
                    down = blowdown(t, s)
                    assert blowup(down, s) == t
                    v = eval_cf(down)
                    assert v.admissible and v.value == 0


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
        assert enumerate_zero_cf(k) == closure_zero_cf(k), k


def test_enumerate_zero_cf_rejects_empty_length():
    with pytest.raises(ValueError):
        enumerate_zero_cf(0)


def test_enumerate_zero_cf_small():
    assert enumerate_zero_cf(1) == {(0,)}
    assert enumerate_zero_cf(2) == {(1, 1)}
    assert enumerate_zero_cf(3) == {(1, 2, 1), (2, 1, 2)}
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
            if (v := eval_cf(t)).admissible and v.value == 0
        }
        assert enumerate_zero_cf(k) == brute


def test_no_zero_entries_and_bounded_by_length():
    for k in range(2, 11):
        for t in enumerate_zero_cf(k):
            assert all(1 <= x <= k for x in t)


def test_zero_cf_closed_under_reversal():
    for k in range(2, 11):
        zs = enumerate_zero_cf(k)
        assert {reverse(t) for t in zs} == zs


def test_strict_blowup_sequence_rebuilds():
    for k in range(1, 10):
        for t in enumerate_zero_cf(k):
            cur = (0,)
            for s in strict_blowup_sequence(t):
                assert s >= 2
                cur = blowup(cur, s)
            assert cur == t
    with pytest.raises(ValueError):
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


def test_bounded_zero_cf_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert bounded_zero_cf((2,) * 5000) == [(1,) + (2,) * 4998 + (1,)]
    assert sys.getrecursionlimit() == limit


def hj_length(x):
    """Number of entries of the expansion ceil(x), then entries >= 2, of a
    positive Fraction x."""
    n = 1
    while x.denominator != 1:
        x = 1 / (-(-x.numerator // x.denominator) - x)
        n += 1
    return n


def test_hj_expansion_is_shortest_admissible_representation():
    # the length rule of bounded_zero_cf, by brute force on Fractions: an
    # admissible tuple of positive value x has at least as many entries as
    # the expansion of x, and x >= 1/length
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
        if (v := eval_cf(t)).admissible and v.value == 0
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=7))
@example([1, 1, 1])  # tail [1, 1] = 0: every branch is pruned
@example([3, 2, 0, 4])  # tail [0, 4] < 0 in the middle
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
    assert eval_cf(fake).value != 0
    search = suites.enumerate_zero_cf

    def swapped(k):
        got = search(k)
        if k == 9:  # same length, same count, one tuple wrong
            got.remove(staircase)
            got.add(fake)
        return got

    monkeypatch.setattr(suites, "enumerate_zero_cf", swapped)
    res = suites.suite_catalan(kmax=9)
    assert not res.ok and res.detail == "k=9" and res.cases == 7
    assert str(staircase) in res.counterexample


def test_suite_catalan_fails_on_a_repeated_triangulation_tuple(monkeypatch):
    census = suites._triangulation_tuples

    def repeating(k):
        yield from census(k)
        if k == 5:
            yield (1, 2, 2, 2, 1)

    monkeypatch.setattr(suites, "_triangulation_tuples", repeating)
    res = suites.suite_catalan(kmax=9)
    assert not res.ok and res.detail == "k=5" and res.cases == 3
    assert res.counterexample == "(1, 2, 2, 2, 1) missing or repeated"


def test_suite_catalan_fails_on_an_extra_tuple(monkeypatch):
    search = suites.enumerate_zero_cf
    monkeypatch.setattr(suites, "enumerate_zero_cf", lambda k: search(k) | {(2,) * k})
    res = suites.suite_catalan(kmax=9)
    assert not res.ok and res.detail == "k=2"
    assert res.counterexample == "|set| = 2, Catalan = 1, 1 not from a triangulation"


def test_dual_expansion_examples():
    assert dual_expansion((2, 2, 2)) == (4,)
    assert dual_expansion((2, 2, 2, 3)) == (5, 2)
    for p in range(2, 30):
        assert dual_expansion((p,)) == (2,) * (p - 1)
    with pytest.raises(InvalidInput):
        dual_expansion((2, 1, 2))
    with pytest.raises(InvalidInput):
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
    with pytest.raises(ConsistencyViolated) as info:
        dual_expansion((2, 2, 2, 3))
    assert str(info.value) == "point diagram of b = (2, 2, 2, 3) gives (5, 2), direct route (4, 2)"


def test_reverse_examples():
    assert reverse((5, 2)) == (2, 5)
    assert reverse((1, 2, 1)) == (1, 2, 1)
    assert reverse(()) == ()
