from itertools import product
from math import gcd, isqrt

import pytest

from lensfill.cfrac import bounded_zero_cf, enumerate_zero_cf, eval_cf, hj_expand, reverse
from lensfill.errors import (
    HypothesisViolated,
    InvalidPair,
    NotAFilling,
    PreconditionViolated,
)
from lensfill.exact import continuant
from lensfill.fillings import (
    classify,
    invariants,
    make_params,
    minimal_filling_family,
    rational_ball_criterion,
    unique_one_value,
    uniqueness_predicate,
    zset,
)
from test_cfrac import closure_zero_cf


def coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_make_params_examples():
    pr = make_params(4, 1)
    assert pr.b == (2, 2, 2) and pr.qbar == 1
    pr = make_params(9, 2)
    assert pr.b == (2, 2, 2, 3) and pr.qbar == 5
    pr = make_params(2, 1)
    assert pr.b == (2,) and pr.qbar == 1


def test_make_params_rejects_bad_pairs():
    for p, q in ((6, 4), (3, 3), (2, 5), (1, 1)):
        with pytest.raises(InvalidPair):
            make_params(p, q)


def test_zset_examples():
    assert zset(make_params(9, 2)) == [(1, 2, 2, 1), (2, 2, 1, 3)]
    assert zset(make_params(5, 1)) == [(1, 2, 2, 1)]
    assert zset(make_params(4, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert zset(make_params(2, 1)) == [(0,)]
    assert zset(make_params(7, 6)) == [(0,)]


def test_zset_matches_definition_brute_force():
    # direct filter of all bounded non-negative tuples by admissibility
    # and value 0; also witnesses that no member has a zero entry (k >= 2)
    for p, q in coprime_pairs(50):
        b = hj_expand(p, p - q)
        k = len(b)
        space = 1
        for x in b:
            space *= x + 1
        if k > 7 or space > 300_000:
            continue
        brute = sorted(
            t
            for t in product(*(range(x + 1) for x in b))
            if (v := eval_cf(t)).admissible and v.value == 0
        )
        assert zset(make_params(p, q)) == brute
        if k >= 2:
            assert all(min(t) >= 1 for t in brute)


def test_zset_matches_catalan_filter():
    for p, q in coprime_pairs(30):
        b = hj_expand(p, p - q)
        k = len(b)
        if k > 9:
            continue
        expected = sorted(
            t for t in closure_zero_cf(k) if all(x <= bi for x, bi in zip(t, b))
        ) if k >= 2 else [(0,)]
        assert zset(make_params(p, q)) == expected


def test_zset_count_at_depth_twelve():
    # b = (6,) * 12, p = 1,311,738,121; count from the unpruned search
    b = (6,) * 12
    pr = make_params(continuant(b), continuant(b) - continuant(b[1:]))
    assert pr.b == b
    assert len(zset(pr)) == 47_866


def test_build_report_searches_once(monkeypatch):
    import lensfill.fillings as fillings_module
    from lensfill.report import build_report

    calls = []

    def counted(bounds):
        calls.append(tuple(bounds))
        return bounded_zero_cf(bounds)

    monkeypatch.setattr(fillings_module, "bounded_zero_cf", counted)
    # 24/5 = [5, 5] certifies a unique filling; 8^2 = 1 mod 21 pairs reversals
    for p, q in ((24, 5), (21, 8), (9, 2)):
        calls.clear()
        build_report(p, q)
        assert calls == [make_params(p, q).b], (p, q)


def test_staircase_tuple_always_present():
    for p, q in coprime_pairs(100):
        pr = make_params(p, q)
        k = len(pr.b)
        staircase = (1,) + (2,) * (k - 2) + (1,) if k >= 2 else (0,)
        assert staircase in zset(pr)


def test_invariants_examples():
    pr = make_params(89, 34)
    assert pr.b == (2, 3, 3, 3, 3)
    d = invariants(pr, (1, 3, 2, 1, 3))
    assert d.chi == 4 and d.b2 == 3 and d.handle_counts == (1, 0, 1, 2, 0)

    d = invariants(make_params(9, 2), (2, 2, 1, 3))
    assert d.b2 == 0 and d.chi == 1 and d.handle_counts == (0, 0, 1, 0)

    for p in (2, 3, 7, 12):
        d = invariants(make_params(p, p - 1), (0,))
        assert d.chi == p and d.b2 == p - 1 and d.handle_counts == (p,)


def test_invariants_rejects_non_members():
    pr = make_params(9, 2)
    with pytest.raises(NotAFilling):
        invariants(pr, (1, 2, 1))  # wrong length
    with pytest.raises(NotAFilling):
        invariants(pr, (3, 1, 2, 2))  # exceeds bound at position 1
    with pytest.raises(NotAFilling):
        invariants(pr, (2, 2, 2, 3))  # value is not 0


def test_classify_examples():
    cls = classify(make_params(4, 1))
    assert [[d.n for d in c.representatives] for c in cls] == [[(1, 2, 1)], [(2, 1, 2)]]

    cls = classify(make_params(9, 2))
    assert [[d.n for d in c.representatives] for c in cls] == [
        [(1, 2, 2, 1)],
        [(2, 2, 1, 3)],
    ]


def test_classify_pairs_reversals_when_q_selfinverse():
    # L(8, 3): 3*3 = 9 = 1 mod 8, and the bound (2,2,3,2,2) is a palindrome
    pr = make_params(8, 3)
    assert (pr.q * pr.q) % pr.p == 1
    zs = zset(pr)
    cls = classify(pr)
    assert sum(len(c.representatives) for c in cls) == len(zs)
    for c in cls:
        ns = [d.n for d in c.representatives]
        if len(ns) == 2:
            assert ns[1] == reverse(ns[0]) and ns[0] != ns[1]
            assert ns[0] < ns[1]
        else:
            rn = reverse(ns[0])
            assert rn == ns[0] or (pr.q * pr.q) % pr.p != 1


def test_classify_counts_lens_p_1():
    for p in range(2, 101):
        cls = classify(make_params(p, 1))
        assert len(cls) == (2 if p == 4 else 1), p


def test_minimal_filling_family_examples():
    pr = make_params(89, 34)
    assert minimal_filling_family(pr, 0) == (1, 3, 2, 1, 3)
    assert minimal_filling_family(pr, 1) == (1, 2, 3, 1, 2)
    chi0 = invariants(pr, minimal_filling_family(pr, 0)).chi
    chi1 = invariants(pr, minimal_filling_family(pr, 1)).chi
    assert chi1 - chi0 == 1
    with pytest.raises(HypothesisViolated):
        minimal_filling_family(pr, 2)
    with pytest.raises(HypothesisViolated):
        minimal_filling_family(make_params(9, 2), 0)  # b_2 = 2 < 3


def test_minimal_filling_family_other_instance():
    # expansion (2,3,3,3,4) belongs to the pair (123, 47)
    pr = make_params(123, 47)
    assert pr.b == (2, 3, 3, 3, 4)
    for r in (0, 1):
        n = minimal_filling_family(pr, r)
        assert n in zset(pr)
        assert invariants(pr, n).chi == 5 + sum(x - 3 for x in pr.b) + r


def test_unique_one_value_examples():
    assert unique_one_value((2, 1, 2)) == (2, 1)
    assert unique_one_value((2, 2, 1, 3)) == (3, 2)


def test_unique_one_value_preconditions():
    with pytest.raises(PreconditionViolated):
        unique_one_value((1, 1))  # too short
    with pytest.raises(PreconditionViolated):
        unique_one_value((1, 2, 2, 1))  # two entries equal to 1
    with pytest.raises(PreconditionViolated):
        unique_one_value((2, 2, 2))  # not a zero tuple


def test_unique_one_value_exhaustive():
    # every qualifying zero tuple of length <= 9 decomposes as m^2/(m*nn+1)
    seen = 0
    for k in range(3, 10):
        for n in enumerate_zero_cf(k):
            if sum(1 for x in n if x == 1) == 1:
                m, nn = unique_one_value(n)
                assert gcd(m, nn) == 1 and m >= 2 and nn >= 1
                seen += 1
    assert seen > 100


def test_rational_ball_criterion_examples():
    assert rational_ball_criterion(9, 2) == (3, 1)
    assert rational_ball_criterion(4, 1) == (2, 1)
    assert rational_ball_criterion(5, 1) is None
    assert rational_ball_criterion(4, 3) is None  # h = 2 shares a factor with m = 2
    assert rational_ball_criterion(9, 5) == (3, 2)
    with pytest.raises(InvalidPair):
        rational_ball_criterion(6, 4)
    with pytest.raises(InvalidPair, match=r"p, q must be ints, got 4\.0, 1"):
        rational_ball_criterion(4.0, 1)  # not a TypeError from gcd


def test_rational_ball_matches_handle_counts():
    # b2 = 0 occurs among the fillings iff the witness pair exists
    for p, q in coprime_pairs(120):
        pr = make_params(p, q)
        has_ball = any(sum(pr.b) - sum(n) == 1 for n in zset(pr))
        assert has_ball == (rational_ball_criterion(p, q) is not None), (p, q)


def test_uniqueness_predicate_examples():
    assert uniqueness_predicate(5, 1) is True
    assert zset(make_params(5, 1)) == [(1, 2, 2, 1)]
    assert uniqueness_predicate(26, 5) is False  # 26/5 = [6,2,2,2,2]
    assert hj_expand(26, 5) == (6, 2, 2, 2, 2)
    assert uniqueness_predicate(24, 5) is True  # 24/5 = [5,5]
    assert hj_expand(24, 5) == (5, 5)


def test_reversal_symmetry_of_fillings():
    for p, q in coprime_pairs(120):
        pr = make_params(p, q)
        prbar = make_params(p, pr.qbar)
        assert prbar.b == reverse(pr.b)
        assert sorted(reverse(n) for n in zset(pr)) == zset(prbar)


def test_square_lens_spaces_have_two_fillings():
    for m in range(2, 16):
        assert len(zset(make_params(m * m, m - 1))) == 2
