from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensfill.cfrac import (
    bounded_zero_cf,
    dual_expansion,
    enumerate_zero_cf,
    eval_cf,
    hj_expand,
    reverse,
)
from lensfill import fillings
from lensfill.errors import LensfillError, TheoremViolation
from lensfill.exact import continuant
from lensfill.fillings import (
    LensParams,
    classify,
    invariants,
    make_params,
    rational_ball_criterion,
    uniqueness_predicate,
    zset,
)
from lensfill.report import build_report
from test_cfrac import closure_zero_cf


def coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def coprime_pair(pmax):
    """Strategy for a coprime pair p > q >= 1 with p <= pmax."""
    return (
        st.integers(2, pmax)
        .flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1)))
        .filter(lambda pq: gcd(*pq) == 1)
    )


def test_make_params_examples():
    pr = make_params(4, 1)
    assert pr.b == (2, 2, 2) and pr.qbar == 1
    pr = make_params(9, 2)
    assert pr.b == (2, 2, 2, 3) and pr.qbar == 5
    pr = make_params(2, 1)
    assert pr.b == (2,) and pr.qbar == 1


def test_lens_params_keeps_the_frozen_record_interface():
    # the repr a frozen dataclass gave, keyword construction, no attribute assignment
    pr = LensParams(p=9, q=2, b=(2, 2, 2, 3), qbar=5)
    assert repr(pr) == "LensParams(p=9, q=2, b=(2, 2, 2, 3), qbar=5)"
    assert pr == make_params(9, 2) and repr(make_params(9, 2)) == repr(pr)
    for name in ("p", "q", "b", "qbar"):
        with pytest.raises(AttributeError):
            setattr(pr, name, 1)
    with pytest.raises(AttributeError):
        pr.extra = 1


def test_make_params_rejects_bad_pairs():
    for p, q in ((6, 4), (3, 3), (2, 5), (1, 1)):
        with pytest.raises(LensfillError, match=f"need coprime p > q >= 1, got \\({p}, {q}\\)"):
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
            if eval_cf(t) == 0
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
    # one search, one classify on its result, and two expansions: p/(p-q) in
    # make_params and p/q in dual_expansion, which uniqueness_predicate reads
    from lensfill import cfrac, report

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, *args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(fillings, "bounded_zero_cf", counted("search", bounded_zero_cf))
    expand = counted("expand", hj_expand)
    monkeypatch.setattr(cfrac, "hj_expand", expand)
    monkeypatch.setattr(fillings, "hj_expand", expand)
    monkeypatch.setattr(report, "classify", counted("classify", classify))
    # 24/5 = [5, 5] certifies a unique filling; 8^2 = 1 mod 21 pairs reversals
    for p, q in ((24, 5), (21, 8), (9, 2)):
        pr = make_params(p, q)
        zs = bounded_zero_cf(pr.b)
        calls.clear()
        report.build_report(p, q)
        assert calls == [
            ("expand", p, p - q),
            ("search", pr.b),
            ("expand", p, q),
            ("classify", pr, zs),
        ], (p, q)


def test_staircase_tuple_always_present():
    for p, q in coprime_pairs(100):
        pr = make_params(p, q)
        k = len(pr.b)
        staircase = (1,) + (2,) * (k - 2) + (1,) if k >= 2 else (0,)
        assert staircase in zset(pr)


def test_invariants_examples():
    pr = make_params(89, 34)
    assert pr.b == (2, 3, 3, 3, 3)
    handles = invariants(pr, (1, 3, 2, 1, 3))
    assert handles == (1, 0, 1, 2, 0) and sum(handles) == 4 and sum(handles) - 1 == 3

    handles = invariants(make_params(9, 2), (2, 2, 1, 3))
    assert handles == (0, 0, 1, 0) and sum(handles) == 1 and sum(handles) - 1 == 0

    for p in (2, 3, 7, 12):
        handles = invariants(make_params(p, p - 1), (0,))
        assert handles == (p,) and sum(handles) == p and sum(handles) - 1 == p - 1


def test_invariants_rejects_non_members():
    pr = make_params(9, 2)
    with pytest.raises(LensfillError, match="is not bounded by"):
        invariants(pr, (1, 2, 1))  # wrong length
    with pytest.raises(LensfillError, match="is not bounded by"):
        invariants(pr, (3, 1, 2, 2))  # exceeds bound at position 1
    with pytest.raises(LensfillError, match="is not an admissible zero tuple"):
        invariants(pr, (2, 2, 2, 3))  # value is not 0


def classes(p, q):
    pr = make_params(p, q)
    return classify(pr, zset(pr))


def test_classify_examples():
    assert classes(4, 1) == [((1, 2, 1),), ((2, 1, 2),)]
    assert classes(9, 2) == [((1, 2, 2, 1),), ((2, 2, 1, 3),)]


def test_classify_pairs_reversals_when_q_selfinverse():
    # L(8, 3): 3*3 = 9 = 1 mod 8, and the bound (2,2,3,2,2) is a palindrome
    pr = make_params(8, 3)
    assert (pr.q * pr.q) % pr.p == 1
    zs = zset(pr)
    cls = classify(pr, zs)
    assert sum(len(c) for c in cls) == len(zs)
    for ns in cls:
        if len(ns) == 2:
            assert ns[1] == reverse(ns[0]) and ns[0] != ns[1]
            assert ns[0] < ns[1]
        else:
            rn = reverse(ns[0])
            assert rn == ns[0] or (pr.q * pr.q) % pr.p != 1


def test_orbits_reject_a_reversal_outside_the_set():
    # L(15, 4): 4*4 = 1 mod 15, and (1,2,3,1,2), (2,1,3,2,1) form one class
    pr = make_params(15, 4)
    zs = zset(pr)
    assert classify(pr, zs) == [((1, 2, 2, 2, 1),), ((1, 2, 3, 1, 2), (2, 1, 3, 2, 1))]
    for dropped in ((1, 2, 3, 1, 2), (2, 1, 3, 2, 1)):
        with pytest.raises(TheoremViolation, match="escapes the bounded set"):
            classify(pr, [n for n in zs if n != dropped])


def test_classify_counts_lens_p_1():
    for p in range(2, 101):
        cls = classes(p, 1)
        assert len(cls) == (2 if p == 4 else 1), p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coprime_pair(2000))
def test_report_rows_and_classes_match_invariants_and_classify(pq):
    # build_report takes b - n inline and its classes as indices into z_set
    pr = make_params(*pq)
    report = build_report(*pq)
    zs = zset(pr)
    assert len(report["fillings"]) == len(zs)
    for n, row in zip(zs, report["fillings"]):
        handles = list(invariants(pr, n))
        assert row["n"] == list(n)
        assert (row["handles"], row["chi"], row["b2"]) == (handles, sum(handles), sum(handles) - 1)
    z_set = report["z_set"]
    assert classify(pr, zs) == [tuple(tuple(z_set[j]) for j in c) for c in report["classes"]]


def minimal_filling_family(b, r):
    """The r-th member of Lisca's family of fillings with chi increasing in
    r, for k = len(b) >= 4, b_2..b_{k-2} >= 3, b_k >= k - 2 and
    0 <= r <= k - 4: n = (1, 2 x r, 3, 2 x (k-4-r), 1, k-2-r), a bounded
    zero tuple whose filling has chi = 5 + sum(b_i - 3) + r."""
    k = len(b)
    return (1,) + (2,) * r + (3,) + (2,) * (k - 4 - r) + (1,) + (k - 2 - r,)


def test_minimal_filling_family_examples():
    pr = make_params(89, 34)
    assert minimal_filling_family(pr.b, 0) == (1, 3, 2, 1, 3)
    assert minimal_filling_family(pr.b, 1) == (1, 2, 3, 1, 2)
    chi0 = sum(invariants(pr, minimal_filling_family(pr.b, 0)))
    chi1 = sum(invariants(pr, minimal_filling_family(pr.b, 1)))
    assert chi1 - chi0 == 1


def test_minimal_filling_family_other_instance():
    # expansion (2,3,3,3,4) belongs to the pair (123, 47)
    pr = make_params(123, 47)
    assert pr.b == (2, 3, 3, 3, 4)
    for r in (0, 1):
        n = minimal_filling_family(pr.b, r)
        assert n in zset(pr)
        assert sum(invariants(pr, n)) == 5 + sum(x - 3 for x in pr.b) + r


def test_minimal_filling_family_on_the_precondition_boundary():
    # b = (2, 3 x (k-3), 2, max(k-2, 2)) meets every precondition with the
    # least entries it allows; each member must be a bounded zero tuple
    cases = 0
    for k in range(4, 21):
        b = (2,) + (3,) * (k - 3) + (2, max(k - 2, 2))
        pr = make_params(continuant(b), continuant(b) - continuant(b[1:]))
        assert pr.b == b
        zs = set(bounded_zero_cf(b))
        for r in range(k - 3):
            n = minimal_filling_family(b, r)
            assert n in zs, (b, r, n)
            assert sum(x - y for x, y in zip(b, n)) == 5 + sum(x - 3 for x in b) + r, (b, r)
            cases += 1
    assert cases == 153


def bump_unique_one(n):
    # a zero tuple n with exactly one 1, at j, is the b2 = 0 filling b - e_j of
    # the chain b that bumping the 1 to a 2 gives; the pair's witness (m, h) has
    # m = g = K(n_1..n_{j-1}), the handle side H_1 = Z/g, and [b] = m^2/(m nn + 1)
    # with nn = m - h
    ones = [i for i, x in enumerate(n) if x == 1]
    assert len(ones) == 1, n
    j = ones[0]
    b = n[:j] + (2,) + n[j + 1 :]
    p = continuant(b)
    q = p - continuant(b[1:])
    m, h = rational_ball_criterion(p, q)
    assert m == continuant(n[:j]), n
    assert eval_cf(b) == Fraction(m * m, m * (m - h) + 1), n
    pr = make_params(p, q)
    assert pr.b == b and n in zset(pr), n
    return p, q, m, h


def test_unique_one_value_examples():
    assert bump_unique_one((2, 1, 2)) == (4, 1, 2, 1)
    assert bump_unique_one((2, 2, 1, 3)) == (9, 2, 3, 1)


def test_unique_one_value_exhaustive():
    # every zero tuple of length <= 9 with exactly one 1 bumps to a rational
    # ball pair (k = 1, 2 have no such tuple)
    seen = 0
    for k in range(3, 10):
        for n in enumerate_zero_cf(k):
            if sum(1 for x in n if x == 1) == 1:
                bump_unique_one(n)
                seen += 1
    assert seen == 127


def test_rational_ball_criterion_examples():
    assert rational_ball_criterion(9, 2) == (3, 1)
    assert rational_ball_criterion(4, 1) == (2, 1)
    assert rational_ball_criterion(5, 1) is None
    assert rational_ball_criterion(4, 3) is None  # h = 2 shares a factor with m = 2
    assert rational_ball_criterion(9, 5) == (3, 2)
    with pytest.raises(LensfillError, match=r"need coprime p > q >= 1, got \(6, 4\)"):
        rational_ball_criterion(6, 4)
    with pytest.raises(LensfillError, match=r"p, q must be ints, got 4\.0, 1"):
        rational_ball_criterion(4.0, 1)  # not a TypeError from gcd


def test_rational_ball_matches_handle_counts():
    # b2 = 0 occurs among the fillings iff the witness pair exists
    for p, q in coprime_pairs(120):
        pr = make_params(p, q)
        has_ball = any(sum(pr.b) - sum(n) == 1 for n in zset(pr))
        assert has_ball == (rational_ball_criterion(p, q) is not None), (p, q)


def test_uniqueness_predicate_examples():
    def certified(p, q):
        pr = make_params(p, q)
        return uniqueness_predicate(dual_expansion(pr.b), zset(pr))

    assert certified(5, 1) is True
    assert zset(make_params(5, 1)) == [(1, 2, 2, 1)]
    assert certified(26, 5) is False  # 26/5 = [6,2,2,2,2]
    assert hj_expand(26, 5) == (6, 2, 2, 2, 2)
    assert certified(24, 5) is True  # 24/5 = [5,5]
    assert hj_expand(24, 5) == (5, 5)
    # the staircase's length comes from a alone: [5, 5] is dual to a chain of 7
    assert zset(make_params(24, 5)) == [(1, 2, 2, 2, 2, 2, 1)]
    with pytest.raises(TheoremViolation, match="all entries >= 5 but fillings are"):
        uniqueness_predicate((5, 5), [(1, 2, 2, 2, 2, 1)])


def test_reversal_symmetry_of_fillings():
    for p, q in coprime_pairs(120):
        pr = make_params(p, q)
        prbar = make_params(p, pr.qbar)
        assert prbar.b == reverse(pr.b)
        assert sorted(reverse(n) for n in zset(pr)) == zset(prbar)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coprime_pair(10**5))
def test_reversal_duality_on_random_pairs(pq):
    # qbar swaps with q under reversal, far past the exhaustive range above
    pr = make_params(*pq)
    prbar = make_params(pr.p, pr.qbar)
    assert prbar.b == reverse(pr.b)
    assert zset(prbar) == sorted(reverse(n) for n in zset(pr))


def test_square_lens_spaces_have_two_fillings():
    for m in range(2, 16):
        assert len(zset(make_params(m * m, m - 1))) == 2
