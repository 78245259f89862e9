"""Acceptance suite: the ten gate criteria, each exact, each timed against
its stated budget.  Run with `pytest -s tests/test_acceptance.py` to see
one pass line per criterion.
"""

import time
from math import gcd

from lensfill.fillings import (
    invariants,
    make_params,
    minimal_filling_family,
    zset,
)
from lensfill.cfrac import hj_expand
from lensfill.suites import (
    suite_catalan,
    suite_duality,
    suite_gamma,
    suite_lattice,
    suite_mcduff,
    suite_rational_ball,
    suite_rotation,
)


def _timed(number, limit, description, body):
    start = time.perf_counter()
    body()
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, budget {limit}s"
    print(f"CRITERION {number:2d} PASS ({elapsed:6.2f}s < {limit}s): {description}")


def _assert_suite(res):
    assert res.ok, f"{res.name}: {res.counterexample} (at {res.detail})"


def test_criterion_01_one_filling_class_for_lens_p_1():
    _timed(
        1,
        5.0,
        "L(p,1) has one filling class for 2 <= p <= 100 except two at p = 4",
        lambda: _assert_suite(suite_mcduff(pmax=100)),
    )


def test_criterion_02_two_fillings_for_square_lens_spaces():
    def body():
        for m in range(2, 16):
            zs = zset(make_params(m * m, m - 1))
            assert len(zs) == 2, (m, zs)

    _timed(2, 30.0, "L(m^2, m-1) has exactly two fillings for 2 <= m <= 15", body)


def test_criterion_03_zero_tuple_census():
    _timed(
        3,
        60.0,
        "zero-tuple sets equal the polygon-triangulation census, of size Catalan(k-1), for k <= 12",
        lambda: _assert_suite(suite_catalan(kmax=12)),
    )


def test_criterion_04_unique_filling_when_entries_at_least_five():
    def body():
        hits = 0
        for p in range(2, 301):
            for q in range(1, p):
                if gcd(p, q) != 1 or any(x < 5 for x in hj_expand(p, q)):
                    continue
                pr = make_params(p, q)
                k = len(pr.b)
                assert zset(pr) == [(1,) + (2,) * (k - 2) + (1,)], (p, q)
                hits += 1
        assert hits > 0

    _timed(
        4,
        10.0,
        "expansions of p/q with entries >= 5 force the single staircase filling, p <= 300",
        body,
    )


def test_criterion_05_rational_ball_pairs():
    _timed(
        5,
        120.0,
        "a b2 = 0 filling exists iff (p,q) = (m^2, m h - 1) with m, h coprime, p <= 500",
        lambda: _assert_suite(suite_rational_ball(pmax=500)),
    )


def test_criterion_06_graded_family_instance():
    def body():
        pr = make_params(89, 34)
        for r in (0, 1):
            n = minimal_filling_family(pr, r)
            assert n in zset(pr), (r, n)
            chi = invariants(pr, n).chi
            assert chi == 5 + sum(b - 3 for b in pr.b) + r, (r, chi)
        assert minimal_filling_family(pr, 0) == (1, 3, 2, 1, 3)
        assert minimal_filling_family(pr, 1) == (1, 2, 3, 1, 2)

    _timed(6, 5.0, "the (89,34) family members are fillings with chi = 5 + sum(b_i - 3) + r", body)


def test_criterion_07_invariant_formulas_agree():
    def body():
        res = suite_gamma(pmax=100)
        _assert_suite(res)
        # exact residue equality, no sign flip needed anywhere
        assert "negated for 0" in res.detail, res.detail

    _timed(
        7,
        60.0,
        "both plane-field invariant formulas give equal residues for all spins, p <= 100",
        body,
    )


def test_criterion_08_rotation_terminal_relation():
    def body():
        res = suite_rotation(kmax=10)
        _assert_suite(res)
        assert res.cases == 6917, res.cases  # sum of Catalan(1..9)

    _timed(8, 30.0, "rotation recursion closes with -1 on every zero tuple, k <= 10", body)


def test_criterion_09_lattice_oracle():
    _timed(
        9,
        180.0,
        "class shapes, nesting, complement homology, count recovery and minimality, p <= 60",
        lambda: _assert_suite(suite_lattice(pmax=60)),
    )


def test_criterion_10_reversal_duality():
    _timed(
        10,
        60.0,
        "reversed chain and reversed fillings for the inverse parameter, p <= 300",
        lambda: _assert_suite(suite_duality(pmax=300)),
    )
