import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensfill.errors import LensfillError
from lensfill.exact import continuant, continuants, mod_inverse, smith_diagonal


def scan_inverse(a, m):
    """Independent oracle: exhaustive scan of residues."""
    for x in range(1, m):
        if (a * x) % m == 1:
            return x
    return None


def test_mod_inverse_examples():
    for p in (2, 5, 7, 30):
        assert mod_inverse(1, p) == 1
    assert mod_inverse(2, 9) == 5  # 2*5 = 10 = 1 mod 9
    assert mod_inverse(2, 5) == 3


def test_mod_inverse_matches_scan():
    for m in range(2, 50):
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert mod_inverse(a, m) == scan_inverse(a, m)
            else:
                with pytest.raises(LensfillError, match=f"{a} has no inverse mod {m}"):
                    mod_inverse(a, m)


def test_mod_inverse_involution():
    for m in range(2, 60):
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert mod_inverse(mod_inverse(a, m), m) == a % m


def test_mod_inverse_rejects_small_modulus():
    with pytest.raises(LensfillError, match="modulus must be at least 2, got 1"):
        mod_inverse(1, 1)


def test_continuant_examples():
    assert continuant(()) == 1
    assert continuant((7,)) == 7
    assert continuant((2, 2, 2)) == 4
    assert continuant((5, 2)) == 9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-9, 9), max_size=12))
def test_continuants_are_matrix_product_entries(t):
    # independent formula: the product M_i ... M_1 of M_j = [[t_j, -1], [1, 0]]
    # has K(t_1..t_i) at top left and K(t_1..t_{i-1}) at bottom left; entries
    # are signed because the string type (1, 1 - b_1, -b_2, ...) is signed
    (a, b), (c, d) = (1, 0), (0, 1)
    want = [0, 1]
    for x in t:
        (a, b), (c, d) = (x * a - c, x * b - d), (a, b)
        assert c == want[-1]
        want.append(a)
    assert continuants(t) == want
    assert continuant(t) == want[-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-9, 9), max_size=12))
def test_continuant_is_reversal_invariant(t):
    assert continuant(t) == continuant(t[::-1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_string_type_continuant_is_signed_continuant(b):
    # K(1, 1 - b_1, -b_2, ..., -b_k) = (-1)^k K(b) for every integer tuple:
    # the Gram determinant of the sphere string is +-K(b) whatever b is
    assert continuant([1, 1 - b[0]] + [-x for x in b[1:]]) == (-1) ** len(b) * continuant(b)


def minor_gcd_diagonal(rows):
    """Independent oracle: SNF from determinant divisors.

    d_k = gcd of all k x k minors; the k-th diagonal entry is
    d_k / d_{k-1}, zero once the minors vanish identically.
    """
    nr, nc = len(rows), len(rows[0])

    def det(idx_r, idx_c):
        if len(idx_r) == 1:
            return rows[idx_r[0]][idx_c[0]]
        total = 0
        sign = 1
        for pos, i in enumerate(idx_r):
            total += sign * rows[i][idx_c[0]] * det(
                idx_r[:pos] + idx_r[pos + 1 :], idx_c[1:]
            )
            sign = -sign
        return total

    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ir in combinations(range(nr), k):
            for ic in combinations(range(nc), k):
                g = gcd(g, det(ir, ic))
        if g == 0:
            out.extend([0] * (min(nr, nc) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_diagonal_examples():
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[2, 0], [0, 4]]) == [2, 4]
    # chain matrix for the expansion of 4/3; determinant 4
    tri = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert smith_diagonal(tri) == [1, 1, 4]
    assert minor_gcd_diagonal(tri) == [1, 1, 4]


def test_smith_diagonal_zero_and_empty():
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal([]) == []
    assert smith_diagonal([[5]]) == [5]
    assert smith_diagonal([[-3]]) == [3]


def test_smith_diagonal_matches_minor_gcd():
    rng = random.Random(20240)
    for _ in range(120):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)]
        got = smith_diagonal(rows)
        assert got == minor_gcd_diagonal(rows), rows


def test_smith_diagonal_divisibility_and_product():
    rng = random.Random(99)
    for _ in range(80):
        nn = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(nn)] for _ in range(nn)]
        d = smith_diagonal(rows)
        for x, y in zip(d, d[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0
        from fractions import Fraction

        det = _det_exact(rows)
        if det:
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(det)


def _det_exact(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_exact(sub)
        total += term if j % 2 == 0 else -term
    return total


def test_smith_diagonal_rejects_ragged_and_nonint():
    with pytest.raises(LensfillError, match="matrix rows have unequal lengths"):
        smith_diagonal([[1, 2], [3]])
    with pytest.raises(LensfillError, match=r"matrix entries must be ints, got 1\.5"):
        smith_diagonal([[1.5]])
