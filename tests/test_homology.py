from itertools import product
from math import gcd

import pytest

from lensfill.cfrac import enumerate_zero_cf, hj_expand
from lensfill.errors import LensfillError
from lensfill.exact import continuant
from lensfill.homology import (
    gamma_filling,
    gamma_standard,
    is_valid_spin,
    mu_basis,
    rotation_numbers,
    spin_structures,
)


def coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def chain(p, q):
    return hj_expand(p, p - q)


def test_mu_basis_examples():
    assert mu_basis((2, 2, 2)) == (1, 2, 3)
    assert mu_basis((2,)) == (1,)
    assert mu_basis((2, 2, 2, 3)) == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mu_basis(()),
        lambda: spin_structures(()),
        lambda: gamma_filling((), ()),
        lambda: gamma_standard((), ()),
    ],
    ids=["mu_basis", "spin_structures", "gamma_filling", "gamma_standard"],
)
def test_empty_chain_is_refused(call):
    with pytest.raises(LensfillError, match=r"^need a nonempty chain$") as info:
        call()
    assert type(info.value) is LensfillError  # exit 1, not a theorem violation


def test_chain_with_determinant_below_one_is_refused():
    # K(1, 1) = 0: no lens space, and no Z/p to reduce into
    for call in (mu_basis, spin_structures):
        with pytest.raises(LensfillError, match=r"^chain \(1, 1\) has determinant 0, need p >= 1$"):
            call((1, 1))
    for gamma in (gamma_filling, gamma_standard):
        with pytest.raises(LensfillError, match="has determinant 0"):
            gamma((1, 1), (0, 1))  # a spin structure: N = (2, 0)


def test_mu_basis_closure_sweep():
    # the recursion closes modulo p = K(b), every pair
    for p, q in coprime_pairs(2000):
        b = chain(p, q)
        c = mu_basis(b)
        assert c[0] == 1 and len(c) == len(b)
        assert (b[-1] * c[-1] - (c[-2] if len(c) > 1 else 0)) % p == 0
        assert continuant(b) == p


def test_mu_last_coefficient_measured_relation():
    # measured, not part of the contract: q * c_k = -1 mod p on the +b chain
    for p, q in coprime_pairs(200):
        assert (q * mu_basis(chain(p, q))[-1]) % p == p - 1


def test_spin_structures_examples():
    assert spin_structures((2, 2, 2)) == [(0, 0, 0), (1, 0, 1)]
    assert spin_structures((2,)) == [(0,), (1,)]
    only = spin_structures((2, 2, 2, 3))
    assert len(only) == 1
    # brute force over all bit vectors agrees
    brute = [s for s in product((0, 1), repeat=4) if is_valid_spin((2, 2, 2, 3), s)]
    assert only == brute


def test_spin_structures_brute_force_small_k():
    # integrality of the invariant coefficients == the parity condition,
    # checked on every bit vector for every chain of length <= 8
    for p, q in coprime_pairs(40):
        b = chain(p, q)
        if len(b) > 8:
            continue
        brute = [s for s in product((0, 1), repeat=len(b)) if is_valid_spin(b, s)]
        assert spin_structures(b) == brute
        for s in brute:
            gamma_filling(b, s)  # must not raise
        for s in product((0, 1), repeat=len(b)):
            if s not in brute:
                with pytest.raises(LensfillError, match="is not a spin structure for chain"):
                    gamma_filling(b, s)


def test_spin_structure_counts():
    for p, q in coprime_pairs(500):
        b = chain(p, q)
        assert len(spin_structures(b)) == 2 - p % 2


def test_gamma_filling_examples():
    assert gamma_filling((2, 2, 2), (0, 0, 0)) == 1
    assert gamma_filling((2, 2, 2), (1, 0, 1)) == 3
    with pytest.raises(LensfillError, match=r"\(1, 1, 1\) is not a spin structure"):
        gamma_filling((2, 2, 2), (1, 1, 1))
    with pytest.raises(LensfillError, match=r"\(0, 0\) is not a spin structure"):
        gamma_filling((2, 2, 2), (0, 0))


def test_gamma_standard_examples():
    assert gamma_standard((2, 2, 2), (0, 0, 0)) == 1
    assert gamma_standard((2,), (0,)) == gamma_filling((2,), (0,))
    assert gamma_standard((2,), (1,)) == gamma_filling((2,), (1,))
    b = (2, 2, 2, 3)
    (s,) = spin_structures(b)
    assert gamma_standard(b, s) == gamma_filling(b, s)


def test_gamma_equality_sweep():
    for p, q in coprime_pairs(60):
        b = chain(p, q)
        for s in spin_structures(b):
            assert gamma_filling(b, s) == gamma_standard(b, s), (p, q, s)


def test_rotation_examples():
    assert rotation_numbers((1, 1)) == (0, 1)
    assert rotation_numbers((2, 1, 2)) == (0, 1, 1)
    assert rotation_numbers((1, 2, 1)) == (0, 1, 2)
    assert rotation_numbers((0,)) == (0,)
    with pytest.raises(LensfillError, match=r"\(2, 2\) is not an admissible zero tuple"):
        rotation_numbers((2, 2))


def test_rotation_terminal_relation_exhaustive():
    cases = 0
    for k in range(2, 11):
        for n in enumerate_zero_cf(k):
            r = rotation_numbers(n)  # terminal relation asserted inside
            assert len(r) == k and r[0] == 0 and r[1] == 1
            cases += 1
    assert cases == sum(len(enumerate_zero_cf(k)) for k in range(2, 11))


def test_rotation_rejects_non_zero_tuples():
    with pytest.raises(LensfillError, match=r"\(2, 2, 2\) is not an admissible zero tuple"):
        rotation_numbers((2, 2, 2))
