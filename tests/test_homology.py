from itertools import product

import pytest

from lensfill.cfrac import dual_expansion, enumerate_zero_cf, hj_expand
from lensfill.errors import LensfillError, TheoremViolation
from lensfill.exact import continuant, continuants
from lensfill.fillings import make_params
from lensfill.homology import (
    gamma_filling,
    gamma_standard,
    mu_basis,
    rotation_numbers,
    spin_rows,
    spin_structures,
)
from test_fillings import coprime_pairs


def chain(p, q):
    return hj_expand(p, p - q)


def is_valid_spin(b, s):
    """Whether the bits s, each 0 or 1, make every N_i = s_{i-1} + s_{i+1} +
    b_i (1 - s_i) even, with s_0 = s_{k+1} = 0: the characteristic-sublink
    condition, checked term by term rather than by the recurrence."""
    if len(s) != len(b) or any(x not in (0, 1) for x in s):
        return False
    padded = (0, *s, 0)
    return all((padded[i - 1] + padded[i + 1] + x * (1 - padded[i])) % 2 == 0
               for i, x in enumerate(b, 1))


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


def test_mu_basis_shape_sweep():
    # the closure b_k c_k - c_{k-1} = 0 mod p holds by construction (the c_i
    # are prefix continuants of b mod K(b)); the relation below is the
    # independent check
    for p, q in coprime_pairs(200):
        b = chain(p, q)
        c = mu_basis(b)
        assert c[0] == 1 and len(c) == len(b)
        assert continuant(b) == p


def test_mu_last_coefficient_measured_relation():
    # measured, not part of the contract: q * c_k = -1 mod p on the +b chain
    for p, q in coprime_pairs(300):
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


def test_bits_outside_zero_one_are_refused():
    # (0, 2, 0) leaves every N_i even (4, -2, 4), so only the bit test refuses it;
    # (0, -1, 0) leaves N_1 = 1 odd as well
    for s in ((0, 2, 0), (0, -1, 0)):
        assert not is_valid_spin((2, 2, 2), s)
        for gamma in (gamma_filling, gamma_standard):
            with pytest.raises(LensfillError, match=r"is not a spin structure for chain \(2, 2, 2\)"):
                gamma((2, 2, 2), s)


def _spin_reference(b):
    """spin_structures by the recurrence on a padded list (s_0, s_1, ...,
    s_{k+1}), one list for each choice of s_1."""
    out = []
    for s1 in (0, 1):
        s = [0, s1]
        for x in b:
            s.append((s[-2] + x * (1 - s[-1])) % 2)
        if s[-1] == 0:
            out.append(tuple(s[1:-1]))
    return out


def test_spin_structures_equal_the_padded_reference():
    # every chain with p <= 300, q = 1 (the 299 twos of L(300, 1)) included
    for p, q in coprime_pairs(300):
        b = chain(p, q)
        assert spin_structures(b) == _spin_reference(b), (p, q)


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


def test_gamma_standard_refuses_entries_below_two():
    # the dual chain is dual_expansion(b), which needs every b_i >= 2; the
    # handle picture reads any chain with p >= 1
    assert gamma_filling((1,), (1,)) == 0
    with pytest.raises(LensfillError, match=r"^need a tuple with all entries >= 2, got \(1,\)$"):
        gamma_standard((1,), (1,))


def test_gamma_formulas_check_the_chain_before_s():
    # (1, 1) has determinant 0, and s = (1, 1) leaves N_1 = 1 odd: bad both ways
    for gamma in (gamma_filling, gamma_standard):
        with pytest.raises(LensfillError, match=r"^chain \(1, 1\) has determinant 0, need p >= 1$"):
            gamma((1, 1), (1, 1))


def test_gamma_equality_sweep():
    for p, q in coprime_pairs(60):
        b = chain(p, q)
        for s in spin_structures(b):
            assert gamma_filling(b, s) == gamma_standard(b, s), (p, q, s)


def _handle_picture(c, x1, mu, p):
    """(x, Gamma) for the spin structure x of the chain c with x_1 = x1, or
    None: the literal sum mu_1 + sum_i (N_i/2 - 1) mu_i mod p, term by term,
    with mu = continuants(c), so that mu[i] = K(c_1..c_{i-1}) = mu_i."""
    x = [0, x1]  # x_0, x_1, ..., x_{L+1}
    for v in c:
        x.append((x[-2] + v * (1 - x[-1])) % 2)
    if x[-1]:
        return None
    total = mu[1]
    for i, v in enumerate(c, 1):
        n = x[i - 1] + x[i + 1] + v * (1 - x[i])
        assert n % 2 == 0, (c, x, i)
        total += (n // 2 - 1) * mu[i]
    return tuple(x[1:-1]), total % p


def _spin_rows_reference(b, a):
    """spin_rows(b, a) from the handle-picture sums on both chains, both
    reduced mod p = K(b): Gamma of b at s, and 1 - Gamma of a at the x with
    x_1 = 1 - s_1."""
    mu, nu = continuants(b), continuants(a)
    p = mu[-1]
    rows = []
    for s1 in (0, 1):
        found = _handle_picture(b, s1, mu, p)
        if found is not None:
            s, gf = found
            x, ga = _handle_picture(a, 1 - s1, nu, p)
            rows.append({"s": list(s), "gamma_filling": gf, "gamma_standard": (1 - ga) % p})
    return rows


def test_spin_rows_equal_the_handle_picture_reference():
    # the closed form against the sums it telescopes, on every pair with
    # p <= 300; a is expanded from (p, q) directly, not from b
    rows = 0
    for p, q in coprime_pairs(300):
        b, a = chain(p, q), hj_expand(p, q)
        got = spin_rows(b, a)
        assert got == _spin_rows_reference(b, a), (p, q)
        rows += len(got)
    assert rows == 36562


def test_gamma_filling_equals_the_handle_picture_on_any_chain():
    # the telescoping uses only the chain relations, so the closed form holds
    # for entries below 2 too: every chain with entries 0..4, k <= 6 and p >= 1
    cases = 0
    for k in range(1, 7):
        for b in product(range(5), repeat=k):
            mu = continuants(b)
            if mu[-1] < 1:
                continue
            for s1 in (0, 1):
                found = _handle_picture(b, s1, mu, mu[-1])
                if found is not None:
                    assert gamma_filling(b, found[0]) == found[1], (b, found)
                    cases += 1
    assert cases == 11651


def test_spin_rows_refuse_a_chain_that_is_not_the_dual():
    # L(4,1) has b = (2, 2, 2) and dual (4,); b read as its own dual pairs
    # s = (0, 0, 0) with x = (1, 0, 1), whose Gamma is 1 - 3 = 2, not 1
    b = chain(4, 1)
    assert dual_expansion(b) == (4,)
    with pytest.raises(TheoremViolation,
                       match=r"^gamma at s=\(0, 0, 0\): filling formula 1, standard formula 2$"):
        spin_rows(b, b)
    # L(3,1) has b = (2, 2), dual (3,); at odd p each chain has one spin
    # structure, and b's own one starts with s_1, not 1 - s_1
    b = chain(3, 1)
    assert spin_structures(b) == [(0, 0)] and dual_expansion(b) == (3,)
    with pytest.raises(TheoremViolation, match=r"^gamma at s=\(0, 0\): the dual chain \(2, 2\) "
                       r"has no spin structure with x_1 = 1$"):
        spin_rows(b, b)


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
            r = rotation_numbers(n)
            assert len(r) == k and r[0] == 0 and r[1] == 1
            assert r[-2] - n[-1] * r[-1] == -1, n  # the terminal relation
            cases += 1
    assert cases == sum(len(enumerate_zero_cf(k)) for k in range(2, 11))


def test_rotation_core_equals_the_checked_function_on_every_filling():
    from lensfill.fillings import zset
    from lensfill.homology import _rotation_numbers

    cases = 0
    for p, q in coprime_pairs(60):
        for n in zset(make_params(p, q)):
            assert _rotation_numbers(n) == list(rotation_numbers(n)), (p, q, n)
            cases += 1
    assert cases > 1000


def test_rotation_rejects_non_zero_tuples():
    with pytest.raises(LensfillError, match=r"\(2, 2, 2\) is not an admissible zero tuple"):
        rotation_numbers((2, 2, 2))
