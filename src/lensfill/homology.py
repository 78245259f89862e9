"""First-homology bookkeeping on the boundary lens space.

The boundary of the filling attached to n is presented by a chain of k
unknots with framings b_1, ..., b_k; the meridian classes mu_1, ..., mu_k
generate H_1 and satisfy b_i mu_i = mu_{i-1} + mu_{i+1} with mu_0 =
mu_{k+1} = 0.  Everything below is expressed in the cyclic group of order
p = K(b) generated by mu_1, with mu_i = K(b_1..b_{i-1}) mu_1; both are
prefix continuants of b, so a chain needs no other data: mu_basis and
spin_structures take b alone, the Gamma formulas b and a spin structure s,
and spin_rows b and its dual chain a; rotation_numbers takes a zero tuple
n instead.  The private cores behind the spin and invariant functions take
p and the mu_i from one continuant pass (spin_rows makes that pass once
per chain).  One walk along a chain from a first bit s_1 runs the spin
recurrence and the invariant sum together, since the step that finds
s_{i+1} completes N_i: spin_rows walks b once per first bit and the dual
chain once per spin structure.  Computed here: spin structures as parity
bit vectors, the plane-field invariant Gamma of the filling's boundary and
of the standard contact structure, the spin section that checks they
agree, and the chain's rotation numbers.

Gamma of the standard contact structure is read from the dual chain a =
dual_expansion(b), the expansion of p/q (K(a) = p), which the resolution of
the cyclic quotient singularity plumbs.  Gompf (1998, Theorem 4.12) gives
-sum_j (a_j - 2 - a_j x_j + x_{j-1} + x_{j+1})/2 nu_j for its Legendrian
chain with rotation numbers a_j - 2, a spin structure x of a and nu_j =
K(a_1..a_{j-1}) nu_1; each term is (N_j/2 - 1) nu_j, so the sum is
1 - gamma_filling(a, x) in units nu_1 = mu_1.  That identification and the
row rule x_1 = 1 - s_1 were pinned by measurement for both parities of p, not
derived: with them the two sides agree on all 36,562 (pair, spin) rows with
p <= 300, and x_1 = s_1 breaks both rows of every pair with even p <= 120.
At odd p each chain has one spin structure, so the rule is a check there.
The sides read different chains, so their agreement can fail.
"""

from __future__ import annotations

from typing import Sequence

from .cfrac import _is_zero_tuple, dual_expansion
from .errors import LensfillError, TheoremViolation
from .exact import continuants

__all__ = [
    "mu_basis",
    "spin_rows",
    "rotation_numbers",
]

Bits = tuple[int, ...]


def _chain_continuants(b: Sequence[int]) -> list[int]:
    """continuants(b) for a chain that presents a lens space: nonempty, K(b) >= 1."""
    if not b:
        raise LensfillError("need a nonempty chain")
    out = continuants(b)
    if out[-1] < 1:
        raise LensfillError(f"chain {tuple(b)} has determinant {out[-1]}, need p >= 1")
    return out


def mu_basis(b: Sequence[int]) -> tuple[int, ...]:
    """Express every meridian class as a multiple of mu_1 modulo p = K(b).

    Returns (c_1, ..., c_k) with mu_i = c_i * mu_1 in Z/p, c_1 = 1.  The
    chain relations give c_1 = 1, c_2 = b_1, c_{i+1} = b_i c_i - c_{i-1},
    so c_i = K(b_1..b_{i-1}) mod p, and the final relation b_k c_k -
    c_{k-1} = K(b) closes modulo p with nothing left to check.
    """
    *c, p = _chain_continuants(b)[1:]
    return tuple(x % p for x in c)


def spin_structures(b: Sequence[int]) -> list[Bits]:
    """All spin structures of the boundary, as parity bit vectors.

    Solved by forward substitution: s_0 = 0, s_1 is free, and s_{i+1} =
    s_{i-1} + b_i (1 - s_i) mod 2 makes N_i even.  Run one step past b_k,
    the recurrence gives s_{k+1}, and s is a spin structure iff that is 0.
    The count must be 1 for odd p = K(b) and 2 for even p (asserted).
    """
    b = tuple(b)
    return [s for s, _ in _spin_gammas(b, _chain_continuants(b))]


def _spin_gamma(b: tuple[int, ...], s1: int, mu: list[int], p: int) -> tuple[Bits, int] | None:
    """(s, gamma_filling(b, s)) for the spin structure s of b with s_1 = s1,
    given mu = continuants(b), so that mu[i] = K(b_1..b_{i-1}) = mu_i, and
    p = K(b); None if the recurrence from s_1 = s1 does not close with
    s_{k+1} = 0.  One walk: the step that finds s_{i+1} completes N_i."""
    bits = []
    total, left, here = 1, 0, s1  # mu_1 + sum_i (N_i/2 - 1) mu_i; s_{i-1}, s_i
    for i, x in enumerate(b, 1):
        n = left + (0 if here else x)  # N_i - s_{i+1}; s_{i+1} = n & 1 makes N_i even
        total += (n - 1) // 2 * mu[i]  # (N_i/2 - 1) mu_i, as N_i = n + (n & 1)
        bits.append(here)
        left, here = here, n & 1
    return None if here else (tuple(bits), total % p)  # here is s_{k+1}


def _spin_gammas(b: tuple[int, ...], mu: list[int]) -> list[tuple[Bits, int]]:
    """(s, gamma_filling(b, s)) for each spin structure s of a chain b, given
    mu = continuants(b), whose last entry is p = K(b)."""
    p = mu[-1]
    out = [r for r in (_spin_gamma(b, 0, mu, p), _spin_gamma(b, 1, mu, p)) if r is not None]
    if len(out) != 2 - p % 2:
        raise TheoremViolation(
            f"found {len(out)} spin structures for {b}, expected {2 - p % 2}"
        )
    return out


def _gamma_at(rows: list[tuple[Bits, int]], b: tuple[int, ...], s: Sequence[int]) -> int:
    """gamma_filling(b, s) from rows = _spin_gammas(b, mu); refuses an s that
    is not among them."""
    for t, gamma in rows:
        if t == tuple(s):
            return gamma
    raise LensfillError(f"{s} is not a spin structure for chain {b}")


def gamma_filling(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the filling's boundary contact structure,
    computed from the handle picture.

    Poincare dual = sum_i [(s_{i-1} + s_{i+1} + b_i(1 - s_i))/2] mu_i
    - sum_{i>=2} mu_i, reduced to a residue c mod p meaning c * mu_1.
    Depends only on b and s, not on the particular filling.  Refuses an s
    that is not one of spin_structures(b).
    """
    b = tuple(b)
    return _gamma_at(_spin_gammas(b, _chain_continuants(b)), b, s)


def gamma_standard(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the standard contact structure at the spin
    structure s of the chain b, read from the resolution side: Gamma of the
    dual chain a = dual_expansion(b) (see the module docstring).  Like
    dual_expansion, it refuses a chain with an entry below 2.
    """
    b = tuple(b)
    mu = _chain_continuants(b)  # the chain first, as in gamma_filling
    _gamma_at(_spin_gammas(b, mu), b, s)  # refuses an s that is not a spin structure of b
    return _dual_gammas(dual_expansion(b), mu[-1], [s])[0]


def _dual_gammas(a: tuple[int, ...], p: int, spins: Sequence[Sequence[int]]) -> list[int]:
    """gamma_standard at each spin structure s of b in spins, given the dual
    chain a and p = K(b) = K(a): 1 - gamma_filling(a, x) mod p, where x is the
    spin structure of a with x_1 = 1 - s_1, one walk along a per s.
    TheoremViolation names the s for which a has no such x."""
    nu = continuants(a)  # nu_j = K(a_1..a_{j-1}) = nu[j]
    out = []
    for s in spins:
        row = _spin_gamma(a, 1 - s[0], nu, p)
        if row is None:
            raise TheoremViolation(
                f"gamma at s={s}: the dual chain {a} has no spin structure with x_1 = {1 - s[0]}"
            )
        out.append((1 - row[1]) % p)
    return out


def spin_rows(b: tuple[int, ...], a: tuple[int, ...]) -> list[dict]:
    """The spin section: on every spin structure s of the chain b, Gamma from
    the handle picture and Gamma of the standard contact structure, read from
    a = dual_expansion(b), which the caller passes.

    The two must agree exactly; TheoremViolation names the spin structure
    where they do not, or where a has no spin structure to pair with it, and
    the caller's naming scopes the pair.  The b side runs first: two walks
    along b, one per first bit, then one walk along a per spin structure.
    """
    mu = _chain_continuants(b)  # one continuant pass serves the b side
    found = _spin_gammas(b, mu)
    rows = []
    for (s, gf), gs in zip(found, _dual_gammas(a, mu[-1], [s for s, _ in found])):
        if gf != gs:
            raise TheoremViolation(f"gamma at s={s}: filling formula {gf}, standard formula {gs}")
        rows.append({"s": list(s), "gamma_filling": gf, "gamma_standard": gs})
    return rows


def rotation_numbers(n: Sequence[int]) -> tuple[int, ...]:
    """Rotation numbers of the chain of Legendrian attaching circles.

    For an admissible zero tuple n the recursion r_1 = 0, r_2 = 1,
    r_{i+1} = n_i r_i - r_{i-1} is forced, so r is continuants(n_2..n_{k-1}),
    r_i = K(n_2..n_{i-1}), and the terminal value r_{k-1} - n_k r_k is
    -K(n_2..n_k).  The zero-tuple test
    says n_1 K(n_2..n_k) = K(n_3..n_k) with K(n_2..n_k) > 0, and
    consecutive continuants are coprime, so K(n_2..n_k) = 1: the terminal
    relation r_{k-1} - n_k r_k = -1 holds once that test has passed, and is
    not checked again.  For k = 1 (where n = (0,)) the two boundary
    relations coincide and pin nothing beyond r_1 = 0.
    """
    n = tuple(n)
    if not _is_zero_tuple(n):
        raise LensfillError(f"{n} is not an admissible zero tuple")
    return tuple(_rotation_numbers(n))


def _rotation_numbers(n: tuple[int, ...]) -> list[int]:
    """rotation_numbers as a new list, for an n already known to be an
    admissible zero tuple, such as one the report's own search emitted."""
    if len(n) == 1:
        return [0]
    return continuants(n[1:-1])  # r_1 = K_{-1} = 0, r_2 = K() = 1, ..., r_k
