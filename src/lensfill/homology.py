"""First-homology bookkeeping on the boundary lens space.

The boundary of the filling attached to n is presented by a chain of k
unknots with framings b_1, ..., b_k; the meridian classes mu_1, ..., mu_k
generate H_1 and satisfy b_i mu_i = mu_{i-1} + mu_{i+1} with mu_0 =
mu_{k+1} = 0.  Everything below is expressed in the cyclic group of order
p = K(b) generated by mu_1, with mu_i = K(b_1..b_{i-1}) mu_1; both are
prefix continuants of b, so every public function takes b alone, and the
private cores behind the spin and invariant functions take them from one
pass (spin_rows makes that pass once per report).  Each spin core (the
spin recurrence, the sums N_i and both invariant formulas) is one walk along
b that builds no padded copy of b or s.  Computed here: spin
structures as parity bit vectors, the two formulas for the plane-field
invariant (one from the handle picture of the filling, one from the
compactified resolution side), the spin section that checks they agree,
and the chain's rotation numbers.

The two invariant formulas are not independent.  With N_i = s_{i-1} +
s_{i+1} + b_i (1 - s_i), both expand to sum_i (N_i/2 - [i >= 2]) mu_i,
term by term, so their agreement checks the two implementations only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cfrac import _is_zero_tuple
from .errors import LensfillError, TheoremViolation
from .exact import continuants

__all__ = [
    "mu_basis",
    "spin_structures",
    "is_valid_spin",
    "gamma_filling",
    "gamma_standard",
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


def _chain_sums(b: Sequence[int], s: Sequence[int]) -> Optional[list[int]]:
    """[N_1, ..., N_k] with N_i = s_{i-1} + s_{i+1} + b_i (1 - s_i) and
    s_0 = s_{k+1} = 0, or None unless s is a spin structure for b (a bit
    vector of length k with every N_i even).  One walk along b: each entry
    of s is tested as a bit when it is first read, as s_{i+1}."""
    k = len(b)
    if len(s) != k or (k and s[0] not in (0, 1)):
        return None
    sums = []
    left, here = 0, s[0] if k else 0  # s_{i-1}, s_i
    for i, x in enumerate(b, 1):
        right = s[i] if i < k else 0
        if right not in (0, 1):
            return None
        n = left + right + (0 if here else x)
        if n & 1:
            return None
        sums.append(n)
        left, here = here, right
    return sums


def is_valid_spin(b: Sequence[int], s: Sequence[int]) -> bool:
    """Whether the bit vector s encodes a spin structure on the boundary.

    Validity is exactly integrality of the invariant coefficients: with
    s_0 = s_{k+1} = 0, every s_{i-1} + s_{i+1} + b_i (1 - s_i) must be
    even.  This is the characteristic-sublink condition for the chain.
    """
    return _chain_sums(b, s) is not None


def spin_structures(b: Sequence[int]) -> list[Bits]:
    """All spin structures of the boundary, as parity bit vectors.

    Solved by forward substitution: s_0 = 0, s_1 is free, and s_{i+1} =
    s_{i-1} + b_i (1 - s_i) mod 2 makes N_i even.  Run one step past b_k,
    the recurrence gives s_{k+1}, and s is a spin structure iff that is 0.
    The count must be 1 for odd p = K(b) and 2 for even p (asserted).
    """
    b = tuple(b)
    return _spin_structures(b, _chain_continuants(b)[-1])


def _spin_structures(b: tuple[int, ...], p: int) -> list[Bits]:
    """spin_structures for a chain b with determinant p = K(b)."""
    out = []
    for s1 in (0, 1):
        bits = []
        left, here = 0, s1  # s_{i-1}, s_i
        for x in b:
            bits.append(here)
            left, here = here, (left + x * (1 - here)) % 2
        if here == 0:  # s_{k+1}
            out.append(tuple(bits))
    if len(out) != 2 - p % 2:
        raise TheoremViolation(
            f"found {len(out)} spin structures for {b}, expected {2 - p % 2}"
        )
    return out


def gamma_filling(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the filling's boundary contact structure,
    computed from the handle picture.

    Poincare dual = sum_i [(s_{i-1} + s_{i+1} + b_i(1 - s_i))/2] mu_i
    - sum_{i>=2} mu_i, reduced to a residue c mod p meaning c * mu_1.
    Depends only on b and s, not on the particular filling.
    """
    b = tuple(b)
    *mu, p = _chain_continuants(b)[1:]
    return _gamma_filling(b, s, mu, p)


def _gamma_filling(b: tuple[int, ...], s: Sequence[int], mu: list[int], p: int) -> int:
    """gamma_filling, given mu_i = K(b_1..b_{i-1}) and p = K(b)."""
    sums = _chain_sums(b, s)
    if sums is None:
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    total = mu[0]  # sum_i N_i/2 mu_i - sum_{i>=2} mu_i, in one pass
    for n, c in zip(sums, mu):
        total += (n // 2 - 1) * c
    return total % p


def gamma_standard(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the standard contact structure, computed on
    the orientation-reversed side and pulled back.

    The reversed-orientation lens space bounds the linear chain with
    weights (1, 1-b_1, -b_2, ..., -b_k); its meridians nu_0, ..., nu_k
    satisfy nu_0 = -nu_1 and the same chain relations as the mu_i.  With
    t = (1 - s_1, s_1, ..., s_k) the dual invariant there is

        sum_i [(2 + b'_i (1 - t_i) - t_{i-1} - t_{i+1})/2] nu_i ,

    where b' = (1, 1-b_1, -b_2, ..., -b_k).  Mapping nu_i to mu_i and
    negating (the invariant changes sign under orientation reversal) lands
    in the same group as gamma_filling.  The numerators are 2 at i = 0 and
    2 - N_i at i >= 1, even because is_valid_spin requires every N_i even,
    and the negated sum is gamma_filling's polynomial term by term.
    """
    b = tuple(b)
    *mu, p = _chain_continuants(b)[1:]  # the chain first, as in gamma_filling
    if not is_valid_spin(b, s):
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    return _gamma_standard(b, s, mu, p)


def _gamma_standard(b: tuple[int, ...], s: Sequence[int], mu: list[int], p: int) -> int:
    """gamma_standard for a spin structure s, given mu_i and p as in _gamma_filling."""
    # One walk along b: the term of position i is summed once t_{i+1} is read.
    # Position 0 has b'_0 = 1, t_{-1} = 0, t_0 = 1 - s_1 and coefficient -mu_1,
    # since nu_0 = -nu_1; lift makes b'_1 = 1 - b_1, and b'_i = -b_i after it.
    t_left, t_here, x, c = 0, 1 - s[0], 1, -mu[0]
    lift, total = 1, 0
    for bi, ci, t_right in zip(b, mu, s):  # position i = 1..k, where t_i = s_i
        total += (2 + x * (1 - t_here) - t_left - t_right) // 2 * c
        t_left, t_here, x, c, lift = t_here, t_right, lift - bi, ci, 0
    total += (2 + x * (1 - t_here) - t_left) // 2 * c  # t_{k+1} = 0
    return (-total) % p


def spin_rows(b: tuple[int, ...]) -> list[dict]:
    """The spin section: Gamma from the handle picture and from the standard
    contact structure, on every spin structure of the chain b.

    The two formulas must agree exactly (they are one polynomial, see above);
    TheoremViolation names the spin structure where they do not, and the
    caller's naming scope the pair.
    """
    *mu, p = _chain_continuants(b)[1:]  # one continuant pass serves all three
    rows = []
    for s in _spin_structures(b, p):
        gf, gs = _gamma_filling(b, s, mu, p), _gamma_standard(b, s, mu, p)
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
    return _rotation_numbers(n)


def _rotation_numbers(n: tuple[int, ...]) -> tuple[int, ...]:
    """rotation_numbers for an n already known to be an admissible zero tuple,
    such as one the report's own search emitted."""
    if len(n) == 1:
        return (0,)
    return tuple(continuants(n[1:-1]))  # r_1 = K_{-1} = 0, r_2 = K() = 1, ..., r_k
