"""First-homology bookkeeping on the boundary lens space.

The boundary of the filling attached to n is presented by a chain of k
unknots with framings b_1, ..., b_k; the meridian classes mu_1, ..., mu_k
generate H_1 and satisfy b_i mu_i = mu_{i-1} + mu_{i+1} with mu_0 =
mu_{k+1} = 0.  Everything below is expressed in the cyclic group of order
p = K(b_1..b_k) generated by mu_1: spin structures as parity bit vectors,
the two formulas for the plane-field invariant (one from the handle
picture of the filling, one from the compactified resolution side), and
the rotation numbers of the chain of attaching circles.

The two invariant formulas are not independent.  With N_i = s_{i-1} +
s_{i+1} + b_i (1 - s_i), both expand to sum_i (N_i/2 - [i >= 2]) mu_i,
term by term, so their agreement checks the two implementations only.
"""

from __future__ import annotations

from typing import Sequence

from .cfrac import eval_cf
from .errors import LensfillError, TheoremViolation
from .exact import continuant

__all__ = [
    "mu_basis",
    "spin_structures",
    "is_valid_spin",
    "gamma_filling",
    "gamma_standard",
    "rotation_numbers",
]

Bits = tuple[int, ...]


def mu_basis(b: Sequence[int], p: int) -> tuple[int, ...]:
    """Express every meridian class as a multiple of mu_1 modulo p.

    Returns (c_1, ..., c_k) with mu_i = c_i * mu_1 in Z/p, c_1 = 1.  The
    recursion c_1 = 1, c_2 = b_1, c_{i+1} = b_i c_i - c_{i-1} follows
    from the chain relations, so c_i = K(b_1..b_{i-1}) mod p.  The chain
    determinant K(b) must equal p (asserted); then the final relation
    b_k c_k - c_{k-1} = K(b) closes modulo p with nothing left to check.
    """
    b = tuple(b)
    k = len(b)
    if k == 0 or p < 2:
        raise TheoremViolation(f"need a nonempty chain and p >= 2, got {b}, {p}")
    if continuant(b) != p:
        raise TheoremViolation(f"chain determinant {continuant(b)} != p = {p}")
    coeffs = [1]
    prev = 0  # c_0, the zero class
    for i in range(k - 1):
        coeffs.append((b[i] * coeffs[-1] - prev) % p)
        prev = coeffs[-2]
    return tuple(coeffs)


def _parity_ok(b: Sequence[int], s: Sequence[int]) -> bool:
    k = len(b)
    for i in range(1, k + 1):
        sm = s[i - 2] if i >= 2 else 0
        sp = s[i] if i <= k - 1 else 0
        if (sm + sp + b[i - 1] * (1 - s[i - 1])) % 2:
            return False
    return True


def is_valid_spin(b: Sequence[int], s: Sequence[int]) -> bool:
    """Whether the bit vector s encodes a spin structure on the boundary.

    Validity is exactly integrality of the invariant coefficients: with
    s_0 = s_{k+1} = 0, every s_{i-1} + s_{i+1} + b_i (1 - s_i) must be
    even.  This is the characteristic-sublink condition for the chain.
    """
    if len(s) != len(b) or any(x not in (0, 1) for x in s):
        return False
    return _parity_ok(b, s)


def spin_structures(b: Sequence[int], p: int) -> list[Bits]:
    """All spin structures of the boundary, as parity bit vectors.

    Solved by forward substitution: s_1 is free, s_{i+1} = s_{i-1} +
    b_i (1 - s_i) mod 2, and the last parity equation filters.  The count
    must be 1 for odd p and 2 for even p (asserted).
    """
    b = tuple(b)
    k = len(b)
    out = []
    for s1 in (0, 1):
        s = [s1]
        for i in range(1, k):
            sm = s[i - 2] if i >= 2 else 0
            s.append((sm + b[i - 1] * (1 - s[i - 1])) % 2)
        sm = s[k - 2] if k >= 2 else 0
        if (sm + b[k - 1] * (1 - s[k - 1])) % 2 == 0:
            out.append(tuple(s))
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
    k = len(b)
    if not is_valid_spin(b, s):
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    p = continuant(b)
    mu = mu_basis(b, p)
    total = 0
    for i in range(1, k + 1):
        sm = s[i - 2] if i >= 2 else 0
        sp = s[i] if i <= k - 1 else 0
        coeff = (sm + sp + b[i - 1] * (1 - s[i - 1])) // 2 - (1 if i >= 2 else 0)
        total += coeff * mu[i - 1]
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
    k = len(b)
    if not is_valid_spin(b, s):
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    p = continuant(b)
    mu = mu_basis(b, p)
    t = (1 - s[0],) + tuple(s)  # indices 0..k; t_{-1} = t_{k+1} = 0
    bprime = (1, 1 - b[0]) + tuple(-x for x in b[1:])
    g = []
    for i in range(k + 1):
        tm = t[i - 1] if i >= 1 else 0
        tp = t[i + 1] if i <= k - 1 else 0
        g.append((2 + bprime[i] * (1 - t[i]) - tm - tp) // 2)
    total = (g[1] - g[0]) * mu[0]
    for i in range(2, k + 1):
        total += g[i] * mu[i - 1]
    return (-total) % p


def rotation_numbers(n: Sequence[int]) -> tuple[int, ...]:
    """Rotation numbers of the chain of Legendrian attaching circles.

    For an admissible zero tuple n the recursion r_1 = 0, r_2 = 1,
    r_{i+1} = n_i r_i - r_{i-1} is forced, so r_i = K(n_2..n_{i-1}) and the
    terminal value r_{k-1} - n_k r_k is -K(n_2..n_k).  The zero-tuple test
    says n_1 K(n_2..n_k) = K(n_3..n_k) with K(n_2..n_k) > 0, and
    consecutive continuants are coprime, so K(n_2..n_k) = 1: the relation
    r_{k-1} - n_k r_k = -1 cannot fail once that test has passed, and the
    assertion below never fires.  For k = 1 (where n = (0,)) the two
    boundary relations coincide and pin nothing beyond r_1 = 0.
    """
    n = tuple(n)
    if eval_cf(n) != 0:
        raise LensfillError(f"{n} is not an admissible zero tuple")
    k = len(n)
    if k == 1:
        return (0,)
    r = [0, 1]
    for i in range(2, k):
        r.append(n[i - 1] * r[i - 1] - r[i - 2])
    if r[k - 2] - n[k - 1] * r[k - 1] != -1:
        raise TheoremViolation(
            f"rotation recursion for {n} ends at {r[k - 2] - n[k - 1] * r[k - 1]}, not -1"
        )
    return tuple(r)
