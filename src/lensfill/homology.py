"""First-homology bookkeeping on the boundary lens space.

The boundary of the filling attached to n is presented by a chain of k
unknots with framings b_1, ..., b_k; the meridian classes mu_1, ..., mu_k
generate H_1 and satisfy b_i mu_i = mu_{i-1} + mu_{i+1} with mu_0 =
mu_{k+1} = 0.  Everything below is expressed in the cyclic group of order
p = K(b) generated by mu_1, with mu_i = K(b_1..b_{i-1}) mu_1; both are
prefix continuants of b, so every function takes b alone.  Computed here:
spin structures as parity bit vectors, the two formulas for the
plane-field invariant (one from the handle picture of the filling, one
from the compactified resolution side), and the chain's rotation numbers.

The two invariant formulas are not independent.  With N_i = s_{i-1} +
s_{i+1} + b_i (1 - s_i), both expand to sum_i (N_i/2 - [i >= 2]) mu_i,
term by term, so their agreement checks the two implementations only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cfrac import eval_cf
from .errors import LensfillError, TheoremViolation
from .exact import continuants

__all__ = [
    "mu_basis",
    "spin_structures",
    "is_valid_spin",
    "gamma_filling",
    "gamma_standard",
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
    vector of length k with every N_i even)."""
    if len(s) != len(b) or any(x not in (0, 1) for x in s):
        return None
    z = (0, *s, 0)
    sums = [z[i - 1] + z[i + 1] + x * (1 - z[i]) for i, x in enumerate(b, 1)]
    return None if any(x % 2 for x in sums) else sums


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
    p = _chain_continuants(b)[-1]
    out = []
    for s1 in (0, 1):
        s = [0, s1]
        for x in b:
            s.append((s[-2] + x * (1 - s[-1])) % 2)
        if s[-1] == 0:
            out.append(tuple(s[1:-1]))
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
    sums = _chain_sums(b, s)
    if sums is None:
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    *mu, p = _chain_continuants(b)[1:]
    return (sum(n // 2 * c for n, c in zip(sums, mu)) - sum(mu[1:])) % p


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
    if not is_valid_spin(b, s):
        raise LensfillError(f"{s} is not a spin structure for chain {b}")
    *mu, p = _chain_continuants(b)[1:]
    t = (0, 1 - s[0], *s, 0)  # t_{-1}, t_0, ..., t_k, t_{k+1}
    bprime = (1, 1 - b[0], *(-x for x in b[1:]))
    g = [(2 + x * (1 - t[i + 1]) - t[i] - t[i + 2]) // 2 for i, x in enumerate(bprime)]
    total = (g[1] - g[0]) * mu[0] + sum(x * c for x, c in zip(g[2:], mu[1:]))
    return (-total) % p


def rotation_numbers(n: Sequence[int]) -> tuple[int, ...]:
    """Rotation numbers of the chain of Legendrian attaching circles.

    For an admissible zero tuple n the recursion r_1 = 0, r_2 = 1,
    r_{i+1} = n_i r_i - r_{i-1} is forced, so r is continuants(n_2..n_{k-1}),
    r_i = K(n_2..n_{i-1}), and the terminal value r_{k-1} - n_k r_k is
    -K(n_2..n_k).  The zero-tuple test
    says n_1 K(n_2..n_k) = K(n_3..n_k) with K(n_2..n_k) > 0, and
    consecutive continuants are coprime, so K(n_2..n_k) = 1: the relation
    r_{k-1} - n_k r_k = -1 cannot fail once that test has passed, and the
    assertion below never fires.  For k = 1 (where n = (0,)) the two
    boundary relations coincide and pin nothing beyond r_1 = 0.
    """
    n = tuple(n)
    if eval_cf(n) != 0:
        raise LensfillError(f"{n} is not an admissible zero tuple")
    if len(n) == 1:
        return (0,)
    r = continuants(n[1:-1])  # r_1 = K_{-1} = 0, r_2 = K() = 1, ..., r_k
    if r[-2] - n[-1] * r[-1] != -1:
        raise TheoremViolation(
            f"rotation recursion for {n} ends at {r[-2] - n[-1] * r[-1]}, not -1"
        )
    return tuple(r)
