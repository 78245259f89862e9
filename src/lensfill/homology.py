"""First-homology bookkeeping on the boundary lens space.

The boundary of the filling attached to n is presented by a chain of k
unknots with framings b_1, ..., b_k; the meridian classes mu_1, ..., mu_k
generate H_1 and satisfy b_i mu_i = mu_{i-1} + mu_{i+1} with mu_0 =
mu_{k+1} = 0.  Everything below is expressed in the cyclic group of order
p = K(b) generated by mu_1, with mu_i = K(b_1..b_{i-1}) mu_1 (mu_basis).
Computed here: spin structures as parity bit vectors, the plane-field
invariant Gamma of the filling's boundary and of the standard contact
structure, the spin section that checks they agree, and the chain's
rotation numbers.

A spin structure s of b makes every N_i = s_{i-1} + s_{i+1} + b_i (1 - s_i)
even, with s_0 = s_{k+1} = 0.  Gamma of the handle picture (Gompf 1998,
Theorem 4.12) is mu_1 + sum_i (N_i/2 - 1) mu_i, and that sum telescopes.
Read mu_i as the integer K(b_1..b_{i-1}), so that mu_0 = 0, mu_1 = 1,
mu_{k+1} = K(b) = p and b_i mu_i = mu_{i-1} + mu_{i+1} for i = 1..k hold
exactly.  With M = sum_i mu_i the relations give sum_i b_i mu_i = 2M - mu_k
- 1 + p, and, collecting the coefficient of each s_j,
sum_i (s_{i-1} + s_{i+1} - b_i s_i) mu_i = -s_k p.  So sum_i N_i mu_i = 2M
- mu_k - 1 + (1 - s_k) p, and

    Gamma(b, s) = (1 - K(b_1..b_{k-1}) + (1 - s_k) p)/2 mod p,

an integer identity before the reduction.  One walk along a chain (_walk)
therefore gives everything: from a first bit s_1 the recurrence s_{i+1} =
s_{i-1} + b_i (1 - s_i) mod 2 makes each N_i even, s is a spin structure
iff the step past b_k gives s_{k+1} = 0, and the same pass carries the two
running continuants K(b_1..b_{k-1}) and K(b).  No list of continuants is
built.

Gamma of the standard contact structure is read from the dual chain a =
dual_expansion(b), the expansion of p/q (K(a) = p), which the resolution of
the cyclic quotient singularity plumbs.  Gompf gives -sum_j (a_j - 2 - a_j
x_j + x_{j-1} + x_{j+1})/2 nu_j for its Legendrian chain with rotation
numbers a_j - 2, a spin structure x of a and nu_j = K(a_1..a_{j-1}) nu_1;
each term is (N_j/2 - 1) nu_j, so the sum is 1 - Gamma(a, x) = 1 - (1 -
K(a_1..a_{m-1}) + (1 - x_m) p)/2 in units nu_1 = mu_1.  That identification
and the row rule x_1 = 1 - s_1 are measured, not derived: with them the two
sides agree on all 36,562 (pair, spin) rows with p <= 300, and x_1 = s_1
breaks both rows of every pair with even p <= 120.  At odd p each chain has
one spin structure, so the rule is a check there.  Each side reads only its
own chain (the filling side b, the standard side a), so their agreement can
fail.
"""

from __future__ import annotations

from typing import Sequence

from .cfrac import _is_zero_tuple, dual_expansion
from .errors import LensfillError, TheoremViolation
from .exact import continuants

__all__ = [
    "spin_rows",
    "rotation_numbers",
]

Bits = tuple[int, ...]
Walk = tuple[Bits, int, int]


def _walk(c: Sequence[int], x1: int) -> Walk | None:
    """(x, K(c_1..c_{L-1}), K(c)) for the spin structure x of the chain c
    with x_1 = x1, or None if the recurrence from x1 gives x_{L+1} != 0.
    One pass of running values: the step that finds x_{i+1} also advances
    the continuants."""
    bits = []
    left, here = 0, x1  # x_{i-1}, x_i
    before, last = 0, 1  # K(c_1..c_{i-2}), K(c_1..c_{i-1})
    for v in c:
        bits.append(here)
        left, here = here, (left + (0 if here else v)) & 1  # x_{i+1} makes N_i even
        before, last = last, v * last - before
    return None if here else (tuple(bits), before, last)  # here is x_{L+1}


def _gamma(walk: Walk) -> int:
    """Gamma of a chain at the spin structure of walk = _walk(c, x1): (1 -
    K(c_1..c_{L-1}) + (1 - x_L) K(c))/2 mod K(c), the telescoped sum."""
    x, before, p = walk
    return (1 - before + (1 - x[-1]) * p) // 2 % p


def _spins(b: tuple[int, ...]) -> list[Walk]:
    """_walk(b, 0) and _walk(b, 1), those that close: one walk per spin
    structure of b.  Refuses an empty chain and p = K(b) < 1.  One of the two
    always closes (over Z/2 the diagonal of a symmetric matrix lies in its
    image), so p is read from the first; the count must be 1 for odd p and 2
    for even p (asserted)."""
    if not b:
        raise LensfillError("need a nonempty chain")
    walks = [w for w in (_walk(b, 0), _walk(b, 1)) if w is not None]
    p = walks[0][2]
    if p < 1:
        raise LensfillError(f"chain {b} has determinant {p}, need p >= 1")
    if len(walks) != 2 - p % 2:
        raise TheoremViolation(f"found {len(walks)} spin structures for {b}, expected {2 - p % 2}")
    return walks


def mu_basis(b: Sequence[int]) -> tuple[int, ...]:
    """Express every meridian class as a multiple of mu_1 modulo p = K(b).

    Returns (c_1, ..., c_k) with mu_i = c_i * mu_1 in Z/p, c_1 = 1.  The
    chain relations give c_1 = 1, c_2 = b_1, c_{i+1} = b_i c_i - c_{i-1},
    so c_i = K(b_1..b_{i-1}) mod p, and the final relation b_k c_k -
    c_{k-1} = K(b) closes modulo p with nothing left to check.
    """
    b = tuple(b)
    p = _spins(b)[0][2]  # refuses an empty chain and p < 1
    return tuple(x % p for x in continuants(b)[1:-1])


def spin_structures(b: Sequence[int]) -> list[Bits]:
    """All spin structures of the boundary, as parity bit vectors: s_1 is
    free and the recurrence fixes the rest (see the module docstring).  The
    count must be 1 for odd p = K(b) and 2 for even p (asserted).
    """
    return [s for s, _, _ in _spins(tuple(b))]


def gamma_filling(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the filling's boundary contact structure,
    computed from the handle picture: mu_1 + sum_i (N_i/2 - 1) mu_i, in
    closed form (1 - K(b_1..b_{k-1}) + (1 - s_k) p)/2 mod p, a residue c
    meaning c * mu_1.  Depends only on b and s, not on the particular
    filling.  Refuses an s that is not one of spin_structures(b).
    """
    b = tuple(b)
    for walk in _spins(b):
        if walk[0] == tuple(s):
            return _gamma(walk)
    raise LensfillError(f"{s} is not a spin structure for chain {b}")


def gamma_standard(b: Sequence[int], s: Sequence[int]) -> int:
    """Plane-field invariant of the standard contact structure at the spin
    structure s of the chain b, read from the resolution side: Gamma of the
    dual chain a = dual_expansion(b) (see the module docstring), as
    spin_rows reads it, so it raises where spin_rows does.  Like
    dual_expansion, it refuses a chain with an entry below 2, after the
    refusals of gamma_filling.
    """
    gamma_filling(b, s)  # refuses the chain, then an s that is not a spin structure of b
    rows = spin_rows(tuple(b), dual_expansion(b))
    return next(r["gamma_standard"] for r in rows if r["s"] == list(s))


def spin_rows(b: tuple[int, ...], a: tuple[int, ...]) -> list[dict]:
    """The spin section: on every spin structure s of the chain b, Gamma from
    the handle picture and Gamma of the standard contact structure, read from
    a = dual_expansion(b), which the caller passes.

    The two must agree exactly; TheoremViolation names the spin structure
    where they do not, or where a has no spin structure x with x_1 = 1 - s_1
    to pair with it, and the caller's naming scopes the pair.  Two walks
    along b, one per first bit, then one walk along a per spin structure;
    each side is reduced modulo its own chain's continuant.
    """
    rows = []
    for walk in _spins(b):
        s = walk[0]
        dual = _walk(a, 1 - s[0])
        if dual is None:
            raise TheoremViolation(
                f"gamma at s={s}: the dual chain {a} has no spin structure with x_1 = {1 - s[0]}"
            )
        gf, gs = _gamma(walk), (1 - _gamma(dual)) % dual[2]
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
