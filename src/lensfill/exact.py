"""Exact integer substrate: modular inverses, continuants, Smith normal form.

Everything is arbitrary precision and purely functional; no floats appear
anywhere in the package.  Matrices are plain rectangular lists of lists of
Python ints.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import LensfillError

__all__ = ["mod_inverse", "continuants", "continuant"]


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``, normalized into ``[1, m-1]``.

    Raises LensfillError when gcd(a, m) != 1 or m < 2.
    """
    if m < 2:
        raise LensfillError(f"modulus must be at least 2, got {m}")
    try:
        return pow(a, -1, m)  # ValueError exactly when gcd(a, m) != 1
    except ValueError:
        raise LensfillError(f"{a} has no inverse mod {m}") from None


def continuants(t: Sequence[int]) -> list[int]:
    """Prefix continuants [0, 1, K(t_1), K(t_1, t_2), ..., K(t_1..t_k)]:
    K_{-1} = 0, K() = 1, K(t_1..t_i) = t_i*K(t_1..t_{i-1}) - K(t_1..t_{i-2}).

    The order p = K(b), the meridian coefficients, the rotation numbers and
    the search caps are all read from here (Conway-Coxeter frieze entries).
    """
    out = [0, 1]
    prev2, prev = 0, 1
    for x in t:
        prev2, prev = prev, x * prev - prev2
        out.append(prev)
    return out


def continuant(t: Sequence[int]) -> int:
    """Continuant K(t_1, ..., t_k), the last of continuants(t).  For an
    admissible tuple this is the numerator of [t_1, ..., t_k] in lowest
    terms; it is the determinant of the tridiagonal matrix with diagonal t
    and off-diagonal -1 entries."""
    return continuants(t)[-1]


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(rows, cols) non-negative integers d_1 | d_2 | ... | d_r
    followed by zeros.  Reduction is by elementary row and column
    operations, pivoting on the first entry +-1, else the smallest nonzero
    entry, of the remaining block; the cost is cubic in the size.  The
    package's only matrices are the cores of lattice.complement_homology,
    at most (k + 1) x k for k <= lattice.MAX_LATTICE_CHAIN chain entries;
    that bounds one filling's core (0.2 s at k = 500), not a whole command.
    """
    a = [list(row) for row in matrix]  # reduced in place, so a copy
    nr = len(a)
    nc = len(a[0]) if nr else 0
    dim = min(nr, nc)

    for t in range(dim):
        while True:
            # first unit of the remaining block, else its smallest nonzero entry, moved to (t, t)
            best = None
            for i in range(t, nr):
                row = a[i]
                for j in range(t, nc):
                    v = row[j]
                    if v and (best is None or abs(v) < abs(best[2])):
                        best = (i, j, v)
                if best and abs(best[2]) == 1:
                    break
            if best is None:
                break
            bi, bj, _ = best
            if bi != t:
                a[bi], a[t] = a[t], a[bi]
            if bj != t:
                for row in a:
                    row[bj], row[t] = row[t], row[bj]
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            clean = True
            for i in range(t + 1, nr):
                if not a[i][t]:  # most entries of the sparse cores are zero
                    continue
                q, r = divmod(a[i][t], p)
                if q:
                    rt = a[t]
                    a[i] = [x - q * y for x, y in zip(a[i], rt)]
                if r:
                    clean = False
            for j in range(t + 1, nc):
                if not a[t][j]:
                    continue
                q, r = divmod(a[t][j], p)
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if r:
                    clean = False
            if clean:
                break
        if a[t][t] == 0:
            break

    d = [abs(a[i][i]) for i in range(dim)]
    d = sorted((x for x in d if x)) + [0] * sum(1 for x in d if not x)
    # enforce the divisibility chain; diag(a, b) ~ diag(gcd, lcm)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] and d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d
