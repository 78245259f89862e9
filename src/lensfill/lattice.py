"""Integer-lattice replay of the blowup geometry behind the classification.

Every bounded admissible zero tuple n arises from a configuration of
spheres C_0, C_1, ..., C_k in a blowup of the projective plane: two lines
(classes l, l) are blown up along the strict-blowup sequence that builds n
from (0), then each curve C_i absorbs b_i - n_i extra generic blowups.
The ambient second homology has orthogonal basis (l, f_1, ..., f_M) with
intersection form diag(+1, -1, ..., -1); the configuration has type
(1, 1-b_1, -b_2, ..., -b_k).

The functions here rebuild that configuration explicitly and verify, by
direct integer computation, the structural facts the classification rests
on: the shape of the classes, the nesting of their exceptional sets, the
homology of the complement, and the recovery of n from counts of ambient
(-1)-classes meeting a single curve.

Every (-1)-class that matters here is orthogonal to [C_0] = l, so it lies
in the span of the f_j.  That span has Gram matrix -I, so a class of
square -1 in it has exactly one coefficient +-1 and the rest 0: the only
such classes are +-f_j, and +-f_j meets [C_i] exactly when the f_j
coefficient of [C_i] is nonzero.  The counts therefore read off which
classes use each exceptional index; no search over the lattice is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cfrac import CFTuple, strict_blowup_sequence
from .errors import ConsistencyViolated
from .exact import continuant, smith_diagonal

__all__ = [
    "StringConfiguration",
    "dot",
    "build_string",
    "validate_hom_classes",
    "validate_string_lemma",
    "complement_homology",
    "minimal_si_counts",
    "orthogonal_minus_one_classes",
    "check_filling",
]

Vector = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Intersection pairing in the basis (l, f_1, ..., f_M)."""
    return u[0] * v[0] - sum(a * c for a, c in zip(u[1:], v[1:]))


@dataclass(frozen=True)
class StringConfiguration:
    """Classes [C_0], ..., [C_k] as vectors over (l, f_1, ..., f_M).

    b and n are the chain weights and the zero tuple the configuration
    realizes; m_total is the number of exceptional classes M.  Instances
    built by build_string satisfy the chain intersection pattern; hand
    built instances may violate it, which is what the validators are for.
    """

    b: CFTuple
    n: CFTuple
    m_total: int
    classes: tuple[Vector, ...]


def _expected_types(b: Sequence[int]) -> list[int]:
    return [1, 1 - b[0]] + [-x for x in b[1:]]


def build_string(b: Sequence[int], n: Sequence[int]) -> StringConfiguration:
    """Replay the blowup construction for n inside the bound b.

    Starts from two lines (classes l, l).  A strict blowup at tuple
    position s >= 2 blows up a point of the existing string away from C_0:
    a fresh exceptional class is subtracted from the one or two adjacent
    curve classes and inserted between them as a new (-1)-curve.  After
    the replay reaches n, curve i absorbs b_i - n_i further blowups at
    generic points, each subtracting a fresh exceptional class from [C_i]
    alone.  M = (k - 1) + sum(b_i - n_i).  The resulting intersection
    pattern and type are re-checked before returning.
    """
    b = tuple(b)
    n = tuple(n)
    k = len(b)
    if len(n) != k or k == 0:
        raise ValueError(f"length mismatch: b = {b}, n = {n}")
    if any(x < 1 for x in b) or any(x < 0 or x > y for x, y in zip(n, b)):
        raise ValueError(f"need 0 <= n_i <= b_i and b_i >= 1, got b = {b}, n = {n}")
    seq = strict_blowup_sequence(n)

    m_total = (k - 1) + sum(bi - ni for bi, ni in zip(b, n))
    width = m_total + 1
    ell = [1] + [0] * m_total
    cur = [list(ell), list(ell)]  # C_0 and C_1, both lines
    nxt = 1

    for s in seq:
        cur[s - 1][nxt] -= 1
        if s < len(cur):
            cur[s][nxt] -= 1
        e = [0] * width
        e[nxt] = 1
        cur.insert(s, e)
        nxt += 1
    if len(cur) != k + 1:
        raise ConsistencyViolated(f"replay of {n} produced {len(cur) - 1} curves, not {k}")

    for i in range(1, k + 1):
        for _ in range(b[i - 1] - n[i - 1]):
            cur[i][nxt] -= 1
            nxt += 1
    if nxt != m_total + 1:
        raise ConsistencyViolated(f"used {nxt - 1} exceptional classes, expected {m_total}")

    cfg = StringConfiguration(b=b, n=n, m_total=m_total, classes=tuple(map(tuple, cur)))

    types = _expected_types(b)
    for i, ci in enumerate(cfg.classes):
        if dot(ci, ci) != types[i]:
            raise ConsistencyViolated(f"[C_{i}]^2 = {dot(ci, ci)}, expected {types[i]}")
        for j in range(i + 1, k + 1):
            expected = 1 if j == i + 1 else 0
            if dot(ci, cfg.classes[j]) != expected:
                raise ConsistencyViolated(f"[C_{i}].[C_{j}] != {expected}")
    if cfg.classes[0] != tuple(ell):
        raise ConsistencyViolated("[C_0] is not the line class")
    return cfg


def validate_hom_classes(cfg: StringConfiguration) -> bool:
    """Check the forced shape of the classes and the adjunction identity.

    [C_1] must be l minus b_1 distinct exceptional classes; [C_i] for
    i >= 2 must be one exceptional class minus b_i - 1 distinct others.
    Distinctness means every f-coefficient lies in {0, -1} apart from the
    single +1.  Each class must also satisfy
    sum_j (a_j + a_j^2) = 2 (1 - delta_{1 i}) over its f-coefficients.
    """
    k = len(cfg.b)
    if len(cfg.classes) != k + 1 or any(len(c) != cfg.m_total + 1 for c in cfg.classes):
        return False
    if cfg.classes[0] != (1,) + (0,) * cfg.m_total:
        return False
    for i in range(1, k + 1):
        c = cfg.classes[i]
        fs = c[1:]
        if i == 1:
            if c[0] != 1 or any(x not in (0, -1) for x in fs):
                return False
            if sum(1 for x in fs if x == -1) != cfg.b[0]:
                return False
        else:
            if c[0] != 0:
                return False
            if sum(1 for x in fs if x == 1) != 1 or any(x not in (0, 1, -1) for x in fs):
                return False
            if sum(1 for x in fs if x == -1) != cfg.b[i - 1] - 1:
                return False
        if sum(x + x * x for x in fs) != 2 * (1 - (1 if i == 1 else 0)):
            return False
    return True


def _leading_and_tails(cfg: StringConfiguration):
    """Index sets: A[1] = all exceptionals of C_1, A[i] = the subtracted
    exceptionals of C_i for i >= 2; lead[i] = the positive one."""
    k = len(cfg.b)
    lead = {}
    tails = {}
    for i in range(1, k + 1):
        c = cfg.classes[i]
        tails[i] = {j for j in range(1, cfg.m_total + 1) if c[j] == -1}
        if i >= 2:
            lead[i] = next(j for j in range(1, cfg.m_total + 1) if c[j] == 1)
    return lead, tails


def validate_string_lemma(cfg: StringConfiguration) -> bool:
    """Check the nesting facts about exceptional sets of a string.

    (1) Each leading class e^j_1 (j >= 2) lies in some earlier set A^i;
        when the witness i is not j - 1 there must be an intermediate h
        with e^h_1 in A^i and A^j.
    (2) Any pairwise intersection A^i and A^j consists of leading classes.
    Requires a shape-valid configuration.
    """
    if not validate_hom_classes(cfg):
        raise ValueError("configuration fails the shape check")
    k = len(cfg.b)
    lead, tails = _leading_and_tails(cfg)
    leading_set = set(lead.values())
    for j in range(2, k + 1):
        holders = [i for i in range(1, j) if lead[j] in tails[i]]
        if not holders:
            return False
        for i in holders:
            if i < j - 1:
                if not any(
                    h in lead and lead[h] in tails[i] and lead[h] in tails[j]
                    for h in range(i + 1, j)
                ):
                    return False
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if not (tails[i] & tails[j]) <= leading_set:
                return False
    return True


def complement_homology(cfg: StringConfiguration) -> tuple[int, list[int]]:
    """Second Betti number and H_1 torsion of the complement of the string.

    The pairing matrix (rows = classes, columns = ambient basis) has
    cokernel H_1(complement) and corank b_2(complement).  Asserts
    b_2 = sum(b_i - n_i) - 1, and that the string's Gram determinant has
    absolute value K(b) - the order of the boundary's first homology.
    Returns (b_2, nontrivial elementary divisors of H_1).
    """
    k = len(cfg.b)
    width = cfg.m_total + 1
    rows = []
    for c in cfg.classes:
        rows.append([c[0]] + [-x for x in c[1:]])
    diag = smith_diagonal(rows)
    rank = sum(1 for d in diag if d)
    b2 = width - rank
    expected_b2 = sum(bi - ni for bi, ni in zip(cfg.b, cfg.n)) - 1
    if b2 != expected_b2:
        raise ConsistencyViolated(
            f"complement b2 = {b2} but handle count gives {expected_b2}"
        )
    types = _expected_types(cfg.b)
    prev2, prev = 0, 1
    for i in range(k + 1):
        prev2, prev = prev, types[i] * prev - prev2
    p = continuant(cfg.b)
    if abs(prev) != p:
        raise ConsistencyViolated(
            f"string Gram determinant {prev} is not +-{p}, boundary order mismatch"
        )
    return b2, [d for d in diag if d > 1]


def _index_users(cfg: StringConfiguration) -> list[list[int]]:
    """users[j - 1] lists, in order, the i whose [C_i] has a nonzero f_j
    coefficient; [C_0] is included, so hand-built configurations whose
    C_0 is not the line class are counted faithfully."""
    users: list[list[int]] = [[] for _ in range(cfg.m_total)]
    for i, c in enumerate(cfg.classes):
        for j, x in enumerate(c[1 : cfg.m_total + 1]):
            if x:
                users[j].append(i)
    return users


def minimal_si_counts(cfg: StringConfiguration) -> tuple[int, ...]:
    """Recover n from ambient (-1)-classes touching a single curve.

    For each i, the classes e with e.e = -1 orthogonal to every [C_j]
    (including [C_0]) except [C_i] are the pairs +-f_j (see the module
    docstring) with f_j used by [C_i] alone; s_i is the number of such
    indices j, and b_i - s_i must reproduce n_i.  The recovery is asserted.
    """
    counts = [0] * len(cfg.b)
    for users in _index_users(cfg):
        if len(users) == 1 and users[0] >= 1:
            counts[users[0] - 1] += 1
    s = tuple(counts)
    recovered = tuple(bi - si for bi, si in zip(cfg.b, s))
    if recovered != cfg.n:
        raise ConsistencyViolated(
            f"counts {s} recover {recovered}, configuration was built from {cfg.n}"
        )
    return s


def orthogonal_minus_one_classes(cfg: StringConfiguration) -> list[Vector]:
    """Classes of square -1 orthogonal to the whole configuration.

    These are the +-f_j (see the module docstring) for the indices j that
    no [C_i] uses, listed as -f_j for ascending j followed by +f_j for
    descending j.  Nonempty output would exhibit a (-1)-class inside the
    complement; the complements realized here are minimal, so builds must
    return [].
    """
    unused = [j for j, users in enumerate(_index_users(cfg), 1) if not users]
    signed = [(j, -1) for j in unused] + [(j, 1) for j in reversed(unused)]
    return [tuple(s if i == j else 0 for i in range(cfg.m_total + 1)) for j, s in signed]


def check_filling(b: Sequence[int], n: Sequence[int]) -> dict:
    """Run every lattice check on the filling n of the chain b.

    Builds the string, then checks class shapes, exceptional-set nesting,
    complement homology, count recovery and minimality, and returns the
    lattice-check row for n.  A failed check raises ConsistencyViolated
    naming b, n and the check.
    """
    cfg = build_string(b, n)

    def require(ok: bool, check: str) -> bool:
        if not ok:
            raise ConsistencyViolated(
                f"lattice check {check} failed for b={cfg.b}, n={cfg.n}"
            )
        return ok

    shapes = require(validate_hom_classes(cfg), "hom_classes")
    nesting = require(validate_string_lemma(cfg), "string_lemma")
    b2, divisors = complement_homology(cfg)
    counts = minimal_si_counts(cfg)
    minimal = require(not orthogonal_minus_one_classes(cfg), "minimal")
    return {
        "n": list(cfg.n),
        "m_total": cfg.m_total,
        "hom_classes": shapes,
        "string_lemma": nesting,
        "b2": b2,
        "h1_divisors": divisors,
        "si_counts": list(counts),
        "minimal": minimal,
    }
