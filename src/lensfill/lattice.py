"""Integer-lattice replay of the blowup geometry behind the classification.

Every bounded admissible zero tuple n arises from a configuration of
spheres C_0, C_1, ..., C_k in a blowup of the projective plane: two lines
(classes l, l) are blown up along the strict-blowup sequence that builds n
from (0), then each curve C_i absorbs b_i - n_i extra generic blowups.
The ambient second homology has orthogonal basis (l, f_1, ..., f_M) with
intersection form diag(+1, -1, ..., -1); the configuration has type
(1, 1-b_1, -b_2, ..., -b_k).  Its classes have forced shapes, [C_0] = l,
[C_1] = l - sum_{j in T} f_j and [C_i] = f_a - sum_{j in T} f_j for i >= 2,
so each is stored as SphereClass(line, lead, tails): the coefficient of l,
the index a (0 for none) and the set T.  Pairings are set intersections.
No dense coefficient row is built: the Smith form of the pairing matrix
runs only on its core, the classes that use no index alone over the line
column and the shared indices (see complement_homology).

The functions here rebuild that configuration explicitly and verify, by
direct integer computation, the structural facts the classification rests
on: the shape of the classes, the nesting of their exceptional sets, the
homology of the complement and its minimality; the counts of ambient
(-1)-classes meeting a single curve, which give back n by construction,
are reported.  check_filling runs each checker once: build_string re-checks
the pairings, validate_hom_classes the shapes, which give the types, and
validate_string_lemma, given the shapes, the nesting.  check_fillings runs
it on a chain's fillings within the work budget MAX_LATTICE_WORK.

Every (-1)-class that matters here is orthogonal to [C_0] = l, so it lies
in the span of the f_j.  That span has Gram matrix -I, so a class of
square -1 in it has exactly one coefficient +-1 and the rest 0: the only
such classes are +-f_j, and +-f_j meets [C_i] exactly when [C_i] uses the
index j as its lead or in its tails.  The counts therefore read off which
classes use each exceptional index; no search over the lattice is needed.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .cfrac import MAX_CHAIN, CFTuple, strict_blowup_sequence
from .errors import LensfillError, TheoremViolation
from .exact import continuants, smith_diagonal

# the longest chain build_string replays: its pairing checks are linear in k, but the Smith
# form of complement_homology's (k + 1) x k core is cubic, at most 0.2 s per filling at k = 500
MAX_LATTICE_CHAIN = 500
# the most work one lattice-check command may do, counted as fillings x k^2: a filling
# takes about 0.14 s at k = 500 (0.56 us a unit) and 0.2 ms at k = 8-9 (2.5 us a unit),
# so a k = 500 command within the limit runs about 11 s
MAX_LATTICE_WORK = 2 * 10**7

__all__ = [
    "SphereClass",
    "StringConfiguration",
    "dot",
    "build_string",
    "validate_hom_classes",
    "validate_string_lemma",
    "complement_homology",
    "minimal_si_counts",
    "orthogonal_minus_one_classes",
    "check_filling",
    "check_fillings",
]


class SphereClass(NamedTuple):
    """The class line*l + f_lead - sum_{j in tails} f_j; lead = 0 means
    no lead term, and tails holds indices in 1..M."""

    line: int
    lead: int
    tails: frozenset[int]


_LINE = SphereClass(1, 0, frozenset())


def dot(u: SphereClass, v: SphereClass) -> int:
    """Intersection pairing: the line terms pair to +1, each f_j with
    itself to -1."""
    f = len(u.tails & v.tails) - (u.lead in v.tails) - (v.lead in u.tails)
    return u.line * v.line - f - (u.lead == v.lead != 0)


class StringConfiguration:
    """Classes [C_0], ..., [C_k] over (l, f_1, ..., f_M).

    b and n are the chain weights and the zero tuple the configuration
    realizes; m_total is the number of exceptional classes M.  Instances
    built by build_string satisfy the chain intersection pattern; hand
    built instances may violate it, which is what the validators are for.
    """

    def __init__(self, b: CFTuple, n: CFTuple, m_total: int, classes: tuple[SphereClass, ...]):
        self.b = b
        self.n = n
        self.m_total = m_total
        self.classes = classes

    @cached_property
    def index_users(self) -> list[list[int]]:
        """index_users[j - 1]: the i, in order, whose [C_i] (C_0 included) uses
        f_j as lead or tail.  Built once; LensfillError on an index outside 1..M."""
        m = self.m_total
        users: list[list[int]] = [[] for _ in range(m)]
        for i, c in enumerate(self.classes):
            for j in [*c.tails, c.lead] if c.lead else c.tails:
                if not 1 <= j <= m:
                    raise LensfillError(f"[C_{i}] uses index {j}, outside 1..{m}")
                users[j - 1].append(i)
        return users


def build_string(b: Sequence[int], n: Sequence[int]) -> StringConfiguration:
    """Replay the blowup construction for n inside the bound b.

    Starts from two lines (classes l, l).  A strict blowup at tuple
    position s >= 2 blows up a point of the existing string away from C_0:
    a fresh exceptional class is subtracted from the one or two adjacent
    curve classes and inserted between them as a new (-1)-curve.  After
    the replay reaches n, curve i absorbs b_i - n_i further blowups at
    generic points, each subtracting a fresh exceptional class from [C_i]
    alone.  So the replay makes k + 1 curves and uses M = (k - 1) +
    sum(b_i - n_i) exceptional classes by construction.  The pairings (1 for
    adjacent classes, else 0) are re-checked on adjacent pairs and on pairs
    sharing an index; the types follow from the shapes (validate_hom_classes).
    Chains longer than MAX_LATTICE_CHAIN, and M above MAX_CHAIN, are refused.
    """
    b, n = tuple(b), tuple(n)
    k = len(b)
    if k > MAX_LATTICE_CHAIN:
        raise LensfillError(
            f"a chain of {k} entries is longer than the lattice limit of {MAX_LATTICE_CHAIN}"
        )
    if len(n) != k or k == 0:
        raise LensfillError(f"length mismatch: b = {b}, n = {n}")
    if any(x < 1 for x in b) or any(x < 0 or x > y for x, y in zip(n, b)):
        raise LensfillError(f"need 0 <= n_i <= b_i and b_i >= 1, got b = {b}, n = {n}")
    m_total = (k - 1) + sum(bi - ni for bi, ni in zip(b, n))
    if m_total > MAX_CHAIN:
        raise LensfillError(f"{m_total} exceptional classes exceed the limit of {MAX_CHAIN}")
    seq = strict_blowup_sequence(n)

    cur = [(1, 0, set()), (1, 0, set())]  # (line, lead, tails) of C_0 and C_1
    nxt = 1

    for s in seq:
        cur[s - 1][2].add(nxt)
        if s < len(cur):
            cur[s][2].add(nxt)
        cur.insert(s, (0, nxt, set()))
        nxt += 1

    for i in range(1, k + 1):
        extra = b[i - 1] - n[i - 1]
        cur[i][2].update(range(nxt, nxt + extra))
        nxt += extra

    classes = tuple(SphereClass(line, lead, frozenset(t)) for line, lead, t in cur)
    cfg = StringConfiguration(b=b, n=n, m_total=m_total, classes=classes)
    # only C_0 and C_1 carry l, so two classes further apart meet only through a shared index
    pairs = {(i, j) for us in cfg.index_users for i in us for j in us if i < j}
    pairs.update((i - 1, i) for i in range(1, k + 1))
    for i, j in sorted(pairs):
        expected = int(j == i + 1)
        if dot(cfg.classes[i], cfg.classes[j]) != expected:
            raise TheoremViolation(f"[C_{i}].[C_{j}] != {expected} for b={b}, n={n}")
    return cfg


def validate_hom_classes(cfg: StringConfiguration) -> bool:
    """Check the forced shape of the classes.

    [C_0] must be l, [C_1] l minus b_1 distinct exceptional classes, and
    [C_i] for i >= 2 one exceptional class minus b_i - 1 distinct others;
    only C_0 and C_1 carry l, and index_users refuses indices outside 1..M.
    The types follow: [C_1]^2 = 1 - b_1, [C_i]^2 = -1 - (b_i - 1) = -b_i.
    A SphereClass holds only the f-coefficients +1 (lead) and -1 (tails), so
    once the lead lies outside the tails the coefficient ranges and the
    adjunction identity sum_j (a_j + a_j^2) = 2 (1 - delta_{1 i}) hold.
    """
    k = len(cfg.b)
    cfg.index_users  # refuses an index outside 1..M
    if len(cfg.classes) != k + 1 or cfg.classes[0] != _LINE:
        return False
    for i, c in enumerate(cfg.classes[1:], 1):
        if i == 1:
            if c.line != 1 or c.lead != 0 or len(c.tails) != cfg.b[0]:
                return False
        elif c.line != 0 or not c.lead or c.lead in c.tails:
            return False
        elif len(c.tails) != cfg.b[i - 1] - 1:
            return False
    return True


def validate_string_lemma(cfg: StringConfiguration) -> bool:
    """Check the nesting facts about exceptional sets of a string.

    Write A^1 for the tails of C_1, and A^i and e^i_1 for the tails and
    the lead of C_i when i >= 2.
    (1) Each leading class e^j_1 (j >= 2) lies in some earlier set A^i;
        when the witness i is not j - 1 there must be an intermediate h
        with e^h_1 in A^i and A^j.
    (2) Any pairwise intersection A^i and A^j consists of leading classes,
        that is, every index with two or more users is a lead.
    Holders and witnesses h come from index_users, not a scan of all classes.
    Answers for a shape-valid configuration: check_filling checks shapes first.
    """
    c = cfg.classes
    users = cfg.index_users
    for j in range(2, len(c)):
        lead = c[j].lead
        holders = [i for i in users[lead - 1] if i < j and lead in c[i].tails]
        if not holders:
            return False
        for i in holders:
            if i < j - 1 and not any(
                i < h < j and c[h].lead == t for t in c[i].tails & c[j].tails for h in users[t - 1]
            ):
                return False
    return all(any(c[h].lead == t for h in us) for t, us in enumerate(users, 1) if len(us) > 1)


def complement_homology(cfg: StringConfiguration) -> tuple[int, list[int]]:
    """Second Betti number and H_1 torsion of the complement of the string.

    The pairing matrix (rows = classes, columns = ambient basis) has
    cokernel H_1(complement) and corank b_2(complement).  Unit pivots:
    if [C_i] alone uses the index j, column j is +-1 in row i and zero
    elsewhere, so row i and column j split off as an invariant factor 1.
    These solo classes drop out; their other private columns and the
    unused indices are then zero, and smith_diagonal gets only the core:
    the other classes over l and the indices with two or more users.  In
    a build only the k - 1 replay indices are shared, so the core is at
    most (k + 1) x k whatever M is, and build_string's MAX_LATTICE_CHAIN
    bounds k, hence the core.  Asserts b_2 = sum(b_i - n_i) - 1.
    Returns (b_2, nontrivial elementary divisors of H_1).
    """
    users = cfg.index_users
    solo = {us[0] for us in users if len(us) == 1}
    shared = [j for j, us in enumerate(users, 1) if len(us) > 1]
    core = [  # [C_i] paired with l and the shared f_j
        [c.line] + [(j in c.tails) - (j == c.lead) for j in shared]
        for i, c in enumerate(cfg.classes)
        if i not in solo
    ]
    diag = [1] * len(solo) + smith_diagonal(core)
    b2 = cfg.m_total + 1 - sum(1 for d in diag if d)  # corank
    expected_b2 = sum(bi - ni for bi, ni in zip(cfg.b, cfg.n)) - 1
    if b2 != expected_b2:
        raise TheoremViolation(f"b2 = {b2} but handles give {expected_b2} for b={cfg.b}, n={cfg.n}")
    return b2, [d for d in diag if d > 1]


def minimal_si_counts(cfg: StringConfiguration) -> tuple[int, ...]:
    """Recover n from ambient (-1)-classes touching a single curve.

    For each i, the classes e with e.e = -1 orthogonal to every [C_j]
    (including [C_0]) except [C_i] are the pairs +-f_j (see the module
    docstring) with f_j used by [C_i] alone; s_i is the number of such
    indices j.  On a build b_i - s_i = n_i, unchecked: each replay index has
    two users (its new curve's lead, a neighbour's tail), so the solo
    indices are exactly the b_i - n_i extra blowups.
    """
    counts = [0] * len(cfg.b)
    for users in cfg.index_users:
        if len(users) == 1 and users[0] >= 1:
            counts[users[0] - 1] += 1
    return tuple(counts)


def orthogonal_minus_one_classes(cfg: StringConfiguration) -> list[SphereClass]:
    """Classes of square -1 orthogonal to the whole configuration.

    These are the +-f_j (see the module docstring) for the indices j that
    no [C_i] uses, listed as -f_j for ascending j followed by +f_j for
    descending j.  Nonempty output would exhibit a (-1)-class inside the
    complement; the complements realized here are minimal, so builds must
    return [].
    """
    unused = [j for j, users in enumerate(cfg.index_users, 1) if not users]
    return [SphereClass(0, 0, frozenset((j,))) for j in unused] + [
        SphereClass(0, j, frozenset()) for j in reversed(unused)
    ]


def check_filling(b: Sequence[int], n: Sequence[int]) -> dict:
    """Run every lattice check on the filling n of the chain b.

    Builds the string, then checks class shapes, exceptional-set nesting,
    complement homology (H_1 against the handle side Z/g, g the gcd of the
    meridian classes K(n_1..n_{i-1}) with n_i < b_i) and minimality, and
    returns the lattice-check row for n, minimal_si_counts included.  A chain
    with an entry below 2 presents no lens space and is refused with LensfillError
    before anything is built; a failed check raises TheoremViolation naming
    b, n and the check.
    """
    if any(x < 2 for x in b):
        raise LensfillError(f"need a chain with all entries >= 2, got b = {tuple(b)}")
    cfg = build_string(b, n)

    def require(ok: bool, check: str) -> bool:
        if not ok:
            raise TheoremViolation(f"lattice check {check} failed for b={cfg.b}, n={cfg.n}")
        return ok

    shapes = require(validate_hom_classes(cfg), "hom_classes")
    nesting = require(validate_string_lemma(cfg), "string_lemma")
    b2, divisors = complement_homology(cfg)
    g = gcd(*(kn for kn, ni, bi in zip(continuants(cfg.n)[1:], cfg.n, cfg.b) if ni < bi))
    require(divisors == ([g] if g > 1 else []), "h1_handles")
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


def check_fillings(b: Sequence[int], zs: Sequence[CFTuple]) -> list[dict]:
    """check_filling on each filling in zs of the chain b, in order; refused with
    LensfillError before any is checked if fillings x k^2 exceeds MAX_LATTICE_WORK."""
    k = len(b)
    work = len(zs) * k * k
    if work > MAX_LATTICE_WORK:
        raise LensfillError(
            f"{len(zs)} fillings of a chain of {k} entries make {work} units of "
            f"lattice work (fillings x k^2), more than the limit of {MAX_LATTICE_WORK}"
        )
    return [check_filling(b, n) for n in zs]
