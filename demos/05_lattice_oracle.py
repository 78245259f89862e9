"""Rebuilding fillings inside blowups of the projective plane.

Each bounded zero tuple n arises from two lines in the plane by a
sequence of blowups; the resulting sphere configuration has type
(1, 1-b_1, -b_2, ..., -b_k) and its complement is the filling attached
to n.  Everything about that picture is integer linear algebra in the
basis (l, f_1, ..., f_M), so the structure theory can be replayed and
re-verified directly.  Each class is stored by its forced shape, a
SphereClass(line, lead, tails) standing for line*l + f_lead - sum of the
f_j over the tails.
"""

from lensfill import (
    build_string,
    complement_homology,
    dot,
    make_params,
    minimal_si_counts,
    orthogonal_minus_one_classes,
    validate_hom_classes,
    validate_string_lemma,
    zset,
)


def show(c):
    """A class as l - f1 - f2 or f3 - f5."""
    terms = (["l"] if c.line else []) + ([f"f{c.lead}"] if c.lead else [])
    return " - ".join(terms + [f"f{j}" for j in sorted(c.tails)])


pr = make_params(9, 2)
for n in zset(pr):
    cfg = build_string(pr.b, n)
    print(f"n = {n}: M = {cfg.m_total} exceptional classes")
    for i, c in enumerate(cfg.classes):
        print(f"  [C_{i}] = {show(c)}   self-intersection {dot(c, c)}")
    print("  class shapes valid:", validate_hom_classes(cfg))
    print("  exceptional-set nesting valid:", validate_string_lemma(cfg))
    b2, divisors = complement_homology(cfg)
    print(f"  complement: b2 = {b2}, H1 elementary divisors = {divisors}")
    s = minimal_si_counts(cfg)
    print(f"  (-1)-class counts s = {s} recover n = {tuple(b - x for b, x in zip(pr.b, s))}")
    print("  (-1)-classes disjoint from the whole string:", len(orthogonal_minus_one_classes(cfg)))

# The rational-ball filling of L(9,2) shows up as the n = (2,2,1,3)
# configuration: complement with b2 = 0 and H1 of order 3 (and 3^2 = 9).
