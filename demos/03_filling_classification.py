"""Classifying the minimal symplectic fillings of a lens space.

With p/(p-q) = [b_1, ..., b_k], the minimal fillings of L(p, q)
correspond to the admissible zero tuples n bounded entrywise by b.  Two
of them give diffeomorphic manifolds only when q is self-inverse mod p
and the tuples are reverses of each other.
"""

from lensfill import (
    build_report,
    classify,
    dual_expansion,
    make_params,
    rational_ball_criterion,
    uniqueness_predicate,
    zset,
)

# L(4, 1) is the classical exceptional case: the disk bundle and the
# complement of a conic give two distinct fillings.
pr = make_params(4, 1)
zs = zset(pr)  # classify takes the fillings its caller has searched
print("L(4,1) fillings:", zs, "->", len(classify(pr, zs)), "classes")

# L(p, 1) for p != 4 has a single filling class:
for p in (5, 6, 17):
    pr = make_params(p, 1)
    print(f"L({p},1):", len(classify(pr, zset(pr))), "class")

# The square family L(m^2, m-1) always has exactly two fillings; the
# second is a rational homology ball (second Betti number zero), the
# piece used in rational blowdown surgery.
# The report lists each filling with its handle counts b - n, chi and b2.
for m in (3, 4, 5):
    report = build_report(m * m, m - 1)
    print(
        f"L({m*m},{m-1}): fillings",
        report["z_set"],
        "with b2 =",
        [row["b2"] for row in report["fillings"]],
        "witness:",
        rational_ball_criterion(m * m, m - 1),
    )

# When the expansion of p/q has all entries >= 5, the filling is unique; the
# point diagram turns p/(p-q) into that expansion:
pr = make_params(24, 5)
a = dual_expansion(pr.b)
print(f"24/5 = {list(a)}; unique filling certified:", uniqueness_predicate(a, zset(pr)))
print("Z_{24,5} =", zset(pr))

# A lens space with many homotopy-distinct minimal fillings: for b =
# (2, 3, 3, 3, 3) the tuples n = (1, 2 x r, 3, 2 x (1-r), 1, 3-r) are
# fillings whose Euler characteristics 5 + sum(b_i - 3) + r are consecutive.
pr = make_params(89, 34)
zs = zset(pr)
for r in (0, 1):
    n = (1,) + (2,) * r + (3,) + (2,) * (1 - r) + (1, 3 - r)
    assert n in zs
    print(f"L(89,34), r={r}: n={n}, chi={sum(b - x for b, x in zip(pr.b, n))}")
