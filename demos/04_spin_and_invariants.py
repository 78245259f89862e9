"""Spin structures and the plane-field invariant, two ways.

The boundary of every filling of L(p, q) carries the same contact
structure, and its homotopy invariant (one first-homology value per spin
structure) can be computed either from the filling's handle picture on the
chain b or from the resolution side on the dual chain a, the expansion of
p/q.  spin_rows(b, a) gives both values on every spin structure s of b,
and raises TheoremViolation where they differ.  The two sides read
different chains, so their agreement checks that the fillings' boundary
carries the standard contact structure.
"""

from lensfill import dual_expansion, make_params, rotation_numbers, spin_rows

for p, q in ((4, 1), (9, 2), (12, 5), (25, 4)):
    pr = make_params(p, q)
    # mu_k = K(b_1..b_{k-1}) mu_1 = (p - qbar) mu_1, the meridian scale of the table
    print(f"L({p},{q}): chain {pr.b}, mu_k = {p - pr.qbar} mu_1 (mod {p})")
    for row in spin_rows(pr.b, dual_expansion(pr.b)):
        a, b = row["gamma_filling"], row["gamma_standard"]
        print(f"  spin {tuple(row['s'])}: filling formula {a} == standard formula {b}")

# Rotation numbers of the Legendrian attaching circles are the prefix
# continuants of the inner entries n_2..n_{k-1}.
print("rotation numbers:")
for n in ((1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 1, 3)):
    print(f"  {n} -> {rotation_numbers(n)}")

# The number of spin structures is 1 for odd p, 2 for even p:
for p, q in ((7, 3), (8, 3)):
    pr = make_params(p, q)
    print(f"L({p},{q}) has {len(spin_rows(pr.b, dual_expansion(pr.b)))} spin structure(s)")
