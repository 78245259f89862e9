"""Spin structures and the plane-field invariant, two ways.

The boundary of every filling of L(p, q) carries the same contact
structure, and its homotopy invariant (one first-homology value per spin
structure) can be computed either from the filling's handle picture or
from the compactified resolution side.  The two computations use entirely
different formulas; their agreement is the computational heart of the
uniqueness argument for the contact structure.
"""

from lensfill import (
    gamma_filling,
    gamma_standard,
    make_params,
    mu_basis,
    rotation_numbers,
    spin_structures,
    zset,
)

for p, q in ((4, 1), (9, 2), (12, 5), (25, 4)):
    pr = make_params(p, q)
    print(f"L({p},{q}): chain {pr.b}, meridians c = {mu_basis(pr.b, p)} (mod {p})")
    for s in spin_structures(pr.b, p):
        a = gamma_filling(pr.b, s)
        b = gamma_standard(pr.b, s)
        marker = "==" if a == b else "!!"
        print(f"  spin {s}: filling formula {a} {marker} standard formula {b}")

# Rotation numbers of the Legendrian attaching circles follow a rigid
# linear recursion ending in a forced -1.
print("rotation numbers:")
for n in ((1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 1, 3)):
    print(f"  {n} -> {rotation_numbers(n)}")

# The number of spin structures is 1 for odd p, 2 for even p:
for p, q in ((7, 3), (8, 3)):
    pr = make_params(p, q)
    print(f"L({p},{q}) has {len(spin_structures(pr.b, p))} spin structure(s)")
