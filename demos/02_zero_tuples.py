"""Zero continued fractions and the blowup calculus.

The admissible tuples of positive integers with [n_1, ..., n_k] = 0 are
exactly the tuples produced from (0) by repeatedly inserting a 1 away
from the first position and incrementing its neighbors ("strict
blowups").  In each length k >= 2 there are Catalan(k-1) of them.
"""

from math import comb

from lensfill import blowdown, bounded_zero_cf, enumerate_zero_cf, strict_blowup_sequence

# Every zero tuple records its own construction; the package recovers a
# canonical sequence of strict insertion positions by greedy blowdowns.
n = (2, 2, 1, 4, 2, 1)
seq = strict_blowup_sequence(n)
print(n, "is built from (0) by strict blowups at", seq)
print("shrinking back to (0):")
t = n
for s in reversed(seq):
    t = blowdown(t, s)
    print("  blowdown at", s, "->", t)
assert t == (0,)

for k in range(1, 9):
    count = len(enumerate_zero_cf(k))
    catalan = comb(2 * (k - 1), k - 1) // k if k > 1 else 1
    print(f"length {k}: {count:4d} zero tuples (Catalan: {catalan})")

print("the five of length 4, lexicographic:", enumerate_zero_cf(4))

# Bounded enumeration scales to lengths where the full census cannot:
bounds = (2,) * 30
print("tuples of length 30 bounded by twos:", bounded_zero_cf(bounds))

# and to long chains whose bounds bind, here the 120-entry chain of
# L(16825928396, 10398995641):
bounds = (3,) * 20 + (2,) * 100
print("tuples bounded by twenty threes, then a hundred twos:", len(bounded_zero_cf(bounds)))
