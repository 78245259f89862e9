"""Minus-sign continued fractions: expansion, evaluation, duality.

Every rational p/q > 1 has a unique expansion p/q = [a_1, ..., a_h] with
all entries >= 2, where [a_1, ..., a_h] = a_1 - 1/(a_2 - 1/(... - 1/a_h)).
This script walks through the basic calculus the rest of the package
builds on.
"""

from fractions import Fraction

from lensfill import dual_expansion, eval_cf, hj_expand, mod_inverse, reverse

# The expansion of 89/55 (a pair of consecutive Fibonacci numbers):
print("89/55 =", hj_expand(89, 55))

# Evaluation is exact and reports each value as a reduced Fraction.
v = eval_cf((2, 3, 3, 3, 3))
print("[2,3,3,3,3] =", v)
assert v == Fraction(89, 55)

# A tuple is admissible when every denominator met during evaluation is
# positive; otherwise eval_cf returns None.  (1, 0, 1) is inadmissible
# because the tail [0, 1] evaluates to -1:
bad = eval_cf((1, 0, 1))
print("(1,0,1) admissible:", bad is not None)
assert bad is None

# Riemenschneider duality: the expansions of p/q and p/(p-q) determine
# each other through a staircase of dots.
b = hj_expand(36, 36 - 13)  # 36/23
a = dual_expansion(b)
print("36/23 =", b, " <-> 36/13 =", a)
assert a == hj_expand(36, 13)

# Reading an expansion backwards swaps q for its inverse mod p:
a = hj_expand(11, 4)
back = eval_cf(reverse(a))
print("11/4 =", a, "reversed evaluates to", back, "and 4 *", mod_inverse(4, 11), "= 1 mod 11")
assert back == Fraction(11, mod_inverse(4, 11))
