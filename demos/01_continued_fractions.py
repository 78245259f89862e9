"""Minus-sign continued fractions: expansion, evaluation, duality.

Every rational p/q > 1 has a unique expansion p/q = [a_1, ..., a_h] with
all entries >= 2, where [a_1, ..., a_h] = a_1 - 1/(a_2 - 1/(... - 1/a_h)).
This script walks through the basic calculus the rest of the package
builds on.
"""

from fractions import Fraction

from lensfill import continuants, dual_expansion, hj_expand, mod_inverse, reverse


def evaluate(t):
    """[t_1, ..., t_k] as a reduced Fraction, or None when t is inadmissible.

    The value is a ratio of continuants, K(t_1..t_k) / K(t_2..t_k), and the
    tail [t_i, ..., t_k] is K(t_i..t_k) / K(t_{i+1}..t_k).  Continuants are
    reversal-invariant, so the prefix continuants of the reversed tuple are
    the tail continuants K() = 1, K(t_k), K(t_{k-1}, t_k), ..., K(t_1..t_k),
    and t is admissible iff K(t_i..t_k) > 0 for every i >= 2.
    """
    tails = continuants(reverse(t))[1:]
    if not t or any(x <= 0 for x in tails[1:-1]):
        return None
    return Fraction(tails[-1], tails[-2])


# The expansion of 89/55 (a pair of consecutive Fibonacci numbers):
print("89/55 =", hj_expand(89, 55))

# Evaluation is exact, one integer pass over the tuple:
v = evaluate((2, 3, 3, 3, 3))
print("[2,3,3,3,3] =", v)
assert v == Fraction(89, 55)

# A tuple is admissible when every denominator met during evaluation is
# positive; otherwise evaluate returns None.  (1, 0, 1) is inadmissible
# because the tail [0, 1] evaluates to -1:
bad = evaluate((1, 0, 1))
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
back = evaluate(reverse(a))
print("11/4 =", a, "reversed evaluates to", back, "and 4 *", mod_inverse(4, 11), "= 1 mod 11")
assert back == Fraction(11, mod_inverse(4, 11))
