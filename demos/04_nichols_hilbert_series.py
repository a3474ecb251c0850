#!/usr/bin/env python3
"""Nichols algebra dimensions from the derivation recursion.

The degree-n piece of the Nichols algebra is the image of the quantum
symmetrizer, the sum of all braid lifts of permutations; equivalently (the
Nichols-Woronowicz criterion) an element vanishes exactly when all its skew
derivations do, which is how `NicholsData` builds each degree from the one
below.  For the sign-twisted transposition space of S3 the dimensions are the
famous palindrome 1, 3, 4, 3, 1 (total 12); for rank-one spaces the
symmetrizer is the q-factorial, so the algebra truncates exactly at the order
of the braiding parameter.
"""

from braidhom.braided import (
    Cocycle,
    ConjClassSet,
    PermGroup,
    braided_space,
    cycle_type,
    parse_cycles,
    rank_one_space,
)
from braidhom.exactla import GF, QQ
from braidhom.nichols import NicholsData, nichols_dims, skew_derivation

S3 = PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")
c = ConjClassSet(S3, [g for g in S3.elements if cycle_type(g) == (2,)])
Veps = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=S3)

dims, stable = nichols_dims(Veps, 6, QQ)
print("S3 transpositions, sign twist, over Q:")
print(f"  Hilbert coefficients: {dims} (stably zero: {stable}, total {sum(dims)})")

print()
print("quantum lines over F_5 (braiding scalar s, algebra truncates at ord(s)):")
for s in (-2, 2, -1):
    dims5, _ = nichols_dims(rank_one_space(s), 8, GF(5))
    print(f"  s = {s:2d}: {dims5}")

print()
print("over Q the sign-twisted line is exterior:", nichols_dims(rank_one_space(-1), 4, QQ)[0])

# Skew derivations realize the dual algebra as a module over the primal one;
# in degree one they are Kronecker deltas, and composing them implements
# multiplication in the algebra.
print()
data = NicholsData(Veps, QQ)
data.build_to(3)
print("skew derivation d_0 from dual degree 2 to 1 (columns = dual basis):")
D = skew_derivation(data, 0, 2)
print(f"  shape {D.rows} x {D.cols}, entries {dict(sorted(D.entries.items()))}")
print("pivot words in degree 2:", data.pivot_words(2))
