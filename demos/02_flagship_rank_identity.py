#!/usr/bin/env python3
"""The central cross-check: braid homology against shuffle-algebra Ext.

Two completely independent pipelines compute the same bigraded table:

  * the cellular complex of the n-strand configuration space with
    coefficients in V^n, read off at total degree 2n - j, and
  * the bar complex of the quantum shuffle algebra of the sign twist of V,
    at bar degree n - j and internal degree n.

Under the canonical cell bijection the two differentials agree entry by
entry, so this is both a rank identity and a chain-level identification.
"""

from braidhom.braided import (
    Cocycle,
    ConjClassSet,
    PermGroup,
    braided_space,
    cycle_type,
    parse_cycles,
)
from braidhom.exactla import GF, QQ
from braidhom.qsa import verify_main_cor

S3 = PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")
c = ConjClassSet(S3, [g for g in S3.elements if cycle_type(g) == (2,)])
V = braided_space(c.rack, Cocycle.constant(c.rack, 1), group=S3, name="S3-transpositions")

for F in (QQ, GF(2)):
    print(f"=== {V.name} over {F} ===")
    for n in range(1, 5):
        rep = verify_main_cor(V, n, F)
        for line in rep.lines():
            print(" ", line)
    print()

# The same identity with the nontrivial cocycle: rationally the homology is
# much smaller (most orbits die against the sign), but mod 2 it coincides
# with the untwisted answer.
Vm = braided_space(c.rack, Cocycle.constant(c.rack, -1), group=S3, name="S3-transpositions(-1)")
print(f"=== {Vm.name} over Q ===")
for n in range(1, 5):
    rep = verify_main_cor(Vm, n, QQ)
    print(f"  n={n}: H_* = {rep.betti}  matches Ext diagonal: {rep.ok}")
