#!/usr/bin/env python3
"""Koszul homology, its observed vanishing, and algebra generator counts.

The complex pairs the dual Nichols algebra against the orbit ring: terms are
B(V*)_p (x) R_q with the differential summing skew derivations against
module multiplications.  Its homology vanishes once the module degree is
large (observed, with three zero degrees demanded past the threshold), and
summing ranks at dual degree 1 + j counts algebra generators needed in
topological degree j beyond the ring of components.
"""

from braidhom.braided import (
    Cocycle,
    ConjClassSet,
    PermGroup,
    braided_space,
    cycle_type,
    identity_perm,
    parse_cycles,
    rank_one_space,
)
from braidhom.exactla import QQ
from braidhom.hurwitz import subgroup_lattice
from braidhom.koszul import generator_counts, koszul_complex, koszul_homology, verify_koszul_identities

S3 = PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")
c = ConjClassSet(S3, [g for g in S3.elements if cycle_type(g) == (2,)])
Veps = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=S3)

print("=== the full-ring complex for (S3, transpositions) ===")
K = koszul_complex(Veps, "R", pmax=5, qmax=7, F=QQ, c=c)
print(f"dual degrees assembled up to the algebra top: pmax = {K.pmax}")
print("nonzero homology (p, q) -> rank:", dict(koszul_homology(K).items()))
rep = verify_koszul_identities(K, pr=4, qr=4)
print(f"identity checks: anticommuting differentials {rep.anticommute_ok}, "
      f"nullhomotopy form {rep.nullhomotopy_ok}")

print()
print("=== per-stratum homology and observed vanishing ===")
lat = subgroup_lattice(c)
for i, H in enumerate(lat):
    KH = koszul_complex(Veps, ("exact", H), pmax=4, qmax=9, F=QQ, c=c)
    table = koszul_homology(KH)
    top = max((q for (_p, q) in table.values), default=0)
    print(f"  {lat.describe(i)}: {dict(table.items())}  (zero for q > {top})")

print()
print("=== generator counts per topological degree ===")
print("  S3 transpositions:", generator_counts(Veps, 3, QQ, qmax=8, c=c))
print("  sign-twisted line:", generator_counts(rank_one_space(-1), 3, QQ, qmax=6))

# With two conjugacy classes the differential splits into anticommuting
# pieces, one per class, and the homology refines over the class multigrade.
call = ConjClassSet(S3, [g for g in S3.elements if g != identity_perm(3)])
Vall = braided_space(call.rack, Cocycle.constant(call.rack, 1), epsilon=True, group=S3)
K2 = koszul_complex(Vall, "R", pmax=3, qmax=4, F=QQ, c=call)
print()
print("=== two-class example: multigraded homology ===")
print(" ", dict(koszul_homology(K2, by_multigrade=True).items()))
