#!/usr/bin/env python3
"""Index arithmetic and the exact point-count bound calculator.

The index of a permutation on m points is m minus its cycle count; the
reciprocal of the minimal index over a class set is the predicted
discriminant exponent.  The bound calculator evaluates
q^n sum_j q^(-j/2) b_j exactly, as a rational plus a rational multiple of
sqrt(q), taking Betti data straight from the orbit machinery: the orbit
counts come from the rack of the class set, and the Nielsen components and
their Betti numbers from the class set alone, which knows its group.
"""

from braidhom.braided import ConjClassSet, PermGroup, cycle_type, parse_cycles
from braidhom.exactla import QQ
from braidhom.hurwitz import nielsen_components, rack_orbits
from braidhom.malle import discriminant_degree, malle_constants, point_count_bound

for name, gens, degree in [
    ("S3", ["(1 2)", "(1 2 3)"], 3),
    ("S5", ["(1 2)", "(1 2 3 4 5)"], 5),
    ("Z3", ["(1 2 3)"], 3),
    ("D4", ["(1 2 3 4)", "(1 3)"], 4),
]:
    G = PermGroup(degree, [parse_cycles(g, degree) for g in gens], name=name)
    mc = malle_constants(G)
    print(f"{name}: order {G.order}, per-class indices {mc.class_indices}, "
          f"a = {mc.a}, |center| = {mc.center_order}")

print()
print("discriminant degree of 2 transpositions + 1 three-cycle in S3:",
      discriminant_degree([2, 1], [1, 2]))

# growth of the orbit counts, fitted on a window (reported, never asserted)
S3 = PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")
c = ConjClassSet(S3, [g for g in S3.elements if cycle_type(g) == (2,)])
window = [len(rack_orbits(c.rack, n)) for n in range(9)]
mc = malle_constants(S3, c, orbit_window=window[3:])
print(f"orbit counts {window}; windowed growth degree (n >= 3): {mc.growth_degree}")

# exact bounds from computed Betti data
print()
print("=== point-count bounds from computed Betti numbers ===")
for n in range(2, 6):
    _comps, betti = nielsen_components(c, n, QQ)
    for q in (4, 9):
        b = point_count_bound(q, n, betti)
        print(f"  n={n}, q={q}: bound = {b.rational_part} + {b.sqrt_part} sqrt(q)"
              f" = {b.value()}  (betti {betti})")
