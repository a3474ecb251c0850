#!/usr/bin/env python3
"""Hurwitz orbits, monodromy stratification, and multiplication stabilization.

The braid group acts on length-n words of transpositions by
(..., a, b, ...) -> (..., b, b^-1 a b, ...).  Orbit counts r(n) span the
degree-n part of the ring of components; the subgroup generated by the
letters is an orbit invariant and stratifies the ring over the lattice of
subgroups generated from the class set.  The orbit tables belong to the rack
of the class set; the monodromy labels of the orbits belong to the class set
and its group, and are kept on its subgroup lattice.  Every function here
takes the class set alone and reads the group from it.
"""

from braidhom.braided import ConjClassSet, PermGroup, cycle_type, parse_cycles
from braidhom.exactla import QQ
from braidhom.hurwitz import (
    filtered_module,
    monodromy_labels,
    nielsen_components,
    orbit_count_bound,
    rack_orbits,
    stabilization_thresholds,
    subgroup_lattice,
)

S3 = PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")
c = ConjClassSet(S3, [g for g in S3.elements if cycle_type(g) == (2,)])

print("=== orbit counts r(n) for (S3, transpositions), with the binomial bound ===")
for n in range(9):
    print(f"  r({n}) = {len(rack_orbits(c.rack, n)):2d}   <=  C(n+2, n) = {orbit_count_bound(n, 3)}")

print()
print("=== the n = 2 orbit table ===")
for rec, H in zip(rack_orbits(c.rack, 2).orbits, monodromy_labels(c, 2)):
    print(f"  representative {rec.rep}, orbit size {rec.size}, monodromy order {len(H)}")

lat = subgroup_lattice(c)
print()
print("=== stratification by exact monodromy ===")
print("subgroups:", [lat.describe(i) for i in range(len(lat))])
for n in range(1, 7):
    dims = [filtered_module(c, H, n).dim(n) for H in lat]
    print(f"  n={n}: dims per stratum {dims}, total {sum(dims)} = r(n)")

print()
print("=== connected covers: braid orbits on generating Nielsen classes ===")
for n in range(2, 6):
    comps, betti = nielsen_components(c, n, QQ)
    print(f"  n={n}: {comps} component(s), Betti numbers {betti}")

print()
print("=== stabilization of right multiplication on the full-monodromy stratum ===")
rep = stabilization_thresholds(c, 0, 7)
print(f"  window q <= 7: per-letter thresholds {rep.thresholds}")
print(f"  observed threshold: bijective for q >= {rep.observed} throughout the window")
