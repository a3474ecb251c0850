"""Braid orbits on rack words, and the block plan they give braid homology.

The n-strand braid group acts on length-n words over a rack by
sigma_i: (..., a, b, ...) -> (..., b, a^b, ...); for conjugation racks this
is the Hurwitz action on c^(x)n.  Words are coded as base-d integers in
lexicographic order and swept in that order; each new orbit is closed under
the forward moves sigma_i, which permute the finite word set, so forward
closure is the whole orbit and the first word of the sweep in it, its
lexicographic minimum, is the canonical representative, exactly.
Orbit tables are immutable once built and cached on their rack
(`Rack.orbit_tables`), so they live exactly as long as the rack does.

When every sigma(a (x) b) is one term on b (x) a^b, the braid action on
V^(x)n only moves a word inside its orbit, so the FNF and bar complexes split
into one block per orbit (the splitting of H_*(B_n; V^(x)n) over the
components of Hurwitz space, Ellenberg-Venkatesh-Westerland).  Simultaneous
conjugation by the group permutes the orbits, and when it also preserves every
braiding coefficient it maps a block onto a block by a permutation of the
basis, so conjugate orbits have equal homology.  `block_plan` lists one block
per conjugation class of orbits with the class size as its multiplicity; the
callers in `fnf` and `qsa` build, check and rank those blocks only.  This
module sits below `fnf` and `hurwitz`, which both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BraidedVectorSpace, Rack, conj, word_index

HurwitzWord = tuple[int, ...]

DEFAULT_STATE_CAP = 10**7


@dataclass(frozen=True)
class OrbitRecord:
    rep: HurwitzWord
    size: int
    monodromy: frozenset | None
    multigrade: tuple[int, ...]


class OrbitTable:
    """All orbits of the braid action on words of a fixed length.

    `orbit_of` maps every word to its orbit index, with the words in
    lexicographic order; orbits are listed in lexicographic order of their
    canonical representatives.
    """

    def __init__(self, rack: Rack, n: int, orbits: list[OrbitRecord], orbit_of: dict):
        self.rack = rack
        self.n = n
        self.orbits = orbits
        self.orbit_of = orbit_of

    def __len__(self):
        return len(self.orbits)

    def canonical(self, word: HurwitzWord) -> HurwitzWord:
        return self.orbits[self.orbit_of[word]].rep

    def index(self, word: HurwitzWord) -> int:
        return self.orbit_of[word]


def class_partition(rack: Rack, labels_classes=None) -> list[int]:
    """class index of each rack label; defaults to rack connectivity components."""
    if labels_classes is not None:
        return labels_classes
    comp = rack.components()
    out = [0] * rack.size
    for ci, block in enumerate(comp):
        for a in block:
            out[a] = ci
    return out


def rack_orbits(rack: Rack, n: int, cap: int = DEFAULT_STATE_CAP, class_of=None) -> OrbitTable:
    """Orbits of the braid action on rack words of length n.

    A word w is coded as the base-d integer sum w[k] d^(n-1-k), so codes in
    increasing order are the words in lexicographic order, and the first code
    not yet reached is the least word of a new orbit: its representative.  Each
    orbit is closed under the forward moves sigma_i alone, each a lookup in a
    table of letter pairs.  sigma_i permutes the finite word set, so sigma_i^-1
    is a power of it and forward closure reaches the whole orbit.

    `class_of` assigns each letter a class index for the multigrade (asserted
    constant on every orbit during the sweep); it defaults to rack components.
    Tables are cached on the rack, keyed by (n, class_of).
    """
    d = rack.size
    if d**n > cap:  # checked before the cache, which does not key on the cap
        raise ValueError(f"state space {d}^{n} exceeds cap {cap}")
    key = (n, tuple(class_of) if class_of is not None else None)
    if key in rack.orbit_tables:
        return rack.orbit_tables[key]
    class_of = class_partition(rack, class_of)
    m = max(class_of) + 1 if class_of else 1
    act = rack.act
    dd = d * d
    # sigma on the pair code a*d + b is (b, a^b); shift[p] is the change of code
    shift = [b * d + act[a][b] - (a * d + b) for a in range(d) for b in range(d)]
    scales = [d ** (n - 2 - i) for i in range(n - 1)]  # place value of the pair at i, i+1
    # grade[w]: the multigrade of w in base n + 1, built one letter at a time
    unit = [(n + 1) ** class_of[a] for a in range(d)]
    grade = [0]
    for _ in range(n):
        grade = [g + u for g in grade for u in unit]

    orbit_id = [-1] * d**n
    orbits = []
    for w0 in range(d**n):
        if orbit_id[w0] >= 0:
            continue
        idx = len(orbits)
        orbit_id[w0] = idx
        g0 = grade[w0]
        comp = [w0]
        for w in comp:  # comp grows while it is walked
            if grade[w] != g0:
                raise AssertionError("multigrade is not constant on an orbit")
            for s in scales:
                pair = w // s % dd
                w2 = w + shift[pair] * s
                if orbit_id[w2] < 0:
                    orbit_id[w2] = idx
                    comp.append(w2)
        rep = tuple(w0 // d ** (n - 1 - k) % d for k in range(n))
        multigrade = [0] * m
        for a in rep:
            multigrade[class_of[a]] += 1
        orbits.append(OrbitRecord(rep, len(comp), None, tuple(multigrade)))
    del grade

    from itertools import product

    orbit_of = dict(zip(product(range(d), repeat=n), orbit_id))
    table = rack.orbit_tables[key] = OrbitTable(rack, n, orbits, orbit_of)
    return table


def block_plan(V: BraidedVectorSpace, n: int) -> list[tuple[list[int], int]]:
    """The blocks of the complexes on V^(x)n, one per class of braid orbits,
    as (sorted word codes, multiplicity) pairs.

    Every homology rank of the FNF complex of V^(x)n, or of the bar complex in
    internal degree n, is the sum over the plan of multiplicity times the rank
    of the block.  The words of V^(x)n split into braid orbits only when V is
    of rack type, sigma(a (x) b) a single term on b (x) a^b; otherwise the plan
    is one block of all r^n codes.  Two orbits share a class when a generator
    of `V.group` maps the representative of one, conjugated letter by letter,
    into the other; this is used only when each generator preserves every
    braiding coefficient, and otherwise every orbit is its own class.  The
    block of a class is its least orbit.  The orbit sweep's word cap applies.
    """
    r = V.rank
    if not _is_rack_braiding(V):
        return [(list(range(r**n)), 1)]
    table = rack_orbits(V.rack, n)
    orbit_id = list(table.orbit_of.values())  # orbit_of is in code order
    members = [[] for _ in table.orbits]
    for code, k in enumerate(orbit_id):
        members[k].append(code)
    symmetries = _conjugation_symmetries(V)
    seen = [False] * len(members)
    plan = []
    for k in range(len(members)):
        if seen[k]:
            continue
        seen[k] = True
        cls = [k]
        for j in cls:  # cls grows while it is walked
            rep = table.orbits[j].rep
            for pi in symmetries:
                i = orbit_id[word_index([pi[a] for a in rep], r)]
                if not seen[i]:
                    seen[i] = True
                    cls.append(i)
        plan.append((members[k], len(cls)))
    return plan


def _is_rack_braiding(V: BraidedVectorSpace) -> bool:
    """Whether V has a rack and each sigma(a (x) b) is one term on b (x) a^b."""
    rack = V.rack
    if rack is None or rack.size != V.rank:
        return False
    r, act = V.rank, rack.act
    return all(len(V.sigma_codes[a * r + b]) == 1 and V.sigma_codes[a * r + b][0][0] == b * r + act[a][b]
               for a in range(r) for b in range(r))


def _conjugation_symmetries(V: BraidedVectorSpace) -> list[list[int]]:
    """The letter maps a -> a^g of the generators g of V.group, when every one
    of them carries each braiding term sigma(a (x) b) to sigma(a^g (x) b^g)
    with the same coefficient; an empty list when any of them does not.
    Requires a rack braiding (`_is_rack_braiding`)."""
    if V.group is None:
        return []
    pos = {lab: a for a, lab in enumerate(V.labels)}
    r, act, codes = V.rank, V.rack.act, V.sigma_codes
    maps = []
    for g in V.group.generators:
        pi = [pos.get(conj(lab, g)) for lab in V.labels]
        if None in pi or any(codes[pi[a] * r + pi[b]][0] != (pi[b] * r + pi[act[a][b]], codes[a * r + b][0][1])
                             for a in range(r) for b in range(r)):
            return []
        maps.append(pi)
    return maps
