"""Braid orbit enumeration on tuples of rack elements, and its group-theoretic refinements.

The n-strand braid group acts on length-n words over a rack by
sigma_i: (..., a, b, ...) -> (..., b, a^b, ...); for conjugation racks this
is the Hurwitz action on c^(x)n.  Words are coded as base-d integers in
lexicographic order and swept in that order; each new orbit is closed under
the forward moves sigma_i, which permute the finite word set, so forward
closure is the whole orbit and the first word of the sweep in it, its
lexicographic minimum, is the canonical representative, exactly.

On top of the raw orbit tables sit: monodromy subgroups and the lattice of
subgroups generated from c, the stratification of the orbit ring by exact
monodromy, Nielsen classes (simultaneous conjugation) with component counts
and their Betti numbers, and stabilization thresholds for right multiplication.
Orbit tables are immutable once built and cached on their rack
(`Rack.orbit_tables`), so they live exactly as long as the rack does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .braided import ConjClassSet, PermGroup, Rack, conj, cycle_notation
from .exactla import CoefficientField
from .fnf import PermutationSystem, homology_for_system

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


def _class_partition(rack: Rack, labels_classes=None) -> list[int]:
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
    class_of = _class_partition(rack, class_of)
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


def monodromy_group(word, G: PermGroup) -> frozenset:
    """The subgroup generated by the letters of a word of group elements."""
    return G.subgroup_closure(list(word))


class SubgroupLattice:
    """Subgroups of G generated by nonempty subsets of c, ordered by inclusion.

    Subgroups are frozensets of elements, listed by (order, sorted elements)
    so that ids are deterministic; G itself is last when c generates G.
    """

    def __init__(self, G: PermGroup, c: ConjClassSet):
        self.G = G
        self.c = c
        found = set()
        frontier = []
        for g in c.elements:
            h = G.subgroup_closure([g])
            if h not in found:
                found.add(h)
                frontier.append(h)
        while frontier:
            nxt = []
            for h in frontier:
                hgens = [g for g in c.elements if g in h]
                for g in c.elements:
                    if g in h:
                        continue
                    h2 = G.subgroup_closure(hgens + [g])
                    if h2 not in found:
                        found.add(h2)
                        nxt.append(h2)
            frontier = nxt
        self.subgroups = sorted(found, key=lambda h: (len(h), sorted(h)))
        self._index = {h: i for i, h in enumerate(self.subgroups)}

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __contains__(self, h):
        return frozenset(h) in self._index

    def index(self, h) -> int:
        return self._index[frozenset(h)]

    def describe(self, i: int) -> str:
        h = self.subgroups[i]
        gens = sorted(g for g in self.c.elements if g in h)
        return f"H{i}|order={len(h)}|gens=" + ";".join(cycle_notation(g) for g in gens)


def hurwitz_orbits(G: PermGroup, c: ConjClassSet, n: int, cap: int = DEFAULT_STATE_CAP) -> OrbitTable:
    """Orbit table of the braid action on c^(x)n with monodromy labels.

    Each orbit is labelled by the subgroup of G its letters generate, and the
    label is checked on every word of the orbit.  The monodromy of a word
    depends only on its set of letters, so it is computed once per letter set
    and kept on `c` for every degree.  The table is cached on `c.rack` and
    shares `orbit_of` with the unlabelled table of `rack_orbits`.
    """
    rack = c.rack
    class_of = tuple(c.class_index(g) for g in c.elements)
    plain = rack_orbits(rack, n, cap=cap, class_of=class_of)
    key = (n, class_of, "monodromy")
    if key in rack.orbit_tables:
        return rack.orbit_tables[key]
    d = len(c.elements)
    # letters[w]: the letter set of the word with code w, as a bitmask
    letters = [0]
    for _ in range(n):
        letters = [s | 1 << a for s in letters for a in range(d)]
    subgroups: dict = {}  # subgroup -> label id
    label_of = {}  # letter bitmask -> label id
    for s in set(letters):
        label_of[s] = subgroups.setdefault(_letter_monodromy(G, c, s), len(subgroups))
    rep_labels = [label_of[sum(1 << a for a in set(rec.rep))] for rec in plain.orbits]
    for s, oi in zip(letters, plain.orbit_of.values()):  # orbit_of is in code order
        if label_of[s] != rep_labels[oi]:
            raise AssertionError("monodromy is not constant on an orbit")
    by_label = list(subgroups)
    orbits = [replace(rec, monodromy=by_label[i]) for rec, i in zip(plain.orbits, rep_labels)]
    table = rack.orbit_tables[key] = OrbitTable(rack, n, orbits, plain.orbit_of)
    return table


def _letter_monodromy(G: PermGroup, c: ConjClassSet, letters: int):
    """The subgroup of G generated by the elements of c in the letter bitmask,
    computed once per (G, bitmask) and kept in `c.monodromy_memo`."""
    h = c.monodromy_memo.get((G, letters))
    if h is None:
        gens = [g for a, g in enumerate(c.elements) if letters >> a & 1]
        h = c.monodromy_memo[(G, letters)] = monodromy_group(gens, G)
    return h


def nielsen_component_count(G: PermGroup, c: ConjClassSet, n: int,
                            cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of braid orbits on the Nielsen classes of c^(x)n whose letters generate G.

    Braid moves commute with simultaneous conjugation, so conjugation by G
    permutes the braid orbits of monodromy G; the count is the number of
    classes of that action, read off the labelled orbit table.
    """
    table = hurwitz_orbits(G, c, n, cap=cap)
    full = frozenset(G.elements)
    idx_of = {g: i for i, g in enumerate(c.elements)}
    conj_tables = [[idx_of[conj(x, g)] for x in c.elements] for g in G.generators]
    seen = set()
    count = 0
    for k, rec in enumerate(table.orbits):
        if k in seen or rec.monodromy != full:
            continue
        count += 1
        seen.add(k)
        frontier = [k]
        while frontier:
            rep = table.orbits[frontier.pop()].rep
            for t in conj_tables:
                j = table.orbit_of[tuple(t[a] for a in rep)]
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return count


def subgroup_lattice(G: PermGroup, c: ConjClassSet) -> SubgroupLattice:
    return SubgroupLattice(G, c)


@dataclass
class FilteredModule:
    """Graded module data over the orbit ring: a basis of orbits per degree and
    the left multiplication operator by each rack letter."""

    name: str
    degrees: dict            # q -> list of orbit indices into the degree-q table
    tables: dict             # q -> OrbitTable
    letters: list[int]       # rack letter indices acting nontrivially
    rack: Rack
    class_of: list[int]

    def dim(self, q: int) -> int:
        return len(self.degrees.get(q, ()))

    def basis_words(self, q: int) -> list[HurwitzWord]:
        table = self.tables[q]
        return [table.orbits[i].rep for i in self.degrees.get(q, ())]

    def multigrade(self, q: int, k: int) -> tuple[int, ...]:
        table = self.tables[q]
        return table.orbits[self.degrees[q][k]].multigrade

    def left_mult(self, letter: int, q: int):
        """Images of the degree-q basis under w -> (letter, w), as target
        positions in degree q+1 (None when the product leaves the module)."""
        tgt = self.degrees.get(q + 1, [])
        pos = {oi: k for k, oi in enumerate(tgt)}
        table = self.tables[q + 1]
        out = []
        for w in self.basis_words(q):
            if letter not in self.letters:
                out.append(None)
                continue
            oi = table.index((letter,) + w)
            out.append(pos.get(oi))
        return out

    def right_mult(self, letter: int, q: int):
        tgt = self.degrees.get(q + 1, [])
        pos = {oi: k for k, oi in enumerate(tgt)}
        table = self.tables[q + 1]
        out = []
        for w in self.basis_words(q):
            if letter not in self.letters:
                out.append(None)
                continue
            oi = table.index(w + (letter,))
            out.append(pos.get(oi))
        return out

    def conjugate(self, g_action, q: int):
        """Basis permutation induced by conjugating every letter (g_action maps
        letter index to letter index)."""
        tgt = self.degrees.get(q, [])
        pos = {oi: k for k, oi in enumerate(tgt)}
        table = self.tables[q]
        out = []
        for w in self.basis_words(q):
            w2 = tuple(g_action(a) for a in w)
            out.append(pos[table.index(w2)])
        return out


def orbit_ring_module(rack: Rack, qmax: int, cap: int = DEFAULT_STATE_CAP, class_of=None) -> FilteredModule:
    """The full orbit ring R as a module over itself, assembled through degree qmax."""
    tables = {q: rack_orbits(rack, q, cap=cap, class_of=class_of) for q in range(qmax + 1)}
    degrees = {q: list(range(len(tables[q]))) for q in range(qmax + 1)}
    return FilteredModule("R", degrees, tables, list(range(rack.size)),
                          rack, _class_partition(rack, class_of))


def filtered_module(G: PermGroup, c: ConjClassSet, H, qmax: int,
                    cap: int = DEFAULT_STATE_CAP) -> FilteredModule:
    """The stratum of the orbit ring with monodromy exactly H, through degree qmax.

    H must belong to the subgroup lattice.  Letters outside H act as zero
    (their products have strictly larger monodromy).
    """
    H = frozenset(H)
    lattice = subgroup_lattice(G, c)
    if H not in lattice:
        raise ValueError("H is not in the subgroup lattice")
    rack = c.rack
    class_of = [c.class_index(g) for g in c.elements]
    tables = {q: hurwitz_orbits(G, c, q, cap=cap) for q in range(qmax + 1)}
    degrees = {
        q: [i for i, rec in enumerate(tables[q].orbits) if rec.monodromy == H]
        for q in range(qmax + 1)
    }
    letters = [i for i, g in enumerate(c.elements) if g in H]
    name = f"Rexact[{lattice.describe(lattice.index(H))}]"
    return FilteredModule(name, degrees, tables, letters, rack, class_of)


def restricted_ring_module(G: PermGroup, c: ConjClassSet, H, qmax: int,
                           cap: int = DEFAULT_STATE_CAP):
    """The orbit ring of (H, c n H) viewed as a module where letters outside H act
    as zero.  Returns (module, subrack letter map to c indices)."""
    H = frozenset(H)
    sub_elems = [g for g in c.elements if g in H]
    if not sub_elems:
        raise ValueError("H meets c trivially")
    Hgroup = PermGroup(G.degree, sub_elems, name="H")
    cH = ConjClassSet(Hgroup, sub_elems)
    subrack = cH.rack
    class_of = None
    tables = {q: rack_orbits(subrack, q, cap=cap) for q in range(qmax + 1)}
    degrees = {q: list(range(len(tables[q]))) for q in range(qmax + 1)}
    mod = FilteredModule(f"Rsub[order={len(H)}]", degrees, tables,
                         list(range(subrack.size)), subrack,
                         _class_partition(subrack))
    embed = [c.elements.index(g) for g in cH.elements]
    return mod, embed


def signed_orbit_count(rack: Rack, n: int, sign_value: int = -1,
                       cap: int = DEFAULT_STATE_CAP) -> int:
    """Rank of the coinvariants when the braid action is twisted by a constant
    cocycle of the given sign: an orbit survives unless some loop returns to a
    word with the opposite sign.

    Orbits are closed under the forward moves sigma_i, as in `rack_orbits`;
    every edge {w, sigma_i w} of an orbit is examined from w.
    """
    if sign_value == 1:
        return len(rack_orbits(rack, n, cap=cap))
    d = rack.size
    if d**n > cap:
        raise ValueError(f"state space {d}^{n} exceeds cap {cap}")
    act = rack.act
    from itertools import product

    seen = {}
    count = 0
    for w0 in product(range(d), repeat=n):
        if w0 in seen:
            continue
        seen[w0] = 1
        alive = True
        frontier = [w0]
        while frontier:
            nxt = []
            for w in frontier:
                s = seen[w]
                for i in range(n - 1):
                    a, b = w[i], w[i + 1]
                    w2 = w[:i] + (b, act[a][b]) + w[i + 2:]
                    s2 = -s  # constant -1 cocycle: every move flips the sign
                    if w2 in seen:
                        if seen[w2] != s2:
                            alive = False
                    else:
                        seen[w2] = s2
                        nxt.append(w2)
            frontier = nxt
        if alive:
            count += 1
    return count


def nielsen_components(G: PermGroup, c: ConjClassSet, n: int, F: CoefficientField,
                       cap: int = DEFAULT_STATE_CAP):
    """Braid orbits on generating Nielsen classes, and the Betti numbers of the
    cover they index.

    Nielsen classes are words in c^(x)n up to simultaneous conjugation by G;
    the braid action descends.  Only classes whose letters generate G are
    kept.  Returns (component count, [H_j ranks for j = 0..n]).  The count is
    `nielsen_component_count`; the Betti numbers come from the braid action on
    the classes themselves, so H_0 is an independent computation of it.
    """
    comps = nielsen_component_count(G, c, n, cap=cap)
    if n <= 1 or not comps:
        return comps, [comps] + [0] * n
    elems = c.elements
    d = len(elems)
    idx_of = {g: i for i, g in enumerate(elems)}
    conj_tables = []
    for g in G.elements:
        conj_tables.append([idx_of[conj(x, g)] for x in elems])

    canon_cache: dict = {}

    def canon(w):
        got = canon_cache.get(w)
        if got is not None:
            return got
        best = min(tuple(t[a] for a in w) for t in conj_tables)
        canon_cache[w] = best
        return best

    from itertools import product

    full = frozenset(G.elements)
    reps = sorted({canon(w) for w in product(range(d), repeat=n)})
    surj = [w for w in reps if _letter_monodromy(G, c, sum(1 << a for a in set(w))) == full]
    pos = {w: i for i, w in enumerate(surj)}
    rack = c.rack
    act, inv_act = rack.act, rack.inv_act

    def gen_action(i, sign, k):
        w = surj[k]
        a, b = w[i - 1], w[i]
        if sign > 0:
            w2 = w[: i - 1] + (b, act[a][b]) + w[i + 1:]
        else:
            w2 = w[: i - 1] + (inv_act[b][a], a) + w[i + 1:]
        return pos[canon(w2)]

    system = PermutationSystem(len(surj), gen_action, labels=surj)
    return comps, homology_for_system(system, n, F)


@dataclass
class StabilizationReport:
    class_index: int
    window: tuple[int, ...]
    thresholds: dict        # letter -> observed least stable q_i, or None
    observed: int | None    # max over letters, None if any letter unstable

    @property
    def stabilized(self) -> bool:
        return self.observed is not None


def stabilization_thresholds(G: PermGroup, c: ConjClassSet, class_index: int,
                             window: dict | int, cap: int = DEFAULT_STATE_CAP) -> StabilizationReport:
    """Observed stabilization of right multiplication on the full-monodromy stratum.

    For each g in the chosen class, computes the rank of right multiplication
    on every multigraded piece within the window and reports the least q_i
    beyond which the map is bijective across the window (per letter, and the
    max over the class).  Purely observational; nothing is extrapolated.
    """
    m = len(c.classes)
    if isinstance(window, int):
        window = {i: window for i in range(m)}
    qmax = sum(window.values())
    lattice = subgroup_lattice(G, c)
    full = frozenset(G.elements)
    if full not in lattice:
        raise ValueError("c does not generate G")
    mod = filtered_module(G, c, full, qmax + 1, cap=cap)

    letters = [i for i, g in enumerate(c.elements) if c.class_index(g) == class_index]

    from itertools import product as iproduct

    grades = [g for g in iproduct(*(range(window[i] + 1) for i in range(m)))]

    def graded_positions(q, grade):
        return [k for k in range(mod.dim(q)) if mod.multigrade(q, k) == grade]

    thresholds = {}
    for letter in letters:
        ok_from = {}
        for grade in grades:
            q = sum(grade)
            src = graded_positions(q, grade)
            tgrade = list(grade)
            tgrade[class_index] += 1
            tgt_set = set(graded_positions(q + 1, tuple(tgrade)))
            images = mod.right_mult(letter, q)
            imgs = [images[k] for k in src]
            ok_from[grade] = (len(src) == len(tgt_set)) and all(i is not None for i in imgs) \
                and set(imgs) == tgt_set
        best = None
        for t in range(window[class_index] + 1):
            if all(ok_from[g] for g in grades if g[class_index] >= t):
                best = t
                break
        thresholds[letter] = best
    observed = None
    vals = list(thresholds.values())
    if all(v is not None for v in vals):
        observed = max(vals)
    return StabilizationReport(class_index, tuple(window[i] for i in range(m)), thresholds, observed)


def orbit_count_bound(n: int, d: int) -> int:
    """The polynomial bound C(n + d - 1, n) on the number of degree-n orbits."""
    return comb(n + d - 1, n)
