"""Braid orbit enumeration on tuples of rack elements, and its group-theoretic refinements.

The n-strand braid group acts on length-n words over a rack by
sigma_i: (..., a, b, ...) -> (..., b, a^b, ...), with inverse
(..., a, b, ...) -> (..., b a b^-1-analogue, a ...); for conjugation racks this
is the Hurwitz action on c^(x)n.  Orbits are enumerated by breadth-first
closure over the full word set, so the canonical representative (the
lexicographic minimum of the orbit) is exact, not heuristic.

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

    `orbit_of` maps every word to its orbit index; orbits are listed in
    lexicographic order of their canonical representatives.
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
    act, inv_act = rack.act, rack.inv_act

    def neighbors(w):
        for i in range(n - 1):
            a, b = w[i], w[i + 1]
            yield w[:i] + (b, act[a][b]) + w[i + 2:]
            yield w[:i] + (inv_act[b][a], a) + w[i + 2:]

    from itertools import product

    orbit_of = {}
    orbits = []
    for w0 in product(range(d), repeat=n):
        if w0 in orbit_of:
            continue
        idx = len(orbits)
        comp = [w0]
        orbit_of[w0] = idx
        frontier = [w0]
        while frontier:
            nxt = []
            for w in frontier:
                for w2 in neighbors(w):
                    if w2 not in orbit_of:
                        orbit_of[w2] = idx
                        comp.append(w2)
                        nxt.append(w2)
            frontier = nxt
        rep = min(comp)
        grade = [0] * m
        for a in rep:
            grade[class_of[a]] += 1
        for w in comp:
            g2 = [0] * m
            for a in w:
                g2[class_of[a]] += 1
            if g2 != grade:
                raise AssertionError("multigrade is not constant on an orbit")
        orbits.append(OrbitRecord(rep, len(comp), None, tuple(grade)))
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

    def leq(self, h1, h2) -> bool:
        return frozenset(h1) <= frozenset(h2)

    def describe(self, i: int) -> str:
        h = self.subgroups[i]
        gens = sorted(g for g in self.c.elements if g in h)
        return f"H{i}|order={len(h)}|gens=" + ";".join(cycle_notation(g) for g in gens)


def hurwitz_orbits(G: PermGroup, c: ConjClassSet, n: int, cap: int = DEFAULT_STATE_CAP) -> OrbitTable:
    """Orbit table of the braid action on c^(x)n with monodromy labels.

    Each orbit is labelled by the subgroup of G its letters generate, and the
    label is checked on every word of the orbit.  The monodromy of a word
    depends only on its set of letters, so it is computed once per letter set.
    The table is cached on `c.rack` and shares `orbit_of` with the unlabelled
    table of `rack_orbits`.
    """
    rack = c.rack
    class_of = tuple(c.class_index(g) for g in c.elements)
    plain = rack_orbits(rack, n, cap=cap, class_of=class_of)
    key = (n, class_of, "monodromy")
    if key in rack.orbit_tables:
        return rack.orbit_tables[key]
    elems = c.elements
    by_letters: dict = {}

    def mono(word):
        letters = frozenset(word)
        if letters not in by_letters:
            by_letters[letters] = monodromy_group([elems[a] for a in sorted(letters)], G)
        return by_letters[letters]

    labels = [mono(rec.rep) for rec in plain.orbits]
    for w, oi in plain.orbit_of.items():
        if mono(w) != labels[oi]:
            raise AssertionError("monodromy is not constant on an orbit")
    orbits = [replace(rec, monodromy=h) for rec, h in zip(plain.orbits, labels)]
    table = rack.orbit_tables[key] = OrbitTable(rack, n, orbits, plain.orbit_of)
    return table


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
    word with the opposite sign."""
    if sign_value == 1:
        return len(rack_orbits(rack, n, cap=cap))
    d = rack.size
    if d**n > cap:
        raise ValueError(f"state space {d}^{n} exceeds cap {cap}")
    act, inv_act = rack.act, rack.inv_act
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
                    for w2 in (w[:i] + (b, act[a][b]) + w[i + 2:],
                               w[:i] + (inv_act[b][a], a) + w[i + 2:]):
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
    kept.  Returns (component count, [H_j ranks for j = 0..n]).
    """
    elems = c.elements
    d = len(elems)
    if d**n > cap:
        raise ValueError(f"state space {d}^{n} exceeds cap {cap}")
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
    surj = [w for w in reps if monodromy_group([elems[a] for a in w], G) == full]
    if n == 0:
        comps = len(surj)  # the empty word generates G only when G is trivial
        return comps, [comps]
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

    if not surj:
        return 0, [0] * (n + 1)

    # component count: orbits of the generator action on surjective classes
    seen = set()
    comps = 0
    for k in range(len(surj)):
        if k in seen:
            continue
        comps += 1
        frontier = [k]
        seen.add(k)
        while frontier:
            x = frontier.pop()
            for i in range(1, n):
                for sgn in (1, -1):
                    y = gen_action(i, sgn, x)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
    if n == 1:
        betti = [comps] + [0]
        return comps, betti
    system = PermutationSystem(len(surj), gen_action, labels=surj)
    betti = homology_for_system(system, n, F)
    return comps, betti


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
