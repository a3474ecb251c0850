"""Hurwitz orbits on c^(x)n and their group-theoretic refinements.

The braid orbits themselves come from `orbits.rack_orbits` (re-exported
here), built by induction on n; they belong to the rack of c alone.  On top
of the orbit tables sit: monodromy subgroups and the lattice of subgroups of
G generated from c, built once by coset extension on element indices and
kept on c, with the monodromy label of every orbit (`monodromy_labels`, one
list per n, kept on the lattice and checked by lattice index); the
modules over the orbit ring with their grading by letter classes; the
stratification of the orbit ring by exact monodromy; Nielsen classes
(simultaneous conjugation) with component counts and their Betti numbers;
and stabilization thresholds for right multiplication.  The entry points
that take a class set c take no group: they read G from `c.parent`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from math import comb

from .braided import ConjClassSet, PermGroup, Rack, cycle_notation, identity_perm, index_word, word_index
from .exactla import CoefficientField
from .fnf import PermutationSystem, homology_for_system
from .orbits import DEFAULT_STATE_CAP, letter_conjugations, orbit_classes, rack_orbits


def monodromy_group(word, G: PermGroup) -> frozenset:
    """The subgroup generated by the letters of a word of group elements."""
    return G.subgroup_closure(list(word))


class SubgroupLattice:
    """Subgroups of G = c.parent generated by nonempty subsets of c.

    Subgroups are frozensets of elements, listed by (order, sorted elements)
    so that ids are deterministic; G itself is last when c generates G.
    `elements` is `c.elements`: the lattice keeps no reference to c, which
    keeps the lattice.  `masks[i]` is the bitmask of the letters of c
    (indexed as in `elements`) that lie in subgroup i, `conjugations[t]`
    maps each letter index of c to that of its conjugate by the t-th
    generator of G, and `labels[n]` lists the monodromy of each braid orbit
    on c^(x)n, in the order of the orbit table (`monodromy_labels`).

    Every letter set s generates a subgroup of the lattice: adding the
    letters of s one at a time, each step closes the letters of c in a
    lattice subgroup together with one more letter, as the construction
    does.  A lattice subgroup whose letter mask contains s contains <s>, so
    <s> is the first one in (order, elements) order with that property, and
    `generated_by` reads it off without a closure, once per mask.

    The construction works on element indices of G and the right
    multiplication tables `PermGroup.right_table` of the letters.  Starting
    from the trivial group, it extends each subgroup H found by each letter a
    outside it, once per letter mask of H plus a.  <H, a> grows from H as
    right cosets H r (Dimino's algorithm): the table of a generator g maps
    the coset H r onto the coset H r g elementwise, so a coset is taken in
    whole when one of its elements is new, and the union is closed under H's
    generating letters and a alone.  A lattice subgroup is generated by its letters, so its
    letter mask identifies it; the frozensets are built once, at the end.
    """

    def __init__(self, c: ConjClassSet):
        G = c.parent
        self.elements = elems = c.elements
        tables = [G.right_table(g) for g in elems]  # tables[a][x]: the index of x * letter a
        e = G.elements.index(identity_perm(G.degree))
        where = [t[e] for t in tables]  # the element index of each letter
        found = {0: ([e], [])}  # letter mask -> (element indices, generating letters)
        closed = {}  # generating letter mask -> letter mask of the subgroup it generates
        frontier = [0]
        while frontier:
            nxt = []
            for mask in frontier:
                members, chain = found[mask]
                for a in range(len(elems)):
                    s = mask | 1 << a
                    if s == mask or s in closed:
                        continue
                    gens = [tables[b] for b in chain] + [tables[a]]
                    seen = set(members)
                    cosets = [members]
                    for coset in cosets:  # cosets grows while it is walked
                        x = coset[0]
                        for t in gens:
                            if t[x] not in seen:
                                image = [t[y] for y in coset]
                                seen.update(image)
                                cosets.append(image)
                    m = closed[s] = sum(1 << b for b, i in enumerate(where) if i in seen)
                    if m not in found:
                        found[m] = ([i for coset in cosets for i in coset], chain + [a])
                        nxt.append(m)
            frontier = nxt
        del found[0]
        # element indices follow the sorted elements, so this is (order, sorted elements) order
        self.masks = sorted(found, key=lambda m: (len(found[m][0]), sorted(found[m][0])))
        self.subgroups = [frozenset(G.elements[i] for i in found[m][0]) for m in self.masks]
        self._index = {h: i for i, h in enumerate(self.subgroups)}
        self._ids = {m: i for i, m in enumerate(self.masks)}  # letter mask -> index of <mask>
        self._ids.update((s, self._ids[m]) for s, m in closed.items())
        self._trivial = frozenset({identity_perm(G.degree)})
        self._notations = [cycle_notation(g) for g in elems]
        self.conjugations = letter_conjugations(G, elems)
        self.labels: dict = {}  # n -> the monodromy of each orbit on c^(x)n

    def generated_index(self, letters: int) -> int:
        """The index of the subgroup generated by the letters of c in a
        nonempty bitmask, memoised by mask."""
        i = self._ids.get(letters)
        if i is None:
            i = next((i for i, mask in enumerate(self.masks) if letters & mask == letters), None)
            if i is None or not letters:
                raise ValueError(f"letter mask {letters:#x} is not a nonempty subset of c")
            self._ids[letters] = i
        return i

    def generated_by(self, letters: int) -> frozenset:
        """The subgroup generated by the letters of c in a bitmask; the
        empty set generates the trivial group."""
        return self.subgroups[self.generated_index(letters)] if letters else self._trivial

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __contains__(self, h):
        return frozenset(h) in self._index

    def index(self, h) -> int:
        return self._index[frozenset(h)]

    def describe(self, i: int) -> str:
        mask = self.masks[i]
        gens = ";".join(s for a, s in enumerate(self._notations) if mask >> a & 1)
        return f"H{i}|order={len(self.subgroups[i])}|gens={gens}"


def monodromy_labels(c: ConjClassSet, n: int, cap: int = DEFAULT_STATE_CAP) -> list[frozenset]:
    """The monodromy of each braid orbit on c^(x)n, in the order of
    `rack_orbits(c.rack, n)`: the subgroup of G = c.parent its letters generate.

    Built by induction on n over the nodes of the orbit table: a word's
    monodromy is <monodromy of its prefix, last letter>, so the words of node
    (orbit j at n - 1, letter a) all have monodromy <label of j, a>, read off
    the subgroup lattice of c by letter mask.  Every node is checked against
    its orbit's label, by lattice index; since the labels at n - 1 were
    checked in turn, this checks the label on every word.  The list is kept
    on that lattice, together with the lists below n.
    """
    table = rack_orbits(c.rack, n, cap=cap)
    lattice = subgroup_lattice(c)
    if n in lattice.labels:
        return lattice.labels[n]
    if n == 0:
        labels = [lattice.generated_by(0)]
    else:
        d = len(c.elements)
        # the letters in each prefix orbit's label; the empty word's trivial group holds none
        prefix = [lattice.masks[lattice.index(h)] if n > 1 else 0 for h in monodromy_labels(c, n - 1, cap)]
        # rows[m][a]: the lattice index of <m, a>, once per distinct prefix mask
        rows = {m: [lattice.generated_index(m | 1 << a) for a in range(d)] for m in set(prefix)}
        ids = [-1] * len(table)
        for k, i in zip(table.nodes, [i for m in prefix for i in rows[m]]):
            if ids[k] < 0:
                ids[k] = i
            elif ids[k] != i:
                raise AssertionError("monodromy is not constant on an orbit")
        labels = [lattice.subgroups[i] for i in ids]
    lattice.labels[n] = labels
    return labels


def nielsen_component_count(c: ConjClassSet, n: int, cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of braid orbits on the Nielsen classes of c^(x)n whose letters generate G = c.parent.

    Braid moves commute with simultaneous conjugation, so conjugation by G
    permutes the braid orbits, and keeps those of monodromy G among
    themselves; the count is the number of classes of monodromy G
    (`orbits.orbit_classes`), read off the orbit table and its labels.  A
    label is G exactly when its order is |G|.
    """
    labels = monodromy_labels(c, n, cap=cap)
    order = c.parent.order
    classes = orbit_classes(rack_orbits(c.rack, n, cap=cap), subgroup_lattice(c).conjugations)
    return sum(len(labels[cls[0]]) == order for cls in classes)


def subgroup_lattice(c: ConjClassSet) -> SubgroupLattice:
    """The lattice of subgroups of c.parent generated by letters of c, built
    on first use and kept on c for every caller."""
    if c.lattice is None:
        c.lattice = SubgroupLattice(c)
    return c.lattice


def class_partition(rack: Rack) -> list[int]:
    """The index of each rack label's connectivity component."""
    comp = rack.components()
    out = [0] * rack.size
    for ci, block in enumerate(comp):
        for a in block:
            out[a] = ci
    return out


@dataclass
class FilteredModule:
    """Graded module data over the orbit ring: a basis of orbits per degree and
    the left and right multiplication operators by each rack letter.

    `class_of` sorts the letters into classes, and a word's multigrade counts
    its letters in each class (`grade`).  Construction rejects a `class_of`
    that some a^b takes out of the class of a: exactly then, from degree 2
    on, the braid moves change the multigrade of some word.  `stratum` is the
    monodromy subgroup of a stratum module (`filtered_module`), else None.
    It holds no orbit table: its basis indexes its rack's, read through
    `rack_orbits`.  Its left and right multiplication tables are built once
    per (letter, q) and kept as tuples.  The letter product of a word is a
    braid invariant, so the right (or left) products of one basis orbit by
    distinct letters are distinct orbits, which the Koszul assembly relies on
    and checks.
    """

    name: str
    degrees: dict            # q -> list of orbit indices into rack_orbits(rack, q)
    letters: list[int]       # rack letter indices acting nontrivially
    rack: Rack
    class_of: list[int]
    stratum: frozenset | None = None

    def __post_init__(self):
        act = self.rack.act
        for a in range(self.rack.size):
            for b in range(self.rack.size):
                if self.class_of[act[a][b]] != self.class_of[a]:
                    raise ValueError(f"letter classes are not braid invariant: letter {a}^{b} = {act[a][b]} "
                                     f"leaves the class of letter {a}")

    def dim(self, q: int) -> int:
        return len(self.degrees.get(q, ()))

    @cached_property
    def basis_words(self) -> dict:
        """q -> the representatives of the degree-q basis orbits, in basis order."""
        return {q: [rack_orbits(self.rack, q).orbits[i].rep for i in basis] for q, basis in self.degrees.items()}

    @cached_property
    def positions(self) -> dict:
        """q -> {index of a degree-q basis orbit in its table: its basis position}."""
        return {q: {oi: k for k, oi in enumerate(basis)} for q, basis in self.degrees.items()}

    def grade(self, words) -> list[tuple[int, ...]]:
        """The multigrade of each word: the number of its letters in each class."""
        m = max(self.class_of) + 1 if self.class_of else 1
        out = []
        for word in words:
            grade = [0] * m
            for a in word:
                grade[self.class_of[a]] += 1
            out.append(tuple(grade))
        return out

    @cached_property
    def grades(self) -> dict:
        """q -> the multigrade of each degree-q basis orbit, in basis order,
        read off its representative (the braid moves keep it, as checked at
        construction)."""
        return {q: self.grade(words) for q, words in self.basis_words.items()}

    def left_mult(self, letter: int, q: int) -> tuple:
        """Images of the degree-q basis under w -> (letter, w), as target
        positions in degree q+1 (None when the product leaves the module)."""
        return self._mult(letter, q, left=True)

    def right_mult(self, letter: int, q: int) -> tuple:
        """The same for w -> (w, letter)."""
        return self._mult(letter, q, left=False)

    @cached_property
    def _products(self) -> dict:
        """(letter, q, left) -> the tuple `left_mult` or `right_mult` returns,
        built on first use; a copy made by `dataclasses.replace` starts empty."""
        return {}

    def _mult(self, letter: int, q: int, left: bool) -> tuple:
        key = (letter, q, left)
        table = self._products.get(key)
        if table is None:
            if letter not in self.letters:
                table = (None,) * self.dim(q)
            else:
                pos = self.positions.get(q + 1, {})
                index = rack_orbits(self.rack, q + 1).index
                table = tuple(pos.get(index((letter,) + w if left else w + (letter,)))
                              for w in self.basis_words.get(q, []))
            self._products[key] = table
        return table


def orbit_ring_module(rack: Rack, qmax: int, class_of=None) -> FilteredModule:
    """The full orbit ring R as a module over itself, assembled through degree qmax."""
    degrees = {q: list(range(len(rack_orbits(rack, q)))) for q in range(qmax + 1)}
    return FilteredModule("R", degrees, list(range(rack.size)),
                          rack, class_partition(rack) if class_of is None else class_of)


def filtered_module(c: ConjClassSet, H, qmax: int) -> FilteredModule:
    """The stratum of the orbit ring with monodromy exactly H, through degree qmax.

    H must belong to the subgroup lattice.  Letters outside H act as zero
    (their products have strictly larger monodromy).
    """
    H = frozenset(H)
    lattice = subgroup_lattice(c)
    if H not in lattice:
        raise ValueError("H is not in the subgroup lattice")
    degrees = {q: [i for i, h in enumerate(monodromy_labels(c, q)) if h == H] for q in range(qmax + 1)}
    letters = [i for i, g in enumerate(c.elements) if g in H]
    name = f"Rexact[{lattice.describe(lattice.index(H))}]"
    return FilteredModule(name, degrees, letters, c.rack, c.class_of, stratum=H)


def restricted_ring_module(c: ConjClassSet, H, qmax: int):
    """The orbit ring of (H, c n H): `orbit_ring_module` on the rack of c n H,
    whose letters are those of c in H.  Returns (module, the group H generated
    by c n H)."""
    H = frozenset(H)
    sub_elems = [g for g in c.elements if g in H]
    if not sub_elems:
        raise ValueError("H meets c trivially")
    Hgroup = PermGroup(c.parent.degree, sub_elems, name="H")
    mod = orbit_ring_module(ConjClassSet(Hgroup, sub_elems).rack, qmax)
    return replace(mod, name=f"Rsub[order={len(H)}]"), Hgroup


def nielsen_components(c: ConjClassSet, n: int, F: CoefficientField):
    """Braid orbits on generating Nielsen classes, and the Betti numbers of the
    cover they index.

    Nielsen classes are words in c^(x)n up to simultaneous conjugation by
    G = c.parent; the braid action descends.  Only classes whose letters generate G are
    kept.  Returns (component count, [H_j ranks for j = 0..n]).  The count is
    `nielsen_component_count`; the Betti numbers come from the braid action on
    the classes themselves, so H_0 is an independent computation of it.
    """
    comps = nielsen_component_count(c, n)
    if n <= 1 or not comps:
        return comps, [comps] + [0] * n
    d = len(c.elements)
    lattice = subgroup_lattice(c)
    # conj_codes[t][w]: the code of word w conjugated letter by letter by generator t
    conj_codes = []
    for t in lattice.conjugations:
        img = [0]
        for _ in range(n):
            img = [x * d + t[a] for x in img for a in range(d)]
        conj_codes.append(img)
    # one sweep over the codes in increasing order: the first code of a class is
    # its least word, and the class is closed under conjugation by the generators
    class_of = [-1] * d**n
    reps = []
    for w0 in range(d**n):
        if class_of[w0] >= 0:
            continue
        class_of[w0] = len(reps)
        cls = [w0]
        for w in cls:  # cls grows while it is walked
            for img in conj_codes:
                if class_of[img[w]] < 0:
                    class_of[img[w]] = len(reps)
                    cls.append(img[w])
        reps.append(w0)
    order = c.parent.order
    surj, pos = [], {}
    for k, code in enumerate(reps):
        w = index_word(code, d, n)
        if len(lattice.generated_by(sum(1 << a for a in set(w)))) == order:
            pos[k] = len(surj)
            surj.append(w)
    rack = c.rack
    act, inv_act = rack.act, rack.inv_act

    def gen_action(i, sign, k):
        w = surj[k]
        a, b = w[i - 1], w[i]
        if sign > 0:
            w2 = w[: i - 1] + (b, act[a][b]) + w[i + 1:]
        else:
            w2 = w[: i - 1] + (inv_act[b][a], a) + w[i + 1:]
        return pos[class_of[word_index(w2, d)]]

    system = PermutationSystem(len(surj), gen_action)
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


def stabilization_thresholds(c: ConjClassSet, class_index: int, window: dict | int) -> StabilizationReport:
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
    full = frozenset(c.parent.elements)
    if full not in subgroup_lattice(c):
        raise ValueError("c does not generate G")
    mod = filtered_module(c, full, qmax + 1)
    letters = [a for a, ci in enumerate(mod.class_of) if ci == class_index]
    positions = {}  # multigrade -> the basis positions of that grade within its degree
    for q in range(qmax + 2):
        for k, grade in enumerate(mod.grades[q]):
            positions.setdefault(grade, []).append(k)
    grades = list(product(*(range(window[i] + 1) for i in range(m))))

    thresholds = {}
    for letter in letters:
        images = [mod.right_mult(letter, q) for q in range(qmax + 1)]
        ok_from = {}
        for grade in grades:
            src = positions.get(grade, [])
            tgrade = list(grade)
            tgrade[class_index] += 1
            tgt_set = set(positions.get(tuple(tgrade), []))
            imgs = [images[sum(grade)][k] for k in src]
            ok_from[grade] = len(src) == len(tgt_set) and None not in imgs and set(imgs) == tgt_set
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
