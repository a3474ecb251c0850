"""Braid orbits on rack words, and the block plan they give braid homology.

The n-strand braid group acts on length-n words over a rack by
sigma_i: (..., a, b, ...) -> (..., b, a^b, ...); for conjugation racks this
is the Hurwitz action on c^(x)n.  Words are coded as base-d integers in
lexicographic order.  The orbits at n are built from those at n - 1:
sigma_1, ..., sigma_{n-2} fix the last letter and act on the prefix as
B_{n-1}, so the orbits on words of length n are the classes of the pairs
(prefix orbit, last letter) joined by sigma_{n-1}.  On the last two letters
sigma_{n-1} is the pair braiding (b, a) -> (a, b^a), whose cycles are the
orbits at n = 2; for each orbit at n - 2 and each such cycle the nodes it
meets form one joined set, so building a level costs one pass of
#orbits(n - 2) * d^2 steps and no pass over the d^n words; a word's orbit is
found by walking the levels' node lists, one letter at a time, and the list
of every word's orbit is built only for the callers that read it
(`block_plan`).  Orbits are numbered by their least words, which are their
canonical representatives.  A table is the braid orbits of (rack, n) and
nothing else: it is kept on its rack, one per n (`Rack.orbit_tables`), and
lives exactly as long as the rack does.
Gradings of words by letter classes are read off the representatives by the
modules of `hurwitz`, and the orbits' monodromy labels are kept apart from the
tables, on the subgroup lattice of `hurwitz`.

When every sigma(a (x) b) is one term on b (x) a^b, the braid action on
V^(x)n only moves a word inside its orbit, so the FNF and bar complexes split
into one block per orbit (the splitting of H_*(B_n; V^(x)n) over the
components of Hurwitz space, Ellenberg-Venkatesh-Westerland).  Simultaneous
conjugation by the group permutes the orbits, and when it also preserves every
braiding coefficient it maps a block onto a block by a permutation of the
basis, so conjugate orbits have equal homology.  `block_plan` lists one block
per conjugation class of orbits with the class size as its multiplicity; the
callers in `fnf` and `qsa` build, check and rank those blocks only.  The
classes come from `orbit_classes`, the one walk over orbits under letter
maps, which also serves the Nielsen component count of `hurwitz`.  This
module sits below `fnf` and `hurwitz`, which both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BraidedVectorSpace, PermGroup, Rack

HurwitzWord = tuple[int, ...]

DEFAULT_STATE_CAP = 10**7


@dataclass(frozen=True)
class OrbitRecord:
    rep: HurwitzWord
    size: int


class OrbitTable:
    """All orbits of the braid action on words of a fixed length n.

    Orbits are listed in lexicographic order of their canonical
    representatives.  A node at n >= 1 is a pair (orbit j at n - 1, last
    letter a), coded j*d + a with d the rack size, and `nodes[j*d + a]` is
    the orbit at n of the words in that node; `below` is the table at n - 1.
    `roots[k]` is the node of orbit k's representative: the representative
    of orbit j at n - 1 followed by letter a, for roots[k] = j*d + a.
    The table keeps d, not its rack, so the rack that keeps the table is not
    referenced back and reference counting frees both.  `index` reads a word's
    orbit by walking these node lists up from the empty word, one letter per
    level.  `orbit_of[w]` lists the orbit of every word code w (`word_index`),
    in lexicographic order of the words; it is built from the level below on
    first use.
    """

    def __init__(self, d: int, n: int, orbits: list[OrbitRecord], nodes: list[int] | None,
                 roots: list[int] | None, below: OrbitTable | None):
        self.d = d
        self.n = n
        self.orbits = orbits
        self.nodes = nodes
        self.roots = roots
        self.below = below
        self._levels = below._levels + (nodes,) if below is not None else ()
        self._orbit_of = None

    def __len__(self):
        return len(self.orbits)

    @property
    def orbit_of(self) -> list[int]:
        if self._orbit_of is None:
            if self.below is None:
                self._orbit_of = [0]
            else:
                d = self.d
                blocks = [self.nodes[j * d:j * d + d] for j in range(len(self.below))]
                self._orbit_of = [k for j in self.below.orbit_of for k in blocks[j]]
        return self._orbit_of

    def canonical(self, word: HurwitzWord) -> HurwitzWord:
        return self.orbits[self.index(word)].rep

    def index(self, word: HurwitzWord) -> int:
        """The orbit index of a word of length n over the rack's letters."""
        if len(word) != self.n:
            raise ValueError(f"a word of length {len(word)} has no orbit in the table of words of length {self.n}")
        d = self.d
        k = 0
        for nodes, a in zip(self._levels, word):
            k = nodes[k * d + a]
        return k


def rack_orbits(rack: Rack, n: int, cap: int = DEFAULT_STATE_CAP) -> OrbitTable:
    """Orbits of the braid action on rack words of length n.

    The cap d^n <= cap is checked ahead of the cache, which does not key on
    it.  The table is kept on the rack by n and built from the table at n - 1,
    as the module docstring sets out: for every orbit K at n - 2 and letters
    b, a, sigma_{n-1} carries node (nu(K, b), a) to node (nu(K, a), b^a),
    where nu is the node list at n - 1.  Following a cycle C of the pair
    braiding (`_pair_cycles`, listed once per rack and kept on it as
    `pair_cycles`), the nodes nu(K, b) * d + a for (b, a) in C all lie in one
    orbit, so each (K, C) is one join of those nodes.  Union-find
    keeps each class's least node as its root; node codes follow the order of
    the nodes' least words, so numbering the classes by root numbers the
    orbits by least word.  Level 2 is the same loop with K the empty word.
    """
    if rack.size**n > cap:
        raise ValueError(f"state space {rack.size}^{n} exceeds cap {cap}")
    table = rack.orbit_tables.get(n)
    if table is not None:
        return table
    if n == 0:
        table = rack.orbit_tables[0] = OrbitTable(rack.size, 0, [OrbitRecord((), 1)], None, None, None)
        return table
    prev = rack_orbits(rack, n - 1, cap)
    d = rack.size
    root = list(range(len(prev) * d))
    if n >= 2:
        if rack.pair_cycles is None:
            rack.pair_cycles = _pair_cycles(rack)
        nu, cycles = prev.nodes, rack.pair_cycles
        for k in range(len(prev.below)):
            row = nu[k * d:k * d + d]  # row[b] = nu(K, b) for the orbit K = k at n - 2
            for cycle in cycles:
                it = iter(cycle)
                b, a = next(it)
                r = row[b] * d + a
                while root[r] != r:
                    root[r] = r = root[root[r]]
                for b, a in it:
                    u = row[b] * d + a
                    while root[u] != u:
                        root[u] = u = root[root[u]]
                    if u < r:
                        root[r] = r = u
                    elif r < u:
                        root[u] = r
    nodes = [0] * len(root)
    roots, reps, sizes = [], [], []
    for x in range(len(root)):
        r = root[x]
        while root[r] != r:
            r = root[r]
        j, a = divmod(x, d)
        if r == x:
            nodes[x] = len(reps)
            roots.append(x)
            reps.append(prev.orbits[j].rep + (a,))
            sizes.append(prev.orbits[j].size)
        else:
            k = nodes[x] = nodes[r]
            sizes[k] += prev.orbits[j].size
    orbits = [OrbitRecord(rep, size) for rep, size in zip(reps, sizes)]
    table = rack.orbit_tables[n] = OrbitTable(d, n, orbits, nodes, roots, prev)
    return table


def _pair_cycles(rack: Rack) -> list[list[tuple[int, int]]]:
    """The cycles of length >= 2 of the pair braiding (b, a) -> (a, b^a) on
    the letter pairs, the braid orbits on words of length 2, each listed from
    its least pair along the braiding.  One walk over the d^2 pairs."""
    d, act = rack.size, rack.act
    seen = [False] * (d * d)
    cycles = []
    for x in range(d * d):
        cycle = []
        while not seen[x]:
            seen[x] = True
            b, a = divmod(x, d)
            cycle.append((b, a))
            x = a * d + act[b][a]
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


def block_plan(V: BraidedVectorSpace, n: int) -> list[tuple[list[int], int]]:
    """The blocks of the complexes on V^(x)n, one per class of braid orbits,
    as (sorted word codes, multiplicity) pairs.

    Every homology rank of the FNF complex of V^(x)n, or of the bar complex in
    internal degree n, is the sum over the plan of multiplicity times the rank
    of the block.  The words of V^(x)n split into braid orbits only when V is
    of rack type, sigma(a (x) b) a single term on b (x) a^b; otherwise the plan
    is one block of all r^n codes.  Orbits are classed by `orbit_classes`
    under the generators of `V.group`, conjugating letter by letter; this is
    used only when each generator preserves every braiding coefficient, and
    otherwise every orbit is its own class.  The block of a class is its least
    orbit.  The orbit tables' word cap applies.
    """
    if not _is_rack_braiding(V):
        return [(list(range(V.rank**n)), 1)]
    table = rack_orbits(V.rack, n)
    members = [[] for _ in table.orbits]
    for code, k in enumerate(table.orbit_of):
        members[k].append(code)
    return [(members[cls[0]], len(cls)) for cls in orbit_classes(table, _conjugation_symmetries(V))]


def orbit_classes(table: OrbitTable, maps) -> list[list[int]]:
    """The classes of the orbits of `table` under the letter maps in `maps`
    (each a list a -> image of a), applied to words letter by letter.  Each
    class lists orbit indices, its least orbit first; classes come in order of
    their least orbits.  The maps must carry braid orbits onto braid orbits,
    as conjugation by a group does on a conjugation rack.  An orbit goes to
    the orbit of its mapped representative, read off `_rep_images` with no
    word built."""
    images = [_rep_images(table, pi) for pi in maps]
    seen = [False] * len(table.orbits)
    classes = []
    for k in range(len(seen)):
        if seen[k]:
            continue
        seen[k] = True
        cls = [k]
        for j in cls:  # cls grows while it is walked
            for image in images:
                i = image[j]
                if not seen[i]:
                    seen[i] = True
                    cls.append(i)
        classes.append(cls)
    return classes


def _rep_images(table: OrbitTable, pi) -> list[int]:
    """For each orbit of `table`, the orbit of its representative with letter
    map pi applied letter by letter.  Level by level from the empty word: the
    representative of orbit k is that of orbit j at n - 1 followed by letter
    a, for its root node j*d + a, so its image is node (image of j)*d + pi[a]."""
    if table.below is None:
        return [0]
    below, d, nodes = _rep_images(table.below, pi), table.d, table.nodes
    return [nodes[below[x // d] * d + pi[x % d]] for x in table.roots]


def letter_conjugations(group: PermGroup, labels: list) -> list[list]:
    """For each generator g of `group`, the letter map a -> index of
    g^-1 labels[a] g, with None where that conjugate is not a label; the
    labels are elements of `group`, conjugated by `PermGroup.conj_index`."""
    where = [group.index(lab) for lab in labels]
    letter = {x: a for a, x in enumerate(where)}
    return [[letter.get(group.conj_index(x, s)) for x in where] for s in group.generator_indices]


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
    maps = letter_conjugations(V.group, V.labels)
    r, act, codes = V.rank, V.rack.act, V.sigma_codes
    if any(None in pi or any(codes[pi[a] * r + pi[b]][0] != (pi[b] * r + pi[act[a][b]], codes[a * r + b][0][1])
                             for a in range(r) for b in range(r)) for pi in maps):
        return []
    return maps
