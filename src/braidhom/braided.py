"""Finite permutation groups, conjugation racks, cocycles, and braided vector spaces.

Permutations on m points are tuples p of length m with p[i] the image of i
(0-based); products compose right-to-left, so pmul(g, h) applies h first.
Conjugation is written b^a = a^-1 b a throughout, matching the rack operation.

A braided vector space stores its braiding as a sparse table on basis pairs.
The basis of a tensor power V^(x)n is the set of length-n words over the basis
of V in lexicographic order, and braid words act on vectors keyed by base-r
word codes (`word_index`), one path for every braiding.

A class set has one rack, its conjugation quandle `ConjClassSet.rack`; every
space, orbit table and module on that class set is built on it.

Structures are not changed after construction, apart from caches that fill
lazily on first use: each group's right-multiplication index tables and
its conjugacy-class partition `class_indices`, `ConjClassSet.rack` and
`ConjClassSet.lattice` (filled by `hurwitz.subgroup_lattice`; the lattice
keeps the orbits' monodromy labels of `hurwitz.monodromy_labels`, one list
per word length), each rack's
`orbit_tables`, one per word length, and its `pair_cycles` (both filled and
read through `orbits.rack_orbits` alone; each table builds its list of every
word's orbit, `orbit_of`, on first read), and each braided space's inverse
braiding, sign twist and `block_products` (filled by `qsa.bar_blocks` with the
words its blocks read).  Those fills are not locked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .exactla import QQ, SparseMatrix, inverse, rank

Perm = tuple[int, ...]


# permutation primitives -----------------------------------------------------

def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def pmul(g: Perm, h: Perm) -> Perm:
    """Composite 'h then g' (right-to-left, like function composition) of two
    permutations of one degree."""
    return tuple(map(g.__getitem__, h))


def pinv(g: Perm) -> Perm:
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[gi] = i
    return tuple(out)


def conj(b: Perm, a: Perm) -> Perm:
    """b^a = a^-1 b a."""
    return pmul(pinv(a), pmul(b, a))


def cycles(g: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, cycles led by their minimum."""
    seen = [False] * len(g)
    out = []
    for i in range(len(g)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = g[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = g[j]
        out.append(tuple(cyc))
    return out


def cycle_type(g: Perm) -> tuple[int, ...]:
    """Non-fixed cycle lengths in decreasing order (empty for the identity)."""
    return tuple(sorted((len(c) for c in cycles(g) if len(c) > 1), reverse=True))


def cycle_notation(g: Perm) -> str:
    parts = ["(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles(g) if len(c) > 1]
    return "".join(parts) if parts else "()"


def _split_cycles(text: str) -> tuple[list[str], list[str]]:
    """(the pieces of text outside the cycles, the inside of each cycle): a
    cycle is a '(' with no parenthesis before the next ')', taken from the
    left; any other parenthesis stays in the text outside."""
    outside, cycles = [], []
    start = scan = 0
    while (close := text.find(")", scan)) >= 0:
        open_ = text.rfind("(", start, close)
        if open_ >= 0:
            outside.append(text[start:open_])
            cycles.append(text[open_ + 1:close])
            start = close + 1
        scan = close + 1
    outside.append(text[start:])
    return outside, cycles


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like '(1 2)(3 4 5)' or '()' into a permutation:
    disjoint cycles, with nothing but whitespace outside their parentheses."""
    outside, cycles = _split_cycles(text)
    stray = " ".join(outside).split()
    if stray:
        raise ValueError(f"text {' '.join(stray)!r} outside the cycles of {text!r}")
    out = list(range(degree))
    seen = set()
    for grp in cycles:
        tokens = grp.replace(",", " ").split()
        bad = next((t for t in tokens if not t.isdecimal()), None)
        if bad is not None:
            raise ValueError(f"point {bad!r} in cycle ({grp}) of {text!r} is not a positive integer")
        pts = [int(t) - 1 for t in tokens]
        for p in pts:
            if not 0 <= p < degree:
                raise ValueError(f"point {p + 1} out of range for degree {degree}")
            if p in seen:
                raise ValueError(f"point {p + 1} appears twice in {text!r}")
            seen.add(p)
        for k, p in enumerate(pts):
            out[p] = pts[(k + 1) % len(pts)]
    return tuple(out)


class PermGroup:
    """A finite permutation group with fully enumerated elements.

    Enumeration is breadth-first closure over the generators, capped (default
    10000 elements) because every group in scope here is tiny.  The group is
    the one owner of element arithmetic: elsewhere an element is named by its
    index in the sorted `elements`, and the identity is index 0 (every other
    permutation tuple is lexicographically larger).  Products are read from
    `right_table(g)`, the table x -> x*g on element indices, built on first
    use for each g and kept; conjugacy classes from `class_indices`, one
    partition of the elements, also built on first use and kept.
    """

    def __init__(self, degree: int, generators: list[Perm], name: str = "", cap: int = 10000):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
        self.name = name or "G"
        e = identity_perm(degree)
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = pmul(x, g)
                    if y not in seen:
                        if len(seen) >= cap:
                            raise ValueError(f"group enumeration exceeded cap {cap}")
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        self.elements = sorted(seen)
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._right_tables: dict = {}  # element index of g -> [index of x*g for each x]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self._index

    def conjugacy_class(self, g: Perm) -> frozenset:
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for h in self.generators:
                y = conj(x, h)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return frozenset(orbit)

    @cached_property
    def class_indices(self) -> list[list[int]]:
        """The conjugacy classes as sorted element indices, in order of their
        least element; the one kept list, not to be mutated."""
        index, classes = self._index, []
        placed = [False] * self.order
        for i, g in enumerate(self.elements):
            if not placed[i]:
                cl = sorted(index[h] for h in self.conjugacy_class(g))
                for j in cl:
                    placed[j] = True
                classes.append(cl)
        return classes

    def right_table(self, g: Perm) -> list[int]:
        """The table x -> x*g on element indices (positions in `elements`)
        for an element g of this group, built on first use and kept."""
        i = self._index.get(tuple(g))
        if i is None:
            raise ValueError(f"{cycle_notation(g)} is not an element of {self.name}")
        table = self._right_tables.get(i)
        if table is None:
            index = self._index
            table = self._right_tables[i] = [index[pmul(x, g)] for x in self.elements]
        return table

    def center(self) -> frozenset:
        return frozenset(
            g for g in self.elements if all(pmul(g, h) == pmul(h, g) for h in self.generators)
        )

    def __repr__(self):
        return f"PermGroup({self.name}, degree={self.degree}, order={self.order})"


def load_group(text: str, name: str = "") -> PermGroup:
    """Read a group from the file format: header 'degree m', then one generator per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0] if lines else ""
    fields = head.split()
    if len(fields) != 2 or fields[0] != "degree" or not fields[1].isdecimal() or int(fields[1]) < 1:
        raise ValueError(f"group file header {head!r} is not 'degree m' with m a positive integer")
    m = int(fields[1])
    gens = [parse_cycles(ln, m) for ln in lines[1:]]
    if not gens:
        raise ValueError("group file lists no generators")
    return PermGroup(m, gens, name=name)


class ConjClassSet:
    """A conjugation-closed set of nontrivial group elements, with its class partition.

    `classes` lists the conjugacy classes of `parent` that make up the set, in
    the order of `PermGroup.class_indices`, and
    `class_of[a]` is the index in `classes` of the class of letter a (the a-th
    of the sorted `elements`).  The `rational` flag records closure under
    g -> g^a for all a prime to the order of g; it is checked and reported,
    never enforced.
    """

    def __init__(self, parent: PermGroup, elements):
        self.parent = parent
        elems = set(elements)
        e = identity_perm(parent.degree)
        if e in elems:
            raise ValueError("class set must consist of nontrivial elements")
        for g in elems:
            if g not in parent:
                raise ValueError(f"{cycle_notation(g)} is not in the group")
            for h in parent.generators:
                if conj(g, h) not in elems:
                    raise ValueError(
                        f"set not closed under conjugation: {cycle_notation(g)} by {cycle_notation(h)}"
                    )
        self.elements = sorted(elems)
        # the set is conjugation-closed, so a class of the parent lies in it
        # when its least element does
        G = parent.elements
        self.classes = [[G[i] for i in cl] for cl in parent.class_indices if G[cl[0]] in elems]
        class_index = {g: i for i, cl in enumerate(self.classes) for g in cl}
        self.class_of = [class_index[g] for g in self.elements]
        self.rational = all(_coprime_powers_in(g, elems) for g in self.elements)
        # the lattice of the subgroups of `parent` generated by letters of this
        # set, kept by `hurwitz.subgroup_lattice`
        self.lattice = None

    def __len__(self):
        return len(self.elements)

    @cached_property
    def rack(self) -> "Rack":
        """The conjugation quandle on the elements, a^b = b^-1 a b, built on
        first use and kept: the one rack of this class set."""
        return Rack(self.elements, {(a, b): conj(a, b) for a in self.elements for b in self.elements})


def _coprime_powers_in(g: Perm, elems) -> bool:
    """Whether g^a lies in elems for every a prime to the order of g, read
    off one walk through the powers of g, which also gives that order."""
    powers = [g]  # powers[a - 1] = g^a
    e = identity_perm(len(g))
    while powers[-1] != e:
        powers.append(pmul(powers[-1], g))
    n = len(powers)
    return all(h in elems for a, h in enumerate(powers[:-1], 1) if gcd(a, n) == 1)


# racks and cocycles ----------------------------------------------------------

class Rack:
    """A finite rack: a label set with a self-distributive operation (a, b) -> a^b.

    For each b the map a -> a^b must be a bijection.  `quandle` records whether
    a^a = a holds for all a.  `orbit_tables` holds the braid orbits on words
    of each length n, keyed by n, and `pair_cycles` the cycles of the pair
    braiding (b, a) -> (a, b^a) that join them; both are filled by
    `orbits.rack_orbits`.
    """

    def __init__(self, labels: list, action: dict):
        self.labels = list(labels)
        self.size = len(self.labels)
        self._idx = {lab: i for i, lab in enumerate(self.labels)}
        self.act = [[None] * self.size for _ in range(self.size)]
        for a in range(self.size):
            for b in range(self.size):
                self.act[a][b] = self._idx[action[(self.labels[a], self.labels[b])]]
        for b in range(self.size):
            if sorted(self.act[a][b] for a in range(self.size)) != list(range(self.size)):
                raise ValueError(f"a -> a^b is not a bijection for b={self.labels[b]}")
        for a in range(self.size):
            for b in range(self.size):
                for c in range(self.size):
                    lhs = self.act[self.act[c][a]][self.act[b][a]]
                    rhs = self.act[self.act[c][b]][a]
                    if lhs != rhs:
                        raise ValueError(
                            f"self-distributivity fails at ({self.labels[c]}, {self.labels[a]}, {self.labels[b]})"
                        )
        self.quandle = all(self.act[a][a] == a for a in range(self.size))
        self.orbit_tables: dict = {}
        self.pair_cycles: list | None = None
        # inv_act[v][b] = the unique a with a^b = v
        self.inv_act = [[None] * self.size for _ in range(self.size)]
        for a in range(self.size):
            for b in range(self.size):
                self.inv_act[self.act[a][b]][b] = a

    def components(self) -> list[list[int]]:
        """Orbit decomposition of the labels under all right translations."""
        seen = [False] * self.size
        comps = []
        for s in range(self.size):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            frontier = [s]
            while frontier:
                x = frontier.pop()
                for b in range(self.size):
                    for y in (self.act[x][b], self.inv_act[x][b]):
                        if not seen[y]:
                            seen[y] = True
                            comp.append(y)
                            frontier.append(y)
            comps.append(sorted(comp))
        return comps

    def __repr__(self):
        kind = "Quandle" if self.quandle else "Rack"
        return f"{kind}(size={self.size})"


@dataclass(frozen=True)
class Cocycle:
    """Scalar table x_{ab} twisting a rack braiding; must satisfy
    x_{ab} x_{a^b c} = x_{ac} x_{a^c b^c}, with nonzero exact values.
    """

    table: tuple  # table[a][b] as a tuple of tuples, indexed like Rack.act

    @classmethod
    def constant(cls, rack: Rack, value=1) -> "Cocycle":
        if value == 0:
            raise ValueError("cocycle values must be nonzero")
        return cls(tuple(tuple(value for _ in range(rack.size)) for _ in range(rack.size)))

    def check(self, rack: Rack) -> None:
        n = rack.size
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == 0:
                    raise ValueError("cocycle values must be nonzero")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = self.table[a][b] * self.table[rack.act[a][b]][c]
                    rhs = self.table[a][c] * self.table[rack.act[a][c]][rack.act[b][c]]
                    if lhs != rhs:
                        raise ValueError(f"cocycle condition fails at ({a}, {b}, {c})")


# braided vector spaces -------------------------------------------------------

class BraidedVectorSpace:
    """A finite-rank vector space with an invertible braiding on V (x) V.

    sigma maps the basis pair (a, b) to a list of ((c, d), coefficient) terms
    with exact integer or Fraction coefficients.  `sigma_codes` is the same
    table on pair codes: entry a*r + b lists the terms (c*r + d, coefficient).

    With a `group`, the labels must be elements of it, and they are the
    grading: each basis vector has its label as its Yetter-Drinfeld degree,
    and the degree of a word is the left-to-right product of its letters'
    degrees.  Without a group, V carries no grading.
    """

    def __init__(self, labels: list, sigma: dict, group: PermGroup | None = None,
                 rack: Rack | None = None, cocycle: Cocycle | None = None, name: str = ""):
        self.labels = list(labels)
        self.rank = len(self.labels)
        self.name = name or "V"
        self.sigma = {}
        for (a, b), terms in sigma.items():
            terms = tuple(((c, d), coeff) for (c, d), coeff in terms if coeff != 0)
            if terms:
                self.sigma[(a, b)] = terms
        r = self.rank
        self.sigma_codes = [()] * (r * r)
        for (a, b), terms in self.sigma.items():
            self.sigma_codes[a * r + b] = tuple((c * r + d, coeff) for (c, d), coeff in terms)
        if group is not None and any(lab not in group for lab in self.labels):
            raise ValueError("the labels are not elements of the given group")
        self.group = group
        self.rack = rack
        self.cocycle = cocycle
        self._inv = None
        self._twist = None
        # (field, a, b) -> {word code: image} for the words of V^(x)(a+b)
        # that some bar block has read, under the shuffle product of their
        # first a and last b letters; filled word by word by `qsa.bar_blocks`
        self.block_products: dict = {}

    def sigma_matrix(self) -> SparseMatrix:
        """The braiding as an r^2 x r^2 matrix on pair codes (a, b) -> a*r + b."""
        return SparseMatrix._trusted(self.rank**2, [dict(terms) for terms in self.sigma_codes])

    def sigma_inverse(self) -> list:
        """The inverse braiding as a pair-code table like `sigma_codes`, inverted
        exactly over Q on first use and kept."""
        if self._inv is None:
            self._inv = [tuple(sorted(col.items())) for col in inverse(self.sigma_matrix(), QQ).columns()]
        return self._inv

    def word_degree(self, word: tuple[int, ...]) -> Perm:
        """Yetter-Drinfeld degree of a basis word: left-to-right product."""
        if self.group is None:
            raise ValueError("space carries no group grading")
        g = identity_perm(self.group.degree)
        for a in word:
            g = pmul(g, self.labels[a])
        return g

    def __repr__(self):
        return f"BraidedVectorSpace({self.name}, rank={self.rank})"


def braided_space(rack: Rack, x: Cocycle, epsilon: bool = False,
                  group: PermGroup | None = None, name: str = "") -> BraidedVectorSpace:
    """The braided vector space of a rack and cocycle: sigma(a (x) b) = s x_{ab} (b (x) a^b),
    with s = -1 when epsilon is set.  The space records the cocycle s x it
    braids with, as `sign_twist` does.  When the rack came from conjugation in
    a permutation group, pass the group to attach the Yetter-Drinfeld grading.
    """
    x.check(rack)
    if epsilon:
        x = Cocycle(tuple(tuple(-v for v in row) for row in x.table))
    sigma = {(a, b): (((b, rack.act[a][b]), x.table[a][b]),) for a in range(rack.size) for b in range(rack.size)}
    return BraidedVectorSpace(rack.labels, sigma, group=group, rack=rack, cocycle=x, name=name)


def rank_one_space(sigma_scalar, name: str = "") -> BraidedVectorSpace:
    """The rank-one braided space with braiding the given nonzero scalar.

    This is the one-element rack with constant cocycle equal to the scalar.
    """
    if sigma_scalar == 0:
        raise ValueError("braiding scalar must be nonzero")
    trivial = Rack(["*"], {("*", "*"): "*"})
    return BraidedVectorSpace(["*"], {(0, 0): (((0, 0), sigma_scalar),)},
                              rack=trivial, cocycle=Cocycle.constant(trivial, sigma_scalar),
                              name=name or f"line({sigma_scalar})")


def sign_twist(V: BraidedVectorSpace) -> BraidedVectorSpace:
    """V with its braiding negated (the sign twist V (x) eps), built on first
    use and kept on V, so the caches of the twist live as long as V does."""
    if V._twist is None:
        sigma = {pair: tuple((t, -coeff) for t, coeff in terms) for pair, terms in V.sigma.items()}
        coc = None
        if V.cocycle is not None and V.rack is not None:
            coc = Cocycle(tuple(tuple(-v for v in row) for row in V.cocycle.table))
        V._twist = BraidedVectorSpace(V.labels, sigma, group=V.group, rack=V.rack, cocycle=coc,
                                      name=f"eps({V.name})")
    return V._twist


def dual_space(V: BraidedVectorSpace) -> BraidedVectorSpace:
    """The dual braided space: braiding is the transpose of V's in dual bases.

    The transpose is generally not of rack form, so no grading or rack data is
    carried over; only the braid equation is meaningful on the dual.
    """
    sigma = {}
    for (a, b), terms in V.sigma.items():
        for (c, d), coeff in terms:
            sigma.setdefault((c, d), []).append((((a, b)), coeff))
    sigma = {pair: tuple((t, cf) for t, cf in terms) for pair, terms in sigma.items()}
    return BraidedVectorSpace([f"{lab}*" for lab in V.labels], sigma, name=f"dual({V.name})")


# braid actions on tensor powers ----------------------------------------------

def word_index(word: tuple[int, ...], r: int) -> int:
    idx = 0
    for a in word:
        idx = idx * r + a
    return idx


def index_word(idx: int, r: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % r)
        idx //= r
    return tuple(reversed(out))


def apply_moves_to_vector(V: BraidedVectorSpace, n: int, moves, vec: dict) -> dict:
    """Apply a braid word to a vector in V^(x)n.

    `moves` is a list of signed generator indices (1-based, negative for the
    inverse generator), applied left to right.  `vec` maps base-r word codes
    (`word_index`) to exact coefficients; so does the result.  Generator g
    rewrites the pair code at place value r^(n-1-g), i.e. letters g-1, g.
    """
    r = V.rank
    rr = r * r
    cur = dict(vec)
    for mv in moves:
        g = abs(mv)
        if not 1 <= g < n:
            raise ValueError(f"generator {mv} out of range for {n} strands")
        table = V.sigma_codes if mv > 0 else V.sigma_inverse()
        place = r ** (n - 1 - g)
        nxt = {}
        for code, cf in cur.items():
            p = code // place % rr
            for q, coeff in table[p]:
                c2 = code + (q - p) * place
                s = nxt.get(c2, 0) + cf * coeff
                if s == 0:
                    nxt.pop(c2, None)
                else:
                    nxt[c2] = s
        cur = nxt
    return cur


def braid_word_action(V: BraidedVectorSpace, n: int, word) -> SparseMatrix:
    """Matrix of a braid word on V^(x)n, basis words ordered lexicographically.

    The word is a list of signed generator indices in {+-1, ..., +-(n-1)},
    applied left to right; the empty word gives the identity.
    """
    dim = V.rank**n
    return SparseMatrix._trusted(dim, [apply_moves_to_vector(V, n, word, {idx: 1}) for idx in range(dim)])


@dataclass
class BraidedCheckReport:
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def check_braided(V: BraidedVectorSpace) -> BraidedCheckReport:
    """Verify invertibility, the braid equation on V^(x)3, and (when graded)
    Yetter-Drinfeld compatibility.  Diagnostic: reports the first witness of
    each failure instead of raising.
    """
    failures = []
    try:
        sm = V.sigma_matrix()
        if rank(sm, QQ) != V.rank**2:
            failures.append("braiding matrix is singular")
        else:
            V.sigma_inverse()
    except Exception as exc:
        failures.append(f"braiding not invertible: {exc}")
    if V.rank > 0 and not failures:
        lhs = braid_word_action(V, 3, [1, 2, 1])
        rhs = braid_word_action(V, 3, [2, 1, 2])
        if lhs != rhs:
            _, j = min((i, j) for j, (a, b) in enumerate(zip(lhs.columns(), rhs.columns()))
                       for i, _ in a.items() ^ b.items())
            w = index_word(j, V.rank, 3)
            failures.append(f"braid equation fails on basis word {w}")
    if V.group is not None and not failures:
        for (a, b), terms in sorted(V.sigma.items()):
            for (c, d), _ in terms:
                if c != b or V.labels[d] != conj(V.labels[a], V.labels[b]):
                    failures.append(f"Yetter-Drinfeld compatibility fails at pair ({a}, {b})")
                    break
            if failures:
                break
    return BraidedCheckReport(not failures, failures)
