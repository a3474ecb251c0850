"""Koszul-type complexes pairing the dual Nichols algebra against orbit-ring modules.

For a sign-twisted rack space V and a graded module M over the orbit ring
(the full ring R, one monodromy stratum, or the ring of a subgroup pair), the
complex has terms K^{p,q} = B(V*)_p (x) M_q and differential

    d(psi (x) r) = sum over letters v of  (d_v psi) (x) (r v),

which lowers p by one and raises q by one.  The module factor is multiplied
on the side matching the pairing orientation of the skew derivations; with
the orientation fixed in `nichols`, that is the right side (the two sides are
mirror conventions, and only this one squares to zero once c has classes of
non-involutions).  Splitting the letter sum by conjugacy class gives the
per-class differentials d_1..d_m; they anticommute and each squares to zero,
and d = sum d_i.  Everything is assembled as explicit sparse matrices, and d
is formed from the d_i once.  The letter product of a word is a braid
invariant (its boundary monodromy), so a module basis orbit o times distinct
letters v gives distinct orbits o v: each column of d_i, and of d, is a
disjoint union of derivation entries, already reduced.  Assembly writes
them, for each dual basis element psi_k and only the letters with
d_v psi_k != 0, straight into the columns of every module basis element,
with no sum, and counts the entries written.  d is the union of the class
columns, counted the same way; with one class it is d_0 itself.  The rows
of d_v psi_k lie in the G-grade v^-1 deg(psi_k) as well, so no complex
built from `NicholsData` has two letters meet in one entry: a count that
comes up short means malformed derivations or module tables, and raises
`ComplexIntegrityError`.  Before assembling, the complex
counts the entries the derivations can give and refuses (ValueError) a
count over `orbits.DEFAULT_STATE_CAP`.  Each diagonal p + q = s is a chain
complex in p; it is held as a `fnf.GradedComplex`, whose construction checks
d^2 = 0 on every entry and which ranks each differential at most once.

Every homology rank is read off a rank plan per diagonal: (complex,
multiplicity) pairs, as `orbits.block_plan` gives the FNF and bar sides.  The
terms are graded by G: psi (x) o has grade deg(o) deg(psi), deg the
left-to-right product of a word's letters, and every class differential
preserves it.  When conjugation by the generators of V's group preserves
every braiding coefficient and the module is not a stratum (the full ring R
or the ring of a subgroup pair), conjugation by h maps the block of grade g
onto the block of grade h g h^-1, so the plan holds one block per conjugacy
class of grades, weighted by the class size.  The split reads every entry of
the diagonal and refuses one joining two grades; it copies only the
representative blocks and does not check their d^2 again.  Otherwise the
plan is the whole diagonal.  The `--multigrade` refinement splits whole
diagonals through the same `GradedComplex.split`, and
`verify_koszul_identities` reads the assembled matrices of every grade.

Homology ranks feed the generator-count diagnostic: the count in topological
degree j sums homology ranks at dual degree 1 + j over all module degrees,
which is finite because the homology vanishes for large module degree.  The
vanishing threshold is observed within the computed window, never assumed,
and `generator_counts` refuses to report until the tail is demonstrably zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from . import orbits
from .braided import BraidedVectorSpace, Cocycle, ConjClassSet, braided_space, identity_perm, pmul
from .exactla import (CoefficientField, ComplexIntegrityError, RankTable, SparseMatrix, cycles_map_to_boundaries,
                      products_vanish)
from .fnf import GradedComplex
from .hurwitz import FilteredModule, filtered_module, orbit_ring_module, restricted_ring_module
from .nichols import NicholsData, constant_braiding_value


class TruncationError(ValueError):
    """A result depends on terms beyond the assembled pmax/qmax window; the
    message names the bound to increase."""


class KoszulComplex:
    """Assembled terms and differentials of the complex for one module.

    The module must be built on the rack of V itself (the one rack of its
    class set), so that module letters and dual letters are the same labels.

    `classes[i]` lists the letter indices of the i-th conjugacy class; the
    per-class matrices are d_class[(i, p, q)]: term (p, q) -> term (p-1, q+1).
    Their sum, the total differential, is formed once at construction and read
    by `d(p, q)`.  `diagonals[s]` is the chain complex of the terms with
    p + q = s, in degree p, for every s up to pmax + qmax.  Terms are indexed
    by (dual basis element, module basis element), module index fastest.
    Homology ranks are read through `rank_plan(s)`: one G-grade block of
    diagonal s per conjugacy class, weighted by the class size, when V's
    braiding is conjugation-invariant and the module is not a stratum;
    otherwise the whole diagonal.  Assembly and the checks read whole
    diagonals either way.
    """

    def __init__(self, V: BraidedVectorSpace, module: FilteredModule, pmax: int, qmax: int,
                 F: CoefficientField):
        if V.rack is None:
            raise ValueError("Koszul complexes need a rack-type space")
        if module.rack is not V.rack:
            raise ValueError("the module and the braided space are built on different racks")
        self.V = V
        self.module = module
        self.F = F
        self.nichols = NicholsData(V, F)
        # top is the degree below the first zero one up to pmax + 1, found by
        # `vanishes`, which builds no zero degree and not degree pmax + 1.
        # Unless the top is reached, degree pmax is a truncation boundary.
        top = next((p - 1 for p in range(1, pmax + 2) if self.nichols.vanishes(p)), pmax + 1)
        self.pmax = min(pmax, top)
        self.nichols.build_to(self.pmax)
        self.top_reached = top <= pmax
        self.qmax = qmax
        class_of = module.class_of
        m = max(class_of) + 1 if class_of else 1
        self.classes = [[a for a in range(V.rack.size) if class_of[a] == i] for i in range(m)]
        self.d_class: dict = {}
        self._d: dict = {}
        self._check_size()
        self._assemble()
        self.diagonals = {
            s: GradedComplex({p: self.dim(p, s - p) for p in range(max(0, s - qmax), min(self.pmax, s) + 1)},
                             {p: M for (p, q), M in self._d.items() if p + q == s}, F)
            for s in range(self.pmax + qmax + 1)
        }
        symmetric = module.stratum is None and orbits._is_rack_braiding(V) and orbits._conjugation_symmetries(V)
        self._grading = _GroupGrading(self) if symmetric else None
        self._plans: dict = {}

    def dim(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or p > self.pmax or q > self.qmax:
            return 0
        return self.nichols.dim(p) * self.module.dim(q)

    def _check_size(self):
        """Refuse a complex too large to assemble: the class differentials hold
        at most dim M_q times nnz(d_v psi_k) entries summed over q < qmax, p, k
        and v, counted from the Nichols derivations before anything is built."""
        nnz = sum(len(col) for p in range(1, self.pmax + 1) for cols in self.nichols.derivations[p] for col in cols)
        entries = nnz * sum(self.module.dim(q) for q in range(self.qmax))
        if entries > orbits.DEFAULT_STATE_CAP:
            raise ValueError(f"the Koszul differentials would hold up to {entries} entries, over the cap of "
                             f"{orbits.DEFAULT_STATE_CAP}; lower --pmax or --qmax")

    def _assemble(self):
        """Write the class differentials and d, each entry once (see the
        module docstring).  The columns (k, o) of one dual basis element psi_k
        are written together and their entries counted; should they hold
        fewer, two letters met in one entry, and `ComplexIntegrityError` is
        raised.  d is formed per (p, q) by `_union`."""
        dcols = self.nichols.derivations  # [p][v] -> columns of d_v out of dual degree p
        for q in range(self.qmax):
            rmult = [self.module.right_mult(v, q) for v in range(self.V.rack.size)]
            nq_src, nmod_t = self.module.dim(q), self.module.dim(q + 1)
            # per letter, the number of module orbits whose product stays in the module
            hits = [nq_src - rm.count(None) for rm in rmult]
            for p in range(1, self.pmax + 1):
                nrows = self.dim(p - 1, q + 1)
                for ci, letters in enumerate(self.classes):
                    cols = []
                    for k in range(self.nichols.dim(p)):
                        # columns (k, o) for every module orbit o; d_v psi_k row
                        # i lands on row i * nmod_t + (o v) of term (p - 1, q + 1)
                        block, written = [{} for _ in range(nq_src)], 0
                        for v in letters:
                            if dv := dcols[p][v][k]:
                                written += len(dv) * hits[v]
                                rm = rmult[v]
                                for i, val in dv.items():
                                    base = i * nmod_t
                                    for col, o2 in zip(block, rm):
                                        if o2 is not None:
                                            col[base + o2] = val
                        if sum(map(len, block)) < written:
                            raise ComplexIntegrityError(f"p={p}, q={q}, k={k}: two letters of class {ci} "
                                                        "meet in one entry of the columns of psi_k")
                        cols += block
                    self.d_class[(ci, p, q)] = SparseMatrix._trusted(nrows, cols)
                self._d[(p, q)] = _union([self.d_class[(ci, p, q)] for ci in range(len(self.classes))],
                                         p, q, nq_src)

    def d_i(self, ci: int, p: int, q: int) -> SparseMatrix:
        if (ci, p, q) in self.d_class:
            return self.d_class[(ci, p, q)]
        return SparseMatrix.zero(self.dim(p - 1, q + 1), self.dim(p, q))

    def d(self, p: int, q: int) -> SparseMatrix:
        """The total differential, term (p, q) -> term (p-1, q+1)."""
        if (p, q) in self._d:
            return self._d[(p, q)]
        return SparseMatrix.zero(self.dim(p - 1, q + 1), self.dim(p, q))

    def homology_pmax(self) -> int:
        """Largest dual degree with reliable homology: pmax unless pmax is a
        truncation boundary (see `top_reached`)."""
        return self.pmax if self.top_reached else self.pmax - 1

    def homology_rank(self, p: int, q: int) -> int:
        """Rank of homology at term (p, q).

        Raises when the rank depends on terms that were not assembled: (p, q)
        outside the window, dual degree p at an unreliable truncation boundary,
        or q = qmax while d leaves (p, q) for module degree qmax + 1.
        """
        if not (0 <= p <= self.pmax and 0 <= q <= self.qmax):
            raise ValueError(f"term ({p}, {q}) lies outside the assembled degrees")
        if p == self.pmax and self.dim(p, q) and self.homology_pmax() < p:
            raise TruncationError(
                f"dual degree {p} is the truncation boundary; increase pmax"
            )
        if q == self.qmax and p >= 1 and self.nichols.dim(p - 1):
            raise TruncationError(f"module degree {q + 1} not assembled; increase qmax")
        return sum(mult * cx.homology_rank(p) for cx, mult in self.rank_plan(p + q))

    def rank_plan(self, s: int) -> list[tuple[GradedComplex, int]]:
        """The complexes that rank diagonal s, as (complex, multiplicity)
        pairs: every homology rank of the diagonal is the sum over the plan of
        multiplicity times the complex's rank.  When V's braiding is
        conjugation-invariant and the module is not a stratum (`_grading` is
        set), one G-grade block per conjugacy class, weighted by the class
        size; otherwise the whole diagonal.  Built once per s."""
        if s not in self._plans:
            if self._grading is None:
                self._plans[s] = [(self.diagonals[s], 1)]
            else:
                grades, classes = self._grading.diagonal(s, self.diagonals[s].degrees)
                blocks = _split_diagonal(self, s, grades, keep=[cls[0] for cls in classes])
                self._plans[s] = [(blocks[cls[0]], len(cls)) for cls in classes]
        return self._plans[s]


def _union(mats: list[SparseMatrix], p: int, q: int, nq_src: int) -> SparseMatrix:
    """The sum of the class differentials of (p, q): the first itself when it
    is the only one, else the union of their columns, which hold disjoint
    rows as the columns of one class do.  A column whose union holds fewer
    entries than its parts raises `ComplexIntegrityError` naming the psi_k
    of the column, one of `nq_src` module orbits per k."""
    if len(mats) == 1:
        return mats[0]
    cols = []
    for j, parts in enumerate(zip(*(M.columns() for M in mats))):
        col = {}
        for part in parts:
            col.update(part)
        if len(col) < sum(map(len, parts)):
            raise ComplexIntegrityError(f"p={p}, q={q}, k={j // nq_src}: two classes meet in one entry "
                                        "of the columns of psi_k in d")
        cols.append(col)
    return SparseMatrix._trusted(mats[0].rows, cols)


class _GroupGrading:
    """The G-grade of every basis vector of a complex's terms, on element indices.

    The elements of the group generated by the letters' labels are indexed
    breadth-first from the identity (index 0), by right multiplication with
    the letters: `rmul[x][a]` is the index of x * label a, and `mul[y][x]`
    that of x * y, composed from `rmul` through the letter that first reached
    y, so no grade needs a permutation product.  A word's degree is the
    left-to-right product of its letters; term psi_k (x) o has grade
    deg(o) deg(psi_k), which every class differential preserves.  `classes`
    are the conjugacy classes of those elements in V.group, as sorted
    indices: when conjugation preserves every braiding coefficient and the
    module, conjugation by h maps the block of grade g onto the block of
    grade h g h^-1, so the blocks of one class have equal ranks.
    """

    def __init__(self, K: KoszulComplex):
        labels = K.V.rack.labels
        e = identity_perm(len(labels[0]))
        elems, index, parent, self.rmul = [e], {e: 0}, [None], []
        for x, g in enumerate(elems):  # elems grows while it is walked
            row = []
            for a, label in enumerate(labels):
                h = pmul(g, label)
                if h not in index:
                    index[h] = len(elems)
                    elems.append(h)
                    parent.append((x, a))
                row.append(index[h])
            self.rmul.append(row)
        self.mul = [list(range(len(elems)))]
        for x, a in parent[1:]:
            self.mul.append([self.rmul[z][a] for z in self.mul[x]])
        seen, self.classes = set(), []
        for g in elems:
            if index[g] not in seen:
                self.classes.append(sorted(index[h] for h in K.V.group.conjugacy_class(g)))
                seen.update(self.classes[-1])
        self.dual = {p: self.word_degrees(K.nichols.pivot_words(p)) for p in range(K.pmax + 1)}
        self.mod = {q: self.word_degrees(words) for q, words in K.module.basis_words.items()}

    def word_degrees(self, words) -> list[int]:
        """The element index of each word's degree."""
        out = []
        for word in words:
            x = 0
            for a in word:
                x = self.rmul[x][a]
            out.append(x)
        return out

    def term_grades(self, p: int, q: int) -> list[int]:
        """The grade of every basis vector of term (p, q), in index order."""
        mod, rows = self.mod[q], {}
        for y in self.dual[p]:
            if y not in rows:
                rows[y] = [self.mul[y][x] for x in mod]
        return list(chain.from_iterable(rows[y] for y in self.dual[p]))

    def diagonal(self, s: int, degrees) -> tuple[dict, list[list[int]]]:
        """The grades of diagonal s in the given dual degrees, as {p: term
        grades}, and the classes that hold a basis vector there.  A class
        whose grades hold unequal numbers of basis vectors in some degree
        contradicts the symmetry, and raises `ComplexIntegrityError`."""
        grades = {p: self.term_grades(p, s - p) for p in degrees}
        counts = [Counter(gs) for gs in grades.values()]
        present = []
        for cls in self.classes:
            dims = [count[cls[0]] for count in counts]
            if any(count[g] != d for g in cls for count, d in zip(counts, dims)):
                raise ComplexIntegrityError(f"diagonal s={s}: the grades in the class of grade {cls[0]} "
                                            f"have blocks of unequal dimensions")
            if any(dims):
                present.append(cls)
        return grades, present


def koszul_complex(V: BraidedVectorSpace, module_spec, pmax: int, qmax: int,
                   F: CoefficientField, c: ConjClassSet | None = None) -> KoszulComplex:
    """Build the complex for a module described as 'R', ('exact', H), or ('sub', H).

    'R' is the full orbit ring, graded by the classes of c (without c, by rack
    components); ('exact', H) the stratum of monodromy exactly H in c.parent
    (needs c); ('sub', H) the ring of the pair (H, c n H), in which case the
    complex is built over the restricted braided space.
    """
    if module_spec == "R":
        module = orbit_ring_module(V.rack, qmax, class_of=c.class_of if c else None)
        return KoszulComplex(V, module, pmax, qmax, F)
    kind, H = module_spec
    if c is None:
        raise ValueError("subgroup modules need the class set")
    if kind == "exact":
        module = filtered_module(c, H, qmax)
        return KoszulComplex(V, module, pmax, qmax, F)
    if kind == "sub":
        module, Hgroup = restricted_ring_module(c, H, qmax)
        s = constant_braiding_value(V)
        VH = braided_space(module.rack, Cocycle.constant(module.rack, s), epsilon=False,
                           group=Hgroup, name=f"{V.name}|H")
        return KoszulComplex(VH, module, pmax, qmax, F)
    raise ValueError(f"unknown module spec {module_spec!r}")


def koszul_homology(K: KoszulComplex, by_multigrade: bool = False) -> RankTable:
    """Homology ranks at every term with reliable homology, optionally refined
    by multigrade: dual degrees up to `K.homology_pmax()` and module degrees
    below `K.qmax` (homology at q needs the differential into q + 1).  A
    complex with no such dual degree raises `TruncationError`.
    """
    pmax, qmax = K.homology_pmax(), K.qmax - 1
    if pmax < 0:
        raise TruncationError(f"the window holds no dual degree with reliable homology "
                              f"(assembled pmax {K.pmax}); increase pmax")
    m = len(K.classes)
    table = RankTable(("p", "q") + tuple(f"q{i + 1}" for i in range(m))) if by_multigrade \
        else RankTable(("p", "q"))
    for s in range(pmax + qmax + 1):
        degrees = range(max(0, s - qmax), min(pmax, s) + 1)
        if not by_multigrade:
            for p in degrees:
                table.set((p, s - p), K.homology_rank(p, s - p))
            continue
        for grade, cx in _multigrade_blocks(K, s).items():
            for p in degrees:
                table.set((p, s - p) + grade, cx.homology_rank(p))
    return table


def _term_grades(K: KoszulComplex, p: int, q: int) -> list[tuple[int, ...]]:
    """Total multigrade (dual side plus module side) of every basis vector of
    term (p, q), in index order; a dual basis element is graded by its pivot word."""
    psi = K.module.grade(K.nichols.pivot_words(p))
    mod = K.module.grades[q]
    return [tuple(a + b for a, b in zip(pg, mg)) for pg in psi for mg in mod]


def _multigrade_blocks(K: KoszulComplex, s: int) -> dict:
    """Diagonal s of K split by total multigrade, as {grade: GradedComplex}
    (`_split_diagonal`)."""
    return _split_diagonal(K, s, {p: _term_grades(K, p, s - p) for p in K.diagonals[s].degrees})


def _split_diagonal(K: KoszulComplex, s: int, grades: dict, keep=None) -> dict:
    """`GradedComplex.split` of diagonal s, naming s in its errors.  The class
    differentials preserve the multigrade and the G-grade, so the diagonal is
    the direct sum of its blocks in either; an entry of d between two grades
    breaks that, and raises `ComplexIntegrityError`."""
    try:
        return K.diagonals[s].split(grades, keep)
    except ComplexIntegrityError as exc:
        raise ComplexIntegrityError(f"diagonal s={s}: {exc}") from None


# the number of top module degrees whose homology must vanish before
# `generator_counts` reports
VANISHING_TAIL = 3


def generator_counts(V: BraidedVectorSpace, jmax: int, F: CoefficientField,
                     qmax: int = 8, c: ConjClassSet | None = None) -> list[int]:
    """Algebra-generator counts per topological degree from the homology of the
    full-ring complex: count(j) sums ranks at dual degree 1 + j over module
    degrees up to the observed vanishing bound.

    Raises unless the last `VANISHING_TAIL` computed module degrees all have
    zero homology at every requested dual degree (the explicit signal to
    rerun with a larger qmax).
    """
    R = orbit_ring_module(V.rack, qmax + 1, class_of=c.class_of if c else None)
    K = KoszulComplex(V, R, pmax=jmax + 2, qmax=qmax + 1, F=F)
    counts = []
    for j in range(jmax + 1):
        p = 1 + j
        if p > K.pmax:
            counts.append(0)
            continue
        ranks = [K.homology_rank(p, q) for q in range(qmax + 1)]
        if any(r != 0 for r in ranks[-VANISHING_TAIL:]):
            raise TruncationError(
                f"homology at dual degree {p} has not vanished by module degree {qmax}; increase qmax"
            )
        counts.append(sum(ranks))
    return counts


@dataclass
class KoszulIdentityReport:
    anticommute_ok: bool
    trivial_action_ok: bool | None
    nullhomotopy_ok: bool
    failures: list

    @property
    def ok(self) -> bool:
        return self.anticommute_ok and self.nullhomotopy_ok and self.trivial_action_ok in (True, None)


def verify_koszul_identities(K: KoszulComplex, pr: int | None = None, qr: int | None = None) -> KoszulIdentityReport:
    """Diagnostic checks on an assembled complex.

    (a) the per-class differentials square to zero and anticommute pairwise,
        each sum of products tested for zero without building it
        (`exactla.products_vanish`).  With one class d is d_0 itself
        (`_union`), and the d^2 check of every diagonal (`GradedComplex`,
        at construction) has already tested each product d_0 d_0 of the
        window below, so (a) tests nothing more; with two or more classes it
        tests every pair;
    (b) for a monodromy stratum, the module multiplication on the side
        commuting with d (the left, given the right-multiplication
        differential) is zero on homology: for each letter, left
        multiplication L from term (p, q) to term (p, q + 1) maps every cycle
        of d(p, q) into the image of d(p + 1, q), one rank identity each
        (`exactla.cycles_map_to_boundaries`, which ranks d(p, q) and
        d(p + 1, q) once for all the letters).  It tests every cycle, not
        only representatives of homology, so it is at least as strict;
    (c) the nullhomotopy identity: with P_g = right multiplication by g* in
        the dual factor, dP_g - P_g d = T_g, where T_g sends psi (x) r to
        s^deg(psi) psi (x) r (g conjugated by the inverse YD degree of psi).
        Its Nichols side, d_v(psi g*) = d_v(psi) g* + (braiding term), is the
        recursion that builds the derivations and right products
        (`nichols.NicholsData`), so it holds by construction; the check still
        tests the module side and the assembly.  The Nichols data's
        independent check is the symmetrizer and Gram-matrix oracle of the
        tests.  No P_g (x) 1 or T_g matrix is built: column (k, o) of
        dP_g - P_g d - T_g is summed straight from the columns (i, o) of
        d(p + 1, q), for the entries i of column k of the right product P_g
        out of degree p, minus P_g out of degree p - 1 applied to the dual
        side of column (k, o) of d(p, q), minus the one entry of T_g read
        off the module's right multiplication, all read as they stand when
        the check runs.  The sum is tested for zero as `products_vanish`
        tests one, and the first nonzero column ends the test of (p, q, g).

    With pr and qr as passed (pr capped at `K.pmax`; by default pr is
    `K.homology_pmax()` and qr is `K.qmax - 1`) and q* = min(qr, K.qmax - 1),
    (a) covers the (p, q) with 2 <= p <= pr and 0 <= q < q*, composing d out
    of (p, q) with d out of (p - 1, q + 1); (b) covers 0 <= p <= min(pr,
    `K.homology_pmax()`) and 0 <= q <= min(qr, K.qmax - 2); (c) covers
    1 <= p < pr and 0 <= q < q*.  So (a) and (c) stop one module degree
    below (b): the CLI passes qr = qmax - 2, and its (a) and (c) end at
    q = qmax - 3.
    """
    F = K.F
    p_top = K.homology_pmax()
    pr = p_top if pr is None else min(pr, K.pmax)
    qr = (K.qmax - 1) if qr is None else qr
    failures = []

    anticommute_ok = True
    m = len(K.classes)
    for q in range(min(qr, K.qmax - 1) if m > 1 else 0):  # one class: the d^2 check covers (a)
        for p in range(2, pr + 1):
            if K.dim(p, q) == 0:
                continue
            for i in range(m):
                for j in range(i, m):
                    pairs = [(K.d_i(i, p - 1, q + 1), K.d_i(j, p, q))]
                    if i != j:
                        pairs.append((K.d_i(j, p - 1, q + 1), K.d_i(i, p, q)))
                    if not products_vanish(pairs, F):
                        anticommute_ok = False
                        failures.append(f"d_{i}^2 != 0 at (p={p}, q={q})" if i == j
                                        else f"d_{i} d_{j} + d_{j} d_{i} != 0 at (p={p}, q={q})")

    trivial_ok = None
    if K.module.stratum is not None:
        trivial_ok = True
        for p in range(0, min(pr, p_top) + 1):
            for q in range(0, min(qr, K.qmax - 2) + 1):
                if K.dim(p, q) == 0:
                    continue
                d_out, d_in = K.d(p, q), K.d(p + 1, q)
                n_src, n_tgt = K.module.dim(q), K.module.dim(q + 1)
                maps = []
                for letter in K.module.letters:
                    # psi_k (x) r -> psi_k (x) (letter r), term (p, q) -> term (p, q + 1)
                    lmap = K.module.left_mult(letter, q)
                    maps.append(SparseMatrix._trusted(d_in.rows, [{} if lmap[o] is None else {k * n_tgt + lmap[o]: 1}
                                                                  for k in range(K.nichols.dim(p))
                                                                  for o in range(n_src)]))
                for letter, ok in zip(K.module.letters, cycles_map_to_boundaries(d_out, maps, d_in, F)):
                    if not ok:
                        trivial_ok = False
                        failures.append(f"left multiplication by letter {letter} not trivial on homology "
                                        f"at (p={p}, q={q})")

    nullhomotopy_ok = True
    s_const = constant_braiding_value(K.V)
    char = F.characteristic
    right = K.nichols.right_products  # [p][g] -> columns of P_g from dual degree p to p + 1
    twisted = {}  # (g, p) -> _twisted_letters(K, g, p), the same for every q
    for q in range(min(qr, K.qmax - 1)):
        n_src, n_tgt = K.module.dim(q), K.module.dim(q + 1)
        for p in range(1, pr):
            if K.dim(p, q) == 0:
                continue
            sign = F.convert(s_const**p)
            d_above = K.d(p + 1, q).columns()
            # each column of d(p, q) as (dual index, module index, value) triples
            d_split = [[(*divmod(i, n_tgt), v) for i, v in col.items()] for col in K.d(p, q).columns()]
            for g in range(K.V.rack.size):
                if (g, p) not in twisted:
                    twisted[(g, p)] = _twisted_letters(K, g, p)
                p_above, p_below = right[p][g], right[p - 1][g]
                rmaps = [K.module.right_mult(gl, q) for gl in twisted[(g, p)]]
                for j, dcol in enumerate(d_split):
                    k, o = divmod(j, n_src)
                    acc = {}
                    # d P_g: P_g psi_k = sum_i a psi_i, and column (i, o) of d(p + 1, q)
                    for i, a in p_above[k].items():
                        for t, b in d_above[i * n_src + o].items():
                            acc[t] = acc.get(t, 0) + a * b
                    # P_g d: P_g out of degree p - 1 on the dual side of column (k, o) of d(p, q)
                    for i, o2, b in dcol:
                        for i2, a in p_below[i].items():
                            t = i2 * n_tgt + o2
                            acc[t] = acc.get(t, 0) - a * b
                    # T_g: psi_k (x) r -> s^p psi_k (x) r g', g' the twisted letter of psi_k
                    if (o2 := rmaps[k][o]) is not None:
                        t = k * n_tgt + o2
                        acc[t] = acc.get(t, 0) - sign
                    if any(map(char.__rmod__, acc.values())) if char else any(acc.values()):
                        nullhomotopy_ok = False
                        failures.append(f"nullhomotopy identity fails at (p={p}, q={q}, g={g})")
                        break
    return KoszulIdentityReport(anticommute_ok, trivial_ok, nullhomotopy_ok, failures)


def _twisted_letters(K: KoszulComplex, g: int, p: int) -> list[int]:
    """For each degree-p dual basis word psi_k, the rack letter of g conjugated
    by deg(psi_k)^-1, i.e. h g h^-1 for h the product of the word's letters."""
    inv_act = K.V.rack.inv_act
    out = []
    for word in K.nichols.pivot_words(p):
        gl = g
        for a in reversed(word):
            gl = inv_act[gl][a]
        out.append(gl)
    return out
