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
is summed from the d_i once.  Each diagonal p + q = s is a chain complex in p;
it is held as a `fnf.GradedComplex`, whose construction checks d^2 = 0 and
which ranks each differential at most once.  Every homology rank is read off
those complexes.

Homology ranks feed the generator-count diagnostic: the count in topological
degree j sums homology ranks at dual degree 1 + j over all module degrees,
which is finite because the homology vanishes for large module degree.  The
vanishing threshold is observed within the computed window, never assumed,
and `generator_counts` refuses to report until the tail is demonstrably zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BraidedVectorSpace, ConjClassSet, PermGroup, braided_space
from .exactla import CoefficientField, RankTable, SparseMatrix, column_space_contains, homology_basis
from .fnf import GradedComplex
from .hurwitz import FilteredModule, filtered_module, orbit_ring_module, restricted_ring_module
from .nichols import NicholsData, constant_braiding_value


class TruncationError(ValueError):
    """A result depends on terms beyond the assembled pmax/qmax window; the
    message names the bound to increase."""


class KoszulComplex:
    """Assembled terms and differentials of the complex for one module.

    `classes[i]` lists the letter indices of the i-th conjugacy class; the
    per-class matrices are d_class[(i, p, q)]: term (p, q) -> term (p-1, q+1).
    Their sum, the total differential, is formed once at construction and read
    by `d(p, q)`.  `diagonals[s]` is the chain complex of the terms with
    p + q = s, in degree p, for every s up to pmax + qmax.  Terms are indexed
    by (dual basis element, module basis element), module index fastest.
    """

    def __init__(self, V: BraidedVectorSpace, module: FilteredModule, pmax: int, qmax: int,
                 F: CoefficientField):
        if V.rack is None:
            raise ValueError("Koszul complexes need a rack-type space")
        if V.rack.size != module.rack.size:
            raise ValueError("module letters do not match the braided space basis")
        self.V = V
        self.module = module
        self.F = F
        self.nichols = NicholsData(V, F)
        top = self._top_degree(pmax)
        self.nichols.build_to(min(pmax, top))
        self.pmax = min(pmax, top)
        # when the dual algebra vanishes within range or just past it, degree
        # pmax is genuine; otherwise it is a truncation boundary and homology
        # there is unreliable.  `vanishes` generates the derivation matrix of
        # degree pmax + 1 one column at a time and stops at the first nonzero
        # one, so degree pmax + 1 is never built as a Nichols degree.
        self.top_reached = top < pmax or self.nichols.vanishes(pmax + 1)
        self.qmax = qmax
        class_of = module.class_of
        m = max(class_of) + 1 if class_of else 1
        self.classes = [[a for a in range(V.rack.size) if class_of[a] == i] for i in range(m)]
        self.d_class: dict = {}
        self._assemble()
        self._d = {}
        for (ci, p, q), M in self.d_class.items():  # class 0 comes first for each (p, q)
            self._d[(p, q)] = M if ci == 0 else self._d[(p, q)].add(M, F)
        self.diagonals = {
            s: GradedComplex({p: self.dim(p, s - p) for p in range(max(0, s - qmax), min(self.pmax, s) + 1)},
                             {p: M for (p, q), M in self._d.items() if p + q == s}, F)
            for s in range(self.pmax + qmax + 1)
        }

    def _top_degree(self, pmax: int) -> int:
        """Stop at the top of the Nichols algebra when it is finite dimensional.

        The first zero degree is found by `vanishes`, so it is never built."""
        for p in range(1, pmax + 1):
            if self.nichols.vanishes(p):
                return p - 1
        return pmax

    def dim(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or p > self.pmax or q > self.qmax:
            return 0
        return self.nichols.dim(p) * self.module.dim(q)

    def _assemble(self):
        F = self.F
        dcols = self.nichols.derivations  # [p][v] -> columns of d_v out of dual degree p
        for q in range(self.qmax):
            rmult = {v: self.module.right_mult(v, q) for v in range(self.V.rack.size)}
            for p in range(1, self.pmax + 1):
                np_src = self.nichols.dim(p)
                nq_src = self.module.dim(q)
                nrows = self.dim(p - 1, q + 1)
                nmod_t = self.module.dim(q + 1)
                for ci, letters in enumerate(self.classes):
                    cols = []
                    for k in range(np_src):
                        for o in range(nq_src):
                            acc = {}
                            for v in letters:
                                o2 = rmult[v][o]
                                if o2 is None:
                                    continue
                                for i, val in dcols[p][v][k].items():
                                    row = i * nmod_t + o2
                                    acc[row] = acc.get(row, 0) + val
                            cols.append(F.reduced(acc))
                    self.d_class[(ci, p, q)] = SparseMatrix._trusted(nrows, cols)

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
        return self.diagonals[p + q].homology_rank(p)

    def homology_representatives(self, p: int, q: int):
        return homology_basis(self.d(p + 1, q - 1), self.d(p, q), self.F)


def koszul_complex(V: BraidedVectorSpace, module_spec, pmax: int, qmax: int,
                   F: CoefficientField, G: PermGroup | None = None,
                   c: ConjClassSet | None = None) -> KoszulComplex:
    """Build the complex for a module described as 'R', ('exact', H), or ('sub', H).

    'R' is the full orbit ring; ('exact', H) the stratum of monodromy exactly
    H (needs G and c); ('sub', H) the ring of the pair (H, c n H), in which
    case the complex is built over the restricted braided space.
    """
    if module_spec == "R":
        return KoszulComplex(V, _full_ring(V, qmax, c), pmax, qmax, F)
    kind, H = module_spec
    if G is None or c is None:
        raise ValueError("subgroup modules need the group and class set")
    if kind == "exact":
        module = filtered_module(G, c, H, qmax)
        return KoszulComplex(V, module, pmax, qmax, F)
    if kind == "sub":
        from .braided import Cocycle

        module, Hgroup = restricted_ring_module(G, c, H, qmax)
        s = constant_braiding_value(V)
        VH = braided_space(module.rack, Cocycle.constant(module.rack, s), epsilon=False,
                           group=Hgroup, name=f"{V.name}|H")
        return KoszulComplex(VH, module, pmax, qmax, F)
    raise ValueError(f"unknown module spec {module_spec!r}")


def _full_ring(V: BraidedVectorSpace, qmax: int, c: ConjClassSet | None) -> FilteredModule:
    """The full orbit ring of V's rack through degree qmax, its letters graded
    by the conjugacy classes of c, or by rack components without c."""
    return orbit_ring_module(V.rack, qmax, class_of=[c.class_index(g) for g in c.elements] if c else None)


def koszul_homology(K: KoszulComplex, pmax: int | None = None, qmax: int | None = None,
                    by_multigrade: bool = False) -> RankTable:
    """Homology ranks over the requested window, optionally refined by multigrade.

    The window must leave one module degree of headroom (homology at q needs
    the differential into q + 1), and one dual degree when the dual algebra
    was truncated before vanishing; a window left with no dual degree raises
    `TruncationError`.
    """
    p_top = K.homology_pmax()
    pmax = p_top if pmax is None else min(pmax, p_top)
    if pmax < 0:
        raise TruncationError(f"the window holds no dual degree with reliable homology "
                              f"(assembled pmax {K.pmax}); increase pmax")
    qmax = K.qmax - 1 if qmax is None else qmax
    if qmax > K.qmax - 1:
        raise TruncationError("homology window exceeds assembled degrees; increase qmax")
    m = len(K.classes)
    table = RankTable(("p", "q") + tuple(f"q{i + 1}" for i in range(m))) if by_multigrade \
        else RankTable(("p", "q"))
    for s in range(pmax + qmax + 1):
        complexes = _multigrade_blocks(K, s) if by_multigrade else {(): K.diagonals[s]}
        for p in range(max(0, s - qmax), min(pmax, s) + 1):
            for grade, cx in complexes.items():
                table.set((p, s - p) + grade, cx.homology_rank(p))
    return table


def _term_grades(K: KoszulComplex, p: int, q: int) -> list[tuple[int, ...]]:
    """Total multigrade (dual side plus module side) of every basis vector of
    term (p, q), in index order; a dual basis element is graded by its pivot word."""
    psi = K.module.grade(K.nichols.pivot_words(p))
    mod = K.module.grades[q]
    return [tuple(a + b for a, b in zip(pg, mg)) for pg in psi for mg in mod]


def _multigrade_blocks(K: KoszulComplex, s: int) -> dict:
    """Diagonal s of K split by total multigrade, as {grade: GradedComplex}.

    Each block holds the basis vectors of one grade, in index order, and the
    entries of d between them, split off column by column.  The class
    differentials preserve the multigrade, so the diagonal is the direct sum
    of its blocks.
    """
    diagonal = K.diagonals[s]
    place = {}  # p -> (grade, position within that grade's block) per basis index
    sizes = {}  # grade -> {p: block dimension}
    for p in diagonal.degrees:
        place[p] = []
        for g in _term_grades(K, p, s - p):
            block = sizes.setdefault(g, {})
            place[p].append((g, block.get(p, 0)))
            block[p] = block.get(p, 0) + 1
    columns = {g: {} for g in sizes}  # grade -> {p: the columns of its block of d_p}
    for p, M in diagonal.diff.items():
        src, tgt = place[p], place[p - 1]
        for j, col in enumerate(M.columns()):
            g = src[j][0]
            block_col = {}
            for i, v in col.items():
                gi, r = tgt[i]
                if gi == g:
                    block_col[r] = v
            columns[g].setdefault(p, []).append(block_col)
    return {
        g: GradedComplex(block,
                         {p: SparseMatrix._trusted(block.get(p - 1, 0), cols) for p, cols in columns[g].items()},
                         K.F)
        for g, block in sizes.items()
    }


def generator_counts(V: BraidedVectorSpace, jmax: int, F: CoefficientField,
                     qmax: int = 8, tail: int = 3, c: ConjClassSet | None = None) -> list[int]:
    """Algebra-generator counts per topological degree from the homology of the
    full-ring complex: count(j) sums ranks at dual degree 1 + j over module
    degrees up to the observed vanishing bound.

    Raises unless the last `tail` computed module degrees all have zero
    homology at every requested dual degree (the explicit signal to rerun
    with a larger qmax).
    """
    K = KoszulComplex(V, _full_ring(V, qmax + 1, c), pmax=jmax + 2, qmax=qmax + 1, F=F)
    counts = []
    for j in range(jmax + 1):
        p = 1 + j
        if p > K.pmax:
            counts.append(0)
            continue
        ranks = [K.homology_rank(p, q) for q in range(qmax + 1)]
        if any(r != 0 for r in ranks[-tail:]):
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

    (a) the per-class differentials square to zero and anticommute pairwise;
    (b) for a monodromy stratum, the module multiplication on the side
        commuting with d (the left, given the right-multiplication
        differential) is zero on homology, checked on lifted cycle bases;
    (c) the nullhomotopy identity: with P_g = right multiplication by g* in
        the dual factor, dP_g - P_g d sends psi (x) r to
        s^deg(psi) psi (x) r (g conjugated by the inverse YD degree of psi).
        Its Nichols side, d_v(psi g*) = d_v(psi) g* + (braiding term), is the
        recursion that builds the derivations and right products
        (`nichols.NicholsData`), so it holds by construction; the check still
        tests the module side and the assembly.  The Nichols data's
        independent check is the symmetrizer and Gram-matrix oracle of the
        tests.
    """
    F = K.F
    p_top = K.homology_pmax()
    pr = p_top if pr is None else min(pr, K.pmax)
    qr = (K.qmax - 1) if qr is None else qr
    failures = []

    anticommute_ok = True
    m = len(K.classes)
    for q in range(min(qr, K.qmax - 1)):
        for p in range(2, pr + 1):
            if K.dim(p, q) == 0:
                continue
            for i in range(m):
                for j in range(i, m):
                    a = K.d_i(i, p - 1, q + 1).matmul(K.d_i(j, p, q), F)
                    if i == j:
                        if a.nnz:
                            anticommute_ok = False
                            failures.append(f"d_{i}^2 != 0 at (p={p}, q={q})")
                        continue
                    b = K.d_i(j, p - 1, q + 1).matmul(K.d_i(i, p, q), F)
                    if a.add(b, F).nnz:
                        anticommute_ok = False
                        failures.append(f"d_{i} d_{j} + d_{j} d_{i} != 0 at (p={p}, q={q})")

    trivial_ok = None
    if K.module.stratum is not None:
        trivial_ok = True
        for p in range(0, min(pr, p_top) + 1):
            for q in range(0, min(qr, K.qmax - 2) + 1):
                if K.dim(p, q) == 0:
                    continue
                reps = K.homology_representatives(p, q)
                if not reps:
                    continue
                for letter in K.module.letters:
                    lmap = K.module.left_mult(letter, q)
                    nmod_t = K.module.dim(q + 1)
                    boundary_src = K.d(p + 1, q)
                    for z in reps:
                        img = {}
                        for idx, val in z.items():
                            k, o = divmod(idx, K.module.dim(q))
                            o2 = lmap[o]
                            if o2 is None:
                                continue
                            row = k * nmod_t + o2
                            s = F.add(img.get(row, F.zero), val)
                            if s == 0:
                                img.pop(row, None)
                            else:
                                img[row] = s
                        if img and not column_space_contains(boundary_src, img, F):
                            trivial_ok = False
                            failures.append(
                                f"right multiplication not trivial on homology at (p={p}, q={q})"
                            )

    nullhomotopy_ok = True
    s_const = constant_braiding_value(K.V)
    letters = range(K.V.rack.size)
    pstar = {}  # p -> [_pstar_matrix(K, g, p) for every letter g], the same for every q
    twisted = {}  # (g, p) -> _twisted_letters(K, g, p), the same for every q
    for q in range(min(qr, K.qmax - 1)):
        for p in range(1, pr):
            if K.dim(p, q) == 0:
                continue
            for key in (p, p - 1):
                if key not in pstar:
                    pstar[key] = [_pstar_matrix(K, g, key) for g in letters]
            # each d is read once: the d P_g are the column blocks of one
            # product and the P_g d the row blocks of another
            n_src, n_tgt = K.dim(p, q), K.dim(p, q + 1)
            d_after = K.d(p + 1, q).matmul(_tensor_with_module(K, pstar[p], q, side_by_side=True), F)
            cols = d_after.columns()
            lhs = [[dict(col) for col in cols[g * n_src:(g + 1) * n_src]] for g in letters]
            after_d = _tensor_with_module(K, pstar[p - 1], q + 1, side_by_side=False).matmul(K.d(p, q), F)
            for j, col in enumerate(after_d.columns()):
                for i, v in col.items():
                    g, i = divmod(i, n_tgt)
                    s = F.sub(lhs[g][j].get(i, F.zero), v)
                    if s == 0:
                        lhs[g][j].pop(i, None)
                    else:
                        lhs[g][j][i] = s
            for g in letters:
                if (g, p) not in twisted:
                    twisted[(g, p)] = _twisted_letters(K, g, p)
                rhs = _twisted_right_mult(K, twisted[(g, p)], p, q, s_const)
                if lhs[g] != rhs.columns():
                    nullhomotopy_ok = False
                    failures.append(f"nullhomotopy identity fails at (p={p}, q={q}, g={g})")
    return KoszulIdentityReport(anticommute_ok, trivial_ok, nullhomotopy_ok, failures)


def _pstar_matrix(K: KoszulComplex, g: int, p: int) -> SparseMatrix:
    """Right multiplication by the degree-one dual generator g* on the dual
    factor: the right product R_g out of degree p of the Nichols data."""
    nd = K.nichols
    return SparseMatrix._trusted(nd.dim(p + 1), nd.right_products[p][g])


def _tensor_with_module(K: KoszulComplex, mats: list[SparseMatrix], q: int, side_by_side: bool) -> SparseMatrix:
    """The maps M (x) 1 on module degree q for M in mats (all of one shape),
    side by side (one column block each) or stacked (one row block each)."""
    nmod = K.module.dim(q)
    rows = mats[0].rows * nmod
    shift = 0 if side_by_side else rows  # row offset of each next block
    blocks = [[{b * shift + i * nmod + o: v for i, v in col.items()} for col in M.columns() for o in range(nmod)]
              for b, M in enumerate(mats)]
    if side_by_side:
        return SparseMatrix._trusted(rows, [col for block in blocks for col in block])
    return SparseMatrix._trusted(len(mats) * rows, [{i: v for col in cols for i, v in col.items()}
                                                    for cols in zip(*blocks)])


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


def _twisted_right_mult(K: KoszulComplex, letters: list[int], p: int, q: int, s_const) -> SparseMatrix:
    """psi_k (x) r -> s^p psi_k (x) r letters[k], with letters from `_twisted_letters`."""
    nmod_s = K.module.dim(q)
    nmod_t = K.module.dim(q + 1)
    sign = K.F.convert(s_const**p)
    cols = []
    for k, gl in enumerate(letters):
        rmap = K.module.right_mult(gl, q)
        for o in range(nmod_s):
            o2 = rmap[o]
            cols.append({k * nmod_t + o2: sign} if o2 is not None and sign else {})
    return SparseMatrix._trusted(K.nichols.dim(p) * nmod_t, cols)
