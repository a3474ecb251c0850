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
and d = sum d_i.  Everything is assembled as explicit sparse matrices;
d^2 = 0 is asserted at construction.

Homology ranks feed the generator-count diagnostic: the count in topological
degree j sums homology ranks at dual degree 1 + j over all module degrees,
which is finite because the homology vanishes for large module degree.  The
vanishing threshold is observed within the computed window, never assumed,
and `generator_counts` refuses to report until the tail is demonstrably zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BraidedVectorSpace, ConjClassSet, PermGroup, braided_space, identity_perm, pinv, pmul, conj as gconj
from .exactla import (CoefficientField, ComplexIntegrityError, RankTable, SparseMatrix, column_space_contains,
                      homology_basis, homology_rank)
from .hurwitz import FilteredModule, filtered_module, orbit_ring_module, restricted_ring_module
from .nichols import NicholsData, constant_braiding_value, skew_derivation


class KoszulComplex:
    """Assembled terms and differentials of the complex for one module.

    `classes[i]` lists the letter indices of the i-th conjugacy class; the
    stored matrices are d_class[(i, p, q)]: term (p, q) -> term (p-1, q+1),
    and `d(p, q)` adds them up on each call.  Terms are indexed by (dual basis
    element, module basis element), module index fastest.
    """

    def __init__(self, V: BraidedVectorSpace, module: FilteredModule, pmax: int, qmax: int,
                 F: CoefficientField, nichols: NicholsData | None = None):
        if V.rack is None:
            raise ValueError("Koszul complexes need a rack-type space")
        if V.rack.size != module.rack.size:
            raise ValueError("module letters do not match the braided space basis")
        self.V = V
        self.module = module
        self.F = F
        self.nichols = nichols or NicholsData(V, F)
        top = self._top_degree(pmax)
        self.nichols.build_to(min(pmax, top))
        self.pmax = min(pmax, top)
        # when the dual algebra vanishes within range, degree pmax is genuine;
        # otherwise it is a truncation boundary and homology there is unreliable
        self.top_reached = top < pmax
        self.qmax = qmax
        class_of = module.class_of
        m = max(class_of) + 1 if class_of else 1
        self.classes = [[a for a in range(V.rack.size) if class_of[a] == i] for i in range(m)]
        self._deriv = {}
        self.d_class: dict = {}
        self._assemble()
        self._check_d_squared()

    def _top_degree(self, pmax: int) -> int:
        """Stop at the top of the Nichols algebra when it is finite dimensional."""
        top = 0
        for p in range(pmax + 1):
            if self.nichols.dim(p) == 0 and p >= 1:
                return p - 1
            top = p
        return top

    def dim(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or p > self.pmax or q > self.qmax:
            return 0
        return self.nichols.dim(p) * self.module.dim(q)

    def psi_multigrade(self, p: int, k: int) -> tuple[int, ...]:
        word = self.nichols.pivot_words(p)[k]
        grade = [0] * len(self.classes)
        for a in word:
            grade[self.module.class_of[a]] += 1
        return tuple(grade)

    def term_multigrade(self, p: int, q: int, index: int) -> tuple[int, ...]:
        """Total multigrade (dual side plus module side) of a term basis vector."""
        nmod = self.module.dim(q)
        k, o = divmod(index, nmod)
        pg = self.psi_multigrade(p, k)
        mg = self.module.multigrade(q, o)
        return tuple(a + b for a, b in zip(pg, mg))

    def _assemble(self):
        F = self.F
        for p in range(1, self.pmax + 1):
            for v in range(self.V.rack.size):
                self._deriv[(v, p)] = skew_derivation(self.nichols, v, p)
        for q in range(self.qmax):
            lmult = {v: self.module.right_mult(v, q) for v in range(self.V.rack.size)}
            for p in range(1, self.pmax + 1):
                np_src = self.nichols.dim(p)
                nq_src = self.module.dim(q)
                nrows = self.dim(p - 1, q + 1)
                nmod_t = self.module.dim(q + 1)
                for ci, letters in enumerate(self.classes):
                    cols = []
                    for k in range(np_src):
                        dcols = {v: self._deriv[(v, p)].column(k) for v in letters}
                        for o in range(nq_src):
                            col = {}
                            for v in letters:
                                o2 = lmult[v][o]
                                if o2 is None:
                                    continue
                                for i, val in dcols[v].items():
                                    row = i * nmod_t + o2
                                    s = F.add(col.get(row, F.zero), val)
                                    if s == 0:
                                        col.pop(row, None)
                                    else:
                                        col[row] = s
                            cols.append(col)
                    self.d_class[(ci, p, q)] = SparseMatrix.from_columns(nrows, cols)

    def d_i(self, ci: int, p: int, q: int) -> SparseMatrix:
        if (ci, p, q) in self.d_class:
            return self.d_class[(ci, p, q)]
        return SparseMatrix.zero(self.dim(p - 1, q + 1), self.dim(p, q))

    def d(self, p: int, q: int) -> SparseMatrix:
        out = self.d_i(0, p, q)
        for ci in range(1, len(self.classes)):
            out = out.add(self.d_i(ci, p, q), self.F)
        return out

    def _check_d_squared(self):
        for q in range(self.qmax - 1):
            for p in range(2, self.pmax + 1):
                if self.dim(p, q) == 0:
                    continue
                comp = self.d(p - 1, q + 1).matmul(self.d(p, q), self.F)
                if comp.entries:
                    raise ComplexIntegrityError(f"d^2 != 0 at (p={p}, q={q})")

    def homology_pmax(self) -> int:
        """Largest dual degree with reliable homology; checks whether the dual
        algebra vanishes just past the assembled range before declaring the
        top degree a truncation boundary."""
        if not self.top_reached and self.nichols.dim(self.pmax + 1) == 0:
            self.top_reached = True
        return self.pmax if self.top_reached else self.pmax - 1

    def homology_rank(self, p: int, q: int) -> int:
        """Rank of homology at term (p, q); needs p+1 <= pmax+1 and q-1 >= -1 data."""
        if p == self.pmax and self.dim(p, q) and self.homology_pmax() < p:
            raise ValueError(
                f"dual degree {p} is the truncation boundary; increase pmax"
            )
        if q + 1 > self.qmax and self.dim(p - 1, q + 1) != 0:
            raise ValueError(f"module degree {q + 1} not assembled; increase qmax")
        d_out = self.d(p, q)
        d_in = self.d(p + 1, q - 1) if (p + 1 <= self.pmax and q >= 1) else \
            SparseMatrix.zero(self.dim(p, q), self.dim(p + 1, q - 1))
        return homology_rank(d_in, d_out, self.F)

    def homology_representatives(self, p: int, q: int):
        d_out = self.d(p, q)
        d_in = self.d(p + 1, q - 1) if (p + 1 <= self.pmax and q >= 1) else \
            SparseMatrix.zero(self.dim(p, q), self.dim(p + 1, q - 1))
        return homology_basis(d_in, d_out, self.F)


def koszul_complex(V: BraidedVectorSpace, module_spec, pmax: int, qmax: int,
                   F: CoefficientField, G: PermGroup | None = None,
                   c: ConjClassSet | None = None) -> KoszulComplex:
    """Build the complex for a module described as 'R', ('exact', H), or ('sub', H).

    'R' is the full orbit ring; ('exact', H) the stratum of monodromy exactly
    H (needs G and c); ('sub', H) the ring of the pair (H, c n H), in which
    case the complex is built over the restricted braided space.
    """
    if module_spec == "R":
        module = orbit_ring_module(V.rack, qmax,
                                   class_of=[c.class_index(g) for g in c.elements] if c else None)
        return KoszulComplex(V, module, pmax, qmax, F)
    kind, H = module_spec
    if G is None or c is None:
        raise ValueError("subgroup modules need the group and class set")
    if kind == "exact":
        module = filtered_module(G, c, H, qmax)
        return KoszulComplex(V, module, pmax, qmax, F)
    if kind == "sub":
        from .braided import Cocycle

        module, _embed = restricted_ring_module(G, c, H, qmax)
        s = constant_braiding_value(V)
        Hgroup = PermGroup(G.degree, [g for g in c.elements if g in frozenset(H)], name="H")
        VH = braided_space(module.rack, Cocycle.constant(module.rack, s), epsilon=False,
                           group=Hgroup, name=f"{V.name}|H")
        return KoszulComplex(VH, module, pmax, qmax, F)
    raise ValueError(f"unknown module spec {module_spec!r}")


def koszul_homology(K: KoszulComplex, pmax: int | None = None, qmax: int | None = None,
                    by_multigrade: bool = False) -> RankTable:
    """Homology ranks over the requested window, optionally refined by multigrade.

    The window must leave one module degree of headroom (homology at q needs
    the differential into q + 1), and one dual degree when the dual algebra
    was truncated before vanishing.
    """
    p_top = K.homology_pmax()
    pmax = p_top if pmax is None else min(pmax, p_top)
    qmax = K.qmax - 1 if qmax is None else qmax
    if qmax > K.qmax - 1:
        raise ValueError("homology window exceeds assembled degrees; increase qmax")
    m = len(K.classes)
    table = RankTable(("p", "q") + tuple(f"q{i + 1}" for i in range(m))) if by_multigrade \
        else RankTable(("p", "q"))
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            if not by_multigrade:
                r = K.homology_rank(p, q)
                if r:
                    table.set((p, q), r)
                continue
            grades = sorted({K.term_multigrade(p, q, i) for i in range(K.dim(p, q))})
            for grade in grades:
                r = _graded_homology_rank(K, p, q, grade)
                if r:
                    table.set((p, q) + grade, r)
    return table


def _grade_positions(K: KoszulComplex, p: int, q: int, grade) -> list[int]:
    return [i for i in range(K.dim(p, q)) if K.term_multigrade(p, q, i) == grade]


def _restrict(M: SparseMatrix, rows: list[int], cols: list[int]) -> SparseMatrix:
    rpos = {r: i for i, r in enumerate(rows)}
    cpos = {c: j for j, c in enumerate(cols)}
    ent = {}
    for (i, j), v in M.entries.items():
        if i in rpos and j in cpos:
            ent[(rpos[i], cpos[j])] = v
    return SparseMatrix(len(rows), len(cols), ent)


def _graded_homology_rank(K: KoszulComplex, p: int, q: int, grade) -> int:
    mid = _grade_positions(K, p, q, grade)
    out_pos = _grade_positions(K, p - 1, q + 1, grade) if K.dim(p - 1, q + 1) else []
    in_pos = _grade_positions(K, p + 1, q - 1, grade) if (p + 1 <= K.pmax and q >= 1) else []
    d_out = _restrict(K.d(p, q), out_pos, mid) if K.dim(p, q) else SparseMatrix.zero(0, 0)
    if p + 1 <= K.pmax and q >= 1:
        d_in = _restrict(K.d(p + 1, q - 1), mid, in_pos)
    else:
        d_in = SparseMatrix.zero(len(mid), 0)
    return homology_rank(d_in, d_out, K.F)


def generator_counts(V: BraidedVectorSpace, jmax: int, F: CoefficientField,
                     qmax: int = 8, tail: int = 3, c: ConjClassSet | None = None) -> list[int]:
    """Algebra-generator counts per topological degree from the homology of the
    full-ring complex: count(j) sums ranks at dual degree 1 + j over module
    degrees up to the observed vanishing bound.

    Raises unless the last `tail` computed module degrees all have zero
    homology at every requested dual degree (the explicit signal to rerun
    with a larger qmax).
    """
    K = KoszulComplex(V, orbit_ring_module(
        V.rack, qmax + 1,
        class_of=[c.class_index(g) for g in c.elements] if c else None),
        pmax=jmax + 2, qmax=qmax + 1, F=F)
    counts = []
    for j in range(jmax + 1):
        p = 1 + j
        if p > K.pmax:
            counts.append(0)
            continue
        ranks = [K.homology_rank(p, q) for q in range(qmax + 1)]
        if any(r != 0 for r in ranks[-tail:]):
            raise ValueError(
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
                    b = K.d_i(j, p - 1, q + 1).matmul(K.d_i(i, p, q), F)
                    s = a.add(b, F)
                    if i == j:
                        if a.entries:
                            anticommute_ok = False
                            failures.append(f"d_{i}^2 != 0 at (p={p}, q={q})")
                    elif s.entries:
                        anticommute_ok = False
                        failures.append(f"d_{i} d_{j} + d_{j} d_{i} != 0 at (p={p}, q={q})")

    trivial_ok = None
    if K.module.name.startswith("Rexact"):
        trivial_ok = True
        for p in range(0, min(pr, p_top) + 1):
            for q in range(0, min(qr, K.qmax - 2) + 1):
                if K.dim(p, q) == 0:
                    continue
                reps = K.homology_representatives(p, q)
                if not reps:
                    continue
                for letter in K.module.letters:
                    rmap = K.module.left_mult(letter, q)
                    nmod_t = K.module.dim(q + 1)
                    boundary_src = K.d(p + 1, q) if p + 1 <= K.pmax else \
                        SparseMatrix.zero(K.dim(p, q + 1), 0)
                    for z in reps:
                        img = {}
                        for idx, val in z.items():
                            k, o = divmod(idx, K.module.dim(q))
                            o2 = rmap[o]
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
    V = K.V
    group = V.group
    for q in range(min(qr, K.qmax - 1)):
        for p in range(1, pr):
            if K.dim(p, q) == 0:
                continue
            for g in range(V.rack.size):
                lhs = _d_after_pstar(K, g, p, q).add(_pstar_after_d(K, g, p, q).scale(-1), F)
                rhs = _twisted_right_mult(K, g, p, q, s_const, group)
                if lhs != rhs:
                    nullhomotopy_ok = False
                    failures.append(f"nullhomotopy identity fails at (p={p}, q={q}, g={g})")
    return KoszulIdentityReport(anticommute_ok, trivial_ok, nullhomotopy_ok, failures)


def _pstar_matrix(K: KoszulComplex, g: int, p: int) -> SparseMatrix:
    """Right multiplication by the degree-one dual generator g* on the dual factor."""
    F = K.F
    nd = K.nichols
    cols = []
    for k in range(nd.dim(p)):
        cls = nd.dual_product(p, k, 1, g)
        cols.append({i: v for i, v in enumerate(cls) if v != 0})
    return SparseMatrix.from_columns(nd.dim(p + 1), cols)


def _tensor_with_module(K: KoszulComplex, M: SparseMatrix, q: int) -> SparseMatrix:
    nmod = K.module.dim(q)
    ent = {}
    for (i, k), v in M.entries.items():
        for o in range(nmod):
            ent[(i * nmod + o, k * nmod + o)] = v
    return SparseMatrix(M.rows * nmod, M.cols * nmod, ent)


def _d_after_pstar(K: KoszulComplex, g: int, p: int, q: int) -> SparseMatrix:
    P = _tensor_with_module(K, _pstar_matrix(K, g, p), q)
    return K.d(p + 1, q).matmul(P, K.F)


def _pstar_after_d(K: KoszulComplex, g: int, p: int, q: int) -> SparseMatrix:
    P = _tensor_with_module(K, _pstar_matrix(K, g, p - 1), q + 1)
    return P.matmul(K.d(p, q), K.F)


def _twisted_right_mult(K: KoszulComplex, g: int, p: int, q: int, s_const, group) -> SparseMatrix:
    """psi_k (x) r -> s^p psi_k (x) r (g conjugated by deg(psi_k)^-1)."""
    F = K.F
    nd = K.nichols
    nmod_s = K.module.dim(q)
    nmod_t = K.module.dim(q + 1)
    rack = K.V.rack
    sign = F.convert(s_const**p)
    cols = []
    for k in range(nd.dim(p)):
        word = nd.pivot_words(p)[k]
        if group is not None:
            h = identity_perm(group.degree)
            for a in word:
                h = pmul(h, K.V.labels[a])
            gl = K.V.labels.index(gconj(K.V.labels[g], pinv(h)))
        else:
            gl = g
            for a in reversed(word):
                gl = rack.inv_act[gl][a]
        lmap = K.module.right_mult(gl, q)
        for o in range(nmod_s):
            o2 = lmap[o]
            cols.append({} if o2 is None else {k * nmod_t + o2: sign})
    return SparseMatrix.from_columns(nd.dim(p) * nmod_t, cols)
