"""Degreewise Nichols algebra data: symmetrizer ranks, the Hopf pairing, and
skew derivations.

Degree p of the Nichols algebra of V is the image of the quantum symmetrizer
[p]! on V^(x)p; its dimension is the symmetrizer's rank.  Degrees are built in
order, each by one Woronowicz step (`shuffle.symmetrizer_step`) from the exact
columns of the degree below, so [p]! is never rebuilt from degree 1; only the
columns of the highest built degree are kept, and each degree keeps its rows
over F.  `NicholsData.vanishes` runs the step to the next degree column by
column and stops at the first column nonzero over F: testing whether the
algebra ends there never builds that degree, and sweeps all its columns only
when it is zero.

A basis is chosen as the pivot words of the symmetrizer's reduced row echelon
form (columns in word order), read off one forward elimination by
`exactla.pivot_columns` with no back-substitution; the pivot columns of a
reduced row echelon form are unique, so the basis depends only on the
symmetrizer.
The dual algebra is carried on the same index set: the pairing of the dual
pivot word u* with a word w is the (u, w) entry of the symmetrizer, and the
Gram matrix (symmetrizer restricted to pivot rows and pivot columns) is
invertible on every example in scope; a singular Gram raises immediately since
it signals a basis-selection bug.  The only `exactla.rref` is the one of the
sparse matrix [G^T | I] (`exactla.inverse`), which is both the invertibility
check and the inverse; on rack spaces G is block-diagonal over the Hurwitz
orbits, so the inverse stays sparse.  Each
degree keeps the inverse Gram matrix and its transpose, so reducing a vector to
the pivot basis is one matrix-vector product.  Word vectors are keyed by word
tuples at the entry points (`reduce_primal`, `reduce_dual`, `hopf_pairing`,
`skew_derivation_by_element`), which code them once as base-r integers
(`braided.word_index`).  `reduce_dual` and `skew_derivation_by_element` read
the pairings they need straight off the symmetrizer rows; the per-entry
pairing `pair_dual_with_vector` (which takes codes) serves `reduce_primal` and
`hopf_pairing`, and is the tests' oracle for the direct reads.

Skew derivations lower the dual degree by one and are obtained by applying
the transposed inverse Gram matrices: <d_v phi, x> = <phi, v * x>.  For
sign-twisted rack spaces the conjugation that appears in the Leibniz rule
picks up the cocycle sign once per letter crossed: phi^v = (cocycle)^deg(phi)
times the letterwise conjugate.
"""

from __future__ import annotations

from .braided import BraidedVectorSpace, index_word, word_index
from .exactla import CoefficientField, SparseMatrix, inverse, pivot_columns
from .shuffle import symmetrizer_column, symmetrizer_step


class GramSingularError(RuntimeError):
    pass


class NicholsData:
    """Per-degree symmetrizer rows, pivot-word bases, and inverse Gram matrices.

    Built degree by degree, each degree from the symmetrizer columns of the one
    below.  Immutable once a degree is built.
    """

    def __init__(self, V: BraidedVectorSpace, F: CoefficientField):
        self.V = V
        self.F = F
        self.pivots: dict[int, list[int]] = {}
        self.gram_inv: dict[int, SparseMatrix] = {}
        self.gram_inv_t: dict[int, SparseMatrix] = {}
        self._sym_rows: dict[int, list[dict]] = {}
        self._pivot_pos: dict[int, dict[int, int]] = {}  # p -> {pivot word code: basis index}
        self._cols: list[dict] = []  # exact columns of the symmetrizer of the highest built degree
        self._built = -1

    def build_to(self, p: int):
        for d in range(self._built + 1, p + 1):
            self._build_degree(d)
        self._built = max(self._built, p)

    def _build_degree(self, p: int):
        F = self.F
        cols = symmetrizer_step(self.V, p, self._cols) if p else [{0: 1}]
        self._cols = cols
        S = SparseMatrix.from_columns(len(cols), cols)
        rows = self._sym_rows[p] = S.row_lists(F)
        pivots = pivot_columns(S, F)
        self.pivots[p] = pivots
        pos = self._pivot_pos[p] = {w: k for k, w in enumerate(pivots)}
        gram_t = SparseMatrix(len(pivots), len(pivots), {
            (pos[w], k): v for k, u in enumerate(pivots) for w, v in rows[u].items() if w in pos})
        try:
            self.gram_inv_t[p] = inverse(gram_t, F)
        except ZeroDivisionError as exc:
            raise GramSingularError(
                f"Gram matrix singular in degree {p}; pivot-word basis is unusable"
            ) from exc
        self.gram_inv[p] = self.gram_inv_t[p].transpose()

    def vanishes(self, p: int) -> bool:
        """Whether degree p of the algebra is zero over F.

        A built degree answers from its dimension.  Otherwise degree p - 1 is
        built and the step to degree p runs column by column, returning at the
        first column with an entry nonzero over F; only a zero degree sweeps
        every column.  Degree p itself is not built.
        """
        if p <= max(self._built, 0):
            return self.dim(p) == 0
        self.build_to(p - 1)
        F = self.F
        for idx in range(self.V.rank**p):
            if any(F.convert(v) for v in symmetrizer_column(self.V, p, self._cols, idx).values()):
                return False
        return True

    def dim(self, p: int) -> int:
        self.build_to(p)
        return len(self.pivots[p])

    def dims(self, pmax: int) -> list[int]:
        return [self.dim(p) for p in range(pmax + 1)]

    def pivot_words(self, p: int) -> list[tuple[int, ...]]:
        self.build_to(p)
        return [index_word(i, self.V.rank, p) for i in self.pivots[p]]

    def pair_dual_with_vector(self, p: int, u_index: int, vec: dict):
        """<u*, vec> for a vector in V^(x)p given as {word code: exact or field
        coefficient} (codes as in `braided.word_index`)."""
        F = self.F
        self.build_to(p)
        row = self._sym_rows[p][u_index]
        s = F.zero
        for j, cf in vec.items():
            a = row.get(j)
            if a is not None:
                s = F.add(s, F.mul(a, F.convert(cf)))
        return s

    def reduce_primal(self, p: int, vec: dict) -> list:
        """Coefficients of the class of a word vector ({word tuple: coefficient})
        in the pivot-word basis."""
        F = self.F
        self.build_to(p)
        piv = self.pivots[p]
        codes = {word_index(w, self.V.rank): cf for w, cf in vec.items()}
        rhs = {k: self.pair_dual_with_vector(p, u, codes) for k, u in enumerate(piv)}
        sol = self.gram_inv[p].apply(rhs, F)
        return [sol.get(k, F.zero) for k in range(len(piv))]

    def reduce_dual(self, p: int, vec: dict) -> list:
        """Coefficients of the class of a dual word vector in the dual pivot basis.

        `vec` maps words (tuples) of (V*)^(x)p to coefficients.  The right-hand
        side <u*, w> over the pivot words w is read off the rows of the
        symmetrizer.
        """
        F = self.F
        self.build_to(p)
        rows = self._sym_rows[p]
        pos = self._pivot_pos[p]
        acc = {}
        for u, cf in vec.items():
            c = F.convert(cf)
            for w, a in rows[word_index(u, self.V.rank)].items():
                k = pos.get(w)
                if k is not None:
                    acc[k] = acc.get(k, 0) + a * c
        sol = self.gram_inv_t[p].apply(F.reduced(acc), F)
        return [sol.get(k, F.zero) for k in range(len(pos))]

    def dual_product(self, p1: int, k1: int, p2: int, k2: int) -> list:
        """Class of the product of two dual pivot-basis elements, in the dual basis.

        Products of classes are classes of concatenated representatives: the
        symmetrizer is an algebra map from the tensor algebra, so the quotient
        carries the concatenation product.
        """
        w = self.pivot_words(p1)[k1] + self.pivot_words(p2)[k2]
        return self.reduce_dual(p1 + p2, {w: 1})


def constant_braiding_value(V: BraidedVectorSpace):
    """The constant coefficient of the braiding table (sign twist included)."""
    vals = set()
    for terms in V.sigma.values():
        for _, coeff in terms:
            vals.add(coeff)
    if len(vals) == 1:
        return vals.pop()
    raise ValueError("conjugation sign is only defined for constant braiding coefficients")


def nichols_dims(V: BraidedVectorSpace, Nmax: int, F: CoefficientField,
                 data: NicholsData | None = None):
    """Hilbert coefficients dim B(V)_n = rank of the degree-n symmetrizer, n <= Nmax.

    Returns (dims, stably_zero) where stably_zero flags two consecutive zeros
    (everything above is then zero, since the algebra is generated in degree 1).
    """
    data = data or NicholsData(V, F)
    dims = []
    stably_zero = False
    for n in range(Nmax + 1):
        dims.append(data.dim(n))
        if n >= 1 and dims[-1] == 0 and dims[-2] == 0:
            stably_zero = True
            dims.extend([0] * (Nmax - n))
            break
    return dims, stably_zero


def hopf_pairing(u: dict, phi: dict, V: BraidedVectorSpace, F: CoefficientField,
                 data: NicholsData | None = None):
    """<u, phi> = sum over permutations of (lifted braid applied to u, phi).

    u is a word vector in V^(x)m, phi a dual word vector in (V*)^(x)n; the value
    is zero when m != n.  Equals the corresponding symmetrizer entry in dual bases.
    """
    if not u or not phi:
        return F.zero
    m = len(next(iter(u)))
    n = len(next(iter(phi)))
    if m != n:
        return F.zero
    data = data or NicholsData(V, F)
    u_codes = {word_index(w, V.rank): cf for w, cf in u.items()}
    s = F.zero
    for uw, cphi in phi.items():
        pairing = data.pair_dual_with_vector(n, word_index(uw, V.rank), u_codes)
        s = F.add(s, F.mul(F.convert(cphi), pairing))
    return s


def check_skew_leibniz(data: NicholsData, degree_pairs, letters=None) -> list:
    """Verify the skew-derivation rule on products of dual basis elements.

    In the pairing orientation used here the rule reads
        d_v(phi psi) = d_v(phi) psi + s^deg(phi) phi d_{v^g}(psi)
    with s the constant braiding coefficient and v^g the rack conjugate of the
    letter v by the group degree g of phi.  Returns a list of failure
    descriptions (empty when the rule holds on all sampled products).
    """
    from .braided import identity_perm, pmul, conj as gconj

    V = data.V
    F = data.F
    if V.rack is None or V.group is None:
        raise ValueError("needs a rack-type space with group provenance")
    s = constant_braiding_value(V)
    letters = list(range(V.rank)) if letters is None else letters
    idx_of = {g: i for i, g in enumerate(V.labels)}
    failures = []

    def mul(p1, cls1, p2, cls2):
        out = [F.zero] * data.dim(p1 + p2)
        for k1, c1 in enumerate(cls1):
            if c1 == 0:
                continue
            for k2, c2 in enumerate(cls2):
                if c2 == 0:
                    continue
                for i, val in enumerate(data.dual_product(p1, k1, p2, k2)):
                    out[i] = F.add(out[i], F.mul(F.mul(c1, c2), val))
        return out

    def apply(v, p, cls):
        D = skew_derivation(data, v, p)
        out = [F.zero] * data.dim(p - 1)
        for (i, j), val in D.entries.items():
            if cls[j] != 0:
                out[i] = F.add(out[i], F.mul(cls[j], val))
        return out

    for p1, p2 in degree_pairs:
        data.build_to(p1 + p2)
        for k1 in range(data.dim(p1)):
            w1 = data.pivot_words(p1)[k1]
            g = identity_perm(V.group.degree)
            for a in w1:
                g = pmul(g, V.labels[a])
            e1 = [F.one if i == k1 else F.zero for i in range(data.dim(p1))]
            for k2 in range(data.dim(p2)):
                e2 = [F.one if i == k2 else F.zero for i in range(data.dim(p2))]
                for v in letters:
                    lhs = apply(v, p1 + p2, data.dual_product(p1, k1, p2, k2))
                    t1 = mul(p1 - 1, apply(v, p1, e1), p2, e2)
                    vtw = idx_of[gconj(V.labels[v], g)]
                    scaled = [F.mul(F.convert(s**p1), x) for x in e1]
                    t2 = mul(p1, scaled, p2 - 1, apply(vtw, p2, e2))
                    rhs = [F.add(a, b) for a, b in zip(t1, t2)]
                    if lhs != rhs:
                        failures.append(f"(p1={p1}, k1={k1}, p2={p2}, k2={k2}, v={v})")
    return failures


def skew_derivation(data: NicholsData, v: int, p: int) -> SparseMatrix:
    """Matrix of the skew derivation by the basis letter v, dual degree p -> p-1.

    Columns are the dual pivot basis in degree p, rows in degree p-1; defined by
    <d_v phi, x> = <phi, v . x> through the transposed inverse Gram matrix.  The product
    v . x is the class of the concatenated word (v, x).
    """
    return skew_derivation_by_element(data, {(v,): 1}, p, 1)


def skew_derivation_by_element(data: NicholsData, z: dict, p: int, deg: int) -> SparseMatrix:
    """Skew derivation by a degree-`deg` algebra element z (a word vector), p -> p-deg."""
    F = data.F
    d = deg
    if z and len(next(iter(z))) != d:
        raise ValueError("element degree does not match deg")
    data.build_to(p)
    if not z:
        return SparseMatrix.zero(data.dim(p - d), data.dim(p))
    src = data.pivots[p]
    tgt = data.pivots[p - d]
    if not src or not tgt:
        return SparseMatrix.zero(data.dim(p - d), data.dim(p))
    place = data.V.rank ** (p - d)
    z_codes = [(word_index(zw, data.V.rank) * place, F.convert(cf)) for zw, cf in z.items()]
    rows = data._sym_rows[p]
    inv_t = data.gram_inv_t[p - d]
    cols = []
    for u in src:
        get = rows[u].get
        acc = {}
        for k, x in enumerate(tgt):
            s = 0
            for zc, cf in z_codes:
                a = get(zc + x)
                if a is not None:
                    s += a * cf
            acc[k] = s
        cols.append(inv_t.apply(F.reduced(acc), F))
    return SparseMatrix.from_columns(data.dim(p - d), cols)
