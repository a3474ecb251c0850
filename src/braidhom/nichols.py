"""Degreewise Nichols algebra data: bases, skew derivations and right products.

The algebra built is B(V*), the Nichols algebra of the dual braided space
(`braided.dual_space`), whose degrees are the dual factors of the Koszul
complexes.  It is built by the Nichols-Woronowicz derivation criterion
(Andruskiewitsch-Schneider, *Pointed Hopf algebras*, 2002): an element of
degree p >= 1 vanishes exactly when all its left skew derivations d_k vanish
in degree p - 1.  Degree p is spanned by the right products u . x_j of a
basis word u of degree p - 1 with a letter x_j, so it is the column space of
one matrix Phi_p: column u . x_j (at position t r + j, for u the t-th basis
word) holds in its k-th row block the derivation

    d_k(u . x_j) = d_k(u) . x_j + (k-th component of c(u (x) x_j)),

where c carries x_j across u to the front (`braided.apply_moves_to_vector`
with moves p-1, ..., 1), and each rest word is reduced into degree p - 1 by
right products letter by letter (`NicholsData.word_class`).  For a rack space
the braiding term is a single word; in general it is a vector.  Nothing of
size r^p is built: Phi_p is (r dim B_{p-1}) square.

One `exactla.rref` of Phi_p gives the whole degree: its pivot columns are the
basis words (leftmost pivots, the standard words of the symmetrizer order,
since standard words are prefix-closed), the rref coordinates of column
u . x_j are the right product R_j: B_{p-1} -> B_p on u, and the blocks of
Phi_p at the pivot columns are the derivations d_k: B_p -> B_{p-1}.  Under the
Hopf pairing with B(V), d_k is the transpose of left multiplication by x_k,
<d_k phi, x> = <phi, x_k . x>, and R_j that of the right skew derivation by x_j:
what the Koszul differential and its nullhomotopy need.
`NicholsData.vanishes` generates the columns of Phi_p in order and stops at
the first nonzero one, so testing whether the algebra ends at degree p builds
only degree p - 1.
"""

from __future__ import annotations

from .braided import BraidedVectorSpace, apply_moves_to_vector, dual_space, index_word, word_index
from .exactla import CoefficientField, SparseMatrix, rref


class NicholsData:
    """Per-degree bases, skew derivations and right products of B(V*) over F.

    `pivots[p]` lists the basis words of degree p as base-r word codes;
    `derivations[p][k]` holds the columns (one {row: scalar} dict per basis
    element) of d_k from degree p to p - 1, and `right_products[p][j]` those of
    R_j from degree p to p + 1.  Built degree by degree; immutable once a
    degree is built.
    """

    def __init__(self, V: BraidedVectorSpace, F: CoefficientField):
        self.V = V
        self.F = F
        self.dual = dual_space(V)
        self.pivots: dict[int, list[int]] = {0: [0]}
        self.derivations: dict[int, list[list[dict]]] = {}
        self.right_products: dict[int, list[list[dict]]] = {}
        self._classes: dict[int, dict[int, dict]] = {0: {0: {0: F.one}}}  # p -> {word code: class}
        self._built = 0

    def build_to(self, p: int):
        for d in range(self._built + 1, p + 1):
            self._build_degree(d)
        self._built = max(self._built, p)

    def _phi_columns(self, p: int):
        """The columns of Phi_p in order, each reduced over F."""
        F, r = self.F, self.V.rank
        n = len(self.pivots[p - 1])
        moves = list(range(p - 1, 0, -1))
        place = r ** (p - 1)
        derivs = self.derivations.get(p - 1)  # none out of degree 0
        right = self.right_products.get(p - 2)
        for t, u in enumerate(self.pivots[p - 1]):
            for j in range(r):
                acc = {}
                if derivs:
                    rj = right[j]
                    for k in range(r):
                        base = k * n
                        for s, a in derivs[k][t].items():
                            for i, b in rj[s].items():
                                acc[base + i] = acc.get(base + i, 0) + a * b
                for code, cf in apply_moves_to_vector(self.dual, p, moves, {u * r + j: 1}).items():
                    k, rest = divmod(code, place)
                    base, c = k * n, F.convert(cf)
                    for i, b in self.word_class(p - 1, rest).items():
                        acc[base + i] = acc.get(base + i, 0) + c * b
                yield F.reduced(acc)

    def _build_degree(self, p: int):
        r = self.V.rank
        prev = self.pivots[p - 1]
        n = len(prev)
        phi = list(self._phi_columns(p))
        rows, cols = rref(SparseMatrix._trusted(r * n, phi), self.F)
        self.pivots[p] = [prev[c // r] * r + c % r for c in cols]
        right = [[{} for _ in range(n)] for _ in range(r)]
        for i, row in enumerate(rows):
            for c, v in row.items():
                right[c % r][c // r][i] = v
        self.right_products[p - 1] = right
        derivs = [[{} for _ in cols] for _ in range(r)]
        for i, c in enumerate(cols):
            for row, v in phi[c].items():
                k, s = divmod(row, n)
                derivs[k][i][s] = v
        self.derivations[p] = derivs

    def word_class(self, p: int, code: int) -> dict:
        """The class in degree p (built) of the word of (V*)^(x)p with the given
        code, as {basis index: scalar}: the empty word's class multiplied on the
        right by its letters one at a time.  Kept per degree."""
        cache = self._classes.setdefault(p, {})
        cls = cache.get(code)
        if cls is None:
            head, j = divmod(code, self.V.rank)
            acc = {}
            for s, a in self.word_class(p - 1, head).items():
                for i, b in self.right_products[p - 1][j][s].items():
                    acc[i] = acc.get(i, 0) + a * b
            cls = cache[code] = self.F.reduced(acc)
        return cls

    def vanishes(self, p: int) -> bool:
        """Whether degree p of the algebra is zero over F.

        A built degree answers from its dimension.  Otherwise degree p - 1 is
        built and the columns of Phi_p are generated in order until the first
        nonzero one; only a zero degree sweeps them all.  Degree p itself is
        not built.
        """
        if p <= self._built:
            return self.dim(p) == 0
        self.build_to(p - 1)
        return not any(self._phi_columns(p))

    def dim(self, p: int) -> int:
        self.build_to(p)
        return len(self.pivots[p])

    def pivot_words(self, p: int) -> list[tuple[int, ...]]:
        self.build_to(p)
        return [index_word(i, self.V.rank, p) for i in self.pivots[p]]


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
    """Hilbert coefficients dim B(V)_n, n <= Nmax (those of B(V*) are the same).

    Returns (dims, stably_zero) where stably_zero flags a zero degree within
    range: everything above it is then zero, since the algebra is generated in
    degree 1 (B_(n+1) = B_n . V), so no higher degree is built.
    """
    data = data or NicholsData(V, F)
    dims = []
    stably_zero = False
    for n in range(Nmax + 1):
        dims.append(data.dim(n))
        if dims[-1] == 0:
            stably_zero = True
            dims.extend([0] * (Nmax - n))
            break
    return dims, stably_zero


def hopf_pairing(u: dict, phi: dict, V: BraidedVectorSpace, F: CoefficientField,
                 data: NicholsData | None = None):
    """<u, phi> for a word vector u in V^(x)m and a dual word vector phi in (V*)^(x)n.

    Zero when m != n.  Read off the derivations: <phi, x_a . x> = <d_a phi, x>,
    so a word a_1 ... a_n pairs with phi as d_{a_n} ... d_{a_1} applied to the
    class of phi.  Equals the corresponding entry of the quantum symmetrizer
    of V (row phi, column u) on words.
    """
    if not u or not phi:
        return F.zero
    m = len(next(iter(u)))
    n = len(next(iter(phi)))
    if m != n:
        return F.zero
    data = data or NicholsData(V, F)
    data.build_to(n)
    cls = {}
    for w, cf in phi.items():
        c = F.convert(cf)
        for i, b in data.word_class(n, word_index(w, V.rank)).items():
            cls[i] = cls.get(i, 0) + c * b
    s = F.zero
    for w, cf in u.items():
        vec = F.reduced(cls)
        for p, a in zip(range(n, 0, -1), w):
            vec = skew_derivation(data, a, p).apply(vec, F)
        s = F.add(s, F.mul(F.convert(cf), vec.get(0, F.zero)))
    return s


def skew_derivation(data: NicholsData, v: int, p: int) -> SparseMatrix:
    """Matrix of the skew derivation d_v on B(V*), degree p -> p - 1.

    Columns are the basis of degree p, rows that of degree p - 1;
    <d_v phi, x> = <phi, v . x> under the Hopf pairing.
    """
    data.build_to(p)
    return SparseMatrix._trusted(data.dim(p - 1), data.derivations[p][v])
