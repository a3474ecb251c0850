from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.braided import (check_braided, conj, dual_space, identity_perm, index_word, pmul, rank_one_space,
                              word_index)
from braidhom.exactla import GF, QQ, SparseMatrix, inverse, rank, rref
from braidhom.nichols import NicholsData, constant_braiding_value, hopf_pairing, nichols_dims, skew_derivation
from braidhom.shuffle import quantum_symmetrizer
from tests.oracles import pivot_columns
from tests.test_braided import jordan_plane, s3_transposition_space, s4_transposition_setup
from tests.test_fnf import small_rack_spaces

F2 = GF(2)
F5 = GF(5)
FIELDS = (QQ, F2, GF(3), F5)


# oracles ---------------------------------------------------------------------

class GramOracle:
    """B(V*) from the quantum symmetrizer of V and the Hopf pairing.

    Degree p of B(V) is the image of the symmetrizer [p]!, with basis its
    pivot words (`pivots`); the dual algebra has basis its pivot rows
    (`dual_pivots`, the same words on every rack space), the pairing of the
    dual word u* with a word w being the (u, w) entry of [p]!.  A derivation
    <d_z phi, x> = <phi, z . x> and the class of a dual vector are solved
    through the inverse of the Gram matrix ([p]! on the pivot rows and
    columns), which is invertible since both are bases.
    """

    def __init__(self, V, F, pmax):
        self.V, self.F = V, F
        self.rows, self.pivots, self.dual_pivots, self.gram_inv, self.gram_inv_t = {}, {}, {}, {}, {}
        for p in range(pmax + 1):
            S = quantum_symmetrizer(V, p)
            rows = self.rows[p] = [{} for _ in range(S.rows)]
            for (i, j), v in S.entries.items():
                if (fv := F.convert(v)) != 0:
                    rows[i][j] = fv
            piv = self.pivots[p] = pivot_columns(S, F)
            dual = self.dual_pivots[p] = pivot_columns(S.transpose(), F)
            pos = {w: k for k, w in enumerate(piv)}
            gram_t = SparseMatrix(len(piv), len(piv), {
                (pos[w], k): v for k, u in enumerate(dual) for w, v in rows[u].items() if w in pos})
            self.gram_inv_t[p] = inverse(gram_t, F)
            self.gram_inv[p] = self.gram_inv_t[p].transpose()

    def pair(self, p, u, vec):
        """<u*, vec> for a vector {word code: coefficient} of V^(x)p."""
        F = self.F
        s = F.zero
        for j, cf in vec.items():
            a = self.rows[p][u].get(j)
            if a is not None:
                s = F.add(s, F.mul(a, F.convert(cf)))
        return s

    def derivation(self, z, p, d):
        """Skew derivation by a degree-d word vector z, dual degree p -> p - d."""
        r = self.V.rank
        place = r ** (p - d)
        cols = []
        for u in self.dual_pivots[p]:
            rhs = {k: self.pair(p, u, {word_index(zw, r) * place + x: cf for zw, cf in z.items()})
                   for k, x in enumerate(self.pivots[p - d])}
            cols.append(self.gram_inv_t[p - d].apply(rhs, self.F))
        return SparseMatrix.from_columns(len(self.dual_pivots[p - d]), cols)

    def reduce_dual(self, p, vec):
        """The class of a dual word vector ({word: coefficient}) in the dual pivot basis."""
        F, r = self.F, self.V.rank
        rhs = {}
        for k, w in enumerate(self.pivots[p]):
            s = F.zero
            for u, cf in vec.items():
                s = F.add(s, F.mul(F.convert(cf), self.pair(p, word_index(u, r), {w: 1})))
            rhs[k] = s
        return self.gram_inv_t[p].apply(rhs, F)

    def reduce_primal(self, p, vec):
        """The class of a word vector of V^(x)p in the pivot basis of B(V)."""
        codes = {word_index(w, self.V.rank): cf for w, cf in vec.items()}
        rhs = {k: self.pair(p, u, codes) for k, u in enumerate(self.dual_pivots[p])}
        return self.gram_inv[p].apply(rhs, self.F)


class DualSymmetrizerOracle:
    """B(V*) as the column space of the quantum symmetrizer of V*.

    The basis of degree p is the pivot words of [p]!; the class of a word is
    its column of the reduced row echelon form.  Since
    [p]! = (1 (x) [p-1]!) (sum of the moves of one letter to the front), the
    image under [p-1]! of d_k w is the k-th block of the column of w, so d_k
    is solved against the pivot columns of [p-1]!.  No Gram matrix is
    involved, so this holds over every field.
    """

    def __init__(self, V, F, pmax):
        W = dual_space(V)
        self.r, self.F = V.rank, F
        self.cols, self.pivots, self.classes = {}, {}, {}
        for p in range(pmax + 1):
            S = quantum_symmetrizer(W, p)
            rows, self.pivots[p] = rref(S, F)
            self.classes[p] = [{} for _ in range(S.cols)]
            for i, row in enumerate(rows):
                for c, v in row.items():
                    self.classes[p][c][i] = v
            self.cols[p] = S.columns()

    def right_product(self, j, p):
        """R_j from degree p to p + 1."""
        return SparseMatrix.from_columns(len(self.pivots[p + 1]),
                                         [self.classes[p + 1][u * self.r + j] for u in self.pivots[p]])

    def derivation(self, k, p):
        """d_k from degree p to p - 1."""
        place = self.r ** (p - 1)
        basis = [self.cols[p - 1][w] for w in self.pivots[p - 1]]
        blocks = [{w - k * place: v for w, v in self.cols[p][u].items() if w // place == k}
                  for u in self.pivots[p]]
        rows, piv = rref(SparseMatrix.from_columns(place, basis + blocks), self.F)
        m = len(basis)
        assert piv == list(range(m))  # every block lies in the image of [p-1]!
        return SparseMatrix.from_columns(m, [{i: row[m + t] for i, row in enumerate(rows) if m + t in row}
                                             for t in range(len(blocks))])


def symmetrizer_vanishes(V, p, F):
    return not any(F.convert(v) for v in quantum_symmetrizer(V, p).entries.values())


def right_product(data, j, p):
    return SparseMatrix.from_columns(data.dim(p + 1), data.right_products[p][j])


def dual_class(data, p, vec):
    """The class of a dual word vector ({word: coefficient}) in degree p."""
    F = data.F
    acc = {}
    for w, cf in vec.items():
        for i, v in data.word_class(p, word_index(w, data.V.rank)).items():
            acc[i] = F.add(acc.get(i, F.zero), F.mul(F.convert(cf), v))
    return {i: v for i, v in acc.items() if v != 0}


def check_skew_leibniz(data, degree_pairs, letters=None, s=None) -> list:
    """Verify the skew-derivation rule on products of dual basis elements.

    In the pairing orientation used here the rule reads
        d_v(phi psi) = d_v(phi) psi + s^deg(phi) phi d_{v^g}(psi)
    with s the constant braiding coefficient (by default) and v^g the rack
    conjugate of the letter v by the group degree g of phi.  Returns a list of
    failure descriptions (empty when the rule holds on all sampled products).
    """
    V, F = data.V, data.F
    s = constant_braiding_value(V) if s is None else s
    letters = list(range(V.rank)) if letters is None else letters
    idx_of = {g: i for i, g in enumerate(V.labels)}
    failures = []

    def product(p1, cls1, p2, cls2):
        out = {}
        for k1, c1 in cls1.items():
            for k2, c2 in cls2.items():
                w = data.pivots[p1][k1] * V.rank**p2 + data.pivots[p2][k2]
                for i, v in data.word_class(p1 + p2, w).items():
                    out[i] = F.add(out.get(i, F.zero), F.mul(F.mul(c1, c2), v))
        return {i: v for i, v in out.items() if v != 0}

    def d(v, p, cls):
        return skew_derivation(data, v, p).apply(cls, F)

    for p1, p2 in degree_pairs:
        data.build_to(p1 + p2)
        for k1, w1 in enumerate(data.pivot_words(p1)):
            g = identity_perm(V.group.degree)
            for a in w1:
                g = pmul(g, V.labels[a])
            for k2 in range(data.dim(p2)):
                for v in letters:
                    lhs = d(v, p1 + p2, product(p1, {k1: F.one}, p2, {k2: F.one}))
                    t1 = product(p1 - 1, d(v, p1, {k1: F.one}), p2, {k2: F.one})
                    vtw = idx_of[conj(V.labels[v], g)]
                    t2 = product(p1, {k1: F.convert(s**p1)}, p2 - 1, d(vtw, p2, {k2: F.one}))
                    rhs = {i: F.add(t1.get(i, F.zero), t2.get(i, F.zero)) for i in {*t1, *t2}}
                    if lhs != {i: x for i, x in rhs.items() if x != 0}:
                        failures.append(f"(p1={p1}, k1={k1}, p2={p2}, k2={k2}, v={v})")
    return failures


# dimensions ------------------------------------------------------------------

def test_dims_start_with_rank():
    V = s3_transposition_space(epsilon=True)
    dims, _ = nichols_dims(V, 2, QQ)
    assert dims[0] == 1 and dims[1] == 3


def test_eps_dims():
    dims, stable = nichols_dims(rank_one_space(-1), 5, QQ)
    assert dims == [1, 1, 0, 0, 0, 0] and stable


def test_s3_twisted_dims():
    V = s3_transposition_space(epsilon=True)
    dims, stable = nichols_dims(V, 6, QQ)
    assert dims == [1, 3, 4, 3, 1, 0, 0]
    assert stable
    assert sum(dims) == 12


def test_one_zero_degree_is_stably_zero():
    # B is generated in degree 1, so the first zero degree ends it: S3 eps
    # within n <= 5 ends 1, 0 and is stably zero
    V = s3_transposition_space(epsilon=True)
    dims, stable = nichols_dims(V, 5, QQ)
    assert dims == [1, 3, 4, 3, 1, 0] and stable
    assert nichols_dims(V, 4, QQ) == ([1, 3, 4, 3, 1], False)


def test_quantum_line_root_of_unity_f5():
    # sigma = -2 = 3 mod 5 has multiplicative order 4: x^4 = 0, x^3 != 0
    line = rank_one_space(-2)
    dims, stable = nichols_dims(line, 6, F5)
    assert dims == [1, 1, 1, 1, 0, 0, 0] and stable
    # the quantum integers witness the cutoff: [3] = 3, [4] = 0 mod 5
    from braidhom.shuffle import quantum_binomial

    assert quantum_binomial(3, 1, 3, F5) == 3
    assert quantum_binomial(4, 1, 3, F5) == 0


def series_product(factors):
    """Coefficients of a product of polynomials, each given by its coefficients."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def s5_transposition_space():
    from braidhom.braided import Cocycle, braided_space
    from braidhom.cli import builtin_group, class_selector

    G = builtin_group("S5")
    c = class_selector(G, "transpositions")
    return braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)


@pytest.mark.parametrize("F", [QQ, GF(7)])
def test_s5_transposition_dims_match_the_known_series(F):
    # the Nichols algebra of S5 transpositions with the sign cocycle has
    # Hilbert series [4]_t^4 [5]_t^2 [6]_t^4 (Milinski-Schneider; Grana,
    # Contemp. Math. 267, 2000), dimension 8294400 and top degree 40
    quantum = {k: [1] * k for k in (4, 5, 6)}
    series = series_product([quantum[4]] * 4 + [quantum[5]] * 2 + [quantum[6]] * 4)
    assert sum(series) == 8294400 and len(series) == 41
    assert series[:6] == [1, 10, 55, 220, 711, 1960]
    assert nichols_dims(s5_transposition_space(), 5, F) == (series[:6], False)


def finite_nichols_cases():
    """(space, field) pairs whose Nichols algebras end within 15 degrees:
    rank one with sigma = q over F_p (ending by degree p - 1), S3 eps (by 4)
    and S4 eps (FK_4, dimension 576, by 12) over Q and F_5, and sigma = -1
    over Q."""
    lines = st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda p: st.tuples(st.integers(1, p - 1).map(rank_one_space), st.just(GF(p))))
    groups = st.tuples(st.sampled_from([partial(s3_transposition_space, epsilon=True),
                                        lambda: s4_transposition_setup()[2]]).map(lambda build: build()),
                       st.sampled_from([QQ, F5]))
    return st.one_of(lines, groups, st.just((rank_one_space(-1), QQ)))


@settings(max_examples=30, deadline=None)
@given(finite_nichols_cases())
def test_finite_nichols_algebras_have_palindromic_series(case):
    # Poincare duality for finite-dimensional Nichols algebras
    # (Andruskiewitsch-Grana 1999): every algebra that ends within range has
    # dims[n] == dims[top - n]
    V, F = case
    dims, stable = nichols_dims(V, 15, F)
    assert stable
    top = max(n for n, d in enumerate(dims) if d)
    assert dims[:top + 1] == dims[top::-1], dims


def test_jordan_plane_dims():
    # Hilbert series 1/(1-t)^2 over Q; over F_p with p odd the algebra has
    # dimension p^2, with Hilbert series ((1-t^p)/(1-t))^2, and over F_2 it
    # has dimension 16 (Cibils-Lauve-Witherspoon)
    J = jordan_plane()
    assert nichols_dims(J, 5, QQ)[0] == [1, 2, 3, 4, 5, 6]
    assert nichols_dims(J, 5, GF(3))[0] == [1, 2, 3, 2, 1, 0]
    assert nichols_dims(J, 5, F5)[0] == [1, 2, 3, 4, 5, 4]
    dims, stable = nichols_dims(J, 7, F2)
    assert dims == [1, 2, 3, 4, 3, 2, 1, 0] and stable
    assert dims == [rank(quantum_symmetrizer(J, p), F2) for p in range(8)]
    assert sum(dims) == 16


def test_rank_nullity_degree_two():
    for V in (s3_transposition_space(), s3_transposition_space(epsilon=True)):
        d2 = rank(quantum_symmetrizer(V, 2), QQ)
        ker = V.rank**2 - d2
        assert d2 + ker == V.rank**2


def test_dual_braid_equation_reverified():
    V = s3_transposition_space(epsilon=True)
    assert check_braided(dual_space(V)).ok


# pairing and derivations -----------------------------------------------------

def test_hopf_pairing_degree_zero_one():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    assert hopf_pairing({(): 1}, {(): 1}, V, QQ, data) == 1
    for i in range(3):
        for j in range(3):
            got = hopf_pairing({(i,): 1}, {(j,): 1}, V, QQ, data)
            assert got == (1 if i == j else 0)


def test_hopf_pairing_length_mismatch_and_kernel():
    eps = rank_one_space(-1)
    assert hopf_pairing({(0,): 1}, {(0, 0): 1}, eps, QQ) == 0
    assert hopf_pairing({(0, 0): 1}, {(0, 0): 1}, eps, QQ) == 0  # symmetrizer vanishes


@pytest.mark.parametrize("F", [QQ, F5])
def test_hopf_pairing_is_the_symmetrizer(F):
    # <w, u*> read off the derivations is the (u, w) entry of [p]! on V
    for V, pmax in ((s3_transposition_space(epsilon=True), 3), (jordan_plane(), 4)):
        data = NicholsData(V, F)
        r = V.rank
        for p in range(pmax + 1):
            S = quantum_symmetrizer(V, p)
            words = [index_word(c, r, p) for c in range(r**p)]
            for u in range(r**p):
                for w in range(r**p):
                    got = hopf_pairing({words[w]: 1}, {words[u]: 1}, V, F, data)
                    assert got == F.convert(S.entries.get((u, w), 0)), (p, u, w)


def test_derivation_degree_one_is_delta():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    for v in range(3):
        D = skew_derivation(data, v, 1)
        assert D.entries == {(0, v): QQ.one}


def test_derivation_kills_unit():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    # degree 0 has no degree -1 target; the defining property makes d_v(1) = 0,
    # visible as the derivation into degree 0 paired against nothing
    D = skew_derivation(data, 0, 1)
    assert D.cols == 3 and D.rows == 1


def test_composite_rule_matrix_identity():
    # d_v d_w is the derivation by the word (w, v): <phi, w v x> = <d_v d_w phi, x>
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    data.build_to(4)
    oracle = GramOracle(V, QQ, 4)
    for p in (2, 3, 4):
        for v in range(3):
            for w in range(3):
                lhs = skew_derivation(data, v, p - 1).matmul(skew_derivation(data, w, p), QQ)
                rhs = oracle.derivation({(w, v): 1}, p, 2)
                assert lhs == rhs, (p, v, w)


def test_skew_leibniz_through_degree_four():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    fails = check_skew_leibniz(data, [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
    assert fails == []


def test_skew_leibniz_untwisted():
    V = s3_transposition_space()
    data = NicholsData(V, QQ)
    assert check_skew_leibniz(data, [(1, 1), (1, 2), (2, 1)]) == []


def test_skew_leibniz_sign_is_necessary():
    # flipping the braiding constant in the rule must break it
    V = s3_transposition_space(epsilon=True)
    assert constant_braiding_value(V) == -1
    data = NicholsData(V, QQ)
    fails = check_skew_leibniz(data, [(1, 1)])
    assert fails == []
    bad = check_skew_leibniz(data, [(1, 1)], s=1)
    assert bad


def test_derivations_over_f2():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, F2)
    dims, _ = nichols_dims(V, 5, F2, data=data)
    assert dims[0] == 1 and dims[1] == 3
    D = skew_derivation(data, 1, 2)
    assert D.rows == 3 and D.cols == dims[2]


def test_pairing_gram_invertible_everywhere():
    # each pivot word reduces to its unit vector on both sides of the oracle
    # and in the recursion; the degree-2 Gram matrices are not symmetric, so
    # swapping the inverse Gram matrix and its transpose breaks one of the
    # two oracle reductions
    for F in (QQ, F5):
        for V in (s3_transposition_space(), s3_transposition_space(epsilon=True)):
            data = NicholsData(V, F)
            data.build_to(4)
            oracle = GramOracle(V, F, 4)
            assert oracle.gram_inv[2] != oracle.gram_inv_t[2]
            for p in range(5):
                n = len(data.pivots[p])
                assert n == data.dim(p) and data.pivots[p] == oracle.pivots[p] == oracle.dual_pivots[p]
                for k, w in enumerate(data.pivot_words(p)):
                    assert data.word_class(p, word_index(w, V.rank)) == {k: F.one}
                    assert oracle.reduce_primal(p, {w: 1}) == {k: F.one}
                    assert oracle.reduce_dual(p, {w: 1}) == {k: F.one}


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_rack_spaces().map(lambda space: space[0]),
                 st.builds(jordan_plane),
                 st.sampled_from([rank_one_space(-2), rank_one_space(-1)])),
       st.sampled_from(FIELDS))
def test_stepwise_degrees_match_symmetrizer(V, F):
    # each degree is one derivation matrix from the one below; up to degree 6
    # (fewer for larger ranks, where the oracle's symmetrizer grows as r^p) its
    # dimension is the rank of the symmetrizer of V, its basis words are the
    # pivot columns of the symmetrizer of V*, its derivations and right
    # products are the oracle's, and the early-exit vanishing test agrees
    # with the whole symmetrizer one degree further up
    pmax = max(p for p in range(1, 7) if V.rank**p <= 243)
    data = NicholsData(V, F)
    data.build_to(pmax)
    oracle = DualSymmetrizerOracle(V, F, pmax)
    for p in range(pmax + 1):
        assert data.dim(p) == rank(quantum_symmetrizer(V, p), F), p
        assert data.pivots[p] == oracle.pivots[p] == pivot_columns(quantum_symmetrizer(dual_space(V), p), F), p
    for p in range(1, pmax + 1):
        for k in range(V.rank):
            assert skew_derivation(data, k, p) == oracle.derivation(k, p), (p, k)
            assert right_product(data, k, p - 1) == oracle.right_product(k, p - 1), (p, k)
    for p in range(1, pmax + 2):
        assert NicholsData(V, F).vanishes(p) == symmetrizer_vanishes(V, p, F), p
    assert sorted(data.pivots) == list(range(pmax + 1))


def count_columns(monkeypatch):
    """Record (degree, position) of every derivation-matrix column generated."""
    calls = []
    real = NicholsData._phi_columns

    def counted(self, p):
        for t, col in enumerate(real(self, p)):
            calls.append((p, t))
            yield col

    monkeypatch.setattr(NicholsData, "_phi_columns", counted)
    return calls


def test_vanishing_test_sweeps_a_zero_degree(monkeypatch):
    # B(V) for S3 transpositions with the sign twist ends in degree 4: the
    # test of degree 5 finds no nonzero column, so it sweeps all 3 * dim B_4
    # of them, where the symmetrizer of degree 5 has 3^5
    V = s3_transposition_space(epsilon=True)
    for F in FIELDS:
        data = NicholsData(V, F)
        calls = count_columns(monkeypatch)
        assert data.vanishes(5) and symmetrizer_vanishes(V, 5, F)
        assert [t for p, t in calls if p == 5] == list(range(3 * data.dim(4))) == [0, 1, 2]
        assert sorted(data.pivots) == [0, 1, 2, 3, 4]
        # a built degree answers from its dimension
        n = len(calls)
        assert not data.vanishes(4) and len(calls) == n


def test_vanishing_test_stops_at_first_nonzero_column(monkeypatch):
    # the Fomin-Kirillov algebra of S4 is nonzero in degree 4; the test
    # generates the columns u . x_j of its derivation matrix only up to the
    # first nonzero one, the first whose word the symmetrizer of V* does not
    # kill
    _, _, V = s4_transposition_setup()
    S = quantum_symmetrizer(dual_space(V), 4)
    for F in (QQ, F5):
        data = NicholsData(V, F)
        data.build_to(3)
        alive = {j for (_, j), v in S.entries.items() if F.convert(v)}
        words = [u * 6 + j for u in data.pivots[3] for j in range(6)]
        first = min(t for t, w in enumerate(words) if w in alive)
        assert first < len(words) // 10
        calls = count_columns(monkeypatch)
        assert not data.vanishes(4)
        assert calls == [(4, t) for t in range(first + 1)]
        assert sorted(data.pivots) == [0, 1, 2, 3]


@pytest.mark.parametrize("space, pmax", [
    (lambda: s3_transposition_space(epsilon=True), 4),
    (lambda: s4_transposition_setup()[2], 3),
    (jordan_plane, 4),
])
@pytest.mark.parametrize("F", [QQ, F5])
def test_direct_row_reads_match_pairing_oracle(space, pmax, F):
    # the recursion on B(V*) reproduces the Gram-matrix data on the pivot
    # rows of the symmetrizer of V: derivations by letters and by a degree-2
    # element, classes of dual vectors, dual products and right products.  On
    # a rack space the pivot rows are the pivot columns, the basis words the
    # symmetrizer gave B(V*) before; the Jordan plane's differ in degree 2
    V = space()
    data = NicholsData(V, F)
    data.build_to(pmax)
    oracle = GramOracle(V, F, pmax)
    letters = range(V.rank)
    z2 = {(0, 1): 1, (1, 0): -2, (1, 1): 3}
    for p in range(pmax + 1):
        assert data.pivots[p] == oracle.dual_pivots[p], p
        assert (oracle.pivots[p] == oracle.dual_pivots[p]) == (V.rack is not None or p < 2), p
    for p in range(1, pmax + 1):
        for v in letters:
            assert skew_derivation(data, v, p) == oracle.derivation({(v,): 1}, p, 1), (p, v)
        if p >= 2:
            by_z2 = SparseMatrix.zero(data.dim(p - 2), data.dim(p))
            for (a, b), cf in z2.items():
                by_z2 = by_z2.add(skew_derivation(data, b, p - 1).matmul(skew_derivation(data, a, p), F)
                                  .scale(cf), F)
            assert by_z2 == oracle.derivation(z2, p, 2), p
        words = data.pivot_words(p)
        vec = {w: (-1) ** i * (i + 2) for i, w in enumerate(words[:5])}
        vec[(V.rank - 1,) * p] = 7  # a word that need not be a pivot
        assert dual_class(data, p, vec) == oracle.reduce_dual(p, vec), p
    for p in range(pmax):
        for g in letters:
            cols = [oracle.reduce_dual(p + 1, {u + (g,): 1}) for u in data.pivot_words(p)]
            assert right_product(data, g, p) == SparseMatrix.from_columns(data.dim(p + 1), cols), (p, g)
    for p1 in range(1, pmax):
        p2 = pmax - p1
        for w1 in data.pivot_words(p1)[:4]:
            for w2 in data.pivot_words(p2)[:4]:
                assert dual_class(data, pmax, {w1 + w2: 1}) == oracle.reduce_dual(pmax, {w1 + w2: 1})
