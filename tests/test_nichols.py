import pytest
from hypothesis import given, settings, strategies as st

from braidhom import nichols
from braidhom.braided import check_braided, dual_space, rank_one_space, word_index
from braidhom.exactla import GF, QQ, SparseMatrix, rank
from braidhom.nichols import (
    GramSingularError,
    NicholsData,
    check_skew_leibniz,
    constant_braiding_value,
    hopf_pairing,
    nichols_dims,
    skew_derivation,
    skew_derivation_by_element,
)
from braidhom.shuffle import quantum_symmetrizer
from tests.test_braided import jordan_plane, s3_transposition_space, s4_transposition_setup
from tests.test_fnf import small_rack_spaces

F2 = GF(2)
F5 = GF(5)


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


def test_quantum_line_root_of_unity_f5():
    # sigma = -2 = 3 mod 5 has multiplicative order 4: x^4 = 0, x^3 != 0
    line = rank_one_space(-2)
    dims, stable = nichols_dims(line, 6, F5)
    assert dims == [1, 1, 1, 1, 0, 0, 0] and stable
    # the quantum integers witness the cutoff: [3] = 3, [4] = 0 mod 5
    from braidhom.shuffle import quantum_binomial

    assert quantum_binomial(3, 1, 3, F5) == 3
    assert quantum_binomial(4, 1, 3, F5) == 0


def test_jordan_plane_dims():
    # Hilbert series 1/(1-t)^2 over Q; over F_p the algebra has dimension p^2,
    # with Hilbert series ((1-t^p)/(1-t))^2
    J = jordan_plane()
    assert nichols_dims(J, 5, QQ)[0] == [1, 2, 3, 4, 5, 6]
    assert nichols_dims(J, 5, GF(3))[0] == [1, 2, 3, 2, 1, 0]
    assert nichols_dims(J, 5, F5)[0] == [1, 2, 3, 4, 5, 4]
    with pytest.raises(GramSingularError):
        NicholsData(J, F2).build_to(2)


def test_rank_nullity_degree_two():
    for V in (s3_transposition_space(), s3_transposition_space(epsilon=True)):
        d2 = rank(quantum_symmetrizer(V, 2), QQ)
        ker = V.rank**2 - d2
        assert d2 + ker == V.rank**2


def test_dual_braid_equation_reverified():
    V = s3_transposition_space(epsilon=True)
    assert check_braided(dual_space(V)).ok


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
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, QQ)
    data.build_to(4)
    for p in (2, 3, 4):
        for v in range(3):
            for w in range(3):
                lhs = skew_derivation(data, v, p - 1).matmul(skew_derivation(data, w, p), QQ)
                rhs = skew_derivation_by_element(data, {(w, v): 1}, p, 2)
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
    # recompute by hand with the wrong sign: reuse internals via a tampered value
    import braidhom.nichols as nich

    orig = nich.constant_braiding_value
    try:
        nich.constant_braiding_value = lambda _V: 1
        bad = nich.check_skew_leibniz(data, [(1, 1)])
    finally:
        nich.constant_braiding_value = orig
    assert bad


def test_derivations_over_f2():
    V = s3_transposition_space(epsilon=True)
    data = NicholsData(V, F2)
    dims, _ = nichols_dims(V, 5, F2, data=data)
    assert dims[0] == 1 and dims[1] == 3
    D = skew_derivation(data, 1, 2)
    assert D.rows == 3 and D.cols == dims[2]


def test_pairing_gram_invertible_everywhere():
    # each pivot word reduces to its unit vector on both sides; the degree-2
    # Gram matrices are not symmetric, so swapping the inverse Gram matrix and
    # its transpose breaks one of the two reductions
    for F in (QQ, F5):
        for V in (s3_transposition_space(), s3_transposition_space(epsilon=True)):
            data = NicholsData(V, F)
            data.build_to(4)
            assert data.gram_inv[2] != data.gram_inv_t[2]
            for p in range(5):
                n = len(data.pivots[p])
                assert n == data.dim(p)
                for k, w in enumerate(data.pivot_words(p)):
                    e_k = [F.one if i == k else F.zero for i in range(n)]
                    assert data.reduce_primal(p, {w: 1}) == e_k
                    assert data.reduce_dual(p, {w: 1}) == e_k


FIELDS = (QQ, F2, GF(3), F5)


def symmetrizer_vanishes(V, p, F):
    return not any(F.convert(v) for v in quantum_symmetrizer(V, p).entries.values())


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_rack_spaces(),
                 st.tuples(st.builds(jordan_plane), st.integers(1, 4)),
                 st.tuples(st.sampled_from([rank_one_space(-2), rank_one_space(-1)]), st.integers(1, 6))),
       st.sampled_from(FIELDS))
def test_stepwise_degrees_match_symmetrizer(space, F):
    # each degree is one Woronowicz step from the one below; its rows over F
    # are those of the symmetrizer built from degree 1, and the early-exit
    # vanishing test agrees with the whole symmetrizer one degree further up
    V, n = space
    data = NicholsData(V, F)
    try:
        data.build_to(n)
    except GramSingularError:
        # the Jordan plane over F_2 has a singular degree-2 Gram matrix
        assert V.name == "jordan" and F is F2
        return
    for p in range(n + 1):
        assert data._sym_rows[p] == quantum_symmetrizer(V, p).row_lists(F), p
        assert data.vanishes(p) == symmetrizer_vanishes(V, p, F), p
    assert data.vanishes(n + 1) == symmetrizer_vanishes(V, n + 1, F)
    assert sorted(data.pivots) == list(range(n + 1))


def count_columns(monkeypatch):
    calls = []
    real = nichols.symmetrizer_column

    def counted(V, m, prev, idx):
        calls.append(idx)
        return real(V, m, prev, idx)

    monkeypatch.setattr(nichols, "symmetrizer_column", counted)
    return calls


def test_vanishing_test_sweeps_a_zero_degree(monkeypatch):
    # B(V) for S3 transpositions with the sign twist ends in degree 4: the
    # test of degree 5 finds no nonzero column, so it sweeps all 3^5 of them
    V = s3_transposition_space(epsilon=True)
    for F in FIELDS:
        data = NicholsData(V, F)
        calls = count_columns(monkeypatch)
        assert data.vanishes(5) and symmetrizer_vanishes(V, 5, F)
        assert calls == list(range(3**5))
        assert sorted(data.pivots) == [0, 1, 2, 3, 4]
        # a built degree answers from its dimension
        assert not data.vanishes(4) and len(calls) == 3**5


def test_vanishing_test_stops_at_first_nonzero_column(monkeypatch):
    # the Fomin-Kirillov algebra of S4 is nonzero in degree 4; the test sweeps
    # the columns of its symmetrizer only up to the first nonzero one
    _, _, V = s4_transposition_setup()
    S = quantum_symmetrizer(V, 4)
    for F in (QQ, F5):
        first = min(j for (_, j), v in S.entries.items() if F.convert(v))
        assert first < 6**4 // 10
        data = NicholsData(V, F)
        data.build_to(3)
        calls = count_columns(monkeypatch)
        assert not data.vanishes(4)
        assert calls == list(range(first + 1))
        assert sorted(data.pivots) == [0, 1, 2, 3]


def derivation_by_pairing(data, z, p, d):
    """Skew derivation by z, each Gram right-hand side entry one `pair_dual_with_vector` call."""
    r = data.V.rank
    place = r ** (p - d)
    cols = []
    for u in data.pivots[p]:
        rhs = {k: data.pair_dual_with_vector(p, u, {word_index(zw, r) * place + x: cf for zw, cf in z.items()})
               for k, x in enumerate(data.pivots[p - d])}
        cols.append(data.gram_inv_t[p - d].apply(rhs, data.F))
    return SparseMatrix.from_columns(data.dim(p - d), cols)


def reduce_dual_by_pairing(data, p, vec):
    """`reduce_dual` with <phi, w> summed from one `pair_dual_with_vector` call per pair."""
    F = data.F
    r = data.V.rank
    rhs = {}
    for k, w in enumerate(data.pivots[p]):
        s = F.zero
        for u, cf in vec.items():
            s = F.add(s, F.mul(F.convert(cf), data.pair_dual_with_vector(p, word_index(u, r), {w: 1})))
        rhs[k] = s
    sol = data.gram_inv_t[p].apply(rhs, F)
    return [sol.get(k, F.zero) for k in range(data.dim(p))]


@pytest.mark.parametrize("space, pmax", [
    (lambda: s3_transposition_space(epsilon=True), 4),
    (lambda: s4_transposition_setup()[2], 3),
    (jordan_plane, 4),
])
@pytest.mark.parametrize("F", [QQ, F5])
def test_direct_row_reads_match_pairing_oracle(space, pmax, F):
    V = space()
    data = NicholsData(V, F)
    data.build_to(pmax)
    letters = range(V.rank)
    z2 = {(0, 1): 1, (1, 0): -2, (1, 1): 3}
    for p in range(1, pmax + 1):
        for v in letters:
            assert skew_derivation(data, v, p) == derivation_by_pairing(data, {(v,): 1}, p, 1), (p, v)
        if p >= 2:
            assert skew_derivation_by_element(data, z2, p, 2) == derivation_by_pairing(data, z2, p, 2), p
        words = data.pivot_words(p)
        vec = {w: (-1) ** i * (i + 2) for i, w in enumerate(words[:5])}
        vec[(V.rank - 1,) * p] = 7  # a word that need not be a pivot
        assert data.reduce_dual(p, vec) == reduce_dual_by_pairing(data, p, vec), p
    for p1 in range(1, pmax):
        p2 = pmax - p1
        for k1, w1 in enumerate(data.pivot_words(p1)[:4]):
            for k2, w2 in enumerate(data.pivot_words(p2)[:4]):
                assert data.dual_product(p1, k1, p2, k2) == reduce_dual_by_pairing(data, pmax, {w1 + w2: 1})
