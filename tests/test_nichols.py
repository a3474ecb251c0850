import pytest

from braidhom.braided import check_braided, dual_space, rank_one_space
from braidhom.exactla import GF, QQ, rank
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
from tests.test_braided import jordan_plane, s3_transposition_space

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
