import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.braided import apply_moves_to_vector, index_word, rank_one_space, word_index
from braidhom.exactla import GF, QQ, SparseMatrix
from braidhom.shuffle import (
    compositions,
    inversions,
    lifted_block_words,
    matsumoto_lift,
    quantum_binomial,
    quantum_symmetrizer,
    shuffle_product,
    shuffles,
    signed_shuffle_count,
)
from tests.test_braided import jordan_plane, s3_transposition_space, s4_transposition_setup
from tests.test_fnf import small_rack_spaces


def quantum_integer(r, q, F):
    out = F.zero
    pw = F.one
    for _ in range(r):
        out = F.add(out, pw)
        pw = F.mul(pw, q)
    return out


def quantum_binomial_by_factorials(a, b, q, F):
    """Independent oracle: [a]! / ([b]! [a-b]!), or None when a denominator vanishes."""
    q = F.convert(q)
    num = F.one
    for r in range(a - b + 1, a + 1):
        num = F.mul(num, quantum_integer(r, q, F))
    den = F.one
    for r in range(1, b + 1):
        term = quantum_integer(r, q, F)
        if term == 0:
            return None
        den = F.mul(den, term)
    return F.mul(num, F.inv(den)) if den != 0 else None


def test_shuffles_basic():
    assert len(shuffles(0, 3)) == 1 and shuffles(0, 3)[0].sign == 1
    recs = shuffles(1, 1)
    assert sorted(r.sign for r in recs) == [-1, 1]
    assert sorted(r.crossings for r in shuffles(2, 2)) == [0, 1, 2, 2, 3, 4]


def test_signed_counts_examples():
    assert signed_shuffle_count(1, 2) == 1
    assert signed_shuffle_count(1, 3) == 0
    assert signed_shuffle_count(2, 2) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_signed_count_symmetry_and_bruteforce(m, n):
    assert signed_shuffle_count(m, n) == signed_shuffle_count(n, m)
    assert signed_shuffle_count(m, n) == sum(r.sign for r in shuffles(m, n))


def test_quantum_binomial_examples():
    assert quantum_binomial(2, 1, 2, QQ) == 3  # 1 + q
    assert quantum_binomial(7, 0, 5, QQ) == 1
    assert quantum_binomial(4, 2, 2, QQ) == 35


@pytest.mark.parametrize("q,F", [(2, QQ), (-1, QQ), (3, GF(5))])
def test_quantum_binomial_vs_factorial_oracle(q, F):
    for a in range(0, 9):
        for b in range(0, a + 1):
            expect = quantum_binomial_by_factorials(a, b, q, F)
            if expect is None:
                continue
            assert quantum_binomial(a, b, q, F) == expect, (a, b, q)


def test_matsumoto_examples():
    assert matsumoto_lift((0, 1, 2)) == []
    assert matsumoto_lift((0, 2, 1, 3)) == [2]
    with pytest.raises(ValueError):
        matsumoto_lift((0, 0, 1))


def test_matsumoto_reduced_and_correct():
    import itertools

    for perm in itertools.permutations(range(4)):
        word = matsumoto_lift(perm)
        assert len(word) == inversions(perm)
        cur = list(range(4))
        for g in word:
            cur[g - 1], cur[g] = cur[g], cur[g - 1]
        assert tuple(cur) == perm


def test_shuffle_lift_lengths():
    # every (1,2)-shuffle lifts to a word whose length is its crossing count
    for rec in shuffles(1, 2):
        assert len(rec.braid_word()) == rec.crossings
    assert {rec.crossings for rec in shuffles(1, 2)} == {0, 1, 2}


def test_compositions_colex():
    assert compositions(4, 2) == [(3, 1), (2, 2), (1, 3)]
    assert compositions(3, 3) == [(1, 1, 1)]
    assert compositions(2, 3) == []
    assert sum(len(compositions(5, k)) for k in range(1, 6)) == 16


def test_shuffle_product_unit_and_eps():
    eps = rank_one_space(-1)
    x2 = {(0, 0): 1}
    assert shuffle_product(eps, {(): 1}, x2) == x2
    assert shuffle_product(eps, {(0,): 1}, {(0,): 1}) == {}
    assert shuffle_product(eps, x2, x2) == {(0,) * 4: 2}


def test_shuffle_product_divided_power_relation():
    # x_{2m} * x_{2n} = C(m+n, n) x_{2m+2n} in the twisted rank-one algebra
    eps = rank_one_space(-1)
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        got = shuffle_product(eps, {(0,) * (2 * m): 1}, {(0,) * (2 * n): 1})
        from math import comb

        assert got == {(0,) * (2 * m + 2 * n): comb(m + n, n)}


def test_shuffle_product_associative_sampled():
    rng = random.Random(7)
    V = s3_transposition_space(epsilon=True)
    words = [(0,), (1,), (2,), (0, 1), (2, 0), (1, 2, 0)]
    for _ in range(12):
        u = {rng.choice(words): rng.choice([1, -1, 2])}
        v = {rng.choice(words): rng.choice([1, -1])}
        w = {rng.choice(words): rng.choice([1, 2])}
        if len(next(iter(u))) + len(next(iter(v))) + len(next(iter(w))) > 6:
            continue
        lhs = shuffle_product(V, shuffle_product(V, u, v), w)
        rhs = shuffle_product(V, u, shuffle_product(V, v, w))
        assert lhs == rhs


def shuffle_product_by_lifts(V, u, v, m, n):
    """Oracle for `shuffle_product`: every concatenation of a word of u with a
    word of v under every lifted (m, n)-shuffle, one whole braid word at a time."""
    r = V.rank
    out = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            for _, moves in lifted_block_words(m, n):
                image = apply_moves_to_vector(V, m + n, moves, {word_index(wu + wv, r): cu * cv})
                for code, cf in image.items():
                    out[code] = out.get(code, 0) + cf
    return {index_word(code, r, m + n): cf for code, cf in out.items() if cf}


@st.composite
def shuffle_factors(draw):
    """(V, u, v, m, n): a small rack space and two tensors of word lengths
    m, n >= 1 with m + n <= 5, a few words each, with small coefficients."""
    V, _ = draw(small_rack_spaces())
    total = draw(st.integers(2, 5))
    m = draw(st.integers(1, total - 1))

    def tensor(length):
        words = st.tuples(*[st.integers(0, V.rank - 1)] * length)
        return draw(st.dictionaries(words, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))

    return V, tensor(m), tensor(total - m), m, total - m


@settings(max_examples=60, deadline=None)
@given(shuffle_factors())
def test_shuffle_product_matches_one_lift_at_a_time(case):
    V, u, v, m, n = case
    assert shuffle_product(V, u, v) == shuffle_product_by_lifts(V, u, v, m, n)


def test_shuffle_product_bilinear():
    V = s3_transposition_space()
    u = {(0,): 2, (1,): -1}
    v = {(2,): 3}
    got = shuffle_product(V, u, v)
    a = shuffle_product(V, {(0,): 1}, v)
    b = shuffle_product(V, {(1,): 1}, v)
    expect = {}
    for w, cf in a.items():
        expect[w] = expect.get(w, 0) + 2 * cf
    for w, cf in b.items():
        expect[w] = expect.get(w, 0) - cf
    assert got == {w: cf for w, cf in expect.items() if cf}


def test_quantum_symmetrizer_small():
    eps = rank_one_space(-1)
    triv = rank_one_space(1)
    assert quantum_symmetrizer(eps, 0).entries == {(0, 0): 1}
    assert quantum_symmetrizer(eps, 1).entries == {(0, 0): 1}
    assert quantum_symmetrizer(eps, 2).entries == {}
    assert quantum_symmetrizer(triv, 2).entries == {(0, 0): 2}
    q = rank_one_space(Fraction(3))
    # sum over S_3 of q^length = 1 + 2q + 2q^2 + q^3
    assert quantum_symmetrizer(q, 3).entries == {(0, 0): 1 + 2 * 3 + 2 * 9 + 27}


def symmetrizer_by_permutations(V, n):
    """Independent oracle: the sum over S_n of the braid lifts, one word at a time."""
    r = V.rank
    dim = r**n
    if n <= 1:
        return SparseMatrix.identity(dim)
    lifts = [matsumoto_lift(p) for p in permutations(range(n))]
    ent = {}
    for idx in range(dim):
        acc = {}
        for moves in lifts:
            for j, cf in apply_moves_to_vector(V, n, moves, {idx: 1}).items():
                s = acc.get(j, 0) + cf
                if s == 0:
                    acc.pop(j, None)
                else:
                    acc[j] = s
        for j, cf in acc.items():
            ent[(j, idx)] = cf
    return SparseMatrix(dim, dim, ent)


@pytest.mark.parametrize("name, nmax", [("S3 eps", 5), ("S4 eps", 4), ("line 1/3", 6), ("jordan", 5)])
def test_quantum_symmetrizer_matches_permutation_sum(name, nmax):
    V = {
        "S3 eps": lambda: s3_transposition_space(epsilon=True),
        "S4 eps": lambda: s4_transposition_setup()[2],
        "line 1/3": lambda: rank_one_space(Fraction(1, 3)),
        "jordan": jordan_plane,
    }[name]()
    for n in range(nmax + 1):
        assert quantum_symmetrizer(V, n).entries == symmetrizer_by_permutations(V, n).entries, n


def test_symmetrizer_factorization_lower_bound():
    # the image of the symmetrizer is a graded algebra: dims are submultiplicative
    from braidhom.exactla import rank

    V = s3_transposition_space(epsilon=True)
    dims = [rank(quantum_symmetrizer(V, n), QQ) for n in range(5)]
    for m in range(1, 4):
        for n in range(1, 5 - m):
            assert dims[m + n] <= dims[m] * dims[n]
