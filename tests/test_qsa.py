from fractions import Fraction
from functools import lru_cache

import pytest

from braidhom import fnf, qsa
from braidhom.braided import ConjClassSet, PermGroup, identity_perm, parse_cycles, rank_one_space, sign_twist
from braidhom.braided import Cocycle, apply_moves_to_vector, braided_space, index_word
from braidhom.exactla import GF, QQ, ComplexIntegrityError
from braidhom.orbits import block_plan
from braidhom.qsa import (
    bar_complex,
    components_ring,
    default_nmax,
    ext_table,
    verify_main_cor,
)
from braidhom.shuffle import lifted_block_words, shuffle_product
from tests.test_acceptance import signed_orbit_count
from tests.test_braided import S3, jordan_plane, s3_transposition_space, transpositions

F2 = GF(2)


class TruncatedGradedAlgebra:
    """The quantum shuffle algebra truncated above degree Nmax.

    Degree-n basis: words of length n over the basis of V.  Products are
    computed on demand by the shuffle product; the unit is the empty word.
    """

    def __init__(self, V, Nmax=None):
        self.V = V
        self.Nmax = default_nmax(V) if Nmax is None else Nmax

    def basis(self, n: int):
        if n > self.Nmax:
            raise ValueError(f"degree {n} exceeds truncation {self.Nmax}")
        return [index_word(i, self.V.rank, n) for i in range(self.V.rank**n)]

    def product(self, u: dict, v: dict) -> dict:
        if u and v and len(next(iter(u))) + len(next(iter(v))) > self.Nmax:
            raise ValueError("product degree exceeds truncation")
        return shuffle_product(self.V, u, v)


def divided_power_monomials(s, n):
    """Monomials y_1^{e_0} y_2^{e_1} y_4^{e_2} ... with sum e_i = s, sum e_i 2^i = n."""

    @lru_cache(None)
    def count(s, n, i):
        if s == 0 and n == 0:
            return 1
        if s <= 0 or n <= 0 or 2**i > n:
            return 0
        return sum(count(s - e, n - e * 2**i, i + 1) for e in range(0, min(s, n // 2**i) + 1))

    return count(s, n, 0)


def test_bar_complex_shapes():
    eps = rank_one_space(-1)
    bc = bar_complex(eps, 1, QQ)
    assert bc.degrees == [1] and bc.dim(1) == 1
    bc2 = bar_complex(eps, 2, QQ)
    assert bc2.differential(2).entries == {}  # x_1 * x_1 = 0
    triv = rank_one_space(1)
    assert bar_complex(triv, 2, QQ).differential(2).entries == {(0, 0): Fraction(2)}


def test_truncated_algebra():
    V = rank_one_space(-1)
    A = TruncatedGradedAlgebra(V, 4)
    assert len(A.basis(3)) == 1
    assert A.product({(0,): 1}, {(0,): 1}) == {}
    with pytest.raises(ValueError):
        A.basis(9)
    with pytest.raises(ValueError):
        A.product({(0, 0, 0): 1}, {(0, 0): 1})


def test_default_truncations():
    assert default_nmax(rank_one_space(1)) == 8
    assert default_nmax(s3_transposition_space()) == 6


def test_ext_line_not_root_of_unity():
    table = ext_table(rank_one_space(-2), 6, QQ)
    assert table.items() == [((0, 0), 1), ((1, 1), 1)]


def test_ext_eps_char0():
    table = ext_table(rank_one_space(-1), 6, QQ)
    for n in range(7):
        for s in range(n + 1):
            expect = 1 if n - s in (0, 1) and (s >= n - s) else 0
            # monomials y_1^a z_2^e with a = s - e >= 0 and e = n - s <= 1
            expect = 1 if (n - s in (0, 1) and s - (n - s) >= 0) else 0
            assert table.get((s, n)) == expect, (s, n)


def test_ext_eps_char2_matches_monomial_oracle():
    table = ext_table(rank_one_space(-1), 8, F2)
    for n in range(9):
        for s in range(n + 1):
            assert table.get((s, n)) == divided_power_monomials(s, n), (s, n)


def test_ext_connectivity():
    table = ext_table(s3_transposition_space(epsilon=True), 4, QQ)
    for (s, n), r in table.items():
        assert 0 <= s <= n
        assert r > 0


def test_euler_characteristic_bookkeeping():
    # alternating sums of homology ranks match alternating sums of cell counts
    V = s3_transposition_space(epsilon=True)
    for n in (2, 3, 4):
        bc = bar_complex(V, n, QQ)
        euler_cells = sum((-1) ** p * bc.dim(p) for p in bc.degrees)
        euler_ranks = sum((-1) ** p * bc.homology_rank(p) for p in bc.degrees)
        assert euler_cells == euler_ranks


def test_ext_diagonal_is_signed_orbit_count():
    V = s3_transposition_space()  # trivial cocycle
    table = ext_table(V, 4, QQ)
    for n in range(1, 5):
        assert table.get((n, n)) == signed_orbit_count(V.rack, n)


def test_components_ring_dims_and_products():
    V = s3_transposition_space()
    ring = components_ring(V, 4, QQ)
    assert ring.dims == [1, 3, 5, 6, 6]
    assert ring.r(0) == 1 and ring.r(1) == 3
    # multiplication lands on single orbit basis vectors
    sc = {(k1, k2): ring.product(1, k1, 1, k2) for k1 in range(ring.r(1)) for k2 in range(ring.r(1))}
    assert set(sc.values()) <= set(range(ring.r(2)))
    # the five degree-2 orbits are all reachable as products of degree-1 letters
    assert len(set(sc.values())) == 5
    # unit degree behaves: deg-0 times anything is the identity map
    for k in range(ring.r(2)):
        assert ring.product(0, 0, 2, k) == k


def test_components_ring_orbit_basis_requires_trivial_cocycle():
    ring = components_ring(rank_one_space(1), 3, QQ)
    assert ring.orbit_reps is not None and ring.dims == [1, 1, 1, 1]
    ring2 = components_ring(rank_one_space(-2), 3, QQ)
    assert ring2.orbit_reps is None
    ring3 = components_ring(s3_transposition_space(cocycle=-1), 3, QQ)
    assert ring3.orbit_reps is None
    assert ring3.dims[0] == 1


def test_verify_main_cor_rank_one():
    for sigma in (1, -1, -2):
        V = rank_one_space(sigma)
        for n in (2, 3, 4):
            rep = verify_main_cor(V, n, QQ)
            assert rep.ok, (sigma, n, rep.betti, rep.ext_diagonal)


@pytest.mark.parametrize("field", [QQ, F2])
def test_verify_main_cor_s3(field):
    V = s3_transposition_space()
    for n in (2, 3):
        rep = verify_main_cor(V, n, field)
        assert rep.ok and rep.chain_level_ok
        assert rep.lines()[-1].strip() == "PASS"


def test_verify_main_cor_z3():
    Z3 = PermGroup(3, [parse_cycles("(1 2 3)", 3)], name="Z3")
    cz = ConjClassSet(Z3, [g for g in Z3.elements if g != identity_perm(3)])
    rack = cz.rack
    V = braided_space(rack, Cocycle.constant(rack, 1), group=Z3)
    for F in (QQ, F2):
        rep = verify_main_cor(V, 3, F)
        assert rep.ok


def test_sign_twist_round_trip():
    V = s3_transposition_space()
    W = sign_twist(sign_twist(V))
    assert W.sigma == V.sigma


@pytest.fixture
def ranked(monkeypatch):
    """Every matrix a GradedComplex ranks, in order: each differential is
    ranked by one `independent_rows` elimination in the clearing sweep."""
    seen = []
    real_independent_rows = fnf.independent_rows

    def recording_independent_rows(M, F, skip=()):
        seen.append(M)
        return real_independent_rows(M, F, skip)

    monkeypatch.setattr(fnf, "independent_rows", recording_independent_rows)
    return seen


def test_verify_main_cor_ranks_each_differential_once(ranked):
    # one rank per differential of each representative FNF block; the bar
    # blocks equal them and are not ranked again
    n = 4
    V = s3_transposition_space()
    rep = verify_main_cor(V, n, F2)
    assert rep.ok and rep.chain_level_ok
    plan = block_plan(V, n)
    assert len(plan) == 3
    assert len(ranked) == (n - 1) * len(plan)
    assert len({id(M) for M in ranked}) == len(ranked)


def test_verify_main_cor_mismatch_ranks_the_bar_complex(monkeypatch, ranked):
    # Negating the bar block operator on (a, b) = (1, 1) negates the top bar
    # differential at n = 3, the only one that merges two single letters:
    # d^2 = 0 and every rank are kept, but the cell-by-cell identity breaks;
    # the Ext column must then come from the bar complex, assembled from the
    # corrupted operator.
    real_bar_blocks = qsa.bar_blocks
    n = 3
    corrupted = []

    def bar_with_negated_top(V, m, F, words=None):
        block = real_bar_blocks(V, m, F, words)

        def negated(a, b, offset):
            vecs = block(a, b, offset)
            if (a, b) != (1, 1) or not any(vecs):  # a zero block stays equal to its FNF block
                return vecs
            corrupted.append(words)
            return [{j: F.neg(cf) for j, cf in vec.items()} for vec in vecs]

        return negated

    monkeypatch.setattr(qsa, "bar_blocks", bar_with_negated_top)
    V = s3_transposition_space()
    rep = verify_main_cor(V, n, QQ)
    assert not rep.chain_level_ok and not rep.ok
    assert rep.lines()[-1].strip() == "FAIL"
    mismatched = {tuple(words) for words in corrupted}
    assert mismatched
    # one rank per FNF differential, and one per differential of each bar
    # complex assembled on a mismatch, whose top one is the FNF top negated
    assert len(ranked) == (n - 1) * (len(block_plan(V, n)) + len(mismatched))
    for words in mismatched:
        top = fnf.complex_for_system(fnf.TensorSystem(V, n, list(words)), n, QQ).differential(2 * n)
        assert any(M == top.scale(-1) for M in ranked)
    assert rep.ext_diagonal == rep.betti


@pytest.mark.parametrize("F", [QQ, F2])
def test_verify_main_cor_fails_on_one_corrupted_inner_entry(monkeypatch, F):
    # one entry of an inner block, (a, b) = (1, 1) at offset 1 (a + b < n,
    # offset > 0), dropped at n = 4: the block comparison must catch it, so
    # the bar complex is assembled from the corrupted operator, and its d^2
    # check fails
    real_bar_blocks = qsa.bar_blocks
    n = 4
    hit = []

    def bar_with_one_bad_entry(V, m, F, words=None):
        block = real_bar_blocks(V, m, F, words)

        def corrupted(a, b, offset):
            vecs = block(a, b, offset)
            if (a, b, offset) != (1, 1, 1) or not any(vecs):
                return vecs
            idx = next(i for i, vec in enumerate(vecs) if vec)
            drop = min(vecs[idx])
            hit.append(words)
            return vecs[:idx] + [{j: cf for j, cf in vecs[idx].items() if j != drop}] + vecs[idx + 1:]

        return corrupted

    V = s3_transposition_space()
    assert verify_main_cor(V, n, F).chain_level_ok
    monkeypatch.setattr(qsa, "bar_blocks", bar_with_one_bad_entry)
    with pytest.raises(ComplexIntegrityError, match="d\\^2 != 0"):
        verify_main_cor(V, n, F)
    assert hit


def bar_block_by_lifts(V, n, F, a, b, offset):
    """Oracle for the bar block operator: each basis word of V^(x)n under the
    unsigned sum of the lifted (a, b)-shuffles at `offset`, lifted on all n
    strands."""
    lifts = [[g + offset for g in moves] for _, moves in lifted_block_words(a, b)]
    out = []
    for idx in range(V.rank**n):
        acc = {}
        for moves in lifts:
            for j, cf in apply_moves_to_vector(V, n, moves, {idx: 1}).items():
                s = F.add(acc.get(j, F.zero), F.convert(cf))
                if s == 0:
                    acc.pop(j, None)
                else:
                    acc[j] = s
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "V", [s3_transposition_space(epsilon=True), jordan_plane(), rank_one_space(Fraction(1, 3))],
    ids=["S3-eps", "jordan", "line-1/3"])
def test_bar_block_local_then_spread_matches_full_width_lifts(V):
    # up to n = 5, where the lifts of the (2, 3)- and (3, 2)-shuffles first
    # form a trie of depth 6; spread to the whole space and to every block of
    # the plan (the orbit classes of S3 eps), each against the full-width
    # oracle re-indexed to the block
    for F in (QQ, F2, GF(5)):
        for n in range(2, 6):
            spans = [range(V.rank**n)] + [words for words, _ in block_plan(V, n)]
            for a, b in ((a, b) for a in range(1, n) for b in range(1, n - a + 1)):
                local = qsa._local_block_product(V, F, a, b, range(V.rank ** (a + b)))
                for offset in range(n - a - b + 1):
                    full = bar_block_by_lifts(V, n, F, a, b, offset)
                    for words in spans:
                        pos = {w: i for i, w in enumerate(words)}
                        got = qsa._spread_block(local, V.rank, n, a + b, offset, words, pos)
                        want = [{pos[w]: cf for w, cf in full[code].items()} for code in words]
                        assert got == want, (F, n, a, b, offset, len(words))


def without_first_entry(block, shape):
    """The block operator `block` with the first entry of the first nonzero
    image of `shape` = (a, b, offset) dropped."""
    vecs = block(*shape)
    idx = next(i for i, vec in enumerate(vecs) if vec)
    drop = min(vecs[idx])
    bad = vecs[:idx] + [{j: cf for j, cf in vecs[idx].items() if j != drop}] + vecs[idx + 1:]
    return lambda a, b, offset: bad if (a, b, offset) == shape else block(a, b, offset)


@pytest.mark.parametrize(
    "V", [s3_transposition_space(epsilon=True), jordan_plane(), rank_one_space(Fraction(1, 3))],
    ids=["S3-eps", "jordan", "line-1/3"])
def test_block_operators_agree_exactly_when_assembled_differentials_do(V):
    # verify_main_cor compares block operators where it used to compare the
    # assembled differentials; the two comparisons must give one answer: FNF
    # on V against the bar operator of its sign twist (equal), of V itself
    # (equal only where the twist is invisible), and of the twist with one
    # entry of one shape dropped (never equal)
    for F in (QQ, F2):
        for n in range(2, 6):
            shapes = [(a, b, o) for a in range(1, n) for b in range(1, n - a + 1) for o in range(n - a - b + 1)]
            system = fnf.TensorSystem(V, n)
            fnf_diff = fnf.complex_for_system(system, n, F).diff
            fnf_block = fnf.shuffle_blocks(system, F)
            twisted = qsa.bar_blocks(sign_twist(V), n, F)
            bars = [twisted, qsa.bar_blocks(V, n, F)]
            bars += [without_first_entry(twisted, shape) for shape in shapes if any(twisted(*shape))]
            outcomes = []
            for bar_block in bars:
                bar_diff = fnf.assemble_block_merge(n, 0, system.dim, bar_block, F)[1]
                same_blocks = all(fnf_block(*shape) == bar_block(*shape) for shape in shapes)
                same_diffs = all(fnf_diff[n + p] == bar_diff[p] for p in range(2, n + 1))
                assert same_blocks == same_diffs, (F, n, len(outcomes))
                outcomes.append(same_blocks)
            assert outcomes[0] and not any(outcomes[2:]), (F, n)


def test_bar_products_hold_only_the_words_the_blocks_read():
    # verify at n = 5 reads, for every shape with a + b = 5 (offset 0), just
    # the words of the plan's two representative blocks, 81 of 243; a later
    # bar complex on every word lifts the rest into the same tables, and
    # every table, at every shape, then matches the full-width lifts
    V = s3_transposition_space()
    Veps = sign_twist(V)
    read = set().union(*(words for words, _ in block_plan(V, 5)))
    assert len(read) == 81
    for F in (QQ, F2):
        assert verify_main_cor(V, 5, F).ok
        tables = {(a, b): t for (G, a, b), t in Veps.block_products.items() if G == F}
        assert sorted(tables) == [(a, b) for a in range(1, 5) for b in range(1, 6 - a)]
        assert all(set(tables[a, b]) == read for a, b in tables if a + b == 5)
        bar_complex(Veps, 5, F)
        for (a, b), table in tables.items():
            assert table is Veps.block_products[F, a, b]
            assert table == dict(enumerate(bar_block_by_lifts(Veps, a + b, F, a, b, 0))), (F, a, b)


def test_sign_twisted_space_records_the_cocycle_it_braids_with():
    # braided_space with epsilon, the sign twist of the untwisted space and the
    # space of cocycle -1 are one braiding: they record one cocycle, and the
    # ring of components, which attaches an orbit basis only for a trivial
    # cocycle, is the same for all three
    G = S3()
    c = transpositions(G)
    one = Cocycle.constant(c.rack, 1)
    spaces = [braided_space(c.rack, one, epsilon=True, group=G),
              sign_twist(braided_space(c.rack, one, group=G)),
              braided_space(c.rack, Cocycle.constant(c.rack, -1), group=G)]
    for V in spaces:
        ring = components_ring(V, 4, QQ)
        assert (ring.dims, ring.orbit_reps) == ([1, 3, 0, 0, 0], None)
    assert spaces[0].sigma == spaces[1].sigma == spaces[2].sigma
    assert spaces[0].cocycle == spaces[1].cocycle == spaces[2].cocycle
