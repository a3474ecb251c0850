from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import hurwitz
from braidhom.braided import (
    BraidedVectorSpace, Cocycle, ConjClassSet, apply_moves_to_vector, braided_space, identity_perm,
    rank_one_space,
)
from braidhom.cli import builtin_group, class_selector
from braidhom.exactla import GF, QQ, FieldMismatchError, rank
from braidhom.fnf import (
    GradedComplex, PermutationSystem, TensorSystem, braid_homology, complex_for_system, fnf_complex, shuffle_blocks,
)
from braidhom.hurwitz import rack_orbits
from braidhom.shuffle import lifted_block_words
from tests.oracles import kernel_basis
from tests.test_acceptance import signed_orbit_count
from tests.test_braided import jordan_plane, s3_transposition_space

F2 = GF(2)


def test_single_strand():
    cx = fnf_complex(rank_one_space(1), 1, QQ)
    assert cx.degrees == [2]
    assert cx.dim(2) == 1
    assert cx.differential(2).entries == {}


def test_two_strands_trivial_and_twisted():
    triv = fnf_complex(rank_one_space(1), 2, QQ)
    assert [triv.dim(q) for q in (3, 4)] == [1, 1]
    assert triv.differential(4).entries == {}  # signed (1,1)-shuffle count vanishes
    eps = fnf_complex(rank_one_space(-1), 2, QQ)
    assert eps.differential(4).entries == {(0, 0): Fraction(2)}


def test_cell_counts():
    cx = fnf_complex(rank_one_space(1), 4, QQ)
    from math import comb

    for q in range(5, 9):
        assert cx.dim(q) == comb(3, q - 5)


def test_circle_homology():
    triv = rank_one_space(1)
    for n in range(2, 7):
        got = braid_homology(triv, n, QQ)
        assert got == [1, 1] + [0] * (n - 1), n


def test_braid_homology_n1():
    V = s3_transposition_space()
    assert braid_homology(V, 1, QQ) == [3, 0]


def test_qline_not_root_of_unity():
    line = rank_one_space(-2)
    for n in (2, 3, 4):
        assert braid_homology(line, n, QQ) == [0] * (n + 1)


def test_h0_counts_orbits():
    V = s3_transposition_space()
    for n in (2, 3, 4):
        betti = braid_homology(V, n, QQ)
        assert betti[0] == len(rack_orbits(V.rack, n))
    assert braid_homology(V, 2, QQ)[0] == 5


def test_h0_signed_orbits_for_twisted_space():
    Veps = s3_transposition_space(epsilon=True)
    for n in (2, 3):
        betti = braid_homology(Veps, n, QQ)
        assert betti[0] == signed_orbit_count(Veps.rack, n)


def test_non_integral_diagonal_braiding():
    # sigma(x_a (x) x_b) = q_ab x_b (x) x_a with q_xy q_yx = 1: an exterior
    # algebra on two letters, with Fraction entries in every differential;
    # the Betti numbers were recorded when every rational scalar was a Fraction
    q = [[-1, 2], [Fraction(1, 2), -1]]
    V = BraidedVectorSpace(["x", "y"], {(a, b): (((b, a), q[a][b]),) for a in range(2) for b in range(2)})
    for F in (QQ, GF(5)):
        assert [braid_homology(V, n, F) for n in range(1, 5)] == [
            [2, 0], [1, 1, 0], [0, 2, 2, 0], [0, 1, 4, 3, 0]], F


@st.composite
def small_class_sets(draw):
    """A small builtin group and a union of its nontrivial conjugacy classes."""
    G = builtin_group(draw(st.sampled_from(["S3", "S4", "A4", "D4", "Z2", "Z3", "Z4", "Z5"])))
    classes = [tuple(cl) for cl in ConjClassSet(G, [g for g in G.elements if g != identity_perm(G.degree)]).classes]
    picked = draw(st.lists(st.sampled_from(classes), min_size=1, unique=True))
    return G, ConjClassSet(G, set().union(*picked))


@st.composite
def small_rack_spaces(draw):
    """A conjugation rack on a union of nontrivial classes of a small builtin
    group, with a constant cocycle +-1 and an optional sign twist, and a strand
    count n whose complex stays small (rack size ** n <= 125)."""
    G, c = draw(small_class_sets())
    rack = c.rack
    V = braided_space(rack, Cocycle.constant(rack, draw(st.sampled_from([1, -1]))),
                      epsilon=draw(st.booleans()), group=G, name=G.name)
    nmax = max(n for n in range(1, 5) if len(c.elements) ** n <= 125)
    return V, draw(st.integers(1, nmax))


@settings(max_examples=40, deadline=None)
@given(small_rack_spaces(), st.sampled_from([2, 3, 5]))
def test_fnf_euler_characteristic(space, p):
    # H_q = dim ker d_q - rank d_{q+1}, with the kernel from rref and the image
    # from rank; the alternating sum of cells is d for n = 1 and 0 for n >= 2
    V, n = space
    for F in (QQ, GF(p)):
        cx = fnf_complex(V, n, F)
        betti = {q: len(kernel_basis(cx.differential(q), F)) - rank(cx.differential(q + 1), F)
                 for q in cx.degrees}
        assert betti == cx.homology_table(), F
        euler_cells = sum((-1) ** q * cx.dim(q) for q in cx.degrees)
        assert sum((-1) ** q * b for q, b in betti.items()) == euler_cells, F
        assert euler_cells == (V.rank if n == 1 else 0), F


def test_homology_field_dependence():
    # over F_2 the sign twist is invisible
    V = s3_transposition_space()
    Veps = s3_transposition_space(epsilon=True)
    for n in (2, 3):
        assert braid_homology(V, n, F2) == braid_homology(Veps, n, F2)


def test_permutation_system_coefficients():
    # a 2-element set swapped by every generator: the local system of a double cover
    def act(i, sign, idx):
        return 1 - idx

    system = PermutationSystem(2, act)
    got = complex_for_system(system, 2, QQ)
    # d on degree 4: sum over the two (1,1)-shuffles: id - swap
    assert got.differential(4).entries == {(0, 0): Fraction(1), (1, 0): Fraction(-1),
                                           (0, 1): Fraction(-1), (1, 1): Fraction(1)}


def test_chain_level_matches_bar_complex():
    from braidhom.braided import sign_twist
    from braidhom.qsa import bar_complex

    for V in (rank_one_space(1), rank_one_space(-1), s3_transposition_space()):
        for n in (2, 3):
            cx = fnf_complex(V, n, QQ)
            bar = bar_complex(sign_twist(V), n, QQ)
            for p in range(1, n + 1):
                assert cx.dim(n + p) == bar.dim(p)
            for p in range(2, n + 1):
                assert cx.differential(n + p) == bar.differential(p), (V.name, n, p)
            # without the twist the merge is id + sigma, not id - sigma (n = 2):
            # the shuffle signs and the twisted braiding stay separate sources
            untwisted = bar_complex(V, n, QQ)
            assert any(
                cx.differential(n + p) != untwisted.differential(p) for p in range(2, n + 1)
            ), (V.name, n)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_rack_spaces(), st.tuples(st.builds(jordan_plane), st.integers(1, 4))),
       st.sampled_from([2, 3, 5]))
def test_chain_level_identity_on_random_racks(space, p):
    # FNF sums signed shuffle lifts on V, the bar complex unsigned lifts on
    # the sign twist; their differentials agree cell by cell
    from braidhom.braided import sign_twist
    from braidhom.qsa import bar_complex

    V, n = space
    for F in (QQ, GF(p)):
        cx = fnf_complex(V, n, F)
        bar = bar_complex(sign_twist(V), n, F)
        for q in range(1, n + 1):
            assert cx.dim(n + q) == bar.dim(q), (F, q)
            assert cx.differential(n + q) == bar.differential(q), (F, q)


def test_needs_positive_strands():
    with pytest.raises(ValueError):
        fnf_complex(rank_one_space(1), 0, QQ)


def test_malformed_complexes_raise_integrity_errors():
    from braidhom.exactla import ComplexIntegrityError, SparseMatrix
    from braidhom.fnf import GradedComplex

    dims = {0: 1, 1: 1, 2: 1}
    one = SparseMatrix(1, 1, {(0, 0): 1})
    with pytest.raises(ComplexIntegrityError, match="d\\^2 != 0"):
        GradedComplex(dims, {1: one, 2: one}, QQ)
    with pytest.raises(ComplexIntegrityError, match="d_2 is 2x1"):
        GradedComplex(dims, {2: SparseMatrix(2, 1, {(1, 0): 1})}, QQ)
    cx = GradedComplex(dims, {2: one}, QQ)
    assert cx.homology_table() == {0: 1, 1: 0, 2: 0}


def lift_image(system, moves, idx):
    """The image {index: exact coefficient} of coefficient index idx under a
    braid word of positive generators: by `apply_moves_to_vector` on the word
    code for a `TensorSystem`, by the generators' action for a
    `PermutationSystem`."""
    if isinstance(system, PermutationSystem):
        for g in moves:
            idx = system.gen_action(g, 1, idx)
        return {idx: 1}
    local = {w: i for i, w in enumerate(system.words)}
    image = apply_moves_to_vector(system.V, system.n, moves, {system.words[idx]: 1})
    return {local[code]: cf for code, cf in image.items()}


def shuffle_block_by_lifts(system, F, a, b, offset):
    """Oracle for `shuffle_blocks`: for each coefficient index, the signed sum
    of the C(a+b, a) lifted (a, b)-shuffles of the strands offset+1 ..
    offset+a+b, applied one lift at a time with exact coefficients."""
    lifted = [(sign, [g + offset for g in moves]) for sign, moves in lifted_block_words(a, b)]
    out = []
    for idx in range(system.dim):
        acc = {}
        for sign, moves in lifted:
            for j, cf in lift_image(system, moves, idx).items():
                s = F.add(acc.get(j, F.zero), F.mul(F.convert(sign), F.convert(cf)))
                if s == 0:
                    acc.pop(j, None)
                else:
                    acc[j] = s
        out.append(acc)
    return out


def nielsen_system(c, n):
    """The permutation local system on the Nielsen classes of c^n that
    `hurwitz.nielsen_components` ranks, taken from the call it makes."""
    seen = []

    def capture(system, n, F):
        seen.append(system)
        return GradedComplex({}, {}, F)

    with mock.patch.object(hurwitz, "complex_for_system", capture):
        hurwitz.nielsen_components(c, n, QQ)
    return seen[0]


@st.composite
def local_systems(draw):
    """(system, n): V^(x)n for a small rack space, the Jordan plane or the
    line sigma = 1/3, or the Nielsen classes of S3 transpositions at n = 4."""
    kind = draw(st.sampled_from(["rack", "jordan", "third", "nielsen"]))
    if kind == "rack":
        V, n = draw(small_rack_spaces())
        return TensorSystem(V, n), n
    if kind == "nielsen":
        G = builtin_group("S3")
        return nielsen_system(class_selector(G, "transpositions"), 4), 4
    V = jordan_plane() if kind == "jordan" else rank_one_space(Fraction(1, 3))
    n = draw(st.integers(1, 4))
    return TensorSystem(V, n), n


@settings(max_examples=40, deadline=None)
@given(local_systems())
def test_shuffle_block_recursion_matches_lift_sum(space):
    # every block operator the complex can use, by the recursion and by the
    # lift sum; over F_3 the line sigma = 1/3 must fail the same way in both
    system, n = space
    for F in (QQ, GF(2), GF(3), GF(5)):
        block = shuffle_blocks(system, F)
        for a, b in ((a, b) for a in range(1, n) for b in range(1, n - a + 1)):
            for offset in range(n - a - b + 1):
                try:
                    want = shuffle_block_by_lifts(system, F, a, b, offset)
                except FieldMismatchError:
                    with pytest.raises(FieldMismatchError):
                        block(a, b, offset)
                    continue
                assert block(a, b, offset) == want, (F, a, b, offset)
