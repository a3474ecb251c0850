"""The block plan of `orbits.block_plan` against the full complexes.

Homology through the plan (`braid_homology`, `ext_table`, `verify_main_cor`)
must equal the ranks of the full `fnf_complex` and `bar_complex`, and the
plan's blocks, with each class expanded by conjugation, must partition the
words of V^(x)n.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.braided import (
    Cocycle, apply_moves_to_vector, braided_space, conj, rank_one_space, sign_twist,
)
from braidhom.cli import builtin_group, class_selector
from braidhom.exactla import GF, QQ, ComplexIntegrityError, FieldMismatchError
from braidhom.fnf import TensorSystem, braid_homology, complex_for_system, fnf_complex
from braidhom.orbits import block_plan, rack_orbits
from braidhom.qsa import bar_complex, ext_table, verify_main_cor
from tests.test_braided import jordan_plane
from tests.test_fnf import small_class_sets, small_rack_spaces

FIELDS = (QQ, GF(2), GF(3), GF(5))


def coboundary_space(G, c, f, epsilon=False):
    """The rack space of c with the cocycle x_ab = f(a) f(a^b), f: c -> {+-1}."""
    rack = c.rack
    x = Cocycle(tuple(tuple(f[a] * f[rack.act[a][b]] for b in range(rack.size)) for a in range(rack.size)))
    return braided_space(rack, x, epsilon=epsilon, group=G, name=f"{G.name}-coboundary")


@st.composite
def plan_spaces(draw):
    """(V, n): a small rack space, the same with a coboundary cocycle, the
    Jordan plane (no rack) or the line sigma = 1/3."""
    kind = draw(st.sampled_from(["rack", "coboundary", "jordan", "third"]))
    if kind == "rack":
        return draw(small_rack_spaces())
    if kind == "coboundary":
        G, c = draw(small_class_sets())
        f = draw(st.lists(st.sampled_from([1, -1]), min_size=len(c), max_size=len(c)))
        nmax = max(n for n in range(1, 5) if len(c) ** n <= 125)
        return coboundary_space(G, c, f, draw(st.booleans())), draw(st.integers(1, nmax))
    if kind == "jordan":
        return jordan_plane(), draw(st.integers(1, 4))
    return rank_one_space(Fraction(1, 3)), draw(st.integers(1, 6))


def invariant_letter_maps(V):
    """a -> a^g for each generator g of V.group, when every one preserves the
    cocycle; else None.  Computed from the cocycle table, not the braiding."""
    if V.group is None or V.cocycle is None:
        return None
    pos = {lab: a for a, lab in enumerate(V.labels)}
    maps = [[pos[conj(lab, g)] for lab in V.labels] for g in V.group.generators]
    x = V.cocycle.table
    r = V.rank
    if all(x[pi[a]][pi[b]] == x[a][b] for pi in maps for a in range(r) for b in range(r)):
        return maps
    return None


def expand_class(words, maps, r, n):
    """The distinct images of a word set under the group the letter maps generate."""
    def image(ws, pi):
        out = []
        for w in ws:
            code = 0
            for k in range(n):
                code = code * r + pi[w // r ** (n - 1 - k) % r]
            out.append(code)
        return frozenset(out)

    blocks = [frozenset(words)]
    for ws in blocks:  # grows while it is walked
        for pi in maps or ():
            img = image(ws, pi)
            if img not in blocks:
                blocks.append(img)
    return blocks


def check_plan(V, n):
    plan = block_plan(V, n)
    r = V.rank
    maps = invariant_letter_maps(V)
    assert sum(mult * len(words) for words, mult in plan) == r**n
    seen = set()
    for words, mult in plan:
        assert list(words) == sorted(words)
        blocks = expand_class(words, maps, r, n)
        assert len(blocks) == mult
        for block in blocks:
            assert len(block) == len(words) and not block & seen
            seen |= block
            for g in range(1, n):  # every generator keeps the block
                for w in block:
                    assert set(apply_moves_to_vector(V, n, [g], {w: 1})) <= block
    assert seen == set(range(r**n))
    if maps is None:
        assert all(mult == 1 for _, mult in plan)
    return plan


def full_betti(V, n, F):
    table = fnf_complex(V, n, F).homology_table()
    return [table.get(2 * n - j, 0) for j in range(n + 1)]


def full_ext(V, n, F):
    return {(p, m): bar_complex(V, m, F).homology_rank(p) for m in range(1, n + 1) for p in range(1, m + 1)}


@settings(max_examples=30, deadline=None)
@given(plan_spaces())
def test_block_plan_matches_full_complexes(space):
    V, n = space
    check_plan(V, n)
    for F in FIELDS:
        try:
            betti = full_betti(V, n, F)
            ext = full_ext(V, n, F)
            twisted = bar_complex(sign_twist(V), n, F)
        except FieldMismatchError:
            for run in (braid_homology, ext_table, verify_main_cor):
                with pytest.raises(FieldMismatchError):
                    run(V, n, F)
            continue
        assert braid_homology(V, n, F) == betti, F
        table = ext_table(V, n, F)
        assert table.items() == [((0, 0), 1)] + sorted((k, v) for k, v in ext.items() if v), F
        rep = verify_main_cor(V, n, F)
        assert rep.ok and rep.chain_level_ok, F
        assert rep.betti == betti, F
        assert rep.ext_diagonal == [twisted.homology_rank(n - j) for j in range(n + 1)], F


@settings(max_examples=30, deadline=None)
@given(small_class_sets(), st.data())
def test_trivial_cocycle_blocks_have_one_dimensional_h0(class_set, data):
    # with cocycle 1 a block is the permutation module of one braid orbit,
    # whose coinvariants H_0 are one-dimensional; weighted by multiplicity the
    # blocks count the orbits of c^n
    G, c = class_set
    rack = c.rack
    V = braided_space(rack, Cocycle.constant(rack, 1), group=G)
    n = data.draw(st.integers(1, max(n for n in range(1, 5) if len(c) ** n <= 125)))
    F = data.draw(st.sampled_from(FIELDS))
    plan = block_plan(V, n)
    for words, _ in plan:
        assert complex_for_system(TensorSystem(V, n, words), n, F).homology_rank(2 * n) == 1
    assert sum(mult for _, mult in plan) == len(rack_orbits(V.rack, n))


def test_non_invariant_cocycle_falls_back_to_one_block_per_orbit():
    # f is not constant on the transpositions of S3, so x_ab = f(a) f(a^b) is
    # moved by conjugation: every orbit is its own class
    G = builtin_group("S3")
    c = class_selector(G, "transpositions")
    V = coboundary_space(G, c, [1, 1, -1])
    assert invariant_letter_maps(V) is None
    for n in (3, 4):
        plan = check_plan(V, n)
        assert len(plan) == len(rack_orbits(V.rack, n))
        for F in (QQ, GF(2)):
            assert braid_homology(V, n, F) == full_betti(V, n, F)
    # with f constant the cocycle is trivial and conjugate orbits merge
    W = coboundary_space(G, c, [-1, -1, -1])
    assert invariant_letter_maps(W) is not None
    assert [(len(words), mult) for words, mult in block_plan(W, 4)] == [(1, 3), (27, 2), (24, 1)]


def test_spaces_without_a_rack_are_one_block():
    for V, n in ((jordan_plane(), 3), (rank_one_space(Fraction(1, 3)), 4)):
        assert block_plan(V, n) == [(list(range(V.rank**n)), 1)]


def test_a_word_leaving_its_block_fails_loudly():
    # an orbit less one word is not closed under the braid action: both the
    # FNF and the bar side must refuse it rather than drop terms
    G = builtin_group("S3")
    rack = class_selector(G, "transpositions").rack
    V = braided_space(rack, Cocycle.constant(rack, 1), group=G)
    words, _ = block_plan(V, 3)[1]
    assert len(words) == 8
    for F in (QQ, GF(2)):
        with pytest.raises(ComplexIntegrityError, match="out of its block"):
            complex_for_system(TensorSystem(V, 3, words[:-1]), 3, F)
        with pytest.raises(ComplexIntegrityError, match="out of its block"):
            bar_complex(V, 3, F, words[:-1])
