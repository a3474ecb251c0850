from fractions import Fraction

import pytest

from braidhom.braided import ConjClassSet, PermGroup, identity_perm, parse_cycles
from braidhom.malle import (
    MalleConstants,
    discriminant_degree,
    estimate_poly_degree,
    index,
    malle_a,
    malle_constants,
    point_count_bound,
)
from tests.test_braided import S3, transpositions


def test_index_examples():
    assert index(identity_perm(7)) == 0
    assert index(parse_cycles("(1 2)", 3)) == 1
    for m in (3, 4, 6):
        mcycle = tuple(list(range(1, m)) + [0])
        assert index(mcycle) == m - 1
    assert index(parse_cycles("(1 2)(3 4)", 5)) == 2


def test_malle_a_examples():
    G = S3()
    assert malle_a(G) == 1
    assert malle_a(G, transpositions(G)) == 1
    Z3 = PermGroup(3, [parse_cycles("(1 2 3)", 3)], name="Z3")
    assert malle_a(Z3) == Fraction(1, 2)
    for m in (4, 5):
        Sm = PermGroup(m, [parse_cycles("(1 2)", m), tuple(list(range(1, m)) + [0])])
        assert malle_a(Sm, ConjClassSet(Sm, [g for g in Sm.elements
                                             if index(g) == 1])) == 1


def test_restricting_classes_weakly_decreases_a():
    G = S3()
    c = transpositions(G)
    assert malle_a(G, c) <= malle_a(G)
    Z6 = PermGroup(6, [tuple(list(range(1, 6)) + [0])], name="Z6")
    sq = ConjClassSet(Z6, [g for g in Z6.elements if g != identity_perm(6) and index(g) >= 4])
    assert malle_a(Z6, sq) <= malle_a(Z6)


def test_discriminant_degree():
    assert discriminant_degree([], []) == 0
    assert discriminant_degree([4], [1]) == 4
    assert discriminant_degree([2, 1], [1, 2]) == 4
    with pytest.raises(ValueError):
        discriminant_degree([1], [1, 2])


def test_centers():
    assert len(S3().center()) == 1
    Z4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4)], name="Z4")
    assert len(Z4.center()) == 4
    D4 = PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)], name="D4")
    assert D4.order == 8 and len(D4.center()) == 2


def test_point_count_bound_exact_values():
    b = point_count_bound(9, 4, [1])
    assert b.rational_part == 9**4 and b.sqrt_part == 0
    b2 = point_count_bound(4, 2, [1, 1])
    assert b2.value() == Fraction(3, 2) * 16
    with pytest.raises(ValueError):
        point_count_bound(4, 2, [1, -1])
    # n^d normalizes, so n = 0 needs d = 0, and n is never negative
    assert point_count_bound(4, 0, [1, 1]).normalized == (1, Fraction(1, 4))
    for n, d in [(0, 2), (-1, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="n must be at least"):
            point_count_bound(4, n, [1], d=d)


def test_point_count_bound_monotone():
    base = point_count_bound(5, 3, [1, 2, 1])
    more = point_count_bound(5, 3, [1, 2, 2])
    assert more.rational_part >= base.rational_part
    assert more.sqrt_part >= base.sqrt_part
    bigger_n = point_count_bound(5, 4, [1, 2, 1])
    assert bigger_n.rational_part > base.rational_part


def test_bound_sum_has_main_theorem_shape():
    # summing q^n over n <= r a with constant-shape Betti data reproduces the
    # C' X^a (log X)^(d+1) envelope with d = 0 on a synthetic table
    q, r, a = 4, 10, Fraction(1)
    total = sum(point_count_bound(q, n, [1]).rational_part for n in range(1, int(r * a) + 1))
    X = Fraction(q) ** r
    assert total <= 2 * X**a  # geometric sum, d = 0 so no log factor needed
    assert total >= X**a


def test_estimate_poly_degree():
    assert estimate_poly_degree([6, 6, 6, 6]) == 0
    assert estimate_poly_degree([1, 2, 3, 4, 5]) == 1
    assert estimate_poly_degree([1, 4, 9, 16, 25, 36]) == 2
    assert estimate_poly_degree([1, 2, 4, 8]) is None


def test_malle_constants_bundle():
    G = S3()
    mc = malle_constants(G)
    assert isinstance(mc, MalleConstants)
    assert mc.class_indices == [1, 2]
    assert mc.a == 1 and mc.center_order == 1
    mc2 = malle_constants(G, transpositions(G), orbit_window=[1, 3, 5, 6, 6, 6])
    assert mc2.growth_degree == 0 or mc2.growth_degree is None
    window = [1, 3, 5, 6, 6, 6, 6]
    mc3 = malle_constants(G, transpositions(G), orbit_window=window[3:])
    assert mc3.growth_degree == 0
