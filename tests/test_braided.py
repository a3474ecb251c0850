import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidhom.braided import (
    _split_cycles,
    BraidedVectorSpace,
    Cocycle,
    ConjClassSet,
    PermGroup,
    Rack,
    braid_word_action,
    braided_space,
    check_braided,
    conj,
    cycle_notation,
    cycle_type,
    dual_space,
    identity_perm,
    load_group,
    parse_cycles,
    rank_one_space,
    sign_twist,
)
from braidhom.cli import UsageError, builtin_group, class_selector
from braidhom.exactla import QQ, SparseMatrix, inverse
from tests.oracles import conjugacy_partition, rational_by_powers, tuple_closure


def S3():
    return PermGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], name="S3")


def transpositions(G):
    return ConjClassSet(G, [g for g in G.elements if cycle_type(g) == (2,)])


def s3_transposition_space(cocycle=1, epsilon=False):
    G = S3()
    c = transpositions(G)
    rack = c.rack
    return braided_space(rack, Cocycle.constant(rack, cocycle), epsilon=epsilon, group=G)


def s4_transposition_setup():
    """S4, its transpositions, and the sign-twisted space on them."""
    S4 = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)], name="S4")
    c = ConjClassSet(S4, [g for g in S4.elements if cycle_type(g) == (2,)])
    rack = c.rack
    return S4, c, braided_space(rack, Cocycle.constant(rack, 1), epsilon=True, group=S4)


def jordan_plane():
    """The Jordan plane: sigma(x_a (x) x_1) = x_1 (x) x_a + x_0 (x) x_a and
    sigma(x_a (x) x_0) = x_0 (x) x_a, a braiding that is not monomial."""
    sigma = {}
    for a in range(2):
        sigma[(a, 0)] = (((0, a), 1),)
        sigma[(a, 1)] = (((1, a), 1), ((0, a), 1))
    return BraidedVectorSpace(["x1", "x2"], sigma, name="jordan")


def test_parse_and_print_cycles():
    g = parse_cycles("(1 2)(3 4 5)", 5)
    assert cycle_notation(g) == "(1 2)(3 4 5)"
    assert parse_cycles("()", 3) == identity_perm(3)


@pytest.mark.parametrize("text, message", [
    ("(1 2", "text '(1 2' outside the cycles of '(1 2'"),
    ("(1 2) x", "text 'x' outside the cycles of '(1 2) x'"),
    ("(1 2)(1 3)", "point 1 appears twice in '(1 2)(1 3)'"),
])
def test_parse_cycles_rejects_malformed_notation(text, message):
    with pytest.raises(ValueError) as exc:
        parse_cycles(text, 3)
    assert str(exc.value) == message


@given(st.text(alphabet="() 12,x", max_size=14))
def test_cycles_split_as_the_regular_expression_splits(text):
    # the cycle parser reads text as re.split on \(([^()]*)\) would cut it:
    # the text outside the cycles, then each cycle in turn
    parts = re.split(r"\(([^()]*)\)", text)
    assert _split_cycles(text) == (parts[::2], parts[1::2])


@pytest.mark.parametrize("header", ["degree", "degree x", "degree 0", "degree 3 4"])
def test_group_file_header_needs_a_positive_degree(header):
    with pytest.raises(ValueError) as exc:
        load_group(f"{header}\n(1 2)\n")
    assert str(exc.value) == f"group file header {header!r} is not 'degree m' with m a positive integer"


def test_group_enumeration_and_cap():
    G = S3()
    assert G.order == 6
    with pytest.raises(ValueError):
        PermGroup(5, [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)], cap=10)


def test_group_file_roundtrip():
    text = "degree 4\n(1 2)\n(1 2 3 4)\n"
    G = load_group(text, name="S4")
    assert G.order == 24


def test_group_file_names_a_point_that_is_not_an_integer(tmp_path):
    path = tmp_path / "grp.txt"
    path.write_text("degree 3\n(1 a)\n")
    with pytest.raises(ValueError) as exc:
        load_group(path.read_text())
    assert str(exc.value) == "point 'a' in cycle (1 a) of '(1 a)' is not a positive integer"


def test_conj_class_set():
    G = S3()
    c = transpositions(G)
    assert len(c) == 3 and len(c.classes) == 1
    assert c.rational and tuple_closure(c.elements, identity_perm(3)) == frozenset(G.elements)
    with pytest.raises(ValueError):
        ConjClassSet(G, [parse_cycles("(1 2)", 3)])  # not conjugation closed
    with pytest.raises(ValueError):
        ConjClassSet(G, [identity_perm(3)])


BUILTIN_GROUPS = [f"S{m}" for m in range(2, 7)] + [f"A{m}" for m in range(3, 6)] + ["D4"] + \
    [f"Z{m}" for m in range(1, 13)]


def builtin_class_sets():
    """(group name, class set) for every distinct class set that the builtin
    groups give under the selectors 'all', 'transpositions', 'k-cycles' and
    every cycle type of their nontrivial elements."""
    for name in BUILTIN_GROUPS:
        G = builtin_group(name)
        types = sorted({"+".join(map(str, cycle_type(g))) for g in G.elements if cycle_type(g)})
        seen = set()
        for spec in ["all", "transpositions"] + [f"{k}-cycles" for k in range(3, G.degree + 1)] + types:
            try:
                c = class_selector(G, spec)
            except UsageError:  # the selector matches no element
                continue
            if tuple(c.elements) not in seen:
                seen.add(tuple(c.elements))
                yield name, c


def test_class_partition_matches_brute_force_conjugation():
    # the cached partition: classes of sorted element indices in order of
    # their least element, the identity (index 0) alone in the first
    for name in BUILTIN_GROUPS:
        G = builtin_group(name)
        assert G.elements[0] == identity_perm(G.degree), name
        assert G.class_indices == conjugacy_partition(G), name
        assert G.class_indices is G.class_indices


def test_class_set_data_match_brute_force_on_the_builtin_class_sets():
    count = 0
    for name, c in builtin_class_sets():
        G, letters = c.parent, set(c.elements)
        classes = [[G.elements[i] for i in cl] for cl in conjugacy_partition(G)
                   if letters & {G.elements[i] for i in cl}]
        assert all(set(cl) <= letters for cl in classes), name
        assert c.classes == classes, name
        assert c.class_of == [next(i for i, cl in enumerate(classes) if g in cl) for g in c.elements], name
        assert c.rational == rational_by_powers(c.elements), name
        count += 1
    assert count == 68


def test_rational_flag_matches_brute_force_on_non_rational_class_sets():
    # a class set picked by cycle type is rational (a power prime to the
    # order keeps the cycle type), so the flag is also checked on every
    # subset of the nontrivial elements of cyclic groups, all of them class
    # sets, and on one class of 3-cycles of A4, not conjugate to its inverses
    seen = set()
    for name in ("Z5", "Z6", "Z8"):
        G = builtin_group(name)
        nontrivial = G.elements[1:]
        for mask in range(1, 1 << len(nontrivial)):
            letters = [g for k, g in enumerate(nontrivial) if mask >> k & 1]
            rational = ConjClassSet(G, letters).rational
            assert rational == rational_by_powers(letters), (name, letters)
            seen.add(rational)
    assert seen == {False, True}
    A4 = builtin_group("A4")
    one = ConjClassSet(A4, [A4.elements[j] for j in A4.class_indices[1]])
    assert not one.rational and class_selector(A4, "3-cycles").rational


def test_conjugation_rack_s2():
    G = PermGroup(2, [parse_cycles("(1 2)", 2)], name="S2")
    c = ConjClassSet(G, [parse_cycles("(1 2)", 2)])
    r = c.rack
    assert r.size == 1 and r.quandle


def test_conjugation_rack_s3_values():
    G = S3()
    c = transpositions(G)
    r = c.rack
    assert r.quandle
    g12, g13, g23 = parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3), parse_cycles("(2 3)", 3)
    i = {g: c.elements.index(g) for g in (g12, g13, g23)}
    assert r.act[i[g12]][i[g13]] == i[g23]
    assert conj(g12, g13) == g23


def test_three_cycle_rack_acts_trivially():
    G = S3()
    c = ConjClassSet(G, [g for g in G.elements if cycle_type(g) == (3,)])
    r = c.rack
    assert r.size == 2
    assert all(r.act[a][b] == a for a in range(2) for b in range(2))


def test_rack_validation():
    with pytest.raises(ValueError):
        Rack(["a", "b"], {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "b"})


def test_cocycle_condition():
    G = S3()
    r = transpositions(G).rack
    Cocycle.constant(r, -1).check(r)
    bad = [[1] * 3 for _ in range(3)]
    bad[0][1] = -1
    with pytest.raises(ValueError):
        Cocycle(tuple(tuple(row) for row in bad)).check(r)


def test_rank_one_spaces():
    triv = rank_one_space(1)
    assert braid_word_action(triv, 2, [1]) == SparseMatrix.identity(1)
    eps = rank_one_space(-1)
    assert braid_word_action(eps, 2, [1]).entries == {(0, 0): -1}
    # scalar of [1,2,1] on three strands is (-1)^3
    assert braid_word_action(eps, 3, [1, 2, 1]).entries == {(0, 0): -1}


def test_sign_twist_of_rank_one():
    eps = sign_twist(rank_one_space(1))
    assert eps.sigma[(0, 0)][0][1] == -1


def test_braid_word_action_basics():
    V = s3_transposition_space(epsilon=True)
    n = 3
    assert braid_word_action(V, n, []) == SparseMatrix.identity(27)
    assert braid_word_action(V, n, [1, -1]) == SparseMatrix.identity(27)
    with pytest.raises(ValueError):
        braid_word_action(V, 3, [3])


def test_signed_permutation_shape():
    V = s3_transposition_space(epsilon=True)
    M = braid_word_action(V, 2, [1])
    assert M.rows == 9
    for col in M.columns():
        assert len(col) == 1 and list(col.values())[0] in (1, -1)


@pytest.mark.parametrize("n,i", [(3, 1), (4, 1), (4, 2)])
def test_braid_relations(n, i):
    V = s3_transposition_space()
    lhs = braid_word_action(V, n, [i, i + 1, i])
    rhs = braid_word_action(V, n, [i + 1, i, i + 1])
    assert lhs == rhs


def test_far_commutation():
    V = s3_transposition_space(epsilon=True)
    assert braid_word_action(V, 4, [1, 3]) == braid_word_action(V, 4, [3, 1])


def test_multidegree_preserved():
    # counts of letters per conjugacy class are braid invariants
    G = S3()
    c = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    rack = c.rack
    V = braided_space(rack, Cocycle.constant(rack, 1), group=G)
    class_of = c.class_of
    from braidhom.braided import apply_moves_to_vector, index_word

    for idx in range(V.rank**3):
        w = index_word(idx, V.rank, 3)
        for moves in ([1], [2], [-1], [1, 2, -1]):
            [j] = apply_moves_to_vector(V, 3, moves, {idx: 1})
            w2 = index_word(j, V.rank, 3)
            assert sorted(class_of[a] for a in w) == sorted(class_of[a] for a in w2)


def test_check_braided_passes():
    assert check_braided(rank_one_space(-1)).ok
    for eps in (False, True):
        rep = check_braided(s3_transposition_space(epsilon=eps))
        assert rep.ok, rep.failures


def test_check_braided_negative_control():
    V = s3_transposition_space()
    # corrupt one braiding image so the braid equation fails
    bad_sigma = dict(V.sigma)
    ((c0, d0), coeff) = bad_sigma[(0, 1)][0]
    bad_sigma[(0, 1)] = (((c0, (d0 + 1) % 3), coeff),)
    W = BraidedVectorSpace(V.labels, bad_sigma, group=V.group, rack=V.rack)
    rep = check_braided(W)
    assert not rep.ok and rep.failures


def test_jordan_plane_is_braided():
    J = jordan_plane()
    assert any(len(terms) > 1 for terms in J.sigma.values())
    assert check_braided(J).ok
    assert braid_word_action(J, 3, [2, -2, 1, -1]) == SparseMatrix.identity(8)


def generator_by_kronecker(S, r, n, g):
    """I_{r^(g-1)} (x) S (x) I_{r^(n-g-1)} for an r^2 x r^2 matrix S on pair codes."""
    left, right = r ** (g - 1), r ** (n - g - 1)
    ent = {}
    for (q, p), v in S.entries.items():
        for x in range(left):
            for y in range(right):
                ent[((x * r * r + q) * right + y, (x * r * r + p) * right + y)] = v
    return SparseMatrix(r**n, r**n, ent)


@pytest.mark.parametrize("name", ["S3 eps", "line 1/3", "jordan", "dual S3 eps"])
def test_braid_word_action_matches_kronecker_products(name):
    # sigma_g acts on letters g-1, g of a word, the leftmost letter most
    # significant; the braid relations alone hold for the mirror image too
    V = {
        "S3 eps": lambda: s3_transposition_space(epsilon=True),
        "line 1/3": lambda: rank_one_space(Fraction(1, 3)),
        "jordan": jordan_plane,
        "dual S3 eps": lambda: dual_space(s3_transposition_space(epsilon=True)),
    }[name]()
    r = V.rank
    S = V.sigma_matrix()
    factors = {1: S, -1: inverse(S, QQ)}
    rng = random.Random(0)
    for n in range(2, 5):
        words = [[g * e] for g in range(1, n) for e in (1, -1)]
        words += [[rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 5))]
                  for _ in range(6)]
        for word in words:
            expected = SparseMatrix.identity(r**n)
            for mv in word:  # left to right: the first move acts first
                step = generator_by_kronecker(factors[1 if mv > 0 else -1], r, n, abs(mv))
                expected = step.matmul(expected, QQ)
            assert braid_word_action(V, n, word) == expected, (n, word)


def test_dual_space_braided():
    V = s3_transposition_space(epsilon=True)
    assert check_braided(dual_space(V)).ok
    # dual braiding matrix is the transpose
    assert dual_space(V).sigma_matrix() == V.sigma_matrix().transpose()


def test_yd_grading():
    V = s3_transposition_space()
    w = (0, 1)
    g = V.word_degree(w)
    from braidhom.braided import pmul

    assert g == pmul(V.labels[0], V.labels[1])
