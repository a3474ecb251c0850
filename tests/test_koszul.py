import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import koszul
from braidhom.braided import Cocycle, ConjClassSet, braided_space, identity_perm, pmul, rank_one_space
from braidhom.cli import builtin_group, class_selector
from braidhom.exactla import GF, QQ, ComplexIntegrityError, SparseMatrix
from braidhom.fnf import GradedComplex
from braidhom.hurwitz import FilteredModule, subgroup_lattice
from braidhom.koszul import (
    KoszulComplex,
    generator_counts,
    koszul_complex,
    koszul_homology,
    verify_koszul_identities,
)
from braidhom.nichols import NicholsData, constant_braiding_value, skew_derivation
from tests.test_blocks import coboundary_space
from tests.oracles import conjugacy_partition, twisted_right_mult
from tests.test_fnf import small_class_sets
from tests.test_braided import S3, s4_transposition_setup, transpositions

F2 = GF(2)


def s3_setup():
    G = S3()
    c = transpositions(G)
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    return G, c, V


def test_full_ring_complex_shapes():
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=6, qmax=5, F=QQ, c=c)
    # dual degrees stop at the top of the finite-dimensional Nichols algebra
    assert K.pmax == 4
    assert K.dim(0, 0) == 1
    assert K.dim(1, 2) == 3 * 5


@pytest.mark.parametrize("pmax, expected", [
    (1, (1, False, 1, 0)),
    (2, (2, False, 2, 1)),
    (3, (3, False, 3, 2)),
    (4, (4, True, 4, 4)),
    (5, (4, True, 4, 4)),
    (8, (4, True, 4, 4)),
])
def test_top_degree_probe(pmax, expected):
    # the dual Nichols algebra of S3 transpositions with the sign twist has
    # top degree 4: below it pmax is a truncation boundary, from it on the
    # top is reached; _built == K.pmax says that no zero degree and no degree
    # pmax + 1 was built
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=pmax, qmax=3, F=QQ, c=c)
    assert (K.pmax, K.top_reached, K.nichols._built, K.homology_pmax()) == expected


@pytest.mark.parametrize("pmax", [1, 2, 3, 4, 5])
def test_the_boundary_term_is_assembled_only_at_the_top(pmax):
    # below the top degree 4, d(pmax, qmax - 1) leaves a truncation boundary:
    # it is not assembled, d and d_i refuse it, its diagonal is left out and
    # neither term of that diagonal has a homology rank; from the top on it is
    # assembled as every other term is
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=pmax, qmax=3, F=QQ, c=c)
    term, s = (K.pmax, 2), K.pmax + 2
    if K.top_reached:
        M = K.d(*term)
        assert M.nnz and K.d_i(0, *term) is M and K.diagonals[s].diff[K.pmax] is M
    else:
        for read in (K.d, lambda p, q: K.d_i(0, p, q)):
            with pytest.raises(koszul.TruncationError, match="increase pmax"):
                read(*term)
        for p in (K.pmax - 1, K.pmax):
            with pytest.raises(koszul.TruncationError):
                K.homology_rank(p, s - p)
        assert term not in K._d
    assert sorted(K.diagonals) == [t for t in range(K.pmax + 4) if K.top_reached or t != s]


@pytest.mark.parametrize("pmax", [1, 2, 3])
def test_top_degree_probe_on_an_exterior_line(pmax):
    # sigma = -1: the dual algebra is an exterior algebra on one letter, zero
    # from degree 2 on
    K = koszul_complex(rank_one_space(-1), "R", pmax=pmax, qmax=3, F=GF(5))
    assert (K.pmax, K.top_reached, K.nichols._built) == (1, True, 1)


def test_pmax_zero_is_module_with_zero_differential():
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=0, qmax=3, F=QQ, c=c)
    for q in range(3):
        assert K.d(0, q).entries == {}


def test_degree_one_differential_is_multiplication():
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=2, qmax=3, F=QQ, c=c)
    mod = K.module
    cols = K.d(1, 1).columns()
    # d(v_j* (x) r) = 1 (x) r v_j since the degree-1 derivations are deltas
    for j in range(3):
        for o in range(mod.dim(1)):
            col = cols[j * mod.dim(1) + o]
            tgt = mod.right_mult(j, 1)[o]
            assert col == {tgt: QQ.one}


def test_full_ring_homology():
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=5, qmax=7, F=QQ, c=c)
    assert K.homology_rank(0, 0) == 1
    for q in range(1, 6):
        assert K.homology_rank(0, q) == 0
    table = koszul_homology(K)
    assert table.items() == [((0, 0), 1), ((3, 3), 1)]


def test_identities_on_full_ring():
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=4, qmax=6, F=QQ, c=c)
    rep = verify_koszul_identities(K, pr=3, qr=4)
    assert rep.anticommute_ok and rep.nullhomotopy_ok
    assert rep.trivial_action_ok is None  # only strata carry that check
    assert rep.ok


def test_trivial_action_check_follows_the_stratum_not_the_name():
    G, c, V = s3_setup()
    H = subgroup_lattice(c).subgroups[-1]
    K = koszul_complex(V, ("exact", H), pmax=3, qmax=5, F=QQ, c=c)
    assert K.module.stratum == H
    K.module.name = "R"
    assert verify_koszul_identities(K, pr=2, qr=3).trivial_action_ok is True
    K.module.stratum = None
    assert verify_koszul_identities(K, pr=2, qr=3).trivial_action_ok is None


@pytest.mark.parametrize("field", [QQ, F2], ids=str)
def test_trivial_action_negative_control(field):
    # right multiplication, which d uses, in place of left multiplication is
    # not zero on the homology of the full stratum
    G, c, V = s3_setup()
    H = subgroup_lattice(c).subgroups[-1]
    K = koszul_complex(V, ("exact", H), pmax=3, qmax=5, F=field, c=c)
    K.module.left_mult = K.module.right_mult
    rep = verify_koszul_identities(K, pr=2, qr=3)
    assert rep.trivial_action_ok is False
    assert rep.anticommute_ok and rep.nullhomotopy_ok
    assert all(f.startswith("left multiplication by letter ") for f in rep.failures)
    for p, q in ((1, 2), (2, 2)):
        assert any(f.endswith(f"on homology at (p={p}, q={q})") for f in rep.failures)


def test_identities_on_rank_one():
    eps = rank_one_space(-1)
    K = koszul_complex(eps, "R", pmax=3, qmax=5, F=QQ)
    rep = verify_koszul_identities(K)
    assert rep.ok


@pytest.mark.parametrize("field", [QQ, F2])
def test_strata_identities_and_vanishing(field):
    G, c, V = s3_setup()
    lat = subgroup_lattice(c)
    for H in lat:
        K = koszul_complex(V, ("exact", H), pmax=4, qmax=8, F=field, c=c)
        rep = verify_koszul_identities(K, pr=3, qr=5)
        assert rep.anticommute_ok and rep.nullhomotopy_ok
        assert rep.trivial_action_ok is True
        table = koszul_homology(K)
        top = max((q for (_p, q) in table.values.keys()), default=-1)
        # vanishing threshold observed with at least three zero degrees above it
        assert top <= 4, lat.describe(lat.index(H))


def s3_two_classes():
    """The complex of the S3 space on all six nontrivial elements (two
    classes), with the orbit ring."""
    G = S3()
    c = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    return koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)


def class_differentials(K):
    """((ci, p, q), d_ci) for every class ci and every term (p, q) that K
    assembles, each read through `KoszulComplex.d_i`."""
    return [((ci, p, q), K.d_i(ci, p, q)) for p, q in sorted(K._d) for ci in range(len(K.classes))]


def test_anticommute_negative_control():
    # with two classes check (a) writes each d_i from the derivations, so one
    # corrupted derivation entry of a class-0 letter out of dual degree 2,
    # made after assembly, fails it; with one class d_i is d itself, and a
    # corrupted entry of d(2, 1) fails the d^2 check of the diagonal that
    # check (a) leaves it to
    K = s3_two_classes()
    v = K.classes[0][0]
    col = next(col for col in K.nichols.derivations[2][v] if col)
    col[min(col)] += 1
    rep = verify_koszul_identities(K, pr=3, qr=2)
    assert not rep.anticommute_ok

    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)
    M = K.d(2, 1)
    assert K.d_i(0, 2, 1) is M and K.diagonals[3].diff[2] is M
    (i0, j0) = next(iter(M.entries))
    M.columns()[j0][i0] = M.columns()[j0][i0] + 1
    with pytest.raises(ComplexIntegrityError, match="d\\^2 != 0"):
        K.diagonals[3].check_complex()


def test_check_a_tests_each_product_once(monkeypatch):
    # with one class the d^2 check at construction has tested every product
    # of check (a), which then makes no products_vanish call and writes no
    # class differential; with two classes it makes one call per pair of
    # classes at each (p, q) of its window, and writes each d_i it reads once
    # per term, m = 2 per term read
    calls, builds = [], Counter()
    real, columns = koszul.products_vanish, KoszulComplex._columns

    def counted(pairs, F):
        calls.append(len(pairs))
        return real(pairs, F)

    def counted_columns(K, p, q, letters, tables):
        builds[(p, q)] += 1
        return columns(K, p, q, letters, tables)

    G, c, V = s3_setup()
    one = koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)
    two = s3_two_classes()
    monkeypatch.setattr(koszul, "products_vanish", counted)
    monkeypatch.setattr(KoszulComplex, "_columns", counted_columns)
    assert verify_koszul_identities(one, pr=3, qr=3).ok and calls == [] and not builds
    assert verify_koszul_identities(two, pr=3, qr=3).ok
    window = [(p, q) for q in range(3) for p in range(2, 4) if two.dim(p, q)]
    assert window and calls == [1, 2, 1] * len(window)  # d_0^2, d_0 d_1 + d_1 d_0, d_1^2
    terms = {term for p, q in window for term in ((p, q), (p - 1, q + 1))}
    assert builds == Counter(dict.fromkeys(terms, len(two.classes)))


def nullhomotopy_failures(rep):
    return [f for f in rep.failures if f.startswith("nullhomotopy")]


def test_nullhomotopy_negative_control_on_one_letter():
    # one entry of P_2 at dual degree 1 is off: d P_2 fails at p = 1 and
    # P_2 d at p = 2, for every module degree checked and for letter 2 only
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=4, qmax=5, F=QQ, c=c)
    cols = K.nichols.right_products[1][2]
    i, j = min((i, j) for j, col in enumerate(cols) for i in col)
    cols[j][i] += 1
    rep = verify_koszul_identities(K, pr=3, qr=3)
    assert not rep.nullhomotopy_ok and rep.anticommute_ok
    assert rep.failures == [f"nullhomotopy identity fails at (p={p}, q={q}, g=2)"
                            for q in range(3) for p in (1, 2)]


def test_nullhomotopy_negative_control_on_one_differential():
    # entry (1, 1) of d(2, 1) is off: d P_g fails at (p=1, q=1) for the
    # letters whose P_g meets column 1, and P_g d at (p=2, q=1) for those
    # whose P_g meets row 1
    G, c, V = s3_setup()
    K = koszul_complex(V, "R", pmax=4, qmax=5, F=QQ, c=c)
    M = K.d(2, 1)
    M.columns()[1][1] += 1
    rep = verify_koszul_identities(K, pr=3, qr=3)
    assert not rep.nullhomotopy_ok
    assert nullhomotopy_failures(rep) == [
        "nullhomotopy identity fails at (p=1, q=1, g=0)",
        "nullhomotopy identity fails at (p=1, q=1, g=1)",
        "nullhomotopy identity fails at (p=2, q=1, g=1)",
        "nullhomotopy identity fails at (p=2, q=1, g=2)",
    ]


def d4_double_transposition_space():
    """D4, its 2+2 elements (two conjugacy classes: the central rotation and
    the two edge reflections), and the sign-twisted space on them."""
    from braidhom.braided import Cocycle, braided_space
    from braidhom.cli import builtin_group, class_selector

    G = builtin_group("D4")
    c = class_selector(G, "2+2")
    return G, c, braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)


ORACLE_SPACES = {"S3 eps": (s3_setup, 4, 5), "S4 eps": (s4_transposition_setup, 3, 4),
                 "D4 2+2": (d4_double_transposition_space, 3, 4)}


def kronecker_class_differential(K, letters, p, q, F):
    """sum over v in letters of D_v (x) R_v on term (p, q), entry by entry:
    D_v the skew derivation out of dual degree p, R_v right multiplication by
    v on module degree q."""
    nq, nt = K.module.dim(q), K.module.dim(q + 1)
    entries = {}
    for v in letters:
        rmult = K.module.right_mult(v, q)
        for (i, k), a in skew_derivation(K.nichols, v, p).entries.items():
            for o, o2 in enumerate(rmult):
                if o2 is not None:
                    key = (i * nt + o2, k * nq + o)
                    entries[key] = F.add(entries.get(key, F.zero), F.convert(a))
    return SparseMatrix(K.dim(p - 1, q + 1), K.dim(p, q), entries)


def tensor_with_identity(P, n):
    """P (x) 1_n, module index fastest."""
    return SparseMatrix(P.rows * n, P.cols * n, {(i * n + o, k * n + o): a
                                                 for (i, k), a in P.entries.items() for o in range(n)})


def kronecker_nullhomotopy_failures(K, pr, qr):
    """The failures `verify_koszul_identities` reports for the nullhomotopy
    identity, found with `SparseMatrix.matmul` on P_g (x) 1 built here."""
    F, nd = K.F, K.nichols
    s = constant_braiding_value(K.V)
    failures = []
    for q in range(min(qr, K.qmax - 1)):
        for p in range(1, min(pr, K.pmax)):
            if K.dim(p, q) == 0:
                continue
            for g in range(K.V.rack.size):
                after = tensor_with_identity(SparseMatrix.from_columns(nd.dim(p + 1), nd.right_products[p][g]),
                                             K.module.dim(q))
                before = tensor_with_identity(SparseMatrix.from_columns(nd.dim(p), nd.right_products[p - 1][g]),
                                              K.module.dim(q + 1))
                lhs = K.d(p + 1, q).matmul(after, F).add(before.matmul(K.d(p, q), F).scale(-1), F)
                rhs = twisted_right_mult(K, koszul._twisted_letters(K, g, p), p, q, s)
                if lhs != rhs:
                    failures.append(f"nullhomotopy identity fails at (p={p}, q={q}, g={g})")
    return failures


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_assembly_matches_kronecker_sums(space, field):
    setup, pmax, qmax = ORACLE_SPACES[space]
    G, c, V = setup()
    K = koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=field, c=c)
    assert len(K.classes) == (2 if space == "D4 2+2" else 1)
    for q in range(qmax):
        for p in range(1, K.pmax + 1):
            if (p, q) == (K.pmax, qmax - 1) and not K.top_reached:
                continue  # leaves the truncation boundary, not assembled
            total = SparseMatrix.zero(K.dim(p - 1, q + 1), K.dim(p, q))
            for ci, letters in enumerate(K.classes):
                naive = kronecker_class_differential(K, letters, p, q, field)
                assert K.d_i(ci, p, q) == naive, (ci, p, q)
                total = total.add(naive, field)
            assert K.d(p, q) == total, (p, q)
    # the nullhomotopy check agrees with matrix products, on the intact complex
    # and with one entry corrupted in each of: a right product together with
    # d(2, 1); d(2, 0) alone, read as d(p + 1, q) at (p, q) = (1, 0); and a
    # module right-multiplication table, which once the complex is assembled
    # only T_g reads
    pr, qr = K.homology_pmax(), qmax - 1
    assert nullhomotopy_failures(verify_koszul_identities(K, pr, qr)) == \
        kronecker_nullhomotopy_failures(K, pr, qr) == []
    for corrupt in (corrupt_right_product_and_d21, corrupt_d20, corrupt_right_mult):
        K = koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=field, c=c)
        corrupt(K, field)
        expected = kronecker_nullhomotopy_failures(K, pr, qr)
        assert expected and nullhomotopy_failures(verify_koszul_identities(K, pr, qr)) == expected, corrupt


def corrupt_right_product_and_d21(K, field):
    cols = K.nichols.right_products[1][0]
    i, j = min((i, j) for j, col in enumerate(cols) for i in col)
    cols[j][i] = field.add(cols[j][i], 1)
    col = K.d(2, 1).columns()[0]
    i = min(col)
    col[i] = field.add(col[i], 1)


def corrupt_d20(K, field):
    col = next(col for col in K.d(2, 0).columns() if col)
    i = min(col)
    col[i] = field.add(col[i], 1)


def corrupt_right_mult(K, field):
    # letter 0 on module degree 0 sends the unit to another degree-1 orbit
    table = list(K.module.right_mult(0, 0))
    table[0] = (table[0] + 1) % K.module.dim(1)
    K.module._products[(0, 0, False)] = tuple(table)


def test_corrupted_derivation_fails_the_d_squared_check(monkeypatch):
    G, c, V = s3_setup()

    def corrupted(V, F):
        # the whole algebra is built first, so the recursion never reads the
        # corrupted entry of d_0 out of degree 2; only the complex does
        data = NicholsData(V, F)
        data.build_to(4)
        cols = data.derivations[2][0]
        i, j = min((i, j) for j, col in enumerate(cols) for i in col)
        cols[j][i] += 1
        return data

    monkeypatch.setattr(koszul, "NicholsData", corrupted)
    with pytest.raises(ComplexIntegrityError, match="d\\^2 != 0"):
        koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)


def test_two_class_multidifferentials():
    G = S3()
    c = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    from braidhom.braided import Cocycle, braided_space

    rack = c.rack
    V = braided_space(rack, Cocycle.constant(rack, 1), epsilon=True, group=G)
    K = koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)
    assert len(K.classes) == 2
    rep = verify_koszul_identities(K, pr=2, qr=2)
    assert rep.anticommute_ok and rep.nullhomotopy_ok
    # total differential splits as the sum of the class differentials
    for q in (0, 1, 2):
        for p in (1, 2):
            assert K.d(p, q) == K.d_i(0, p, q).add(K.d_i(1, p, q), QQ)
    # negative control for the mixed terms: an entry of d_v psi_k, v of class
    # 1, on a dual letter of class 0, which d_1 out of dual degree 1 does not
    # read; corrupting it leaves d_1^2 = 0 but not d_0 d_1 + d_1 d_0, at every
    # module degree that d_1 out of dual degree 2 is written for
    col = next(col for v in K.classes[1] for col in K.nichols.derivations[2][v]
               if any(i in K.classes[0] for i in col))
    i = next(i for i in col if i in K.classes[0])
    col[i] += 1
    rep = verify_koszul_identities(K, pr=2, qr=2)
    assert not rep.anticommute_ok
    assert rep.failures == [f"d_0 d_1 + d_1 d_0 != 0 at (p=2, q={q})" for q in (0, 1)]


def test_class_differentials_are_multigraded():
    # d_i moves one letter of class i from the dual side to the module side:
    # the total multigrade of every entry's endpoints must agree; the second
    # space has two classes
    from braidhom.braided import Cocycle, braided_space

    G, c, V = s3_setup()
    c_all = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    V_all = braided_space(c_all.rack, Cocycle.constant(c_all.rack, 1), epsilon=True, group=G)
    for K in (koszul_complex(V, "R", pmax=4, qmax=4, F=QQ, c=c),
              koszul_complex(V_all, "R", pmax=3, qmax=3, F=QQ, c=c_all)):
        for (ci, p, q), M in class_differentials(K):
            src, tgt = koszul._term_grades(K, p, q), koszul._term_grades(K, p - 1, q + 1)
            assert len(src) == M.cols and len(tgt) == M.rows
            before, after = K.module.grades[q], K.module.grades[q + 1]
            for (row, col) in M.entries:
                assert src[col] == tgt[row], (ci, p, q)
                # d_ci moves one letter of class ci from the dual side to the module side
                moved = [b - a for a, b in zip(before[col % len(before)], after[row % len(after)])]
                assert moved == [int(i == ci) for i in range(len(K.classes))], (ci, p, q)


def letter_product(labels, word, e):
    """The left-to-right product of the labels of a word's letters, from e."""
    for a in word:
        e = pmul(e, labels[a])
    return e


def group_grade_spaces():
    """(name, class set, sign-twisted space, pmax, qmax) with a group grading."""
    from braidhom.braided import Cocycle, braided_space
    from braidhom.cli import builtin_group, class_selector

    for group, classes, pmax, qmax in (("S3", "transpositions", 4, 4), ("S4", "transpositions", 3, 3),
                                       ("D4", "2+2", 3, 4), ("D4", "all", 2, 3), ("A4", "3-cycles", 2, 3),
                                       ("S5", "transpositions", 2, 2)):
        G = builtin_group(group)
        c = class_selector(G, classes)
        V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
        yield f"{group} {classes}", c, V, pmax, qmax


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_class_differentials_preserve_the_group_grade(field):
    # term psi_k (x) o has grade deg(o) deg(psi_k), deg the letter product,
    # and every entry of every d_i joins two terms of one grade: for R, every
    # stratum and every subgroup pair
    for name, c, V, pmax, qmax in group_grade_spaces():
        for spec in ["R"] + [(kind, H) for H in subgroup_lattice(c) for kind in ("exact", "sub")]:
            K = koszul_complex(V, spec, pmax=pmax, qmax=qmax, F=field, c=c)
            e = identity_perm(K.V.group.degree)
            mod = {q: [letter_product(K.module.rack.labels, w, e) for w in words]
                   for q, words in K.module.basis_words.items()}
            dual = {p: [letter_product(K.V.rack.labels, w, e) for w in K.nichols.pivot_words(p)]
                    for p in range(K.pmax + 1)}
            grades = {(p, q): [pmul(o, psi) for psi in dual[p] for o in mod[q]] for p in dual for q in mod}
            for (ci, p, q), M in class_differentials(K):
                src, tgt = grades[p, q], grades[p - 1, q + 1]
                assert len(src) == M.cols and len(tgt) == M.rows
                for col, column in enumerate(M.columns()):
                    for row in column:
                        assert src[col] == tgt[row], (name, spec, ci, p, q)


def check_grading_against_oracles(c, pmax, qmax):
    # every grade the tables give is the element index of the letter product
    # that `word_degree` composes, and a term's grade the index of
    # deg(o) deg(psi); in a non-abelian group a left/right slip changes it
    G = c.parent
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    K = koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=GF(5), c=c)
    grading, index = K._grading, G.elements.index
    assert sorted(grading.dual) == list(range(K.pmax + 1))
    for p in grading.dual:
        assert grading.dual[p] == [index(V.word_degree(w)) for w in K.nichols.pivot_words(p)], p
    assert sorted(grading.mod) == sorted(K.module.basis_words)
    for q, words in K.module.basis_words.items():
        assert grading.mod[q] == [index(V.word_degree(w)) for w in words], q
    for p in grading.dual:
        for q in grading.mod:
            assert grading.term_grades(p, q) == [index(pmul(G.elements[o], G.elements[psi]))
                                                 for psi in grading.dual[p] for o in grading.mod[q]], (p, q)
    assert grading.classes == conjugacy_partition(G)


@settings(max_examples=25, deadline=None)
@given(small_class_sets())
def test_group_grades_match_letter_products(group_and_classes):
    _, c = group_and_classes
    check_grading_against_oracles(c, pmax=2, qmax=3)


def test_group_grades_match_letter_products_on_s5():
    check_grading_against_oracles(class_selector(builtin_group("S5"), "transpositions"), pmax=3, qmax=3)


def summed_assembly(K):
    """The class differentials and d of K as assembly formed them before it
    wrote each entry once: every column (k, o) accumulated over the letters
    of its class and reduced over F, and d the `SparseMatrix.add` of the
    class matrices of each (p, q), class 0 first.  The oracle of
    `KoszulComplex._assemble`; returns ({(ci, p, q): d_ci}, {(p, q): d}),
    without d(pmax, qmax - 1) when pmax is a truncation boundary, which
    assembly leaves out."""
    F, dcols = K.F, K.nichols.derivations
    d_class, d = {}, {}
    for q in range(K.qmax):
        rmult = [K.module.right_mult(v, q) for v in range(K.V.rack.size)]
        nq_src, nmod_t = K.module.dim(q), K.module.dim(q + 1)
        for p in range(1, K.pmax + 1):
            if (p, q) == (K.pmax, K.qmax - 1) and not K.top_reached:
                continue
            for ci, letters in enumerate(K.classes):
                cols = []
                for k in range(K.nichols.dim(p)):
                    for o in range(nq_src):
                        acc = {}
                        for v in letters:
                            o2 = rmult[v][o]
                            if o2 is None:
                                continue
                            for i, val in dcols[p][v][k].items():
                                row = i * nmod_t + o2
                                acc[row] = acc.get(row, 0) + val
                        cols.append(F.reduced(acc))
                M = d_class[(ci, p, q)] = SparseMatrix._trusted(K.dim(p - 1, q + 1), cols)
                d[(p, q)] = M if ci == 0 else d[(p, q)].add(M, F)
    return d_class, d


def is_field_scalar(F, v) -> bool:
    """Whether v is a nonzero scalar of F as the package stores it: an int in
    [1, p) over F_p; over Q an int, or a Fraction that is not integral."""
    if F.characteristic:
        return v.__class__ is int and 0 < v < F.characteristic
    return (v.__class__ is int and v != 0) or (v.__class__ is Fraction and v.denominator != 1)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_assembly_matches_the_summed_oracle(field):
    # every column written once equals the column summed and reduced, for R
    # and every stratum and subgroup pair; d equals the sum of the d_i
    for name, c, V, pmax, qmax in group_grade_spaces():
        for spec in ["R"] + [(kind, H) for H in subgroup_lattice(c) for kind in ("exact", "sub")]:
            K = koszul_complex(V, spec, pmax=pmax, qmax=qmax, F=field, c=c)
            d_class, d = summed_assembly(K)
            assert dict(class_differentials(K)) == d_class, (name, spec)
            assert {key: K.d(*key) for key in d} == d, (name, spec)
            for M in [*dict(class_differentials(K)).values(), *(K.d(*key) for key in d)]:
                assert all(is_field_scalar(field, v) for col in M.columns() for v in col.values()), (name, spec)


# sign-twisted spaces with two or more letter classes, each with the largest
# pmax and qmax the property test draws
MULTI_CLASS_SPACES = [("A4", "3-cycles", 3, 4), ("D4", "all", 3, 4), ("D4", "2+2", 3, 4), ("S3", "all", 3, 4),
                      ("S4", "all", 2, 3)]


@st.composite
def multi_class_windows(draw):
    """(group, classes, pmax, qmax, field) for a space of MULTI_CLASS_SPACES."""
    group, classes, pmax, qmax = draw(st.sampled_from(MULTI_CLASS_SPACES))
    return group, classes, draw(st.integers(1, pmax)), draw(st.integers(1, qmax)), draw(st.sampled_from([QQ, GF(5)]))


@settings(max_examples=40, deadline=None)
@given(multi_class_windows())
def test_class_differentials_sum_to_the_one_kept_d(window):
    # the complex keeps d, and only d, once per assembled term; each d_i,
    # written on demand, is the summed oracle's class matrix, and they sum to d
    group, classes, pmax, qmax, field = window
    G = builtin_group(group)
    c = class_selector(G, classes)
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    K = koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=field, c=c)
    assert len(K.classes) >= 2
    terms = sorted((p, q) for q in range(qmax) for p in range(1, K.pmax + 1)
                   if K.top_reached or (p, q) != (K.pmax, qmax - 1))
    attributes = dict(vars(K))
    assert sorted(K._d) == terms
    assert all(K.diagonals[p + q].diff[p] is K.d(p, q) for p, q in terms)
    assert {name for name, value in attributes.items()
            if isinstance(value, dict) and any(isinstance(M, SparseMatrix) for M in value.values())} <= {"_d"}
    d_class = summed_assembly(K)[0]
    for p, q in terms:
        total = SparseMatrix.zero(K.dim(p - 1, q + 1), K.dim(p, q))
        for ci in range(len(K.classes)):
            M = K.d_i(ci, p, q)
            assert M == d_class[(ci, p, q)], (ci, p, q)
            total = total.add(M, field)
        assert total == K.d(p, q), (p, q)
    # reading every d_i kept nothing more
    assert vars(K) == attributes and sorted(K._d) == terms


class LineModule(FilteredModule):
    """k[t] over the orbit ring, through the ring map sending an orbit of n
    letters to t^n: one basis vector per degree, which every letter
    multiplies to the next, so all letters reach one orbit."""

    def _mult(self, letter, q, left):
        return (0,) * self.dim(q)


def line_complex(classes, field):
    """The complex of S3's space on `classes` (sign-twisted) with `LineModule`."""
    G = builtin_group("S3")
    c = class_selector(G, classes)
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    module = LineModule("line", {q: [0] for q in range(4)}, list(range(c.rack.size)), c.rack, c.class_of)
    return KoszulComplex(V, module, 2, 3, field)


def meet_in_one_column(K, a, b, field):
    """Give letters a and b, and no other letter, two rows of d_v psi_0 out of
    dual degree 2, with scalars that cancel on row 0 and add on row 1, and
    assemble K again.  The derivations of distinct letters land in distinct
    G-grades, so no Nichols algebra gives such a pair: it is made by hand."""
    derivs = K.nichols.derivations[2]
    for v in range(K.V.rack.size):
        derivs[v][0] = {}
    derivs[a][0] = {0: 1, 1: 2}
    derivs[b][0] = {0: field.neg(1), 1: 2}
    K._assemble()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_two_letters_of_one_class_meeting_in_a_column_are_refused(field):
    # on the line module every letter reaches one orbit, so the letters meet
    # wherever their derivations share a row; the real derivations share none
    K = line_complex("transpositions", field)
    assert dict(class_differentials(K)) == summed_assembly(K)[0]
    with pytest.raises(ComplexIntegrityError, match=r"^p=2, q=0, k=0: two letters meet in one entry"):
        meet_in_one_column(K, 0, 1, field)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_two_classes_meeting_in_d_are_refused(field):
    # the letters meet in d but in no d_i, and the one count of d, written
    # from every letter, finds them; each d_i alone is still written
    K = line_complex("all", field)
    assert len(K.classes) == 2
    a, b = K.classes[0][0], K.classes[1][0]
    with pytest.raises(ComplexIntegrityError, match=r"^p=2, q=0, k=0: two letters meet in one entry"):
        meet_in_one_column(K, a, b, field)
    assert K.d_i(0, 2, 0).columns()[0] == {0: 1, 1: 2}
    assert K.d_i(1, 2, 0).columns()[0] == {0: field.neg(1), 1: 2}


def test_multigrade_refinement_consistent():
    G = S3()
    c = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    from braidhom.braided import Cocycle, braided_space

    rack = c.rack
    V = braided_space(rack, Cocycle.constant(rack, 1), epsilon=True, group=G)
    K = koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)
    coarse = koszul_homology(K)
    fine = koszul_homology(K, by_multigrade=True)
    sums = {}
    for key, r in fine.items():
        sums[key[:2]] = sums.get(key[:2], 0) + r
    assert sums == dict(coarse.items())


def test_multigrade_split_rejects_a_cross_grade_entry():
    # one entry of d between two multigrades, added after construction, must
    # not vanish from the multigrade blocks
    G, c, V = d4_double_transposition_space()
    K = koszul_complex(V, "R", pmax=3, qmax=4, F=GF(5), c=c)
    assert koszul_homology(K, by_multigrade=True)
    M = K.diagonals[1].diff[1]
    src, tgt = koszul._term_grades(K, 1, 0), koszul._term_grades(K, 0, 1)
    j, i = next((j, i) for j in range(M.cols) for i in range(M.rows)
                if src[j] != tgt[i] and i not in M.columns()[j])
    M.columns()[j][i] = 1
    with pytest.raises(ComplexIntegrityError, match=rf"s=1: entry \(row {i}, column {j}\) of d_1 joins grade "):
        koszul_homology(K, by_multigrade=True)


def unsplit_homology(K):
    """The nonzero homology ranks of K's window, each read off its whole
    diagonal rebuilt as a plain complex: the oracle of the rank plan."""
    pmax, qmax = K.homology_pmax(), K.qmax - 1
    table = {}
    for s in range(pmax + qmax + 1):
        whole = GradedComplex(dict(K.diagonals[s].dims), dict(K.diagonals[s].diff), K.F)
        for p in range(max(0, s - qmax), min(pmax, s) + 1):
            if whole.homology_rank(p):
                table[(p, s - p)] = whole.homology_rank(p)
    return table


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_rank_plan_matches_the_unsplit_diagonals(field):
    # R and every subgroup pair rank one G-grade block per conjugacy class,
    # weighted by the class size; a stratum ranks whole diagonals
    for name, c, V, pmax, qmax in group_grade_spaces():
        for spec in ["R"] + [(kind, H) for H in subgroup_lattice(c) for kind in ("exact", "sub")]:
            K = koszul_complex(V, spec, pmax=pmax, qmax=qmax, F=field, c=c)
            assert dict(koszul_homology(K).items()) == unsplit_homology(K), (name, spec)
            plans = {s: K.rank_plan(s) for s in K.diagonals}
            for s, plan in plans.items():
                for p in K.diagonals[s].degrees:
                    assert sum(mult * cx.dim(p) for cx, mult in plan) == K.diagonals[s].dim(p)
            whole = all(plan == [(K.diagonals[s], 1)] for s, plan in plans.items())
            assert whole == (spec != "R" and spec[0] == "exact"), (name, spec)
            if spec == "R":
                assert any(mult > 1 for plan in plans.values() for _, mult in plan), name


def test_a_cocycle_that_conjugation_moves_takes_the_one_block_plan():
    # f is not constant on the transpositions of S3, so conjugation moves the
    # cocycle x_ab = f(a) f(a^b) and no class of grades is merged.  d squares
    # to zero only with a constant coefficient, so pmax = 1 keeps one
    # differential per diagonal
    G = builtin_group("S3")
    c = class_selector(G, "transpositions")
    for f, split in (([1, 1, -1], False), ([-1, -1, -1], True)):
        V = coboundary_space(G, c, f, epsilon=True)
        K = koszul_complex(V, "R", pmax=1, qmax=4, F=GF(5), c=c)
        assert all((K.rank_plan(s) == [(K.diagonals[s], 1)]) != split for s in K.diagonals), f
        assert dict(koszul_homology(K).items()) == unsplit_homology(K), f


def s4_full_ring(pmax=3, qmax=4):
    G, c, _ = s4_transposition_setup()
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    return koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=GF(5), c=c)


@pytest.mark.parametrize("representative", [True, False], ids=["representative", "other"])
def test_group_grade_split_rejects_a_cross_grade_entry(representative):
    # an entry of d between two G-grades, added after construction, is refused
    # whether or not its column's grade is the one ranked for its class
    K = s4_full_ring()
    reps = {cls[0] for cls in K._grading.classes}
    M = K.diagonals[2].diff[1]
    src, tgt = K._grading.term_grades(1, 1), K._grading.term_grades(0, 2)
    j, i = next((j, i) for j in range(M.cols) for i in range(M.rows)
                if (src[j] in reps) == representative and src[j] != tgt[i] and i not in M.columns()[j])
    M.columns()[j][i] = 1
    with pytest.raises(ComplexIntegrityError, match=rf"diagonal s=2: entry \(row {i}, column {j}\) of d_1 "
                                                    rf"joins grade {src[j]} to grade {tgt[i]}$"):
        koszul_homology(K)


def test_rank_plan_refuses_a_class_of_unequal_blocks():
    # classes come from conjugation, which keeps block dimensions; merging
    # two grades of different dimensions into one class must be refused, not
    # weighted
    K = s4_full_ring()
    K._grading.classes = [[x for cls in K._grading.classes for x in cls]]
    with pytest.raises(ComplexIntegrityError, match="diagonal s=0: the grades in the class of grade 0 have "):
        koszul_homology(K)


def test_koszul_homology_keeps_no_block_of_a_rank_plan():
    # each diagonal keeps its {p: rank} table; the G-grade blocks split off
    # for its plan are freed once ranked
    K = s4_full_ring()
    refs = []
    plan = K.rank_plan

    def recorded_plan(s):
        entries = plan(s)
        refs.extend(weakref.ref(cx) for cx, _ in entries if cx is not K.diagonals[s])
        return entries

    K.rank_plan = recorded_plan
    koszul_homology(K)
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_each_diagonal_is_split_once_however_many_terms_are_asked(monkeypatch):
    K = s4_full_ring()
    splits = []
    split = GradedComplex.split

    def counted_split(cx, grades, keep=None):
        splits.append(next(s for s, diagonal in K.diagonals.items() if diagonal is cx))
        return split(cx, grades, keep)

    monkeypatch.setattr(GradedComplex, "split", counted_split)
    terms = [(p, q) for p in range(K.homology_pmax() + 1) for q in range(K.qmax)]
    first = [K.homology_rank(p, q) for p, q in terms]
    assert [K.homology_rank(p, q) for p, q in reversed(terms)] == first[::-1]
    assert sorted(splits) == sorted({p + q for p, q in terms})


def test_identities_read_the_grades_the_plan_leaves_out():
    # a changed entry of d in a grade that no plan block copies leaves the
    # ranks as they were, and the identity checks still see it
    K = s4_full_ring()
    before = koszul_homology(K)
    assert verify_koszul_identities(K).ok
    p, q = 2, 1
    src = K._grading.term_grades(p, q)
    reps = {cls[0] for cls in K._grading.classes}
    col = next(col for j, col in enumerate(K.d(p, q).columns()) if col and src[j] not in reps)
    i = next(iter(col))
    col[i] = 2 * col[i] % 5
    K._ranks.clear()
    assert koszul_homology(K) == before
    rep = verify_koszul_identities(K)
    # d(2, 1) feeds the nullhomotopy identity at p = 1; it is d_0 (one
    # class), so check (a) leaves its square to the d^2 check of diagonal 3,
    # which reads every grade
    assert not rep.nullhomotopy_ok
    with pytest.raises(ComplexIntegrityError, match="d\\^2 != 0 between degrees 2 and 0"):
        K.diagonals[3].check_complex()


def test_sub_pair_complex():
    G, c, V = s3_setup()
    lat = subgroup_lattice(c)
    H = lat.subgroups[0]
    K = koszul_complex(V, ("sub", H), pmax=3, qmax=6, F=QQ, c=c)
    # the pair (Z/2, involution) gives an acyclic complex away from (0, 0)
    table = koszul_homology(K)
    assert table.items() == [((0, 0), 1)]


def test_spectral_sum_dominates_total():
    G, c, V = s3_setup()
    lat = subgroup_lattice(c)
    window_p, window_q = 3, 5

    def windowed(K):
        return {key: r for key, r in koszul_homology(K).items() if key[0] <= window_p and key[1] <= window_q}

    total = windowed(koszul_complex(V, "R", pmax=4, qmax=7, F=QQ, c=c))
    strata_sum = {}
    for H in lat:
        for key, r in windowed(koszul_complex(V, ("exact", H), pmax=4, qmax=7, F=QQ, c=c)).items():
            strata_sum[key] = strata_sum.get(key, 0) + r
    # module degree 0 lives on the empty word, whose trivial monodromy is
    # outside the lattice; the comparison is meaningful for q >= 1
    for key, r in total.items():
        if key[1] >= 1:
            assert strata_sum.get(key, 0) >= r, key
    assert sum(v for k, v in strata_sum.items() if k[1] >= 1) >= \
        sum(r for k, r in total.items() if k[1] >= 1)


def test_s4_stabilization_and_stratum_vanishing():
    # the larger window named by the stabilization contract: transpositions in
    # S4 stabilize at q = 5 inside a window of 6, and the full-monodromy
    # stratum's homology vanishes well before the stabilized range
    from braidhom.hurwitz import stabilization_thresholds

    S4, c, V = s4_transposition_setup()
    full = frozenset(S4.elements)
    K = koszul_complex(V, ("exact", full), pmax=2, qmax=7, F=QQ, c=c)
    table = koszul_homology(K)
    assert dict(table.items()) == {(0, 3): 6, (1, 3): 25}
    rep = stabilization_thresholds(c, 0, 6)
    assert rep.stabilized and rep.observed == 5


def test_truncation_boundary_needs_no_extra_nichols_degree():
    # B(V) for S4 transpositions is nonzero in degree 4, so dual degree 3 is a
    # truncation boundary; finding that out builds no fourth Nichols degree
    S4, c, V = s4_transposition_setup()
    K = koszul_complex(V, "R", pmax=3, qmax=4, F=QQ, c=c)
    koszul_homology(K)
    verify_koszul_identities(K, pr=3, qr=2)
    assert sorted(K.nichols.pivots) == [0, 1, 2, 3]
    assert K.homology_pmax() == 2
    # S3's algebra vanishes in degree 5, so degree 4 is genuine
    G, c, V = s3_setup()
    H = subgroup_lattice(c).subgroups[3]
    assert koszul_complex(V, ("exact", H), pmax=4, qmax=8, F=QQ, c=c).homology_pmax() == 4
    # on the full ring at pmax 4 the test of degree 5 sweeps every column of a
    # zero symmetrizer; at pmax 6 the zero degree 5 is found below pmax.  In
    # neither case is a degree past the assembled pmax built
    for pmax in (4, 6):
        K = koszul_complex(V, "R", pmax=pmax, qmax=5, F=QQ, c=c)
        koszul_homology(K)
        verify_koszul_identities(K)
        assert K.pmax == 4 and K.top_reached and K.homology_pmax() == 4
        assert sorted(K.nichols.pivots) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("classes, pmax, qmax, top_reached", [
    ("transpositions", 2, 2, False),
    ("transpositions", 3, 4, False),
    ("transpositions", 5, 3, True),
    ("all", 2, 3, False),
])
def test_size_count_is_the_stored_count_on_the_full_ring(classes, pmax, qmax, top_reached):
    # the size guard counts dim M_q times the derivation entries over the
    # assembled terms only, not over d(pmax, qmax - 1) at a truncation
    # boundary; on the full ring every product o v lies in the module, so
    # the count is the number of entries d stores
    G = builtin_group("S3")
    c = class_selector(G, classes)
    V = braided_space(c.rack, Cocycle.constant(c.rack, 1), epsilon=True, group=G)
    K = koszul_complex(V, "R", pmax=pmax, qmax=qmax, F=GF(5), c=c)
    assert K.top_reached == top_reached and (K._skipped is None) == top_reached
    assert K._entry_bound() == sum(M.nnz for M in K._d.values())


def test_generator_counts():
    G, c, V = s3_setup()
    counts = generator_counts(V, 3, QQ, qmax=8, c=c)
    assert counts == [0, 0, 1, 0]
    # the crude cardinality bound from the proof shape
    from braidhom.hurwitz import rack_orbits

    mu = 8
    total_r = sum(len(rack_orbits(V.rack, q)) for q in range(mu + 1))
    for j, cnt in enumerate(counts):
        assert cnt <= (3 ** (1 + j)) * total_r


def test_generator_counts_rank_one():
    eps = rank_one_space(-1)
    for F in (QQ, F2):
        assert generator_counts(eps, 3, F, qmax=6) == [0, 0, 0, 0]


def test_generator_counts_insufficient_window():
    G, c, V = s3_setup()
    with pytest.raises(ValueError, match="increase qmax"):
        generator_counts(V, 3, QQ, qmax=3, c=c)


def test_missing_degree_error():
    G, c, V = s3_setup()
    # homology at q = qmax needs module degree qmax + 1 wherever d leaves the term
    K = koszul_complex(V, "R", pmax=5, qmax=3, F=QQ, c=c)
    wide = koszul_complex(V, "R", pmax=5, qmax=6, F=QQ, c=c)
    for p in (1, 2, 3):
        with pytest.raises(ValueError, match="increase qmax"):
            K.homology_rank(p, 3)
    assert [wide.homology_rank(p, 3) for p in (1, 2, 3)] == [0, 0, 1]
    assert K.homology_rank(0, 3) == wide.homology_rank(0, 3)
    for p, q in ((0, 4), (5, 0), (-1, 1)):
        with pytest.raises(ValueError, match="outside the assembled degrees"):
            K.homology_rank(p, q)


def test_module_on_another_rack_is_refused():
    # S4 transpositions and S4 4-cycles are racks of one size, 6; a space on
    # the first paired with a stratum of the second is refused, not assembled
    from braidhom.cli import class_selector

    S4, c, V = s4_transposition_setup()
    four_cycles = class_selector(S4, "4-cycles")
    assert len(four_cycles) == len(c)
    with pytest.raises(ValueError, match="different racks"):
        koszul_complex(V, ("exact", frozenset(S4.elements)), pmax=2, qmax=3, F=QQ, c=four_cycles)
