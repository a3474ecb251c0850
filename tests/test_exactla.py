from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.exactla import (
    GF,
    QQ,
    FieldMismatchError,
    RankTable,
    SparseMatrix,
    _coerced,
    _content_free,
    _eliminate,
    _elimination_rows,
    _int_pivot_step,
    cycles_map_to_boundaries,
    independent_rows,
    inverse,
    products_vanish,
    rank,
    rref,
)
from braidhom import koszul
from braidhom.braided import braid_word_action
from braidhom.fnf import GradedComplex, TensorSystem, complex_for_system
from braidhom.nichols import skew_derivation
from braidhom.orbits import block_plan
from braidhom.qsa import bar_chains
from braidhom.shuffle import quantum_symmetrizer
from tests.oracles import kernel_basis, pivot_columns, twisted_right_mult
from tests.test_braided import S3, s3_transposition_space, transpositions
from tests.test_fnf import local_systems, small_rack_spaces

F2 = GF(2)


def test_field_kinds():
    assert QQ.characteristic == 0 and GF(5).characteristic == 5
    with pytest.raises(ValueError):
        GF(6)


def test_field_convert():
    assert GF(5).convert(-3) == 2
    assert GF(5).convert(Fraction(1, 2)) == 3
    assert QQ.convert(7) == Fraction(7)
    with pytest.raises(FieldMismatchError):
        GF(5).convert(Fraction(1, 5))


def test_rational_scalars_are_int_unless_non_integral():
    assert type(QQ.convert(Fraction(3))) is int and QQ.convert(Fraction(3)) == 3
    assert type(QQ.convert(-4)) is int
    assert QQ.convert(Fraction(2, 3)) == Fraction(2, 3)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(FieldMismatchError):
        QQ.convert(0.5)


def test_rank_zero_and_identity():
    assert rank(SparseMatrix.zero(3, 3), QQ) == 0
    assert rank(SparseMatrix.identity(3), QQ) == 3
    assert rank(SparseMatrix.identity(3), F2) == 3


def test_rank_mod2_all_ones():
    M = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert rank(M, F2) == 1
    assert rank(M, QQ) == 1


def test_rank_with_fractions():
    M = SparseMatrix(2, 3, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-2, 7), (0, 2): 5})
    assert rank(M, QQ) == 2


@pytest.mark.parametrize("F, bad", [(QQ, 0.5), (GF(5), Fraction(2, 5))])
def test_elimination_rejects_entries_outside_the_field(F, bad):
    # a float is no rational scalar, and 2/5 has no value mod 5; the entries
    # before the bad one are valid, and the matrix is left as it was
    M = SparseMatrix(2, 3, {(0, 0): 1, (0, 2): Fraction(1, 3), (1, 1): bad, (1, 2): -1})
    before = dict(M.entries)
    for eliminate in (rank, pivot_columns, rref):
        with pytest.raises(FieldMismatchError):
            eliminate(M, F)
        assert M.entries == before


@st.composite
def pivot_and_target_rows(draw):
    """(prow, pc, r): integer rows over up to 8 columns, both nonzero in
    column pc.  The pivot is +-1 or 2 or -3, and prow is then multiplied by 1,
    2 or 3, so that some non-unit pivots become units once divided by their
    content."""
    c = draw(st.integers(1, 8))
    pc = draw(st.integers(0, c - 1))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6])
    prow = {j: v for j in range(c) if (v := draw(entry))}
    prow[pc] = draw(st.sampled_from([1, -1, 1, -1, 2, -3]))
    content = draw(st.sampled_from([1, 1, 2, 3]))
    prow = {j: content * v for j, v in prow.items()}
    r = {j: v for j in range(c) if (v := draw(entry))}
    r[pc] = draw(st.sampled_from([1, -1, 2, -3, 6]))
    return prow, pc, r


def bareiss_update(prow, pc, r):
    """prow[pc] r - r[pc] prow divided by the gcd of its entries, built from
    scratch."""
    new = {j: v for j in sorted(set(prow) | set(r)) if (v := prow[pc] * r.get(j, 0) - r[pc] * prow.get(j, 0))}
    g = gcd(*new.values())
    return {j: v // g for j, v in new.items()}


@settings(max_examples=200, deadline=None)
@given(pivot_and_target_rows())
def test_unit_pivot_update_is_a_multiple_of_the_general_update(case):
    prow, pc, r = case
    expected = bareiss_update(prow, pc, r)
    pivot = dict(prow)
    row = dict(r)
    # supports of row 0 (the target) and of row 1, which the update must
    # leave as they are
    col_rows = [{0, 1} if j in r else {1} for j in range(max(prow.keys() | r.keys()) + 1)]
    out = _int_pivot_step(pivot, pc, col_rows)(row, 0)
    for j in prow.keys() | r.keys():
        assert (0 in col_rows[j]) == (j in out), j
    assert all(1 in s for s in col_rows)
    # the pivot row is at most divided by its content
    assert pivot.keys() == prow.keys()
    assert {Fraction(prow[j], pivot[j]) for j in prow} == {gcd(*prow.values())}
    assert out.keys() == expected.keys()
    assert len({Fraction(out[j], expected[j]) for j in expected}) <= 1
    if pivot[pc] in (1, -1):
        # updated in place, with no division by its content
        assert out is row
    else:
        assert out == expected


def three_term(d_in, d_out):
    """The complex C_2 -> C_1 -> C_0 with d_2 = d_in and d_1 = d_out."""
    return GradedComplex({0: d_out.rows, 1: d_out.cols, 2: d_in.cols}, {1: d_out, 2: d_in}, QQ)


def test_homology_rank_examples():
    # both maps zero on a 5-dim space
    assert three_term(SparseMatrix.zero(5, 0), SparseMatrix.zero(0, 5)).homology_rank(1) == 5
    # exact: d_in the identity
    assert three_term(SparseMatrix.identity(5), SparseMatrix.zero(0, 5)).homology_rank(1) == 0
    # 0 -> k -> k^2 -> k -> 0 with d_in = (1,0)^T, d_out = (0,1)
    d_in = SparseMatrix(2, 1, {(0, 0): 1})
    d_out = SparseMatrix(1, 2, {(0, 1): 1})
    assert three_term(d_in, d_out).homology_rank(1) == 0


@st.composite
def small_int_matrices(draw):
    r = draw(st.integers(1, 5))
    c = draw(st.integers(1, 5))
    ent = {}
    for i in range(r):
        for j in range(c):
            v = draw(st.integers(-4, 4))
            if v:
                ent[(i, j)] = v
    return SparseMatrix(r, c, ent)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_rank_transpose_invariant(M):
    assert rank(M, QQ) == rank(M.transpose(), QQ)
    assert rank(M, F2) == rank(M.transpose(), F2)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices(), st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_at_most_rational(M, p):
    assert rank(M, QQ) >= rank(M, GF(p))


def dense_rref(M, p):
    """Reduced row echelon form by dense Gauss-Jordan elimination on a full
    table, over Q when p == 0 and over F_p otherwise; returns (the nonzero
    rows as {col: value} dicts, the pivot columns).  Shares no code with the
    sparse kernel."""

    def scalar(v):
        v = Fraction(v)
        if p == 0:
            return v
        return v.numerator * pow(v.denominator, -1, p) % p

    zero = Fraction(0) if p == 0 else 0
    table = [[zero] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        table[i][j] = scalar(v)
    pivots = []
    for col in range(M.cols):
        r = len(pivots)
        piv = next((i for i in range(r, M.rows) if table[i][col] != 0), None)
        if piv is None:
            continue
        table[r], table[piv] = table[piv], table[r]
        inv = 1 / table[r][col] if p == 0 else pow(table[r][col], -1, p)
        table[r] = [a * inv % p if p else a * inv for a in table[r]]
        for i in range(M.rows):
            f = table[i][col]
            if i != r and f != 0:
                table[i] = [a - f * b for a, b in zip(table[i], table[r])]
                if p:
                    table[i] = [a % p for a in table[i]]
        pivots.append(col)
    rows = [{j: a for j, a in enumerate(table[i]) if a != 0} for i in range(len(pivots))]
    return rows, pivots


def dense_rank(M, p):
    """Rank by dense Gauss-Jordan elimination: the pivot count of `dense_rref`."""
    return len(dense_rref(M, p)[1])


INT_VALUES = [1, -1, 2, -3, 4, 5, -6]
FRACTION_VALUES = [Fraction(1, 7), Fraction(-3, 11), Fraction(5, 13), 1, -2]


@st.composite
def sparse_matrices_with_fill_in(draw):
    """Up to 15x15, with zeros 1-5 times as likely as a nonzero value, and some
    rows that are combinations of earlier ones, so elimination both fills in
    and cancels rows to zero.  Denominators avoid 2, 3 and 5."""
    r0 = draw(st.integers(1, 12))
    c = draw(st.integers(1, 15))
    zeros = draw(st.integers(1, 5))
    values = draw(st.sampled_from([INT_VALUES, FRACTION_VALUES]))
    cell = st.sampled_from([0] * (zeros * len(values)) + values)
    rows = [[draw(cell) for _ in range(c)] for _ in range(r0)]
    for _ in range(draw(st.integers(0, 15 - r0))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        x, y = draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([1, -1, 3]))
        rows.insert(draw(st.integers(0, len(rows))), [x * u + y * v for u, v in zip(rows[a], rows[b])])
    return SparseMatrix(len(rows), c, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


@settings(max_examples=150, deadline=None)
@given(sparse_matrices_with_fill_in())
def test_rank_matches_dense_elimination(M):
    assert rank(M, QQ) == dense_rank(M, 0)
    for p in (2, 3, 5):
        assert rank(M, GF(p)) == dense_rank(M, p), p


@settings(max_examples=150, deadline=None)
@given(sparse_matrices_with_fill_in())
def test_rref_pivots_and_kernel_match_dense_ranks(M):
    # a column is a pivot exactly when it raises the rank of the columns before it
    def leading(j):
        return SparseMatrix(M.rows, j, {(i, k): v for (i, k), v in M.entries.items() if k < j})

    for F, p in ((QQ, 0), (GF(2), 2), (GF(3), 3), (GF(5), 5)):
        r = dense_rank(M, p)
        ranks = [dense_rank(leading(j), p) for j in range(M.cols + 1)]
        rows, pivots = rref(M, F)
        assert pivots == [j for j in range(M.cols) if ranks[j + 1] > ranks[j]], p
        dense_rows, dense_pivots = dense_rref(M, p)
        assert pivots == dense_pivots and pivot_columns(M, F) == dense_pivots, p
        assert rows == dense_rows, p
        ker = kernel_basis(M, F)
        assert len(ker) == M.cols - r, p
        for vec in ker:
            assert M.apply(vec, F) == {}, p


def test_homology_invariant_under_permutation():
    # permuting the middle basis leaves the homology rank unchanged
    d_in = SparseMatrix(3, 2, {(0, 0): 1, (1, 0): 2, (2, 1): 3})
    d_out = SparseMatrix(1, 3, {(0, 0): 2, (0, 1): -1})
    base = three_term(d_in, d_out).homology_rank(1)
    perm = [2, 0, 1]
    d_in2 = SparseMatrix(3, 2, {(perm[i], j): v for (i, j), v in d_in.entries.items()})
    d_out2 = SparseMatrix(1, 3, {(i, perm[j]): v for (i, j), v in d_out.entries.items()})
    assert three_term(d_in2, d_out2).homology_rank(1) == base


def test_kernel_and_column_space():
    M = SparseMatrix(2, 3, {(0, 0): 1, (0, 1): 1, (1, 2): 1})
    ker = kernel_basis(M, QQ)
    assert len(ker) == 1
    for vec in ker:
        assert M.apply(vec, QQ) == {}


def two_rank_column_space_contains(M, vec, F):
    """Oracle: vec lies in the column space of M when it leaves the rank unchanged."""
    aug = SparseMatrix.from_columns(M.rows, M.columns() + [dict(vec)])
    return rank(aug, F) == rank(M, F)


@st.composite
def chain_pairs(draw):
    """(F, d_in, d_out, vectors) with d_out d_in = 0: d_out is random, and zero
    in some draws; each column of d_in is a random combination of
    `kernel_basis(d_out)`.  `vectors` pairs each of d_in and d_out with
    vectors inside its column space (images of random vectors) and outside
    it (an inside vector plus a unit vector e_i with y_i != 0 for some y in
    the left kernel), each tagged with its expected membership."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    F = QQ if p == 0 else GF(p)
    values = draw(st.sampled_from([INT_VALUES, FRACTION_VALUES]))
    cell = st.sampled_from([0] * (draw(st.integers(1, 4)) * len(values)) + values)
    k, m, c = draw(st.integers(0, 6)), draw(st.integers(1, 9)), draw(st.integers(0, 6))
    if draw(st.integers(0, 4)) == 0:
        d_out = SparseMatrix.zero(k, m)
    else:
        d_out = SparseMatrix(k, m, {(i, j): draw(cell) for i in range(k) for j in range(m)})
    ker = kernel_basis(d_out, F)
    coeff = st.sampled_from([0, 0, 1, -1, 2, Fraction(-3, 7)])
    cols = []
    for _ in range(c):
        col = {}
        for kv in ker:
            a = F.convert(draw(coeff))
            for i, v in kv.items():
                col[i] = F.add(col.get(i, F.zero), F.mul(a, v))
        cols.append(col)
    d_in = SparseMatrix.from_columns(m, cols)
    vectors = []
    for M in (d_in, d_out):
        inside = M.apply({j: draw(cell) for j in range(M.cols)}, F)
        vectors.append((M, inside, True))
        for y in kernel_basis(M.transpose(), F):
            i = draw(st.sampled_from(sorted(y)))
            vectors.append((M, {**inside, i: F.add(inside.get(i, F.zero), F.one)}, False))
    return F, d_in, d_out, vectors


def modp_pivot_step(p):
    """The row update over F_p of the oracle below, which rewrites the row
    and leaves its supports to the caller."""

    def pivot_step(prow: dict, pc: int):
        pinv = pow(prow[pc], -1, p)

        def update(r: dict) -> dict:
            f = (r[pc] * pinv) % p
            for j, v in prow.items():
                nv = (r.get(j, 0) - f * v) % p
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
            return r

        return update

    return pivot_step


def int_pivot_step(prow: dict, pc: int):
    """The fraction-free row update over Z of the oracle below: in place for
    a unit pivot, else Bareiss' step divided by the content; the supports are
    left to the caller."""
    pval = prow[pc]
    if pval != 1 and pval != -1:
        g = gcd(*prow.values())
        if g > 1:
            for j, v in prow.items():
                prow[j] = v // g
            pval = prow[pc]
    if pval == 1 or pval == -1:

        def unit_update(r: dict) -> dict:
            f = r[pc] * pval
            for j, v in prow.items():
                nv = r.get(j, 0) - f * v
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
            return r

        return unit_update

    def update(r: dict) -> dict:
        a = r[pc]
        new = {j: pval * v for j, v in r.items()}
        for j, v in prow.items():
            nv = new.get(j, 0) - a * v
            if nv:
                new[j] = nv
            else:
                new.pop(j, None)
        return _content_free(new)

    return update


def eliminate_with_grow_only_queue(rows, ncols, pivot_step, leftmost=False):
    """Oracle for `_eliminate`: the same loop with the sparsest-column queue
    held as a dict {column: key} and no heap.  Every nonempty column is
    queued once with its count; each step takes the least (key, column) by a
    scan, puts a column whose support has grown since back with its current
    count, drops an empty one, and takes any other as the pivot column.  Its
    row updates (`modp_pivot_step`, `int_pivot_step`) only rewrite the row,
    and the loop then sets the row's support in every column of the pivot
    row."""
    live = dict(enumerate(rows))
    col_rows = [set() for _ in range(ncols)]
    for rid, r in live.items():
        for j in r:
            col_rows[j].add(rid)
    queue = {} if leftmost else {j: len(s) for j, s in enumerate(col_rows) if s}
    pc = -1
    while True:
        if leftmost:
            pc += 1
            while pc < ncols and not col_rows[pc]:
                pc += 1
            if pc == ncols:
                return
        else:
            while True:
                if not queue:
                    return
                key, pc = min((key, j) for j, key in queue.items())
                del queue[pc]
                if len(col_rows[pc]) > key:
                    queue[pc] = len(col_rows[pc])
                elif col_rows[pc]:
                    break
        targets = col_rows[pc]
        col_rows[pc] = set()
        _, pid = min((len(live[rid]), rid) for rid in targets)
        prow = live.pop(pid)
        for j in prow:
            col_rows[j].discard(pid)
        update = pivot_step(prow, pc)
        for rid in targets:
            if rid == pid:
                continue
            r = update(live[rid])
            for j in prow:
                if j in r:
                    col_rows[j].add(rid)
                else:
                    col_rows[j].discard(rid)
            if r:
                live[rid] = r
            else:
                del live[rid]
        yield pc, prow


def pivot_sequence(eliminate, M, F, columns_except, leftmost):
    """The (column, row) pivots of one elimination of M, each row scaled to
    1 in its pivot column: over Q a non-unit pivot row is divided by its
    content only once an update is built from it."""
    rows, step = _elimination_rows(M, F, columns_except)
    ncols = M.rows if columns_except is not None else M.cols
    if eliminate is eliminate_with_grow_only_queue:
        step = modp_pivot_step(F.characteristic) if F.characteristic else int_pivot_step
    return [(pc, {j: F.mul(F.inv(F.convert(prow[pc])), F.convert(v)) for j, v in prow.items()})
            for pc, prow in eliminate(rows, ncols, step, leftmost)]


def assert_same_pivots(M, F):
    for columns_except in (None, ()):
        for leftmost in (False, True):
            want = pivot_sequence(eliminate_with_grow_only_queue, M, F, columns_except, leftmost)
            assert pivot_sequence(_eliminate, M, F, columns_except, leftmost) == want, (columns_except, leftmost)


@settings(max_examples=200, deadline=None)
@given(st.one_of(chain_pairs(), sparse_matrices_with_fill_in()))
def test_elimination_takes_the_pivots_of_the_grow_only_queue(case):
    # under both rules, eliminating rows and eliminating columns: chain pairs
    # over their drawn field, and random matrices over Q, F_2 and F_5
    if isinstance(case, SparseMatrix):
        cases = [(case, F) for F in (QQ, GF(2), GF(5))]
    else:
        F, d_in, d_out, _ = case
        cases = [(d_in, F), (d_out, F)]
    for M, F in cases:
        assert_same_pivots(M, F)


@pytest.mark.parametrize("F", [QQ, GF(2)])
def test_elimination_takes_the_pivots_of_the_grow_only_queue_on_fnf_differentials(F):
    # the top differentials of the S3 block complexes at n = 4, where queued
    # columns are seen to have grown (and go back in) as well as shrunk
    V = s3_transposition_space()
    for words, _ in block_plan(V, 4):
        cx = complex_for_system(TensorSystem(V, 4, words), 4, F)
        for q in (8, 7):
            assert_same_pivots(cx.differential(q), F)


def span_oracle_maps_cycles_to_boundaries(d_out, L, d_in, F):
    """Oracle: L z lies in the column space of d_in for every kernel-basis
    vector z of d_out, one rank comparison per vector."""
    return all(two_rank_column_space_contains(d_in, L.apply(z, F), F) for z in kernel_basis(d_out, F))


@settings(max_examples=200, deadline=None)
@given(chain_pairs(), st.data())
def test_cycles_map_to_boundaries_matches_span_oracle(case, data):
    # L is the identity (true exactly when the homology between d_in and
    # d_out vanishes), zero (always true), or v u^T for the inside and outside
    # vectors v of d_in and a drawn functional u
    F, d_in, d_out, vectors = case
    assert d_out.matmul(d_in, F).entries == {}
    m = d_out.cols
    maps = [SparseMatrix.identity(m), SparseMatrix.zero(m, m)]
    for M, v, expected in vectors:
        assert two_rank_column_space_contains(M, v, F) == expected
        if M is d_in:
            u = data.draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=m, max_size=m))
            maps.append(SparseMatrix.from_columns(m, [{i: F.mul(a, uj) for i, a in v.items()} for uj in u]))
    # one call answers for every map, each as the oracle answers for it alone
    assert cycles_map_to_boundaries(d_out, maps, d_in, F) == [
        span_oracle_maps_cycles_to_boundaries(d_out, L, d_in, F) for L in maps]


@settings(max_examples=200, deadline=None)
@given(chain_pairs())
def test_clearing_sweep_matches_single_matrix_ranks(case):
    F, d_in, d_out, _ = case
    dims = {0: d_out.rows, 1: d_out.cols, 2: d_in.cols}
    for diff in ({1: d_out}, {2: d_in}, {1: d_out, 2: d_in}):
        sizes = {q: dims[q] for q in dims if q in diff or q + 1 in diff}
        expected = {q: dims[q] - sum(rank(diff[d], F) for d in (q, q + 1) if d in diff) for q in sizes}
        # bottom-up calls still rank top-down; a fresh complex asked top first
        assert GradedComplex(sizes, diff, F).homology_table() == expected
        top_first = GradedComplex(sizes, diff, F)
        assert {q: top_first.homology_rank(q) for q in sorted(sizes, reverse=True)} == expected
    for M, skip in ((d_in, ()), (d_out, ()), (d_out, independent_rows(d_in, F))):
        rows = independent_rows(M, F, skip)
        assert len(rows) == rank(M, F)
        chosen = {(k, j): M.entries[(i, j)] for k, i in enumerate(sorted(rows))
                  for j in range(M.cols) if (i, j) in M.entries}
        assert rank(SparseMatrix(len(rows), M.cols, chosen), F) == len(rows)


def test_clearing_with_dependent_rows_loses_rank():
    # 0 -> k -> k^2 -> k -> 0 with d_2 = (1, 1)^T and d_1 = (1, -1), exact in
    # degree 1.  Clearing d_1 with one row of d_2 keeps its rank; with both
    # rows, which are dependent, it deletes every column of d_1 and would
    # report H_1 = 1: the sweep oracle above would catch such a fault.
    d2 = SparseMatrix(2, 1, {(0, 0): 1, (1, 0): 1})
    d1 = SparseMatrix(1, 2, {(0, 0): 1, (0, 1): -1})
    for F in (QQ, F2, GF(3)):
        assert d1.matmul(d2, F).entries == {}
        assert len(independent_rows(d2, F)) == 1
        assert len(independent_rows(d1, F, independent_rows(d2, F))) == rank(d1, F) == 1
        assert len(independent_rows(d1, F, {0, 1})) == 0
        assert GradedComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2}, F).homology_rank(1) == 0


def test_cycles_map_to_boundaries_on_a_complex_with_homology():
    # 0 -> k^2 -> 0: every vector is a cycle and none is a boundary
    d_in, d_out = SparseMatrix.zero(2, 0), SparseMatrix.zero(0, 2)
    assert cycles_map_to_boundaries(d_out, [SparseMatrix.zero(2, 2), SparseMatrix.identity(2)], d_in, QQ) \
        == [True, False]
    assert cycles_map_to_boundaries(d_out, [SparseMatrix(2, 2, {(1, 0): 1})], d_in, F2) == [False]
    with pytest.raises(ValueError, match="L must be 2x2, got 2x3"):
        cycles_map_to_boundaries(d_out, [SparseMatrix.zero(2, 2), SparseMatrix.zero(2, 3)], d_in, QQ)


@st.composite
def square_matrices(draw):
    """Square, up to 8x8, zeros 1-3 times as likely as a nonzero value; the
    denominators avoid 2, 3 and 5."""
    n = draw(st.integers(1, 8))
    values = draw(st.sampled_from([INT_VALUES, FRACTION_VALUES]))
    cell = st.sampled_from([0] * (draw(st.integers(1, 3)) * len(values)) + values)
    return SparseMatrix(n, n, {(i, j): draw(cell) for i in range(n) for j in range(n)})


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_of_random_sparse_matrices(M):
    eye = SparseMatrix.identity(M.rows)
    for F, p in ((QQ, 0), (GF(2), 2), (GF(3), 3), (GF(5), 5)):
        if dense_rank(M, p) == M.rows:
            X = inverse(M, F)
            assert M.matmul(X, F) == eye and X.matmul(M, F) == eye, p
        else:
            with pytest.raises(ZeroDivisionError):
                inverse(M, F)
    with pytest.raises(ValueError):
        inverse(SparseMatrix(M.rows, M.rows + 1, M.entries), QQ)


def with_entries(M, cast):
    return SparseMatrix(M.rows, M.cols, {k: cast(v) for k, v in M.entries.items()})


def as_int_if_integral(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_matrices_with_fill_in(), square_matrices()))
def test_int_and_fraction_entries_give_equal_results_over_q(M):
    # rational scalars are ints where integral; results must not depend on it
    A, B = with_entries(M, as_int_if_integral), with_entries(M, Fraction)
    assert rank(A, QQ) == rank(B, QQ)
    assert rref(A, QQ) == rref(B, QQ)
    assert kernel_basis(A, QQ) == kernel_basis(B, QQ)
    if M.rows == M.cols:
        try:
            inv_a = inverse(A, QQ)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                inverse(B, QQ)
        else:
            assert inv_a == inverse(B, QQ)


def test_rank_table():
    t = RankTable(("s", "n"))
    t.set((1, 2), 3)
    t.set((0, 0), 1)
    assert t.get((1, 2)) == 3 and t.get((5, 5)) == 0
    assert t.items() == [((0, 0), 1), ((1, 2), 3)]
    t.set((1, 2), 0)
    assert t.get((1, 2)) == 0
    with pytest.raises(ValueError):
        t.set((1, 2), -1)


def test_matmul_shapes():
    A = SparseMatrix(2, 3, {(0, 0): 1, (1, 2): 2})
    B = SparseMatrix(3, 2, {(0, 1): 1, (2, 0): 1})
    P = A.matmul(B, QQ)
    assert (P.rows, P.cols) == (2, 2)
    assert P.entries == {(0, 1): Fraction(1), (1, 0): Fraction(2)}
    with pytest.raises(ValueError):
        B.matmul(SparseMatrix.zero(3, 1), QQ)


def field_scalar(v, p):
    """v as a Fraction over Q, or reduced mod p by hand."""
    v = Fraction(v)
    return v if p == 0 else v.numerator * pow(v.denominator, -1, p) % p


@st.composite
def cancelling_products(draw):
    """(A, B, x) with A = [X | X] and B = [Y ; W], x = y + w, where each row of
    W (each entry of w) is either the negated row of Y (entry of y) or drawn
    freshly, so that entries of AB and Ax cancel.  Denominators avoid 2, 3
    and 5."""
    r, k, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.sampled_from([INT_VALUES, FRACTION_VALUES]))
    cell = st.sampled_from([0] * (draw(st.integers(1, 3)) * len(values)) + values)
    X = [[draw(cell) for _ in range(k)] for _ in range(r)]
    Y = [[draw(cell) for _ in range(c)] for _ in range(k)]
    W = [[-v for v in row] if draw(st.booleans()) else [draw(cell) for _ in range(c)] for row in Y]
    y = [draw(cell) for _ in range(k)]
    w = [-v if draw(st.booleans()) else draw(cell) for v in y]
    A = SparseMatrix(r, 2 * k, {(i, j): v for i, row in enumerate(X) for j, v in enumerate(row + row)})
    B = SparseMatrix(2 * k, c, {(i, j): v for i, row in enumerate(Y + W) for j, v in enumerate(row)})
    x = {j: v for j, v in enumerate(y + w) if v != 0}
    return A, B, x


def dense_product(A, B, p):
    """The nonzero entries of A B by the schoolbook triple loop over full tables."""
    out = {}
    for i in range(A.rows):
        for j in range(B.cols):
            s = sum(field_scalar(A.entries.get((i, t), 0), p) * field_scalar(B.entries.get((t, j), 0), p)
                    for t in range(A.cols))
            if p:
                s %= p
            if s:
                out[(i, j)] = s
    return out


@settings(max_examples=150, deadline=None)
@given(cancelling_products())
def test_matmul_and_apply_match_dense_products(case):
    # over Q with int and with Fraction entries; over F_p with Fraction
    # entries, which must be reduced mod p before the product
    A, B, x = case
    xcol = SparseMatrix(A.cols, 1, {(j, 0): v for j, v in x.items()})
    cases = [(QQ, 0, A, B, x), (QQ, 0, with_entries(A, Fraction), with_entries(B, Fraction),
                                {j: Fraction(v) for j, v in x.items()})]
    cases += [(GF(p), p, with_entries(A, Fraction), with_entries(B, Fraction),
               {j: Fraction(v) for j, v in x.items()}) for p in (2, 3, 5)]
    for F, p, A1, B1, x1 in cases:
        P = A1.matmul(B1, F)
        Ax = A1.apply(x1, F)
        assert (P.rows, P.cols) == (A.rows, B.cols)
        assert P.entries == dense_product(A1, B1, p), p
        assert Ax == {i: v for (i, _), v in dense_product(A1, xcol, p).items()}, p
        for v in list(P.entries.values()) + list(Ax.values()):
            assert v != 0, p
            if p:
                assert type(v) is int and 0 < v < p
            else:
                assert type(v) is int or v.denominator != 1


def test_products_and_sums_coerce_mixed_entries_over_f5():
    # ints outside [0, 5) are reduced, Fractions with a denominator prime to 5
    # are read mod 5, and a denominator divisible by 5 raises as before
    F5 = GF(5)
    A = SparseMatrix(2, 2, {(0, 0): 7, (0, 1): Fraction(1, 2), (1, 0): -3, (1, 1): Fraction(-4, 3)})
    B = SparseMatrix(2, 2, {(0, 0): Fraction(3, 7), (1, 0): 12, (1, 1): -1})
    x = {0: -6, 1: Fraction(2, 3)}
    dense = {k: field_scalar(v, 5) for k, v in A.entries.items()}
    assert A.add(SparseMatrix.zero(2, 2), F5).entries == dense == {(0, 0): 2, (0, 1): 3, (1, 0): 2, (1, 1): 2}
    assert SparseMatrix.zero(2, 2).add(A, F5).entries == dense
    assert A.matmul(B, F5).entries == dense_product(A, B, 5)
    xcol = SparseMatrix(2, 1, {(j, 0): v for j, v in x.items()})
    assert A.apply(x, F5) == {i: v for (i, _), v in dense_product(A, xcol, 5).items()}
    for v in list(A.matmul(B, F5).entries.values()) + list(A.apply(x, F5).values()):
        assert type(v) is int and 0 < v < 5
    bad = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 10)})
    for compute in (lambda: A.matmul(bad, F5), lambda: bad.matmul(A, F5), lambda: bad.apply(x, F5),
                    lambda: A.apply({1: Fraction(3, 5)}, F5), lambda: A.add(bad, F5), lambda: bad.add(A, F5)):
        with pytest.raises(FieldMismatchError):
            compute()


def halves(A, B):
    """(X, Y, W) for the A = [X | X] and B = [Y ; W] of `cancelling_products`,
    so that A B = X Y + X W."""
    k = A.cols // 2
    X = SparseMatrix.from_columns(A.rows, A.columns()[:k])
    Y = SparseMatrix.from_columns(k, [{i: v for i, v in col.items() if i < k} for col in B.columns()])
    W = SparseMatrix.from_columns(k, [{i - k: v for i, v in col.items() if i >= k} for col in B.columns()])
    return X, Y, W


@settings(max_examples=150, deadline=None)
@given(cancelling_products())
def test_products_vanish_agrees_with_built_products(case):
    # over Q with int and with Fraction entries, over F_2 and F_5; the rows of
    # W that negate rows of Y cancel inside A B and across X Y + X W, and
    # A B - A B always vanishes
    A, B, _ = case
    X, Y, W = halves(A, B)
    for F in (QQ, F2, GF(5)):
        for cast in ((lambda v: v, Fraction) if F is QQ else (Fraction,)):
            A1, B1, X1, Y1, W1 = (with_entries(M, cast) for M in (A, B, X, Y, W))
            product = A1.matmul(B1, F)
            assert products_vanish([(A1, B1)], F) == (product.nnz == 0)
            assert products_vanish([(X1, Y1), (X1, W1)], F) == (X1.matmul(Y1, F).add(X1.matmul(W1, F), F).nnz == 0)
            assert products_vanish([(X1, Y1), (X1, W1)], F) == products_vanish([(A1, B1)], F)
            assert products_vanish([(A1, B1), (A1, B1.scale(-1))], F)
            assert products_vanish([(A1, B1), (A1.scale(F.characteristic - 1 if F.characteristic else -1), B1)], F)


def test_products_vanish_raises_as_the_products_do():
    # a denominator that vanishes mod 5 raises even where an earlier column
    # of the sum is already nonzero; a float is no rational scalar
    F5 = GF(5)
    I2 = SparseMatrix.identity(2)
    bad = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 10)})
    for pairs in ([(I2, bad)], [(bad, I2)], [(I2, I2), (bad, I2)]):
        with pytest.raises(FieldMismatchError):
            products_vanish(pairs, F5)
    with pytest.raises(FieldMismatchError):
        products_vanish([(I2, SparseMatrix(2, 2, {(1, 1): 0.5}))], QQ)
    assert products_vanish([(I2, bad), (I2, bad.scale(-1))], QQ)
    assert not products_vanish([(I2, bad)], QQ)
    with pytest.raises(ValueError, match="cannot compose 2x2 with 3x2"):
        products_vanish([(I2, SparseMatrix.zero(3, 2))], QQ)
    with pytest.raises(ValueError, match="shape mismatch"):
        products_vanish([(I2, I2), (I2, SparseMatrix.zero(2, 3))], QQ)
    assert products_vanish([], QQ)
    # the bad entry sits in column 1 of the later pair, while column 0 of the
    # sum is already nonzero from the earlier pair alone
    late = SparseMatrix(2, 2, {(1, 1): Fraction(1, 5)})
    with pytest.raises(FieldMismatchError):
        products_vanish([(I2, I2), (I2, late)], F5)
    with pytest.raises(FieldMismatchError):
        products_vanish([(I2, SparseMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 5)}))], F5)


def built_products_vanish(pairs, F):
    """Oracle for `products_vanish`: the products built by `matmul` and
    summed by `add`."""
    (A, B), *rest = pairs
    total = A.matmul(B, F)
    for A, B in rest:
        total = total.add(A.matmul(B, F), F)
    return total.nnz == 0


def test_products_vanish_resets_its_accumulator_between_columns():
    # one dense accumulator serves every output column; each case reads a row
    # again after an earlier column or pair has left a sum in it
    F5 = GF(5)
    row = SparseMatrix(1, 2, {(0, 0): 1, (0, 1): 1})
    cases = [
        # over Q row 0 cancels in column 0 and is touched again in column 1,
        # once summing to zero and once not
        ([(row, SparseMatrix.from_columns(2, [{0: 1, 1: -1}, {0: 2, 1: -2}]))], QQ, True),
        ([(row, SparseMatrix.from_columns(2, [{0: 1, 1: -1}, {0: 2, 1: -1}]))], QQ, False),
        ([(row, SparseMatrix.from_columns(2, [{0: 3, 1: -3}, {0: 1}]))], QQ, False),
        # an int sum of p in a touched row: 2 + 3 over F_5, then 1 + 4 and 1 + 0
        ([(SparseMatrix(1, 2, {(0, 0): 2, (0, 1): 3}), SparseMatrix.from_columns(2, [{0: 1, 1: 1}, {0: 3, 1: 3}]))],
         F5, True),
        ([(row, SparseMatrix.from_columns(2, [{0: 2, 1: 3}, {0: 1, 1: 4}]))], F5, True),
        ([(row, SparseMatrix.from_columns(2, [{0: 2, 1: 3}, {0: 1}]))], F5, False),
        # negative ints over F_p, in either factor
        ([(row, SparseMatrix.from_columns(2, [{0: -1, 1: 6}, {0: -7, 1: 2}]))], F5, True),
        ([(row, SparseMatrix.from_columns(2, [{0: -1, 1: 6}, {0: -7, 1: 3}]))], F5, False),
        ([(SparseMatrix(1, 2, {(0, 0): -2, (0, 1): 7}), SparseMatrix.from_columns(2, [{0: 1, 1: 1}, {0: 4, 1: -1}]))],
         F5, True),
        ([(SparseMatrix(1, 2, {(0, 0): -1, (0, 1): -1}), SparseMatrix.from_columns(2, [{0: 1}, {1: 1}]))],
         GF(2), False),
        # several pairs hitting the same row: only their sum cancels, in every column
        ([(row, SparseMatrix.from_columns(2, [{0: 1}, {1: 2}])),
          (row, SparseMatrix.from_columns(2, [{1: 1}, {0: 1}])),
          (row, SparseMatrix.from_columns(2, [{0: -2}, {0: -3}]))], QQ, True),
        ([(row, SparseMatrix.from_columns(2, [{0: 1}, {1: 2}])),
          (row, SparseMatrix.from_columns(2, [{1: 1}, {0: 1}])),
          (row, SparseMatrix.from_columns(2, [{0: -2}, {0: -2}]))], QQ, False),
        ([(row, SparseMatrix.from_columns(2, [{0: 1}, {1: 2}])),
          (row, SparseMatrix.from_columns(2, [{1: 1}, {0: 1}])),
          (row, SparseMatrix.from_columns(2, [{0: 3}, {0: 2}]))], F5, True),
    ]
    for pairs, F, vanish in cases:
        assert built_products_vanish(pairs, F) == vanish
        assert products_vanish(pairs, F) == vanish, (pairs, F)
    # Fraction entries over F_5 after a call on the same matrices over Q
    half = SparseMatrix.from_columns(2, [{0: Fraction(1, 2), 1: Fraction(-1, 2)}, {0: Fraction(3, 2)}])
    fifth = SparseMatrix.from_columns(2, [{0: 1}, {1: Fraction(1, 5)}])
    assert products_vanish([(row, half), (row, half.scale(-1))], QQ)
    assert not products_vanish([(row, half)], QQ)
    assert not products_vanish([(row, fifth)], QQ)
    assert products_vanish([(row, half), (row, half.scale(-1))], F5)
    assert not products_vanish([(row, half)], F5)
    assert products_vanish([(row, half), (row, SparseMatrix.from_columns(2, [{}, {0: 1}]))], F5) == \
        built_products_vanish([(row, half), (row, SparseMatrix.from_columns(2, [{}, {0: 1}]))], F5)
    with pytest.raises(FieldMismatchError):
        products_vanish([(row, fifth)], F5)


def unreduced_somewhere():
    """A matrix with entries {1, 2, 4}: reduced over Q and F_5, not over F_2
    (2 vanishes) or F_3 (4 is not in [1, 3))."""
    return SparseMatrix(3, 3, {(0, 0): 1, (0, 1): 2, (1, 1): 4, (2, 0): 2, (1, 2): 4, (2, 2): 1})


def test_field_check_is_kept_on_the_matrix():
    # rank, independent_rows and products_vanish on one matrix over F_2, F_3,
    # F_5 and Q, in both orders, give what each gives on a fresh copy; the
    # matrix keeps what it scanned, which answers for every field
    fields = [GF(2), GF(3), GF(5), QQ]
    N = SparseMatrix(3, 2, {(0, 0): 1, (1, 0): 2, (2, 1): 4})

    def results(M, F):
        return (rank(M, F), independent_rows(M, F), independent_rows(M, F, {0}),
                products_vanish([(M, N)], F), products_vanish([(M.transpose(), M)], F))

    want = {F: results(unreduced_somewhere(), F) for F in fields}
    assert [want[F][0] for F in fields] == [2, 3, 2, 3]  # det 20
    for order in (fields, fields[::-1]):
        M = unreduced_somewhere()
        for F in order:
            assert results(M, F) == want[F], F
        assert (M._int_entries, M._int_bounds) == (True, (1, 4))
        assert [M._reduced_over(F) for F in fields] == [False, False, True, True]
    with_fraction = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    assert [rank(with_fraction, F) for F in (QQ, GF(3))] == [2, 2]
    assert (with_fraction._int_entries, with_fraction._int_bounds) == (False, None)


def test_verify_scans_each_matrix_once(monkeypatch, capsys):
    # the d^2 check and the rank of every differential share one int scan,
    # and over F_p one bounds scan
    from braidhom import exactla
    from braidhom.cli import main

    scanned = {"_all_ints": [], "_bounds": []}
    for name, seen in scanned.items():
        def counted(columns, real=getattr(exactla, name), seen=seen):
            seen.append(columns)  # kept, so no id is reused while counting
            return real(columns)

        monkeypatch.setattr(exactla, name, counted)
    assert main(["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "5", "--field", "2"]) == 0
    assert capsys.readouterr().out.endswith("5,5,0,0,pass\n")
    for name, seen in scanned.items():
        counts = Counter(map(id, seen))
        assert len(counts) >= 15 and max(counts.values()) == 1, name


def per_column_rows(M, F, columns_except):
    """Oracle for `_elimination_rows`: every column read coerced by
    `_coerced`, whatever its entries, then over Q each row that holds a
    Fraction cleared of denominators and divided by its content."""
    if columns_except is None:
        rows = [{} for _ in range(M.rows)]
        for j, col in enumerate(M.columns()):
            for i, v in _coerced(col, F).items():
                rows[i][j] = v
    else:
        rows = [_coerced(col, F) for j, col in enumerate(M.columns()) if j not in columns_except]
    rows = [r for r in rows if r]
    if not F.characteristic:
        for k, r in enumerate(rows):
            if not all(map(int.__instancecheck__, r.values())):
                den = lcm(*(v.denominator for v in r.values()))
                rows[k] = _content_free({j: v.numerator * (den // v.denominator) for j, v in r.items()})
    return rows


def rows_or_error(rows_of):
    """The rows as (column, value, type) lists, or the error they raise."""
    try:
        return [[(j, v, type(v)) for j, v in r.items()] for r in rows_of()]
    except FieldMismatchError:
        return FieldMismatchError


# reduced residues mod 2 and 5, ints outside [1, p) (negative, >= p, and
# multiples of p, 0 among them), integral and non-integral Fractions, and
# denominators divisible by 2 or 5
SCAN_VALUES = [1, 2, 3, 4, 1, 1, -1, -4, 5, 6, 7, 10, 0, -5, 25,
               Fraction(3), Fraction(-10), Fraction(1, 3), Fraction(-2, 7), Fraction(1, 2), Fraction(3, 10),
               Fraction(2, 5)]


@st.composite
def columns_with_mixed_entries(draw):
    """A matrix of up to 6 x 6 held as drawn (zeros stored), whose entries
    are all reduced mod p in some draws and mixed in others, with a skip set
    or none."""
    p = draw(st.sampled_from([0, 2, 5]))
    F = QQ if p == 0 else GF(p)
    reduced = {0: [1, -1, 2, -3, 10], 2: [1], 5: [1, 2, 3, 4]}[p]
    pool = draw(st.sampled_from([reduced, SCAN_VALUES]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    columns = [{i: draw(st.sampled_from(pool)) for i in range(rows) if draw(st.booleans())} for _ in range(cols)]
    skip = draw(st.one_of(st.none(), st.sets(st.integers(0, max(cols - 1, 0)))))
    return F, SparseMatrix._trusted(rows, columns), skip


@settings(max_examples=300, deadline=None)
@given(columns_with_mixed_entries())
def test_one_scan_gives_the_rows_of_the_per_column_path(case):
    # the same rows, entry types and order included, and FieldMismatchError
    # exactly when the per-column path raises; the matrix is left as it was
    F, M, skip = case
    before = [dict(col) for col in M.columns()]
    want = rows_or_error(lambda: per_column_rows(M, F, skip))
    assert rows_or_error(lambda: _elimination_rows(M, F, skip)[0]) == want
    assert M.columns() == before


def test_columns():
    M = SparseMatrix(4, 5, {(0, 1): 2, (3, 1): -1, (2, 4): Fraction(1, 3), (1, 0): 5})
    assert M.columns() == [{1: 5}, {0: 2, 3: -1}, {}, {}, {2: Fraction(1, 3)}]
    assert SparseMatrix.from_columns(M.rows, M.columns()) == M
    assert SparseMatrix.zero(3, 0).columns() == []


def checked(M):
    """M's entries passed through the checking constructor."""
    return SparseMatrix(M.rows, M.cols, M.entries)


@settings(max_examples=100, deadline=None)
@given(cancelling_products(), square_matrices())
def test_unchecked_results_pass_the_constructor_checks(case, S):
    # matmul, add, transpose and inverse store their entries unchecked; they
    # must be what the checking constructor keeps: in range and nonzero.
    # The two halves of B cancel in places, and over F_p some entries vanish
    A, B, _ = case
    for M in (A, B, S):
        assert SparseMatrix(M.rows, M.cols, M.entries) == M
        assert SparseMatrix.from_columns(M.rows, M.columns()) == M
    k = A.cols // 2
    top = SparseMatrix(k, B.cols, {(i, j): v for (i, j), v in B.entries.items() if i < k})
    bottom = SparseMatrix(k, B.cols, {(i - k, j): v for (i, j), v in B.entries.items() if i >= k})
    for F in (QQ, GF(2), GF(3), GF(5)):
        results = [A.matmul(B, F), top.add(bottom, F), A.transpose()]
        try:
            results.append(inverse(S, F))
        except ZeroDivisionError:
            pass
        for X in results:
            assert X == checked(X), F


@settings(max_examples=30, deadline=None)
@given(local_systems(), small_rack_spaces())
def test_assembled_complexes_pass_the_constructor_checks(system_space, rack_space):
    # the FNF and bar assemblers hand their columns over unchecked
    (system, n), (V, m) = system_space, rack_space
    for F in (QQ, GF(2), GF(3), GF(5)):
        try:
            diffs = list(complex_for_system(system, n, F).diff.values())
        except FieldMismatchError:  # the line sigma = 1/3 has no value mod 3
            diffs = []
        diffs += bar_chains(V, m, F)[1].values()
        for X in diffs:
            assert X == checked(X), F


@pytest.mark.parametrize("F", [QQ, GF(5)])
def test_koszul_and_nichols_matrices_pass_the_constructor_checks(F):
    # the differentials (one class: d_0 is d), their multigrade blocks, the
    # matrices of the nullhomotopy check, one Phi_p and the braid actions, all
    # built column by column and handed over unchecked
    V = s3_transposition_space(epsilon=True)
    K = koszul.koszul_complex(V, "R", pmax=4, qmax=4, F=F, c=transpositions(S3()))
    nd = K.nichols
    mats = [K.d(p, q) for p in range(1, K.pmax + 1) for q in range(K.qmax)]
    for s in K.diagonals:
        mats += [M for cx in koszul._multigrade_blocks(K, s).values() for M in cx.diff.values()]
    for p in range(K.pmax):
        for q in range(K.qmax):
            mats += [twisted_right_mult(K, koszul._twisted_letters(K, g, p), p, q, -1)
                     for g in range(V.rank)]
    mats += [SparseMatrix._trusted(V.rank * nd.dim(2), list(nd._phi_columns(3)))]
    mats += [skew_derivation(nd, v, p) for p in range(1, K.pmax + 1) for v in range(V.rank)]
    mats += [quantum_symmetrizer(V, 3), braid_word_action(V, 3, [1, -2, 1]), V.sigma_matrix()]
    for X in mats:
        assert X == checked(X)


def test_constructor_checks_indices_and_drops_zeros():
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(2, 2, {(0, -1): 1})
    M = SparseMatrix(2, 2, {(0, 0): 0, (1, 1): Fraction(0), (0, 1): 3})
    assert M.entries == {(0, 1): 3}
    assert M.scale(0).entries == {}
    # outside vectors are checked too, though columns are indexed
    for bad in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            M.apply({bad: 1}, QQ)
