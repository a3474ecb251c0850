"""Exact scalars and sparse exact linear algebra.

Rational scalars are ints, or `fractions.Fraction`s when not integral;
prime-field scalars are ints reduced into [0, p).  A `SparseMatrix` with r rows
and c columns represents a linear map from k^c to k^r in the column-vector
convention.  It stores its columns, one {row: value} dict each, since every
assembler in the package builds its matrices one cell (column) at a time;
only nonzero entries are stored, and no other module knows the layout.

Every elimination in the package runs one sparse Gaussian elimination loop,
`_eliminate`, on the rows given by `_elimination_rows`: the stored columns
themselves when it eliminates the transpose, else rows derived in one pass
over the columns.  Whether a matrix needs coercing into a field is read
from two facts the matrix keeps about its entries, each found by streaming
scans on first need: whether they are all ints (`_all_ints`) and, for a
prime field, their least and greatest value (`_bounds`).  So the d^2 check
and the rank of a differential share those scans, and a matrix read over a
second field scans nothing again.  A matrix whose entries are already
reduced scalars (ints over Q, ints in [1, p) over F_p) has its rows copied
as they are; any other is coerced column by column (`_coerced`), and over Q
a row that holds a Fraction is cleared of denominators and divided by its
content, so that the fraction-free row update never does Fraction
arithmetic.  Over Q a pivot of +-1 updates each row in place with no
division, as the F_p step does; any other pivot takes Bareiss' step (scale,
subtract, divide by the content).  Both give rows of the same support, so
the pivots do not depend on which step ran.  The caller fixes the
pivot-column rule: the sparsest column for `rank` (and so for
`cycles_map_to_boundaries`) and `independent_rows`, the leftmost for `rref`
(and so for `inverse`).  The pivot row is the shortest in its column, so
every computation is deterministic, and the loop keeps column supports up to
date, so choosing a pivot never rescans the matrix: the pivot step writes
each updated row and its supports in one pass over the pivot row, touching a
support only where an entry appears or cancels, and `rref`'s
back-substitution runs the same step.  Under the sparsest rule every
nonempty column is queued once, as (count, column), in a heap whose keys
only grow: the least entry is taken, a column whose support has grown since
it was queued goes back in with its current count, an empty one is dropped,
and any other is the pivot column.  A pivot pushes nothing, and a column
whose count has fallen keeps its older, higher key.  A column with one live
row takes it as the pivot with no search and no row update.

`independent_rows` is the entry point for chain complexes: it eliminates the
columns of a matrix outside a given set (`_elimination_rows` reads them as
the rows of its transpose) and returns its pivots, independent rows of the
matrix.  `fnf.GradedComplex` ranks its differentials top down with it,
leaving out of each d_q the columns named by the independent rows of d_(q+1)
("clearing"; its docstring shows why the rank is kept).

Products (`SparseMatrix.matmul`, `SparseMatrix.apply`) and sums
(`SparseMatrix.add`) work column by column and coerce each input entry into
the field once (`_coerced`): an int as it is over Q and mod p over F_p,
anything else through `CoefficientField.convert`.  Products accumulate with
native + and * and reduce each output entry once
(`CoefficientField.reduced`).  A check that only asks whether a sum of
products is zero (d^2 = 0, and d_i d_j + d_j d_i = 0 in `koszul`) calls
`products_vanish`, which builds no product: it reads a factor whose entries
are all ints as stored, sums each output column into one dense list of the
output's length, reused for every column, and stops at the first column
whose sum is nonzero.  The public constructors (`SparseMatrix(rows, cols,
entries)` and `from_columns`) check
every index and drop zeros; results that are in range and nonzero by
construction (this module's products, sums, transposes and inverses, and the
package's assemblers) take ownership of their columns through
`SparseMatrix._trusted` and skip those checks.  `entries` ({(row, column):
value}) and `nnz` are views derived on demand.

All values are immutable after construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """An entry is not a valid scalar of the requested field."""


class ComplexIntegrityError(ValueError):
    """A chain complex is malformed: a differential has the wrong shape, or
    two consecutive differentials do not compose to zero."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoefficientField:
    """The rationals or a prime field F_p.

    `characteristic` is 0 for the rationals and the prime p otherwise.
    `convert` and `inv` give a rational as an int when it is integral (int
    arithmetic is far cheaper, and +-1 cocycles keep every matrix integral),
    else as a Fraction; prime-field scalars are ints in [0, p).
    """

    characteristic: int

    def __post_init__(self):
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {self.characteristic}")

    def convert(self, x):
        """Coerce an int or Fraction into a scalar of this field."""
        p = self.characteristic
        if p == 0:
            if isinstance(x, int):
                return int(x)
            if isinstance(x, Fraction):
                return x.numerator if x.denominator == 1 else x
            raise FieldMismatchError(f"cannot coerce {x!r} into Q")
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise FieldMismatchError(f"denominator of {x} vanishes mod {p}")
            return (x.numerator * pow(den, -1, p)) % p
        raise FieldMismatchError(f"cannot coerce {x!r} into F_{p}")

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b if self.characteristic == 0 else (a + b) % self.characteristic

    def mul(self, a, b):
        return a * b if self.characteristic == 0 else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return self.convert(Fraction(1) / a)
        return pow(a, -1, self.characteristic)

    def reduced(self, acc: dict) -> dict:
        """A vector accumulated with native + and * from scalars of this field,
        as field scalars with zeros dropped: each entry reduced mod p once, or
        over Q given as an int when integral."""
        p = self.characteristic
        if p:
            return {k: r for k, v in acc.items() if (r := v % p)}
        return {k: v if v.__class__ is int else self.convert(v) for k, v in acc.items() if v}

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F_{self.characteristic}"


QQ = CoefficientField(0)
GF2 = CoefficientField(2)


def GF(p: int) -> CoefficientField:
    return CoefficientField(p)


class SparseMatrix:
    """Immutable-by-convention sparse matrix over exact scalars, stored as its
    columns: one {row: value} dict per column, zero entries never stored.

    Entries may be ints, Fractions, or prime-field residues; they are coerced
    into the target field at computation time (over Q, an integral entry
    becomes an int).  `SparseMatrix(rows, cols, entries)` and `from_columns`
    check every index and drop zeros; `_trusted` takes ownership of columns
    already in range and nonzero.  `entries` and `nnz` are derived on demand,
    and whether the entries are all ints, and their bounds, are scanned on
    first use and kept (`_ints`, `_reduced_over`).
    """

    __slots__ = ("rows", "cols", "_columns", "_int_entries", "_int_bounds")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        columns = [{} for _ in range(cols)]
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"index ({i},{j}) out of range for {rows}x{cols}")
                if v != 0:
                    columns[j][i] = v
        self.rows, self.cols, self._columns = rows, cols, columns
        self._int_entries = self._int_bounds = None

    @classmethod
    def _trusted(cls, rows: int, columns: list[dict]) -> "SparseMatrix":
        """A matrix that takes ownership of columns whose entries are in range
        and nonzero by construction, without the constructor's checks: for
        this module's results and the package's assemblers."""
        M = cls.__new__(cls)
        M.rows, M.cols, M._columns = rows, len(columns), columns
        M._int_entries = M._int_bounds = None
        return M

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls._trusted(n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict]) -> "SparseMatrix":
        """The matrix with the given {row: value} columns, checked as the
        constructor checks entries."""
        return cls(rows, len(columns), {(i, j): v for j, col in enumerate(columns) for i, v in col.items()})

    @property
    def entries(self) -> dict:
        """A new {(row, column): value} dict of the stored entries, column by column."""
        return {(i, j): v for j, col in enumerate(self._columns) for i, v in col.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self._columns))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self._columns == other._columns
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def transpose(self) -> "SparseMatrix":
        rows = [{} for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows[i][j] = v
        return SparseMatrix._trusted(self.cols, rows)

    def columns(self) -> list[dict]:
        """The stored columns, each a {row: value} dict; not to be mutated."""
        return self._columns

    def _ints(self) -> bool:
        """Whether every entry is an int: one scan (`_all_ints`) on the first
        call, kept, since the entries never change."""
        if self._int_entries is None:
            self._int_entries = _all_ints(self._columns)
        return self._int_entries

    def _reduced_over(self, F: CoefficientField) -> bool:
        """Whether every entry is already a reduced scalar of F: an int over
        Q, an int in [1, p) over F_p.  Read from `_ints` and, over F_p, the
        least and greatest entry (`_bounds`, scanned on first need and kept),
        so no field scans an entry twice and a second field scans none."""
        if not self._ints():
            return False
        p = F.characteristic
        if not p:
            return True
        if self._int_bounds is None:
            self._int_bounds = _bounds(self._columns)
        low, high = self._int_bounds
        return low > 0 and high < p

    def scale(self, c) -> "SparseMatrix":
        return SparseMatrix._trusted(self.rows, [{i: w for i, v in col.items() if (w := c * v) != 0}
                                                 for col in self._columns])

    def add(self, other: "SparseMatrix", F: CoefficientField) -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self._columns, other._columns):
            col = _coerced(a, F)
            for i, v in _coerced(b, F).items():
                s = F.add(col.get(i, F.zero), v)
                if s == 0:
                    col.pop(i, None)
                else:
                    col[i] = s
            out.append(col)
        return SparseMatrix._trusted(self.rows, out)

    def matmul(self, other: "SparseMatrix", F: CoefficientField) -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        left = [_coerced(col, F) for col in self._columns]
        out = []
        for col in other._columns:
            acc = {}
            for k, b in _coerced(col, F).items():
                for i, a in left[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            out.append(F.reduced(acc))
        return SparseMatrix._trusted(self.rows, out)

    def apply(self, vec: dict, F: CoefficientField) -> dict:
        """Apply to a column vector given as {index: scalar}."""
        out = {}
        for j, x in _coerced(vec, F).items():
            if not 0 <= j < self.cols:
                raise ValueError(f"index {j} out of range for a vector of length {self.cols}")
            for i, a in _coerced(self._columns[j], F).items():
                out[i] = out.get(i, 0) + a * x
        return F.reduced(out)


def _coerced(vec: dict, F: CoefficientField) -> dict:
    """A new dict of the entries of vec as scalars of F, each coerced once: an
    int as it is over Q and mod p over F_p, anything else through `F.convert`
    (which raises FieldMismatchError if it cannot be interpreted in F).  Over
    F_p the entries that vanish mod p are dropped."""
    p, convert = F.characteristic, F.convert
    if p:
        return {k: c for k, v in vec.items() if (c := v % p if v.__class__ is int else convert(v))}
    return {k: v if v.__class__ is int else convert(v) for k, v in vec.items()}


def products_vanish(pairs, F: CoefficientField) -> bool:
    """Whether the sum of the products A B over the (A, B) in `pairs` is zero
    over F, as `A.matmul(B, F)` summed by `add` would show, without building
    a product.

    Every output column is summed, with native + and *, into one dense list
    of the output's length, reused for every column.  After a column its
    entries are read again along the same (k, i) pairs, and the first entry
    that is nonzero (over F_p, nonzero mod p) ends the test.  So an entry
    carried into the next column is 0, or over F_p a multiple of p, which
    changes no residue; over F_p each is reset to 0 as it is read, so that
    the sums stay small.  Before that, every factor is read as
    `_field_columns` gives it: as stored when all its entries are ints, else
    every column coerced by `_coerced`, so an entry that is not a scalar of F
    raises FieldMismatchError here exactly when the products would, whichever
    pair holds it.  Mismatched shapes raise ValueError.
    """
    pairs = list(pairs)
    if not pairs:
        return True
    rows, cols = pairs[0][0].rows, pairs[0][1].cols
    for A, B in pairs:
        if A.cols != B.rows:
            raise ValueError(f"cannot compose {A.rows}x{A.cols} with {B.rows}x{B.cols}")
        if (A.rows, B.cols) != (rows, cols):
            raise ValueError("shape mismatch")
    factors = [(_field_columns(A, F), _field_columns(B, F)) for A, B in pairs]
    p = F.characteristic
    acc = [0] * rows
    for j in range(cols):
        for left, right in factors:
            for k, b in right[j].items():
                for i, a in left[k].items():
                    acc[i] += a * b
        if p:
            for left, right in factors:
                for k in right[j]:
                    for i in left[k]:
                        if acc[i] % p:
                            return False
                        acc[i] = 0
        else:
            for left, right in factors:
                for k in right[j]:
                    for i in left[k]:
                        if acc[i]:
                            return False
    return True


def _all_ints(columns: list[dict]) -> bool:
    """Whether every entry of the columns is an int: one streaming scan that
    builds no list."""
    return all(map(int.__instancecheck__, chain.from_iterable(map(dict.values, columns))))


def _bounds(columns: list[dict]) -> tuple:
    """(least, greatest) entry of columns of ints, (1, 0) when there is none:
    two streaming scans that build no list."""
    return (min(chain.from_iterable(map(dict.values, columns)), default=1),
            max(chain.from_iterable(map(dict.values, columns)), default=0))


def _field_columns(M: SparseMatrix, F: CoefficientField) -> list[dict]:
    """The columns of M as `products_vanish` reads them: as stored when every
    entry is an int (`SparseMatrix._ints`, scanned once per matrix; a sum of
    int products is reduced mod p only when it is tested), else each coerced
    by `_coerced`."""
    return M.columns() if M._ints() else [_coerced(col, F) for col in M.columns()]


def _eliminate(rows: list[dict], ncols: int, pivot_step, leftmost: bool = False):
    """Sparse Gaussian elimination of the nonzero dict rows, yielding each
    pivot as (column, row) in the order taken.

    Column supports are kept up to date instead of rescanned: `col_rows[j]`
    holds the ids of live rows with an entry in column j.
    `pivot_step(prow, pc, col_rows)` returns the field's row update for one
    pivot: a function taking a row with a nonzero entry in column pc and its
    id, and returning the row with that entry eliminated (mutated in place or
    rebuilt).  It writes the row and its supports in one pass over the pivot
    row, the only columns an update can change: an entry that appears adds
    the id to `col_rows[j]`, one that cancels removes it, and one that only
    changes value touches no set.  The pivot column is chosen by the caller's
    rule: a sparse live column from the queue below, or with `leftmost` the
    lowest live column.  In that column the pivot is the shortest row (ties:
    lowest row index); a column with a single live row takes it with no
    search and no update.  A yielded row is never touched again and the loop
    keeps no reference to it.

    For the sparsest rule `heap` is a grow-only queue: it holds one (count,
    j) entry for every column j neither taken nor dropped, its count the
    column's support size when it was queued.  Every nonempty column is
    queued once at the start, and the loop takes the least entry.  A column
    whose support has grown since is put back with its current count
    (`heapreplace`); an empty one is dropped, and stays empty, since an
    update only writes the columns of a live pivot row; any other is the
    pivot column, even when its support has shrunk below its count.  So a
    pivot pushes nothing, and the loop keeps no per-pivot counts.  Every
    column is still taken or dropped, so the ranks, and the pivot rows'
    independence, do not depend on the order; only which independent rows a
    sweep picks does.  Under the leftmost
    rule no live row meets a column at or left of the last pivot column (each
    updated row is combined with a pivot row that meets none), so the next
    pivot column is found by moving a pointer to the right.
    """
    live = dict(enumerate(rows))
    col_rows = [set() for _ in range(ncols)]
    for rid, r in live.items():
        for j in r:
            col_rows[j].add(rid)
    heap = [] if leftmost else [(len(s), j) for j, s in enumerate(col_rows) if s]
    heapq.heapify(heap)
    pc = -1
    while True:
        if leftmost:
            pc += 1
            while pc < ncols and not col_rows[pc]:
                pc += 1
            if pc == ncols:
                return
        else:
            while heap:
                count, pc = heap[0]
                now = len(col_rows[pc])
                if now > count:
                    heapq.heapreplace(heap, (now, pc))
                else:
                    heapq.heappop(heap)
                    if now:
                        break
            else:
                return
        targets = col_rows[pc]
        col_rows[pc] = set()
        if len(targets) == 1:
            pid = targets.pop()
        elif len(targets) == 2:
            r, s = targets
            pid = r if (len(live[r]), r) < (len(live[s]), s) else s
            targets.discard(pid)
        else:
            _, pid = min((len(live[rid]), rid) for rid in targets)
            targets.discard(pid)
        prow = live.pop(pid)
        for j in prow:
            col_rows[j].discard(pid)
        if targets:
            update = pivot_step(prow, pc, col_rows)
            for rid in targets:
                r = update(live[rid], rid)
                if r:
                    live[rid] = r
                else:
                    del live[rid]
        yield pc, prow


def _modp_pivot_step(p: int):
    """The pivot step over F_p: r := r - (r[pc] / prow[pc]) prow, in place,
    with the supports of r kept in `col_rows` (see `_eliminate`).  An entry
    of prow that r lacks gives -f v, nonzero mod p."""

    def pivot_step(prow: dict, pc: int, col_rows: list[set]):
        pinv = pow(prow[pc], -1, p)

        def update(r: dict, rid: int) -> dict:
            f = (r[pc] * pinv) % p
            for j, v in prow.items():
                if j in r:
                    nv = (r[j] - f * v) % p
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                        col_rows[j].discard(rid)
                else:
                    r[j] = (-f * v) % p
                    col_rows[j].add(rid)
            return r

        return update

    return pivot_step


def _content_free(r: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*r.values())
    return {j: v // g for j, v in r.items()} if g > 1 else r


def _int_pivot_step(prow: dict, pc: int, col_rows: list[set]):
    """Fraction-free row update over Z for the pivot prow[pc], with the
    supports of the updated row kept in `col_rows` as `_modp_pivot_step`
    keeps them.

    A unit pivot (+-1) updates the row in place, as `_modp_pivot_step` does:
    r := r - (r[pc] prow[pc]) prow, which is r - (r[pc] / prow[pc]) prow; it
    builds no dict and divides by nothing.  Any other pivot rebuilds the row
    as prow[pc] r - r[pc] prow divided by the gcd of its entries (Bareiss'
    fraction-free step).  The two results are nonzero rational multiples of
    each other with the same support, so `_eliminate` picks the same pivots
    whichever ran.

    Unit updates leave their content in the rows, so a pivot row that is not
    a unit is first divided in place by its content, with its support
    unchanged.  That may make it a unit, and it makes every pivot row the
    content-free one, as if every update had divided.
    """
    pval = prow[pc]
    if pval != 1 and pval != -1:
        g = gcd(*prow.values())
        if g > 1:
            for j, v in prow.items():
                prow[j] = v // g
            pval = prow[pc]
    if pval == 1 or pval == -1:

        def unit_update(r: dict, rid: int) -> dict:
            f = r[pc] * pval
            for j, v in prow.items():
                if j in r:
                    nv = r[j] - f * v
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                        col_rows[j].discard(rid)
                else:
                    r[j] = -f * v
                    col_rows[j].add(rid)
            return r

        return unit_update

    def update(r: dict, rid: int) -> dict:
        a = r[pc]
        new = {j: pval * v for j, v in r.items()}
        for j, v in prow.items():
            if j in new:
                nv = new[j] - a * v
                if nv:
                    new[j] = nv
                else:
                    del new[j]
                    col_rows[j].discard(rid)
            else:
                new[j] = -a * v
                col_rows[j].add(rid)
        return _content_free(new)

    return update


def _elimination_rows(M: SparseMatrix, F: CoefficientField, columns_except=None):
    """The nonzero rows of M over F, and the field's pivot step for `_eliminate`.

    Given `columns_except`, a collection of column indices, the rows are
    instead the stored columns of M outside it (rows of the transpose, each a
    {row index of M: scalar} dict), read directly; otherwise the rows are
    derived from the columns in one pass.  Every row is a new dict, so the
    elimination leaves M as it was.  Whether the entries need coercing is
    read from the matrix (`SparseMatrix._reduced_over`, whose scans are kept
    on the matrix and shared with the d^2 check): if every entry is
    already a reduced scalar of F, the columns are copied (`dict.copy`) or
    transposed as they are; otherwise every column read is coerced by
    `_coerced`, and over Q a row that holds a Fraction is then cleared of
    denominators and divided by its content, so elimination runs on integer
    rows and no Fraction arithmetic happens inside it.
    """
    columns = M.columns()
    reduced = M._reduced_over(F)
    if columns_except is None:
        rows = [{} for _ in range(M.rows)]
        for j, col in enumerate(columns):
            for i, v in (col if reduced else _coerced(col, F)).items():
                rows[i][j] = v
    elif reduced:
        rows = [col.copy() for j, col in enumerate(columns) if j not in columns_except]
    else:
        rows = [_coerced(col, F) for j, col in enumerate(columns) if j not in columns_except]
    rows = [r for r in rows if r]
    if F.characteristic:
        return rows, _modp_pivot_step(F.characteristic)
    if not reduced:
        for k, r in enumerate(rows):
            if not all(map(int.__instancecheck__, r.values())):
                den = lcm(*(v.denominator for v in r.values()))
                rows[k] = _content_free({j: v.numerator * (den // v.denominator) for j, v in r.items()})
    return rows, _int_pivot_step


def rank(M: SparseMatrix, F: CoefficientField) -> int:
    """Exact rank of M over F, eliminating in the sparsest column first.

    Raises FieldMismatchError if an entry cannot be interpreted in F (for
    example a Fraction whose denominator vanishes mod p).
    """
    if not M.nnz:
        return 0
    rows, step = _elimination_rows(M, F)
    return sum(1 for _ in _eliminate(rows, M.cols, step))


def independent_rows(M: SparseMatrix, F: CoefficientField, skip=()) -> set[int]:
    """Indices of linearly independent rows of M over F, found by eliminating
    the columns of M (the rows of its transpose), sparsest first, and leaving
    out every column whose index is in `skip`.

    The pivots of that elimination are row indices of M, and the rows they
    name are independent already in M with the `skip` columns deleted, so
    they are independent in M.  They number the rank of M with those columns
    deleted: the rank of M when `skip` is empty, and also whenever deleting
    the columns is injective on the row space of M, as in the clearing sweep
    of `fnf.GradedComplex`.
    """
    if not M.nnz:
        return set()
    rows, step = _elimination_rows(M, F, columns_except=skip)
    return {pc for pc, _ in _eliminate(rows, M.rows, step)}


def rref(M: SparseMatrix, F: CoefficientField):
    """Reduced row echelon form; returns (rows as dicts, pivot column list).

    One leftmost forward elimination, then back-substitution with the same
    pivot step, last pivot first, so that each pivot row is final before it
    clears its column from the rows above; the step keeps the column supports
    of the pivot rows, which name the rows to clear.  Each
    row is then scaled to a leading 1.  The rows are those of the unique
    reduced row echelon form of M, in pivot order.
    """
    rows, step = _elimination_rows(M, F)
    pivots, prows = [], []
    for pc, prow in _eliminate(rows, M.cols, step, leftmost=True):
        pivots.append(pc)
        prows.append(prow)
    # no pivot row below k meets pivot column pivots[k]: each was cleared there
    col_rows = [set() for _ in range(M.cols)]
    for k, prow in enumerate(prows):
        for j in prow:
            col_rows[j].add(k)
    for k in range(len(pivots) - 1, 0, -1):
        pc = pivots[k]
        targets = col_rows[pc] - {k}
        if targets:
            update = step(prows[k], pc, col_rows)
            for i in targets:
                prows[i] = update(prows[i], i)
    done = []
    for pc, prow in zip(pivots, prows):
        inv = F.inv(prow[pc])
        done.append({j: F.convert(F.mul(inv, v)) for j, v in prow.items()})
    return done, pivots


def cycles_map_to_boundaries(d_out: SparseMatrix, maps, d_in: SparseMatrix, F: CoefficientField) -> list[bool]:
    """For each L in `maps`, whether L maps every cycle of d_out into the
    image of d_in.

    With N = [[d_out, 0], [L, d_in]], the kernel of N projects onto the
    cycles z with Lz in im(d_in), each fibre a copy of ker(d_in); so rank N
    exceeds rank d_out + rank d_in by the codimension of those cycles in
    ker(d_out), and the two agree exactly when every cycle maps to a boundary.
    d_out and d_in are ranked once for all the maps, and N once per map.
    """
    maps = list(maps)
    for L in maps:
        if (L.rows, L.cols) != (d_in.rows, d_out.cols):
            raise ValueError(f"L must be {d_in.rows}x{d_out.cols}, got {L.rows}x{L.cols}")
    base = rank(d_out, F) + rank(d_in, F)
    top = d_out.rows
    shifted = [{top + i: v for i, v in col.items()} for col in d_in.columns()]
    out = []
    for L in maps:
        cols = [{**col, **{top + i: v for i, v in lcol.items()}} for col, lcol in zip(d_out.columns(), L.columns())]
        out.append(rank(SparseMatrix._trusted(top + d_in.rows, cols + shifted), F) == base)
    return out


def inverse(M: SparseMatrix, F: CoefficientField) -> SparseMatrix:
    """Inverse of a square matrix over F, read off the `rref` of [M | I].

    Raises ZeroDivisionError when M is singular over F: then some pivot of
    [M | I] falls in the identity block.
    """
    n = M.rows
    if M.cols != n:
        raise ValueError(f"cannot invert a {M.rows}x{M.cols} matrix")
    rows, pivots = rref(SparseMatrix._trusted(n, M.columns() + SparseMatrix.identity(n).columns()), F)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError(f"singular {n}x{n} matrix over {F}")
    return SparseMatrix._trusted(n, [{j - n: v for j, v in row.items() if j >= n} for row in rows]).transpose()


@dataclass
class RankTable:
    """A multigraded table of non-negative ranks; absent keys mean rank 0."""

    axes: tuple[str, ...]
    values: dict = field(default_factory=dict)

    def get(self, key) -> int:
        return self.values.get(tuple(key), 0)

    def set(self, key, r: int):
        key = tuple(key)
        if len(key) != len(self.axes):
            raise ValueError(f"key {key} does not match axes {self.axes}")
        if r < 0:
            raise ValueError("ranks are non-negative")
        if r == 0:
            self.values.pop(key, None)
        else:
            self.values[key] = r

    def items(self):
        return sorted(self.values.items())
