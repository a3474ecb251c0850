"""Exact scalars and sparse exact linear algebra.

Rational scalars are ints, or `fractions.Fraction`s when not integral;
prime-field scalars are ints reduced into [0, p).  A `SparseMatrix` with r rows
and c columns represents a linear map from k^c to k^r in the column-vector
convention; only nonzero entries are stored.  Every rank in the package flows
through `rank`, which runs one sparse Gaussian elimination driver with a
per-field row update: over a prime field directly, over the rationals by
clearing denominators row-wise and eliminating integer rows with per-row gcd
normalization, so no Fraction arithmetic happens inside the loop.

Products (`SparseMatrix.matmul`, `SparseMatrix.apply`) coerce each input entry
into the field once, accumulate with native + and *, and reduce each output
entry once (`CoefficientField.reduced`).

Pivots are chosen in the sparsest eligible column (ties: lowest column index),
and within that column in the shortest row (ties: lowest row index).  This
makes every computation deterministic.  The driver keeps the column supports
(which live rows meet each column, and how many) up to date as rows are
updated, so choosing a pivot never rescans the matrix; the rule, and with it
every pivot and every intermediate row, is the same as for a full rescan.
All values are immutable after construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
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

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime_field"

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

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

    def sub(self, a, b):
        return a - b if self.characteristic == 0 else (a - b) % self.characteristic

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
    """Immutable-by-convention sparse matrix over exact scalars.

    Entries may be ints, Fractions, or prime-field residues; they are coerced
    into the target field at computation time (over Q, an integral entry
    becomes an int).  Zero entries are never stored.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"index ({i},{j}) out of range for {rows}x{cols}")
                if v != 0:
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict]) -> "SparseMatrix":
        ent = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v != 0:
                    ent[(i, j)] = v
        return cls(rows, len(columns), ent)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def columns(self) -> list[dict]:
        """Every column as a {row: value} dict, in one pass over the entries."""
        cols = [{} for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def row_lists(self, F: CoefficientField) -> list[dict]:
        """Rows as {col: scalar} dicts with entries coerced into F."""
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            fv = F.convert(v)
            if fv != 0:
                rows[i][j] = fv
        return rows

    def scale(self, c) -> "SparseMatrix":
        return SparseMatrix(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def add(self, other: "SparseMatrix", F: CoefficientField) -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        ent = {k: F.convert(v) for k, v in self.entries.items()}
        for k, v in other.entries.items():
            s = F.add(ent.get(k, F.zero), F.convert(v))
            if s == 0:
                ent.pop(k, None)
            else:
                ent[k] = s
        return SparseMatrix(self.rows, self.cols, ent)

    def matmul(self, other: "SparseMatrix", F: CoefficientField) -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        convert = F.convert
        cols_self = [dict() for _ in range(self.cols)]
        for (i, k), v in self.entries.items():
            cols_self[k][i] = convert(v)
        by_col = [dict() for _ in range(other.cols)]
        for (k, j), v in other.entries.items():
            by_col[j][k] = convert(v)
        ent = {}
        for j, col in enumerate(by_col):
            acc = {}
            for k, b in col.items():
                for i, a in cols_self[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            for i, v in F.reduced(acc).items():
                ent[(i, j)] = v
        return SparseMatrix(self.rows, other.cols, ent)

    def apply(self, vec: dict, F: CoefficientField) -> dict:
        """Apply to a column vector given as {index: scalar}."""
        convert = F.convert
        x = {j: convert(v) for j, v in vec.items()}
        out = {}
        for (i, j), v in self.entries.items():
            xj = x.get(j)
            if xj is not None:
                out[i] = out.get(i, 0) + convert(v) * xj
        return F.reduced(out)

    def to_triplet_text(self) -> str:
        """Serialize as 'rows cols nnz' header plus one 'row col value' line per entry."""
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        for (i, j) in sorted(self.entries):
            lines.append(f"{i} {j} {self.entries[(i, j)]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplet_text(cls, text: str) -> "SparseMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        r, c, nnz = (int(t) for t in lines[0].split())
        ent = {}
        for ln in lines[1 : nnz + 1]:
            i, j, v = ln.split()
            ent[(int(i), int(j))] = Fraction(v) if "/" in v else int(v)
        return cls(r, c, ent)


def _eliminate(rows: list[dict], ncols: int, pivot_step) -> int:
    """Rank of the nonzero dict rows by sparse Gaussian elimination.

    `pivot_step(prow, pc)` returns the field's row update for one pivot: a
    function taking a row with a nonzero entry in column pc and returning the
    row with that entry eliminated (mutated in place or rebuilt).  The pivot
    is taken in the sparsest live column (ties: lowest column index), and in
    that column from the shortest row (ties: lowest row index).

    Column supports are kept up to date instead of rescanned: `col_rows[j]`
    holds the ids of live rows with an entry in column j, and `heap` holds
    (count, j) pairs, pushed whenever a count changes and discarded lazily
    once stale.  An update can only change the support of the row it rewrites
    in the columns of the pivot row, so only those entries are touched.
    """
    live = dict(enumerate(rows))
    col_rows = [set() for _ in range(ncols)]
    for rid, r in live.items():
        for j in r:
            col_rows[j].add(rid)
    heap = [(len(s), j) for j, s in enumerate(col_rows) if s]
    heapq.heapify(heap)
    rank = 0
    while heap:
        count, pc = heap[0]
        if len(col_rows[pc]) != count:
            heapq.heappop(heap)
            continue
        targets = col_rows[pc]
        col_rows[pc] = set()
        _, pid = min((len(live[rid]), rid) for rid in targets)
        prow = live.pop(pid)
        rank += 1
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
        for j in prow:
            if j != pc and col_rows[j]:
                heapq.heappush(heap, (len(col_rows[j]), j))
    return rank


def _modp_pivot_step(p: int):
    """The pivot step over F_p: r := r - (r[pc] / prow[pc]) prow, in place."""

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


def _int_pivot_step(prow: dict, pc: int):
    """Fraction-free row update over Z: r := prow[pc] r - r[pc] prow, then
    divided by the gcd of its entries."""
    pval = prow[pc]

    def update(r: dict) -> dict:
        a = r[pc]
        new = {j: pval * v for j, v in r.items()}
        for j, v in prow.items():
            nv = new.get(j, 0) - a * v
            if nv:
                new[j] = nv
            else:
                new.pop(j, None)
        g = gcd(*new.values())
        if g > 1:
            new = {j: v // g for j, v in new.items()}
        return new

    return update


def rank(M: SparseMatrix, F: CoefficientField) -> int:
    """Exact rank of M over F.

    Raises FieldMismatchError if an entry cannot be interpreted in F (for
    example a Fraction whose denominator vanishes mod p).
    """
    if M.rows == 0 or M.cols == 0 or not M.entries:
        return 0
    rows = [r for r in M.row_lists(F) if r]
    if not F.is_rational:
        return _eliminate(rows, M.cols, _modp_pivot_step(F.characteristic))
    int_rows = []
    for r in rows:
        den = lcm(*(v.denominator for v in r.values()))
        ints = {j: v.numerator * (den // v.denominator) for j, v in r.items()}
        g = gcd(*ints.values())
        if g > 1:
            ints = {j: v // g for j, v in ints.items()}
        int_rows.append(ints)
    return _eliminate(int_rows, M.cols, _int_pivot_step)


def rref(M: SparseMatrix, F: CoefficientField):
    """Reduced row echelon form; returns (rows as dicts, pivot column list).

    Pivots are taken leftmost column first (the shortest row holding it, lowest
    index on ties), so they come in increasing order; the pivot columns are
    those of the unique reduced row echelon form of M.

    As in `_eliminate`, column supports are kept instead of rescanned:
    `live_cols[j]` holds the ids of unpivoted rows with an entry in column j,
    `done_cols[j]` those of pivot rows.  Eliminating column pc leaves no
    unpivoted row with an entry at or left of pc, so the next pivot column is
    found by moving one pointer to the right.
    """
    rows = dict(enumerate(r for r in M.row_lists(F) if r))
    live_cols = [set() for _ in range(M.cols)]
    done_cols = [set() for _ in range(M.cols)]
    for rid, r in rows.items():
        for j in r:
            live_cols[j].add(rid)
    sub, mul = F.sub, F.mul
    pivots = []
    done = []
    pc = 0
    while True:
        while pc < M.cols and not live_cols[pc]:
            pc += 1
        if pc == M.cols:
            break
        _, pid = min((len(rows[rid]), rid) for rid in live_cols[pc])
        for j in rows[pid]:
            live_cols[j].discard(pid)
        inv = F.inv(rows[pid][pc])
        prow = rows[pid] = {j: mul(inv, v) for j, v in rows[pid].items()}
        for supports in (live_cols, done_cols):
            for rid in list(supports[pc]):
                r = rows[rid]
                a = r[pc]
                for j, v in prow.items():
                    nv = sub(r.get(j, F.zero), mul(a, v))
                    if nv == 0:
                        r.pop(j, None)
                        supports[j].discard(rid)
                    else:
                        r[j] = nv
                        supports[j].add(rid)
        for j in prow:
            done_cols[j].add(pid)
        done.append(prow)
        pivots.append(pc)
    return done, pivots


def kernel_basis(M: SparseMatrix, F: CoefficientField) -> list[dict]:
    """A deterministic basis of ker(M) as sparse column vectors."""
    rrows, pivots = rref(M, F)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = {f: F.one}
        for prow, pc in zip(rrows, pivots):
            a = prow.get(f)
            if a is not None:
                vec[pc] = F.neg(a)
        basis.append(vec)
    return basis


def column_space_contains(M: SparseMatrix, vec: dict, F: CoefficientField) -> bool:
    """Whether vec lies in the column space of M."""
    aug = SparseMatrix.from_columns(M.rows, M.columns() + [dict(vec)])
    return rank(aug, F) == rank(M, F)


def homology_basis(d_in: SparseMatrix, d_out: SparseMatrix, F: CoefficientField) -> list[dict]:
    """Cycle representatives spanning ker(d_out)/im(d_in), as sparse vectors.

    Chosen deterministically: kernel vectors of d_out that add rank beyond the
    columns of d_in, in kernel-basis order.
    """
    ker = kernel_basis(d_out, F)
    img_cols = d_in.columns()
    r0 = rank(d_in, F)
    reps = []
    kept = list(img_cols)
    for kv in ker:
        cand = SparseMatrix.from_columns(d_in.rows, kept + [kv])
        r1 = rank(cand, F)
        if r1 > r0:
            reps.append(kv)
            kept.append(kv)
            r0 = r1
    return reps


def inverse(M: SparseMatrix, F: CoefficientField) -> SparseMatrix:
    """Inverse of a square matrix over F, read off the `rref` of [M | I].

    Raises ZeroDivisionError when M is singular over F: then some pivot of
    [M | I] falls in the identity block.
    """
    n = M.rows
    if M.cols != n:
        raise ValueError(f"cannot invert a {M.rows}x{M.cols} matrix")
    aug = SparseMatrix(n, 2 * n, {**M.entries, **{(i, n + i): 1 for i in range(n)}})
    rows, pivots = rref(aug, F)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError(f"singular {n}x{n} matrix over {F}")
    return SparseMatrix(n, n, {(i, j - n): v for i, row in enumerate(rows) for j, v in row.items() if j >= n})


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

    def to_csv(self) -> str:
        lines = [",".join(self.axes + ("rank",))]
        for key, r in self.items():
            lines.append(",".join(str(k) for k in key) + f",{r}")
        return "\n".join(lines) + "\n"
