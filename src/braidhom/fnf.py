"""Cellular chain complexes for braid group homology with local coefficients.

The complex for n strands has, in total degree q (n+1 <= q <= 2n), one cell
per ordered partition of n with q - n parts, tensored with the coefficient
space.  The differential merges adjacent parts lambda_i, lambda_{i+1} with
sign (-1)^(i-1), acting on the affected strand block by the signed sum of
lifted shuffles, sum_tau (-1)^|tau| tau~.  H_j of the braid group is read off
as the homology rank in total degree 2n - j (field coefficients, so homology
and compactly-supported-cohomology ranks agree).

Coefficients are abstracted as a local system: anything with a basis and an
action of braid words on vectors over that basis.  Tensor powers of a braided
vector space are the main instance; permutation actions on Nielsen classes
reuse the same machinery.

The cells and the alternating merge of adjacent blocks are shared with the bar
complex of the quantum shuffle algebra (`qsa.bar_complex`): both are built by
`assemble_block_merge`, and only the block operator differs.  Here it is the
shuffle-signed sum of braid lifts acting on the coefficients, built by
`shuffle_blocks` from smaller blocks (the recursion on the strand in the last
slot, the (a, b)-shuffle analogue of Woronowicz's factorisation of the
symmetrizer) rather than lift by lift, with each chain of generators the
recursion uses composed once, from the chain one shorter.  The bar complex
keeps the lift sum, on V^(x)(a+b) once per block shape, so the chain-level
comparison in `qsa.verify_main_cor` sets two different algorithms against each
other.

A complex is held as its dimensions and its differentials: cells are
counted, never listed (`assemble_block_merge` fixes their order).

For a rack-type V (sigma(a (x) b) one term on b (x) a^b) braid moves keep a
word inside its braid orbit, so the complex is a direct sum of blocks, one per
orbit; a `TensorSystem` on one block's words builds just that block, through
one map from word code to local index (the whole space is the block of every
code).  `braid_homology` sums over `orbits.block_plan`, which keeps one block
per class of orbits under simultaneous conjugation by the group, weighted by
the class size.  `plan_homology` is the one function that sums homology over
such a plan of (complex, multiplicity) pairs, for every caller: the FNF and
bar blocks, the Nielsen-class complex (a plan of one entry) and the G-grade
blocks of each Koszul diagonal; it ranks each complex as the plan yields it
and keeps none.  Conjugate orbits are merged only when every group generator
preserves every braiding coefficient (a G-invariant cocycle); then the blocks
are permutation-isomorphic and have equal ranks.  Spaces without a rack (the
Jordan plane, duals, hand-built braidings) are one block of all r^n words.
"""

from __future__ import annotations

from itertools import chain

from .braided import BraidedVectorSpace, apply_moves_to_vector
from .exactla import CoefficientField, ComplexIntegrityError, SparseMatrix, independent_rows, products_vanish
from .orbits import block_plan
from .shuffle import compositions


class TensorSystem:
    """The local system V^(x)n for a braided vector space V, restricted to the
    span of `words`: a sorted list of word codes that braid moves keep among
    themselves (a block of `orbits.block_plan`), by default every code.  Local
    index i stands for word code words[i]."""

    def __init__(self, V: BraidedVectorSpace, n: int, words=None):
        self.V = V
        self.n = n
        self.words = range(V.rank**n) if words is None else words
        self.dim = len(self.words)
        self._local = {w: i for i, w in enumerate(self.words)}
        self.blocks = {}  # field -> the memoised `shuffle_blocks` operator

    def apply_moves(self, moves, idx: int):
        """Image of a basis vector as {index: exact coefficient}."""
        image = apply_moves_to_vector(self.V, self.n, moves, {self.words[idx]: 1})
        try:
            return {self._local[code]: cf for code, cf in image.items()}
        except KeyError as exc:
            raise ComplexIntegrityError(
                f"braid moves {list(moves)} carry word code {self.words[idx]} out of its block, "
                f"to {exc.args[0]}") from None


class PermutationSystem:
    """A local system where braid generators act by permuting a finite basis.

    `gen_action(i, sign, idx)` must return the image index of basis vector
    idx under the (1-based) generator i, inverse when sign < 0.
    """

    def __init__(self, dim: int, gen_action):
        self.dim = dim
        self._act = gen_action
        self.blocks = {}  # field -> the memoised `shuffle_blocks` operator

    def apply_moves(self, moves, idx: int):
        for mv in moves:
            idx = self._act(abs(mv), 1 if mv > 0 else -1, idx)
        return {idx: 1}


class GradedComplex:
    """A finite chain complex of based vector spaces.

    `dims[q]` is the dimension of C_q; `diff[q]` is the matrix of
    d: C_q -> C_{q-1}.  Construction asserts that every differential has the
    shape those dimensions demand and that d^2 = 0; a violation raises
    ComplexIntegrityError.  The d^2 check builds no product: it sums d_{q-1}
    d_q one column at a time and stops at the first nonzero entry
    (`exactla.products_vanish`).

    Differentials are ranked from the top degree down, in one lazy sweep with
    clearing (as persistent cohomology codes do: Chen-Kerber 2011, Bauer's
    Ripser 2021).  Ranking d_{q+1} yields R_{q+1}, a set of row indices of
    d_{q+1} whose rows are a basis of its row space; d_q is then ranked by
    eliminating its columns, leaving out the columns in R_{q+1}.  The rank is
    unchanged:

    - d_q d_{q+1} = 0, so every row of d_q lies in the left kernel of d_{q+1};
    - a left-kernel vector supported on R_{q+1} is zero, since those rows of
      d_{q+1} are independent;
    - so deleting the columns R_{q+1} is injective on the row space of d_q.

    The pivots of that elimination are independent rows of the full d_q, as
    many as its rank: they are R_q, handed to d_{q-1}.  Only the set for the
    next degree is kept.  `differential_rank(q)` first ranks every degree
    above q, so the order of calls does not matter; each differential is
    ranked at most once, and the top one alone ranks a single matrix.

    `split` cuts a complex into the blocks of a grading that d preserves.
    """

    def __init__(self, dims: dict, diff: dict, F: CoefficientField):
        self._take(dims, diff, F)
        self.check_complex()

    @classmethod
    def _trusted(cls, dims: dict, diff: dict, F: CoefficientField) -> GradedComplex:
        """A complex known to have d^2 = 0 and the right shapes, built without checks."""
        cx = cls.__new__(cls)
        cx._take(dims, diff, F)
        return cx

    def _take(self, dims: dict, diff: dict, F: CoefficientField):
        self.dims = dims
        self.diff = diff
        self.F = F
        self._ranks: dict[int, int] = {}
        self._unranked = sorted(diff)  # degrees still to rank, the top one last
        self._cleared: set[int] = set()  # R_{q+1} of the last degree q+1 ranked

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def dim(self, q: int) -> int:
        return self.dims.get(q, 0)

    def differential(self, q: int) -> SparseMatrix:
        """d: C_q -> C_{q-1}, a zero map of the right shape when absent."""
        if q in self.diff:
            return self.diff[q]
        return SparseMatrix.zero(self.dim(q - 1), self.dim(q))

    def check_complex(self):
        for q, d in sorted(self.diff.items()):
            if (d.rows, d.cols) != (self.dim(q - 1), self.dim(q)):
                raise ComplexIntegrityError(
                    f"d_{q} is {d.rows}x{d.cols}, but C_{q - 1} and C_{q} have "
                    f"dimensions {self.dim(q - 1)} and {self.dim(q)}"
                )
        for q in self.degrees:
            if self.dim(q) and self.dim(q - 1) and self.dim(q - 2):
                if not products_vanish([(self.differential(q - 1), self.differential(q))], self.F):
                    raise ComplexIntegrityError(f"d^2 != 0 between degrees {q} and {q - 2}")

    def differential_rank(self, q: int) -> int:
        """Rank of d: C_q -> C_{q-1}, computed once per instance by the
        top-down sweep, which ranks every degree above q first."""
        if q not in self.diff:
            return 0
        while q not in self._ranks:
            top = self._unranked.pop()
            cleared = self._cleared if top + 1 in self._ranks else ()
            self._cleared = independent_rows(self.diff[top], self.F, cleared)
            self._ranks[top] = len(self._cleared)
        return self._ranks[q]

    def homology_rank(self, q: int) -> int:
        return self.dim(q) - self.differential_rank(q) - self.differential_rank(q + 1)

    def homology_table(self) -> dict[int, int]:
        return {q: self.homology_rank(q) for q in self.degrees}

    def split(self, grades: dict, keep=None) -> dict:
        """The blocks of a grading that d preserves, as {grade: GradedComplex}.

        `grades[q][i]` is the grade of basis vector i of C_q.  The block of a
        grade holds its basis vectors in index order and the entries of d
        between them.  Every entry of every differential is read first, and
        one joining two grades raises ComplexIntegrityError; past that, this
        complex is the direct sum of its blocks, so each block's d^2 is a block
        of this complex's (checked at construction) and blocks are built
        without checks.  Only the blocks of the grades in `keep` are built (of
        every grade present when it is None).
        """
        for q, M in self.diff.items():
            src, tgt = grades[q], grades[q - 1]
            for j, col in enumerate(M.columns()):
                g = src[j]
                for i in col:
                    if tgt[i] != g:
                        raise ComplexIntegrityError(f"entry (row {i}, column {j}) of d_{q} joins grade {g} "
                                                    f"to grade {tgt[i]}")
        if keep is None:
            keep = dict.fromkeys(chain.from_iterable(grades[q] for q in sorted(grades)))
        members = {}  # q -> {grade in keep: the indices of its basis vectors in C_q}
        for q, gs in grades.items():
            kept = members[q] = {g: [] for g in keep}
            for i, g in enumerate(gs):
                if g in kept:
                    kept[g].append(i)
        blocks = {}
        for g in keep:
            dims = {q: len(idx[g]) for q, idx in members.items() if idx[g]}
            diff = {}
            for q, M in self.diff.items():
                if q in dims:
                    cols, rows = M.columns(), members[q - 1][g]
                    place = {i: r for r, i in enumerate(rows)}
                    diff[q] = SparseMatrix._trusted(len(rows), [{place[i]: v for i, v in cols[j].items()}
                                                                for j in members[q][g]])
            blocks[g] = GradedComplex._trusted(dims, diff, self.F)
        return blocks


def shuffle_blocks(system, F: CoefficientField):
    """The signed shuffle block operators of a local system, memoised.

    Returns `block(a, b, offset)`: for each coefficient index, its image
    {index: field scalar} under Sh(a, b), the signed sum of the lifted
    (a, b)-shuffles of the strands offset+1 .. offset+a+b.  It is built by
    the recursion on the strand that lands in the last slot,

        Sh(a, b) = Sh(a, b-1) + (-1)^b Sh(a-1, b) o (s_{o+a}, ..., s_{o+a+b-1}),

    the chain applied first (it carries the last left strand across the b
    right ones), with Sh(a, 0) = Sh(0, b) = identity.  The chains are kept
    as tables too, built lazily: the images of every index under s_s ... s_e
    are those under the chain one shorter followed by the generator s_e, whose
    images are the only calls to `system.apply_moves`.  So each generator is
    applied once per index, each longer chain costs one composition step, and
    each block the size of its output, instead of C(a+b, a) lifts.  Chain
    images keep their exact coefficients, as tuples of (index, coefficient)
    pairs (half the memory of a dict); a block converts them into F as it
    reads them.  The tables live in the returned closure, which is kept on
    the system, one per field (`system.blocks`): `complex_for_system` and a
    later call read the same tables.
    """
    if F in system.blocks:
        return system.blocks[F]
    identity = [{idx: 1} for idx in range(system.dim)]
    chains = {}
    memo = {}

    def chain(s: int, e: int):
        key = (s, e)
        if key not in chains:
            if s == e:
                chains[key] = [tuple(system.apply_moves([e], idx).items()) for idx in range(system.dim)]
            else:
                gen = chain(e, e)
                out = []
                for image in chain(s, e - 1):
                    acc = {}
                    for j, cf in image:
                        for k, v in gen[j]:
                            acc[k] = acc.get(k, 0) + cf * v
                    out.append(tuple(acc.items()))  # an exact zero is kept; F.reduced drops it
                chains[key] = out
        return chains[key]

    def block(a: int, b: int, offset: int):
        if a == 0 or b == 0:
            return identity
        key = (a, b, offset)
        if key not in memo:
            sign = -1 if b % 2 else 1
            stay, cross = block(a, b - 1, offset), block(a - 1, b, offset)
            moved = chain(offset + a, offset + a + b - 1)
            out = []
            for idx in range(system.dim):
                acc = dict(stay[idx])
                for j, cf in moved[idx]:
                    c = sign * F.convert(cf)
                    for k, v in cross[j].items():
                        acc[k] = acc.get(k, 0) + c * v
                out.append(F.reduced(acc))
            memo[key] = out
        return memo[key]

    system.blocks[F] = block
    return block


def assemble_block_merge(n: int, shift: int, dim: int, block_vectors, F: CoefficientField):
    """Dimensions and differentials of a block-merge complex, as (dims, diff).

    Degree shift + k holds one cell (lambda, idx) per composition lambda of n
    into k parts (colex order) and coefficient index idx in range(dim), at
    position (rank of lambda) * dim + idx; cells are counted, never listed.
    The differential merges parts i, i+1 of lambda with sign (-1)^i (i from 0)
    through the block operator: `block_vectors(a, b, offset)` lists, for every
    coefficient index, its image {index: nonzero field scalar, over F_p a
    residue in (0, p)} under merging the block of size a starting at `offset`
    with the following block of size b; it is called for every merge, and
    memoises by (a, b, offset) (`shuffle_blocks`, `qsa.bar_blocks`).
    Different merges of one lambda land in different compositions, so a column
    is a disjoint union of signed block images and nothing is summed.  Each
    cell's column is built once and handed to `SparseMatrix._trusted`: its
    entries are in range and nonzero by construction.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    comps = {k: compositions(n, k) for k in range(1, n + 1)}
    dims = {shift + k: len(comps[k]) * dim for k in comps}
    flip = F.characteristic  # negation: -cf over Q, p - cf for a residue cf in (0, p)
    diff = {}
    for k in range(2, n + 1):
        tgt_index = {lam: t for t, lam in enumerate(comps[k - 1])}
        columns = []
        for lam in comps[k]:
            offset = 0
            merges = []
            for i in range(len(lam) - 1):
                a, b = lam[i], lam[i + 1]
                merged = lam[:i] + (a + b,) + lam[i + 2:]
                merges.append((tgt_index[merged] * dim, i % 2 == 1, block_vectors(a, b, offset)))
                offset += a
            for idx in range(dim):
                col = {}
                for base, negate, vecs in merges:
                    if negate:
                        for j, cf in vecs[idx].items():
                            col[base + j] = flip - cf
                    else:
                        for j, cf in vecs[idx].items():
                            col[base + j] = cf
                columns.append(col)
        diff[shift + k] = SparseMatrix._trusted(dims[shift + k - 1], columns)
    return dims, diff


def complex_for_system(system, n: int, F: CoefficientField) -> GradedComplex:
    """The cellular complex of the n-strand configuration with the given coefficients."""
    dims, diff = assemble_block_merge(n, n, system.dim, shuffle_blocks(system, F), F)
    return GradedComplex(dims, diff, F)


def fnf_complex(V: BraidedVectorSpace, n: int, F: CoefficientField) -> GradedComplex:
    """The cellular complex computing braid group homology with coefficients V^(x)n."""
    return complex_for_system(TensorSystem(V, n), n, F)


def plan_homology(plan) -> dict[int, int]:
    """Homology ranks by degree summed over a rank plan: multiplicity times the
    ranks of each complex of its (complex, multiplicity) entries.  This is the
    package's one sum over a plan.  Each complex is ranked as the plan yields
    it and dropped before the next is asked for, so a generator plan holds one
    block at a time."""
    total: dict[int, int] = {}
    for cx, mult in plan:
        for q, h in cx.homology_table().items():
            total[q] = total.get(q, 0) + mult * h
        del cx  # freed before the plan builds the next block
    return total


def braid_homology(V: BraidedVectorSpace, n: int, F: CoefficientField) -> list[int]:
    """Ranks of H_j(B_n; V^(x)n) over F for j = 0..n, summed over the blocks of
    `orbits.block_plan`."""
    table = plan_homology((complex_for_system(TensorSystem(V, n, words), n, F), mult)
                          for words, mult in block_plan(V, n))
    return [table.get(2 * n - j, 0) for j in range(n + 1)]
