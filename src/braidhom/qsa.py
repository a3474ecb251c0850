"""The quantum shuffle algebra, its bar complexes, bigraded Ext ranks, and the
diagonal ring of components.

The algebra on a braided vector space V is graded with degree-n part the span
of length-n basis words; the product is the quantum shuffle product.  Ext
ranks over the algebra are computed as homology ranks of the reduced two-sided
bar complex restricted to one internal degree: in bar degree p and internal
degree n the basis is (compositions of n into p positive parts) x (words of
length n), compositions in colex order, words lexicographic.  The differential
merges adjacent blocks through the shuffle product with alternating signs; it
preserves the internal degree, and d^2 = 0 is asserted on every instance.
These are the cells and the merge of the Fox-Neuwirth-Fuks complex, so the
complex is assembled by `fnf.assemble_block_merge`; only the block operator,
the unsigned sum of shuffle lifts through the braiding, is computed here.  It
acts as I (x) Sh (x) I, so the lift sum runs once per block shape (a, b) on the
words of V^(x)(a+b) that some block reads, and is spread to V^(x)n by place
value, each image written once, straight to the local indices of the block.
The sum is `shuffle.shuffle_lift_sum`: it walks the braid words of the
C(a+b, a) lifts as a trie, applying each shared prefix once, and adds the
image of every lift on its own.  The FNF side builds its signed blocks by a
recursion over smaller blocks instead (`fnf.shuffle_blocks`), composing chains of generators and
never forming a lift; keeping the lift sum here keeps the two complexes
independent computations, which share only the braid action on words.

Over a field the homology ranks of the bar complex equal the cohomology ranks
of its dual cochain complex, which is why no dualization is performed.

The braid action keeps the words of one braid orbit together, so for a
rack-type V the complex in internal degree n splits into one block per orbit,
as the FNF complex does.  `ext_table` and `components_ring` build, check and
rank one block per class of `orbits.block_plan` (conjugate orbits merged only
for a G-invariant cocycle) and weight it by the class size, `ext_table`
through the one plan sum `fnf.plan_homology`; `bar_complex(V,
n, F)` without words builds the block of every word, the whole complex.  The
local block products are kept on V, filled word by word as blocks read them,
so all blocks and degrees share them and no word is lifted twice.

Convention: callers pass the braided space whose algebra they mean.  The
flagship cross-check `verify_main_cor` compares braid homology of V against
the Ext table of the sign twist of V, including the cell-by-cell identity of
the two chain complexes on every representative block, checked on the block
operators the one assembler turns into their differentials: the FNF
recursion on V (`fnf.shuffle_blocks`) against the bar lift sum on the twist
(`bar_blocks`).  The plan is all the two sides share beyond the cells and
the merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braided import BraidedVectorSpace, Rack, sign_twist
from .exactla import CoefficientField, ComplexIntegrityError, RankTable
from .fnf import (
    GradedComplex, TensorSystem, assemble_block_merge, complex_for_system, plan_homology, shuffle_blocks,
)
from .orbits import block_plan, rack_orbits
from .shuffle import shuffle_lift_sum


def default_nmax(V: BraidedVectorSpace) -> int:
    """Truncation degree keeping basis sizes around (rank V)^n 2^(n-1) desk-scale."""
    if V.rank == 1:
        return 8
    if V.rank <= 3:
        return 6
    if V.rank <= 6:
        return 5
    return 4


def bar_complex(V: BraidedVectorSpace, n: int, F: CoefficientField, words=None) -> GradedComplex:
    """The internal-degree-n reduced bar complex of the shuffle algebra of V,
    or its block on the span of `words` (see `bar_chains`), d^2 checked.

    Degrees are bar degrees p = 1..n; the matrix at p is d: (p, n) -> (p-1, n).
    The caller chooses V; no sign twist is applied here.
    """
    dims, diff = bar_chains(V, n, F, words)
    return GradedComplex(dims, diff, F)


def bar_chains(V: BraidedVectorSpace, n: int, F: CoefficientField, words=None):
    """The dimensions and differentials (dims, diff) of the bar complex on the
    span of `words`, unchecked: `fnf.assemble_block_merge` applied to
    `bar_blocks`."""
    words = range(V.rank**n) if words is None else words
    return assemble_block_merge(n, 0, len(words), bar_blocks(V, n, F, words), F)


def bar_blocks(V: BraidedVectorSpace, n: int, F: CoefficientField, words=None):
    """The block operator of the bar complex on the span of `words`:
    `block(a, b, offset)` lists, for each local index, its image {local index:
    nonzero field scalar} under the shuffle product of the a letters after the
    first `offset` with the b letters after them, spread to V^(x)n.

    `words` is a sorted list of word codes closed under the braid action (a
    block of `orbits.block_plan`), by default every code; local index i
    stands for word code words[i].  One map from word code to local index
    serves every block, and the spread blocks are memoised by (a, b, offset)
    in the returned closure.  The local block products are kept on V by (F,
    a, b), each a map {local word code: image}, so every block, and every
    degree n, shares them.  A block at `offset` reads only the local words
    code // place % size of the block's words (place = r^(n - offset - a - b),
    size = r^(a + b)), and only those not yet in the map are lifted: for S3
    transpositions at n = 5 the blocks with a + b = 5 read 81 of the 243
    words of V^(x)5.
    """
    words = range(V.rank**n) if words is None else words
    pos = {w: i for i, w in enumerate(words)}
    spread = {}

    def block(a, b, offset):
        if (a, b, offset) not in spread:
            m = a + b
            place, size = V.rank ** (n - offset - m), V.rank**m
            local = V.block_products.setdefault((F, a, b), {})
            missing = sorted({code // place % size for code in words}.difference(local))
            if missing:
                local.update(_local_block_product(V, F, a, b, missing))
            spread[a, b, offset] = _spread_block(local, V.rank, n, m, offset, words, pos)
        return spread[a, b, offset]

    return block


def _local_block_product(V: BraidedVectorSpace, F: CoefficientField, a: int, b: int, words) -> dict:
    """Images of the given basis words of V^(x)(a+b) (codes) under the
    shuffle product of their first a letters with their last b letters, as
    {word code: {word code: field scalar}}: the unsigned sum of the braid
    lifts of all (a, b)-shuffles.

    Each lift is applied once to all the words together: word w is carried
    as w (x) w in V^(x)m (x) V^(x)m (m = a + b), the lift acts on the right
    factor, and the untouched left factor records which word an image came
    from.  `shuffle.shuffle_lift_sum` walks the lifts as a trie of their
    braid words, so a prefix shared by several lifts is applied once, and
    adds each lift's image on its own; each exact sum is then converted into
    F once.
    """
    m = a + b
    size = V.rank**m
    tagged = {w * size + w: 1 for w in words}
    out = {w: {} for w in words}
    for code, cf in shuffle_lift_sum(V, 2 * m, a, b, tagged, offset=m).items():
        cf = F.convert(cf)
        if cf:
            w, image = divmod(code, size)
            out[w][image] = cf
    return out


def _spread_block(local: dict, r: int, n: int, m: int, offset: int, words, pos: dict):
    """The operator I (x) B (x) I on the span of `words` in V^(x)n, for B on
    the m letters after the first `offset`, given as B's images {code: image}
    of the words of V^(x)m that it reads: the block code sits at place value
    r^(n - offset - m).  Word code words[i] is local index i, and `pos` maps
    each code back to it; an image outside the span raises
    ComplexIntegrityError."""
    place = r ** (n - offset - m)
    size = r**m
    out = []
    try:
        for code in words:
            mid = code // place % size
            base = code - mid * place
            out.append({pos[base + w * place]: cf for w, cf in local[mid].items()})
    except KeyError as exc:
        raise ComplexIntegrityError(f"a shuffle product carries a word out of its block, to {exc.args[0]}") from None
    return out


def ext_table(V: BraidedVectorSpace, Nmax: int, F: CoefficientField) -> RankTable:
    """Ranks of Ext^{s,n} over the shuffle algebra of V, for n <= Nmax, 0 <= s <= n."""
    table = RankTable(("s", "n"))
    table.set((0, 0), 1)
    for n in range(1, Nmax + 1):
        ranks = plan_homology((bar_complex(V, n, F, words), mult) for words, mult in block_plan(V, n))
        for p in range(1, n + 1):
            table.set((p, n), ranks.get(p, 0))
    return table


@dataclass
class ComponentsRing:
    """The diagonal Ext ring: dims r(n) and, for rack-type spaces with trivial
    cocycle, the orbit basis with concatenation products on the tables of `rack`."""

    dims: list[int]
    orbit_reps: list | None = None     # per degree, list of canonical words
    rack: Rack | None = field(default=None, repr=False)

    def r(self, n: int) -> int:
        return self.dims[n]

    def product(self, n1: int, k1: int, n2: int, k2: int) -> int:
        """Index of the product of basis orbits (concatenate, re-canonicalize)."""
        if self.orbit_reps is None:
            raise ValueError("no orbit basis available for this space")
        return rack_orbits(self.rack, n1 + n2).index(self.orbit_reps[n1][k1] + self.orbit_reps[n2][k2])


def components_ring(V: BraidedVectorSpace, Nmax: int, F: CoefficientField) -> ComponentsRing:
    """The ring of components of V: dims of the diagonal Ext of the sign twist,
    with the orbit basis attached (and cross-checked) for rack-type V with
    constant trivial cocycle."""
    diag = []
    Veps = sign_twist(V)
    for n in range(Nmax + 1):
        if n == 0:
            diag.append(1)
            continue
        diag.append(sum(mult * bar_complex(Veps, n, F, words).homology_rank(n)
                        for words, mult in block_plan(Veps, n)))
    trivial_cocycle = (
        V.rack is not None
        and V.cocycle is not None
        and all(v == 1 for row in V.cocycle.table for v in row)
    )
    if not trivial_cocycle:
        return ComponentsRing(diag)
    reps = [[rec.rep for rec in rack_orbits(V.rack, n).orbits] for n in range(Nmax + 1)]
    for n in range(Nmax + 1):
        if len(reps[n]) != diag[n]:
            raise AssertionError(
                f"diagonal Ext rank {diag[n]} != orbit count {len(reps[n])} at degree {n}"
            )
    return ComponentsRing(diag, reps, V.rack)


@dataclass
class VerifyReport:
    n: int
    field: CoefficientField
    betti: list[int]
    ext_diagonal: list[int]
    chain_level_ok: bool

    @property
    def ok(self) -> bool:
        return self.betti == self.ext_diagonal and self.chain_level_ok

    def lines(self):
        out = [
            f"n={self.n} field={self.field}",
            f"  H_j(B_n; V^n)            = {self.betti}",
            f"  Ext^(n-j, n) of twist    = {self.ext_diagonal}",
            f"  chain-level cell match   = {'yes' if self.chain_level_ok else 'NO'}",
            f"  {'PASS' if self.ok else 'FAIL'}",
        ]
        return out


def verify_main_cor(V: BraidedVectorSpace, n: int, F: CoefficientField) -> VerifyReport:
    """Cross-check the two pipelines at every homological degree.

    For each block of `orbits.block_plan(V, n)` it builds the cellular complex
    of the block of V^(x)n and checks it cell by cell against the bar complex
    of the same words for the sign twist, under the canonical cell bijection
    (total degree n + p <-> bar degree p), by comparing their block operators:
    the FNF operator `fnf.shuffle_blocks` that the cellular complex was
    assembled from against `bar_blocks` on the twist, for every a, b >= 1 and
    offset with offset + a + b <= n.  Both complexes are
    `fnf.assemble_block_merge` of their operator on the same cells, and every
    operator block lands, with a sign fixed by the cell, in a column of some
    differential, so the operators agree exactly when every differential does
    (and the dimensions, the cells times len(words), agree by construction).
    The two share only the plan, the cells and the merge: the FNF blocks come
    from the shuffle recursion on V, the bar blocks from the lift sum on the
    sign twist, so every run checks one against the other on every block.
    Ranks are summed over the plan, each block weighted by its multiplicity.
    H_j(B_n; V^(x)n) comes from the cellular complex, whose d^2 is checked.
    When a block's operators agree, its Ext^{n-j, n} is read from the same
    ranks, since equal matrices have equal ranks and equal products, so the
    bar complex is neither assembled nor checked; otherwise that bar block is
    assembled, checked and ranked on its own (`bar_complex`) and both rank
    vectors are reported.
    """
    Veps = sign_twist(V)
    betti = [0] * (n + 1)
    ext_diag = [0] * (n + 1)
    chain_ok = True
    shapes = [(a, b, offset) for a in range(1, n) for b in range(1, n - a + 1) for offset in range(n - a - b + 1)]
    for words, mult in block_plan(V, n):
        system = TensorSystem(V, n, words)
        fnf = complex_for_system(system, n, F)
        fnf_block, bar_block = shuffle_blocks(system, F), bar_blocks(Veps, n, F, words)
        same = all(fnf_block(*shape) == bar_block(*shape) for shape in shapes)
        del system, fnf_block, bar_block  # the operators' tables are not needed for ranking
        chain_ok = chain_ok and same
        table = fnf.homology_table()
        if same:
            ext = {p: table.get(n + p, 0) for p in range(1, n + 1)}
        else:
            ext = bar_complex(Veps, n, F, words).homology_table()
        for j in range(n + 1):
            betti[j] += mult * table.get(2 * n - j, 0)
            ext_diag[j] += mult * ext.get(n - j, 0)
    return VerifyReport(n, F, betti, ext_diag, chain_ok)
