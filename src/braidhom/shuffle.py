"""Shuffle combinatorics, braid lifts of permutations, and the quantum shuffle product.

An (m, n)-shuffle is encoded by its interleaving bit sequence: 0 for a slot
taken by the left block, 1 for the right block.  Its crossing number is the
count of (1, 0) inversion pairs, which equals the inversion count of the
underlying permutation and hence the length of the positive braid lift.

Braid lifts: a permutation given in one-line notation as the arrangement
reached from the identity is lifted by recording the adjacent swaps of an
insertion sort (a reduced word), each swap becoming a positive generator.
All reduced words of a permutation give the same braid, so the lift is
canonical.  Words are applied left to right, matching braided.braid_word_action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .braided import BraidedVectorSpace, apply_moves_to_vector, index_word, word_index
from .exactla import CoefficientField, SparseMatrix


@dataclass(frozen=True)
class ShuffleRecord:
    m: int
    n: int
    interleaving: tuple[int, ...]
    crossings: int

    @property
    def sign(self) -> int:
        return -1 if self.crossings % 2 else 1

    def arrangement(self) -> tuple[int, ...]:
        """One-line word: arrangement[t] = source strand (0-based) landing in slot t."""
        out = []
        lo, hi = 0, self.m
        for bit in self.interleaving:
            if bit == 0:
                out.append(lo)
                lo += 1
            else:
                out.append(hi)
                hi += 1
        return tuple(out)

    def braid_word(self) -> list[int]:
        return matsumoto_lift(self.arrangement())


def shuffles(m: int, n: int) -> list[ShuffleRecord]:
    """All C(m+n, n) shuffles of blocks of sizes m and n, with crossing counts."""
    if m < 0 or n < 0:
        raise ValueError("block sizes must be non-negative")
    out = []
    for ones in combinations(range(m + n), n):
        bits = [0] * (m + n)
        for t in ones:
            bits[t] = 1
        cr = 0
        seen_ones = 0
        for b in bits:
            if b == 1:
                seen_ones += 1
            else:
                cr += seen_ones
        out.append(ShuffleRecord(m, n, tuple(bits), cr))
    return out


@lru_cache(maxsize=None)
def signed_shuffle_count(m: int, n: int) -> int:
    """Sum of (-1)^crossings over all (m, n)-shuffles."""
    if m < 0 or n < 0:
        raise ValueError("block sizes must be non-negative")
    if m == 0 or n == 0:
        return 1
    return signed_shuffle_count(m - 1, n) + (-1) ** m * signed_shuffle_count(m, n - 1)


def quantum_binomial(a: int, b: int, q, F: CoefficientField):
    """The q-binomial (a choose b)_q as the crossing-weighted shuffle sum.

    Computed by the division-free recursion W(m, n) = W(m-1, n) + q^m W(m, n-1)
    over F, so it is defined even when quantum integers vanish.
    """
    if not 0 <= b <= a:
        raise ValueError("need 0 <= b <= a")
    qf = F.convert(q)
    m0, n0 = a - b, b
    row = [F.one] * (n0 + 1)  # W(0, n)
    qpow = F.one
    for m in range(1, m0 + 1):
        qpow = F.mul(qpow, qf)  # q^m
        new = [F.one]
        for n in range(1, n0 + 1):
            new.append(F.add(row[n], F.mul(qpow, new[n - 1])))
        row = new
    return row[n0]


def inversions(perm: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def matsumoto_lift(perm: tuple[int, ...]) -> list[int]:
    """A reduced braid word for a permutation, via insertion sort.

    `perm` is one-line notation for the target arrangement; the returned word
    (1-based generator indices, applied left to right) moves the identity
    arrangement to it, and its length is the inversion count.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation in 0-based one-line notation")
    cur = list(range(n))
    moves = []
    for t in range(n):
        j = cur.index(perm[t])
        while j > t:
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            moves.append(j)  # 1-based generator index j swaps slots j-1, j
            j -= 1
    return moves


@lru_cache(maxsize=None)
def compositions(n: int, parts: int) -> list[tuple[int, ...]]:
    """Ordered partitions of n into `parts` positive parts, in colex order."""
    if parts == 0:
        return [()] if n == 0 else []
    if parts == 1:
        return [(n,)] if n >= 1 else []
    out = []
    for last in range(1, n - parts + 2):
        for rest in compositions(n - last, parts - 1):
            out.append(rest + (last,))
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


def lifted_block_words(m: int, n: int):
    """(sign, braid word) for every (m, n)-shuffle."""
    return [(rec.sign, rec.braid_word()) for rec in shuffles(m, n)]


def shuffle_lift_sum(V: BraidedVectorSpace, n: int, a: int, b: int, vec: dict, offset: int = 0) -> dict:
    """The unsigned sum over all (a, b)-shuffles of the braid lift, on the
    strands offset+1 .. offset+a+b, applied to vec in V^(x)n.

    `vec` maps word codes to exact coefficients, and so does the result, which
    may hold zeros.  Every lift's image is added on its own.  The lifts share
    long prefixes, so they are walked in sorted order as a trie: a stack holds
    the image of vec under each prefix of the current lift, and each trie node
    applies one generator.  Over all shapes with a + b = 5 the lifts hold 80
    moves but only 26 distinct prefixes; at 6, 240 over 57; at 7, 672 over 120.
    """
    acc = {}
    path, images = [], [vec]  # images[k]: vec under the first k moves of path
    for word in sorted(moves for _, moves in lifted_block_words(a, b)):
        k = 0
        while k < len(path) and k < len(word) and path[k] == word[k]:
            k += 1
        del images[k + 1:]
        for g in word[k:]:
            images.append(apply_moves_to_vector(V, n, [g + offset], images[-1]))
        path = word
        for code, cf in images[-1].items():
            acc[code] = acc.get(code, 0) + cf
    return acc


def shuffle_product(V: BraidedVectorSpace, u: dict, v: dict) -> dict:
    """Quantum shuffle product of tensors u in V^(x)m and v in V^(x)n.

    Tensors are {basis word: coefficient} dicts with exact coefficients; word
    lengths must be constant within each argument.  The product is the sum,
    by `shuffle_lift_sum`, of the braid lift of every (m, n)-shuffle applied
    to the concatenation.
    """
    if not u or not v:
        return {}
    m = len(next(iter(u)))
    n = len(next(iter(v)))
    r = V.rank
    cat = {}
    for wu, cu in u.items():
        if len(wu) != m:
            raise ValueError("u mixes word lengths")
        for wv, cv in v.items():
            if len(wv) != n:
                raise ValueError("v mixes word lengths")
            cat[word_index(wu + wv, r)] = cu * cv
    out = shuffle_lift_sum(V, m + n, m, n, cat)
    return {index_word(j, r, m + n): cf for j, cf in out.items() if cf}


def quantum_symmetrizer(V: BraidedVectorSpace, n: int) -> SparseMatrix:
    """Sum over S_n of the braid lifts, as a matrix on V^(x)n.

    Built degree by degree from Woronowicz's factorisation (Comm. Math. Phys.
    122, 1989), [m]! = (1 + s_{m-1} + s_{m-1}s_{m-2} + ... + s_{m-1}...s_1)([m-1]! (x) 1):
    column idx of [m]! starts as (column idx[:-1] of [m-1]!) (x) idx[-1], and
    the running chain applies s_{m-1}, then s_{m-2}, ..., then s_1 to it (moves
    read left to right, as in `braid_word_action`), adding each partial result.
    The Nichols algebra (`nichols`) is built without it; it is the paper's
    object and the tests' oracle.
    """
    r = V.rank
    cols = [{0: 1}]
    for m in range(1, n + 1):
        step = []
        for idx in range(r**m):
            head, a = divmod(idx, r)
            vec = {u * r + a: cf for u, cf in cols[head].items()}
            col = dict(vec)
            for i in range(m - 1, 0, -1):
                vec = apply_moves_to_vector(V, m, [i], vec)
                for w, cf in vec.items():
                    t = col.get(w, 0) + cf
                    if t == 0:
                        col.pop(w, None)
                    else:
                        col[w] = t
            step.append(col)
        cols = step
    return SparseMatrix._trusted(r**n, cols)
