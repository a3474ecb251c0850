"""Independent oracles that only the tests call.

Each function here recomputes something the library computes another way,
so that a test can compare the two: the pivot columns of the reduced row
echelon form from a forward elimination alone, a kernel basis read off
that form, the twisted right multiplication T_g of the Koszul nullhomotopy
identity as a whole matrix, the braid orbit tables built from pairwise
joins, subgroup closures by plain tuple composition, and conjugacy classes
and the rational-class test by brute force.
"""

from math import gcd

from braidhom.braided import conj, pmul
from braidhom.exactla import CoefficientField, SparseMatrix, _eliminate, _elimination_rows, rref


def pivot_columns(M: SparseMatrix, F: CoefficientField) -> list[int]:
    """The pivot columns of the reduced row echelon form of M over F, in
    increasing order: the columns outside the span of the columns before them.

    One leftmost forward elimination; no row is back-substituted.
    """
    rows, step = _elimination_rows(M, F)
    return [pc for pc, _ in _eliminate(rows, M.cols, step, leftmost=True)]


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


def twisted_right_mult(K, letters: list[int], p: int, q: int, s_const) -> SparseMatrix:
    """T_g on term (p, q) of the Koszul complex K: psi_k (x) r -> s^p psi_k (x)
    r letters[k], with letters from `koszul._twisted_letters`."""
    nmod_s = K.module.dim(q)
    nmod_t = K.module.dim(q + 1)
    sign = K.F.convert(s_const**p)
    cols = []
    for k, gl in enumerate(letters):
        rmap = K.module.right_mult(gl, q)
        for o in range(nmod_s):
            o2 = rmap[o]
            cols.append({k * nmod_t + o2: sign} if o2 is not None and sign else {})
    return SparseMatrix._trusted(K.nichols.dim(p) * nmod_t, cols)


def pairwise_join_orbits(rack, n: int) -> list[tuple[list[int] | None, list[tuple], list[int]]]:
    """The braid orbits on rack words of every length 0..n, as (nodes, reps,
    sizes) per level, in the layout of `orbits.OrbitTable`.

    Level m >= 2 joins, for every orbit K at m - 2 and letters b, a, node
    (nu(K, b), a) to node (nu(K, a), b^a), one union-find join per distinct
    pair of node codes; nu is the node list at m - 1.
    """
    d = rack.size
    levels = [(None, [()], [1])]
    for m in range(1, n + 1):
        prev_reps, prev_sizes = levels[-1][1], levels[-1][2]
        root = list(range(len(prev_reps) * d))
        if m >= 2:
            nu, act = levels[-1][0], rack.act
            moves = [(b, a, act[b][a]) for b in range(d) for a in range(d)]
            rows = [nu[k * d:k * d + d] for k in range(len(levels[-2][1]))]  # rows[K][b] = nu(K, b)
            for u, v in {(row[b] * d + a, row[a] * d + t) for row in rows for b, a, t in moves}:
                while root[u] != u:
                    root[u] = u = root[root[u]]
                while root[v] != v:
                    root[v] = v = root[root[v]]
                if u < v:
                    root[v] = u
                elif v < u:
                    root[u] = v
        nodes = [0] * len(root)
        reps, sizes = [], []
        for x in range(len(root)):
            r = root[x]
            while root[r] != r:
                r = root[r]
            j, a = divmod(x, d)
            if r == x:
                nodes[x] = len(reps)
                reps.append(prev_reps[j] + (a,))
                sizes.append(prev_sizes[j])
            else:
                k = nodes[x] = nodes[r]
                sizes[k] += prev_sizes[j]
        levels.append((nodes, reps, sizes))
    return levels


def tuple_closure(gens: list[tuple], identity: tuple) -> frozenset:
    """The subgroup generated by permutation tuples: breadth-first closure
    of the identity under right composition with each generator, by `pmul`
    on the tuples themselves, with no group or index table."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def conjugacy_partition(G) -> list[list[int]]:
    """The conjugacy classes of the group G as sorted element indices, in
    order of their least element: each class is the set of conjugates
    h^-1 g h of one element g by every element h of G, with no generators
    and no index table."""
    classes, placed = [], set()
    for g in G.elements:
        if g not in placed:
            cl = {conj(g, h) for h in G.elements}
            placed |= cl
            classes.append(sorted(G.elements.index(x) for x in cl))
    return classes


def rational_by_powers(elements) -> bool:
    """Whether g^a lies in the set for every g in it and every a prime to the
    order of g, each power g^a composed from the identity a times by `pmul`."""
    elems = set(elements)
    for g in elems:
        e = tuple(range(len(g)))
        order, h = 1, g
        while h != e:
            h, order = pmul(h, g), order + 1
        for a in range(1, order):
            if gcd(a, order) == 1:
                x = e
                for _ in range(a):
                    x = pmul(x, g)
                if x not in elems:
                    return False
    return True
