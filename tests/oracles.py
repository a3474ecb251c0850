"""Independent oracles that only the tests call.

Each function here recomputes something the library computes another way,
so that a test can compare the two: a kernel basis read off the reduced row
echelon form, and the twisted right multiplication T_g of the Koszul
nullhomotopy identity as a whole matrix.
"""

from braidhom.exactla import CoefficientField, SparseMatrix, rref


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
