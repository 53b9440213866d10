"""Dense linear-algebra cross-checks for graded pieces, Hilbert functions,
and Betti numbers.

Everything here works degree by degree on explicit monomial bases with
Gaussian elimination; no term orders, no division algorithm.  That makes it
a genuinely independent route against the symbolic machinery, at the price
of a degree cap (dimensions grow fast).

numpy is imported inside the three functions that use it, so importing
cmreg (and every CLI command but oracle) leaves it unloaded.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .freemod import vec_degree

DEFAULT_DEGREE_CAP = 8


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, lexicographic order."""
    if d < 0:
        return []
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def _dtype_mod_p(p):
    """int64 while a product of two residues fits in it; above that
    (p > ~3.04e9) exact Python ints in object arrays."""
    import numpy as np
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def rref_mod_p(rows, ncols, p):
    """Row-reduce over GF(p).  Returns (pivot column list, reduced rows)."""
    import numpy as np
    dtype = _dtype_mod_p(p)
    if not rows:
        return [], np.zeros((0, ncols), dtype=dtype)
    A = np.array(rows, dtype=dtype) % p
    m = A.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            A[nz] = (A[nz] - np.outer(col[nz], A[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, A[:len(pivots)]


def rref_exact(rows, ncols):
    """Fraction row reduction, same contract as rref_mod_p."""
    A = [list(map(Fraction, row)) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(A)):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [a * inv for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return pivots, A[:len(pivots)]


def rank_of_rows(rows, ncols, field):
    p = field.characteristic
    if p:
        return len(rref_mod_p(rows, ncols, p)[0])
    return len(rref_exact(rows, ncols)[0])


class DenseOracle:
    """Graded pieces of a presented module by brute-force linear algebra.

    The module is lifted to its polynomial cover, so over a quotient ring
    the defining relations are folded in automatically.
    """

    def __init__(self, module, max_degree=DEFAULT_DEGREE_CAP):
        M = module.lift_to_cover()
        self.ring = M.ring
        self.field = self.ring.field
        self.nvars = self.ring.nvars
        self.twists = tuple(M.gens_free.twists)
        self.rels = [dict(c) for c in M.rel_cols]
        self.rel_degs = [vec_degree(c, self.twists) for c in self.rels]
        self.max_degree = max_degree
        self._pieces = {}

    # -- bases ------------------------------------------------------------
    def ambient_basis(self, j):
        out = []
        for pos, t in enumerate(self.twists):
            for m in monomials_of_degree(self.nvars, j - t):
                out.append((pos, m))
        return out

    def _piece(self, j):
        got = self._pieces.get(j)
        if got is not None:
            return got
        if j > self.max_degree:
            raise ValueError(
                f"degree {j} beyond oracle cap {self.max_degree}")
        basis = self.ambient_basis(j)
        index = {bm: a for a, bm in enumerate(basis)}
        rows = []
        for col, d in zip(self.rels, self.rel_degs):
            for m in monomials_of_degree(self.nvars, j - d):
                row = [0] * len(basis)
                for (pos, mono), c in col.items():
                    prod = tuple(a + b for a, b in zip(m, mono))
                    row[index[(pos, prod)]] = int(c) if self.field.characteristic else c
                rows.append(row)
        p = self.field.characteristic
        if p:
            pivots, red = rref_mod_p(rows, len(basis), p)
        else:
            pivots, red = rref_exact(rows, len(basis))
        pivset = set(pivots)
        kept = [a for a in range(len(basis)) if a not in pivset]
        got = (basis, index, pivots, red, kept)
        self._pieces[j] = got
        return got

    def hilbert_function(self, j):
        basis, _, pivots, _, _ = self._piece(j)
        return len(basis) - len(pivots)

    def _project(self, j, ambient_vec):
        """Coordinates of an ambient vector in the quotient basis at degree j."""
        basis, _, pivots, red, kept = self._piece(j)
        p = self.field.characteristic
        if p:
            import numpy as np
            v = np.array(ambient_vec, dtype=_dtype_mod_p(p)) % p
            for r, c in enumerate(pivots):
                if v[c]:
                    v = (v - v[c] * red[r]) % p
            return [int(v[a]) for a in kept]
        v = list(map(Fraction, ambient_vec))
        for r, c in enumerate(pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, red[r])]
        return [v[a] for a in kept]

    def mult_matrix(self, var, j):
        """Matrix of multiplication by the var-th variable, piece j -> j+1.

        Columns indexed by the quotient basis at j, rows at j+1.
        """
        basis_j, _, _, _, kept_j = self._piece(j)
        basis_n, index_n, _, _, kept_n = self._piece(j + 1)
        cols = []
        for a in kept_j:
            pos, m = basis_j[a]
            m2 = tuple(e + (1 if t == var else 0) for t, e in enumerate(m))
            amb = [0] * len(basis_n)
            amb[index_n[(pos, m2)]] = 1
            cols.append(self._project(j + 1, amb))
        rows_n = len(kept_n)
        mat = [[cols[b][a] for b in range(len(kept_j))] for a in range(rows_n)]
        return mat

    # -- Koszul-homology Betti numbers ------------------------------------
    def betti_number(self, i, j):
        """dim of the degree-j piece of the i-th Koszul homology on the
        cover variables, which equals the (i, j) Betti number."""
        n = self.nvars
        if i < 0 or i > n:
            return 0

        def space_dim(level):
            return comb(n, level) * self.hilbert_function(j - level)

        def diff_rank(level):
            # d_level : C_level -> C_{level-1} in degree j
            if level < 1 or level > n:
                return 0
            src_dim = self.hilbert_function(j - level)
            tgt_dim = self.hilbert_function(j - level + 1)
            if src_dim == 0 or tgt_dim == 0:
                return 0
            subsets = list(combinations(range(n), level))
            prev = {T: a for a, T in enumerate(combinations(range(n), level - 1))}
            mults = {v: self.mult_matrix(v, j - level) for v in range(n)}
            nrows = len(prev) * tgt_dim
            ncols = len(subsets) * src_dim
            colmat = [[0] * ncols for _ in range(nrows)]
            for bT, T in enumerate(subsets):
                for a, v in enumerate(T):
                    rest = T[:a] + T[a + 1:]
                    sgn = 1 if a % 2 == 0 else -1
                    block = mults[v]
                    roff = prev[rest] * tgt_dim
                    coff = bT * src_dim
                    for rr in range(tgt_dim):
                        brow = block[rr]
                        for cc in range(src_dim):
                            val = brow[cc]
                            if val:
                                colmat[roff + rr][coff + cc] += sgn * val
            rows = [r for r in colmat if any(r)]
            # rank of the transpose equals rank
            return rank_of_rows(rows, ncols, self.field)

        return space_dim(i) - diff_rank(i) - diff_rank(i + 1)

    def betti_table(self, max_i=None, max_degree=6):
        n = self.nvars
        if max_i is None:
            max_i = n
        out = {}
        for i in range(0, max_i + 1):
            for j in range(0, max_degree + 1):
                b = self.betti_number(i, j)
                if b:
                    out[(i, j)] = b
        return out
