"""Dense linear-algebra cross-checks for graded pieces, Hilbert functions,
and Betti numbers.

Everything here works degree by degree on explicit monomial bases with
Gaussian elimination; no term orders, no division algorithm, and nothing
from the Groebner, Hilbert or resolution layers.  That makes it a
genuinely independent route against the symbolic machinery, at the price
of a degree cap (dimensions grow fast).

A DenseOracle computes each thing once and keeps it in its `_cache`
through memo._cached: the row-reduced piece of each degree, the matrix of
multiplication by each variable out of each degree, and the rank of each
Koszul differential in each degree.  The pieces are fully reduced, so a
multiplication matrix is a lookup into the coordinates of the shifted
basis vectors and needs no arithmetic.  Degrees below the lowest
generator have empty pieces, so a window may start there, and the degree
cap counts degrees above it: a piece's size depends on how far its degree
lies above the generators, not on the degree itself.

numpy is imported inside the functions that use it, so importing cmreg
(and every CLI command but oracle) leaves it unloaded.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .freemod import vec_degree
from .memo import _cached

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
    """Row-reduce over GF(p) a list of rows or a 2-d array.  Returns
    (pivot column list, reduced rows)."""
    import numpy as np
    dtype = _dtype_mod_p(p)
    if len(rows) == 0:
        return [], np.zeros((0, ncols), dtype=dtype)
    A = np.array(rows, dtype=dtype) % p
    m = A.shape[0]
    pivots = []
    r = 0
    # row operations never make a zero column nonzero
    for c in np.flatnonzero(A.any(axis=0)):
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            A[nz] = (A[nz] - np.outer(col[nz], A[r])) % p
        pivots.append(int(c))
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
        # only the pivot row's nonzero entries change the other rows
        support = [(k, a * inv) for k, a in enumerate(A[r]) if a]
        for k, b in support:
            A[r][k] = b
        for i in range(len(A)):
            f = A[i][c]
            if i != r and f:
                row = A[i]
                for k, b in support:
                    row[k] -= f * b
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
    the defining relations are folded in automatically.  Pieces,
    multiplication matrices and Koszul differential ranks are each
    computed once per oracle and kept in its `_cache`.  A piece of degree
    more than max_degree above the lowest generator is refused.
    """

    def __init__(self, module, max_degree=DEFAULT_DEGREE_CAP):
        M = module.lift_to_cover()
        self.ring = M.ring
        self.field = self.ring.field
        self.nvars = self.ring.nvars
        self.twists = tuple(M.gens_free.twists)
        self.lowest = min(self.twists, default=0)
        self.rels = [dict(c) for c in M.rel_cols]
        self.rel_degs = [vec_degree(c, self.twists) for c in self.rels]
        self.max_degree = max_degree
        self._cache = {}

    # -- bases ------------------------------------------------------------
    def ambient_basis(self, j):
        out = []
        for pos, t in enumerate(self.twists):
            for m in monomials_of_degree(self.nvars, j - t):
                out.append((pos, m))
        return out

    def _piece(self, j):
        """(ambient basis, its index, kept columns, coordinates) of the
        degree-j piece.  The kept (non-pivot) columns of the row-reduced
        relations index the quotient basis; column c of the coordinate
        matrix is the image of ambient basis vector c in that basis."""
        return _cached(self, ("piece", j), lambda: self._reduce_piece(j))

    def _reduce_piece(self, j):
        import numpy as np
        if j - self.lowest > self.max_degree:
            raise ValueError(
                f"degree {j} beyond oracle cap {self.max_degree} above the "
                f"lowest generator, in degree {self.lowest}")
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
            red = np.array(red, dtype=object).reshape(len(pivots), len(basis))
        kept = np.ones(len(basis), dtype=bool)
        kept[pivots] = False
        kept = np.flatnonzero(kept)
        # Fully reduced rows: a kept column maps to its unit vector, the
        # pivot column of row r to minus row r on the kept columns.
        coords = np.zeros((len(kept), len(basis)), dtype=red.dtype)
        coords[np.arange(len(kept)), kept] = 1
        coords[:, pivots] = -red[:, kept].T % p if p else -red[:, kept].T
        return basis, index, kept, coords

    def hilbert_function(self, j):
        return len(self._piece(j)[2])

    def mult_matrix(self, var, j):
        """Matrix of multiplication by the var-th variable, piece j -> j+1,
        as a 2-d numpy array (object dtype over QQ).

        Columns indexed by the quotient basis at j, rows at j+1.
        """
        return _cached(self, ("mult", var, j), lambda: self._mult(var, j))

    def _mult(self, var, j):
        basis_j, _, kept_j, _ = self._piece(j)
        _, index_n, _, coords_n = self._piece(j + 1)
        shifted = []
        for a in kept_j:
            pos, m = basis_j[a]
            shifted.append(index_n[(pos, m[:var] + (m[var] + 1,) + m[var + 1:])])
        return coords_n[:, shifted]

    # -- Koszul-homology Betti numbers ------------------------------------
    def betti_number(self, i, j):
        """dim of the degree-j piece of the i-th Koszul homology on the
        cover variables, which equals the (i, j) Betti number."""
        n = self.nvars
        if i < 0 or i > n:
            return 0
        return (comb(n, i) * self.hilbert_function(j - i)
                - self._diff_rank(i, j) - self._diff_rank(i + 1, j))

    def _diff_rank(self, level, j):
        """Rank of d_level : C_level -> C_{level-1} in degree j."""
        if level < 1 or level > self.nvars:
            return 0
        return _cached(self, ("rank", level, j),
                       lambda: self._koszul_rank(level, j))

    def _koszul_rank(self, level, j):
        import numpy as np
        src_dim = self.hilbert_function(j - level)
        tgt_dim = self.hilbert_function(j - level + 1)
        if src_dim == 0 or tgt_dim == 0:
            return 0
        n = self.nvars
        subsets = list(combinations(range(n), level))
        prev = {T: a for a, T in enumerate(combinations(range(n), level - 1))}
        mults = [self.mult_matrix(v, j - level) for v in range(n)]
        D = np.zeros((len(prev) * tgt_dim, len(subsets) * src_dim),
                     dtype=mults[0].dtype)
        for bT, T in enumerate(subsets):
            coff = bT * src_dim
            for a, v in enumerate(T):
                roff = prev[T[:a] + T[a + 1:]] * tgt_dim
                D[roff:roff + tgt_dim, coff:coff + src_dim] = (
                    mults[v] if a % 2 == 0 else -mults[v])
        rows = D[np.flatnonzero(D.any(axis=1))]
        return rank_of_rows(rows, D.shape[1], self.field)

    def betti_table(self, max_i=None, max_degree=6):
        n = self.nvars
        if max_i is None:
            max_i = n
        out = {}
        # from min(0, lowest) up to max_degree above max(0, lowest)
        top = max_degree + max(0, self.lowest)
        for i in range(0, max_i + 1):
            for j in range(min(0, self.lowest), top + 1):
                b = self.betti_number(i, j)
                if b:
                    out[(i, j)] = b
        return out
