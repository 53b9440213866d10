"""Dense linear-algebra cross-checks for graded pieces, Hilbert functions,
and Betti numbers.

Everything here works degree by degree on explicit monomial bases with
Gaussian elimination; no term orders, no division algorithm, and nothing
from the Groebner, Hilbert or resolution layers.  That makes it a
genuinely independent route against the symbolic machinery, at the price
of a degree cap (dimensions grow fast).

A DenseOracle computes each thing once and keeps it in its `_cache`
through memo._cached: the monomials of each degree, the row-reduced
piece of each degree, the matrix of multiplication by each variable out
of each degree, and the rank of each Koszul differential in each degree.
The pieces are fully reduced, so a multiplication matrix is a lookup into
the coordinates of the shifted basis vectors and needs no arithmetic.
Degrees below the lowest generator have empty pieces, so a window may
start there, and the degree cap counts degrees above it: a piece's size
depends on how far its degree lies above the generators, not on the
degree itself.

"Dense" names the method, every monomial of a degree at once, not the
storage.  A piece is a Macaulay-style matrix with a few nonzeros per row,
so rows, coordinates and multiplication maps are dicts {index:
coefficient}, and one sparse Gauss-Jordan elimination in plain Python
ints (mod p) or Fractions serves every piece and every Koszul rank; the
oracle needs no numpy.  Its cost follows the fill-in: on dense pieces,
such as those of complete intersections of dense quadrics in five
variables, the elimination turns cubic in the piece's size.
"""

from bisect import bisect_left
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


def _subtract(t, f, v, p):
    """t -= f * v in place, for sparse rows over GF(p) (QQ when p is 0);
    entries that cancel leave t."""
    nf = p - f if p else -f
    for k, b in v.items():
        s = t.get(k, 0) + nf * b
        if p:
            s %= p
        if s:
            t[k] = s
        else:
            del t[k]


def _rref(rows, p):
    """Reduced row echelon form of sparse rows over GF(p), or over QQ
    when p is 0.  Each row is a dict {column: nonzero coefficient} and
    is consumed; coefficients are ints in [0, p) over GF(p) and Fractions
    over QQ, where an int would make 1 / a a float.  Returns {pivot column:
    tail}: the reduced row of that pivot is 1 there plus its tail, and
    a tail holds no pivot column.  Reduced row echelon form is unique,
    so it does not depend on the order of the rows.

    Rows go in by descending leading column.  A tail only holds columns
    right of its pivot, so a new pivot then mostly lies left of every
    row it would have to be cleared from."""
    piv = {}
    cols = []  # the pivot columns, ascending
    for v in sorted((v for v in rows if v), key=min, reverse=True):
        # pivot rows hold no other pivot column, so one pass clears v
        for c in [c for c in v if c in piv]:
            _subtract(v, v.pop(c), piv[c], p)
        if not v:
            continue
        lead = min(v)
        a = v.pop(lead)
        inv = pow(a, -1, p) if p else 1 / a
        for k, b in v.items():
            v[k] = b * inv % p if p else b * inv
        # keep every pivot row reduced: clear the new pivot column from
        # the rows whose pivot lies left of it
        at = bisect_left(cols, lead)
        for c in cols[:at]:
            f = piv[c].pop(lead, None)
            if f is not None:
                _subtract(piv[c], f, v, p)
        cols.insert(at, lead)
        piv[lead] = v
    return piv


class DenseOracle:
    """Graded pieces of a presented module by brute-force linear algebra.

    The module is lifted to its polynomial cover, so over a quotient ring
    the defining relations are folded in automatically.  Pieces,
    multiplication matrices and Koszul differential ranks are each
    computed once per oracle and kept in its `_cache`.  A piece of degree
    more than max_degree above the lowest generator is refused.  Its
    Betti table, over its own window, is the one `cmreg oracle` reads.
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
    def _monomials(self, d):
        """monomials_of_degree(nvars, d), built once per degree."""
        return _cached(self, ("monomials", d),
                       lambda: monomials_of_degree(self.nvars, d))

    def ambient_basis(self, j):
        out = []
        for pos, t in enumerate(self.twists):
            for m in self._monomials(j - t):
                out.append((pos, m))
        return out

    def _piece(self, j):
        """(ambient basis, its index, kept columns, coordinates) of the
        degree-j piece.  The kept (non-pivot) columns of the row-reduced
        relations index the quotient basis; coordinates[a] is the image of
        ambient basis vector a in that basis, as a dict {k: coefficient}."""
        return _cached(self, ("piece", j), lambda: self._reduce_piece(j))

    def _reduce_piece(self, j):
        if j - self.lowest > self.max_degree:
            raise ValueError(
                f"degree {j} beyond oracle cap {self.max_degree} above the "
                f"lowest generator, in degree {self.lowest}")
        basis = self.ambient_basis(j)
        index = {bm: a for a, bm in enumerate(basis)}
        rows = []
        for col, d in zip(self.rels, self.rel_degs):
            for m in self._monomials(j - d):
                row = {}
                for (pos, mono), c in col.items():
                    prod = tuple(a + b for a, b in zip(m, mono))
                    row[index[(pos, prod)]] = c
                rows.append(row)
        p = self.field.characteristic
        piv = _rref(rows, p)
        kept = [a for a in range(len(basis)) if a not in piv]
        at = {a: k for k, a in enumerate(kept)}
        # Fully reduced rows: a kept column maps to its unit vector, a
        # pivot column to minus its row's tail, which lies on kept columns.
        # Entries are field elements, Fractions over QQ, as _rref needs.
        one = self.field.one
        coords = [{at[b]: p - c if p else -c for b, c in piv[a].items()}
                  if a in piv else {at[a]: one} for a in range(len(basis))]
        return basis, index, kept, coords

    def hilbert_function(self, j):
        return len(self._piece(j)[2])

    def mult_matrix(self, var, j):
        """Matrix of multiplication by the var-th variable, piece j -> j+1,
        as one sparse column {row: coefficient} per quotient basis vector
        at j, its rows indexing the quotient basis at j+1.  The columns
        are shared with the piece's coordinates: read them, never write.
        """
        return _cached(self, ("mult", var, j), lambda: self._mult(var, j))

    def _mult(self, var, j):
        basis_j, _, kept_j, _ = self._piece(j)
        _, index_n, _, coords_n = self._piece(j + 1)
        out = []
        for a in kept_j:
            pos, m = basis_j[a]
            up = m[:var] + (m[var] + 1,) + m[var + 1:]
            out.append(coords_n[index_n[(pos, up)]])
        return out

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
        src_dim = self.hilbert_function(j - level)
        tgt_dim = self.hilbert_function(j - level + 1)
        if src_dim == 0 or tgt_dim == 0:
            return 0
        n = self.nvars
        p = self.field.characteristic
        prev = {T: a for a, T in enumerate(combinations(range(n), level - 1))}
        mults = [self.mult_matrix(v, j - level) for v in range(n)]
        # Column (T, b) of d_level is sum_a (-1)^a x_{T[a]} times basis
        # vector b, in the summand of T without T[a]; the rank of the
        # columns is the rank of the rows.
        cols = []
        for T in combinations(range(n), level):
            blocks = [(prev[T[:a] + T[a + 1:]] * tgt_dim, mults[v], a % 2)
                      for a, v in enumerate(T)]
            for b in range(src_dim):
                col = {}
                for off, mult, odd in blocks:
                    for r, c in mult[b].items():
                        col[off + r] = (p - c if p else -c) if odd else c
                cols.append(col)
        return len(_rref(cols, p))

    def window(self, max_degree):
        """(lo, hi), the degrees a table reads: from min(0, lowest), below
        which every piece is empty, to max_degree above max(0, lowest)."""
        return min(0, self.lowest), max_degree + max(0, self.lowest)

    def betti_table(self, max_degree=6):
        """The nonzero Betti numbers {(i, j): beta_{i,j}} with 0 <= i <= n,
        the number of variables, and j in window(max_degree)."""
        lo, hi = self.window(max_degree)
        out = {}
        for i in range(self.nvars + 1):
            for j in range(lo, hi + 1):
                b = self.betti_number(i, j)
                if b:
                    out[(i, j)] = b
        return out
