"""Bounded complexes of presented modules: Koszul complexes, duals, tensor
and Hom totalizations, homology, and the derived functors Tor and Ext.
A complex is resolved by cmreg.resolution.free_resolution, as a module is.

One builder lays out and differentiates a totalization, F (x) C for F
free (tensor_free_with_complex).  Hom(F, C) is F^* (x) C, with F^* =
Hom(F, R) the dual complex (dual_complex; Weibel, An Introduction to
Homological Algebra, 2.7): F_p^* sits at spot -p with its twists
negated, and d_p is transposed with its entries negated when p is odd.
That sign is the Koszul sign of Hom, so Hom(F, M) for a module M has
the differential phi -> (-1)^(n+1) phi o d_F at spot n.  Each term the
builder makes is a direct sum of blocks, twisted copies of the C_q, and
is built with its Groebner basis: theirs, assembled on first use.

homology(i) presents H_i and keeps it; homology_series(i) sums the two
cokernel series kept on the complex, so the two paths share nothing
above the Groebner kernel and each checks the other.
nonzero_homology_series() is the one reader of the nonzero series,
spot by spot, for the ext, koszul and duality routes, the saturation
check and the CLI's tor and ext; the duality route passes it the one
spot range where Ext can be nonzero.  Only sup_homology keeps its own loop,
since it stops at the top nonzero spot and depth by Koszul homology pays
for that (without the stop `cmreg depth M` on sessions/scroll-2.cmreg
ran about 10% slower).

Homological indexing throughout: d_i maps spot i to spot i-1, cohomological
objects sit at negated spots (Ext^i lives in spot -i).  The suspension
(shift(1)) moves spot i to i+1 and negates differentials.
"""

from itertools import combinations
from math import inf

from .freemod import FreeModule
from .groebner import direct_sum_basis, groebner_basis
from .hilbert import HilbertSeries
from .memo import _cached
from .minimize import minimize_presentation
from .modules import ModuleMap, PresentedModule, homology_at, quotient_series
from .resolution import free_resolution


class BoundedComplex:
    __slots__ = ("ring", "terms", "diffs", "_cache")

    def __init__(self, ring, terms, diffs):
        self.ring = ring
        self.terms = {i: t for i, t in terms.items() if t.rank > 0}
        self.diffs = {}
        for i, d in diffs.items():
            if i in self.terms and (i - 1) in self.terms:
                self.diffs[i] = d
        self._cache = {}

    # -- access ----------------------------------------------------------
    def term(self, i):
        t = self.terms.get(i)
        return t if t is not None else PresentedModule.zero(self.ring)

    def diff(self, i):
        d = self.diffs.get(i)
        if d is not None:
            return d
        return ModuleMap.zero(self.term(i), self.term(i - 1))

    def levels(self):
        return sorted(self.terms)

    @property
    def min_level(self):
        return min(self.terms) if self.terms else 0

    @property
    def max_level(self):
        return max(self.terms) if self.terms else 0

    @property
    def is_free(self):
        return all(not t.rel_cols for t in self.terms.values())

    def verify(self):
        """Differentials compose to zero (modulo target relations)."""
        for i in self.levels():
            d1, d2 = self.diff(i), self.diff(i + 1)
            if d1.source.rank and d2.source.rank:
                if not d1.compose(d2).is_zero_map():
                    return False
        return True

    # -- rebuilds ----------------------------------------------------------
    def shift(self, k):
        """Suspension: spot i of the result is spot i-k of the input."""
        terms = {i + k: t for i, t in self.terms.items()}
        p = self.ring.field.characteristic
        diffs = {}
        for i, d in self.diffs.items():
            cols = d.cols if k % 2 == 0 else [
                {t: -c % p if p else -c for t, c in col.items()}
                for col in d.cols]
            diffs[i + k] = ModuleMap(d.source, d.target, cols)
        return BoundedComplex(self.ring, terms, diffs)

    def lift_to_cover(self):
        """The same complex over the polynomial cover, built once."""
        if self.ring.is_polynomial:
            return self
        return _cached(self, "cover", self._lift)

    def _lift(self):
        terms = {i: t.lift_to_cover() for i, t in self.terms.items()}
        diffs = {}
        for i, dd in self.diffs.items():
            diffs[i] = ModuleMap(terms[i], terms[i - 1], dd.cols)
        return BoundedComplex(self.ring.cover, terms, diffs)

    # -- homology ----------------------------------------------------------
    def homology(self, i):
        def compute():
            if self.term(i).rank == 0:
                return PresentedModule.zero(self.ring)
            return homology_at(self.diff(i + 1), self.diff(i))

        return _cached(self, ("H", i), compute)

    def _coker_series(self, i):
        """Series of coker d_i: C_{i-1} with d_i's columns as extra
        relations, read off a Groebner basis grown from C_{i-1}'s own, so
        the pairs inside that basis are never reduced again.  No module
        is presented for it."""
        def compute():
            target = self.term(i - 1)
            d = self.diffs.get(i)
            if d is None:
                return target.hilbert_series()
            return quotient_series(groebner_basis(
                d.cols, self.ring, target.gens_free, known=target.gb()))

        return _cached(self, ("coker", i), compute)

    def homology_series(self, i):
        """Hilbert series of H_i without presenting it, by additivity:
        HS(H_i) = HS(coker d_{i+1}) + HS(coker d_i) - HS(C_{i-1}), from
        the two cokernel series kept on the complex; nothing of its own
        is kept.

        No kernels or subquotients, and in a tensor or Hom totalization no
        Groebner basis from scratch: a term's basis is its summands' bases
        side by side (`tensor_free_with_complex` builds the term with it),
        and a cokernel's grows from its target's, one seeded Buchberger
        run per differential (`_coker_series`)."""
        if self.term(i).rank == 0:
            return HilbertSeries({}, self.ring.cover.nvars)
        d_in, d_out = self.diffs.get(i + 1), self.diffs.get(i)
        # an unstored differential is zero, and so is its composite
        if (d_in is not None and d_out is not None
                and not d_out.compose(d_in).is_zero_map()):
            raise ValueError("composition is not zero, homology undefined")
        return self._coker_series(i + 1).add(self._coker_series(i)).sub(
            self.term(i - 1).hilbert_series())

    def nonzero_homology_series(self, lo=-inf, hi=inf):
        """{spot: homology_series(spot)} over the spots lo..hi with nonzero
        homology, in ascending order; no spot outside lo..hi is read."""
        return {i: H for i in self.levels() if lo <= i <= hi
                and not (H := self.homology_series(i)).is_zero()}

    def sup_homology(self):
        for i in range(self.max_level, self.min_level - 1, -1):
            if not self.homology_series(i).is_zero():
                return i
        return -inf

    def __repr__(self):
        parts = ", ".join(f"{i}:{self.term(i).rank}" for i in self.levels())
        return f"<complex [{parts}]>"


def complex_from_module(M):
    return BoundedComplex(M.ring, {0: M}, {})


def _as_complex(obj):
    """A module as a complex concentrated at spot 0; a complex as itself."""
    if isinstance(obj, BoundedComplex):
        return obj
    if isinstance(obj, PresentedModule):
        return complex_from_module(obj)
    raise TypeError("expected a presented module or a bounded complex")


def free_complex_from_data(ring, twists, cols):
    terms = {i: PresentedModule.free(ring, t) for i, t in twists.items() if t}
    diffs = {}
    for i, cs in cols.items():
        if i in terms and (i - 1) in terms:
            diffs[i] = ModuleMap(terms[i], terms[i - 1], cs)
    return BoundedComplex(ring, terms, diffs)


def resolution_to_complex(res):
    return free_complex_from_data(res.ring, res.twists, res.cols)


# -- Koszul complexes ------------------------------------------------------

def koszul_complex(forms, coefficients=None):
    """K[f_1..f_d; coefficients].

    forms: nonzero homogeneous polynomials over a common ring.
    coefficients: None for the ring, or a PresentedModule or BoundedComplex
    over the forms' ring; other rings raise ValueError.
    """
    if not forms:
        raise ValueError("empty Koszul sequence")
    ring = forms[0].ring
    degs = []
    for f in forms:
        if f.ring != ring:
            raise ValueError("Koszul forms live over different rings")
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("Koszul forms must be nonzero and homogeneous")
        degs.append(f.homogeneous_degree())
    d = len(forms)
    subsets = {t: list(combinations(range(d), t)) for t in range(d + 1)}
    index = {t: {T: b for b, T in enumerate(subsets[t])} for t in range(d + 1)}
    twists = {t: tuple(sum(degs[i] for i in T) for T in subsets[t])
              for t in range(d + 1)}
    negs = [-f for f in forms]
    cols = {}
    for t in range(1, d + 1):
        level_cols = []
        for T in subsets[t]:
            col = {}
            for a, idx in enumerate(T):
                rest = T[:a] + T[a + 1:]
                b2 = index[t - 1][rest]
                f = forms[idx] if a % 2 == 0 else negs[idx]
                # each a lands in its own row b2, so no two terms meet
                for m, c in f.terms.items():
                    col[(b2, m)] = c
            level_cols.append(col)
        cols[t] = level_cols
    free_k = free_complex_from_data(ring, twists, cols)
    if coefficients is None:
        return free_k
    return tensor_free_with_complex(free_k, _as_complex(coefficients))


def koszul_resolution_of_k(ring):
    """The Koszul complex on the variables in reverse order, x_n..x_1:
    over a polynomial ring this is the minimal free resolution of the
    residue field.

    The order is reversed for Hom(K, M) (regularity.bass_table).  A
    tensor column of the Koszul route, d(e_T) in K(x_1..x_n) (x) M, leads
    with x_{max T} e_{T - max T}, its first position, as in the
    Eliahou-Kervaire resolution of the maximal ideal (J. Algebra 129,
    1990).  Hom(K_i, M) is K_{n-i} (x) M by e_T^* -> e_{T^c}.  A Hom
    column leads in its first position, e_{T + j}^* for the first j not in
    T in K's order; on the reversed variables that is the largest x-index
    outside T, so the map sends each Hom column's lead to the lead of the
    matching tensor column.  The ext route's cokernel inputs are then the
    Koszul route's, positions relabelled: on sessions/scroll-2.cmreg
    their runs add 12 basis elements each, where the variables' own order
    adds 57 for Hom."""
    return _cached(ring, "koszul_k",
                   lambda: koszul_complex(list(ring.gens())[::-1]))


# -- the dual, and the tensor totalization ----------------------------------

def dual_complex(F):
    """Hom(F, R) for F a free complex: F_p^* at spot -p, its twists
    negated, and d_p transposed from spot 1 - p to spot -p, its entries
    negated when p is odd.  That is the Koszul sign of Hom: F^* (x) M is
    then Hom(F, M) with phi -> (-1)^(n+1) phi o d_F at spot n."""
    if not F.is_free:
        raise ValueError("dual_complex takes a free complex")
    p = F.ring.field.characteristic
    twists = {-i: tuple(-a for a in t.gens_free.twists)
              for i, t in F.terms.items()}
    cols = {}
    for i, d in F.diffs.items():
        # row b of d_i becomes column b, from F_{i-1}^* to F_i^*
        dual = [{} for _ in range(d.target.rank)]
        for j, col in enumerate(d.cols):
            for (b, m), c in col.items():
                dual[b][(j, m)] = c if i % 2 == 0 else -c % p if p else -c
        cols[1 - i] = dual
    return free_complex_from_data(F.ring, twists, cols)


def tensor_free_with_complex(F, C):
    """Totalization F (x) C for F a free complex over C's ring.

    Spot n is the direct sum of blocks (i, q = n - i, b), over the spots
    i of F in ascending order and the basis vectors b of F_i, each a copy
    of C_q twisted by the degree of b.  The differential is
    d_F (x) 1 + (-1)^i 1 (x) d_C: generator g of block (i, q, b) moves
    along column b of d_i to generator g of the blocks (i - 1, q, b2), and
    along d_C onto block (i, q - 1, b), times (-1)^i.  The two moves land
    in different blocks, so no two terms of a column meet."""
    if not F.is_free:
        raise ValueError("left factor must be a free complex")
    ring = F.ring
    if C.ring != ring:
        raise ValueError("the complexes live over different rings")
    p = ring.field.characteristic
    f_levels, c_levels = F.levels(), C.levels()
    if not f_levels or not c_levels:
        return BoundedComplex(ring, {}, {})

    offsets = {}  # (i, q, b) -> first position of the block; n = i + q
    blocks = {}
    terms = {}
    for n in range(f_levels[0] + c_levels[0], f_levels[-1] + c_levels[-1] + 1):
        spot, summands, twists, rels = [], [], [], []
        for i in f_levels:
            q = n - i
            Cq = C.terms.get(q)
            if Cq is None:
                continue
            for b, a in enumerate(F.terms[i].gens_free.twists):
                off = len(twists)
                offsets[(i, q, b)] = off
                spot.append((i, q, b))
                summands.append((Cq, off))
                twists.extend(t + a for t in Cq.gens_free.twists)
                for rc in Cq.rel_cols:
                    rels.append({(pp + off, m): c for (pp, m), c in rc.items()})
        if twists:
            blocks[n] = spot
            free = FreeModule(ring, tuple(twists))
            # its Groebner basis is assembled from the blocks' own bases;
            # the defaults bind this spot's free module and summands
            terms[n] = PresentedModule(
                ring, free, rels,
                basis=lambda free=free, summands=summands: direct_sum_basis(
                    ring, free, [(M.gb(), off) for M, off in summands]))

    diffs = {}
    for n, spot in blocks.items():
        if (n - 1) not in blocks:
            continue
        cols = []
        for i, q, b in spot:
            dF = F.diffs.get(i)
            f_move = () if dF is None else [
                (offsets[(i - 1, q, b2)], m, c)
                for (b2, m), c in dF.cols[b].items()]
            dC = C.diffs.get(q)
            if dC is not None:
                c_off = offsets[(i, q - 1, b)]
            for g in range(C.terms[q].rank):
                col = {(o + g, m): c for o, m, c in f_move}
                if dC is not None:
                    for (pp, m), c in dC.cols[g].items():
                        col[(c_off + pp, m)] = (c if i % 2 == 0 else
                                                -c % p if p else -c)
                cols.append(col)
        diffs[n] = ModuleMap(terms[n], terms[n - 1], cols)
    return BoundedComplex(ring, terms, diffs)


def tensor_complexes(F, G):
    """Derived-style tensor of two free complexes (result is free)."""
    return tensor_free_with_complex(F, G)


def hom_complex(F, C):
    """Hom(F, C) for F a free complex, as F^* (x) C (dual_complex): spot
    n is the sum over q - p = n of Hom(F_p, C_q)."""
    return tensor_free_with_complex(dual_complex(F), C)


# -- derived functors ------------------------------------------------------

def tor(M, N, i):
    """Tor_i(M, N) over the modules' common ring.  H_i reads d_{i+1} and
    nothing past it, so M's resolution is read to level max(i + 1, 1)."""
    return tor_complex(M, N, max_len=max(i + 1, 1)).homology(i)


def tor_complex(M, N, max_len=None):
    res = free_resolution(M, max_len=max_len)
    return tensor_free_with_complex(resolution_to_complex(res),
                                    complex_from_module(N))


def ext(M, N, i):
    """Ext^i(M, N), stored at homological spot -i of Hom(F_M, N), which
    reads M's resolution to level max(i + 1, 1), as `tor` does."""
    return ext_complex(M, N, max_len=max(i + 1, 1)).homology(-i)


def ext_complex(M, N, max_len=None):
    res = free_resolution(M, max_len=max_len)
    return hom_complex(resolution_to_complex(res), complex_from_module(N))


def grade_of_sequence(forms, M):
    """len(forms) minus the top nonvanishing Koszul homology spot."""
    if M.is_zero():
        return inf
    Kx = koszul_complex(forms, M)
    top = Kx.sup_homology()
    if top == -inf:
        return inf
    return len(forms) - top


# -- free resolutions of complexes ----------------------------------------

def minimal_cover(M):
    """(free module F, surjection F -> M) with F on a minimal generating set."""
    tw, _, kept = minimize_presentation(M.gens_free.twists, M.rel_cols,
                                        M.ring.field)
    F = PresentedModule.free(M.ring, tw)
    cols = [M.gens_free.basis_vec(i) for i in kept]
    return F, ModuleMap(F, M, cols)


def free_resolution_of_complex(L, max_len=None):
    """(F, complete): the minimal free complex F quasi-isomorphic to L that
    `free_resolution(L, max_len)` keeps on L, as a BoundedComplex."""
    res = free_resolution(L, max_len=max_len)
    return resolution_to_complex(res), res.complete
