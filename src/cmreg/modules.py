"""Finitely presented graded modules and the subquotient calculus.

A module is a cokernel: free module of generators (with twists) modulo the
span of relation columns; over a quotient ring the defining ideal is folded
in by the Groebner layer.  Kernels, homology, colons and annihilators all
reduce to one primitive: the relations of some vectors modulo a submodule
whose Groebner basis the caller already holds (`syzygies_of_vectors`).  It
adjoins a unit tag position per vector only, grows the held basis by one
seeded Buchberger run, and keeps the basis elements that lead on a tag.

A kernel, image or homology module is one present_subquotient call, one
seeded relation run: the vectors that generate ker(phi) (the relations of
phi's columns modulo the target's basis) or im(phi) go in as numerators,
over the basis of the source's relations (kernel), the target's (image)
or the middle module's grown by the incoming map's columns (homology).

At a bottom spot, where phi maps into a module of rank 0, ker(phi) is the
whole middle module, so the homology is the cokernel mid/D, D spanned by
mid's relations and psi's columns: it is presented by D's reduced basis,
which homology_at has just grown, minimized, with no relation run
(`_cokernel`).

A module whose Groebner basis is known where it is built is given it:
the constructor's `basis` is a function of no arguments that gb() calls
in place of a Buchberger run.  Four builders know one.  A tensor or Hom
totalization term's basis is its blocks' bases side by side
(cmreg.complexes, groebner.direct_sum_basis); a bottom homology keeps
the basis of D when minimizing removes nothing; a twist M(d) has M's
basis with its degrees shifted; and the module M' of a linear cut holds
the rest of the reduced basis it was cut from (cmreg.resolution).
"""

from .freemod import (FreeModule, apply_map, vec_degree, vec_from_column,
                      vec_is_homogeneous)
from .groebner import direct_sum_basis, groebner_basis
from .hilbert import HilbertSeries, monomial_ideal_numerator
from .memo import _cached
from .minimize import minimize_presentation
from .poly import Polynomial


class PresentedModule:
    """coker(rel_cols) over the free module gens_free.

    `basis`, internal, is for a module whose Groebner basis is known
    where it is built: a function of no arguments that returns it, which
    gb() calls in place of a Buchberger run (module docstring)."""

    __slots__ = ("ring", "gens_free", "rel_cols", "_basis", "_cache")

    def __init__(self, ring, gens_free, rel_cols, *, basis=None):
        self.ring = ring
        self.gens_free = gens_free
        cols = []
        for c in rel_cols:
            if not c:
                continue
            if not vec_is_homogeneous(c, gens_free.twists):
                raise ValueError("relation column is not homogeneous")
            cols.append(dict(c))
        self.rel_cols = tuple(cols)
        self._basis = basis
        self._cache = {}

    # -- constructors ----------------------------------------------------
    @classmethod
    def free(cls, ring, twists):
        return cls(ring, FreeModule(ring, twists), [])

    @classmethod
    def zero(cls, ring):
        return cls(ring, FreeModule(ring, []), [])

    @classmethod
    def cyclic(cls, ring, ideal_gens):
        """R / (ideal_gens), generated in degree zero."""
        F = FreeModule(ring, [0])
        cols = [vec_from_column([ring.reduce(g)]) for g in ideal_gens]
        return cls(ring, F, cols)

    # -- presentation access ---------------------------------------------
    @property
    def rank(self):
        return self.gens_free.rank

    def gb(self):
        return _cached(self, "gb", self._basis or (lambda: groebner_basis(
            self.rel_cols, self.ring, self.gens_free)))

    # -- elementary constructions ----------------------------------------
    def twist(self, d):
        """M(d), whose reduced basis is M's with its degrees shifted."""
        F = self.gens_free.twist(d)
        return PresentedModule(
            self.ring, F, self.rel_cols,
            basis=lambda: direct_sum_basis(self.ring, F, [(self.gb(), 0)]))

    def direct_sum(self, other):
        if other.ring != self.ring:
            raise ValueError("modules over different rings")
        F = self.gens_free.direct_sum(other.gens_free)
        r = self.rank
        cols = list(self.rel_cols)
        cols += [{(p + r, m): c for (p, m), c in col.items()} for col in other.rel_cols]
        return PresentedModule(self.ring, F, cols)

    def lift_to_cover(self):
        """The same module viewed over the polynomial cover, built once."""
        if self.ring.is_polynomial:
            return self
        return _cached(self, "cover", self._lift)

    def _lift(self):
        ring = self.ring
        F = FreeModule(ring.cover, self.gens_free.twists)
        cols = list(self.rel_cols)
        for f in ring.defining:
            for p in range(F.rank):
                cols.append({(p, m): c for m, c in f.terms.items()})
        return PresentedModule(ring.cover, F, cols)

    def minimized(self):
        """Isomorphic module with a minimal presentation, built afresh on
        every call."""
        tw, cols, _ = minimize_presentation(self.gens_free.twists,
                                            self.rel_cols, self.ring.field)
        return PresentedModule(self.ring, FreeModule(self.ring, tw), cols)

    # -- numerical invariants --------------------------------------------
    def hilbert_series(self):
        return _cached(self, "hs", lambda: hilbert_series(self))

    def dimension(self):
        return self.hilbert_series().dimension()

    def indeg(self):
        return self.hilbert_series().indeg()

    def top_degree(self):
        return self.hilbert_series().top_degree()

    def hilbert_function(self, j):
        return self.hilbert_series().coefficient(j)

    def is_zero(self):
        if self.rank == 0:
            return True
        return self.hilbert_series().is_zero()

    def is_finite_length(self):
        return self.dimension() <= 0

    def __repr__(self):
        return (f"<module {self.rank} gens, {len(self.rel_cols)} relations "
                f"over {self.ring!r}>")


class ModuleMap:
    """A degree-zero map of presented modules, given on generators.

    cols[j] is the image of the j-th generator of the source, as a vector
    over the target's generator module.
    """

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        self.cols = tuple(dict(c) for c in cols)
        if len(self.cols) != source.rank:
            raise ValueError("column count does not match source generators")
        st = source.gens_free.twists
        for j, c in enumerate(self.cols):
            if c and vec_degree(c, target.gens_free.twists) != st[j]:
                raise ValueError("map is not homogeneous of degree zero")

    @property
    def ring(self):
        return self.source.ring

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{} for _ in range(source.rank)])

    def compose(self, other):
        """self after other."""
        K = self.ring.field
        return ModuleMap(other.source, self.target,
                         [apply_map(self.cols, c, K) for c in other.cols])

    def is_zero_map(self):
        gb = self.target.gb()
        return all(gb.contains(c) for c in self.cols)

    def __repr__(self):
        return f"<module map {self.target.rank}x{self.source.rank}>"


def multiplication_map(M, f):
    """M -> M(d) given by multiplication with the homogeneous element f."""
    f = M.ring.reduce(f)
    d = 0 if f.is_zero() else f.homogeneous_degree()
    target = M.twist(d)
    cols = []
    for i in range(M.rank):
        cols.append({(i, m): c for m, c in f.terms.items()})
    return ModuleMap(M, target, cols), d


# -- relations modulo a held Groebner basis ------------------------------

def syzygies_of_vectors(vectors, degrees, gb):
    """Generators of {(a_i) : sum a_i v_i in D}, D the submodule of
    gb.free whose Groebner basis is gb, as vectors over the free module on
    `degrees` (degrees[i] the degree of v_i, which may be zero).

    Tag trick: v_i + e_i on gb.free plus one tag position per vector,
    grown from gb by a seeded run (`groebner_basis`'s `known`), so D's
    pairs are never reduced again.  Position over term makes gb.free's
    positions dominate, so the basis elements that lead on a tag lie on
    the tags alone and cut out the relation module; a zero vector comes
    back as its bare tag."""
    ring, free = gb.ring, gb.free
    r = free.rank
    big = FreeModule(ring, tuple(free.twists) + tuple(degrees))
    one = tuple(0 for _ in range(ring.nvars))
    tagged = [{**v, (r + i, one): ring.field.one} for i, v in enumerate(vectors)]
    full = groebner_basis(tagged, ring, big, known=gb)
    return [{(p - r, m): c for (p, m), c in v.items()}
            for v in full.module_vectors(first=r)]


def present_subquotient(numerators, gb_den):
    """Present (N + D)/D for N = <numerators> and D the submodule whose
    Groebner basis gb_den the caller holds, minimally.

    Returns (module, gens) where gens[i] is the vector representing the
    i-th generator of the result inside gb_den.free."""
    ring, free = gb_den.ring, gb_den.free
    nums = []
    seen = set()
    for v in numerators:
        w = gb_den.normal_form(v)
        if not w:
            continue
        key = frozenset(w.items())
        if key in seen:
            continue
        seen.add(key)
        nums.append(w)
    if not nums:
        return PresentedModule.zero(ring), []
    twists = tuple(vec_degree(v, free.twists) for v in nums)
    rels = syzygies_of_vectors(nums, twists, gb_den)
    tw, cols, kept = minimize_presentation(twists, rels, ring.field)
    module = PresentedModule(ring, FreeModule(ring, tw), cols)
    return module, [nums[i] for i in kept]


# -- kernels, homology, colons -------------------------------------------

def _kernel_vectors(phi):
    """Vectors of phi's source free module that, together with the
    source's relations, generate ker phi."""
    return syzygies_of_vectors(phi.cols, phi.source.gens_free.twists,
                               phi.target.gb())


def kernel(phi):
    """Kernel of a map of presented modules.

    Returns (module, inclusion) with inclusion a ModuleMap into phi's source.
    """
    M = phi.source
    module, gens = present_subquotient(_kernel_vectors(phi), M.gb())
    return module, ModuleMap(module, M, gens)


def image(phi):
    """Image of a map as a submodule of the target; returns (module, gens)."""
    return present_subquotient(phi.cols, phi.target.gb())


def homology_at(psi, phi):
    """ker(phi) / im(psi) for maps through one module (one ring, generator
    twists and relations) with phi after psi zero.

    One subquotient: phi's kernel vectors over the middle module's basis
    grown by psi's columns."""
    a, b = psi.target, phi.source
    if a is not b and ((a.ring, a.gens_free.twists, a.rel_cols)
                       != (b.ring, b.gens_free.twists, b.rel_cols)):
        raise ValueError("maps are not composable")
    comp = phi.compose(psi)
    if not comp.is_zero_map():
        raise ValueError("composition is not zero, homology undefined")
    mid = phi.source
    gb_den = groebner_basis(psi.cols, mid.ring, mid.gens_free, known=mid.gb())
    if not phi.target.rank:
        return _cokernel(mid, gb_den)
    module, _ = present_subquotient(_kernel_vectors(phi), gb_den)
    return module


def _cokernel(mid, gb_den):
    """mid / D for the submodule D of mid's generator module whose basis
    gb_den holds: the homology at a bottom spot, where ker phi is all of
    mid.  Its relations are the basis, minimized, which drops a generator
    that an element with a constant lead makes redundant; when minimizing
    removes nothing, they are the basis itself, which the module keeps as
    its gb()."""
    ring = mid.ring
    rels = gb_den.module_vectors()
    tw, cols, _ = minimize_presentation(mid.gens_free.twists, rels,
                                        ring.field)
    held = len(tw) == mid.rank
    return PresentedModule(ring, FreeModule(ring, tw), cols,
                           basis=(lambda: gb_den) if held else None)


def colon_by_element(M, f):
    """(0 :_M f) as a presented module; also returns the inclusion."""
    phi, _ = multiplication_map(M, f)
    return kernel(phi)


def quotient_by_element(M, f):
    """M / f M."""
    f = M.ring.reduce(f)
    cols = list(M.rel_cols)
    for i in range(M.rank):
        cols.append({(i, m): c for m, c in f.terms.items()})
    return PresentedModule(M.ring, M.gens_free, cols).minimized()


def annihilator(M):
    """Generators of Ann(M) as polynomials over M's ring."""
    if M.rank == 0 or M.is_zero():
        return [M.ring.constant(1)]
    ring = M.ring
    # map R -> sum_i M(d_i), 1 |-> (e_1, ..., e_r); kernel is the annihilator
    twists = M.gens_free.twists
    big = M.twist(twists[0])
    offsets = [0]
    for i in range(1, M.rank):
        nxt = M.twist(twists[i])
        offsets.append(big.rank)
        big = big.direct_sum(nxt)
    col = {}
    one = tuple(0 for _ in range(ring.nvars))
    for i in range(M.rank):
        col[(offsets[i] + i, one)] = ring.field.one
    R1 = PresentedModule.free(ring, [0])
    phi = ModuleMap(R1, big, [col])
    ker_mod, incl = kernel(phi)
    out = []
    for c in incl.cols:
        out.append(Polynomial(ring, {m: cc for (_, m), cc in c.items()}))
    return out


def is_filter_regular(f, M):
    """True when (0 :_M f) has finite length."""
    sub, _ = colon_by_element(M, f)
    return sub.is_finite_length()


# -- Hilbert series -------------------------------------------------------

def hilbert_series(M):
    """HS(M), from M's Groebner basis (`quotient_series`)."""
    if M.rank == 0:
        return HilbertSeries({}, M.ring.cover.nvars)
    return quotient_series(M.gb())


def quotient_series(gb):
    """HS(F/U) for U the submodule of F = gb.free with Groebner basis gb,
    from gb's leads, position by position: by Macaulay's theorem HS(F/U) =
    HS(F/in(U)), and in(U) is generated by the leads of any Groebner
    basis of U, so the basis is never reduced for this.  Each lead is
    passed as the exponent word its element keeps
    (`GroebnerBasis.lead_words`), which the numerator recursion runs on.
    Positions with the same lead tuple, as the blocks of a totalization
    have, share one numerator; so do the ext and Koszul routes' cokernels,
    whose leads agree position by position up to relabelling
    (cmreg.complexes.koszul_resolution_of_k), through the numerator
    cache."""
    n = gb.ring.cover.nvars
    per_pos = {}
    for p, w in gb.lead_words():
        per_pos.setdefault(p, []).append(w)
    numerators = {}
    total = {}
    for p, t in enumerate(gb.free.twists):
        leads = tuple(per_pos.get(p, ()))
        num = numerators.get(leads)
        if num is None:
            num = numerators[leads] = monomial_ideal_numerator(leads, n)
        for d, c in num.items():
            total[d + t] = total.get(d + t, 0) + c
    return HilbertSeries(total, n)


def module_from_ideal(ring, gens):
    """An ideal as a module: generators at their degrees plus syzygies."""
    nums = [vec_from_column([ring.reduce(g)]) for g in gens]
    module, _ = present_subquotient(nums, PresentedModule.free(ring, [0]).gb())
    return module
