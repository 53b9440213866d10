"""Castelnuovo-Mumford regularity by four independent routes, plus the
relative and duality-side invariants.

Routes:
  betti    max{j - i} over the minimal free resolution over the cover
  ext      sup{i + j : Ext^i(k, M)_j != 0} (Bass numbers over the cover)
  koszul   sup{j - i : H_i(y; M)_j != 0} on the object's own ring
  duality  top degrees of local cohomology read off Ext^q(M, S(-n))

ROUTES names once which routes certify which kind of object: a module
by all four, a complex by koszul and betti.  run_routes runs an
object's row on the object itself, module or complex alike, looking
each route up as the module attribute reg_via_<name> as it runs (so a
wrapper or fault put there is run), and regularity and cmreg reg read
it.  Routes that disagree mean the engine is broken: run_routes and
depth_profile raise rather than report it.

The ext, koszul and duality routes never present a homology module: each
reads the nonzero homology series of one complex through one reader
(BoundedComplex.nonzero_homology_series), off the cokernels of the
differentials: Hom(K, M) = K^* (x) M, K (x) M and F^*(-n), with ^* the
dual (complexes.dual_complex).  Inside one complex no Groebner basis is
built twice: each tensor term's basis is assembled from the bases of its
blocks, twisted copies of the coefficient terms, and each cokernel's
basis grows from its target's by a seeded Buchberger run.  Across routes
only this is shared: the Groebner kernel and its output for the same
module (the basis cached on that module, which the ext and koszul routes
both read as a block), the Hilbert-series code (homology_series
included) and, for betti and duality, the minimal free resolution of the
module over the cover.  A module or complex builds its cover once and
keeps it (lift_to_cover), so the two share that resolution over quotient
rings as they do over polynomial rings.  The betti route reads the Betti
table (resolution.BettiTable), as relative_reg does, and shares no
homology code with the other three.

Default-form reg_via_koszul keeps its result on the object it was asked
about under the one cache rule of cmreg.memo; reg_complex is that entry,
which run_routes fills on the same object.  Explicit Koszul forms are
never cached.  The checkers (cmreg.theorems) take every module value
from the duality rows kept by key, below, and reach the Koszul route
only through reg_complex.

The duality route keeps nothing on the module.  Its rows, {i: the series
of Ext^{n-i}_S(M, S(-n))}, are read off Hom(F, S(-n)) = F^*(-n) for F
the minimal free resolution of M over the cover, only at the spots where
Ext can be nonzero (_duality_rows), and with the depth are kept on the
cover ring under the module's key
(_module_key: its generator twists less the lowest, t0, and its reduced
Groebner basis).  Ext and depth are invariants of the module, not of its
presentation, and a twist only shifts Ext.  So a module met again under
another twist or presentation (Tor_1(S/(f), M) = (0 :_M f)(-1) in one
checker and (0 :_M f) in another, or M and M(-1) in the termwise bound)
reads the stored rows and shifts them by its own t0.
reg_via_duality, local_cohomology_table, a_invariant and check
ring-indep read those rows; the betti, ext and koszul routes never do.
local_cohomology_table is the one reader of a degree window: the rows
are exact in every degree, and check ring-indep compares them as they
are.  A zero module has no rows.

Absolute invariants of quotient-ring objects are routed through the
polynomial cover; the Koszul route is the one that works directly over the
quotient, which is what makes the four-way agreement a real test.
"""

from math import inf

from .complexes import (BoundedComplex, _as_complex, dual_complex,
                        grade_of_sequence, koszul_complex,
                        koszul_resolution_of_k, resolution_to_complex,
                        tensor_free_with_complex)
from .memo import _cached
from .modules import PresentedModule
from .resolution import BettiTable, betti_table, free_resolution


class KoszulHypothesisError(ValueError):
    """A Koszul-route sequence whose homology is not finite length."""

    def __init__(self, spot, dimension):
        self.spot = spot
        self.dimension = dimension
        super().__init__(
            f"H_{spot} of the Koszul complex has dimension {dimension}; "
            "the finite-length hypothesis fails for this sequence")


def _require_module(M):
    if not isinstance(M, PresentedModule):
        raise TypeError("expected a presented module")


def _cover(obj):
    """A module's or complex's cover, built once (itself over a polynomial
    ring)."""
    if not isinstance(obj, (PresentedModule, BoundedComplex)):
        raise TypeError("expected a presented module or a bounded complex")
    return obj.lift_to_cover()


def _agreed(what, routes):
    """The one value every route in routes, {route: value}, gives; raise
    otherwise: routes that disagree mean the engine is broken.  The
    message names each route's value."""
    values = set(routes.values())
    if len(values) != 1:
        raise RuntimeError(f"internal disagreement on {what}: " + ", ".join(
            f"{route} gives {v}" for route, v in routes.items()))
    return values.pop()


# -- route 1: the Betti table ----------------------------------------------

def _sup(candidates):
    """sup of the values of (value, witness) candidates, and the witness of
    the first candidate that attains it; (-inf, None) when there are none."""
    best, wit = -inf, None
    for v, w in candidates:
        if v > best:
            best, wit = v, w
    return best, wit


def reg_via_betti(obj):
    """(value, witness) from the Betti table of the full minimal free
    resolution over the cover; a truncated one raises.

    witness is the (spot, twist) pair attaining the sup at the lowest spot.
    """
    bt = betti_table(_cover(obj))
    if not bt.complete:
        raise RuntimeError("free resolution was truncated")
    return bt.regularity(), bt.witness()


# -- route 2: Ext against the residue field -------------------------------

def bass_table(obj):
    """Bass numbers mu^{i,j} = dim Ext^i(k, obj)_j over the cover, as
    {(i, j): mu^{i,j}}, exact and finitely supported.

    Read off Hom(K, obj) = K^* (x) obj with K the Koszul resolution of k
    on the variables in reverse order (complexes.koszul_resolution_of_k): in
    that order each Hom column leads as the matching tensor column of
    the Koszul route does, and the two routes' cokernel runs take the
    same columns up to signs and a relabelling of positions (on the
    corpus they add 228 basis elements each, where the variables' own
    order added 260 here)."""
    C = _as_complex(obj).lift_to_cover()
    if not C.terms:
        return {}
    E = tensor_free_with_complex(dual_complex(koszul_resolution_of_k(C.ring)),
                                 C)
    table = {}
    for s, H in E.nonzero_homology_series().items():
        i = -s
        lo, hi = H.indeg(), H.top_degree()
        if hi == inf:
            raise ArithmeticError(
                f"Ext^{i}(k, -) is not finite length; corrupt input")
        for j in range(lo, hi + 1):
            d = H.coefficient(j)
            if d:
                table[(i, j)] = d
    return table


def reg_via_ext(obj):
    """(value, witness) with value = sup{i + j} over nonzero Bass numbers."""
    return _sup((i + j, (i, j)) for (i, j) in bass_table(obj))


# -- route 3: Koszul homology on the module's own ring --------------------

def reg_via_koszul(obj, forms=None):
    """(value, witness) from Koszul homology H_i(forms; obj) over the
    object's own ring.

    forms defaults to the ring variables (always a valid sequence).  A
    user-supplied sequence must consist of linear forms, and every
    homology module must have finite length (forms spanning the degree-1
    piece always pass); a KoszulHypothesisError reports the first that
    does not.  Only the default call (no forms) is cached on obj.
    """
    C = _as_complex(obj)
    if forms is None:
        return _cached(obj, "koszul", lambda: _koszul_route(C, None))
    return _koszul_route(C, forms)


def _koszul_route(C, forms):
    ring = C.ring
    if not C.terms:
        return -inf, None
    if forms is None:
        forms = list(ring.gens())
    else:
        forms = list(forms)
        for f in forms:
            if f.is_zero() or not f.is_homogeneous() or f.homogeneous_degree() != 1:
                raise ValueError("Koszul-route sequences consist of linear forms")
    series = koszul_complex(forms, C).nonzero_homology_series()
    # One pass serves every sequence: H_i(forms; C) is killed by the
    # forms, so forms spanning R_1 give finite-length homology and never
    # raise.  Positive spots first: they carry the hypothesis, and the
    # guard on H_0 (and below) comes after.
    for i in sorted(series, key=lambda i: i <= 0):
        if series[i].dimension() > 0:
            raise KoszulHypothesisError(i, series[i].dimension())
    return _sup((H.top_degree() - i, (i, H.top_degree()))
                for i, H in series.items())


# -- route 4: graded local duality ----------------------------------------

def _module_key(Mc):
    """(t0, key) of a module over a polynomial ring: t0 its lowest
    generator twist, key its generator twists less t0 and its reduced
    Groebner basis.  A reduced basis is unique, so over one ring object
    equal keys name the same submodule of the same free module, up to the
    shift t0."""
    twists = Mc.gens_free.twists
    t0 = min(twists)
    return t0, (tuple(t - t0 for t in twists), Mc.gb().key())


def _duality_rows(F, dim):
    """{i: HS(Ext^{n-i}_S(M, S(-n)))} over the nonzero rows, for F the
    minimal free resolution of a module M of dimension dim over the
    polynomial ring S = F.ring in n variables, read off the dual complex
    F^*: Hom(F, S(-n)) is F^*(-n), so Ext^q is H_{-q}(F^*) twisted by -n,
    and its row is i = n - q.

    Only q = n - dim..pd is read, pd = F.length, the spots -pd..dim - n
    of F^*.  Ext^q_S(M, S) = 0 for q below grade(ann M), which over S is
    codim M = n - dim (Rees, and grade equals height in a Cohen-Macaulay
    ring: Bruns and Herzog, Cohen-Macaulay Rings, Theorem 1.2.5 and
    Corollary 2.1.4), and F^* has no term past pd.  Both ends are
    nonzero, which is checked here at no cost: Ext^codim by the same
    theorem of Rees, since the grade is the least q with Ext^q_S(M, S)
    nonzero, and Ext^pd = coker d_pd^* by Nakayama, since F is minimal
    and d_pd^* has its entries in the maximal ideal.  In local cohomology
    these are the rows dim and depth (Grothendieck; Bruns and Herzog,
    Theorem 3.5.7).  A missing end row is an engine defect, and raises."""
    n = F.ring.nvars
    D = dual_complex(resolution_to_complex(F))
    rows = {n + s: H.twist(-n) for s, H in
            D.nonzero_homology_series(-F.length, dim - n).items()}
    if dim not in rows or n - F.length not in rows:
        raise ArithmeticError(
            f"Ext^q_S(M, S) vanished at q = codim or q = pd (rows {dim} and "
            f"{n - F.length}); corrupt input")
    return rows


def _duality_series(M):
    """{i: HS(Ext^{n-i}_S(M, S(-n)))} over the nonzero rows, S the cover in
    n variables, from the minimal free resolution F of M over S
    (_duality_rows), read where Ext can be nonzero: from row dim M down
    to row depth M.  By graded local duality the row i is the dual of
    H^i_m(M): dim H^i_m(M)_j = dim Ext^{n-i}_S(M, S(-n))_{-j}.

    Computed once per module up to twist and presentation: the rows of
    M(t0), t0 the lowest generator twist, are kept on S under the module's
    key, and each caller shifts them back by its own t0.  A zero module
    has no rows."""
    if M.is_zero():
        return {}
    Mc = M.lift_to_cover()
    t0, key = _module_key(Mc)

    def compute():
        return {i: E.twist(-t0) for i, E in
                _duality_rows(free_resolution(Mc), Mc.dimension()).items()}

    rows = _cached(Mc.ring, ("duality", key), compute)
    return {i: E.twist(t0) for i, E in rows.items()}


def reg_via_duality(M):
    """(value, witness) with value = max{i + j : H^i_m(M)_j != 0}.

    The top degree of H^i is minus the initial degree of its dual row
    (_duality_series).  Nothing is kept on M: the rows are kept on the
    cover ring."""
    _require_module(M)
    return _sup((i - E.indeg(), (i, -E.indeg()))
                for i, E in _duality_series(M).items())


class LocalCohomologyTable:
    """dim_k H^i_m(M)_j over a degree window, with exact per-row support.

    Entries are exact inside the window; row_support records the true
    (start, end) degrees of each H^i, with -inf marking rows that extend
    below any finite window.
    """

    __slots__ = ("entries", "window", "row_support", "nvars")

    def __init__(self, entries, window, row_support, nvars):
        self.entries = entries
        self.window = window
        self.row_support = row_support
        self.nvars = nvars


def local_cohomology_table(M, window=None):
    """dim H^i_m(M)_j over a window, (-2n - 4, 2n + 4) by default, from the
    rows of _duality_series: the one builder of a LocalCohomologyTable and
    the one reader of a window.  The rows are exact, so the window ends no
    lower than the last row does: past the given end it runs on to the
    highest degree in which some H^i is nonzero."""
    _require_module(M)
    n = M.ring.cover.nvars
    lo, hi = window or (-2 * n - 4, 2 * n + 4)
    if lo > hi:
        raise ValueError(f"empty local cohomology window {(lo, hi)}: "
                         "it ends below its start")
    rows = _duality_series(M)
    support = {}
    for i, E in rows.items():
        top = E.top_degree()
        support[i] = (-inf if top == inf else -top, -E.indeg())
    hi = max([hi, *(e for (_, e) in support.values())])
    entries = {(i, j): d for i, E in rows.items() for j in range(lo, hi + 1)
               if (d := E.coefficient(-j))}
    return LocalCohomologyTable(entries, (lo, hi), support, n)


def a_invariant(ring):
    """Top degree of the top local cohomology of the ring."""
    M = PresentedModule.cyclic(ring, [])
    d = M.dimension()
    if d == -inf:
        raise ValueError("the zero ring has no a-invariant")
    return -_duality_series(M)[d].indeg()


# -- the route table -------------------------------------------------------

ROUTES = {PresentedModule: ("betti", "ext", "koszul", "duality"),
          BoundedComplex: ("koszul", "betti")}


def run_routes(obj):
    """(value, {name: (value, witness)}) over obj's row of ROUTES, each
    route run on obj itself; routes that disagree raise (_agreed).  Each
    route is read as the attribute reg_via_<name> of this module as it
    runs, never held, so a route rebound here is run."""
    module = isinstance(obj, PresentedModule)
    runs = {name: globals()["reg_via_" + name](obj)
            for name in ROUTES[PresentedModule if module else BoundedComplex]}
    value = _agreed("a module" if module else "a complex",
                    {name: v for name, (v, _) in runs.items()})
    return value, runs


# -- relative invariants ---------------------------------------------------

class RelativeReg:
    """sup{j - i} over a minimal resolution on the module's own ring.

    Over a quotient ring the resolution may be truncated; `certified`
    carries whether the reported value is exact rather than a lower bound.
    """

    __slots__ = ("value", "certified", "levels")

    def __init__(self, value, certified, levels):
        self.value = value
        self.certified = certified
        self.levels = levels

    def __repr__(self):
        tag = "exact" if self.certified else f"truncated@{self.levels}"
        return f"RelativeReg({self.value}, {tag})"


def relative_reg(obj, max_len=None):
    """RelativeReg of a module or complex, read off its resolution over its
    own ring."""
    res = free_resolution(obj, max_len=max_len)
    return RelativeReg(BettiTable(res.betti(), res.complete).regularity(),
                       res.complete, res.length)


def reg_complex(L):
    """Regularity of a bounded complex: Koszul homology of K[vars; L] over
    L's own ring, the koszul route's entry on L."""
    return reg_via_koszul(L)[0]


# -- depth by three routes -------------------------------------------------

def depth_profile(M):
    """Depth by pd (Auslander-Buchsbaum), by Bass numbers, and by Koszul
    homology, all over the cover; a disagreement raises (_agreed)."""
    _require_module(M)
    Mc = M.lift_to_cover()
    if Mc.is_zero():
        return {"via_pd": inf, "via_ext": inf, "via_koszul": inf}
    via_pd = depth(Mc)
    via_ext = min(i for (i, _) in bass_table(Mc))
    via_koszul = grade_of_sequence(list(Mc.ring.gens()), Mc)
    profile = {"via_pd": via_pd, "via_ext": via_ext, "via_koszul": via_koszul}
    _agreed("the depth", profile)
    return profile


def depth(M):
    """Depth of a module (over its own ring; depth is cover-independent),
    by Auslander-Buchsbaum over the cover, once per module up to twist and
    presentation (kept on the cover under the key of _module_key)."""
    _require_module(M)
    Mc = M.lift_to_cover()
    if Mc.is_zero():
        return inf
    S = Mc.ring
    _, key = _module_key(Mc)
    return _cached(S, ("depth", key),
                   lambda: S.nvars - free_resolution(Mc).length)


# -- the report ------------------------------------------------------------

class RegularityReport:
    """The four routes' values and witnesses, from run_routes' {name:
    (value, witness)}, the value they agree on (run_routes raises first on
    a disagreement, so agree is always true) and the relative
    regularity."""

    __slots__ = ("ring_repr", "cover_repr", "routes", "witnesses",
                 "relative", "value")
    agree = True

    def __init__(self, ring_repr, cover_repr, runs, relative, value):
        self.ring_repr = ring_repr
        self.cover_repr = cover_repr
        self.routes = {name: v for name, (v, _) in runs.items()}
        self.witnesses = {name: w for name, (_, w) in runs.items()}
        self.relative = relative
        self.value = value

    def as_dict(self):
        return {
            "ring": self.ring_repr,
            "cover": self.cover_repr,
            "routes": dict(self.routes),
            "witnesses": {k: (list(v) if v else None)
                          for k, v in self.witnesses.items()},
            "agree": self.agree,
            "value": self.value,
            "relative": {
                "value": self.relative.value,
                "certified": self.relative.certified,
                "levels": self.relative.levels,
            },
        }


def regularity(M, max_len=None):
    """Four-route regularity report for a presented module; routes that
    disagree raise (run_routes)."""
    _require_module(M)
    value, runs = run_routes(M)
    return RegularityReport(repr(M.ring), repr(M.ring.cover), runs,
                            relative_reg(M, max_len=max_len), value)
