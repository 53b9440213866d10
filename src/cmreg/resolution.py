"""Minimal graded free resolutions of modules and bounded complexes, by
one loop of iterated syzygies.

`_resolve` builds a free complex F quasi-isomorphic to a complex L
given by its terms and differentials; a module is the one-term complex
{0: M}.  A generator of F_i is one column in F_{i-1} + cover(L_i): its
image under d^F, then, in the passenger rows (cmreg.minimize), its image
in L_i.  F_lo covers L_lo, and F_{lo+1} has rho + 0 for each relation rho
of L_lo and d l_j + e_j for each generator l_j of L_{lo+1}.  At each later
level i the columns of d_i and 0 + rho for the relations rho of L_i give
way to their reduced Groebner basis; F_{i+1} has its trace syzygies (La
Scala and Stillman, Strategies for computing minimal free resolutions,
JSC 1998), the lift over it of each 0 + rho, and lift(0 + d l_j) + e_j for
each generator l_j of L_{i+1}.  Then d_i's passengers are dropped, and
unit elimination sweeps the chain before the next Groebner basis.

A module's first Groebner step is the module's own relation basis: when
unit elimination removes none of its relations, the columns of d_1 are
those relations, and the loop reads M.gb() (filling it when nothing has
yet) instead of running Buchberger on them again.  The kernel is
deterministic, so that basis is the one a run of the loop's own would
give.

Over a polynomial ring the columns of d_i are the trace syzygies alone
for every i >= hi + 2, hi L's top spot (i >= 2 for a module).  Those
levels are a frame: by Schreyer's theorem the syzygies are a Groebner
basis already, in the Schreyer order that cmreg.groebner packs them in,
so they are resolved further with no Buchberger run and no
minimization.  A frame level stays that packed basis in the chain, its
tails reduced on read (cmreg.groebner, Reduction on read): the loop reads
its leads and degrees alone (GroebnerBasis.module_degrees), its twists
are its elements' degrees, and the next syzygy step pairs its leads.
`_betti_twists` reads its constant part off the packed terms
(GroebnerBasis.module_constants).  A constant term c e_p of a homogeneous
syzygy has the degree of e_p, so a frame syzygy whose degree is no twist
one level down has no constant part, and only the others are reduced
there.  `_minimal_cols` completes and decodes the frame
(GroebnerBasis.module_vectors) only when cols is first read, so the
Betti numbers never decode a frame syzygy.  Over a quotient ring every
level adds I*F's columns and reads its syzygies' vectors at once, so
every level takes the Groebner step with every tail reduced.

The finished chain is not minimized.  For any graded free resolution F,
over any standard graded ring,
beta_{i,j} = dim H_i(F (x) k)_j = f_{i,j} - rank c_{i,j} - rank c_{i+1,j},
where f_{i,j} counts F_i's generators of degree j and c_{i,j} is the
constant part of d_i between the degree-j parts of F_i and F_{i-1} (La
Scala and Stillman; Eroecal, Motsa, Schreyer and Steenpass, Refined
algorithms to compute syzygies, JSC 2016).  The constant parts form a
complex over the field, and minimizing it, Gaussian elimination with
scalars alone, removes exactly those ranks: the twists, and all that is
read off them, are that complex's.  Only a generator of F_i whose degree
j is a twist of F_{i-1} has a column in c_{i,j}, so the Betti numbers
reduce no frame syzygy of any other degree, while cols, and the
duality, tor and ext that read it, reduce every one.  The minimal
differentials are the chain minimized once, on the first read of
FreeResolution.cols; every level above the bottom is then sorted by
degree, as its twists are.
The loop's bottom level is final as built: the loop minimizes d_{lo+1}
before its Groebner step, and a Groebner basis of columns with no unit
has no unit.

A module killed by linear forms is resolved over the smaller ring.
Right after the loop's first Groebner step of a module over a polynomial
ring (the cover of a quotient-ring module included), `_linear_cut` reads
the linear forms l with l e_p in that reduced basis at every generator
position p, l_1..l_c with c <= n - 1.  No term of a reduced basis is
divisible by another element's lead, so no other element involves a
form's pivot (its lead variable): with the pivots' coordinates dropped,
the rest is already the reduced Groebner basis of a module M' over
S' = k[the other variables] (groebner.reduced_basis).  `_linear_cut`
builds M' holding that basis, and from then on the loop reads M''s
resolution (`_tensored`): M''s own loop, over S', takes the held
basis as its first Groebner step and runs no Buchberger at all.  M is
M' (x)_{S'} S/(l), and l_1..l_c is a regular sequence on M' (x)_{S'} S,
so F = F' (x) K(l_1..l_c), with F' the minimal resolution of M' read
into S, is the minimal resolution of M: beta_{i,j}(M) = sum_k C(c, k)
beta_{i-k,j-k}(M').  `_tensor_cut` reads F's twists in that closed
form, and on the first read of cols assembles d(a (x) e_J) = d'a (x)
e_J + (-1)^|a| sum_r (-1)^r l_{J_r} a (x) e_{J - J_r} in the free-chain
layout: the entries of F' embedded in S and the +-l_k blocks, every
level above the bottom sorted by degree (`_koszul_cols`).  Complexes and
resolutions over a quotient ring itself never split.

An empty level at or above L's top spot hi ends the loop: F is
complete.  Over a polynomial ring that happens by level hi + the number
of variables (Hilbert's syzygy theorem); the frame can run one level
longer, but a Betti number past it is an engine bug and raises.  F is
truncated at max_len (at least 1) levels past the bottom, where the loop
stops.  The syzygies it found last cut that top level down, so its
Betti numbers are exact; they are then dropped.  Whether F is complete
there is one exact test on Hilbert series (`_resolves`), so no level
past the cut is resolved.  The loop, a generator, yields F there and
stays suspended for a longer cut to resume; a linear cut resumes M''s
loop and tensors again, as far as F' is exact.

`free_resolution` is the one way into the loop.  It takes a presented
module (the one-term complex at spot 0) or a bounded complex, and keeps
one resolution on that object, the longest cut so far, with its loop
until it is complete; a shorter cut is read off it by the one cut rule,
FreeResolution.truncate.  A complex of free modules needs no loop: it
is its own chain, whole and complete, read the same way.
cmreg.complexes imports this module, so a complex is recognized by its
terms and diffs dicts, not by its class.  Each of the three builders,
`_free_chain`, `_read_chain` (the loop's) and `_tensor_cut`, returns a
FreeResolution, which keeps F in the free-chain layout of
cmreg.freemod, the dicts twists and cols, keyed by spot, that the loop
builds and minimize_chain and free_complex_from_data read; its cols
come from the chain minimized (`_minimal_cols`), or from F' tensored
with the Koszul complex of a linear cut.
"""

from itertools import combinations
from math import inf
from operator import itemgetter
from types import SimpleNamespace

from .freemod import FreeModule, vec_degree
from .groebner import (GroebnerBasis, defining_gb, groebner_basis,
                       reduced_basis, syzygy_generators)
from .hilbert import monomial_ideal_numerator
from .memo import _cached
from .minimize import _find_unit, minimize_chain
from .modules import PresentedModule
from .rings import GradedRing


class FreeResolution:
    """A minimal free resolution in the free-chain layout over `ring`,
    keyed by spot in ascending order: twists[i] is the twist tuple of
    F_i, the minimal one read off the unminimized chain, and cols[i] the
    columns of d_i : F_i -> F_{i-1}, computed on their first read by
    `build`, which is then dropped.  A module's resolution starts at spot
    0.  For a module killed by linear forms, F is F' (x) K(l_1..l_c), over
    all the variables (module docstring)."""

    __slots__ = ("ring", "twists", "complete", "_cols", "_build")

    def __init__(self, ring, twists, complete, build):
        self.ring = ring
        self.twists = twists
        self.complete = complete
        self._cols = None
        self._build = build

    @property
    def cols(self):
        if self._cols is None:
            self._cols = self._build()
            self._build = None
        return self._cols

    @property
    def length(self):
        """The highest spot with a nonzero term, or 0 when there is none."""
        return max([0, *(i for i, tw in self.twists.items() if tw)])

    def truncate(self, max_len, span=0):
        """F cut at max_len levels past its bottom, the one cut rule: twists
        and cols up to the cut, complete when F is with no generator past
        and the cut at hi - 1 or above, for a complex spanning `span` spots
        from its bottom to hi; below, no cut can tell (`_resolves`)."""
        top = min(self.twists, default=0) + max_len
        complete = self.complete and max_len >= span - 1
        if max(self.twists, default=0) <= top and complete == self.complete:
            return self
        past = any(t for i, t in self.twists.items() if i > top)
        return FreeResolution(
            self.ring, {i: t for i, t in self.twists.items() if i <= top},
            complete and not past,
            lambda: {i: cs for i, cs in self.cols.items() if i <= top})

    def module(self, i):
        return FreeModule(self.ring, self.twists.get(i, ()))

    def is_minimal(self):
        return not any(_find_unit(col) is not None
                       for cs in self.cols.values() for col in cs)

    def betti(self):
        out = {}
        for i, tw in self.twists.items():
            for j in tw:
                out[(i, j)] = out.get((i, j), 0) + 1
        return out


def check_max_len(max_len):
    """A truncation length is None (the default) or a positive int; a
    float or a bool is refused, whatever its value."""
    if max_len is None:
        return
    if not isinstance(max_len, int) or isinstance(max_len, bool):
        raise TypeError(f"max_len must be an int, got "
                        f"{type(max_len).__name__} {max_len!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def _truncation(ring, span, max_len):
    """The max_len `_resolve` runs with for a complex spanning `span`
    spots past its bottom (0 for a module).  Over a polynomial ring in n
    variables nothing lies past level span + n, so None or a max_len of
    span + n or more asks for the full resolution; over a quotient ring
    the default is span + 2n + 4."""
    n = ring.nvars
    if ring.is_polynomial:
        if max_len is None or max_len >= span + n:
            return span + n + 1
        return max_len
    return span + 2 * n + 4 if max_len is None else max_len


def free_resolution(obj, max_len=None):
    """Minimal free resolution of a presented module, the one-term complex
    at spot 0, or of a bounded complex, over the object's own ring,
    truncated as `_truncation` reads max_len: the only reader of a
    truncation length in the library.  The object keeps one entry: res,
    its longest cut so far, and loop, suspended at that cut while res is
    incomplete for a longer cut to resume; a failed run leaves no loop,
    so the next call starts afresh.  The Betti numbers are read off an
    unminimized chain, minimized when the cols are first read."""
    check_max_len(max_len)
    if isinstance(obj, PresentedModule):
        terms, diffs, free = {0: obj}, {}, False
    elif (isinstance(getattr(obj, "terms", None), dict)
            and isinstance(getattr(obj, "diffs", None), dict)):
        # a BoundedComplex, whose terms all have positive rank; a complex of
        # free modules, the empty one included, needs no loop
        terms, diffs, free = obj.terms, obj.diffs, obj.is_free
    else:
        raise TypeError("expected a presented module or a bounded complex")
    ring = obj.ring
    span = max(terms) - min(terms) if terms else 0
    max_len = _truncation(ring, span, max_len)

    def run(held):
        loop, held.loop = held.loop, None
        if loop is None:  # a first call, or one after a failed run
            loop = _resolve(ring, terms, diffs, max_len)
            held.res = next(loop)
        else:
            held.res = loop.send(max_len)
        held.loop = None if held.res.complete else loop
        return held

    held = _cached(obj, "resolution", lambda: SimpleNamespace(
        res=_free_chain(ring, terms, diffs), loop=None) if free
        else run(SimpleNamespace(loop=None)))
    res = held.res
    if not res.complete and max(res.twists) - min(res.twists) < max_len:
        res = run(held).res
    return res.truncate(max_len, span)


def _tensor_cut(ring, inner, keep, forms):
    """F = F' (x) K(l_1..l_c) for a module killed by the linear forms
    l_1..l_c, from the resolution `inner` of its cut module M' over the
    ring on the variables keep (module docstring): beta_{i,j}(M) =
    sum_k C(c, k) beta_{i-k,j-k}(M'), as far as F' is exact (all of F
    when F' is complete), and complete when F' is."""
    twists, c, complete = inner.twists, len(forms), inner.complete
    levels = {i: _koszul_basis(twists, c, i) for i in range(
        min(twists), max(twists) + (c if complete else 0) + 1)}
    return FreeResolution(
        ring, {i: tuple(b[0] for b in bs) for i, bs in levels.items()},
        complete, lambda: _koszul_cols(ring, keep, forms, levels, inner.cols))


def _tensored(ring, cut, keep, forms, max_len):
    """The loop of a module with a linear cut: F' (x) K(l) at each cut,
    F' the cut module's own resolution, which a longer cut resumes."""
    while True:
        max_len = yield _tensor_cut(ring, free_resolution(cut, max_len),
                                    keep, forms)


def _koszul_basis(inner, c, i):
    """The basis of F_i, F = F' (x) K(l_1..l_c) and F' with twists
    `inner` from its bottom spot lo: (twist, k, J, a) for the generator
    a of F'_{i-k} times e_J, J a k-subset of the forms, of twist
    inner[i-k][a] + k.  Above lo it is sorted by twist, stably."""
    lo = min(inner)
    basis = [(t + k, k, J, a) for k in range(min(i - lo, c) + 1)
             for J in combinations(range(c), k)
             for a, t in enumerate(inner.get(i - k, ()))]
    if i > lo:
        basis.sort(key=itemgetter(0))
    return basis


def _koszul_cols(ring, keep, forms, levels, inner):
    """The columns of F = F' (x) K(l_1..l_c) on the bases `levels` of
    `_koszul_basis`, from the minimal columns `inner` of F' over the
    variables keep, whose monomials are embedded in the ring's:
    d(a (x) e_J) = d'a (x) e_J + (-1)^|a| sum_r (-1)^r l_{J_r} a (x)
    e_{J - J_r}, with |a| = i - k on F_i."""
    n, p = ring.nvars, ring.field.characteristic
    embedded = {}

    def embed(m):
        e = embedded.get(m)
        if e is None:
            e = [0] * n
            for v, x in zip(keep, m):
                e[v] = x
            e = embedded[m] = tuple(e)
        return e

    negated = [{m: p - c if p else -c for m, c in f.items()} for f in forms]
    lo = min(levels)
    cols = {}
    for i in range(lo + 1, max(levels) + 1):
        row = {b[1:]: q for q, b in enumerate(levels[i - 1])}
        cols[i] = out = []
        for _, k, J, a in levels[i]:
            col = {}
            if i - k > lo:
                for (q, m), c in inner[i - k][a].items():
                    col[row[k, J, q], embed(m)] = c
            for r, j in enumerate(J):
                q = row[k - 1, J[:r] + J[r + 1:], a]
                for m, c in (negated if (i - k + r) % 2 else forms)[j].items():
                    col[q, m] = c
            out.append(col)
    return cols


def _linear_cut(ring, gens, cols):
    """(M', keep, forms) for the reduced basis `cols` of a module's
    relations on generators of twists `gens` over a polynomial ring in n
    variables, when it holds l e_p at every generator position p for
    some linear forms l; else None.

    The forms l_1..l_c, as {monomial: c}, are the first n - 1 such by
    pivot, a form's lead variable.  In a reduced basis no term is
    divisible by another element's lead, so with l e_p a member at every
    p no other element involves a pivot: the rest of the basis, in its
    order, is the reduced basis of M' over the ring on the other
    variables `keep` (module docstring), and M' holds it as its gb()."""
    n = ring.nvars
    if not gens or n < 2:
        return None
    at = [set() for _ in gens]
    keys = []
    for col in cols:
        p, m = next(iter(col))
        key = None
        if sum(m) == 1 and all(q == p for q, _ in col):
            key = frozenset((m, c) for (_, m), c in col.items())
            at[p].add(key)
        keys.append(key)
    common = set.intersection(*at)
    if not common:
        return None
    pivot = {key: min(m.index(1) for m, _ in key) for key in common}
    chosen = sorted(common, key=pivot.__getitem__)[:n - 1]
    pivots = {pivot[key] for key in chosen}
    keep = [v for v in range(n) if v not in pivots]
    rest = []
    for col, key in zip(cols, keys):
        if key in chosen:
            continue
        vec = {}
        for (q, m), c in col.items():
            m2 = tuple(m[v] for v in keep)
            if sum(m2) != sum(m):
                raise RuntimeError("a reduced basis element involves the "
                                   "pivot of a linear cut")
            vec[q, m2] = c
        rest.append(vec)
    sub = GradedRing(ring.field, [ring.names[v] for v in keep])
    free = FreeModule(sub, gens)
    cut = PresentedModule(sub, free, rest,
                          basis=lambda: reduced_basis(rest, sub, free))
    return cut, keep, [dict(key) for key in chosen]


def _free_chain(ring, terms, diffs):
    """The resolution of a complex of free modules, its own chain, whole:
    a level at every spot from its bottom to its top, empty where it has
    no term.  An unstored differential is zero, and the minimizer still
    needs a column list of the right length for it."""
    twists = {i: tuple(terms[i].gens_free.twists) if i in terms else ()
              for i in range(min(terms, default=0), max(terms, default=-1) + 1)}
    cols = {i: [dict(c) for c in diffs[i].cols] if i in diffs
            else [{} for _ in twists[i]]
            for i in twists if i - 1 in twists}
    tw = _betti_twists(twists, cols, ring)
    return FreeResolution(ring, tw, True,
                          lambda: _minimal_cols(tw, twists, cols, ring.field))


def _shift(vec, rows):
    return {(p + rows, m): c for (p, m), c in vec.items()}


def _cover_columns(ring, terms, diffs, n, rank, lift):
    """lift(d l_j) + e_j, e_j at row rank + j, per generator l_j of L_n."""
    d = diffs.get(n)
    one = (0,) * ring.nvars
    return [{**(lift(d.cols[j]) if d else {}), (rank + j, one): ring.field.one}
            for j in range(terms[n].rank if n in terms else 0)]


def _resolve(ring, terms, diffs, max_len):
    """The loop: a generator of F for the complex L with these terms and
    differentials (module docstring), cut at max_len and then at each
    longer max_len it is sent, until F is complete; for a module killed
    by linear forms, F' (x) K(l) with F' the resolution of the cut module
    (`_linear_cut`, `_tensored`)."""
    K = ring.field
    lo, hi = min(terms), max(terms)
    # from this level on d_k's columns are the trace syzygies alone
    frame = hi + 2 if ring.is_polynomial else inf

    def rows(n):  # twists of F_{n-1} + cover(L_n), where d_n's columns live
        L = terms.get(n)
        return twists[n - 1] + (tuple(L.gens_free.twists) if L else ())

    # F_lo covers L_lo; F_{lo+1} kills its relations and maps onto L_{lo+1}
    twists, cols = {lo: tuple(terms[lo].gens_free.twists)}, {}
    nxt = [dict(c) for c in terms[lo].rel_cols] + _cover_columns(
        ring, terms, diffs, lo + 1, len(twists[lo]), dict)
    level = lo
    while True:
        cols[level + 1] = nxt
        if level + 1 >= frame:
            # a frame level stays the packed basis of its syzygies
            twists[level + 1] = tuple(nxt.module_degrees())
        else:
            twists[level + 1] = tuple(vec_degree(v, rows(level + 1))
                                      for v in nxt)
        if level - lo >= max_len:
            # frame levels are written into these dicts in place
            max_len = yield _read_chain(ring, terms, dict(twists),
                                        dict(cols), level, False)
        level += 1
        if level >= frame:
            # Schreyer: the trace syzygies are a Groebner basis already
            gb = cols[level]
        else:
            built = len(cols[level])
            twists, cols, _ = minimize_chain(twists, cols, K)
            rank = len(twists[level - 1])
            rels = [_shift(c, rank) for c in terms[level].rel_cols] \
                if level in terms else []
            if level == lo + 1 == hi + 1 and len(cols[level]) == built:
                # no unit left a module's relations: their basis is the
                # module's own
                gb = terms[lo].gb()
            else:
                gb = groebner_basis(cols[level] + rels, ring,
                                    FreeModule(ring, rows(level)))
            # d_level's map to L_level is no longer needed
            cols[level] = [{(p, m): c for (p, m), c in col.items() if p < rank}
                           for col in gb.module_vectors()]
            twists[level] = tuple(gb.module_degrees())
            if level == lo + 1 == hi + 1 and ring.is_polynomial:
                # a module's relations: when linear forms kill it, it is
                # resolved as its cut module over the other variables
                found = _linear_cut(ring, twists[lo], cols[level])
                if found:
                    yield from _tensored(ring, *found, max_len)
        if not twists[level] and level >= hi:
            # nothing is left to resolve
            del cols[level], twists[level]
            break
        _, nxt = syzygy_generators(gb)
        if level + 1 < frame:
            nxt = nxt.module_vectors()
            nxt += [v for v in map(gb.lift, rels) if v]
            nxt += _cover_columns(ring, terms, diffs, level + 1,
                                  len(cols[level]),
                                  lambda v: gb.lift(_shift(v, rank)))
    yield _read_chain(ring, terms, twists, cols, level, True)


def _read_chain(ring, terms, twists, cols, level, complete):
    """F read off the loop's chain, complete or stopped at its cut `level`
    with d_{level+1} the syzygies past it."""
    tw = _betti_twists(twists, cols, ring)
    # the syzygies past the cut only cut its top level down
    tw.pop(level + 1, None)
    # A frame level can be left with no Betti numbers.  Past an empty
    # level at or above hi every level is empty (Nakayama), and F is
    # complete.
    lo, hi = min(terms), max(terms)
    ends = [i for i, t in tw.items() if not t and i > lo and i >= hi]
    if ends:
        for i in range(min(ends), level + 1):
            tw.pop(i, None)
        complete = True
    # at its cut the loop reads completeness off Hilbert series
    complete = complete or _resolves(ring, terms, tw)
    if ring.is_polynomial and max(tw) > hi + ring.nvars:
        raise RuntimeError(
            f"resolution over a polynomial ring in {ring.nvars} "
            f"variables has generators at level {max(tw)}")
    return FreeResolution(ring, tw, complete,
                          lambda: _minimal_cols(tw, twists, cols, ring.field))


def _resolves(ring, terms, tw):
    """Whether F, with twists tw and stopped at its cut c = max(tw),
    resolves L: c >= hi - 1 and sum (-1)^i HS(F_i) = sum (-1)^i HS(L_i).
    The mapping cone of F -> L is exact below c + 1, and with c >= hi - 1
    its top term is F_c + L_{c+1}, so the module H it leaves at c + 1, the
    one F_{c+1} would cover, has series +-(the difference of the two sums)
    (additivity on exact sequences; Bruns and Herzog, Lemma 4.1.13), and
    H = 0 exactly when its series is.  Below hi - 1 the sums can agree
    by accident.  HS(F_i) is HS(R) sum t^a over F_i's twists a, HS(R)
    read off the exponent words of the defining ideal's leads.  The signs
    are ints at every spot, negative ones too, so the sums are exact."""
    if max(tw) < max(terms) - 1:
        return False
    base = monomial_ideal_numerator(
        tuple(g.word for g in defining_gb(ring)), ring.nvars)
    chi = {}
    for i, t in tw.items():
        sign = -1 if i % 2 else 1
        for a in t:
            for d, c in base.items():
                chi[a + d] = chi.get(a + d, 0) + sign * c
    for i, L in terms.items():
        sign = -1 if i % 2 else 1
        for d, c in L.hilbert_series().numerator.items():
            chi[d] = chi.get(d, 0) - sign * c
    return not any(chi.values())


def _betti_twists(twists, cols, ring):
    """The twists of the minimized chain, read off its constant part, a
    complex over the field (module docstring): minimizing that complex
    leaves f_{i,j} - rank c_{i,j} - rank c_{i+1,j} generators of degree j
    at each level.  Levels above the bottom come sorted by degree.  As
    in any chain, passenger rows are never pivots.  A frame level, a
    packed syzygy basis, gives its constant part without being decoded,
    and reduces only its syzygies whose degree is a twist one level
    down (GroebnerBasis.module_constants)."""
    one = (0,) * ring.nvars
    const = {i: cs.module_constants() if isinstance(cs, GroebnerBasis)
             else [{t: c for t, c in col.items() if t[1] == one} for col in cs]
             for i, cs in cols.items()}
    tw = minimize_chain(twists, const, ring.field)[0]
    lo = min(tw, default=0)
    return {i: t if i == lo else tuple(sorted(t)) for i, t in tw.items()}


def _minimal_cols(twists, chain_twists, chain_cols, K):
    """The columns of the minimized chain whose twists `_betti_twists`
    read off (twists, with its dropped levels), levels above the bottom
    sorted by degree.  Frame levels are completed and decoded here, once."""
    chain_cols = {i: cs.module_vectors() if isinstance(cs, GroebnerBasis)
                  else cs for i, cs in chain_cols.items()}
    tw, cols, _ = minimize_chain(chain_twists, chain_cols, K)
    lo = min(twists, default=0)
    tw = {i: tw[i] for i in twists}
    cols = {i: cols[i] for i in twists if i > lo}
    for i in twists:
        if i > lo:
            _sort_by_degree(tw, cols, i)
    if tw != twists:
        raise RuntimeError("minimizing a resolution changed its Betti "
                           "numbers")
    return cols


def _sort_by_degree(twists, cols, i):
    """Reorder F_i's basis by degree, stably: the columns of d_i and the
    rows of d_{i+1}."""
    tw = twists[i]
    order = sorted(range(len(tw)), key=tw.__getitem__)
    if order == list(range(len(tw))):
        return
    twists[i] = tuple(tw[k] for k in order)
    cols[i] = [cols[i][k] for k in order]
    if i + 1 in cols:
        new = {k: n for n, k in enumerate(order)}
        cols[i + 1] = [{(new[p], m): c for (p, m), c in col.items()}
                       for col in cols[i + 1]]


class BettiTable:
    """Graded Betti numbers beta_{i,j}."""

    __slots__ = ("entries", "complete")

    def __init__(self, entries, complete):
        self.entries = {k: v for k, v in entries.items() if v}
        self.complete = complete

    def regularity(self):
        if not self.entries:
            return -inf
        return max(j - i for (i, j) in self.entries)

    def projective_dimension(self):
        if not self.entries:
            return -inf
        top = max(i for (i, _) in self.entries)
        return top if self.complete else inf

    def witness(self):
        """(i, j) attaining the regularity."""
        if not self.entries:
            return None
        r = self.regularity()
        return min((i, j) for (i, j) in self.entries if j - i == r)

    def to_json(self):
        ent = [[i, j, v] for (i, j), v in sorted(self.entries.items())]
        return {"entries": ent, "complete": self.complete}

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries


def betti_table(M, max_len=None):
    res = free_resolution(M, max_len=max_len)
    return BettiTable(res.betti(), res.complete)


def pd(M, max_len=None):
    """Projective dimension; +inf when the truncated resolution has not
    reached zero (a certified lower bound is the truncation length)."""
    return betti_table(M, max_len).projective_dimension()
