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

Over a polynomial ring the columns of d_i are the trace syzygies alone
for every i >= hi + 2, hi L's top spot (i >= 2 for a module).  Those
levels are a frame: by Schreyer's theorem the syzygies are a Groebner
basis already, in the Schreyer order that cmreg.groebner packs them in,
so they are resolved further with no Buchberger run and no
minimization.  A frame level stays that packed basis in the chain: its
twists are its elements' degrees, `_betti_twists` reads its constant
part off the packed terms (GroebnerBasis.module_constants), and
`_minimal_cols` decodes it (GroebnerBasis.module_vectors) only when cols
is first read, so the Betti numbers never decode a frame syzygy.  Over
a quotient ring every level adds I*F's columns, so every level takes
the Groebner step.

The finished chain is not minimized.  For any graded free resolution F,
over any standard graded ring,
beta_{i,j} = dim H_i(F (x) k)_j = f_{i,j} - rank c_{i,j} - rank c_{i+1,j},
where f_{i,j} counts F_i's generators of degree j and c_{i,j} is the
constant part of d_i between the degree-j parts of F_i and F_{i-1} (La
Scala and Stillman; Eroecal, Motsa, Schreyer and Steenpass, Refined
algorithms to compute syzygies, JSC 2016).  The constant parts form a
complex over the field, and minimizing it, Gaussian elimination with
scalars alone, removes exactly those ranks: the twists, and all that is
read off them, are that complex's.  The minimal differentials are the
chain minimized once, on the first read of FreeResolution.cols; every
level above the bottom is then sorted by degree, as its twists are.
The loop's bottom level is final as built: the loop minimizes d_{lo+1}
before its Groebner step, and a Groebner basis of columns with no unit
has no unit.

An empty level at or above L's top spot hi ends the loop: F is
complete.  Over a polynomial ring that happens by level hi + the number
of variables (Hilbert's syzygy theorem); the frame can run one level
longer, but a Betti number past it is an engine bug and raises.  F is
truncated at max_len (at least 1) levels past the bottom and then
flagged incomplete, unless the Betti numbers empty a level at or above
hi; its top level is cut down against the next level's columns, which
are then dropped.

`free_resolution` is the one way into the loop.  It takes a presented
module (the one-term complex at spot 0) or a bounded complex, and keeps
the result on that object; a complex of free modules needs no loop, as
it is its own chain, and its twists and cols are read the same way.
cmreg.complexes imports this module, so a complex is recognized by its
terms and diffs dicts, not by its class.  A FreeResolution keeps the
chain in the free-chain layout of cmreg.freemod, the dicts twists and
cols, keyed by spot, that the loop builds and minimize_chain and
free_complex_from_data read.
"""

from math import inf

from .freemod import FreeModule, vec_degree
from .groebner import GroebnerBasis, groebner_basis, syzygy_generators
from .memo import _cached
from .minimize import _find_unit, minimize_chain
from .modules import PresentedModule


class FreeResolution:
    """Chain ... <- F_i <- F_{i+1} <- ... in the free-chain layout, keyed
    by spot in ascending order: twists[i] is the twist tuple of F_i and
    cols[i] the columns of d_i : F_i -> F_{i-1}.  A module's resolution
    starts at spot 0.

    The twists are the minimal ones, read off `chain`, the unminimized
    (twists, cols) pair they come from; cols is that chain minimized on
    its first read, and the chain is then dropped."""

    __slots__ = ("ring", "twists", "complete", "_cols", "_chain")

    def __init__(self, ring, twists, complete, chain):
        self.ring = ring
        self.twists = twists
        self.complete = complete
        self._cols = None
        self._chain = chain

    @property
    def cols(self):
        if self._cols is None:
            self._cols = _minimal_cols(self.twists, *self._chain,
                                       self.ring.field)
            self._chain = None
        return self._cols

    @property
    def length(self):
        """The highest spot with a nonzero term, or 0 when there is none."""
        return max([0, *(i for i, tw in self.twists.items() if tw)])

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
    """A truncation length is None (the default) or a positive int."""
    if max_len is not None and max_len < 1:
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
    truncated as `_truncation` reads max_len.  The result is cached on
    obj; equal truncations share one entry.  The Betti numbers are read
    off an unminimized chain, which is minimized only when the
    differentials, cols, are first read (module docstring)."""
    check_max_len(max_len)
    if isinstance(obj, PresentedModule):
        terms, diffs, free = {0: obj}, {}, False
    elif (isinstance(getattr(obj, "terms", None), dict)
            and isinstance(getattr(obj, "diffs", None), dict)):
        # a BoundedComplex, whose terms all have positive rank; a complex of
        # free modules, the empty one included, needs no loop
        terms, diffs = obj.terms, obj.diffs
        free = all(not t.rel_cols for t in terms.values())
    else:
        raise TypeError("expected a presented module or a bounded complex")
    ring = obj.ring
    span = max(terms) - min(terms) if terms else 0
    max_len = _truncation(ring, span, max_len)
    return _cached(obj, ("resolution", max_len), lambda: FreeResolution(
        ring, *(_free_chain(ring, terms, diffs) if free
                else _resolve(ring, terms, diffs, max_len))))


def _free_chain(ring, terms, diffs):
    """(twists, True, chain) for a complex of free modules, which is its
    own chain: a level at every spot from its bottom to its top, empty
    where it has no term.  An unstored differential is zero, and the
    minimizer still needs a column list of the right length for it."""
    twists = {i: tuple(terms[i].gens_free.twists) if i in terms else ()
              for i in range(min(terms, default=0), max(terms, default=-1) + 1)}
    cols = {i: [dict(c) for c in diffs[i].cols] if i in diffs
            else [{} for _ in twists[i]]
            for i in twists if i - 1 in twists}
    return _betti_twists(twists, cols, ring), True, (twists, cols)


def _shift(vec, rows):
    return {(p + rows, m): c for (p, m), c in vec.items()}


def _cover_columns(ring, terms, diffs, n, rank, lift):
    """lift(d l_j) + e_j, e_j at row rank + j, per generator l_j of L_n."""
    d = diffs.get(n)
    one = (0,) * ring.nvars
    return [{**(lift(d.cols[j]) if d else {}), (rank + j, one): ring.field.one}
            for j in range(terms[n].rank if n in terms else 0)]


def _resolve(ring, terms, diffs, max_len):
    """(twists, complete, chain) of F for the complex L with these terms
    and differentials (module docstring): the minimal twists, read off
    chain, the unminimized (twists, cols) pair the loop builds."""
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
    complete = False
    while True:
        cols[level + 1] = nxt
        if level + 1 >= frame:
            # a frame level stays the packed basis of its syzygies
            twists[level + 1] = tuple(nxt.module_degrees())
        else:
            twists[level + 1] = tuple(vec_degree(v, rows(level + 1))
                                      for v in nxt)
        if level - lo >= max_len:
            break
        level += 1
        if level >= frame:
            # Schreyer: the trace syzygies are a Groebner basis already
            gb = cols[level]
        else:
            twists, cols, _ = minimize_chain(twists, cols, K)
            rank = len(twists[level - 1])
            rels = [_shift(c, rank) for c in terms[level].rel_cols] \
                if level in terms else []
            gb = groebner_basis(cols[level] + rels, ring,
                                FreeModule(ring, rows(level)))
            # d_level's map to L_level is no longer needed
            cols[level] = [{(p, m): c for (p, m), c in col.items() if p < rank}
                           for col in gb.module_vectors()]
            twists[level] = tuple(gb.module_degrees())
        if not twists[level] and level >= hi:
            # nothing is left to resolve
            del cols[level], twists[level]
            complete = True
            break
        _, nxt = syzygy_generators(gb)
        if level + 1 < frame:
            nxt = nxt.module_vectors()
            nxt += [v for v in map(gb.lift, rels) if v]
            nxt += _cover_columns(ring, terms, diffs, level + 1,
                                  len(cols[level]),
                                  lambda v: gb.lift(_shift(v, rank)))
    chain = (twists, cols)
    twists = _betti_twists(twists, cols, ring)
    if not complete:
        del twists[level + 1]
    # A frame level can be left with no Betti numbers.  Past an empty
    # level at or above hi every level is empty (Nakayama), and F is
    # complete.
    ends = [i for i, tw in twists.items() if not tw and i > lo and i >= hi]
    if ends:
        for i in range(min(ends), level + 2):
            twists.pop(i, None)
        complete = True
    if ring.is_polynomial and max(twists) > hi + ring.nvars:
        raise RuntimeError(
            f"resolution over a polynomial ring in {ring.nvars} "
            f"variables has generators at level {max(twists)}")
    return twists, complete, chain


def _betti_twists(twists, cols, ring):
    """The twists of the minimized chain, read off its constant part, a
    complex over the field (module docstring): minimizing that complex
    leaves f_{i,j} - rank c_{i,j} - rank c_{i+1,j} generators of degree j
    at each level.  Levels above the bottom come sorted by degree.  As
    in any chain, passenger rows are never pivots.  A frame level, a
    packed syzygy basis, gives its constant part without being decoded."""
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
    sorted by degree.  Frame levels are decoded here, once."""
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
    """Graded Betti numbers beta_{i,j}, Macaulay-style rendering."""

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

    def render(self):
        if not self.entries:
            return "(zero module)"
        # a complex can have entries at negative spots
        spots = range(min(0, *(i for (i, _) in self.entries)),
                      max(i for (i, _) in self.entries) + 1)
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, *(len(str(i)) for i in spots), 2)
        head = "  j-i | " + " ".join(f"{i:>{width}}" for i in spots)
        lines = [head, "  " + "-" * (len(head) - 2)]
        for r in rows:
            cells = []
            for i in spots:
                v = self.entries.get((i, r + i), 0)
                cells.append(f"{v if v else '.':>{width}}")
            lines.append(f"{r:>5} | " + " ".join(cells))
        if not self.complete:
            lines.append("  (truncated)")
        return "\n".join(lines)

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
