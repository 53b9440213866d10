"""Minimal graded free resolutions by iterated syzygies.

Each level replaces the current differential's columns by their reduced
Groebner basis, extracts trace syzygies for the next differential, then
sweeps unit elimination over the whole chain.  The sweep keeps every level
minimal as it is built, so over a polynomial ring the loop provably stops
at the projective dimension, at most the number of variables (Hilbert's
syzygy theorem); a generator past that level is an engine bug and raises.
Over any ring the resolution is truncated at max_len, and a truncated
resolution is flagged incomplete: over a quotient ring it may be infinite,
and over a polynomial ring max_len may lie below the projective dimension
(a max_len of at least the number of variables gives the full resolution).
The top level of a truncation is minimized too, against its syzygies in
its generators' degrees, which are then dropped.  max_len must be at least
1.

A FreeResolution keeps the chain in the free-chain layout of
cmreg.freemod, the dicts twists and cols that the loop builds and
minimize_chain and free_complex_from_data read.
"""

from math import inf

from .freemod import FreeModule, vec_degree
from .groebner import groebner_basis, syzygy_generators
from .memo import _cached
from .minimize import _find_unit, minimize_chain


class FreeResolution:
    """Chain F_0 <- F_1 <- ... <- F_length in the free-chain layout:
    twists[i] is the twist tuple of F_i (i = 0..length) and cols[i] the
    columns of d_i : F_i -> F_{i-1} (i = 1..length)."""

    __slots__ = ("ring", "twists", "cols", "complete")

    def __init__(self, ring, twists, cols, complete):
        self.ring = ring
        self.twists = twists
        self.cols = cols
        self.complete = complete

    @property
    def length(self):
        return len(self.cols)

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


def free_resolution(M, max_len=None):
    """Minimal free resolution of a presented module over its own ring."""
    check_max_len(max_len)
    ring = M.ring
    if ring.is_polynomial:
        # nothing lies past level nvars, so a max_len of nvars or more asks
        # for the full resolution and shares its cache entry
        if max_len is None or max_len >= ring.nvars:
            max_len = ring.nvars + 1
    elif max_len is None:
        max_len = 2 * ring.nvars + 4
    return _cached(M, ("resolution", max_len), lambda: _resolve(M, max_len))


def _resolve(M, max_len):
    ring = M.ring
    K = ring.field
    Mmin = M.minimized()
    f0 = Mmin.gens_free
    if f0.rank == 0 or not Mmin.rel_cols:
        return FreeResolution(ring, {0: tuple(f0.twists)}, {}, True)

    twists = {0: tuple(f0.twists)}
    cols = {}
    current = groebner_basis(Mmin.rel_cols, ring, f0)
    level = 0
    complete = False
    while True:
        level += 1
        vecs = current.module_vectors()
        if not vecs:
            # the syzygies stored at this level are zero over the ring
            cols.pop(level, None)
            twists.pop(level, None)
            complete = True
            break
        if ring.is_polynomial and level > ring.nvars:
            raise RuntimeError(
                f"resolution over a polynomial ring in {ring.nvars} variables "
                f"has generators at level {level}")
        cols[level] = vecs
        twists[level] = tuple(current.module_degrees())
        top = level >= max_len
        # A Groebner basis need not generate minimally.  At the top level
        # only syzygies in the degree of some generator can carry a unit,
        # so those are the only ones computed there.
        syz, _ = syzygy_generators(current, set(twists[level]) if top else None)
        if syz:
            degs = [vec_degree(v, twists[level]) for v in syz]
            cols[level + 1] = syz
            twists[level + 1] = tuple(degs)
        if top:
            if syz:
                twists, cols, _ = minimize_chain(twists, cols, K)
                del cols[level + 1], twists[level + 1]
            break
        twists, cols, _ = minimize_chain(twists, cols, K)
        nxt = cols.get(level + 1)
        if nxt is not None and not any(nxt):
            del cols[level + 1]
            twists.pop(level + 1, None)
            nxt = None
        if nxt is None:
            # chain became exact on top after the sweep
            if level in cols and not any(cols[level]):
                del cols[level]
                twists.pop(level, None)
            complete = True
            break
        # columns of d_{level+1} live in F_level
        current = groebner_basis(cols[level + 1], ring,
                                 FreeModule(ring, twists[level]))
    return FreeResolution(ring, twists, cols, complete)


class BettiTable:
    """Graded Betti numbers beta_{i,j}, Macaulay-style rendering."""

    __slots__ = ("entries", "complete", "ring_repr")

    def __init__(self, entries, complete, ring_repr=""):
        self.entries = {k: v for k, v in entries.items() if v}
        self.complete = complete
        self.ring_repr = ring_repr

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
        imax = max(i for (i, _) in self.entries)
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(imax)), 2)
        head = "  j-i | " + " ".join(f"{i:>{width}}" for i in range(imax + 1))
        lines = [head, "  " + "-" * (len(head) - 2)]
        for r in rows:
            cells = []
            for i in range(imax + 1):
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
    return BettiTable(res.betti(), res.complete, repr(M.ring))


def pd(M, max_len=None):
    """Projective dimension; +inf when the truncated resolution has not
    reached zero (a certified lower bound is the truncation length)."""
    if M.is_zero():
        return -inf
    res = free_resolution(M, max_len=max_len)
    if res.complete:
        return res.length
    return inf
