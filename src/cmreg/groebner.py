"""Buchberger's algorithm for graded submodules of free modules, with
syzygy extraction from reduction traces.

Everything runs position-over-grevlex over the polynomial cover S.  A
quotient ring R = S/I is handled by adjoining I's generators times each
free basis vector, so normal forms and syzygies computed here are already
the R-level ones (syzygy coordinates on the adjoined columns are dropped).

Determinism: input generators are sorted, the pair queue is keyed by
(lcm degree, generator indices), reducers are tried in canonical basis
order, and the reduced basis is sorted by (degree, lead term).

Reduction kernel: `_reduce` takes the next lead from a heap of pending
terms, each keyed once on entry by `_heap_key` (term_key negated), and
skips entries whose term has cancelled or was already processed (lazy
deletion; terms only shrink, so a processed term never returns).  This
follows Monagan and Pearce, Sparse polynomial division using a heap (JSC
2011).  Reducers are grouped by position once (`_reducers`), each group
in canonical order, so the first divisor found is still the leftmost and
the normal form and trace are those of a plain largest-term-first,
leftmost-reducer loop.  S-vectors come from one builder, `_s_vector`,
shared by Buchberger, `certify` and `syzygy_generators`.

The coprimality (product) criterion is only applied at rank one.  For
modules it is wrong: g1 = (x, y), g2 = (y^2, x) in R^2 have coprime lead
monomials in the same position but their S-vector (0, y^3 - x^2) does not
reduce to zero.  The chain criterion is valid at any rank.
"""

from heapq import heapify, heappop, heappush
from operator import le

from .freemod import FreeModule, term_key, vec_is_homogeneous
from .poly import (mono_deg, mono_div, mono_divides, mono_lcm, mono_mul,
                   Polynomial)


class GBElem:
    """A monic basis element with cached lead-term data."""

    __slots__ = ("vec", "pos", "ltm", "deg")

    def __init__(self, vec, pos, ltm, deg):
        self.vec = vec
        self.pos = pos
        self.ltm = ltm
        self.deg = deg


def _heap_key(t):
    """term_key negated: the smallest heap key is the largest term."""
    pos, m = t
    return (pos, -sum(m)) + m[::-1]


def _make_elem(vec, K, twists):
    t = min(vec, key=_heap_key)
    c = vec[t]
    if c != K.one:
        ci = K.inv(c)
        vec = {u: K.mul(cc, ci) for u, cc in vec.items()}
    pos, ltm = t
    return GBElem(vec, pos, ltm, mono_deg(ltm) + twists[pos])


def _tail(g):
    """g's terms other than its lead, as (position, monomial, coefficient)."""
    lead = (g.pos, g.ltm)
    return [(p, m, c) for (p, m), c in g.vec.items() if (p, m) != lead]


def _reducers(elems):
    """elems grouped by position, each group in list order, as
    (index, lead monomial, tail)."""
    groups = {}
    for i, g in enumerate(elems):
        groups.setdefault(g.pos, []).append((i, g.ltm, _tail(g)))
    return groups


def _reduce(vec, reducers, K, collect_trace=False):
    """Full normal form of vec against `_reducers(elems)` (leftmost reducer,
    largest term first).  Optionally records the quotients:
    vec = sum_i q_i elems[i] + r, as {i: {q: c}}."""
    rem = {}
    work = dict(vec)
    heap = [(_heap_key(t), t) for t in work]
    heapify(heap)
    trace = {} if collect_trace else None
    zero, mul, sub, is_zero = K.zero, K.mul, K.sub, K.is_zero
    while heap:
        t = heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            # lazy deletion: t cancelled, or was processed already
            continue
        pos, mono = t
        for i, ltm, tail in reducers.get(pos, ()):
            if all(map(le, ltm, mono)):
                break
        else:
            rem[t] = c
            continue
        q = mono_div(mono, ltm)
        # basis elements are monic, so the lead cancels against t exactly
        for p2, m2, c2 in tail:
            u = (p2, mono_mul(m2, q))
            w = work.get(u)
            if w is None:
                work[u] = sub(zero, mul(c, c2))
                heappush(heap, (_heap_key(u), u))
            else:
                s = sub(w, mul(c, c2))
                if is_zero(s):
                    del work[u]
                else:
                    work[u] = s
        if collect_trace:
            slot = trace.setdefault(i, {})
            s = K.add(slot.get(q, zero), c)
            if is_zero(s):
                slot.pop(q, None)
            else:
                slot[q] = s
    return rem, trace


def _s_vector(gi, gj, K):
    """S-vector m_i g_i - m_j g_j of two same-position monic elements,
    with m_i = lcm / lt(g_i).  Returns (s, m_i, m_j)."""
    lcm = mono_lcm(gi.ltm, gj.ltm)
    qi, qj = mono_div(lcm, gi.ltm), mono_div(lcm, gj.ltm)
    s = {(p, mono_mul(m, qi)): c for (p, m), c in gi.vec.items()}
    for (p, m), c in gj.vec.items():
        t = (p, mono_mul(m, qj))
        r = K.sub(s.get(t, K.zero), c)
        if K.is_zero(r):
            s.pop(t, None)
        else:
            s[t] = r
    return s, qi, qj


def _canonical_sort(elems):
    elems.sort(key=lambda g: (g.deg, term_key((g.pos, g.ltm))))
    return elems


def _interreduce(elems, K, twists):
    """Reduced basis: minimal lead terms, tails fully reduced, monic."""
    elems = _canonical_sort(list(elems))
    kept = []
    for i, g in enumerate(elems):
        redundant = False
        for j, h in enumerate(elems):
            if i == j or h.pos != g.pos or not mono_divides(h.ltm, g.ltm):
                continue
            if h.ltm == g.ltm and g.pos == h.pos:
                # duplicate lead terms: keep the earlier element only
                redundant = j < i
            else:
                redundant = True
            if redundant:
                break
        if not redundant:
            kept.append(g)
    groups = _reducers(kept)
    out = []
    for i, g in enumerate(kept):
        others = dict(groups)
        others[g.pos] = [e for e in groups[g.pos] if e[0] != i]
        r, _ = _reduce(g.vec, others, K)
        if r:
            out.append(_make_elem(r, K, twists))
    return _canonical_sort(out)


def _buchberger(gens, K, twists, use_product_criterion):
    basis = []
    for v in gens:
        if v:
            basis.append(_make_elem(v, K, twists))
    _canonical_sort(basis)
    reducers = _reducers(basis)

    heap = []
    pending = set()

    def push_pairs(j):
        g = basis[j]
        for i, ltm, _ in reducers[g.pos]:
            if i == j:
                break
            d = mono_deg(mono_lcm(ltm, g.ltm)) + twists[g.pos]
            heappush(heap, (d, i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        d, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        gi, gj = basis[i], basis[j]
        lcm = mono_lcm(gi.ltm, gj.ltm)
        if use_product_criterion and mono_deg(lcm) == mono_deg(gi.ltm) + mono_deg(gj.ltm):
            continue
        skip = False
        for k, ltm, _ in reducers[gi.pos]:
            if k == i or k == j:
                continue
            if mono_divides(ltm, lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s, _, _ = _s_vector(gi, gj, K)
        r, _ = _reduce(s, reducers, K)
        if r:
            g = _make_elem(r, K, twists)
            basis.append(g)
            reducers.setdefault(g.pos, []).append((len(basis) - 1, g.ltm, _tail(g)))
            push_pairs(len(basis) - 1)

    return _interreduce(basis, K, twists)


def defining_gb(ring):
    """Reduced rank-one basis of the defining ideal over the cover (cached)."""
    if ring.is_polynomial:
        return []
    cached = ring._cache.get("defining_gb")
    if cached is None:
        K = ring.field
        gens = [{(0, m): c for m, c in f.terms.items()} for f in ring.defining]
        cached = _buchberger(gens, K, (0,), True)
        ring._cache["defining_gb"] = cached
    return cached


def _augmented_columns(ring, free):
    """The defining ideal times each free basis vector, as GBElems."""
    out = []
    for f in defining_gb(ring):
        (_, ltm) = (f.pos, f.ltm)
        for p in range(free.rank):
            vec = {(p, m): c for (_, m), c in f.vec.items()}
            out.append(GBElem(vec, p, ltm, mono_deg(ltm) + free.twists[p]))
    return out


class GroebnerBasis:
    """Reduced basis of a graded submodule (plus the quotient's defining
    columns when the ring is S/I).  `elements` is the full reducer list;
    `module_elements` are the members not lying in I*F."""

    __slots__ = ("ring", "free", "elements", "module_indices", "_groups")

    def __init__(self, ring, free, elements, module_indices):
        self.ring = ring
        self.free = free
        self.elements = elements
        self.module_indices = module_indices
        self._groups = None

    @property
    def module_elements(self):
        return [self.elements[i] for i in self.module_indices]

    def module_vectors(self):
        return [dict(self.elements[i].vec) for i in self.module_indices]

    def module_degrees(self):
        return [self.elements[i].deg for i in self.module_indices]

    def normal_form(self, vec):
        if self._groups is None:
            self._groups = _reducers(self.elements)
        r, _ = _reduce(vec, self._groups, self.ring.field)
        return r

    def contains(self, vec):
        return not self.normal_form(vec)

    def is_zero_module(self):
        """True when the submodule is contained in I*F (zero over R)."""
        return not self.module_indices


def groebner_basis(vectors, ring, free):
    """Reduced Groebner basis of the submodule of `free` generated by
    `vectors`, over `ring` (augmented through the cover for quotients)."""
    K = ring.field
    gens = [dict(v) for v in vectors if v]
    for v in gens:
        if not vec_is_homogeneous(v, free.twists):
            raise ValueError("submodule generator is not homogeneous")
    aug = _augmented_columns(ring, free)
    elems = _buchberger(gens + [dict(a.vec) for a in aug], K, free.twists,
                        free.rank == 1)
    if ring.is_polynomial:
        module_indices = list(range(len(elems)))
    else:
        blockers = _reducers(_augmented_columns(ring, free))
        module_indices = []
        for i, g in enumerate(elems):
            r, _ = _reduce(g.vec, blockers, K)
            if r:
                module_indices.append(i)
    return GroebnerBasis(ring, free, elems, module_indices)


def reduce_poly_mod_defining(ring, f):
    vec = {(0, m): c for m, c in f.terms.items()}
    r, _ = _reduce(vec, _reducers(defining_gb(ring)), ring.field)
    return Polynomial(ring, {m: c for (_, m), c in r.items()})


def certify(gb):
    """Re-reduce every S-pair of the final basis; True when all vanish."""
    elems = gb.elements
    K = gb.ring.field
    reducers = _reducers(elems)
    for j in range(len(elems)):
        for i in range(j):
            if elems[i].pos != elems[j].pos:
                continue
            s, _, _ = _s_vector(elems[i], elems[j], K)
            r, _ = _reduce(s, reducers, K)
            if r:
                return False
    return True


def syzygy_generators(gb):
    """Generators of the syzygy module of gb's module elements over the
    ring, from reduction traces of all S-pairs.

    The reducer list is module elements followed by defining-ideal columns;
    that list is a (non-reduced) Groebner basis of the preimage submodule,
    so trace syzygies generate all syzygies, and dropping the coordinates
    of the defining columns yields generators over R.

    Returns (vectors, free module on the element degrees).
    """
    K = gb.ring.field
    mod = gb.module_elements
    ext = list(mod) + _augmented_columns(gb.ring, gb.free)
    reducers = _reducers(ext)
    n_mod = len(mod)
    twists = tuple(g.deg for g in mod)
    F = FreeModule(gb.ring, twists)
    out = []
    for j in range(len(ext)):
        for i in range(j):
            if ext[i].pos != ext[j].pos:
                continue
            s, qi, qj = _s_vector(ext[i], ext[j], K)
            r, trace = _reduce(s, reducers, K, collect_trace=True)
            if r:
                raise ArithmeticError("S-pair of a Groebner basis did not reduce to zero")
            syz = {}
            if i < n_mod:
                syz[(i, qi)] = K.one
            if j < n_mod:
                t = (j, qj)
                syz[t] = K.sub(syz.get(t, K.zero), K.one)
                if K.is_zero(syz[t]):
                    del syz[t]
            for k, quot in trace.items():
                if k >= n_mod:
                    continue
                for q, c in quot.items():
                    t = (k, q)
                    s2 = K.sub(syz.get(t, K.zero), c)
                    if K.is_zero(s2):
                        syz.pop(t, None)
                    else:
                        syz[t] = s2
            if syz:
                out.append(syz)
    # canonical order and no duplicates
    seen = set()
    uniq = []
    for v in sorted(out, key=lambda v: (len(v), sorted(map(term_key, v)))):
        key = frozenset(v.items())
        if key not in seen:
            seen.add(key)
            uniq.append(v)
    return uniq, F


def ideal_groebner_basis(ring, polys):
    """Reduced basis of an ideal's preimage in the cover, as polynomials
    (canonical form used for ideal equality tests)."""
    cover = ring.cover
    gens = []
    for f in list(ring.defining) + [ring.lift(p) for p in polys]:
        gens.append({(0, m): c for m, c in f.terms.items()})
    elems = _buchberger(gens, ring.field, (0,), True)
    return [Polynomial(cover, {m: c for (_, m), c in g.vec.items()}) for g in elems]
