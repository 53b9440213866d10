"""Buchberger's algorithm for graded submodules of free modules, with
syzygy extraction from reduction traces.

Buchberger runs position-over-grevlex over the polynomial cover S.  A
quotient ring R = S/I is handled by adjoining I's generators times each
free basis vector, so normal forms and syzygies computed here are already
the R-level ones (syzygy coordinates on the adjoined columns are dropped).
Syzygies come packed in the Schreyer order their basis induces, in which
they are a Groebner basis again (see Pair selection).

Determinism: input generators are sorted, the pair queue is keyed by
(lcm degree, generator indices), reducers are tried in canonical basis
order, and the reduced basis is sorted by (degree, lead term).

Packed terms: inside this module a term m e_c of a free module over an
n-variable ring is one int

    h = ((bases[c] + h0(m) - h0(1)) << W) + c,    W = _INDEX_BITS,

with h0 the level-0 code of a monomial,

    h0(m) = (2^40 - 1 - deg m) * 2^B + word(m),

word(m) the exponent word of m in B = 32 n bits (cmreg.poly.Words: a
32-bit field per variable, 16 exponent bits under 16 guard bits), and
bases[c] the level-0 term of e_c.  A smaller h is the larger term in
the order that compares level-0 terms bases[c] + h0(m) - h0(1) first
(a smaller one is larger, grevlex within a degree) and breaks ties by the
smaller position.  One class, `_Packing`, holds this layout, and a
packing is a choice of bases:

- position over grevlex (`_packing`, one shared packing per variable
  count): bases[c] = c * 2^A + h0(1), A = B + 40, so the position is
  compared first; this is the term order of cmreg.freemod.  Its bases
  cover every position a caller has asked for, so a term of a free module
  is the same int in any larger one (seeded runs, direct sums, tags,
  lifts).
- the Schreyer order of elements g_1..g_s (`_Packing.schreyer`): bases[c]
  = lead(g_c) >> W, the level-0 term of g_c's lead, so m e_c compares as
  m lt(g_c) and ties go to the smaller index.  The same holds one level
  up, with g_c in F_1, provided the elements are numbered in lead-index
  order: two terms of F_2 with equal level-0 terms then compare by the
  F_1 index of their leads exactly when they compare by their own index
  (`_syzygy_basis`).

Then, in every packing:

- a smaller h is the larger term, so the heap in `_reduce_packed` holds
  plain ints, and the position of h is h & M, M = 2^W - 1;
- h is linear in m: h(m q e_c) = h(m e_c) + ((h0(q) - h0(1)) << W), so a
  basis element's tail is stored as offsets h(tail term) - h(lead), each
  product term costs one int addition, and an offset within a position is
  a multiple of 2^W;
- lead | t (same position) exactly when ((t - h_lead) & G) == 0, G the
  mask of all guard bits, shifted up by W: a field that goes negative
  borrows and sets its guard bits, and exponents below 2^16 never carry
  into them;
- an exponent above EXPONENT_CAP is u & G != 0.  That is checked on every
  new product term in `_reduce_packed` and in `_s_vector`, and on every
  encoded input term, with the OverflowError of `poly.mono_mul`.

Only `_Packing` knows the layout of a packed term, and only `Words`,
which `_Packing` extends, the layout of the exponent word inside it:
field width, guard mask and degree multiply.  The Hilbert layer's
numerator recursion reads the same `Words` (cmreg.hilbert), so a lead's
word goes to it as the element keeps it.  Every other function reads a
term's position as h & M, and a lead's exponent word (`word`), a pair's
packed lcm (`pair`, on `Words.lcm`) and a basis vector's head (`head`)
through the packing.  So one kernel,
`_reduce_packed`, with one `_s_vector`, `_schreyer_pairs` and
`_buchberger`, serves every order.

A basis element has one form, a GBElem: its packed lead, whose
coefficient is the field's one (every element is monic), and its tail,
a tuple of offsets (h - lead, c) over its other terms.  It keeps its
lead's exponent word, read off the lead once where it is made, and its
degree, read off the word (`Words.degree`); the two pair selections and
the lead-index sort read the word from the element, and only the decoder
turns a word into a monomial.  Every reader
takes that form as it is: the reduction kernel walks the tail, an
S-vector adds two tails at the packed lcm, interreduction reduces the
tail, and a block shift moves the lead alone and shares the tail, since
an offset does not change when every term moves by one offset.  Only its
basis, which knows the packing, decodes an element
(`GroebnerBasis.module_vectors`, lead then tail, into tuple dicts
{(pos, m): c}): Buchberger never decodes, and a resolution decodes a
frame only when its differentials are read (cmreg.resolution).  `_reduce`,
`GroebnerBasis.normal_form` and `lift` take and return tuple dicts.

Reduction kernel: `_reduce_packed` takes the next lead from a heap of
pending terms and skips entries whose term has cancelled or was already
processed (lazy deletion; terms only shrink, so a processed term never
returns).  This follows Monagan and Pearce, Sparse polynomial division
using a heap (JSC 2011).  Reducers are grouped by position once
(`_reducers`), each group in canonical order and each reducer with its
element's own tail, so the first divisor found is still the leftmost
and the normal form and trace are those of a plain largest-term-first,
leftmost-reducer loop.  S-vectors come from one builder, `_s_vector`,
shared by Buchberger, `certify` and the syzygies.

The kernel is one loop for every field, its coefficient arithmetic
written with operators, as in every layer (cmreg.scalars): with p the
characteristic, a reducer step negates its multiplier once (p - c, or -c
over QQ), each product term is s = w + (-c) c2, reduced s %= p only when
p is nonzero, and `if s` tests for zero, which holds for ints and
Fractions alike.  So s is w - c c2 in the field, reduced into [0, p)
over GF(p).

The trace has one form, one flat dict.  Given a head per reducer, the
packed basis vector its quotient is written on, the kernel records each
negated quotient term -c q as the packed term heads[i] + d, d = h(q t) -
h(t) the offset of q: an offset is a multiple of 2^W, so that is q e_i in
the head's own packing.  A syzygy step gives Schreyer-packed heads, a
lift e_k in position over grevlex, and a reducer whose quotient is not
wanted (a defining column) has no head.  Each term is reduced at most
once, so the trace records each (reducer, quotient term) once and never
adds; the heads lie in distinct positions, so no two reducers' terms
meet, and the dict is the vector sum_i -q_i heads[i] as it stands, its
terms in the order they were reduced.

Pair selection (`_schreyer_pairs`): order syzygies by the Schreyer order
of a basis g_1..g_s, m e_i > m' e_j when m lt(g_i) > m' lt(g_j), or the
two are equal and i < j.  For a Groebner basis the trace syzygy tau_ij of
the S-pair (i, j), i < j, has lead term (lcm_ij / lt(g_i)) e_i, since
every quotient of the reduction sits below the lcm; and the tau_ij form a
Groebner basis of the syzygy module (Schreyer's theorem; La Scala and
Stillman, Strategies for computing minimal free resolutions, JSC 1998;
Eroecal, Motsa, Schreyer and Steenpass, Refined algorithms to compute
syzygies, JSC 2016).  A subset of a Groebner basis whose lead terms still
generate the lead module is a Groebner basis too, so for each i only the
pairs whose lcm_ij is minimal under divisibility among the lcm_ik, k > i,
are reduced, and they still generate all syzygies.  The lead-term
syzygies of the same pairs generate the syzygies of the lead terms, which
is all Buchberger's criterion asks, so `certify` checks the same pairs.
`syzygy_generators` returns the selected tau_ij as a GroebnerBasis in the
Schreyer packing, and can take that basis again: a resolution over S
needs Buchberger only where its columns are more than syzygies
(cmreg.resolution).

A syzygy is written straight into the Schreyer packing as its S-pair
reduces: with each module element's e_k packed in that order as its
head, the trace holds -sum_k q_k e_k, so the one tail routine
(`_syzygy_tail`) only adds -m_j e_j: the element's lead is its known
Schreyer lead m_i e_i, whose coefficient is one, and the trace, then
-m_j e_j, is its tail.  No two of these terms meet, since every q_k
lt(g_k) lies below the lcm, and a trace term at or above the lead
raises.  A pair's lcm is taken on the
leads' exponent words, field by field, and packed by linearity as
head(p) + ((lcm - (deg lcm << B)) << W) in position p, with no tuple per
pair (`_Packing.pair`, which `_buchberger` shares).  There is no degree
filter: a truncated resolution's top step takes every selected pair too.
A pair of two defining columns of a quotient ring is not reduced at all
(`syzygy_generators` has the proof), so every kept pair (i, j) has a
module element i and its own Schreyer lead: no syzygy repeats, over any
ring.

Reuse: a Buchberger run can start from a known Groebner basis
(`_buchberger`'s `known`; the homology layer seeds each cokernel's basis
with its target's, and the module path each tagged relation run with the
basis it holds on the leading positions, cmreg.modules).  The known
elements get no pair update of their own, so only pairs that involve a
new element are ever queued.  A direct sum's basis is its summands'
bases side by side (`direct_sum_basis`), since position-over-term order
never compares two blocks: each block element is moved by its lead
alone, and shares its tail with the block's own element (`_moved`).

Reduction on read: `_buchberger` returns the basis its loop completed,
with redundant leads and unreduced tails, and a GroebnerBasis from
`groebner_basis` interreduces it on the first read of `elements`,
`module_elements`, `module_indices`, `module_leads` or the reducer groups
(normal forms, lifts), which every seeded run, syzygy step, kernel and
membership test does.  A Hilbert series reads the leads' words alone
(`lead_words`): by Macaulay's theorem HS(F/U) = HS(F/in(U)), and the
leads of any Groebner basis of U generate in(U), so redundant leads
change nothing once `hilbert._minimalize` drops them.  The homology
layer's cokernel bases are read for their series only, so they are never
reduced.  Whoever reads a basis gets the same reduced basis as an eager
reduction would give; `defining_gb` reduces its own at once.

A frame from `syzygy_generators` knows each syzygy's lead, position and
degree before any S-pair is reduced, and its tails are reduced on read
too, in the degrees the read selects (`GroebnerBasis._complete`): the
leads, the degrees and the next step's pairs never need a tail, and a
constant term c e_p of a homogeneous syzygy has the degree of e_p, so
`module_constants` completes only the syzygies whose degree is a twist
of their free module.  A read that reduces a tail completes the level
below whole first, so every tail comes from the same reduction against
the same complete reducers, whichever read asks for it first.

Pair update (`_buchberger`; Gebauer and Moeller, On an installation of
Buchberger's algorithm, JSC 1988): each new basis element t updates the
pairs once when it joins the basis, on lcms from the Schreyer pairs'
formula, in either packing.  B_k drops a pending pair whose lcm lt(t)
divides, unless t's lcm with either member equals it; M drops a new
pair whose lcm another new lcm properly divides, and F keeps one of
equal new lcms, a coprime pair first.  B_k, M and F are forms of the
chain criterion, which is valid at any rank.  The coprimality (product)
criterion comes last and at rank one (one twist) only: a coprime pair
is never reduced, but through M and F it has already removed the pairs
it dominates.  For modules it is wrong: g1 = (x, y), g2 = (y^2, x) in
R^2 have coprime lead monomials in the same position but their S-vector
(0, y^3 - x^2) does not reduce to zero.
"""

from heapq import heapify, heappop, heappush

from .freemod import FreeModule, vec_is_homogeneous
from .memo import _cached
from .poly import _OVERFLOW, Polynomial, Words

_DEG_TOP = (1 << 40) - 1
_INDEX_BITS = 32  # W: room for a term's position below its level-0 term


class _Packing(Words):
    """Encoder and decoder of the packed terms of one free module over a
    ring of nvars variables: m e_c packs as ((bases[c] + h0(m) - h0(1))
    << W) + c, bases[c] the level-0 term of e_c (module docstring).  The
    exponent fields are the words of `Words`, whose operations it has."""

    __slots__ = ("A", "G", "one", "bases")
    M = (1 << _INDEX_BITS) - 1

    def __init__(self, nvars, bases):
        super().__init__(nvars)
        self.A = self.B + 40
        self.G = self.guard << _INDEX_BITS
        self.one = _DEG_TOP << self.B  # h0(1)
        self.bases = bases

    def grow(self, rank):
        """Extend position-over-grevlex bases to rank positions: e_c's
        level-0 term is c * 2^A + h0(1)."""
        bases = self.bases
        if len(bases) >= rank:
            return
        bases += [(c << self.A) + self.one for c in range(len(bases), rank)]

    def schreyer(self, leads):
        """The packing of the Schreyer order that elements with these
        packed leads induce on the free module with one basis vector e_c
        per element: e_c's level-0 term is lead c's."""
        return _Packing(self.nvars, [lead >> _INDEX_BITS for lead in leads])

    def encode(self, c, m):
        e = self.pack(m)
        h0 = self.bases[c] + e - (sum(m) << self.B)
        if h0 & self.guard:
            raise OverflowError(_OVERFLOW)
        return (h0 << _INDEX_BITS) + c

    def encode_vec(self, vec):
        return {self.encode(p, m): c for (p, m), c in vec.items()}

    def word(self, h):
        """The exponent word of h's monomial: its packed exponent fields."""
        return ((h >> _INDEX_BITS) - self.bases[h & self.M]) & self.emask

    def mono(self, h):
        """The monomial of h."""
        return self.monomial(self.word(h))

    def decode_vec(self, terms):
        """The tuple dict {(position, monomial): c} of packed (h, c) pairs."""
        M, mono = self.M, self.mono
        return {(h & M, mono(h)): c for h, c in terms}

    def head(self, c):
        """The packed basis vector e_c."""
        return (self.bases[c] << _INDEX_BITS) + c

    def pair(self, head, ea, eb):
        """(degree, exponent word, packed term in head's position) of the
        lcm of two monomials given by their exponent words (`word`), the
        one pair formula (module docstring); as the lcm of two terms of
        that position, the term is within the cap."""
        d, lcm = self.lcm(ea, eb)
        return d, lcm, head + ((lcm - (d << self.B)) << _INDEX_BITS)


_PACKINGS = {}


def _packing(nvars, rank):
    """The shared position-over-grevlex packing of nvars variables, its
    bases covering at least positions 0..rank - 1."""
    P = _PACKINGS.get(nvars)
    if P is None:
        P = _PACKINGS[nvars] = _Packing(nvars, [])
    P.grow(rank)
    return P


class GBElem:
    """A monic basis element in its one form: the packed lead, whose
    coefficient is the field's one, and the tail, an immutable tuple of
    offsets (h - lead, c) over the other packed terms h, with cached
    lead-term data: the position, the lead's exponent word (`word`,
    which both pair selections read) and the degree, read off the word
    (`Words.degree`).  The word is read off the lead once, where the
    element is made (`_elem`, `syzygy_generators`); a moved or reduced
    element shares it.  A frame syzygy's tail is None until its basis
    reads it (`GroebnerBasis`).  Decoded by its basis alone (module
    docstring)."""

    __slots__ = ("lead", "tail", "pos", "word", "deg")

    def __init__(self, lead, tail, pos, word, deg):
        self.lead = lead
        self.tail = tail
        self.pos = pos
        self.word = word
        self.deg = deg

    def items(self, one):
        """The packed terms as (h, c) pairs, lead first with coefficient
        `one`, the field's one."""
        lead = self.lead
        return [(lead, one)] + [(lead + off, c) for off, c in self.tail]


def _elem(terms, K, twists, P):
    """A monic GBElem from nonzero packed terms {h: c} in packing P, its
    tail in the terms' order."""
    lead = min(terms)
    c = terms[lead]
    if c != K.one:
        ci, p = K.inv(c), K.characteristic
        tail = tuple([(h - lead, cc * ci % p if p else cc * ci)
                      for h, cc in terms.items() if h != lead])
    else:
        tail = tuple([(h - lead, cc) for h, cc in terms.items() if h != lead])
    pos = lead & P.M
    word = P.word(lead)
    return GBElem(lead, tail, pos, word, P.degree(word) + twists[pos])


def _reducer(i, g):
    """(index, packed lead, tail offsets ((h - lead, c), ...)) of element i."""
    return i, g.lead, g.tail


def _reducers(elems):
    """elems grouped by position, each group in list order, as `_reducer`s."""
    groups = {}
    for i, g in enumerate(elems):
        groups.setdefault(g.pos, []).append(_reducer(i, g))
    return groups


def _reduce_packed(work, reducers, K, P, heads=None):
    """Full normal form r of the packed vector `work` (consumed) against
    `_reducers(elems)`, largest term first, leftmost reducer: work =
    sum_i q_i elems[i] + r.  Returns (r, trace).

    With `heads`, each element's packed basis vector (None for one whose
    quotient is not wanted), in distinct positions, the trace is the one
    flat dict {heads[i] + d: -c} of the packed terms of sum_i -q_i
    heads[i], where c q is a quotient term and d = h(q t) - h(t) its
    offset, a multiple of 2^W; the terms come in the order they were
    reduced.  Without heads the trace is None (module docstring, The
    trace has one form)."""
    rem = {}
    heap = list(work)
    heapify(heap)
    trace = None if heads is None else {}
    p = K.characteristic
    M, G = P.M, P.G
    while heap:
        h = heappop(heap)
        c = work.pop(h, None)
        if c is None:
            # lazy deletion: h cancelled, or was processed already
            continue
        for i, lead, tail in reducers.get(h & M, ()):
            d = h - lead
            if not d & G:
                break
        else:
            rem[h] = c
            continue
        # basis elements are monic, so the lead cancels against h exactly
        nc = p - c if p else -c
        for off, c2 in tail:
            u = h + off
            w = work.get(u)
            if w is None:
                # a term above the cap is never in work, so it lands here
                if u & G:
                    raise OverflowError(_OVERFLOW)
                s = nc * c2
                if p:
                    s %= p
                work[u] = s
                heappush(heap, u)
            else:
                s = w + nc * c2
                if p:
                    s %= p
                if s:
                    work[u] = s
                else:
                    del work[u]
        # each h is reduced once, so (i, d) is never recorded twice, and
        # the heads' positions keep two reducers' terms apart
        if heads is not None and heads[i] is not None:
            trace[heads[i] + d] = nc
    return rem, trace


def _reduce(vec, reducers, K, P, heads=None):
    """Full normal form r of the tuple-dict vec against `_reducers(elems)`
    in the elements' packing P (`_reduce_packed`), decoded.  Returns (r,
    trace): with `heads`, in distinct positions, the trace is the one
    vector sum_i -q_i heads[i], decoded; without, it is None."""
    rem, trace = _reduce_packed(P.encode_vec(vec), reducers, K, P, heads)
    if trace is not None:
        trace = P.decode_vec(trace.items())
    return P.decode_vec(rem.items()), trace


def _s_vector(gi, gj, hl, K, G):
    """S-vector m_i g_i - m_j g_j of two same-position monic elements, with
    m_i = lcm / lt(g_i) and hl the packed lcm: the two leads cancel at hl,
    and a tail term at offset d lands on hl + d.  Returns (s, d_i, d_j),
    d_i = hl - lead_i the packed offset of m_i."""
    s = {}
    for off, c in gi.tail:
        u = hl + off
        if u & G:
            raise OverflowError(_OVERFLOW)
        s[u] = c
    p = K.characteristic
    for off, c in gj.tail:
        u = hl + off
        if u & G:
            raise OverflowError(_OVERFLOW)
        r = s.get(u, 0) - c
        if p:
            r %= p
        if r:
            s[u] = r
        else:
            del s[u]
    return s, hl - gi.lead, hl - gj.lead


def _canonical_sort(elems):
    # a larger term has a smaller packed lead
    elems.sort(key=lambda g: (g.deg, -g.lead))
    return elems


def _interreduce(elems, K, P):
    """Reduced basis: minimal lead terms, tails fully reduced, monic, in
    canonical order.

    An element is redundant when another one of its position group has a
    lead dividing its own; of equal leads the earlier element is kept.
    A kept element's tail is reduced against the kept elements, itself
    included: a lead divides no smaller term, so it never reduces its own
    tail.  Leads and degrees stay, and so does the canonical order; a
    reduced tail is in decreasing term order."""
    elems = _canonical_sort(list(elems))
    G = P.G
    groups = _reducers(elems)
    keep = [True] * len(elems)
    for group in groups.values():
        for i, lead, _ in group:
            for j, other, _ in group:
                if (i != j and not (lead - other) & G
                        and (other != lead or j < i)):
                    keep[i] = False
                    break
    groups = {p: [e for e in group if keep[e[0]]]
              for p, group in groups.items()}
    out = []
    for i, g in enumerate(elems):
        if keep[i]:
            lead = g.lead
            r, _ = _reduce_packed({lead + off: c for off, c in g.tail},
                                  groups, K, P)
            tail = tuple([(h - lead, c) for h, c in r.items()])
            out.append(GBElem(lead, tail, g.pos, g.word, g.deg))
    return out


def _buchberger(gens, K, twists, P, known=()):
    """A Groebner basis, not reduced, of the packed generators `gens`
    together with `known`, GBElems that already form a Groebner basis:
    `known` first, then the generators in canonical order, then every
    S-vector remainder in the order it was found, all in packing P.

    Pairs follow the Gebauer-Moeller update (module docstring), run once
    for each generator and each remainder t as it joins the basis, on
    the packed lcm of lt(t) with each earlier lead of its position
    (`pair`).  Then:

    - B_k: a pending pair (i, j) of t's position is dropped when lt(t)
      divides its lcm, unless lcm(i, t) or lcm(j, t) equals that lcm;
    - M and F: the new pairs are taken by (lcm degree, not coprime, i),
      and one is kept only when no lcm kept before it divides its own;
      equal lcms divide;
    - product criterion, at rank one only (one twist): a kept coprime
      pair is not queued.

    A known element gets no update, so a pair of two of them is never
    pending: its S-vector reduces to zero already, which is all B_k and
    M ask of a pair that is not pending.  The queue is a heap of (lcm
    degree + twist, i, j) over {(i, j): hl} per position, so runs are
    deterministic; a popped pair that B_k dropped is skipped, and any
    other builds its S-vector from its stored hl."""
    basis = list(known)
    basis += _canonical_sort([_elem(v, K, twists, P) for v in gens if v])
    reducers = _reducers(basis)
    G, pair = P.G, P.pair
    heap = []
    pending = {}  # position -> {(i, j): packed lcm}
    t = len(known)
    while True:
        while t < len(basis):
            g = basis[t]
            pos, lt, et, head = g.pos, g.lead, g.word, P.head(g.pos)
            lcms = {}
            cands = []
            for i, _, _ in reducers[pos]:
                if i == t:
                    break
                ei = basis[i].word
                d, lcm, hl = pair(head, ei, et)
                lcms[i] = hl
                # lcm = e_i + e_t exactly when the leads are coprime
                cands.append((d, lcm != ei + et, i, hl))
            pend = pending.setdefault(pos, {})
            if pend:  # B_k
                dead = [ij for ij, hl in pend.items()
                        if not (hl - lt) & G and hl != lcms[ij[0]]
                        and hl != lcms[ij[1]]]
                for ij in dead:
                    del pend[ij]
            cands.sort()  # M and F, then the product criterion
            kept = []
            twist = twists[pos]
            for d, shared, i, hl in cands:
                for k in kept:
                    if not (hl - k) & G:
                        break
                else:
                    kept.append(hl)
                    if shared or len(twists) > 1:
                        pend[i, t] = hl
                        heappush(heap, (d + twist, i, t))
            t += 1
        if not heap:
            return basis
        _, i, j = heappop(heap)
        gi = basis[i]
        hl = pending[gi.pos].pop((i, j), None)
        if hl is None:
            continue
        s, _, _ = _s_vector(gi, basis[j], hl, K, G)
        r, _ = _reduce_packed(s, reducers, K, P)
        if r:
            g = _elem(r, K, twists, P)
            reducers.setdefault(g.pos, []).append(_reducer(len(basis), g))
            basis.append(g)


def defining_gb(ring):
    """Reduced rank-one basis of the defining ideal over the cover (cached)."""
    if ring.is_polynomial:
        return []
    return _cached(ring, "defining_gb", lambda: _defining_basis(ring))


def _defining_basis(ring):
    """The defining ideal's reduced basis, certified once here: the
    syzygy step reduces no S-pair of two defining columns
    (`syzygy_generators`), so it relies on this basis being a Groebner
    basis without seeing its pairs vanish.  ArithmeticError if not."""
    K, P = ring.field, _packing(ring.nvars, 1)
    elems = _interreduce(_buchberger(
        [{P.encode(0, m): c for m, c in f.terms.items()} for f in ring.defining],
        K, (0,), P), K, P)
    if not certify(GroebnerBasis(ring, FreeModule(ring, (0,)), elems,
                                 list(range(len(elems))), P)):
        raise ArithmeticError("the defining ideal's basis is not a "
                              "Groebner basis")
    return elems


def _moved(elems, off, twists, P):
    """GBElems of position-over-grevlex packing P moved off positions up,
    into a free module with these twists (a block shift): by linearity,
    each term moves by e_off - e_0, so the lead moves and the tail's
    offsets stay; a moved element shares its tail."""
    s = P.head(off) - P.head(0)
    out = []
    for g in elems:
        pos = g.pos + off
        out.append(GBElem(g.lead + s, g.tail, pos, g.word,
                          P.degree(g.word) + twists[pos]))
    return out


def _augmented_columns(ring, free):
    """The defining ideal times each free basis vector, as GBElems, in
    the order of the ideal's basis, then of the positions."""
    fs, P = defining_gb(ring), _packing(ring.nvars, free.rank)
    blocks = [_moved(fs, p, free.twists, P)
              for p in range(free.rank)] if fs else []
    return [g for gs in zip(*blocks) for g in gs]


class GroebnerBasis:
    """A Groebner basis of a graded submodule (plus the quotient's defining
    columns when the ring is S/I).  `elements` is the full reducer list;
    `module_elements` are the members not lying in I*F.  `packing` is the
    term order: position over grevlex, or the Schreyer order of a
    syzygy module (`syzygy_generators`).

    Reduction on read (module docstring).  A basis built by
    `groebner_basis` holds the unreduced basis of its Buchberger run,
    with `module_indices` None, and becomes the reduced basis on the
    first read of `elements`, `module_elements`, `module_indices`,
    `module_leads` or the reducer groups.  A frame from
    `syzygy_generators` holds each element's lead, position and degree,
    its tail None until read, and `_frame`: (the basis one level down,
    its reducer list, the trace heads, pending), with pending {degree:
    [(element, i, j, packed lcm)]} the S-pairs of the tails not yet
    read, which `_complete` reduces.  `elements`, `module_elements`,
    `module_vectors`, `key` and the reducer groups complete a frame;
    `lead_words`, `module_leads`, `module_degrees` and `module_indices`
    read no tail; `module_constants` completes only the elements whose
    degree is a twist of `free`.  Every other basis is given in its
    final form."""

    __slots__ = ("ring", "free", "_elements", "_module_indices", "packing",
                 "_groups", "_frame")

    def __init__(self, ring, free, elements, module_indices, packing=None,
                 frame=None):
        self.ring = ring
        self.free = free
        self._elements = elements
        self._module_indices = module_indices
        self.packing = packing or _packing(ring.nvars, free.rank)
        self._groups = None
        self._frame = frame

    def _interreduced(self):
        """The elements with their final leads: a Buchberger run's basis
        is interreduced on this first read; a frame's pending tails stay
        pending."""
        if self._module_indices is None:
            ring, free, P = self.ring, self.free, self.packing
            K = ring.field
            elems = _interreduce(self._elements, K, P)
            if ring.is_polynomial:
                self._module_indices = list(range(len(elems)))
            else:
                blockers = _reducers(_augmented_columns(ring, free))
                self._module_indices = [
                    i for i, g in enumerate(elems)
                    if _reduce_packed(dict(g.items(K.one)), blockers, K, P)[0]]
            self._elements = elems
        return self._elements

    def _complete(self, degrees=None):
        """Reduce the pending S-pairs of the frame elements whose degree is
        in `degrees`, of all of them by default, in the one tail routine
        (`_syzygy_tail`).  When any is pending, the basis below is
        completed whole first and one reducer list is built on it; the
        degrees are then reduced in ascending order, each dropped from
        pending once all its tails are read, so a failed reduction raises
        again on the next read."""
        if self._frame is None:
            return
        below, ext, heads, pending = self._frame
        todo = sorted(pending if degrees is None
                      else pending.keys() & degrees)
        if not todo:
            return
        below._complete()
        K, P = self.ring.field, below.packing
        reducers = _reducers(ext)
        for d in todo:
            for g, i, j, hl in pending[d]:
                g.tail = _syzygy_tail(g.lead, i, j, hl, ext, reducers,
                                      heads, K, P)
            del pending[d]
        if not pending:
            self._frame = None

    @property
    def elements(self):
        self._complete()
        return self._interreduced()

    @property
    def module_indices(self):
        self._interreduced()
        return self._module_indices

    def lead_words(self):
        """(position, lead's exponent word) of each element, read without
        reducing the basis: its leads may include redundant ones, but
        generate the same lead module."""
        return [(g.pos, g.word) for g in self._elements]

    def module_leads(self):
        """The module elements with their final leads, positions and
        degrees, read without completing a frame: a pending tail is
        None."""
        elems = self._interreduced()
        return [elems[i] for i in self._module_indices]

    @property
    def module_elements(self):
        self._complete()
        return self.module_leads()

    def module_vectors(self, first=0):
        """The module elements at position `first` or past, as new tuple
        dicts decoded in the basis's own packing, lead then tail: the one
        decoder of basis elements."""
        P, one = self.packing, self.ring.field.one
        return [P.decode_vec(g.items(one)) for g in self.module_elements
                if g.pos >= first]

    def module_constants(self):
        """The constant part of each module element, {(position, 1): c},
        read off the packed terms, the lead and then each tail offset: a
        term m e_p has m = 1 exactly when it is e_p's packed head
        (`head`), in any packing.  A term c e_p of a homogeneous element
        has e_p's degree, the twist at p, so an element whose degree is
        no twist has no constant part: only the others are completed and
        read."""
        Q, one = self.packing, self.ring.field.one
        unit = (0,) * self.ring.nvars
        twists = set(self.free.twists)
        self._complete(twists)
        heads = {Q.head(k): k for k in range(self.free.rank)}
        out = []
        for g in self.module_leads():
            const = {}
            if g.deg in twists:
                lead = g.lead
                if lead in heads:
                    const[heads[lead], unit] = one
                for off, c in g.tail:
                    k = heads.get(lead + off)
                    if k is not None:
                        const[k, unit] = c
            out.append(const)
        return out

    def key(self):
        """A hashable value of the elements: over one ring and free
        module, two bases have equal keys exactly when they have the
        same elements, so two reduced bases exactly when they span the
        same submodule."""
        return frozenset((g.lead, frozenset(g.tail)) for g in self.elements)

    def module_degrees(self):
        return [g.deg for g in self.module_leads()]

    def _reducer_groups(self):
        if self._groups is None:
            self._groups = _reducers(self.elements)
        return self._groups

    def normal_form(self, vec):
        r, _ = _reduce(vec, self._reducer_groups(), self.ring.field,
                       self.packing)
        return r

    def contains(self, vec):
        return not self.normal_form(vec)

    def lift(self, vec):
        """c with vec = sum_k c_k module_elements[k] over the ring, for vec
        in the submodule of a position-over-grevlex basis: the reduction
        trace with module element k's head e_k packed in that order, and
        none for a defining column, is -c.  The shared packing covers the
        free module on the module elements too, and packs its terms to the
        same ints as the basis's own positions."""
        K = self.ring.field
        P = _packing(self.ring.nvars, len(self.module_indices))
        heads = [None] * len(self.elements)
        for k, i in enumerate(self.module_indices):
            heads[i] = P.head(k)
        rem, trace = _reduce(vec, self._reducer_groups(), K, P, heads)
        if rem:
            raise ArithmeticError("vector does not lie in the submodule")
        p = K.characteristic
        return {t: p - c if p else -c for t, c in trace.items()}


def groebner_basis(vectors, ring, free, *, known=None):
    """Reduced Groebner basis of the submodule of `free` generated by
    `vectors`, over `ring` (augmented through the cover for quotients),
    reduced on its first read (`GroebnerBasis`).

    `known`, internal: a GroebnerBasis of a submodule of a free module
    whose twists lead `free`'s (with its defining columns over a quotient
    ring).  The result is then the basis of that submodule plus `vectors`,
    grown from `known` without reducing its pairs again (`_buchberger`);
    only positions past `known.free` get defining columns of their own."""
    K = ring.field
    P = _packing(ring.nvars, free.rank)
    gens = [v for v in vectors if v]
    for v in gens:
        if not vec_is_homogeneous(v, free.twists):
            raise ValueError("submodule generator is not homogeneous")
    aug = _augmented_columns(ring, free)
    seeds = known.elements if known else ()
    start = known.free.rank if known else 0
    packed = [P.encode_vec(v) for v in gens]
    packed += [dict(a.items(K.one)) for a in aug if a.pos >= start]
    elems = _buchberger(packed, K, free.twists, P, seeds)
    return GroebnerBasis(ring, free, elems, None)


def reduced_basis(vectors, ring, free):
    """The GroebnerBasis of `vectors` over a polynomial ring, monic
    vectors that already are the reduced basis of their submodule of
    `free`, in canonical order: packed as given, with no Buchberger run
    and no reduction.  A reduced basis that involves no pivot variable of
    a linear cut is one over the other variables, in the order their
    grevlex restricts to (cmreg.resolution)."""
    K, P = ring.field, _packing(ring.nvars, free.rank)
    elems = [_elem(P.encode_vec(v), K, free.twists, P) for v in vectors]
    return GroebnerBasis(ring, free, elems, list(range(len(elems))))


def direct_sum_basis(ring, free, blocks):
    """Reduced basis of a direct sum of submodules, from their own bases.

    blocks: (GroebnerBasis, first position) pairs whose positions tile
    `free`.  In position-over-term order no term of one block meets a
    term of another, so the shifted union of the blocks' reduced bases is
    reduced and a Groebner basis, hence the unique reduced basis of the
    sum.  Only positions, degrees (the blocks' twists may differ from
    `free`'s by a shift) and the canonical order change; no Buchberger."""
    P = _packing(ring.nvars, free.rank)
    elems, in_module = [], set()
    for gb, off in blocks:
        moved = _moved(gb.elements, off, free.twists, P)
        elems += moved
        in_module.update(moved[k] for k in gb.module_indices)
    _canonical_sort(elems)
    return GroebnerBasis(ring, free, elems,
                         [i for i, e in enumerate(elems) if e in in_module])


def reduce_poly_mod_defining(ring, f):
    vec = {(0, m): c for m, c in f.terms.items()}
    r, _ = _reduce(vec, _reducers(defining_gb(ring)), ring.field,
                   _packing(ring.nvars, 1))
    return Polynomial(ring, {m: c for (_, m), c in r.items()})


def _schreyer_pairs(elems, P, stop):
    """The same-position pairs (i, j), i < j and i < stop, whose Schreyer
    lead term is minimal (module docstring), as (i, j, packed lcm) in the
    order j, then i.  For each i the candidates are taken in (lcm degree,
    j) order and kept when no lcm kept so far divides theirs, so of equal
    lcms the smallest j survives.  The pairs of one i do not depend on
    those of another, so no lcm is formed for an i at or past stop."""
    G, pair = P.G, P.pair
    groups = {}
    for i, g in enumerate(elems):
        groups.setdefault(g.pos, []).append((i, g.word))
    kept = []
    for pos, group in groups.items():
        head = P.head(pos)
        for a, (i, ei) in enumerate(group):
            if i >= stop:
                break  # a group lists its elements in index order
            cands = []
            for j, ej in group[a + 1:]:
                d, _, hl = pair(head, ei, ej)
                cands.append((d, j, hl))
            cands.sort()
            minimal = []
            for d, j, hl in cands:
                for k in minimal:
                    if not (hl - k) & G:
                        break
                else:
                    minimal.append(hl)
                    kept.append((j, i, hl))
    kept.sort()
    return [(i, j, hl) for j, i, hl in kept]


def certify(gb):
    """Re-reduce the S-pairs of the final basis that `_schreyer_pairs`
    selects; True when all vanish.  Their lead-term syzygies generate the
    syzygies of the lead terms, which is all Buchberger's criterion needs."""
    elems = gb.elements
    K = gb.ring.field
    P = gb.packing
    reducers = _reducers(elems)
    for i, j, hl in _schreyer_pairs(elems, P, len(elems)):
        s, _, _ = _s_vector(elems[i], elems[j], hl, K, P.G)
        r, _ = _reduce_packed(s, reducers, K, P)
        if r:
            return False
    return True


def syzygy_generators(gb):
    """Generators of the syzygy module of gb's module elements over the
    ring, from the reduction traces of the S-pairs `_schreyer_pairs`
    selects.

    The reducer list is module elements followed by defining-ideal columns;
    that list is a (non-reduced) Groebner basis of the preimage submodule,
    so the selected trace syzygies generate all its syzygies, and dropping
    the coordinates of the defining columns yields generators over R.

    A pair of two defining columns a < b is not formed: the defining
    columns come last in the reducer list, and `_schreyer_pairs` forms
    no pair (a, b) with a past the module elements.  Replace its trace
    tau_ab by tau'_ab, the trace of its S-vector's reduction by the
    defining columns alone, which reduces to zero because `defining_gb`
    is a Groebner basis (certified where it is built).  Every quotient of
    either reduction lies below the lcm, so tau'_ab keeps the Schreyer
    lead (lcm_ab / lt(g_a)) e_a, and the kept traces with the tau'_ab
    still form a Groebner basis of the syzygies of the reducer list.  A
    tau'_ab is zero on the module coordinates, so dropping them leaves
    the same generators over R.

    So every kept pair (i, j) has a module element i, and its trace
    syzygy leads with (lcm_ij / lt(g_i)) e_i in the Schreyer order gb
    induces (module docstring): the step builds each element from that
    lead, coefficient one, its position i, and its degree, read off the
    lead's word, plus the twist of e_i.  Of one i, `_schreyer_pairs`
    keeps distinct lcms, so no two kept syzygies share a lead and none
    repeats.  The step reads gb's leads alone (`module_leads`), so a
    frame below stays as complete as it was.

    Reduction on read: no S-pair is reduced here.  Each element's tail,
    the trace and then the -m_j e_j term (when j is a module element),
    comes from `_syzygy_tail` on the first read that needs it
    (`GroebnerBasis._complete`), which checks the zero remainder and the
    Schreyer lead on every tail it computes and raises ArithmeticError.
    It completes gb whole before it reduces a pair, so reading every tail
    gives what reducing every pair at once would.

    Returns (elements, basis): basis is `_syzygy_basis` of the syzygies,
    a GroebnerBasis on the free module on the element degrees, packed in
    that Schreyer order, and elements are its module elements, tails
    pending until basis reads them.  Over a polynomial ring basis is a
    Groebner basis of the syzygy module (Schreyer's theorem), so this
    function takes it again.
    """
    ring = gb.ring
    P = gb.packing
    mod = gb.module_leads()
    ext = mod + _augmented_columns(ring, gb.free)
    n_mod = len(mod)
    twists = tuple(g.deg for g in mod)
    Q = P.schreyer([g.lead for g in mod])
    # q e_k packs as heads[k] + d, d the offset of q in P; the defining
    # columns' coordinates are dropped
    heads = [Q.head(k) for k in range(n_mod)]
    heads += [None] * (len(ext) - n_mod)
    pairs = _schreyer_pairs(ext, P, n_mod)
    leads = [heads[i] + hl - ext[i].lead for i, _, hl in pairs]
    words = [Q.word(lead) for lead in leads]
    out, pending = [], {}
    for (i, j, hl), lead, word, d in zip(pairs, leads, words,
                                         Q.degrees(words)):
        g = GBElem(lead, None, i, word, d + twists[i])
        out.append(g)
        pending.setdefault(g.deg, []).append((g, i, j, hl))
    basis = _syzygy_basis(ring, FreeModule(ring, twists), Q, out,
                          (gb, ext, heads, pending) if pending else None)
    return basis.module_leads(), basis


def _syzygy_tail(lead, i, j, hl, ext, reducers, heads, K, P):
    """The tail of the trace syzygy with Schreyer lead `lead`, m_i e_i,
    of the S-pair (ext[i], ext[j]) at the packed lcm hl, in the one form
    (module docstring): the S-vector is reduced against `reducers` with
    each e_k packed as heads[k], which leaves -sum_k q_k e_k, then
    -m_j e_j is added when heads[j] is set.  ArithmeticError when the
    remainder is not zero, or a term sits at or above the lead."""
    s, _, dj = _s_vector(ext[i], ext[j], hl, K, P.G)
    r, trace = _reduce_packed(s, reducers, K, P, heads)
    if r:
        raise ArithmeticError("S-pair of a Groebner basis did not reduce to zero")
    # m_i e_i - m_j e_j - sum_k q_k e_k, with no term repeated (module
    # docstring)
    if heads[j] is not None:
        p = K.characteristic
        trace[heads[j] + dj] = p - 1 if p else -K.one
    if trace and min(trace) <= lead:
        raise ArithmeticError("a trace syzygy does not lead with its "
                              "Schreyer term")
    return tuple([(h - lead, c) for h, c in trace.items()])


def _syzygy_basis(ring, F, Q, elems, frame=None):
    """The syzygies, GBElems in packing Q over F, as a GroebnerBasis in
    lead-index order, never decoded here; `frame` as in `GroebnerBasis`.

    Lead-index order sorts by the lead's basis index c, then by the
    exponent of v in the lead monomial, decreasing, with v the first
    variable in any lead, then by lead term; the exponents are read off
    the leads' words (`Words.support`, `Words.column`).  By index first,
    the packed (level-0 term, c) order is the full Schreyer order for the
    next level (module docstring).  By v next, i < j in one position has
    lt(g_j) no higher in v than lt(g_i), so the next level's leads lack v
    and every variable these lack (Schreyer's proof of the syzygy
    theorem): a frame over n variables ends within n levels."""
    words = [g.word for g in elems]
    v = next((x for x, k in enumerate(Q.support(words)) if k), 0)
    col = Q.column(words, v)
    order = sorted(range(len(elems)),
                   key=lambda k: (elems[k].pos, -col[k], elems[k].lead))
    return GroebnerBasis(ring, F, [elems[k] for k in order],
                         list(range(len(elems))), Q, frame)
