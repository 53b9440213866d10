"""The tensor builder and the dual against plain-loop references.

Hom(F, C) is built as the tensor with the dual, F^* (x) C, and is checked
exactly against the same construction written in plain loops
(`naive_dual`, `naive_tensor_free_with_complex`).  The separate Hom
totalization it replaced (`naive_hom_complex`) stays the exact reference
when C is a module, where both lay out the same blocks with the same
signs; when C is a complex the two differ in block order and signs, and
it is the reference for the homology series at every spot."""

import os

import pytest

from cmreg import (BoundedComplex, PresentedModule, complex_from_module,
                   free_resolution, hom_complex, koszul_complex,
                   koszul_resolution_of_k, parse_session,
                   resolution_to_complex, tensor_free_with_complex)
from cmreg.complexes import dual_complex
from cmreg.freemod import FreeModule
from cmreg.modules import ModuleMap
from cmreg.theorems import random_ideal_corpus
from fieldops import field_ops

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


# -- references: plain loops, linear-scan offsets --------------------------

def naive_dual(F):
    """Hom(F, R): F_p^* at spot -p with the twists negated; from spot
    1 - p to spot -p the transpose of d_p, negated when p is odd."""
    ring = F.ring
    K = field_ops(ring.field)
    terms = {}
    for p in F.levels():
        twists = tuple(-a for a in F.term(p).gens_free.twists)
        terms[-p] = PresentedModule.free(ring, twists)
    diffs = {}
    for p in F.levels():
        if p not in F.diffs:
            continue
        d = F.diff(p)
        cols = []
        for b in range(d.target.rank):
            col = {}
            for j in range(d.source.rank):
                for (bb, m), c in d.cols[j].items():
                    if bb == b:
                        col[(j, m)] = c if p % 2 == 0 else K.neg(c)
            cols.append(col)
        diffs[1 - p] = ModuleMap(terms[1 - p], terms[-p], cols)
    return BoundedComplex(ring, terms, diffs)


def naive_tensor_free_with_complex(F, C):
    ring = F.ring
    K = field_ops(ring.field)
    f_levels = F.levels()
    c_levels = C.levels()
    if not f_levels or not c_levels:
        return BoundedComplex(ring, {}, {})
    layout = {}
    terms = {}
    for n in range(f_levels[0] + c_levels[0], f_levels[-1] + c_levels[-1] + 1):
        blocks = []
        twists = []
        rels = []
        off = 0
        for p in f_levels:
            q = n - p
            if q not in C.terms:
                continue
            Fp = F.term(p).gens_free
            Cq = C.term(q)
            for b in range(Fp.rank):
                a = Fp.twists[b]
                blocks.append((p, q, b, off))
                twists.extend(t + a for t in Cq.gens_free.twists)
                for rc in Cq.rel_cols:
                    rels.append({(pp + off, m): c for (pp, m), c in rc.items()})
                off += Cq.rank
        if twists:
            layout[n] = blocks
            terms[n] = PresentedModule(ring, FreeModule(ring, tuple(twists)), rels)

    def find_offset(n, p, q, b):
        for (pp, qq, bb, off) in layout.get(n, []):
            if (pp, qq, bb) == (p, q, b):
                return off
        return None

    diffs = {}
    for n in sorted(layout):
        if (n - 1) not in layout:
            continue
        cols = []
        for (p, q, b, off) in layout[n]:
            Cq = C.term(q)
            for g in range(Cq.rank):
                col = {}
                if p in F.diffs:
                    for (b2, m), c in F.diff(p).cols[b].items():
                        o2 = find_offset(n - 1, p - 1, q, b2)
                        if o2 is None:
                            continue
                        key = (o2 + g, m)
                        s = K.add(col.get(key, K.zero), c)
                        if K.is_zero(s):
                            col.pop(key, None)
                        else:
                            col[key] = s
                if q in C.diffs:
                    o2 = find_offset(n - 1, p, q - 1, b)
                    if o2 is not None:
                        sgn = 1 if p % 2 == 0 else -1
                        for (pp, m), c in C.diff(q).cols[g].items():
                            cc = c if sgn == 1 else K.neg(c)
                            key = (o2 + pp, m)
                            s = K.add(col.get(key, K.zero), cc)
                            if K.is_zero(s):
                                col.pop(key, None)
                            else:
                                col[key] = s
                cols.append(col)
        diffs[n] = ModuleMap(terms[n], terms[n - 1], cols)
    return BoundedComplex(ring, terms, diffs)


def naive_hom_complex(F, C):
    ring = F.ring
    K = field_ops(ring.field)
    f_levels = F.levels()
    c_levels = C.levels()
    if not f_levels or not c_levels:
        return BoundedComplex(ring, {}, {})
    layout = {}
    terms = {}
    for n in range(c_levels[0] - f_levels[-1], c_levels[-1] - f_levels[0] + 1):
        blocks = []
        twists = []
        rels = []
        off = 0
        for p in f_levels:
            q = n + p
            if q not in C.terms:
                continue
            Fp = F.term(p).gens_free
            Cq = C.term(q)
            for b in range(Fp.rank):
                a = Fp.twists[b]
                blocks.append((p, q, b, off))
                twists.extend(t - a for t in Cq.gens_free.twists)
                for rc in Cq.rel_cols:
                    rels.append({(pp + off, m): c for (pp, m), c in rc.items()})
                off += Cq.rank
        if twists:
            layout[n] = blocks
            terms[n] = PresentedModule(ring, FreeModule(ring, tuple(twists)), rels)

    def find_offset(n, p, q, b):
        for (pp, qq, bb, off) in layout.get(n, []):
            if (pp, qq, bb) == (p, q, b):
                return off
        return None

    diffs = {}
    for n in sorted(layout):
        if (n - 1) not in layout:
            continue
        sgn_pre = -1 if n % 2 == 0 else 1
        cols = []
        for (p, q, b, off) in layout[n]:
            Cq = C.term(q)
            for g in range(Cq.rank):
                col = {}
                if q in C.diffs:
                    o2 = find_offset(n - 1, p, q - 1, b)
                    if o2 is not None:
                        for (pp, m), c in C.diff(q).cols[g].items():
                            key = (o2 + pp, m)
                            s = K.add(col.get(key, K.zero), c)
                            if K.is_zero(s):
                                col.pop(key, None)
                            else:
                                col[key] = s
                if (p + 1) in F.diffs:
                    dnext = F.diff(p + 1)
                    for b2 in range(dnext.source.rank):
                        c_entry = {m: c for (bb, m), c in dnext.cols[b2].items()
                                   if bb == b}
                        if not c_entry:
                            continue
                        o2 = find_offset(n - 1, p + 1, q, b2)
                        if o2 is None:
                            continue
                        for m, c in c_entry.items():
                            cc = c if sgn_pre == 1 else K.neg(c)
                            key = (o2 + g, m)
                            s = K.add(col.get(key, K.zero), cc)
                            if K.is_zero(s):
                                col.pop(key, None)
                            else:
                                col[key] = s
                cols.append(col)
        diffs[n] = ModuleMap(terms[n], terms[n - 1], cols)
    return BoundedComplex(ring, terms, diffs)


# -- comparison ----------------------------------------------------------

def assert_same_totalization(got, ref):
    assert list(got.terms) == list(ref.terms)
    for n, t in ref.terms.items():
        assert got.terms[n].gens_free.twists == t.gens_free.twists
        assert got.terms[n].rel_cols == t.rel_cols
    assert list(got.diffs) == list(ref.diffs)
    for n, d in ref.diffs.items():
        assert got.diffs[n].cols == d.cols  # columns equal as dicts


def assert_same_dual(got, ref):
    assert got.levels() == ref.levels()
    for n in ref.levels():
        assert got.terms[n].gens_free.twists == ref.terms[n].gens_free.twists
        assert not got.terms[n].rel_cols
    assert sorted(got.diffs) == sorted(ref.diffs)
    for n, d in ref.diffs.items():
        assert got.diffs[n].cols == d.cols


def assert_same_homology_series(got, ref):
    spots = got.levels() + ref.levels()
    for i in range(min(spots, default=0) - 1, max(spots, default=0) + 2):
        assert got.homology_series(i) == ref.homology_series(i), i


def assert_both_match(F, C):
    """Tensor, dual and Hom of (F, C) equal their references: Hom is the
    tensor of the reference dual, term for term, and equals the separate
    Hom reference exactly when C is a module (one term, at spot 0) and in
    its homology series otherwise.  Returns how many differentials were
    compared."""
    T = tensor_free_with_complex(F, C)
    assert_same_totalization(T, naive_tensor_free_with_complex(F, C))
    Fd = naive_dual(F)
    assert_same_dual(dual_complex(F), Fd)
    H = hom_complex(F, C)
    assert_same_totalization(H, naive_tensor_free_with_complex(Fd, C))
    if set(C.terms) <= {0}:
        assert_same_totalization(H, naive_hom_complex(F, C))
    else:
        assert_same_homology_series(H, naive_hom_complex(F, C))
    return len(T.diffs) + len(H.diffs)


def _pairs(S, M):
    x = S.gens()[0]
    form = sum((i + 1) * v for i, v in enumerate(S.gens()))
    F = resolution_to_complex(free_resolution(M))
    Kk = koszul_resolution_of_k(S)
    return [
        (F, complex_from_module(PresentedModule.cyclic(S, [form]))),
        (Kk, complex_from_module(M)),
        (F, F),
        (Kk, koszul_complex([x], M)),
        (F.shift(1), koszul_complex([x], M)),
    ]


@pytest.mark.parametrize("idx", range(8))
def test_builder_matches_references_on_corpus(idx):
    inst = random_ideal_corpus()[idx]
    S, M = inst.ring, inst.module
    compared = 0
    for F, C in _pairs(S, M):
        compared += assert_both_match(F, C)
    # the duality complex of the duality route
    F = resolution_to_complex(free_resolution(M))
    D = complex_from_module(PresentedModule.free(S, (S.nvars,)))
    compared += assert_both_match(F, D)
    assert compared


@pytest.mark.parametrize("name", ["determinantal.cmreg", "hypersurface-pair.cmreg",
                                  "two-quadrics.cmreg"])
def test_builder_matches_references_over_quotient_rings(name):
    with open(os.path.join(SESSIONS, name), encoding="utf-8") as fh:
        session = parse_session(fh.read())
    modules = [session.get(n) for n in session.order
               if session.kind_of(n) == "module"]
    complexes = [session.get(n) for n in session.order
                 if session.kind_of(n) == "complex"]
    compared = 0
    for M in modules:
        R = M.ring
        assert not R.is_polynomial
        F = resolution_to_complex(free_resolution(M, max_len=3))
        x = R.gens()[0]
        for C in [complex_from_module(N) for N in modules] + complexes + [
                koszul_complex([x], M), F]:
            compared += assert_both_match(F, C)
            compared += assert_both_match(koszul_resolution_of_k(R), C)
    assert compared


def test_empty_and_single_spot_inputs(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    empty = BoundedComplex(S3, {}, {})
    F = resolution_to_complex(free_resolution(M))
    assert_both_match(F, empty)
    assert_both_match(empty, complex_from_module(M))
    free = complex_from_module(PresentedModule.free(S3, (0, 2)))
    assert_both_match(free, complex_from_module(M))
    assert_both_match(free.shift(-3), koszul_complex([x, z], M))
