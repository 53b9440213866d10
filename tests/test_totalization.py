"""The shared tensor/Hom builder against the two separate totalizations it
replaced, kept here as references."""

import os

import pytest

from cmreg import (BoundedComplex, PresentedModule, complex_from_module,
                   free_resolution, hom_complex, koszul_complex,
                   koszul_resolution_of_k, parse_session,
                   resolution_to_complex, tensor_free_with_complex)
from cmreg.freemod import FreeModule
from cmreg.modules import ModuleMap
from cmreg.theorems import random_ideal_corpus
from fieldops import field_ops

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


# -- references: one function per totalization, linear-scan offsets ------

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


def assert_both_match(F, C):
    """Tensor and Hom of (F, C) equal their references; returns how many
    differentials were compared."""
    T = tensor_free_with_complex(F, C)
    assert_same_totalization(T, naive_tensor_free_with_complex(F, C))
    H = hom_complex(F, C)
    assert_same_totalization(H, naive_hom_complex(F, C))
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
