"""Module-path homology, kernels and colons and the free resolution of a
complex against the designs they replaced, kept here as references: the
all-tags syzygy primitive on a from-scratch basis, homology as a
presented kernel followed by a second subquotient, and the fiber-product
loop with an end-dependent target layout and merged columns.  Homology,
kernel and colon modules are compared entry by entry; resolutions, unique
only up to isomorphism, by their invariants."""

import os
import random

import pytest

import cmreg.groebner as groebner
import cmreg.modules as modules
from cmreg import (BoundedComplex, PresentedModule, complex_from_module,
                   free_resolution, free_resolution_of_complex, hom_complex,
                   homology_at, koszul_complex, parse_session,
                   polynomial_ring, resolution_to_complex,
                   tensor_free_with_complex)
from cmreg.complexes import free_complex_from_data, minimal_cover
from cmreg.freemod import FreeModule, vec_degree
from cmreg.groebner import _packing, groebner_basis
from cmreg.minimize import _find_unit, minimize_chain, minimize_presentation
from cmreg.modules import ModuleMap, colon_by_element, multiplication_map
from cmreg.theorems import _random_linear_form, random_ideal_corpus
from fieldops import field_ops

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


# -- references: the all-tags syzygy primitive, a subquotient with an
# -- optional minimization, a presented kernel, homology through that
# -- kernel, and the old fiber product -----------------------------------

def syzygies_of_vectors(vectors, ring, free):
    """Generators of {(a_i) : sum a_i v_i = 0 over the ring}, for nonzero
    homogeneous vectors: a tag position per vector and a Groebner basis
    from scratch, keeping the elements supported only on the tags."""
    K = ring.field
    degs = [vec_degree(v, free.twists) for v in vectors]
    r = free.rank
    big = FreeModule(ring, tuple(free.twists) + tuple(degs))
    one = tuple(0 for _ in range(ring.nvars))
    ws = []
    for i, v in enumerate(vectors):
        w = dict(v)
        w[(r + i, one)] = K.one
        ws.append(w)
    gb = groebner_basis(ws, ring, big)
    out = []
    P = _packing(ring.nvars, big.rank)
    for e in gb.module_elements:
        vec = P.decode_vec(e.items(ring.field.one))
        if all(p >= r for (p, _) in vec):
            out.append({(p - r, m): c for (p, m), c in vec.items()})
    return out, FreeModule(ring, degs)


def naive_subquotient(ring, free, numerators, denominators, minimize):
    K = ring.field
    den = [dict(c) for c in denominators if c]
    gb_den = groebner_basis(den, ring, free)
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
    syz, _ = syzygies_of_vectors(nums + den, ring, free)
    s = len(nums)
    rels = []
    for v in syz:
        proj = {(p, m): c for (p, m), c in v.items() if p < s}
        if proj:
            rels.append(proj)
    twists = tuple(vec_degree(v, free.twists) for v in nums)
    if not minimize:
        return PresentedModule(ring, FreeModule(ring, twists), rels), nums
    tw, cols, kept = minimize_presentation(twists, rels, K)
    module = PresentedModule(ring, FreeModule(ring, tw), cols)
    return module, [nums[i] for i in kept]


def naive_kernel(phi, minimize=True):
    M, N = phi.source, phi.target
    ring = phi.ring
    live = [(j, c) for j, c in enumerate(phi.cols) if c]
    carriers = []
    if live:
        vectors = [c for _, c in live] + [dict(c) for c in N.rel_cols]
        syz, _ = syzygies_of_vectors(vectors, ring, N.gens_free)
        nlive = len(live)
        for v in syz:
            w = {}
            for (p, m), c in v.items():
                if p < nlive:
                    w[(live[p][0], m)] = c
            if w:
                carriers.append(w)
    for j, c in enumerate(phi.cols):
        if not c:
            carriers.append(M.gens_free.basis_vec(j))
    module, gens = naive_subquotient(ring, M.gens_free, carriers,
                                     list(M.rel_cols), minimize)
    return module, ModuleMap(module, M, gens)


def naive_homology(C, i):
    if C.term(i).rank == 0:
        return PresentedModule.zero(C.ring)
    psi, phi = C.diff(i + 1), C.diff(i)
    _, incl = naive_kernel(phi, minimize=False)
    mid = phi.source
    dens = [dict(c) for c in psi.cols if c] + [dict(c) for c in mid.rel_cols]
    module, _ = naive_subquotient(mid.ring, mid.gens_free, list(incl.cols),
                                  dens, True)
    return module


def minimized(L):
    """The minimal free complex homotopy equivalent to the free complex L,
    as the complex layer built it before the resolution layer took the
    free case over: L's chain, with zero columns for an unstored
    differential between two terms, through minimize_chain."""
    twists = {i: tuple(t.gens_free.twists) for i, t in L.terms.items()}
    cols = {i: [dict(c) for c in d.cols] for i, d in L.diffs.items()}
    for i in L.levels():
        if i - 1 in L.terms and i not in cols:
            cols[i] = [{} for _ in range(L.terms[i].rank)]
    tw, cs, _ = minimize_chain(twists, cols, L.ring.field)
    return free_complex_from_data(L.ring, tw, cs)


def naive_free_resolution_of_complex(L, max_len=None):
    ring = L.ring
    if not L.terms:
        return BoundedComplex(ring, {}, {}), True
    if L.is_free:
        return minimized(L), True
    lo, hi = L.min_level, L.max_level
    if max_len is None:
        span = hi - lo
        max_len = span + (ring.nvars + 4 if ring.is_polynomial
                          else 2 * ring.nvars + 4)
    twists = {}
    cols = {}
    F_prev, phi_prev = minimal_cover(L.term(lo))
    twists[lo] = tuple(F_prev.gens_free.twists)
    phis = {lo: phi_prev}
    complete = False
    i = lo
    while True:
        if i - lo >= max_len:
            break
        Lnext = L.term(i + 1)
        Fi = PresentedModule.free(ring, twists[i])
        dF_cols = cols.get(i)
        target_parts = [L.term(i)]
        if dF_cols is not None:
            target_parts.append(PresentedModule.free(ring, twists[i - 1]))
        if len(target_parts) == 2:
            target = target_parts[0].direct_sum(target_parts[1])
            shift0 = 0
            shift1 = target_parts[0].rank
        else:
            target = target_parts[0]
            shift0 = 0
            shift1 = None
        source = Fi.direct_sum(Lnext) if Lnext.rank else Fi
        K = field_ops(ring.field)
        columns = []
        for j in range(Fi.rank):
            col = {}
            for (p, m), c in phis[i].cols[j].items():
                col[(p + shift0, m)] = c
            if dF_cols is not None:
                for (p, m), c in dF_cols[j].items():
                    key = (p + shift1, m)
                    s = K.add(col.get(key, K.zero), c)
                    if K.is_zero(s):
                        col.pop(key, None)
                    else:
                        col[key] = s
            columns.append(col)
        dnext = L.diff(i + 1)
        for j in range(Lnext.rank):
            col = {}
            for (p, m), c in dnext.cols[j].items():
                col[(p + shift0, m)] = K.neg(c)
            columns.append(col)
        psi = ModuleMap(source, target, columns)
        ker_mod, incl = naive_kernel(psi)
        if ker_mod.rank == 0 and i >= hi:
            complete = True
            break
        fr = Fi.rank
        new_twists = tuple(ker_mod.gens_free.twists)
        dF_new = []
        phi_new = []
        for c in incl.cols:
            fpart = {}
            lpart = {}
            for (p, m), cc in c.items():
                if p < fr:
                    fpart[(p, m)] = cc
                else:
                    lpart[(p - fr, m)] = cc
            dF_new.append(fpart)
            phi_new.append(lpart)
        i += 1
        twists[i] = new_twists
        cols[i] = dF_new
        Fn = PresentedModule.free(ring, new_twists)
        phis[i] = ModuleMap(Fn, L.term(i), phi_new)
    built = free_complex_from_data(ring, twists, cols)
    return minimized(built), complete


# -- comparison ----------------------------------------------------------

def assert_same_module(got, ref):
    assert got.gens_free.twists == ref.gens_free.twists
    assert got.rel_cols == ref.rel_cols  # columns equal as dicts


def spot_twists(G):
    """The ordered twists at every spot of a free complex."""
    return [(n, t.gens_free.twists) for n, t in G.terms.items()]


def assert_equivalent_resolutions(F, complete, F_ref, complete_ref,
                                  twists=None):
    """A minimal free complex is unique only up to isomorphism, so the
    resolution is compared by its invariants, not column by column: the
    ordered twists at every spot, the complete flag, d o d = 0, no
    constant entry, and the homology series at every spot.  `twists`, when
    given, pins F's ordered twists where they differ from the reference's
    in order only."""
    assert complete == complete_ref
    if twists is None:
        assert spot_twists(F) == spot_twists(F_ref)
    else:
        assert spot_twists(F) == twists
        assert [(n, sorted(t)) for n, t in twists] == [
            (n, sorted(t)) for n, t in spot_twists(F_ref)]
    assert F.verify()
    assert all(_find_unit(c) is None for d in F.diffs.values() for c in d.cols)
    for n in range(F_ref.min_level - 1, F_ref.max_level + 2):
        assert F.homology_series(n) == F_ref.homology_series(n)


def assert_matches_references(C, twists=None):
    """Every homology module of C equals the reference, and C's resolution
    is equivalent to the reference one (`twists` as in
    assert_equivalent_resolutions); returns how many nonzero homology
    modules were compared."""
    nonzero = 0
    for i in range(C.min_level - 1, C.max_level + 2):
        H = C.homology(i)
        assert_same_module(H, naive_homology(C, i))
        nonzero += H.rank > 0
    assert_equivalent_resolutions(*free_resolution_of_complex(C),
                                  *naive_free_resolution_of_complex(C),
                                  twists)
    return nonzero


# -- inputs: the checkers' complexes on corpus 00-12 and the sessions ----

def corpus_complexes(idx):
    """Koszul([f], M), the tensor complex and the Hom complex that
    corpus_checks builds for one instance, with its auxiliary forms."""
    inst = random_ideal_corpus()[idx]
    rng = random.Random(f"{inst.name}:aux")
    S, M = inst.ring, inst.module
    f = _random_linear_form(S, rng)
    g = _random_linear_form(S, rng)
    F = resolution_to_complex(free_resolution(PresentedModule.cyclic(S, [g])))
    return [koszul_complex([f], M),
            tensor_free_with_complex(F, complex_from_module(M)),
            hom_complex(F, complex_from_module(M))]


def session_complexes(name):
    """The session's complexes and Koszul([x], M) for each module M."""
    with open(os.path.join(SESSIONS, name), encoding="utf-8") as fh:
        session = parse_session(fh.read())
    out = []
    for n in session.order:
        kind = session.kind_of(n)
        if kind == "complex":
            out.append(session.get(n))
        elif kind == "module":
            M = session.get(n)
            out.append(koszul_complex([M.ring.gens()[0]], M))
    return out


@pytest.mark.parametrize("idx", range(13))
def test_homology_and_fiber_product_match_references_on_corpus(idx):
    for C in corpus_complexes(idx):
        assert_matches_references(C)


def test_homology_and_fiber_product_match_references_on_sessions():
    names = sorted(os.listdir(SESSIONS))
    complexes = [C for name in names for C in session_complexes(name)]
    assert len(complexes) == 9
    assert sum(assert_matches_references(C) for C in complexes)


def test_empty_middle_level_and_unstored_zero_differential(S3):
    # The resolution loop lists a level's generators in Groebner-basis
    # order, by degree; the reference lists the generators of L that d
    # sends to zero last.  So gap and flat pin the loop's order.
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, z * z])
    N = PresentedModule.cyclic(S3, [x])
    # spots 0 and 2 with nothing at spot 1: both differentials are zero
    gap = BoundedComplex(S3, {0: M, 2: N}, {})
    assert 1 not in gap.terms
    assert assert_matches_references(gap, twists=[
        (0, (0,)), (1, (2, 2)), (2, (0, 4)), (3, (1,))]) == 2
    # adjacent spots whose zero differential is not stored
    flat = BoundedComplex(S3, {0: M, 1: N.twist(1)}, {})
    assert not flat.diffs
    assert assert_matches_references(flat, twists=[
        (0, (0,)), (1, (-1, 2, 2)), (2, (0, 4))]) == 2
    # the same with a free term, so the minimal cover keeps a summand
    mixed = BoundedComplex(S3, {0: PresentedModule.free(S3, (0,)), 1: M}, {})
    assert assert_matches_references(mixed) == 2


def test_homology_at_is_one_subquotient(monkeypatch):
    R = polynomial_ring(["x", "y", "z"])
    x, y, z = R.gens()
    C = koszul_complex([x, y], PresentedModule.cyclic(R, [x * z]))
    calls = []
    real = modules.present_subquotient

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def no_kernel(*args, **kwargs):
        raise AssertionError("homology_at presented a kernel")

    monkeypatch.setattr(modules, "present_subquotient", counted)
    monkeypatch.setattr(modules, "kernel", no_kernel)
    H = homology_at(C.diff(2), C.diff(1))
    assert len(calls) == 1
    assert H.rank > 0
    assert_same_module(H, naive_homology(C, 1))


# -- colons: the checkers' (0 :_M f) against the reference kernel ----------

def assert_colon_matches_reference(M, f):
    got, incl = colon_by_element(M, f)
    ref, ref_incl = naive_kernel(multiplication_map(M, f)[0])
    assert_same_module(got, ref)
    assert incl.cols == ref_incl.cols


@pytest.mark.parametrize("idx", range(13))
def test_colon_matches_reference_on_corpus(idx):
    inst = random_ideal_corpus()[idx]
    S, M = inst.ring, inst.module
    f = _random_linear_form(S, random.Random(f"{inst.name}:aux"))
    for g in (f, S.gens()[0], f * f):
        assert_colon_matches_reference(M, g)


def test_colon_matches_reference_over_a_quotient_ring(S3):
    x, y, z = S3.gens()
    R = S3.quotient([x * y, z * z])
    x, y, z = R.gens()
    modules_ = [PresentedModule.cyclic(R, []),
                PresentedModule.cyclic(R, [x]),
                PresentedModule(R, FreeModule(R, (0, 1)),
                                [{(0, (0, 0, 1)): R.field.one,
                                  (1, (0, 0, 0)): R.field.one}])]
    for M in modules_:
        for f in (x, y, z, x + y, x * z):
            assert_colon_matches_reference(M, f)


# -- the bottom spot: a cokernel of the held basis -----------------------

def bottom_reference(psi, phi):
    """ker(phi) / im(psi) as `homology_at` presents it at any spot: phi's
    kernel vectors and one subquotient over the middle basis grown by
    psi's columns."""
    mid = phi.source
    gb_den = groebner_basis(psi.cols, mid.ring, mid.gens_free,
                            known=mid.gb())
    return modules.present_subquotient(modules._kernel_vectors(phi),
                                       gb_den)[0]


def cokernel_calls(monkeypatch):
    real = modules._cokernel
    calls = []

    def counting(mid, gb_den):
        calls.append(mid)
        return real(mid, gb_den)

    monkeypatch.setattr(modules, "_cokernel", counting)
    return calls


def assert_bottom_spots_match_reference(C):
    """Each spot of C above a zero term against `bottom_reference`:
    equal twists and relation columns; returns how many there are."""
    count = 0
    for s in C.levels():
        if C.term(s - 1).rank:
            continue
        psi, phi = C.diff(s + 1), C.diff(s)
        got, ref = homology_at(psi, phi), bottom_reference(psi, phi)
        assert got.gens_free.twists == ref.gens_free.twists, (C, s)
        assert [dict(c) for c in got.rel_cols] == [
            dict(c) for c in ref.rel_cols], (C, s)
        count += 1
    return count


def unit_complex(S):
    """S(-1) + S <- S(-1) by e_0 + x e_1, which leads with the constant
    e_0: e_0 is redundant modulo the image, and H_0 is S on e_1."""
    x = S.gens()[0]
    one = S.field.one
    T0, T1 = (PresentedModule.free(S, tw) for tw in ((1, 0), (1,)))
    d = ModuleMap(T1, T0, [{(0, (0,) * S.nvars): one,
                            (1, (1,) + (0,) * (S.nvars - 1)): one}])
    return BoundedComplex(S, {0: T0, 1: T1}, {1: d})


def test_the_bottom_homology_is_the_reference_subquotient(S3, monkeypatch):
    calls = cokernel_calls(monkeypatch)
    spots = sum(assert_bottom_spots_match_reference(C)
                for idx in range(30) for C in corpus_complexes(idx))
    assert spots == len(calls) == 90
    calls.clear()
    spots = sum(assert_bottom_spots_match_reference(C)
                for name in sorted(os.listdir(SESSIONS))
                for C in session_complexes(name))
    assert spots == len(calls) == 9
    # a unit entry in the incoming map: minimizing drops e_0, so the
    # module keeps no basis
    calls.clear()
    C = unit_complex(S3)
    assert assert_bottom_spots_match_reference(C) == len(calls) == 1
    H = C.homology(0)
    assert H.gens_free.twists == (0,) and H.rel_cols == ()
    runs = buchberger_runs(monkeypatch)
    H.gb()
    assert len(runs) == 1


def buchberger_runs(monkeypatch):
    """A list that gets the arguments of every `_buchberger` run."""
    runs = []
    real = groebner._buchberger

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    return runs


def test_a_bottom_homology_reads_its_held_basis(monkeypatch):
    # H_0 of Koszul([f], M) is M/fM, whose relations are the reduced basis
    # that homology_at grew; its gb() is that basis, with no Buchberger
    runs = buchberger_runs(monkeypatch)
    for idx in range(30):
        C = corpus_complexes(idx)[0]
        H = C.homology(C.min_level)
        assert "gb" not in H._cache
        runs.clear()
        gb = H.gb()
        assert runs == [], idx
        assert [dict(c) for c in H.rel_cols] == gb.module_vectors()
        fresh = groebner_basis(H.rel_cols, H.ring, H.gens_free)
        assert fresh.module_vectors() == gb.module_vectors()
