"""The homology layer reuses Groebner bases it already holds: a
totalization term's basis is its summands' bases side by side
(`direct_sum_basis`), and a cokernel's basis grows from its target's
(`groebner_basis(..., known=...)`).  Both must equal the from-scratch
reduced basis exactly.  A basis is reduced on its first read, never for
a Hilbert series, and then equals the eagerly reduced basis."""

import os

import pytest
from hypothesis import given, settings, strategies as st

import cmreg.complexes
import cmreg.groebner as groebner
import cmreg.modules
from cmreg import (FreeModule, PresentedModule, colon_by_element,
                   complex_from_module, ext_complex, hom_complex,
                   koszul_complex, koszul_resolution_of_k, parse_session,
                   polynomial_ring, tor_complex)
from cmreg.memo import _cached
from cmreg.groebner import (certify, defining_gb, direct_sum_basis,
                            groebner_basis)
from cmreg.theorems import random_ideal_corpus

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def elements(gb):
    return [(e.lead, e.tail, e.deg) for e in gb.elements]


def assert_same_basis(got, want):
    assert elements(got) == elements(want)
    assert got.module_indices == want.module_indices


def no_buchberger(*args):
    raise AssertionError("a held basis ran Buchberger")


def totalizations(C):
    """The Koszul (tensor) and Hom totalizations of C on its own ring."""
    ring = C.ring
    return [koszul_complex(list(ring.gens()), C),
            hom_complex(koszul_resolution_of_k(ring), C)]


def assert_reuse_matches_scratch(T, blocks, monkeypatch):
    """T's term bases are assembled from the bases of its blocks, the
    modules `blocks`, with no Buchberger run of their own."""
    for M in blocks:
        M.gb()
    for n, term in T.terms.items():
        with monkeypatch.context() as m:
            m.setattr(groebner, "_buchberger", no_buchberger)
            got = term.gb()
        assert_same_basis(got, groebner_basis(
            term.rel_cols, term.ring, term.gens_free))
    for n, d in T.diffs.items():
        target = d.target
        seeded = groebner_basis(d.cols, T.ring, target.gens_free,
                                known=target.gb())
        scratch = groebner_basis(list(target.rel_cols) + list(d.cols),
                                 T.ring, target.gens_free)
        assert_same_basis(seeded, scratch)
        assert certify(seeded), n


def session_objects():
    out = []
    for name in sorted(os.listdir(SESSIONS)):
        with open(os.path.join(SESSIONS, name), encoding="utf-8") as fh:
            s = parse_session(fh.read())
        for b in s.order:
            kind = s.kind_of(b)
            if kind in ("module", "complex"):
                out.append(pytest.param(s.get(b), kind, id=f"{name}:{b}"))
    return out


@pytest.mark.parametrize("inst", random_ideal_corpus(count=30),
                         ids=lambda inst: inst.name)
def test_reused_bases_match_scratch_on_corpus(inst, monkeypatch):
    C = complex_from_module(inst.module)
    for T in totalizations(C):
        assert_reuse_matches_scratch(T, C.terms.values(), monkeypatch)


@pytest.mark.parametrize("inst", random_ideal_corpus(count=6),
                         ids=lambda inst: inst.name)
def test_reused_bases_match_scratch_on_derived_complexes(inst, monkeypatch):
    # several blocks per spot, twisted copies of a module with relations
    M = inst.module
    for T in (tor_complex(M, M), ext_complex(M, M)):
        assert_reuse_matches_scratch(T, [M], monkeypatch)


@pytest.mark.parametrize("obj, kind", session_objects())
def test_reused_bases_match_scratch_on_sessions(obj, kind, monkeypatch):
    C = complex_from_module(obj) if kind == "module" else obj
    for T in totalizations(C):
        assert_reuse_matches_scratch(T, C.terms.values(), monkeypatch)


def test_a_twist_reads_its_modules_basis(monkeypatch):
    # M(d) has M's reduced basis with its degrees shifted, so once M's is
    # known the twist runs no Buchberger, over polynomial and quotient
    # rings alike, and its basis is the scratch one
    modules = [inst.module for inst in random_ideal_corpus(count=6)]
    modules += [obj for obj, kind in (p.values for p in session_objects())
                if kind == "module"]
    for M in modules:
        M.gb()
        for d in (-2, 0, 3):
            T = M.twist(d)
            with monkeypatch.context() as m:
                m.setattr(groebner, "_buchberger", no_buchberger)
                got = T.gb()
            assert_same_basis(got, groebner_basis(T.rel_cols, T.ring,
                                                  T.gens_free))


def test_koszul_homology_builds_no_term_basis_and_no_known_pair(
        monkeypatch, det_module):
    """Every term basis comes from its summands, and a seeded Buchberger
    run never forms the S-vector of two known elements."""
    M = det_module
    R = M.ring
    defining_gb(R)
    M.gb()
    runs = []
    known_pairs = []
    buchberger, s_vector = groebner._buchberger, groebner._s_vector
    current = []

    def counting_buchberger(gens, K, twists, P, known=()):
        runs.append(len(known))
        current.append({id(e) for e in known})
        try:
            return buchberger(gens, K, twists, P, known)
        finally:
            current.pop()

    def recording_s_vector(gi, gj, *args):
        if current and id(gi) in current[-1] and id(gj) in current[-1]:
            known_pairs.append((gi, gj))
        return s_vector(gi, gj, *args)

    monkeypatch.setattr(groebner, "_buchberger", counting_buchberger)
    monkeypatch.setattr(groebner, "_s_vector", recording_s_vector)
    K = koszul_complex(list(R.gens()), M)
    for i in K.levels():
        K.homology_series(i)
    assert runs and all(runs), runs  # every run is a seeded cokernel
    assert len(runs) == len(K.diffs)
    assert known_pairs == []


# -- reduction on read ----------------------------------------------------

def eager_interreduce(elems, K, twists, P):
    """Reference reduction: every pair of elements scanned for a lead
    dividing another's (of equal leads the earlier is kept), then each
    kept tail reduced by the others."""
    elems = groebner._canonical_sort(list(elems))
    kept = []
    for i, g in enumerate(elems):
        redundant = False
        for j, h in enumerate(elems):
            if i == j or h.pos != g.pos or (g.lead - h.lead) & P.G:
                continue
            redundant = h.lead != g.lead or j < i
            if redundant:
                break
        if not redundant:
            kept.append(g)
    groups = groebner._reducers(kept)
    out = []
    for i, g in enumerate(kept):
        others = dict(groups)
        others[g.pos] = [e for e in groups[g.pos] if e[0] != i]
        r, _ = groebner._reduce_packed(dict(g.items(K.one)), others, K, P)
        if r:
            out.append(groebner._elem(r, K, twists, P))
    return groebner._canonical_sort(out)


def eager_basis(vectors, ring, free, known):
    """(elements, module_indices) of `groebner_basis(vectors, ring, free,
    known=known)` reduced right after its Buchberger run."""
    K, P = ring.field, groebner._packing(ring.nvars, free.rank)
    aug = groebner._augmented_columns(ring, free)
    start = known.free.rank if known else 0
    packed = [P.encode_vec(v) for v in vectors if v]
    packed += [dict(a.items(K.one)) for a in aug if a.pos >= start]
    elems = eager_interreduce(groebner._buchberger(
        packed, K, free.twists, P, known.elements if known else ()),
        K, free.twists, P)
    if ring.is_polynomial:
        return elems, list(range(len(elems)))
    blockers = groebner._reducers(aug)
    return elems, [i for i, g in enumerate(elems)
                   if groebner._reduce_packed(dict(g.items(K.one)), blockers,
                                              K, P)[0]]


def entries(elems):
    return [(g.lead, g.tail, g.pos, g.deg) for g in elems]


@pytest.fixture
def interreduce_calls(monkeypatch):
    """The element counts of the `_interreduce` calls made from now on."""
    calls = []
    inner = groebner._interreduce

    def counting(elems, *args):
        calls.append(len(elems))
        return inner(elems, *args)

    monkeypatch.setattr(groebner, "_interreduce", counting)
    return calls


def recorded_runs(compute):
    """(vectors, ring, free, known, basis) of every `groebner_basis` call
    that compute() makes in the module and homology layers."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for owner in (cmreg.modules, cmreg.complexes):
            def recording(vectors, ring, free, *, known=None,
                          inner=owner.groebner_basis):
                gb = inner(vectors, ring, free, known=known)
                runs.append((list(vectors), ring, free, known, gb))
                return gb
            mp.setattr(owner, "groebner_basis", recording)
        compute()
    return runs


def assert_lazy_is_eager(vectors, ring, free, known, calls):
    """A fresh basis gives its series with no reduction, is reduced once
    on the first read to the eager basis, and gives the same series
    after."""
    defining_gb(ring)
    lazy = groebner_basis(vectors, ring, free, known=known)
    carrier = PresentedModule(ring, free, [])
    _cached(carrier, "gb", lambda: lazy)
    del calls[:]
    before = cmreg.modules.hilbert_series(carrier)
    assert calls == []
    got = entries(lazy.elements)
    assert len(calls) == 1
    elems, indices = eager_basis(vectors, ring, free, known)
    assert got == entries(elems)
    assert lazy.module_indices == indices
    assert cmreg.modules.hilbert_series(carrier) == before
    assert len(calls) == 1


def assert_cokernels_lazy_are_eager(M, calls):
    """M's own basis and the seeded cokernel bases of its Koszul and Hom
    totalizations."""
    assert_lazy_is_eager(M.rel_cols, M.ring, M.gens_free, None, calls)
    runs = []
    for T in totalizations(complex_from_module(M)):
        runs += recorded_runs(
            lambda T=T: [T.homology_series(i) for i in T.levels()])
    assert any(known for _, _, _, known, _ in runs)
    for vectors, ring, free, known, _ in runs:
        assert_lazy_is_eager(vectors, ring, free, known, calls)


@pytest.mark.parametrize("inst", random_ideal_corpus(count=13),
                         ids=lambda inst: inst.name)
def test_lazy_basis_is_the_eager_basis_on_corpus(inst, interreduce_calls):
    assert_cokernels_lazy_are_eager(inst.module, interreduce_calls)


QUOTIENT_SESSION_MODULES = [p for p in session_objects()
                            if p.values[1] == "module"
                            and not p.values[0].ring.is_polynomial]


@pytest.mark.parametrize("obj, kind", QUOTIENT_SESSION_MODULES)
def test_lazy_basis_is_the_eager_basis_on_quotient_sessions(
        obj, kind, interreduce_calls):
    assert_cokernels_lazy_are_eager(obj, interreduce_calls)


@pytest.mark.parametrize("which", ["corpus-101-00", "corpus-101-07",
                                   "det_module"])
def test_lazy_basis_is_the_eager_basis_on_tagged_runs(
        which, det_module, interreduce_calls):
    """The relation runs of `syzygies_of_vectors` (kernel vectors and
    presentation of a colon module): basis on gb.free plus tags."""
    if which == "det_module":
        M = det_module
    else:
        [M] = [inst.module for inst in random_ideal_corpus(count=13)
               if inst.name == which]
    x = M.ring.gens()[0]
    runs = recorded_runs(lambda: colon_by_element(M, x))
    tagged = [run for run in runs
              if run[3] is not None and run[2].rank > run[3].free.rank]
    assert tagged
    for vectors, ring, free, known, _ in tagged:
        assert_lazy_is_eager(vectors, ring, free, known, interreduce_calls)


@pytest.mark.parametrize("which", ["det_module", "corpus-101-00"])
def test_homology_series_never_interreduces(which, det_module,
                                            interreduce_calls):
    """With the term bases cached, the Koszul and Hom homology series
    reduce no basis; a cokernel basis is reduced once, on its first
    read."""
    M = (det_module if which == "det_module"
         else random_ideal_corpus(count=1)[0].module)
    defining_gb(M.ring)
    M.gb().elements
    for T in totalizations(complex_from_module(M)):
        for term in T.terms.values():
            term.gb()
        del interreduce_calls[:]
        runs = recorded_runs(
            lambda: [T.homology_series(i) for i in T.levels()])
        assert runs
        assert interreduce_calls == []
        for _, _, _, _, gb in runs:
            gb.elements
            gb.module_elements
            gb.contains({})
        assert len(interreduce_calls) == len(runs)


# -- randomized: block-diagonal sums and seeded runs -----------------------

RINGS = [polynomial_ring(["x", "y", "z"]),
         polynomial_ring(["x", "y", "z"], p=7),
         polynomial_ring(["x", "y", "z"], rational=True)]
_X, _Y, _Z = RINGS[0].gens()
RINGS.append(RINGS[0].quotient([_X * _X, _Y * _Z]))


def monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1)
            for rest in monomials(nvars - 1, d - a)]


@st.composite
def homogeneous_vectors(draw, ring, twists, count):
    """Up to `count` nonzero homogeneous vectors of the free module on
    `twists`, in degrees 1 to 3 above its lowest twist."""
    K = ring.field
    out = []
    for _ in range(draw(st.integers(0, count))):
        d = min(twists) + draw(st.integers(1, 3))
        vec = {}
        for p, t in enumerate(twists):
            if d < t:
                continue
            for m in draw(st.lists(st.sampled_from(monomials(ring.nvars, d - t)),
                                   max_size=2, unique=True)):
                c = K.from_int(draw(st.integers(-3, 3).filter(bool)))
                if c:
                    vec[(p, m)] = c
        if vec:
            out.append(vec)
    return out


@st.composite
def block_sums(draw):
    ring = draw(st.sampled_from(RINGS))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        twists = tuple(draw(st.lists(st.integers(0, 2), min_size=1,
                                     max_size=2)))
        rels = draw(homogeneous_vectors(ring, twists, 3))
        blocks.append((PresentedModule(ring, FreeModule(ring, twists), rels),
                       draw(st.integers(-2, 2))))
    return ring, blocks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(block_sums())
def test_direct_sum_basis_is_the_scratch_basis(case):
    ring, blocks = case
    twists, rels, parts = [], [], []
    for M, shift in blocks:
        off = len(twists)
        parts.append((M.gb(), off))
        twists.extend(t + shift for t in M.gens_free.twists)
        rels += [{(p + off, m): c for (p, m), c in v.items()}
                 for v in M.rel_cols]
    free = FreeModule(ring, tuple(twists))
    assert_same_basis(direct_sum_basis(ring, free, parts),
                      groebner_basis(rels, ring, free))


@st.composite
def seeded_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    twists = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    return (ring, FreeModule(ring, twists),
            draw(homogeneous_vectors(ring, twists, 3)),
            draw(homogeneous_vectors(ring, twists, 3)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeded_cases())
def test_seeded_basis_is_the_scratch_basis(case):
    ring, free, old, new = case
    known = groebner_basis(old, ring, free)
    seeded = groebner_basis(new, ring, free, known=known)
    assert_same_basis(seeded, groebner_basis(old + new, ring, free))
    assert certify(seeded)



@st.composite
def leading_seeded_cases(draw, ring):
    """A basis on F and new vectors on F + G, G a block of positions past
    F's (the tag positions of a relation run)."""
    lead = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)))
    both = lead + tuple(draw(st.lists(st.integers(0, 2), min_size=1,
                                      max_size=2)))
    return (FreeModule(ring, lead), FreeModule(ring, both),
            draw(homogeneous_vectors(ring, lead, 3)),
            draw(homogeneous_vectors(ring, both, 3)))


@pytest.mark.parametrize("ring", [RINGS[0], RINGS[3]],
                         ids=["polynomial", "quotient"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_seeded_basis_on_leading_positions_is_the_scratch_basis(ring, data):
    F, FG, old, new = data.draw(leading_seeded_cases(ring))
    seeded = groebner_basis(new, ring, FG, known=groebner_basis(old, ring, F))
    assert_same_basis(seeded, groebner_basis(old + new, ring, FG))
    assert certify(seeded)
