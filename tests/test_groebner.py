import ast
import heapq
import inspect
import os
import random

import pytest

from cmreg import PresentedModule, free_resolution, polynomial_ring
from cmreg.freemod import FreeModule, vec_addmul, vec_degree, vec_from_column
from cmreg import groebner
from cmreg import resolution as res_mod
from cmreg.groebner import (_INDEX_BITS, GroebnerBasis, _Packing,
                            _augmented_columns, _packing, _reduce,
                            _reduce_packed, _reducers, _s_vector,
                            _schreyer_pairs, _syzygy_basis, certify,
                            defining_gb, direct_sum_basis,
                            groebner_basis, reduce_poly_mod_defining,
                            syzygy_generators)
from cmreg.modules import quotient_series
from cmreg.oracle import monomials_of_degree
from cmreg.poly import EXPONENT_CAP, Polynomial, mono_deg, mono_mul
from cmreg.regularity import regularity
from cmreg.session import parse_session
from cmreg.theorems import nilpotent_scroll_family, random_ideal_corpus
from fieldops import field_ops
from test_oracle import SESSIONS, over_field
from monomials import mono_div, mono_divides, mono_lcm, term_key


def vecs_from_polys(polys):
    return [vec_from_column([f]) for f in polys]


def make_elem(vec, K, twists):
    """A monic GBElem from a nonzero tuple-dict vector, packed in position
    over grevlex."""
    P = _packing(len(next(iter(vec))[1]), len(twists))
    return groebner._elem(P.encode_vec(vec), K, twists, P)


def terms(g):
    """The packed terms {h: c} of a monic element, lead first (its
    coefficient 1 equals the field's one over every field)."""
    return dict(g.items(1))


def decode(g, n):
    """The tuple dict of an element over n variables packed in position
    over grevlex (the shared packing already covers every position it was
    packed in)."""
    return _packing(n, g.pos + 1).decode_vec(g.items(1))


def own_heads(nvars, n):
    """Trace heads for n elements: element i's head is e_i in position
    over grevlex.  A quotient offset is a multiple of 2^W in every
    packing, so whatever the reducers' packing, a recorded term q e_i is
    that packing's term (i, q) and reads back through `split_head` (or
    through the packing's `decode_vec`)."""
    P = _packing(nvars, n)
    return [P.head(i) for i in range(n)]


def split_head(nvars, h):
    """(i, q) of a term q e_i packed as in `own_heads`."""
    i = h & _Packing.M
    return i, _packing(nvars, i + 1).mono(h)


def test_determinantal_ideal_basis(S4):
    # frozen: these three generators are already a basis under grevlex,
    # after replacing x*t - y*z by its normalized form
    x, y, z, t = S4.gens()
    gb = defining_gb(S4.quotient([x * x, x * z, x * t - y * z]))
    polys = [Polynomial(S4, {m: c for (_, m), c in decode(g, 4).items()})
             for g in gb]
    assert sorted(str(f) for f in polys) == sorted(
        ["x^2", "x*z", "y*z + 32002*x*t"])


def test_basis_is_certified(S3):
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    gb = groebner_basis(vecs_from_polys([x * y - z * z, y * y, x * z]), S3, F)
    assert certify(gb)


def test_normal_form_idempotent(S3):
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    gb = groebner_basis(vecs_from_polys([x * x - y * z, y * y]), S3, F)
    v = vec_from_column([x ** 3 + y ** 3 + z ** 3])
    r1 = gb.normal_form(v)
    r2 = gb.normal_form(r1)
    assert r1 == r2


def test_membership(S3):
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    gb = groebner_basis(vecs_from_polys([x * x, x * y]), S3, F)
    assert gb.contains(vec_from_column([x * x * z + x * y * y]))
    assert not gb.contains(vec_from_column([x * z]))


def test_syzygies_annihilate_generators(S3):
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    gens = [x * x, x * y - z * z, y * z]
    gb = groebner_basis(vecs_from_polys(gens), S3, F)
    rows = gb.module_vectors()
    syzygies = syzygy_generators(gb)[1].module_vectors()
    assert syzygies
    K = S3.field
    for syz in syzygies:
        total = {}
        for (i, mono), c in syz.items():
            vec_addmul(total, rows[i], {mono: c}, K.characteristic)
        assert not total


def test_reduction_in_quotient_ring(det_ring):
    x, y, z, t = det_ring.gens()
    assert reduce_poly_mod_defining(det_ring, x * x).is_zero()
    assert reduce_poly_mod_defining(det_ring, x * t - y * z).is_zero()
    nonzero = reduce_poly_mod_defining(det_ring, y * z)
    assert not nonzero.is_zero()


# -- the reduction kernel against a naive reference ----------------------

def naive_reduce(vec, elems, K):
    """Reference normal form: the largest term by max over term_key, the
    reducer by a linear scan for the leftmost divisor."""
    K = field_ops(K)
    rem, work, trace = {}, dict(vec), {}
    while work:
        t = max(work, key=term_key)
        pos, mono = t
        c = work[t]
        P = _packing(len(mono), 1)
        hit = next((i for i, g in enumerate(elems) if g.pos == pos
                    and mono_divides(P.monomial(g.word), mono)), None)
        if hit is None:
            del work[t]
            rem[t] = c
            continue
        g = elems[hit]
        q = mono_div(mono, P.monomial(g.word))
        for (p2, m2), c2 in decode(g, len(mono)).items():
            u = (p2, mono_mul(m2, q))
            s = K.sub(work.get(u, K.zero), K.mul(c, c2))
            if K.is_zero(s):
                work.pop(u, None)
            else:
                work[u] = s
        slot = trace.setdefault(hit, {})
        s = K.add(slot.get(q, K.zero), c)
        if K.is_zero(s):
            slot.pop(q, None)
        else:
            slot[q] = s
    return rem, trace


def random_vec(rng, ring, twists, deg, nterms):
    """A homogeneous vector of internal degree deg with up to nterms terms
    per position and random nonzero coefficients."""
    K = ring.field
    vec = {}
    for p, tw in enumerate(twists):
        monos = monomials_of_degree(ring.nvars, deg - tw)
        for m in rng.sample(monos, min(nterms, len(monos))):
            c = K.from_int(rng.randint(1, 50) * rng.choice((1, -1)))
            if c:
                vec[(p, m)] = c
    return vec


def assert_kernel_matches(vec, elems, K):
    n = len(next(iter(vec))[1])
    P = _packing(n, 1 + max(p for p, _ in vec))
    rem, trace = _reduce(vec, _reducers(elems), K, P, own_heads(n, len(elems)))
    ref_rem, ref_trace = naive_reduce(vec, elems, K)
    # same terms in the same (decreasing) order, same quotients, negated
    assert list(rem.items()) == list(ref_rem.items())
    neg = field_ops(K).neg
    assert trace == {(i, q): neg(c) for i, quot in ref_trace.items()
                     for q, c in quot.items()}
    # vec = sum_i q_i e_i + r
    total = dict(rem)
    for (i, q), c in trace.items():
        vec_addmul(total, decode(elems[i], n), {q: neg(c)}, K.characteristic)
    assert total == vec
    plain, none = _reduce(vec, _reducers(elems), K, P)
    assert plain == rem and none is None


def lift(vec, shift):
    """vec times x_1^shift."""
    return {(p, (m[0] + shift,) + m[1:]): c for (p, m), c in vec.items()}


def check_kernel_on_random_vectors(rational, twists, nvars, shift):
    rng = random.Random(20131119 + len(twists) + rational)
    names = ["x", "y", "z"] if nvars == 3 else [f"x{i}" for i in range(nvars)]
    ring = polynomial_ring(names, rational=rational)
    K = ring.field
    F = FreeModule(ring, twists)
    # a generic rank-3 module in 8 variables has too large a basis for a
    # unit test; fewer generators with one term per position keep it small
    small = nvars == 8 and len(twists) > 1
    for _ in range(4):
        gens = [random_vec(rng, ring, twists, rng.randint(2, 3), 1 if small else 3)
                for _ in range(3 if small else 2 + len(twists))]
        gb = groebner_basis([g for g in gens if g], ring, F)
        # a Groebner basis, and a plain reducer list that is not one
        reducer_lists = [gb.elements,
                         [make_elem(g, K, twists) for g in gens if g]]
        for elems in reducer_lists:
            if shift:
                elems = [make_elem(lift(decode(g, ring.nvars), shift), K, twists)
                         for g in elems]
            for _ in range(5):
                vec = random_vec(rng, ring, twists, rng.randint(3, 5), 6)
                assert_kernel_matches(lift(vec, shift), elems, K)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("twists", [(0,), (0, 1, 1)])
def test_kernel_matches_naive_reference(rational, twists):
    check_kernel_on_random_vectors(rational, twists, 3, 0)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("twists", [(0,), (0, 1, 1)])
@pytest.mark.parametrize("nvars, shift", [
    (8, 0),
    # vectors of degree <= 5 times x^shift: exponents up to the cap itself
    (3, EXPONENT_CAP - 5),
])
def test_kernel_matches_naive_reference_wide_and_near_cap(rational, twists,
                                                          nvars, shift):
    check_kernel_on_random_vectors(rational, twists, nvars, shift)


def test_kernel_matches_naive_reference_on_augmented_columns(det_ring):
    rng = random.Random(7)
    F = FreeModule(det_ring, (0, 1, 0))
    elems = _augmented_columns(det_ring, F)
    for _ in range(10):
        vec = random_vec(rng, det_ring, F.twists, rng.randint(2, 4), 8)
        assert_kernel_matches(vec, elems, det_ring.field)


def test_mono_mul_exponent_cap():
    assert mono_mul((EXPONENT_CAP - 1, 2), (1, 0)) == (EXPONENT_CAP, 2)
    with pytest.raises(OverflowError):
        mono_mul((EXPONENT_CAP, 0), (1, 0))
    with pytest.raises(OverflowError):
        mono_mul((0, 0, 3), (0, 0, EXPONENT_CAP - 2))


def test_s_vector_past_the_cap_raises(S3):
    # the S-vector of y^2 - x*z and x^65535*y needs x^65536*z
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    big = S3.monomial((EXPONENT_CAP, 1, 0))
    with pytest.raises(OverflowError):
        groebner_basis(vecs_from_polys([y * y - x * z, big]), S3, F)
    # the builder itself raises, also where such terms could cancel later
    K = S3.field
    gi, gj = (make_elem(v, K, (0,)) for v in vecs_from_polys([y * y - x * z, big]))
    P = _packing(3, 1)
    hl = P.encode(0, mono_lcm(P.monomial(gi.word), P.monomial(gj.word)))
    for a, b in ((gi, gj), (gj, gi)):
        with pytest.raises(OverflowError):
            _s_vector(a, b, hl, K, P.G)


def test_reduction_past_the_cap_raises(S3):
    # x^65535*y^2 reduced by y^2 - x*z: the tail times the quotient is
    # x^65536*z
    K = S3.field
    g = make_elem({(0, (0, 2, 0)): K.one, (0, (1, 0, 1)): K.from_int(-1)}, K, (0,))
    vec = {(0, (EXPONENT_CAP, 2, 0)): K.one}
    with pytest.raises(OverflowError):
        _reduce(vec, _reducers([g]), K, _packing(3, 1))
    with pytest.raises(OverflowError):
        naive_reduce(vec, [g], K)


# -- the pair update against every pair ------------------------------------

def naive_buchberger(gens, K, twists, P):
    """Reference: every same-position pair of the packed generators and of
    each remainder reduced, with no criterion.  Returns (basis, number of
    S-vectors reduced)."""
    basis = [groebner._elem(v, K, twists, P) for v in gens if v]
    queue = [(i, j) for j in range(len(basis)) for i in range(j)
             if basis[i].pos == basis[j].pos]
    done = 0
    while queue:
        i, j = queue.pop(0)
        gi, gj = basis[i], basis[j]
        hl = P.encode(gi.pos, mono_lcm(P.monomial(gi.word),
                                       P.monomial(gj.word)))
        s, _, _ = _s_vector(gi, gj, hl, K, P.G)
        r, _ = _reduce_packed(s, _reducers(basis), K, P)
        done += 1
        if r:
            basis.append(groebner._elem(r, K, twists, P))
            j = len(basis) - 1
            queue += [(i, j) for i in range(j) if basis[i].pos == basis[j].pos]
    return basis, done


def reduced(elems, K, P):
    return [(g.lead, g.tail) for g in groebner._interreduce(elems, K, P)]


@pytest.fixture
def s_vectors_in_buchberger(monkeypatch):
    """The number of S-vectors `_buchberger` builds from now on."""
    inside, count = [0], [0]
    buchberger, s_vector = groebner._buchberger, groebner._s_vector

    def counting_buchberger(*args, **kwargs):
        inside[0] += 1
        try:
            return buchberger(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counting_s_vector(*args):
        if inside[0]:
            count[0] += 1
        return s_vector(*args)

    monkeypatch.setattr(groebner, "_buchberger", counting_buchberger)
    monkeypatch.setattr(groebner, "_s_vector", counting_s_vector)
    return count


@pytest.mark.parametrize("field", [
    pytest.param({"p": 32003}, id="GF(32003)"),
    pytest.param({"p": 4294967311}, id="GF(4294967311)"),
    pytest.param({"rational": True}, id="QQ")])
@pytest.mark.parametrize("twists, quotient", [((0,), False), ((0, 1, 1), False),
                                              ((0,), True), ((0, 1, 1), True)])
def test_pair_update_gives_the_all_pairs_basis(s_vectors_in_buchberger,
                                               field, twists, quotient):
    # `_buchberger` then `_interreduce` against a run that reduces every
    # same-position pair: the same reduced basis, from scratch and seeded
    # with `known`, with fewer S-vectors
    rng = random.Random(20261020 + 2 * len(twists) + quotient)
    ring = polynomial_ring(["x", "y", "z"], **field)
    if quotient:
        x, y, z = ring.gens()
        ring = ring.quotient([x * x - y * z, x * z])
    K, P = ring.field, _packing(3, len(twists))
    aug = [terms(a) for a in _augmented_columns(ring, FreeModule(ring, twists))]
    # one term per position keeps rank-3 bases over QQ small
    nterms = 1 if len(twists) > 1 else 3
    naive_count = 0
    grown = 0
    for _ in range(3):
        gens = [P.encode_vec(v) for v in (
            wide_vec(rng, ring, twists, rng.randint(2, 3), nterms)
            for _ in range(len(twists) + 3)) if v]
        first, rest = gens[:len(gens) // 2] + aug, gens[len(gens) // 2:]
        want, done = naive_buchberger(first, K, twists, P)
        naive_count += done
        got = groebner._buchberger(first, K, twists, P)
        assert reduced(got, K, P) == reduced(want, K, P)
        grown += len(want) > len(first)
        known = groebner._interreduce(got, K, P)
        want, done = naive_buchberger([terms(g) for g in known] + rest, K,
                                      twists, P)
        naive_count += done
        got = groebner._buchberger(rest, K, twists, P, known)
        assert reduced(got, K, P) == reduced(want, K, P)
    assert grown  # not vacuous: some S-vector reduced to a new element
    assert s_vectors_in_buchberger[0] < naive_count


def test_the_product_criterion_only_holds_at_rank_one(S2):
    # (x, y) and (y^2, x) have coprime leads x e_0 and y^2 e_0, but their
    # S-vector (0, y^3 - x^2) does not reduce to zero against them
    # (module docstring), so a run at rank two must form it
    x, y = S2.gens()
    K, P = S2.field, _packing(2, 2)
    twists = (0, 0)
    gens = [P.encode_vec(vec_from_column(col)) for col in ([x, y], [y * y, x])]
    want, _ = naive_buchberger(gens, K, twists, P)
    got = groebner._buchberger(gens, K, twists, P)
    assert reduced(got, K, P) == reduced(want, K, P)
    assert [decode(g, 2) for g in got[2:]] == [vec_from_column([S2.zero_poly(), y ** 3 - x * x])]
    gi, gj = got[:2]
    mi, mj = P.monomial(gi.word), P.monomial(gj.word)
    lcm = mono_lcm(mi, mj)
    assert gi.pos == gj.pos and lcm == mono_mul(mi, mj)
    s, _, _ = _s_vector(gi, gj, P.encode(gi.pos, lcm), K, P.G)
    r, _ = _reduce_packed(s, _reducers(got[:2]), K, P)
    assert P.decode_vec(r.items()) == vec_from_column([S2.zero_poly(), y ** 3 - x * x])


def test_the_pair_update_forms_fewer_s_vectors_on_the_corpus(
        s_vectors_in_buchberger):
    # one regularity() pass over the corpus built 2434 S-vectors in
    # `_buchberger` with a chain criterion checked at each pop; the
    # Gebauer-Moeller update builds 2394
    for inst in random_ideal_corpus(count=30):
        regularity(inst.module)
    assert s_vectors_in_buchberger[0] < 2434


# -- the Schreyer pair selection against all S-pairs ----------------------

def naive_syzygy_generators(gb):
    """Reference: the trace syzygies of every same-position S-pair, two
    defining columns included, in the packing and the lead-index order of
    `syzygy_generators` (`_syzygy_basis`); over a quotient ring, without
    duplicates."""
    K = field_ops(gb.ring.field)
    P = gb.packing
    mod = gb.module_elements
    ext = list(mod) + _augmented_columns(gb.ring, gb.free)
    reducers = _reducers(ext)
    n_mod = len(mod)
    F = FreeModule(gb.ring, tuple(g.deg for g in mod))
    Q = P.schreyer([g.lead for g in mod])
    n = gb.ring.nvars
    heads = own_heads(n, len(ext))
    out = []
    for j in range(len(ext)):
        for i in range(j):
            gi, gj = ext[i], ext[j]
            if gi.pos != gj.pos:
                continue
            lcm = mono_lcm(P.monomial(gi.word), P.monomial(gj.word))
            s, di, dj = _s_vector(gi, gj, P.encode(gi.pos, lcm), K, P.G)
            r, trace = _reduce_packed(s, reducers, K, P, heads)
            assert not r
            # the trace holds -q_k e_k; read each term back as (k, q) and
            # pack it again as q e_k in the Schreyer order Q
            syz = {}
            for (k, q), c in [(split_head(n, heads[i] + di), K.one),
                              (split_head(n, heads[j] + dj), K.neg(K.one))] + [
                    (split_head(n, t), c) for t, c in trace.items()]:
                if k >= n_mod:
                    continue
                t = Q.encode(k, q)
                s2 = K.add(syz.get(t, K.zero), c)
                if K.is_zero(s2):
                    syz.pop(t, None)
                else:
                    syz[t] = s2
            if syz:
                out.append(syz)
    if not gb.ring.is_polynomial:
        out = unique(out)
    basis = _syzygy_basis(gb.ring, F, Q, [groebner._elem(syz, gb.ring.field,
                                                         F.twists, Q)
                                          for syz in out])
    return basis.module_elements, basis


def unique(syzygies):
    """The packed syzygies {h: c} without repeats, in first-seen order."""
    seen, out = set(), []
    for syz in syzygies:
        key = frozenset(syz.items())
        if key not in seen:
            seen.add(key)
            out.append(syz)
    return out


def unit_rank(vecs, K):
    """Rank over K of the constant coefficients of vecs."""
    K = field_ops(K)
    rows = [{p: c for (p, m), c in v.items() if not any(m)} for v in vecs]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        p0, c0 = next(iter(row.items()))
        rank += 1
        for r in rows:
            f = r.get(p0)
            if f is None:
                continue
            f = K.mul(f, K.inv(c0))
            for p, c in row.items():
                v = K.sub(r.get(p, K.zero), K.mul(f, c))
                if K.is_zero(v):
                    r.pop(p, None)
                else:
                    r[p] = v
    return rank


def as_keys(vecs):
    return {frozenset(v.items()) for v in vecs}


def syzygy_test_ring(rational, quotient):
    """k[x,y,z], or the ring of `det_ring` over the same field (rank-3
    modules over QQ in four variables grow too large for a unit test)."""
    if not quotient:
        return polynomial_ring(["x", "y", "z"], rational=rational)
    ring = polynomial_ring(["x", "y", "z", "t"], rational=rational)
    x, y, z, t = ring.gens()
    return ring.quotient([x * x, x * z, x * t - y * z])


def compare_with_all_pairs(rational, twists, quotient, seed):
    """Counts (pruned, naive, units) over seeded random modules, after
    asserting subset, generation and unit rank on each: every constant
    coefficient of a syzygy comes from a selected one of its degree."""
    rng = random.Random(seed)
    ring = syzygy_test_ring(rational, quotient)
    K = ring.field
    F = FreeModule(ring, twists)
    counts = [0, 0, 0]
    # one term per position keeps rank-3 bases over QQ small
    nterms = 1 if len(twists) > 1 else 2
    for _ in range(3):
        gens = [random_vec(rng, ring, twists, rng.randint(2, 3), nterms)
                for _ in range(len(twists) + 2)]
        gb = groebner_basis([g for g in gens if g], ring, F)
        assert certify(gb)
        _, basis = syzygy_generators(gb)
        _, naive_basis = naive_syzygy_generators(gb)
        pruned, naive = basis.module_vectors(), naive_basis.module_vectors()
        F1 = basis.free
        assert F1.twists == naive_basis.free.twists
        assert as_keys(pruned) <= as_keys(naive)
        gen = groebner_basis(pruned, ring, F1)
        assert all(gen.contains(v) for v in naive)
        counts[0] += len(pruned)
        counts[1] += len(naive)
        units = unit_rank(naive, K)
        assert unit_rank(pruned, K) == units
        counts[2] += units
    return counts


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("twists", [(0,), (0, 1, 1)])
@pytest.mark.parametrize("rational", [False, True])
def test_selected_pairs_generate_the_syzygies(rational, twists, quotient):
    pruned, naive, units = compare_with_all_pairs(
        rational, twists, quotient, 20131121 + 2 * len(twists) + quotient)
    # not vacuous: the selection drops syzygies, and units occur
    assert pruned < naive
    assert units > 0


@pytest.mark.parametrize("twists", [(0,), (0, 1, 1)])
def test_syzygies_are_a_groebner_basis_in_the_schreyer_order(twists):
    # Schreyer's theorem, two levels up: the selected syzygies pass
    # Buchberger's criterion in their own packing, and every all-pairs
    # syzygy reduces to zero against them
    rng = random.Random(20261018 + len(twists))
    ring = syzygy_test_ring(False, False)
    F = FreeModule(ring, twists)
    levels = 0
    for _ in range(3):
        gens = [random_vec(rng, ring, twists, rng.randint(2, 3), 2)
                for _ in range(len(twists) + 2)]
        gb = groebner_basis([g for g in gens if g], ring, F)
        while gb.module_indices:
            _, syz = syzygy_generators(gb)
            vecs = syz.module_vectors()
            assert certify(syz)
            assert all(syz.contains(v) for v in
                       naive_syzygy_generators(gb)[1].module_vectors())
            K = ring.field
            rows = gb.module_vectors()
            for g, v in zip(syz.elements, vecs):
                total = {}
                for (k, mono), c in v.items():
                    vec_addmul(total, rows[k], {mono: c}, K.characteristic)
                assert not total
                assert v[(g.pos, syz.packing.monomial(g.word))] == K.one
            gb = syz
            levels += 1
    assert levels >= 6


def summed_neighbours(elems, K):
    """g_k + g_{k+1} for consecutive packed elements, as packed terms."""
    p = K.characteristic
    out = []
    for g, h in zip(elems, elems[1:]):
        v = terms(g)
        for t, c in terms(h).items():
            c = v.get(t, 0) + c
            v[t] = c % p if p else c
        out.append({t: c for t, c in v.items() if c})
    return out


def test_buchberger_runs_in_a_schreyer_packing():
    # `_buchberger` reads the layout through its packing alone, so it runs
    # on syzygies in the Schreyer order their basis induces: sums of
    # consecutive syzygies, which are no Groebner basis, grow into the
    # all-pairs basis, which `certify` accepts and against which each sum
    # reduces to zero; the syzygies themselves, a Groebner basis already
    # (Schreyer's theorem), gain no element
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    modules = [PresentedModule.cyclic(S, [x * x, x * y, y * z * z, z ** 3]),
               PresentedModule(S, FreeModule(S, (0, 1)), [
                   vec_from_column(col) for col in (
                       [x * x, y], [x * y, z], [y ** 3, x * z],
                       [S.zero_poly(), z ** 3])])]
    modules += [inst.module for inst in random_ideal_corpus()[:10]]
    grown = 0
    for M in modules:
        _, syz = syzygy_generators(M.gb())
        K, Q, twists = S.field, syz.packing, syz.free.twists
        # the Schreyer order is the one packing class over the leads
        assert Q.bases == [g.lead >> _INDEX_BITS
                           for g in M.gb().module_elements]
        elems = syz.elements
        before = groebner._buchberger([terms(g) for g in elems], K, twists, Q)
        assert len(before) == len(elems)
        assert sorted(g.lead for g in before) == sorted(g.lead for g in elems)
        sums = summed_neighbours(elems, K)
        if not sums:
            continue
        got = groebner._interreduce(groebner._buchberger(sums, K, twists, Q),
                                    K, Q)
        want, _ = naive_buchberger(sums, K, twists, Q)
        assert [(g.lead, g.tail) for g in got] == reduced(want, K, Q)
        gb = GroebnerBasis(M.ring, syz.free, got, list(range(len(got))), Q)
        assert certify(gb)
        groups = gb._reducer_groups()
        assert all(not _reduce_packed(dict(v), groups, K, Q)[0] for v in sums)
        start = [groebner._elem(v, K, twists, Q) for v in sums]
        grown += not certify(GroebnerBasis(M.ring, syz.free, start,
                                           list(range(len(start))), Q))
    assert grown >= 3  # not vacuous: most inputs were no Groebner basis


# -- one packing class: an order is a list of bases -------------------------

@pytest.mark.parametrize("rank", [1, 3, 7])
def test_position_over_grevlex_is_the_schreyer_layout_over_its_heads(rank):
    # the Schreyer construction over the leads head(c) gives back position
    # over grevlex term for term, and a term packs to the same int in a
    # larger free module
    n = 3
    P = _packing(n, rank)
    Q = P.schreyer([P.head(c) for c in range(rank)])
    R = _Packing(n, [])
    R.grow(1)
    small = {m: R.encode(0, m) for d in range(4)
             for m in monomials_of_degree(n, d)}
    R.grow(rank)
    for c in range(rank):
        assert Q.head(c) == P.head(c)
        for d in range(4):
            for m in monomials_of_degree(n, d):
                h = P.encode(c, m)
                assert Q.encode(c, m) == R.encode(c, m) == h
                assert Q.decode_vec([(h, 1)]) == {(c, m): 1}
                assert c or small[m] == h


def test_a_degree_first_order_is_a_list_of_bases():
    # e_p's level-0 term is 1 in degree twist_p: terms compare by total
    # degree, then grevlex, then position.  `_buchberger` runs unchanged on
    # corpus cokernels in that order, `certify` accepts its bases, and by
    # Macaulay's theorem the quotient has the series of the
    # position-over-grevlex run
    differ = 0
    for inst in random_ideal_corpus()[:10]:
        S = inst.ring
        K, n = S.field, S.nvars
        res = free_resolution(inst.module)
        for i, cols in res.cols.items():
            F = FreeModule(S, res.twists[i - 1])
            P = _packing(n, F.rank)
            T = _Packing(n, [P.one - (t << P.B) for t in F.twists])
            want = groebner_basis(cols, S, F)
            elems = groebner._buchberger([T.encode_vec(v) for v in cols],
                                         K, F.twists, T)
            got = GroebnerBasis(S, F, elems, None, T)
            assert certify(got)
            assert quotient_series(got) == quotient_series(want)
            differ += (sorted(got.lead_words())
                       != sorted(want.lead_words()))
    assert differ >= 3  # not vacuous: the two orders pick other leads


def test_frame_leads_lose_a_variable_at_every_level():
    # Lead-index order sorts one position by the exponent of a variable v
    # present in the leads, decreasing, so the next level's leads lack v
    # and every variable these lack: a frame over n variables has at most
    # n levels past its first.  Seeded modules with leads such as y^2 and
    # x z in one position, which grevlex alone orders the other way.
    rng = random.Random(20261019)
    ring = syzygy_test_ring(False, False)

    def absent(gb):
        return {v for v in range(ring.nvars)
                if not any(gb.packing.monomial(g.word)[v]
                           for g in gb.elements)}

    for twists in [(0,), (0, 1, 1)] * 4:
        F = FreeModule(ring, twists)
        gens = [random_vec(rng, ring, twists, rng.randint(2, 3), 2)
                for _ in range(len(twists) + 3)]
        _, level = syzygy_generators(groebner_basis([g for g in gens if g],
                                                    ring, F))
        depth = 0
        while level.elements:
            _, nxt = syzygy_generators(level)
            assert not nxt.elements or absent(nxt) > absent(level)
            level, depth = nxt, depth + 1
        assert depth <= ring.nvars


def test_certify_rejects_a_non_basis(S3):
    # S(xy - z^2, y^2) = -y z^2, which neither lead term divides
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    K = S3.field
    elems = [make_elem(v, K, (0,)) for v in vecs_from_polys([x * y - z * z, y * y])]
    assert not certify(GroebnerBasis(S3, F, elems, [0, 1]))
    assert certify(groebner_basis(vecs_from_polys([x * y - z * z, y * y]), S3, F))


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("twists", [(0,), (0, 1, 1)])
def test_lift_writes_a_member_on_the_module_elements(twists, quotient):
    rng = random.Random(20261018 + len(twists) + quotient)
    ring = syzygy_test_ring(False, quotient)
    K = ring.field
    F = FreeModule(ring, twists)
    zero = groebner_basis([], ring, F)  # reduces modulo the defining ideal
    for _ in range(3):
        gens = [g for g in (random_vec(rng, ring, twists, rng.randint(2, 3), 1)
                            for _ in range(len(twists) + 2)) if g]
        gb = groebner_basis(gens, ring, F)
        elems = gb.module_elements
        rows = gb.module_vectors()
        top = max(vec_degree(g, twists) for g in gens) + 1
        vec = {}
        for g in gens:
            mono = rng.choice(monomials_of_degree(ring.nvars,
                                                  top - vec_degree(g, twists)))
            vec_addmul(vec, g, {mono: K.from_int(rng.randint(1, 50))},
                       K.characteristic)
        c = gb.lift(vec)
        assert vec_degree(c, [g.deg for g in elems]) == top
        total = {}
        for (k, mono), a in c.items():
            vec_addmul(total, rows[k], {mono: a}, K.characteristic)
        vec_addmul(total, vec, {(0,) * ring.nvars: K.from_int(-1)},
                   K.characteristic)
        assert not zero.normal_form(total)
    with pytest.raises(ArithmeticError):
        gb.lift({(0, (0,) * ring.nvars): K.one})


# -- the inline-arithmetic kernel against the method-call kernel ----------

def method_call_reduce_packed(work, reducers, K, P, heads=None):
    """Reference: the reduction kernel written with field method calls
    (K.mul, K.sub, K.add, K.is_zero), as it was before its arithmetic went
    inline, its flat trace summed term by term."""
    K = field_ops(K)
    rem = {}
    heap = list(work)
    heapq.heapify(heap)
    trace = None if heads is None else {}
    zero, mul, sub, is_zero = K.zero, K.mul, K.sub, K.is_zero
    M, G = P.M, P.G
    while heap:
        h = heapq.heappop(heap)
        c = work.pop(h, None)
        if c is None:
            continue
        for i, lead, tail in reducers.get(h & M, ()):
            d = h - lead
            if not d & G:
                break
        else:
            rem[h] = c
            continue
        for off, c2 in tail:
            u = h + off
            w = work.get(u)
            if w is None:
                if u & G:
                    raise OverflowError("monomial exponent exceeds cap")
                work[u] = sub(zero, mul(c, c2))
                heapq.heappush(heap, u)
            else:
                s = sub(w, mul(c, c2))
                if is_zero(s):
                    del work[u]
                else:
                    work[u] = s
        if heads is not None and heads[i] is not None:
            t = heads[i] + d
            s = K.sub(trace.get(t, zero), c)
            if is_zero(s):
                trace.pop(t, None)
            else:
                trace[t] = s
    return rem, trace


def method_call_s_vector(gi, gj, hl, K, G):
    """Reference: `_s_vector` with field method calls."""
    K = field_ops(K)
    di, dj = hl - gi.lead, hl - gj.lead
    s = {gi_h + di: c for gi_h, c in terms(gi).items()}
    for h, c in terms(gj).items():
        u = h + dj
        r = K.sub(s.get(u, K.zero), c)
        if K.is_zero(r):
            s.pop(u, None)
        else:
            s[u] = r
    return s, di, dj


def tuple_schreyer_pairs(elems, P):
    """Reference: `_schreyer_pairs` with each candidate lcm taken on
    exponent tuples and encoded, as it was before it went packed."""
    groups = {}
    for i, g in enumerate(elems):
        groups.setdefault(g.pos, []).append(i)
    kept = []
    for group in groups.values():
        for a, i in enumerate(group):
            gi = elems[i]
            cands = []
            for j in group[a + 1:]:
                lcm = mono_lcm(P.monomial(gi.word), P.monomial(elems[j].word))
                cands.append((mono_deg(lcm), j, P.encode(gi.pos, lcm)))
            minimal = []
            for d, j, hl in sorted(cands):
                if all((hl - k) & P.G for k in minimal):
                    minimal.append(hl)
                    kept.append((j, i, hl))
    kept.sort()
    return [(i, j, hl) for j, i, hl in kept]


def method_call_syzygy_generators(gb):
    """Reference: the syzygy step with method-call arithmetic, pairs
    from tuple lcms, pairs of two defining columns skipped, its trace and
    then -m_j e_j summed into the syzygy term by term behind the lead,
    and duplicates always dropped.  Returns (syzygies before the
    duplicate check, basis)."""
    ring = gb.ring
    K = field_ops(ring.field)
    P = gb.packing
    mod = gb.module_elements
    ext = list(mod) + _augmented_columns(ring, gb.free)
    reducers = _reducers(ext)
    n_mod = len(mod)
    Q = P.schreyer([g.lead for g in mod])
    heads = [(b << _INDEX_BITS) + k for k, b in enumerate(Q.bases)]
    heads += [None] * (len(ext) - n_mod)
    out = []
    pairs = tuple_schreyer_pairs(ext, P)
    assert _schreyer_pairs(ext, P, len(ext)) == pairs
    pairs = [(i, j, hl) for i, j, hl in pairs if i < n_mod]
    assert _schreyer_pairs(ext, P, n_mod) == pairs
    for i, j, hl in pairs:
        s, di, dj = method_call_s_vector(ext[i], ext[j], hl, K, P.G)
        r, trace = method_call_reduce_packed(s, reducers, K, P, heads)
        assert not r
        syz = {heads[i] + di: K.one}
        summands = list(trace.items())
        if j < n_mod:
            summands.append((heads[j] + dj, K.neg(K.one)))
        for t, c in summands:
            s2 = K.add(syz.get(t, K.zero), c)
            if K.is_zero(s2):
                syz.pop(t, None)
            else:
                syz[t] = s2
        out.append(syz)
    F = FreeModule(ring, tuple(g.deg for g in mod))
    return out, _syzygy_basis(ring, F, Q, [
        groebner._elem(syz, ring.field, F.twists, Q) for syz in unique(out)])


KERNEL_FIELDS = [pytest.param({"p": 32003}, id="GF(32003)"),
                 pytest.param({"p": 4294967311}, id="GF(4294967311)"),
                 pytest.param({"rational": True}, id="QQ")]


def wide_vec(rng, ring, twists, deg, nterms):
    """`random_vec`, with coefficients spread over the whole field when
    it is GF(p) (over QQ, large ones only grow the bases)."""
    K = ring.field
    vec = random_vec(rng, ring, twists, deg, nterms)
    if K.characteristic:
        vec = {t: K.from_int(rng.randrange(1, K.characteristic)) for t in vec}
    return vec


def ordered(x):
    """A dict, or a dict of dicts, as nested item lists: equal exactly
    when the values and the insertion orders agree."""
    return [(k, ordered(v) if isinstance(v, dict) else v)
            for k, v in x.items()]


def packed_elements(basis):
    return [(g.tail, g.lead, g.pos, g.word, g.deg) for g in basis.elements]


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("twists, quotient", [((0,), False), ((0, 1, 1), False),
                                              ((0, 1), True)])
def test_inline_kernel_matches_the_method_call_kernel(monkeypatch, field,
                                                      twists, quotient):
    # same remainders, traces, lifts and frame syzygies, term for term and
    # in the same order, on seeded input
    rng = random.Random(20261019 + len(twists) + quotient)
    ring = polynomial_ring(["x", "y", "z"], **field)
    if quotient:
        x, y, z = ring.gens()
        ring = ring.quotient([x * x - y * z, x * z])
    K = ring.field
    F = FreeModule(ring, twists)
    syzygies = 0
    for _ in range(2):
        # one term per position keeps rank-3 bases over QQ small
        nterms = 1 if len(twists) > 2 else 2
        gens = [g for g in (wide_vec(rng, ring, twists, rng.randint(2, 3),
                                     nterms)
                            for _ in range(len(twists) + 2)) if g]
        gb = groebner_basis(gens, ring, F)
        groups = gb._reducer_groups()
        vecs = [wide_vec(rng, ring, twists, rng.randint(3, 4), 5)
                for _ in range(4)]
        top = max(vec_degree(g, twists) for g in gens) + 1
        members = []
        for _ in range(2):
            v = {}
            for g in gens:
                mono = rng.choice(monomials_of_degree(
                    ring.nvars, top - vec_degree(g, twists)))
                vec_addmul(v, g, {mono: K.from_int(rng.randint(1, 10 ** 12))},
                           K.characteristic)
            if v:
                members.append(v)
        P = gb.packing
        heads = own_heads(ring.nvars, len(gb.elements))
        for v in vecs + members:
            for hs in (None, heads):
                new = _reduce_packed(P.encode_vec(v), groups, K, P, hs)
                ref = method_call_reduce_packed(P.encode_vec(v), groups, K, P,
                                                hs)
                assert ordered(new[0]) == ordered(ref[0])
                assert (new[1] is None) == (hs is None)
                if hs:
                    assert ordered(new[1]) == ordered(ref[1])
            new = _reduce(v, groups, K, P, heads)
            with monkeypatch.context() as m:
                m.setattr(groebner, "_reduce_packed",
                          method_call_reduce_packed)
                ref = _reduce(v, groups, K, P, heads)
            assert ordered(new[0]) == ordered(ref[0])
            assert ordered(new[1]) == ordered(ref[1])
        for v in members:
            new = gb.lift(v)
            with monkeypatch.context() as m:
                m.setattr(groebner, "_reduce_packed",
                          method_call_reduce_packed)
                ref = gb.lift(v)
            assert ordered(new) == ordered(ref)
        # three frame levels (one over a quotient ring, whose resolution
        # decodes its syzygies)
        level = gb
        for _ in range(3 if ring.is_polynomial else 1):
            if not level.module_elements:
                break
            _, new = syzygy_generators(level)
            raw, ref = method_call_syzygy_generators(level)
            assert packed_elements(new) == packed_elements(ref)
            assert new.free.twists == ref.free.twists
            assert new.packing.bases == ref.packing.bases
            # why the step has no duplicate check: with no pair of two
            # defining columns, every syzygy has its own lead
            assert len({min(s) for s in raw}) == len(raw)
            syzygies += len(new.elements)
            level = new
    assert syzygies > 10


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_product_past_the_cap_raises_on_every_kernel_path(field):
    # x^65535*y^2 reduced by y^2 - x*z: the tail times the quotient is
    # x^65536*z, on the plain path, the trace path and the syzygy path
    ring = polynomial_ring(["x", "y", "z"], **field)
    K = ring.field
    g = make_elem({(0, (0, 2, 0)): K.one, (0, (1, 0, 1)): K.from_int(-1)},
                  K, (0,))
    vec = {(0, (EXPONENT_CAP, 2, 0)): K.from_int(3)}
    P = _packing(3, 1)
    for heads in (None, own_heads(3, 1)):
        with pytest.raises(OverflowError):
            _reduce(vec, _reducers([g]), K, P, heads)
    with pytest.raises(OverflowError):
        _reduce_packed(P.encode_vec(vec), _reducers([g]), K, P,
                       [P.schreyer([g.lead]).head(0)])
    with pytest.raises(OverflowError):
        method_call_reduce_packed(P.encode_vec(vec), _reducers([g]), K, P)


# -- the element form against the terms-dict form it replaced -------------

class TermsElem:
    """A basis element in the form GBElem had before it held a lead plus
    a tail: a dict of all its packed terms, its packed lead and cached
    lead-term data."""

    __slots__ = ("terms", "lead", "pos", "word", "deg")

    def __init__(self, terms, lead, pos, word, deg):
        self.terms = terms
        self.lead = lead
        self.pos = pos
        self.word = word
        self.deg = deg


def terms_form(g, K):
    return TermsElem(dict(g.items(K.one)), g.lead, g.pos, g.word, g.deg)


def terms_reducers(elems):
    """Reference `_reducers`: each tail rebuilt from the terms dict."""
    groups = {}
    for i, g in enumerate(elems):
        lead = g.lead
        groups.setdefault(g.pos, []).append(
            (i, lead, [(h - lead, c) for h, c in g.terms.items() if h != lead]))
    return groups


def terms_s_vector(gi, gj, hl, K, G):
    """Reference `_s_vector`: every term of both elements moved to the
    lcm, the leads cancelling there."""
    di, dj = hl - gi.lead, hl - gj.lead
    s = {}
    for h, c in gi.terms.items():
        u = h + di
        if u & G:
            raise OverflowError
        s[u] = c
    p = K.characteristic
    for h, c in gj.terms.items():
        u = h + dj
        if u & G:
            raise OverflowError
        r = s.get(u, 0) - c
        if p:
            r %= p
        if r:
            s[u] = r
        else:
            del s[u]
    return s, di, dj


def terms_interreduce(elems, K, P):
    """Reference `_interreduce`: the lead popped off a copy of the terms
    dict, the rest reduced and put back behind it."""
    elems = groebner._canonical_sort(list(elems))
    G = P.G
    groups = terms_reducers(elems)
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
            tail = dict(g.terms)
            c = tail.pop(g.lead)
            r, _ = _reduce_packed(tail, groups, K, P)
            out.append(TermsElem({g.lead: c, **r}, g.lead, g.pos, g.word, g.deg))
    return out


def terms_moved(elems, off, twists, P):
    """Reference `_moved`: every term moved by e_off - e_0."""
    s = P.head(off) - P.head(0)
    return [TermsElem({h + s: c for h, c in g.terms.items()}, g.lead + s,
                      g.pos + off, g.word,
                      mono_deg(P.monomial(g.word)) + twists[g.pos + off])
            for g in elems]


def as_decoded(P, elems, K):
    """(lead, position, degree, decoded terms in order) of each element of
    either form."""
    return [(g.lead, g.pos, g.word, g.deg, ordered(P.decode_vec(
        g.terms.items() if isinstance(g, TermsElem) else g.items(K.one))))
            for g in elems]


def recorded_buchberger_runs(monkeypatch, modules):
    """(basis, K, twists, P) of every `_buchberger` run that the
    regularity of each module makes: its own basis, the cokernels of its
    Koszul and Hom totalizations, and every seeded run on the way."""
    runs = []
    inner = groebner._buchberger

    def recording(gens, K, twists, P, known=()):
        basis = inner(gens, K, twists, P, known)
        runs.append((list(basis), K, twists, P))
        return basis

    monkeypatch.setattr(groebner, "_buchberger", recording)
    for M in modules:
        regularity(M)
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("field", [
    pytest.param({"p": 32003}, id="GF(32003)"),
    pytest.param({"rational": True}, id="QQ")])
def test_the_element_form_matches_the_terms_dict_form(monkeypatch, field):
    # `_interreduce`, `_s_vector` and `_moved` on lead plus tail against the
    # terms-dict versions they replaced, term for term and in the same
    # order after decoding, on every basis the corpus builds
    modules = [over_field(inst.module, field)
               for inst in random_ideal_corpus(count=30)]
    runs = recorded_buchberger_runs(monkeypatch, modules)
    assert len(runs) > 100
    pairs = moved = 0
    for basis, K, twists, P in runs:
        got = groebner._interreduce(basis, K, P)
        want = terms_interreduce([terms_form(g, K) for g in basis], K, P)
        assert as_decoded(P, got, K) == as_decoded(P, want, K)
        for i, j, hl in _schreyer_pairs(got, P, len(got)):
            s, di, dj = _s_vector(got[i], got[j], hl, K, P.G)
            ref, ri, rj = terms_s_vector(want[i], want[j], hl, K, P.G)
            assert (di, dj) == (ri, rj)
            assert ordered(P.decode_vec(s.items())) == ordered(
                P.decode_vec(ref.items()))
            pairs += 1
        off = 2
        wide = (0,) * off + tuple(twists)
        Q = _packing(P.nvars, len(wide))
        new = groebner._moved(got, off, wide, Q)
        assert as_decoded(Q, new, K) == as_decoded(
            Q, terms_moved(want, off, wide, Q), K)
        moved += len(new)
    assert pairs > 100 and moved > 100


def test_a_direct_sum_shares_its_blocks_tails(S3):
    # a block shift moves the lead alone: every element of the sum holds
    # its block element's own tail object, and decodes to that element
    # moved to the block's positions
    x, y, z = S3.gens()
    a = groebner_basis(vecs_from_polys([x * x - y * z, x * y + z * z]), S3,
                       FreeModule(S3, (0,)))
    b = groebner_basis([vec_from_column([y * y - x * z, x * y])], S3,
                       FreeModule(S3, (1, 1)))
    total = FreeModule(S3, (0, 1, 1))
    gb = direct_sum_basis(S3, total, [(a, 0), (b, 1)])
    blocks = a.elements + b.elements
    assert any(g.tail for g in blocks)
    assert sorted(map(id, (g.tail for g in gb.elements))) == sorted(
        map(id, (g.tail for g in blocks)))
    shifted = a.module_vectors() + [{(p + 1, m): c for (p, m), c in v.items()}
                                    for v in b.module_vectors()]
    assert sorted(map(ordered, gb.module_vectors())) == sorted(
        map(ordered, shifted))


# -- the frame step against the grouped-trace step it replaced ------------

def grouped(trace, M):
    """A flat trace {heads[k] + d: -c} in the form the kernel recorded
    before it went flat, {k: {heads[k] + d: -c}} in the order of each
    reducer's first use: every module head is e_k in its own position k,
    which is h & M."""
    out = {}
    for h, c in trace.items():
        out.setdefault(h & M, {})[h] = c
    return out


def grouped_syzygy_generators(gb):
    """Reference: the syzygy step before it read each lead once.  Every
    selected pair is reduced, two defining columns included (pairs from
    tuple lcms); the per-reducer trace is merged behind m_i e_i - m_j e_j,
    the Schreyer lead is checked by the minimum, and `grouped_syzygy_basis`
    takes the raw syzygies."""
    ring = gb.ring
    K = ring.field
    P = gb.packing
    mod = gb.module_elements
    ext = list(mod) + _augmented_columns(ring, gb.free)
    reducers = _reducers(ext)
    n_mod = len(mod)
    Q = P.schreyer([g.lead for g in mod])
    heads = [Q.head(k) for k in range(n_mod)]
    heads += [None] * (len(ext) - n_mod)
    p, one = K.characteristic, K.one
    minus_one = p - 1 if p else -one
    out = []
    for i, j, hl in tuple_schreyer_pairs(ext, P):
        s, di, dj = _s_vector(ext[i], ext[j], hl, K, P.G)
        r, trace = _reduce_packed(s, reducers, K, P, heads)
        assert not r
        syz = {}
        if i < n_mod:
            lead = heads[i] + di
            syz[lead] = one
        if j < n_mod:
            syz[heads[j] + dj] = minus_one
        for part in grouped(trace, Q.M).values():
            syz.update(part)
        assert i >= n_mod or min(syz) == lead
        if syz:
            out.append(syz)
    F = FreeModule(ring, tuple(g.deg for g in mod))
    return out, grouped_syzygy_basis(ring, F, Q, out)


def grouped_syzygy_basis(ring, F, Q, syzygies):
    """Reference `_syzygy_basis` on raw packed syzygies: duplicates
    dropped over a quotient ring, each made monic by `_elem` (lead by
    the minimum), sorted in lead-index order."""
    if not ring.is_polynomial:
        syzygies = unique(syzygies)
    elems = [groebner._elem(syz, ring.field, F.twists, Q) for syz in syzygies]
    v = next((x for x in range(ring.nvars)
              if any(Q.monomial(g.word)[x] for g in elems)), 0)
    elems.sort(key=lambda g: (g.pos, -Q.monomial(g.word)[v], g.lead))
    return GroebnerBasis(ring, F, elems, list(range(len(elems))), Q)


def items_module_constants(basis):
    """Reference `GroebnerBasis.module_constants`: every element's terms
    listed by `items` and tested against the heads."""
    Q, one = basis.packing, basis.ring.field.one
    unit = (0,) * basis.ring.nvars
    heads = {Q.head(k): k for k in range(basis.free.rank)}
    return [{(heads[h], unit): c for h, c in g.items(one) if h in heads}
            for g in basis.module_elements]


def frame_elements(basis):
    """(lead, tail terms, position, lead monomial, degree) per element, in
    order.  A frame element's tail is in the order its pair reduced, where
    it was grouped per reducer, so the tail is compared as its terms."""
    return [(g.lead, dict(g.tail), g.pos, g.word, g.deg) for g in basis.elements]


def over_rationals(M):
    """M with its coefficients read as signed integers over QQ, over the
    quotient of QQ[vars] by its ring's defining forms read the same way."""
    R = M.ring
    S = polynomial_ring(list(R.names), rational=True)
    p = R.field.characteristic

    def lift(c):
        c = int(c)
        return S.field.from_int(c - p if c > p // 2 else c)

    if not R.is_polynomial:
        S = S.quotient([Polynomial(S, {m: lift(c) for m, c in f.terms.items()})
                        for f in R.defining])
    cols = [{k: lift(c) for k, c in col.items()} for col in M.rel_cols]
    return PresentedModule(S, FreeModule(S, M.gens_free.twists), cols)


def frame_test_modules(rational):
    """The scroll family's two modules for n = 2..5, the 30 corpus
    modules and every session module, over GF(32003) or QQ."""
    mods = []
    for n in range(2, 6):
        Rn, minors, z = nilpotent_scroll_family(n)
        mods += [PresentedModule.cyclic(Rn, minors),
                 PresentedModule.cyclic(Rn, minors + [z])]
    mods += [inst.module for inst in random_ideal_corpus(count=30)]
    for name in sorted(os.listdir(SESSIONS)):
        with open(os.path.join(SESSIONS, name), encoding="utf-8") as fh:
            s = parse_session(fh.read())
        mods += [s.get(b) for b in s.order if s.kind_of(b) == "module"]
    return [over_rationals(M) for M in mods] if rational else mods


def check_words(monkeypatch, seen):
    """Check `g.word == P.word(g.lead)` on every element each builder of
    GBElems returns, counting them into seen[builder]."""
    def check(name, elems, P):
        for g in elems:
            assert g.word == P.word(g.lead), name
        seen[name] = seen.get(name, 0) + len(elems)

    elem, moved = groebner._elem, groebner._moved
    interreduce, step = groebner._interreduce, res_mod.syzygy_generators

    def checked_elem(terms, K, twists, P):
        g = elem(terms, K, twists, P)
        check("_elem", [g], P)
        return g

    def checked_moved(elems, off, twists, P):
        out = moved(elems, off, twists, P)
        check("_moved", out, P)
        return out

    def checked_interreduce(elems, K, P):
        out = interreduce(elems, K, P)
        check("_interreduce", out, P)
        return out

    def checked_step(gb):
        elems, basis = step(gb)
        check("syzygy_generators", basis.elements, basis.packing)
        return elems, basis

    monkeypatch.setattr(groebner, "_elem", checked_elem)
    monkeypatch.setattr(groebner, "_moved", checked_moved)
    monkeypatch.setattr(groebner, "_interreduce", checked_interreduce)
    monkeypatch.setattr(res_mod, "syzygy_generators", checked_step)


@pytest.mark.parametrize("rational", [False, True], ids=["GF(32003)", "QQ"])
def test_the_frame_step_matches_the_grouped_trace_step(monkeypatch, rational):
    # every syzygy step of every resolution: the frame built from each
    # known lead against the step it replaced, element by element and in
    # order, with the same constant parts, free module and packing; and
    # each builder's elements carry their lead's exponent word
    words = {}
    check_words(monkeypatch, words)
    step = res_mod.syzygy_generators
    steps = quotient_steps = 0

    def compared(gb):
        nonlocal steps, quotient_steps
        elems, basis = step(gb)
        _, ref = grouped_syzygy_generators(gb)
        assert frame_elements(basis) == frame_elements(ref)
        assert basis.module_constants() == items_module_constants(ref)
        assert basis.free.twists == ref.free.twists
        assert basis.packing.bases == ref.packing.bases
        assert elems == basis.module_elements
        steps += 1
        quotient_steps += not gb.ring.is_polynomial
        return elems, basis

    monkeypatch.setattr(res_mod, "syzygy_generators", compared)
    for M in frame_test_modules(rational):
        free_resolution(M)
    # 117 steps, 10 of them over the sessions' quotient rings
    assert steps > 100 and quotient_steps > 5
    assert all(words.get(b, 0) > 100 for b in (
        "_elem", "_interreduce", "syzygy_generators"))
    assert words.get("_moved", 0) > 10
    # every GBElem is made in one of the four checked builders
    tree = ast.parse(inspect.getsource(groebner))
    makers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for n in ast.walk(f) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "GBElem"}
    assert makers == {"_elem", "_moved", "_interreduce", "syzygy_generators"}


# -- frames reduce on read, against the eager step ------------------------

def eager_syzygy_generators(gb):
    """Reference: the syzygy step before its frames reduced on read.
    Every selected S-pair is reduced where the step runs, against the
    whole reducer list, and checked there; each element is made from its
    Schreyer lead with the trace, then -m_j e_j, as its tail, its degree
    read off its lead monomial, and the lead-index sort reads the lead
    monomials."""
    ring = gb.ring
    K = ring.field
    P = gb.packing
    mod = gb.module_elements
    ext = list(mod) + _augmented_columns(ring, gb.free)
    reducers = _reducers(ext)
    n_mod = len(mod)
    twists = tuple(g.deg for g in mod)
    Q = P.schreyer([g.lead for g in mod])
    heads = [Q.head(k) for k in range(n_mod)]
    heads += [None] * (len(ext) - n_mod)
    p = K.characteristic
    minus_one = p - 1 if p else -K.one
    out = []
    for i, j, hl in _schreyer_pairs(ext, P, n_mod):
        s, di, dj = _s_vector(ext[i], ext[j], hl, K, P.G)
        r, trace = _reduce_packed(s, reducers, K, P, heads)
        assert not r
        lead = heads[i] + di
        if j < n_mod:
            trace[heads[j] + dj] = minus_one
        assert not trace or min(trace) > lead
        out.append(groebner.GBElem(
            lead, tuple([(h - lead, c) for h, c in trace.items()]), i,
            Q.word(lead), mono_deg(Q.mono(lead)) + twists[i]))
    v = next((x for x in range(ring.nvars)
              if any(Q.mono(g.lead)[x] for g in out)), 0)
    out.sort(key=lambda g: (g.pos, -Q.mono(g.lead)[v], g.lead))
    basis = GroebnerBasis(ring, FreeModule(ring, twists), out,
                          list(range(len(out))), Q)
    return basis.module_elements, basis


def full_elements(basis):
    """(lead, tail, position, word, degree) per element, in order, the
    tail as its tuple: a frame read in full."""
    return [(g.lead, g.tail, g.pos, g.word, g.deg) for g in basis.elements]


def test_frames_read_in_full_equal_the_eager_step(monkeypatch):
    # A frame reduces each syzygy's S-pair on the first read of its tail.
    # On the scroll family for n = 2..5, the corpus, every session module,
    # and the scroll modules cut at max_len 2 and then resumed, against
    # runs with the eager step: once read in full every frame element is
    # the eager one; the Betti tables are equal; cols read after the
    # Betti numbers are the eager run's cols; and each frame's constant
    # parts, read while its tails are pending, are a full read's
    step = res_mod.syzygy_generators
    frames, constants, pending = [], {}, []

    def recording(gb):
        out = step(gb)
        frames.append((gb, out[1]))
        return out

    def read_constants():
        # the constants of each new frame, read before cols completes it
        for _, basis in frames:
            if id(basis) not in constants:
                pending.append(sum(g.tail is None for g in basis._elements))
                constants[id(basis)] = basis.module_constants()

    def modules():
        mods = frame_test_modules(False)
        for n in range(2, 6):
            R, minors, z = nilpotent_scroll_family(n)
            mods += [PresentedModule.cyclic(R, gens)
                     for gens in (minors, minors + [z])]
        return mods

    def runs(before_cols):
        out = []
        mods = modules()
        for k, M in enumerate(mods):
            # the scroll modules again, last, cut and resumed
            cuts = (2, None) if k >= len(mods) - 8 else (None,)
            tables = [res_mod.betti_table(M, max_len) for max_len in cuts]
            before_cols()
            out.append(([(t.entries, t.complete) for t in tables],
                        free_resolution(M).cols))
        return out

    with monkeypatch.context() as m:
        m.setattr(res_mod, "syzygy_generators", eager_syzygy_generators)
        eager = runs(lambda: None)
    with monkeypatch.context() as m:
        m.setattr(res_mod, "syzygy_generators", recording)
        lazy = runs(read_constants)
    assert lazy == eager
    compared = 0
    for gb, basis in frames:
        _, ref = eager_syzygy_generators(gb)
        assert full_elements(basis) == full_elements(ref)
        assert constants[id(basis)] == items_module_constants(ref)
        assert basis.free.twists == ref.free.twists
        compared += len(ref.elements)
    # not vacuous: 157 frames, 10 of them over quotient rings, with 3128
    # elements, 975 of them still pending when their constants were read
    assert len(constants) == len(frames) > 100
    assert sum(not gb.ring.is_polynomial for gb, _ in frames) > 5
    assert compared > 2000 and sum(pending) > 500, (compared, sum(pending))
