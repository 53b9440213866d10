import random
from itertools import combinations
from math import inf

import pytest

import cmreg.modules
from cmreg import (PresentedModule, hilbert, module_from_ideal,
                   polynomial_ring)
from cmreg.groebner import _packing
from cmreg.hilbert import (HilbertSeries, _minimalize,
                           monomial_ideal_numerator)
from cmreg.poly import EXPONENT_CAP, mono_deg, words
from cmreg.regularity import regularity
from cmreg.theorems import DEFAULT_CORPUS_SEED, random_ideal_corpus
from monomials import mono_divides, mono_lcm


def test_polynomial_ring_counts_monomials(S3):
    hs = PresentedModule.cyclic(S3, []).hilbert_series()
    # binomial(j+2, 2)
    assert [hs.coefficient(j) for j in range(6)] == [1, 3, 6, 10, 15, 21]
    assert hs.dimension() == 3
    assert hs.indeg() == 0
    assert hs.top_degree() == inf


def test_negative_degrees_vanish(S3):
    hs = PresentedModule.cyclic(S3, []).hilbert_series()
    assert hs.coefficient(-1) == 0
    assert hs.coefficient(-7) == 0


def test_complete_intersection_is_finite(S3):
    x, y, z = S3.gens()
    hs = PresentedModule.cyclic(S3, [x * x, y * y, z * z]).hilbert_series()
    assert [hs.coefficient(j) for j in range(5)] == [1, 3, 3, 1, 0]
    assert hs.dimension() == 0
    assert hs.top_degree() == 3


def test_twist_shifts_support(S3):
    x, y, z = S3.gens()
    hs = PresentedModule.cyclic(S3, [x * x, y * y, z * z]).hilbert_series()
    tw = hs.twist(2)
    for j in range(-3, 4):
        assert tw.coefficient(j) == hs.coefficient(j + 2)


def test_hypersurface_dimension(S3):
    x, y, z = S3.gens()
    hs = PresentedModule.cyclic(S3, [x * y - z * z]).hilbert_series()
    assert hs.dimension() == 2
    # 1, 3, then binomial(j+2,2) - binomial(j,2)
    assert [hs.coefficient(j) for j in range(5)] == [1, 3, 5, 7, 9]


def test_add_series(S3):
    x, y, z = S3.gens()
    a = PresentedModule.cyclic(S3, [x, y]).hilbert_series()
    b = PresentedModule.cyclic(S3, [x, z]).hilbert_series()
    c = a.add(b)
    for j in range(5):
        assert c.coefficient(j) == a.coefficient(j) + b.coefficient(j)


def test_ideal_module_complements_quotient(S3):
    x, y, z = S3.gens()
    gens = [x * x, y * z]
    I = module_from_ideal(S3, gens)
    Q = PresentedModule.cyclic(S3, gens)
    full = PresentedModule.cyclic(S3, [])
    for j in range(7):
        assert (I.hilbert_function(j) + Q.hilbert_function(j)
                == full.hilbert_function(j))


def test_numerator_cache_is_bounded(monkeypatch):
    import random

    from cmreg import hilbert
    rng = random.Random(11)
    ideals = []
    for _ in range(30):
        gens = set()
        for _ in range(rng.randint(2, 5)):
            gens.add(tuple(rng.randint(0, 3) for _ in range(4)))
        ideals.append(tuple(gens))
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", {})
    want = [hilbert.monomial_ideal_numerator(g, 4) for g in ideals]
    assert len(hilbert._NUMERATOR_CACHE) > 8

    class Watched(dict):
        peak = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            Watched.peak = max(Watched.peak, len(self))

    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", Watched())
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE_CAP", 8)
    got = [hilbert.monomial_ideal_numerator(g, 4) for g in ideals]
    assert got == want
    assert Watched.peak == 8


def minimal_tuples(gens):
    """The minimal generators of (gens), exponent tuples, as a set."""
    gens = set(gens)
    return {m for m in gens
            if not any(g != m and mono_divides(g, m) for g in gens)}


def reference_numerator(gens, nvars):
    """The colon/sum recursion on exponent tuples that pivots on x_v
    alone, uncached: its depth grows with the exponents."""
    gens = tuple(minimal_tuples(gens))
    if not gens:
        return {0: 1}
    if any(mono_deg(m) == 0 for m in gens):
        return {}
    support = [sum(1 for m in gens if m[v]) for v in range(nvars)]
    if max(support) == 1:
        out = {0: 1}
        for m in gens:
            d = mono_deg(m)
            nxt = dict(out)
            for e, c in out.items():
                nxt[e + d] = nxt.get(e + d, 0) - c
                if nxt[e + d] == 0:
                    del nxt[e + d]
            out = nxt
        return out
    v = max(range(nvars), key=lambda i: support[i])
    xv = tuple(1 if i == v else 0 for i in range(nvars))
    out = dict(reference_numerator(gens + (xv,), nvars))
    colon = reference_numerator(
        tuple(tuple(e - 1 if i == v and e else e for i, e in enumerate(m))
              for m in gens), nvars)
    for e, c in colon.items():
        out[e + 1] = out.get(e + 1, 0) + c
        if out[e + 1] == 0:
            del out[e + 1]
    return out


def inclusion_exclusion_numerator(gens, nvars):
    """sum over subsets A of the generators of (-1)^|A| t^deg lcm(A), the
    numerator the Taylor resolution gives: exact at any exponent, and
    exponential in the number of generators."""
    out = {}
    for r in range(len(gens) + 1):
        for subset in combinations(gens, r):
            lcm = (0,) * nvars
            for m in subset:
                lcm = mono_lcm(lcm, m)
            out[mono_deg(lcm)] = out.get(mono_deg(lcm), 0) + (-1) ** r
    return {d: c for d, c in out.items() if c}


def recorded_corpus_numerators(monkeypatch):
    """(gens, nvars) of every call the module layer makes to
    `monomial_ideal_numerator` on the corpus."""
    calls = []
    original = cmreg.modules.monomial_ideal_numerator

    def recording(gens, nvars):
        calls.append((gens, nvars))
        return original(gens, nvars)

    monkeypatch.setattr(cmreg.modules, "monomial_ideal_numerator", recording)
    for inst in random_ideal_corpus(seed=DEFAULT_CORPUS_SEED, count=30):
        regularity(inst.module)
    monkeypatch.undo()
    return calls


def test_numerators_match_the_reference_on_the_corpus(monkeypatch):
    # the module layer passes its leads' exponent words as they are
    calls = recorded_corpus_numerators(monkeypatch)
    assert len(calls) > 100
    assert all(type(w) is int for gens, _ in calls for w in gens)
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", {})
    for gens, nvars in calls:
        tuples = tuple(map(words(nvars).monomial, gens))
        assert (monomial_ideal_numerator(gens, nvars)
                == reference_numerator(tuples, nvars)), tuples


def random_exponent(rng, top):
    """An exponent up to top, or at or just below EXPONENT_CAP when top is
    the cap."""
    if top == EXPONENT_CAP and rng.random() < 0.5:
        return EXPONENT_CAP - rng.choice([0, 0, 1, 2, 7])
    return rng.randint(0, top)


def test_numerators_match_the_reference_on_random_ideals(monkeypatch):
    # exponent words and exponent tuples, in 1 to 6 variables, exponents
    # at the cap included; the x_v recursion is the reference where its
    # depth allows, inclusion-exclusion at any exponent
    rng = random.Random("numerators")
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", {})
    at_cap = 0
    for _ in range(400):
        nvars = rng.randint(1, 6)
        top = rng.choice([2, 4, 12, EXPONENT_CAP])
        gens = tuple(tuple(random_exponent(rng, top) for _ in range(nvars))
                     for _ in range(rng.randint(1, 7)))
        at_cap += any(EXPONENT_CAP in m for m in gens)
        want = inclusion_exclusion_numerator(gens, nvars)
        if top < EXPONENT_CAP:
            assert reference_numerator(gens, nvars) == want, gens
        packed = tuple(map(words(nvars).pack, gens))
        assert monomial_ideal_numerator(packed, nvars) == want, gens
        assert monomial_ideal_numerator(gens, nvars) == want, gens
    assert at_cap > 40


def test_an_exponent_above_the_cap_is_not_packed():
    # as `_Packing.encode` does, packing a tuple raises OverflowError,
    # also for an exponent too wide for any field
    for nvars in (1, 3, 6):
        L, P = words(nvars), _packing(nvars, 1)
        for e in (EXPONENT_CAP + 1, 1 << 20, 1 << 40):
            m = (0,) * (nvars - 1) + (e,)
            for pack in (L.pack, lambda m: P.encode(0, m),
                         lambda m: monomial_ideal_numerator((m,), nvars),
                         lambda m: _minimalize((m, m))):
                with pytest.raises(OverflowError):
                    pack(m)
        assert L.monomial(L.pack((EXPONENT_CAP,) * nvars)) == (
            (EXPONENT_CAP,) * nvars)


def checked_sum_branches(monkeypatch):
    """Every sum-branch tuple from now on, each checked against the
    minimal generators of J + (x_v^k), taken on exponent tuples; returns
    the count checked."""
    checked = [0]
    inner = hilbert._with_pivot

    def checking(gens, pivot, guard):
        got = inner(gens, pivot, guard)
        # the guard covers the top field's guard bits
        L = words((guard.bit_length() + 31) // 32)
        want = minimal_tuples(map(L.monomial, gens + (pivot,)))
        assert got == tuple(sorted(map(L.pack, want))), (gens, pivot)
        checked[0] += 1
        return got

    monkeypatch.setattr(hilbert, "_with_pivot", checking)
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", {})
    return checked


def test_the_sum_branch_keeps_the_minimal_generators(monkeypatch):
    # the pivot is inserted into J's generators that it does not divide,
    # with no second minimalizing: the corpus replay and 300 random ideals
    calls = recorded_corpus_numerators(monkeypatch)
    checked = checked_sum_branches(monkeypatch)
    for gens, nvars in calls:
        monomial_ideal_numerator(gens, nvars)
    corpus = checked[0]
    assert corpus > 100
    rng = random.Random("sum branch")
    for _ in range(300):
        nvars = rng.randint(1, 6)
        top = rng.choice([2, 4, 12])
        gens = tuple(tuple(rng.randint(0, top) for _ in range(nvars))
                     for _ in range(rng.randint(1, 7)))
        assert (monomial_ideal_numerator(gens, nvars)
                == reference_numerator(gens, nvars)), gens
    assert checked[0] - corpus > 100


def test_raw_generators_in_any_form_give_one_numerator(monkeypatch):
    # a list, a permutation and a tuple with repeated and redundant
    # generators, as exponent tuples or as words, all read the numerator
    # of the ideal they generate; each top-level tuple, as given and
    # packed, is a cache key next to the minimal word tuple
    rng = random.Random("raw keys")
    monkeypatch.setattr(hilbert, "_NUMERATOR_CACHE", {})
    for _ in range(100):
        nvars = rng.randint(1, 4)
        L = words(nvars)
        gens = tuple(tuple(rng.randint(0, 4) for _ in range(nvars))
                     for _ in range(rng.randint(1, 6)))
        want = reference_numerator(gens, nvars)
        permuted = list(gens)
        rng.shuffle(permuted)
        multiple = tuple(e + rng.randint(0, 2) for e in rng.choice(gens))
        redundant = tuple(permuted) + (multiple, gens[0])
        for raw in (gens, list(gens), tuple(permuted), redundant):
            for form in (raw, [L.pack(m) for m in raw]):
                got = monomial_ideal_numerator(form, nvars)
                assert got == want, form
                got[-1] = 7  # the caller's copy, not the cache's
                assert monomial_ideal_numerator(form, nvars) == want
                assert tuple(map(L.pack, raw)) in hilbert._NUMERATOR_CACHE
        assert _minimalize(gens) in hilbert._NUMERATOR_CACHE
        assert _minimalize(tuple(map(L.pack, gens)), L) == _minimalize(gens)


def test_a_series_divides_out_its_poles_once(monkeypatch, S3):
    # `dimension` and `top_degree` share one division by (1 - t)
    x, y, z = S3.gens()
    calls = []
    inner = HilbertSeries._divided

    def counting(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(HilbertSeries, "_divided", counting)
    for gens, dim, top in (([x * x, y * y, z * z], 0, 3),
                           ([x * y, x * z], 2, inf)):
        hs = PresentedModule.cyclic(S3, gens).hilbert_series()
        assert [hs.dimension(), hs.top_degree(), hs.top_degree(),
                hs.dimension()] == [dim, top, top, dim]
        assert calls == [hs]
        calls.clear()


def test_minimalize_keeps_the_minimal_generators_in_word_order():
    """The numerator cache key: the words of the generators no other one
    divides, once each, sorted by word, from exponent tuples or words."""
    rng = random.Random("minimalize")
    for _ in range(300):
        nvars = rng.randint(1, 6)
        L = words(nvars)
        gens = tuple(tuple(rng.choice([0, 1, 2, 3, EXPONENT_CAP])
                           for _ in range(nvars))
                     for _ in range(rng.randint(0, 12)))
        want = tuple(sorted(map(L.pack, minimal_tuples(gens))))
        assert _minimalize(gens) == want, gens
        assert _minimalize([L.pack(m) for m in gens], L) == want, gens
        # a proper divisor's word is the smaller: word order refines
        # divisibility
        for a, b in combinations(gens, 2):
            if a != b and mono_divides(a, b):
                assert L.pack(a) < L.pack(b)


def staircase_numerator(stairs):
    """Numerator of k[x, y]/(x^a_i y^b_i) for a staircase, a increasing
    and b decreasing: the corners and the inner corners of the stairs."""
    out = {0: 1}
    for a, b in stairs:
        out[a + b] = out.get(a + b, 0) - 1
    for (_, b), (a2, _) in zip(stairs, stairs[1:]):
        out[a2 + b] = out.get(a2 + b, 0) + 1
    return {d: c for d, c in out.items() if c}


def test_exponents_up_to_the_cap():
    cap = EXPONENT_CAP
    # x^cap * (y, z): resolved by S(-cap-2) -> S(-cap-1)^2
    assert monomial_ideal_numerator(
        ((cap, 1, 0), (cap, 0, 1)), 3) == {0: 1, cap + 1: -2, cap + 2: 1}
    steps = 48
    stairs = [(k * (cap // steps), (steps - k) * (cap // steps))
              for k in range(steps + 1)]
    stairs[-1] = (cap, 0)
    stairs[0] = (0, cap)
    assert (monomial_ideal_numerator(tuple(stairs), 2)
            == staircase_numerator(stairs))


def test_huge_exponents_through_the_module_layer():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    M = PresentedModule.cyclic(S, [x ** 5000 * y, x ** 5000 * z])
    hs = M.hilbert_series()
    assert hs.numerator == {0: 1, 5001: -2, 5002: 1}
    assert hs.dimension() == 2
    assert regularity(M).value == 5000


def test_a_series_is_written_over_no_fewer_variables():
    # over(n) multiplies the numerator by (1 - t)^(n - nvars); below nvars
    # it used to return another series under the smaller count:
    # 1/(1 - t)^2 over 3 variables read coefficient(2) = 1, not 3
    hs = HilbertSeries({0: 1, 1: -1}, 3)
    assert hs.coefficient(2) == 3
    for n in (3, 4, 6):
        wider = hs.over(n)
        assert wider.nvars == n
        assert [wider.coefficient(j) for j in range(6)] == [
            hs.coefficient(j) for j in range(6)]
    for n in (2, 0):
        with pytest.raises(ValueError):
            hs.over(n)
    assert HilbertSeries({}, 2).over(5) == HilbertSeries({}, 5)
