import importlib
import os
import random
from math import comb, inf

import pytest

import cmreg.modules
import cmreg.oracle
from cmreg import groebner
from cmreg import (BoundedComplex, KoszulHypothesisError, PresentedModule,
                   a_invariant, bass_table, betti_table, complex_from_module,
                   depth, depth_profile, ext_complex, free_resolution,
                   hom_complex, koszul_complex,
                   local_cohomology_table, module_from_ideal,
                   parse_session, polynomial_ring, reg_complex, reg_via_betti,
                   reg_via_duality, reg_via_ext, reg_via_koszul, regularity,
                   relative_reg, resolution_to_complex)
from cmreg.freemod import FreeModule
from cmreg.oracle import DenseOracle
from cmreg.modules import colon_by_element, quotient_by_element
from cmreg.theorems import (_random_linear_form, corpus_checks,
                            nilpotent_scroll_family, random_ideal_corpus)
from test_resolution import cut_modules, recorded_tensor_cuts
from test_sessions import SESSIONS, load, session_modules

# the package exports a function named regularity, which shadows the
# submodule as an attribute of cmreg
routes = importlib.import_module("cmreg.regularity")


def all_routes(M):
    return {
        "betti": reg_via_betti(M)[0],
        "ext": reg_via_ext(M)[0],
        "koszul": reg_via_koszul(M)[0],
        "duality": reg_via_duality(M)[0],
    }


def row_reg(table):
    """max{i + end H^i} over a local cohomology table's rows."""
    return max((i + end for i, (_, end) in table.row_support.items()),
               default=-inf)


def test_polynomial_ring_has_regularity_zero(S3):
    vals = all_routes(PresentedModule.cyclic(S3, []))
    assert set(vals.values()) == {0}


def test_zero_module_is_minus_infinity(S3):
    vals = all_routes(PresentedModule.zero(S3))
    assert set(vals.values()) == {-inf}


def test_finite_length_module_reg_is_top_degree(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, y * y, z * z])
    vals = all_routes(M)
    assert set(vals.values()) == {3}
    assert M.top_degree() == 3


def test_all_routes_on_determinantal_ring(det_module):
    vals = all_routes(det_module)
    assert set(vals.values()) == {1}


def test_report_object(det_module):
    rep = regularity(det_module)
    assert rep.agree
    assert rep.value == 1
    d = rep.as_dict()
    assert d["routes"] == {"betti": 1, "ext": 1, "koszul": 1, "duality": 1}
    # the module is free over its own ring, so relative reg is zero
    assert d["relative"]["value"] == 0 and d["relative"]["certified"]


def test_betti_bass_duality(S3):
    # over an n-variable cover: beta_{i,j}(M) = mu^{n-i, j-n}(M)
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, z * z * z])
    bt = betti_table(M).entries
    mu = bass_table(M)
    n = 3
    assert bt
    for (i, j), b in bt.items():
        assert mu.get((n - i, j - n)) == b
    for (i, j), m in mu.items():
        assert bt.get((n - i, j + n), 0) == m


def test_local_cohomology_of_polynomial_ring(S2):
    M = PresentedModule.cyclic(S2, [])
    lc = local_cohomology_table(M, window=(-5, 2))
    # one row at the Krull dimension, top degree -n
    assert set(i for (i, _) in lc.entries) == {2}
    assert lc.row_support == {2: (-inf, -2)}
    assert lc.entries[(2, -2)] == 1
    assert row_reg(lc) == 0


def test_local_cohomology_rows_run_from_depth_to_dimension():
    """Grothendieck's vanishing and non-vanishing: H^i_m(M) != 0 at i =
    depth M and i = dim M, and = 0 outside that range.  The rows come
    from the duality route; depth is read off pd (Auslander-Buchsbaum)
    and dim off the Hilbert series, layers the rows never read."""
    mods = [(inst.name, inst.module) for inst in random_ideal_corpus()]
    mods += [(f"{name}:{b}", M) for name in sorted(os.listdir(SESSIONS))
             for b, M in session_modules(name)]
    checked = 0
    for label, M in mods:
        if M.is_zero():
            continue
        rows = local_cohomology_table(M).row_support
        assert (min(rows), max(rows)) == (depth(M), M.dimension()), label
        checked += 1
    assert checked == 38


def test_a_invariant_of_polynomial_rings():
    from cmreg import polynomial_ring
    for n in range(1, 5):
        S = polynomial_ring([f"x{i}" for i in range(n)])
        assert a_invariant(S) == -n


def test_gorenstein_reg_equals_dim_plus_a(S2, ci_ring):
    x, y = S2.gens()
    R = S2.quotient([x * x + y * y])
    M = PresentedModule.cyclic(R, [])
    assert M.dimension() == 1
    assert a_invariant(R) == 0
    assert reg_via_duality(M)[0] == 1 + 0
    # zero-dimensional complete intersection: dim 0, socle degree 2
    k2 = PresentedModule.cyclic(ci_ring, [])
    assert a_invariant(ci_ring) == 2
    assert reg_via_duality(k2)[0] == 0 + 2


def test_tower_additivity():
    # complete intersections of powers: reg adds up as (a-1) + (b-1)
    from cmreg import polynomial_ring
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    for a, b in [(2, 2), (2, 3), (3, 4)]:
        M = PresentedModule.cyclic(S, [x ** a, y ** b])
        assert reg_via_duality(M)[0] == (a - 1) + (b - 1)


def test_single_form_shifts_reg_by_degree_minus_one(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [])
    for f, d in [(x, 1), (x * x + y * z, 2), (x ** 3 + y ** 3 + z ** 3, 3)]:
        L = koszul_complex([f], complex_from_module(M))
        assert reg_complex(L) == 0 + d - 1


def test_run_routes_cross_checks_a_complex(det_module):
    z = det_module.ring.gens()[2]
    L = koszul_complex([z], complex_from_module(det_module))
    value, runs = routes.run_routes(L)
    assert value == 1 == reg_complex(L)
    assert {name: v for name, (v, _) in runs.items()} == {"koszul": 1,
                                                          "betti": 1}


def test_short_exact_sequence_bounds(S3):
    # 0 -> I -> S -> S/I -> 0: each member against the other two
    x, y, z = S3.gens()
    gens = [x * x * y, y * z * z]
    I = module_from_ideal(S3, gens)
    Sfree = PresentedModule.cyclic(S3, [])
    Q = PresentedModule.cyclic(S3, gens)
    a = reg_via_ext(I)[0]
    b = reg_via_ext(Sfree)[0]
    c = reg_via_ext(Q)[0]
    assert b <= max(a, c)
    assert a <= max(b, c + 1)
    assert c <= max(b, a - 1)


def test_ideal_vs_quotient_reg(S3):
    x, y, z = S3.gens()
    gens = [x * y, y * z]
    assert (reg_via_duality(module_from_ideal(S3, gens))[0]
            == reg_via_duality(PresentedModule.cyclic(S3, gens))[0] + 1)


def test_koszul_hypothesis_error_carries_witness(det_module):
    z = det_module.ring.gens()[2]
    with pytest.raises(KoszulHypothesisError) as ei:
        reg_via_koszul(det_module, forms=[z])
    assert ei.value.spot == 1
    assert ei.value.dimension == 2
    assert "H_1" in str(ei.value)


def hypothesis_rings():
    """GF(7) and QQ, 2-4 variables: polynomial rings and the quotients by
    x - y, xy and (for four variables) (x + w, y^2)."""
    for rational in (False, True):
        for n in (2, 3, 4):
            S = polynomial_ring("xyzw"[:n], p=7, rational=rational)
            g = S.gens()
            yield S
            yield S.quotient([g[0] - g[1]])
            yield S.quotient([g[0] * g[1]])
            if n == 4:
                yield S.quotient([g[0] + g[3], g[1] * g[1]])


def test_degree_one_hilbert_functions_of_cyclic_quotients_match_the_oracle():
    # R/(forms) for linear forms over GF(7) and QQ, on polynomial rings and
    # their quotients: the Groebner layer's degree-1 Hilbert function
    # against the oracle's dense rank
    rng = random.Random(2026)
    rings = list(hypothesis_rings())
    assert len(rings) == 20
    spans = cases = 0
    for R in rings:
        for _ in range(48):
            forms = []
            while not forms:
                for _ in range(rng.randint(1, R.nvars + 1)):
                    f = sum((rng.randint(-2, 2) * v for v in R.gens()),
                            R.constant(0))
                    if not f.is_zero():
                        forms.append(f)
            M = PresentedModule.cyclic(R, forms)
            got = M.hilbert_function(1)
            assert got == DenseOracle(M, max_degree=2).hilbert_function(1)
            spans += got == 0
            cases += 1
    # the forms span the degree-1 piece often, and often do not
    assert cases == 960
    assert 100 < spans < 860


def test_koszul_route_checks_its_hypothesis_without_the_oracle(
        monkeypatch, det_module, S3):
    def refuse(*args, **kwargs):
        raise AssertionError("DenseOracle built by a regularity route")

    monkeypatch.setattr(cmreg.oracle, "DenseOracle", refuse)
    x, y, z, t = det_module.ring.gens()
    with pytest.raises(KoszulHypothesisError):
        reg_via_koszul(det_module, forms=[z])
    assert reg_via_koszul(det_module, forms=[x, y, z, t])[0] == 1
    u, v, w = S3.gens()
    M = PresentedModule.cyclic(S3, [u * u, v * v, w * w])
    assert reg_via_koszul(M, forms=[u + v, v, w])[0] == 3


def test_forms_spanning_degree_one_in_another_basis_give_the_default(
        det_module, S3):
    # behaviour pin: a probe module once told such forms to skip the
    # finite-length pass; the one pass gives the same value and witness
    x, y, z, t = det_module.ring.gens()
    assert (reg_via_koszul(det_module, forms=[x + y, y, z, t])
            == reg_via_koszul(det_module))
    u, v, w = S3.gens()
    M = PresentedModule.cyclic(S3, [u * u, u * v, v * w * w])
    assert reg_via_koszul(M, forms=[u + v, v, w]) == reg_via_koszul(M)


def test_the_koszul_route_reports_positive_spots_before_h0(S3):
    # behaviour pin: the first spot whose homology has positive dimension,
    # positive spots first and then H_0
    x, y, z = S3.gens()
    # F = S/(x) + S(-1): z is regular on F, so only H_0 is infinite
    F = PresentedModule(S3, FreeModule(S3, (0, 1)),
                        [{(0, m): c for m, c in x.terms.items()}])
    with pytest.raises(KoszulHypothesisError) as ei:
        reg_via_koszul(F, forms=[z])
    assert (ei.value.spot, ei.value.dimension) == (0, 2)
    # x on S/(x): H_1 = S/(x)(-1) and H_0 = S/(x) are both infinite
    with pytest.raises(KoszulHypothesisError) as ei:
        reg_via_koszul(PresentedModule.cyclic(S3, [x]), forms=[x])
    assert (ei.value.spot, ei.value.dimension) == (1, 2)


def test_koszul_accepts_appended_forms(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, x * y])
    base = reg_via_koszul(M)[0]
    extra = list(S3.gens()) + [x + 2 * y, y - z]
    assert reg_via_koszul(M, forms=extra)[0] == base


def test_depth_profile_routes_agree(det_module, S3):
    prof = depth_profile(det_module)
    assert len(set(prof.values())) == 1
    assert depth(det_module) == 2
    x, y, z = S3.gens()
    N = PresentedModule.cyclic(S3, [x * y, x * z])
    prof = depth_profile(N)
    assert len(set(prof.values())) == 1
    assert depth(N) == 1


def test_a_route_disagreement_raises(monkeypatch, S3):
    # a disagreement is an engine bug, not a report: regularity returned
    # a report with agree false, and depth_profile never compared its
    # three values
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, x * z])
    assert regularity(M).value == 1 and depth(M) == 1
    monkeypatch.setattr(routes, "reg_via_duality", lambda M: (5, None))
    with pytest.raises(RuntimeError, match="duality gives 5"):
        regularity(M)
    monkeypatch.setattr(routes, "grade_of_sequence", lambda forms, M: 2)
    with pytest.raises(RuntimeError, match="via_koszul gives 2"):
        depth_profile(M)


def test_the_report_takes_the_agreed_value(S3):
    # _agreed returned nothing, and the report recounted the routes' values
    assert routes._agreed("a module", {"betti": 3, "ext": 3}) == 3
    x, y, z = S3.gens()
    rep = regularity(PresentedModule.cyclic(S3, [x * y, x * z]))
    assert (rep.agree, rep.value) == (True, 1)
    assert rep.as_dict()["agree"] is True


def test_koszul_builders_refuse_forms_over_other_rings(S3):
    # forms over GF(7) raised ZeroDivisionError in the route and built a
    # Koszul complex with wrong homology; forms in other variables raised
    # struct.error
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y + 7 * y * z, x * z])
    a, b, c = polynomial_ring(["x", "y", "z"], p=7).gens()
    u, v, w, _ = polynomial_ring(["u", "v", "w", "t"]).gens()
    with pytest.raises(ValueError, match="different ring"):
        reg_via_koszul(M, forms=[a, b, c])
    with pytest.raises(ValueError, match="different ring"):
        koszul_complex([a ** 7 + b ** 7, (a + b) ** 7], M)
    with pytest.raises(ValueError, match="different ring"):
        reg_via_koszul(M, forms=[u, v, w])
    with pytest.raises(ValueError, match="different ring"):
        koszul_complex([x, a])


def test_depth_of_zero_module_is_plus_infinity(S3):
    assert depth(PresentedModule.zero(S3)) == inf


def test_relative_reg_over_quotient_ring_flags_truncation(ci_ring):
    k = PresentedModule.cyclic(ci_ring, list(ci_ring.gens()))
    rel = relative_reg(k, max_len=6)
    assert not rel.certified
    assert rel.value == 0


def test_relative_reg_certified_over_cover(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, y * z])
    rel = relative_reg(M)
    assert rel.certified
    assert rel.value == reg_via_betti(M)[0]


@pytest.mark.parametrize("route", [reg_via_betti, reg_via_ext, reg_via_koszul,
                                   reg_via_duality, reg_complex, relative_reg,
                                   regularity],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("obj", [3, None, "M"])
def test_routes_refuse_non_modules_with_type_error(route, obj):
    # relative_reg, reg_via_koszul, reg_via_duality and reg_complex raised
    # AttributeError here before they coerced their argument first
    with pytest.raises(TypeError):
        route(obj)


def _koszul_on_two_variables():
    return koszul_complex(list(polynomial_ring(["x", "y"]).gens()))


@pytest.mark.parametrize("invariant", [depth, depth_profile,
                                       local_cohomology_table],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("make", [lambda: 3, lambda: None,
                                  _koszul_on_two_variables],
                         ids=["int", "None", "complex"])
def test_module_invariants_refuse_non_modules_with_type_error(invariant,
                                                             make):
    # depth, depth_profile and local_cohomology_table raised
    # AttributeError here before they checked their argument
    with pytest.raises(TypeError):
        invariant(make())


def test_duality_route_refuses_a_complex(S3):
    x, y, _ = S3.gens()
    with pytest.raises(TypeError):
        reg_via_duality(koszul_complex([x, y]))


def test_bass_table_of_residue_field(S2):
    k = PresentedModule.cyclic(S2, list(S2.gens()))
    mu = bass_table(k)
    assert mu == {(0, 0): 1, (1, -1): 2, (2, -2): 1}


def test_ext_koszul_and_complex_routes_use_no_syzygies(monkeypatch,
                                                      det_ring):
    # the ext, koszul and duality routes read homology off Hilbert series,
    # so they must run with the syzygy primitive (kernels, subquotients)
    # switched off.  The modules are built here: a result cached on a
    # shared fixture by an earlier test would skip the computation.
    def refuse(*args, **kwargs):
        raise AssertionError("syzygies_of_vectors called")

    mods = [inst.module for inst in random_ideal_corpus(count=2)]
    mods.append(PresentedModule.cyclic(det_ring, []))
    cuts = [koszul_complex([M.ring.gens()[-1]], M) for M in mods]
    with monkeypatch.context() as mp:
        mp.setattr(cmreg.modules, "syzygies_of_vectors", refuse)
        got = [(reg_via_ext(M), reg_via_koszul(M), reg_via_duality(M),
                local_cohomology_table(M), reg_complex(M), reg_complex(L))
               for M, L in zip(mods, cuts)]
    for M, L, (ext_, kos, dual, lc, cpx, cut) in zip(mods, cuts, got):
        value, _ = reg_via_betti(M)
        assert ext_[0] == kos[0] == dual[0] == row_reg(lc) == value
        assert cpx == value
        assert cut == reg_via_betti(L)[0]


def counting(monkeypatch, name):
    """Replace routes.<name> by a wrapper; returns its call counter."""
    calls = []
    inner = getattr(routes, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(routes, name, wrapper)
    return calls


# the duality compute builds its dual complex, Hom(F, S(-n)) or, for a
# module killed by linear forms, Hom(F', S'(-n')), on this complex
DUAL = "resolution_to_complex"


def test_route_results_are_cached_on_the_object(monkeypatch):
    # a ring of its own: the duality entry lives on the cover ring, so a
    # module met in an earlier test must not have paid for it already
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()

    def fresh():
        return PresentedModule.cyclic(S, [x * x, x * y, y * z * z])

    dual = counting(monkeypatch, DUAL)
    kos = counting(monkeypatch, "_koszul_route")
    M = fresh()
    L = koszul_complex([z], M)
    first = (reg_via_duality(M), reg_via_koszul(M), reg_complex(L))
    assert (len(dual), len(kos)) == (1, 2)
    assert (reg_via_duality(M), reg_via_koszul(M), reg_complex(L)) == first
    assert (len(dual), len(kos)) == (1, 2)
    # the koszul entry is per object; the duality entry is the cover
    # ring's, which an equal module reads
    N = fresh()
    assert (reg_via_duality(N), reg_via_koszul(N),
            reg_complex(koszul_complex([z], N))) == first
    assert (len(dual), len(kos)) == (1, 4)


# -- the duality series and depth, once per module up to twist --------------
# Each test builds its own rings: the entries live on the cover ring.

def _two_generator_module(S):
    """S/(x², xy, yz²) ⊕ S/(x, y²)(-1): generators in degrees 0 and 1."""
    x, y, z = S.gens()
    A = PresentedModule.cyclic(S, [x * x, x * y, y * z * z])
    return A.direct_sum(PresentedModule.cyclic(S, [x, y * y]).twist(-1))


def _duality_invariants(M):
    lc = local_cohomology_table(M)
    return (reg_via_duality(M), depth(M),
            (lc.window, lc.entries, lc.row_support))


@pytest.mark.parametrize("d", [-2, 3])
def test_duality_and_depth_run_once_per_module_up_to_twist(monkeypatch, d):
    dual = counting(monkeypatch, DUAL)
    pd = counting(monkeypatch, "free_resolution")
    M = _two_generator_module(polynomial_ring(["x", "y", "z"]))
    first = _duality_invariants(M)
    shifted = _duality_invariants(M.twist(d))
    # the duality compute and the depth compute each read the resolution
    assert (len(dual), len(pd)) == (1, 2)
    # the shifted reads are exactly what a fresh ring computes
    fresh = _two_generator_module(polynomial_ring(["x", "y", "z"]))
    assert _duality_invariants(fresh) == first
    fresh = _two_generator_module(polynomial_ring(["x", "y", "z"]))
    assert _duality_invariants(fresh.twist(d)) == shifted
    assert shifted[0][0] == first[0][0] - d


def test_one_module_under_two_constructions_shares_one_entry(monkeypatch):
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    M = PresentedModule.cyclic(S, [x * y, x * z * z])
    dual = counting(monkeypatch, DUAL)
    # (0 :_M x) = Hom(S/(x), M) = Ext^0(S/(x), M)
    C, _ = colon_by_element(M, x)
    E = ext_complex(PresentedModule.cyclic(S, [x]), M).homology(0)
    assert reg_via_duality(C) == reg_via_duality(E)
    assert len(dual) == 1
    # M/yM = Tor_0(S/(y), M)
    Q = quotient_by_element(M, y)
    K = koszul_complex([y], M).homology(0)
    assert reg_via_duality(Q) == reg_via_duality(K)
    assert len(dual) == 2


def test_modules_that_differ_never_share_an_entry(monkeypatch):
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    dual = counting(monkeypatch, DUAL)
    pd = counting(monkeypatch, "free_resolution")
    X, Y = (PresentedModule.cyclic(S, [v]) for v in (x, y))
    mods = [
        # equal leads x², different tails
        PresentedModule.cyclic(S, [x * x + y * y]),
        PresentedModule.cyclic(S, [x * x + x * y]),
        # equal relations, different relative twists
        X.direct_sum(Y.twist(-1)),
        X.direct_sum(Y.twist(-2)),
    ]
    keys = {routes._module_key(M)[1] for M in mods}
    assert len(keys) == len(mods)
    regs = [reg_via_duality(M)[0] for M in mods]
    depths = [depth(M) for M in mods]
    # per module, the duality compute and the depth compute each read the
    # resolution once
    assert (len(dual), len(pd)) == (4, 8)
    assert regs == [1, 1, 1, 2]
    assert depths == [2, 2, 2, 2]


def test_a_quotient_module_and_its_cover_share_the_entry_on_the_cover(
        monkeypatch):
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    R = S.quotient([x * y, y * z])
    dual = counting(monkeypatch, DUAL)
    M = PresentedModule.cyclic(R, [x * z])
    N = PresentedModule.cyclic(S, [x * z, x * y, y * z])
    assert reg_via_duality(M) == reg_via_duality(N)
    assert depth(M) == depth(N)
    assert len(dual) == 1
    assert {k[0] for k in S._cache if isinstance(k, tuple)} >= {
        "duality", "depth"}
    assert not [k for k in R._cache if isinstance(k, tuple)]
    # an equal ring is another object, with entries of its own
    S2 = polynomial_ring(["x", "y", "z"])
    assert S2 == S
    x, y, z = S2.gens()
    assert (reg_via_duality(PresentedModule.cyclic(S2, [x * z, x * y, y * z]))
            == reg_via_duality(N))
    assert len(dual) == 2


def test_the_checks_sweep_computes_each_duality_series_once(monkeypatch):
    # every module value of the checkers is read off the duality rows: per
    # module object alone, the 13 instances ran the route 129 times, and
    # 61 of those modules repeat another up to twist or presentation; the
    # ring and S/(g) of each instance are dualized once each
    dual = counting(monkeypatch, DUAL)
    koszul = counting(monkeypatch, "_koszul_route")
    for inst in random_ideal_corpus(count=13):
        corpus_checks(inst)
    assert len(dual) == 68
    # the Koszul route runs only on the cut complex K(f; M) of each
    # instance, through reg_complex; a module would enter as a complex
    # at spot 0 alone
    assert [sorted(C.terms) for C, _ in koszul] == [[0, 1]] * 13


# -- the duality rows: read where Ext can be nonzero, over the cover ------

def rows_over_the_cover(M):
    """The duality rows of M off Hom(F, S(-n)) at every spot, F the
    resolution of M's cover over all n variables (for a module killed by
    linear forms, the tensored F' (x) K(l)): the full read, which the
    rows `_duality_rows` reads at its bounded spots alone must equal."""
    Mc = M.lift_to_cover()
    S = Mc.ring
    n = S.nvars
    D = hom_complex(resolution_to_complex(free_resolution(Mc)),
                    complex_from_module(PresentedModule.free(S, (n,))))
    return {n + s: H for s, H in D.nonzero_homology_series().items()}


def four_dense_quadrics():
    """S/(four seeded generic quadrics) over S = k[a, b, c, d, e], a
    complete intersection."""
    S = polynomial_ring(["a", "b", "c", "d", "e"])
    gens = S.gens()
    rng = random.Random("dense-quadrics:5:4")
    quadrics = [sum((rng.randrange(1, 32003) * u * v
                     for k, u in enumerate(gens) for v in gens[k:]),
                    S.constant(0)) for _ in range(4)]
    return PresentedModule.cyclic(S, quadrics)


def modules_past_the_corpus():
    """(label, module) for every session module, the scroll's S/I and
    S/(I + z) for n = 2..4 (n = 5 is left out: the full read alone costs
    about 2 s there) and four dense quadrics in five variables."""
    for name in sorted(os.listdir(SESSIONS)):
        for b, M in session_modules(name):
            yield f"{name}:{b}", M
    for n in range(2, 5):
        ring, minors, z = nilpotent_scroll_family(n)
        yield f"scroll {n}", PresentedModule.cyclic(ring, minors)
        yield f"scroll {n} + z", PresentedModule.cyclic(ring, minors + [z])
    yield "four dense quadrics", four_dense_quadrics()


def test_duality_rows_of_a_resolution_are_the_rows_over_the_cover():
    # one reader turns a free resolution into rows, at the spots -pd..dim
    # - n of its dual alone: the full read's rows on every corpus module
    # and section, and past the corpus
    count = 0
    for label, M in (*((inst.name, inst.module)
                       for inst in random_ideal_corpus()),
                     *sections_of_the_corpus(), *modules_past_the_corpus()):
        Mc = M.lift_to_cover()
        res = free_resolution(Mc)
        assert (routes._duality_rows(res, Mc.dimension())
                == rows_over_the_cover(M)), label
        count += 1
    assert count == 105


def dropping_an_end_of_the_dual(monkeypatch, end):
    """Drop the nonzero homology of the dual at the top (row dim) or the
    bottom (row depth) of every spot range read."""
    real = BoundedComplex.nonzero_homology_series

    def dropped(self, lo=-inf, hi=inf):
        out = real(self, lo, hi)
        if (lo, hi) != (-inf, inf) and out:
            del out[max(out) if end == "top" else min(out)]
        return out

    monkeypatch.setattr(BoundedComplex, "nonzero_homology_series", dropped)


@pytest.mark.parametrize("end", ["top", "bottom"])
def test_the_duality_rows_raise_when_an_end_row_is_missing(monkeypatch,
                                                           end):
    # Ext^q_S(M, S) is nonzero at q = codim M (Rees) and at q = pd M
    # (Nakayama, F minimal): rows dim = 2 and depth = 1 here
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    M = PresentedModule.cyclic(S, [x * y, x * z])
    res = free_resolution(M)
    assert sorted(routes._duality_rows(res, M.dimension())) == [1, 2]
    dropping_an_end_of_the_dual(monkeypatch, end)
    with pytest.raises(ArithmeticError, match="vanished"):
        routes._duality_rows(res, M.dimension())


def test_a_missing_top_row_raises_in_every_reader_of_the_rows(monkeypatch):
    # a_invariant reads row dim as it is; the rows raise before any reader
    # could take a missing row for a vanished one
    def ring():
        # a fresh cover each time: the rows are kept on it
        S = polynomial_ring(["x", "y", "z"])
        x, y, z = S.gens()
        return S.quotient([x * y, x * z])

    assert a_invariant(ring()) == -2
    dropping_an_end_of_the_dual(monkeypatch, "top")
    for read in (a_invariant,
                 lambda R: reg_via_duality(PresentedModule.cyclic(R, [])),
                 lambda R: local_cohomology_table(
                     PresentedModule.cyclic(R, []))):
        with pytest.raises(ArithmeticError, match="vanished"):
            read(ring())


def duality_reads(M):
    lc = local_cohomology_table(M)
    return (routes._duality_series(M), lc.entries, lc.window,
            lc.row_support, reg_via_duality(M))


def sections_of_the_corpus():
    """(label, M/fM) and (label, M/gM) for each corpus instance, f and g
    the auxiliary forms of its checks."""
    for inst in random_ideal_corpus():
        rng = random.Random(f"{inst.name}:aux")
        for name in ("f", "g"):
            yield (f"{inst.name}/{name}", quotient_by_element(
                inst.module, _random_linear_form(inst.ring, rng)))


def test_a_cut_module_is_dualized_over_the_cover(monkeypatch):
    # a module killed by linear forms resolves as F' (x) K(l), F' over the
    # other variables, and its rows are read off the dual of that F over
    # all the variables: every reader of the rows sees the full read's
    tensored = recorded_tensor_cuts(monkeypatch)
    count = 0
    cuts = set()
    for label, M in (*cut_modules(), *sections_of_the_corpus()):
        if M.is_zero():
            continue
        tensored.clear()
        res = free_resolution(M.lift_to_cover())
        (_, inner, _, _), = tensored
        cuts.add(res.ring.nvars - inner.ring.nvars)
        got = duality_reads(M)
        with monkeypatch.context() as m:
            m.setattr(routes, "_duality_series", rows_over_the_cover)
            assert duality_reads(M) == got, label
        count += 1
    assert count == 134 and cuts == {1, 2, 3}


@pytest.mark.parametrize("make", [
    lambda S: PresentedModule.cyclic(S, [S.gens()[0] ** 2]),
    PresentedModule.zero], ids=["cyclic", "zero"])
def test_local_cohomology_refuses_an_inverted_window(make):
    # window=(3, 1) returned an empty table without complaint
    M = make(polynomial_ring(["x", "y", "z"]))
    with pytest.raises(ValueError, match="window"):
        local_cohomology_table(M, window=(3, 1))
    assert local_cohomology_table(M, window=(1, 1)).window[0] == 1


def test_the_zero_module_table_has_the_default_window(S3, det_ring):
    # the zero module's table read window (0, 0) and nvars 0, where every
    # other module gets (-2n - 4, 2n + 4) and the cover's n
    table = local_cohomology_table(PresentedModule.zero(S3))
    assert (table.window, table.nvars) == ((-10, 10), 3)
    assert (table.entries, table.row_support) == ({}, {})
    table = local_cohomology_table(PresentedModule.zero(det_ring))
    assert (table.window, table.nvars) == ((-12, 12), 4)
    table = local_cohomology_table(PresentedModule.zero(S3), window=(1, 2))
    assert (table.window, table.nvars) == ((1, 2), 3)


def test_the_window_runs_to_the_last_row_with_no_cap():
    # the window's end doubled up to a cap of 8(n + 2) = 40, so x^30 read
    # on to degree 40 and x^44, whose rows are as exact, raised "need
    # degree 41"; the window now ends where the last row does
    S = polynomial_ring(["x", "y", "z"])
    x = S.gens()[0]
    M = PresentedModule.cyclic(S, [x ** 30])
    table = local_cohomology_table(M)
    assert table.window == (-10, 27)
    assert table.row_support == {2: (-inf, 27)}
    assert row_reg(table) == reg_via_betti(M)[0] == 29
    # H^2_m(M)_j is dual to Ext^1(M, S(-3))_{-j} = M(27)_{-j}
    assert [table.entries.get((2, j), 0) for j in (28, 27, 26, 25)] == [
        0, 1, 3, 6]
    M = PresentedModule.cyclic(S, [x ** 44])
    table = local_cohomology_table(M)
    assert table.window == (-10, 41)
    assert table.row_support == {2: (-inf, 41)}
    assert max(j for (_, j) in table.entries) == 41
    assert row_reg(table) == reg_via_betti(M)[0] == 43
    # a window that already reaches past the last row is kept as given
    assert local_cohomology_table(M, (0, 50)).window == (0, 50)


def test_explicit_koszul_arguments_bypass_the_cache(monkeypatch, det_module):
    z = det_module.ring.gens()[2]
    value = reg_via_koszul(det_module)
    kos = counting(monkeypatch, "_koszul_route")
    for _ in range(2):
        with pytest.raises(KoszulHypothesisError):
            reg_via_koszul(det_module, forms=[z])
    assert reg_via_koszul(det_module) == value
    assert len(kos) == 2


def test_reg_complex_reads_the_koszul_entry_of_the_object(monkeypatch, S3,
                                                         det_ring):
    # reg_complex kept its own "reg_complex" entry, and later read the
    # koszul entry of the object's cover; it reads the entry kept on the
    # object itself, which run_routes fills, with one Koszul complex built
    x, y, z = S3.gens()
    mods = [PresentedModule.cyclic(S3, [x * x, x * y, y * z * z]),
            PresentedModule.cyclic(det_ring, [])]
    cuts = [koszul_complex([M.ring.gens()[-1]], M) for M in mods]
    built = counting(monkeypatch, "koszul_complex")
    for obj in mods + cuts:
        built.clear()
        value = (reg_complex(obj) if isinstance(obj, PresentedModule)
                 else routes.run_routes(obj)[0])
        assert reg_complex(obj) == value == reg_via_koszul(obj)[0]
        assert len(built) == 1
        assert "reg_complex" not in obj._cache
        if not obj.ring.is_polynomial:
            assert "koszul" not in obj.lift_to_cover()._cache


def koszul_complexes_over_quotient_rings():
    """(label, complex): K of the determinantal session, and K([z]; M)
    and K([x, y]; M), z the last variable, for each module M of the
    two-quadrics, hypersurface-pair and determinantal sessions."""
    session = parse_session(load("determinantal.cmreg"))
    yield "determinantal K", session.get("K")
    for name in ("two-quadrics.cmreg", "hypersurface-pair.cmreg",
                 "determinantal.cmreg"):
        for label, M in session_modules(name):
            gens = M.ring.gens()
            yield f"{name} K([z]; {label})", koszul_complex([gens[-1]], M)
            yield f"{name} K([x, y]; {label})", koszul_complex(gens[:2], M)


def test_a_complex_runs_the_koszul_route_over_its_own_ring():
    # over the quotient ring the koszul route gives the value and witness
    # it gives on the cover (the CLI payload of `cmreg reg K` is pinned in
    # test_sessions)
    count = 0
    for label, L in koszul_complexes_over_quotient_rings():
        assert not L.ring.is_polynomial, label
        value, runs = routes.run_routes(L)
        assert runs["koszul"] == reg_via_koszul(L)
        assert runs["koszul"] == reg_via_koszul(L.lift_to_cover()), label
        assert reg_complex(L) == value, label
        count += 1
    assert count == 11


def test_run_routes_runs_the_betti_route_every_call(monkeypatch, S3):
    x, y, z = S3.gens()
    L = koszul_complex([x, y], PresentedModule.cyclic(S3, [x * z]))
    betti = counting(monkeypatch, "reg_via_betti")
    assert routes.run_routes(L) == routes.run_routes(L)
    assert len(betti) == 2
    monkeypatch.setattr(routes, "reg_via_betti", lambda obj: (99, None))
    with pytest.raises(RuntimeError):
        routes.run_routes(L)


def test_a_route_rebound_on_the_module_is_the_route_that_runs(monkeypatch,
                                                              det_module):
    # the table names its routes, and each is read off cmreg.regularity as
    # it runs: a fault put there reaches the module and the complex rows
    z = det_module.ring.gens()[2]
    L = koszul_complex([z], complex_from_module(det_module))
    monkeypatch.setattr(routes, "reg_via_betti", lambda obj: (99, None))
    with pytest.raises(RuntimeError, match="on a module: betti gives 99, "
                       "ext gives 1, koszul gives 1, duality gives 1"):
        regularity(det_module)
    with pytest.raises(RuntimeError, match="on a complex: koszul gives 1, "
                       "betti gives 99"):
        routes.run_routes(L)


# -- known-answer members: closed forms where the dense oracle cannot reach

ROUTES = routes.ROUTES[PresentedModule]


def test_the_scroll_cut_at_n_5_has_regularity_5_by_every_route():
    # reg(I + z) = n + 1 on the nilpotent scroll, so reg S/(I + z) = n
    Rn, minors, z = nilpotent_scroll_family(5)
    rep = regularity(PresentedModule.cyclic(Rn, minors + [z]))
    assert rep.routes == dict.fromkeys(ROUTES, 5)
    assert rep.value == 5


def cokernel_elements(monkeypatch, run):
    """How many basis elements the seeded Buchberger runs, the cokernel
    runs of the homology layer, add past their generators while run()
    runs."""
    added = [0]
    inner = groebner._buchberger

    def counting(gens, K, twists, P, known=()):
        out = inner(gens, K, twists, P, known)
        if known:
            added[0] += len(out) - len(known) - sum(1 for v in gens if v)
        return out

    with monkeypatch.context() as m:
        m.setattr(groebner, "_buchberger", counting)
        run()
    return added[0]


def test_the_ext_route_grows_the_koszul_routes_cokernel_bases(monkeypatch):
    # The residue field's Koszul resolution is built on the variables in
    # reverse order, so each column of Hom(K, M) leads as a column of the
    # Koszul route's K (x) M does, and the ext route's cokernel runs add
    # as many elements as the Koszul route's; on the variables' own order
    # they add 57.  Every route still agrees on the scroll family.
    def scroll_m():
        return parse_session(load("scroll-2.cmreg")).get("M")

    M = scroll_m()
    ext = cokernel_elements(monkeypatch, lambda: bass_table(M))
    koszul = cokernel_elements(monkeypatch, lambda: reg_via_koszul(M))
    C = complex_from_module(scroll_m())
    forward = cokernel_elements(monkeypatch, lambda: hom_complex(
        koszul_complex(list(C.ring.gens())), C).nonzero_homology_series())
    assert (ext, koszul, forward) == (12, 12, 57)
    for n in range(2, 6):
        Rn, minors, z = nilpotent_scroll_family(n)
        for gens, value in ((minors, 1), (minors + [z], n)):
            rep = regularity(PresentedModule.cyclic(Rn, gens))
            assert rep.routes == dict.fromkeys(ROUTES, value), (n, value)


def test_four_dense_quadrics_in_five_variables_have_the_koszul_table():
    # c general forms of degrees d_1..d_c cut out a complete intersection:
    # reg S/I = sum(d_i - 1) = 4, and the Betti table is the Koszul
    # complex's, beta_{i,2i} = C(4, i)
    M = four_dense_quadrics()
    rep = regularity(M)
    assert rep.routes == dict.fromkeys(ROUTES, 4)
    assert betti_table(M).entries == {(i, 2 * i): comb(4, i)
                                      for i in range(5)}
