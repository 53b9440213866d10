import importlib
import types

import pytest

import cmreg.theorems as theorems
from cmreg import (PresentedModule, check_ab_formula, check_cor_hom,
                   check_cor_tensor, check_filter_regular_formula,
                   check_hom_dim1, check_ring_independence, check_thm_cmd1,
                   check_thm_dim1, complex_from_module, free_resolution,
                   koszul_complex, module_from_ideal, nilpotent_scroll_family,
                   polynomial_ring, random_ideal_corpus, reg_via_betti,
                   reg_via_ext, reg_via_koszul, relative_reg,
                   resolution_to_complex, run_corpus, saturated_sequence)
from cmreg.complexes import free_complex_from_data
from cmreg.hilbert import HilbertSeries
from cmreg.theorems import (TheoremContradiction, _finish, _staircase,
                            corpus_checks)


def holds(out):
    return out.hypothesis["verdict"] == "holds"


# -- verdict algebra -------------------------------------------------------

def test_finish_raises_on_violated_equality():
    hyp = {"verdict": "holds", "witnesses": []}
    with pytest.raises(TheoremContradiction):
        _finish("demo", "synthetic", hyp, 3, 5, {})


def test_finish_reports_inequality_without_hypotheses():
    hyp = {"verdict": "fails", "witnesses": [{"spot": 0}]}
    out = _finish("demo", "synthetic", hyp, 3, 5, {}, slack="lhs<=rhs")
    assert out.verdict == "inequality"
    assert out.hypothesis["verdict"] == "fails"


def test_finish_raises_on_breached_slack_even_when_hypothesis_fails():
    hyp = {"verdict": "fails", "witnesses": []}
    with pytest.raises(TheoremContradiction):
        _finish("demo", "synthetic", hyp, 7, 5, {}, slack="lhs<=rhs")


def test_finish_equality_wins():
    hyp = {"verdict": "fails", "witnesses": []}
    out = _finish("demo", "synthetic", hyp, 4, 4, {}, slack="lhs<=rhs")
    assert out.verdict == "equality"


def test_outcome_serialization():
    hyp = {"verdict": "holds", "witnesses": []}
    out = _finish("demo", "synthetic", hyp, 2, 2, {"extra": 1}, seed=9)
    d = out.as_dict()
    assert d["check"] == "demo"
    assert d["seed"] == 9
    assert d["conclusion"]["verdict"] == "equality"
    assert d["invariants"] == {"extra": 1}


# -- checks on the determinantal ring --------------------------------------

def test_filter_formula_on_determinantal(det_module):
    z = det_module.ring.gens()[2]
    out = check_filter_regular_formula(det_module, z)
    assert holds(out)
    assert out.conclusion == {"lhs": 1, "rhs": 1, "verdict": "equality"}
    assert not out.invariants["strict"]


def test_filter_formula_refuses_a_form_of_degree_zero(det_module):
    # a unit form was reported as an engine contradiction (lhs = 1,
    # rhs = -inf with the hypothesis holding): the formula needs a form of
    # positive degree, so the checker refuses it before computing anything
    with pytest.raises(ValueError, match="positive degree"):
        check_filter_regular_formula(det_module, det_module.ring.constant(3))


def test_cmd1_on_determinantal_cut(det_module):
    z = det_module.ring.gens()[2]
    L = koszul_complex([z], complex_from_module(det_module))
    out = check_thm_cmd1(L)
    assert holds(out)
    assert out.verdict == "equality"
    assert out.invariants["H_1"]["reg"] == 2


def test_dim1_hypothesis_fails_on_determinantal_cut(det_module):
    z = det_module.ring.gens()[2]
    L = koszul_complex([z], complex_from_module(det_module))
    out = check_thm_dim1(L)
    assert not holds(out)
    # conclusion still happens to be an equality here
    assert out.verdict == "equality"


# sigma<=2 F of the minimal resolution F of S/I, I = (zw, xy + z^2, yz^3)
# (corpus-101-00): H_0 = S/I has depth 1 and dimension 2, H_1 = 0, and H_2
# has dimension 4.  reg L = 4 < 5 = sup{reg H_i - i}.
MINUS_ONE = 32002
TRUNCATION_TWISTS = {0: (0,), 1: (2, 2, 4), 2: (4, 5, 6)}
TRUNCATION_COLS = {
    1: [{(0, (0, 0, 1, 1)): 1},
        {(0, (1, 1, 0, 0)): 1, (0, (0, 0, 2, 0)): 1},
        {(0, (0, 1, 3, 0)): 1}],
    2: [{(0, (1, 1, 0, 0)): 1, (1, (0, 0, 1, 1)): MINUS_ONE,
         (0, (0, 0, 2, 0)): 1},
        {(0, (0, 1, 2, 0)): 1, (2, (0, 0, 0, 1)): MINUS_ONE},
        {(2, (0, 0, 2, 0)): 1, (1, (0, 1, 3, 0)): MINUS_ONE,
         (2, (1, 1, 0, 0)): 1}],
}


def test_cmd1_reads_the_staircase_across_zero_homology():
    # Read with the zero H_1 as depth infinity, the hypothesis held
    # vacuously and the check raised TheoremContradiction (lhs 4, rhs 5).
    # Across the gap it reads depth H_0 >= dim H_2 - 2, which fails.
    S = polynomial_ring(["x", "y", "z", "w"])
    L = free_complex_from_data(S, TRUNCATION_TWISTS, TRUNCATION_COLS)
    assert L.verify()
    out = check_thm_cmd1(L)
    assert sorted(k for k in out.invariants if k.startswith("H_")) == [
        "H_0", "H_2"]
    assert out.hypothesis == {"verdict": "fails", "witnesses": [
        {"spot": 0, "depth": 1, "dim_above": 4}]}
    assert out.conclusion == {"verdict": "inequality", "lhs": 4, "rhs": 5}
    assert out.invariants["termwise_bound"] == 4
    out = check_thm_dim1(L)
    assert not holds(out) and out.verdict == "inequality"


def test_truncations_of_corpus_resolutions():
    # sigma<=k F, 1 <= k < pd, of each corpus module's resolution F, a free
    # complex with homology at spots 0 and k only: the three routes agree,
    # and the staircase hypothesis fails with no contradiction
    count = 0
    for inst in random_ideal_corpus():
        F = free_resolution(inst.module)
        for k in range(1, F.length):
            L = free_complex_from_data(
                inst.ring, {i: tw for i, tw in F.twists.items() if i <= k},
                {i: cs for i, cs in F.cols.items() if i <= k})
            label = (inst.name, k)
            reg = reg_via_betti(L)[0]
            assert reg_via_ext(L)[0] == reg == reg_via_koszul(L)[0], label
            G = free_resolution(L)
            assert G.is_minimal() and resolution_to_complex(G).verify(), label
            for check in (check_thm_cmd1, check_thm_dim1):
                out = check(L)
                assert out.hypothesis["verdict"] == "fails", label
                assert out.verdict == "inequality", label
            count += 1
    assert count == 29


def test_termwise_bound_breach_is_a_contradiction(monkeypatch):
    # reg L = 5 would meet the homology-wise sup 5 with equality, but it
    # exceeds the termwise sup{reg L_i - i} = 4, which holds unconditionally
    S = polynomial_ring(["x", "y", "z", "w"])
    L = free_complex_from_data(S, TRUNCATION_TWISTS, TRUNCATION_COLS)
    monkeypatch.setattr(theorems, "reg_complex", lambda C: 5)
    homology = {"H_0": {"reg": 4, "depth": 1, "dim": 2},
                "H_2": {"reg": 7, "depth": 4, "dim": 4},
                "termwise_bound": 4}
    witnesses = {"cmd1": [{"spot": 0, "depth": 1, "dim_above": 4}],
                 "dim1": [{"spot": 2, "dim": 4}]}
    for check in (check_thm_cmd1, check_thm_dim1):
        with pytest.raises(TheoremContradiction) as e:
            check(L, instance="trunc", seed=3)
        name = e.value.outcome.name
        assert e.value.outcome.as_dict() == {
            "check": name, "instance": "trunc", "seed": 3,
            "hypothesis": {"verdict": "fails",
                           "witnesses": witnesses[name]},
            "conclusion": {"verdict": "violated", "lhs": 5, "rhs": 4},
            "invariants": homology}


def test_ab_formula_raises_when_the_loop_does_not_close(S3, monkeypatch):
    # lhs = reg M + rel.reg N still holds; reg N moved by one breaks
    # reg M + reg N - reg R and reg N - rel.reg N = reg R
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x])
    N = PresentedModule.cyclic(S3, [y * y * y])
    reg = theorems._reg
    monkeypatch.setattr(theorems, "_reg",
                        lambda A: reg(A) + (1 if A is N else 0))
    with pytest.raises(TheoremContradiction) as e:
        check_ab_formula(M, N, instance="pair", seed=2)
    assert e.value.outcome.as_dict() == {
        "check": "ab", "instance": "pair", "seed": 2,
        "hypothesis": {"verdict": "holds", "witnesses": []},
        "conclusion": {"verdict": "violated", "lhs": 3, "rhs": 3},
        "invariants": {"reg_M": 1, "reg_N": 3, "reg_ring": 0,
                       "relative_reg_N": 2, "pd_N": 1,
                       "loop_closed": False}}


def test_ring_independence_raises_when_only_the_tables_differ(S3,
                                                              monkeypatch):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, x * z])
    rows = theorems._duality_series

    def second_differs(module):
        # the larger cover's rows, read off the dual of its own
        # resolution, each moved one degree: same row support, other
        # entries; M's own rows as they are
        out = rows(module)
        if module.ring.cover.nvars == S3.nvars:
            return out
        return {i: E.twist(1) for i, E in out.items()}

    monkeypatch.setattr(theorems, "_duality_series", second_differs)
    with pytest.raises(TheoremContradiction) as e:
        check_ring_independence(M, instance="mod", seed=1)
    assert e.value.outcome.as_dict() == {
        "check": "ring-indep", "instance": "mod", "seed": 1,
        "hypothesis": {"verdict": "holds", "witnesses": [],
                       "covers": ["GF(32003)[x,y,z]",
                                  "GF(32003)[x,y,z,u0]"]},
        "conclusion": {"verdict": "violated", "lhs": 1, "rhs": 1},
        "invariants": {"ext_route": [1, 1],
                       "row_support": [[1, 2], [1, 2]],
                       "tables_match": False}}


def test_ring_independence_sees_a_fault_below_any_window(S3, monkeypatch):
    # one extra dimension in H^2_m of the larger cover's side at degree
    # -18, below the default window (-12, 12) over n2 = 4 variables and
    # inside a row that already runs to -inf, so the row support does not
    # move; compared over that window the two sides matched
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, x * z])
    assert check_ring_independence(M).verdict == "equality"
    rows = theorems._duality_series

    def one_more(module):
        out = rows(module)
        n = module.ring.cover.nvars
        if n == S3.nvars:
            return out
        # dim H^2_m(M)_j is the coefficient of t^(-j) in row 2
        out[2] = out[2].add(HilbertSeries({18: 1}, 0).over(n))
        return out

    monkeypatch.setattr(theorems, "_duality_series", one_more)
    with pytest.raises(TheoremContradiction) as e:
        check_ring_independence(M, extra_vars=1)
    assert e.value.outcome.invariants == {
        "ext_route": [1, 1], "row_support": [[1, 2], [1, 2]],
        "tables_match": False}


def test_cmd1_staircase_between_neighbours_is_unchanged():
    # with no zero homology between them, spots i and i + 1 compare by
    # depth H_i >= dim H_{i+1} - 1, as before
    profile = {0: {"depth": 1, "dim": 2}, 1: {"depth": 0, "dim": 3},
               2: {"depth": 2, "dim": 2}}
    assert _staircase(profile) == [(0, 1), (1, 2)]
    profile[1]["depth"] = 1
    assert _staircase(profile) == [(0, 1)]
    del profile[1]
    assert _staircase(profile) == []
    profile[2]["dim"] = 4
    assert _staircase(profile) == [(0, 2)]


def test_hom_reads_the_staircase_across_zero_ext():
    S = polynomial_ring(["x", "y", "z", "w"])
    x, y, z, w = S.gens()
    M = PresentedModule.cyclic(S, [x * y, x * z, x * w])
    # Ext^i(M, S) is nonzero at i = 1 and 3: depth Ext^3 = 1 >= dim Ext^1 - 2
    out = check_cor_hom(M, PresentedModule.cyclic(S, []))
    assert sorted(k for k in out.invariants if k.startswith("Ext_")) == [
        "Ext_1", "Ext_3"]
    assert holds(out) and out.verdict == "equality"
    # Ext^i(M, S/(x)) is nonzero at i = 0, 1 and 3, and depth Ext^3 = 0 <
    # dim Ext^1 - 2 = 1.  Read with Ext^2 = 0 as depth infinity this
    # hypothesis held vacuously.
    out = check_cor_hom(M, PresentedModule.cyclic(S, [x]))
    assert sorted(k for k in out.invariants if k.startswith("Ext_")) == [
        "Ext_0", "Ext_1", "Ext_3"]
    assert out.hypothesis == {"verdict": "fails", "witnesses": [
        {"index": 3, "depth": 0, "dim_below": 3}]}
    assert out.conclusion == {"verdict": "equality", "lhs": 0, "rhs": 0}


def test_hom_check_on_determinantal(det_module):
    out = check_cor_hom(det_module, det_module)
    assert holds(out)
    assert out.conclusion["lhs"] == 1 and out.conclusion["rhs"] == 1


def test_hom_dim1_needs_polynomial_base(det_module):
    z = det_module.ring.gens()[2]
    with pytest.raises(ValueError):
        check_hom_dim1([z], det_module)


def test_hom_dim1_on_cover(S4):
    x, y, z, t = S4.gens()
    gens = [x * x, x * z, x * t - y * z]
    N = PresentedModule.cyclic(S4, gens)
    out = check_hom_dim1(gens, N)
    # Hom is all of N here, so the dimension bound fails but the
    # inequality still holds
    assert not holds(out)
    assert out.conclusion["lhs"] <= out.conclusion["rhs"]


def test_hom_dim1_asserts_bound_when_hypothesis_holds(S3):
    x, y, z = S3.gens()
    N = PresentedModule.cyclic(S3, [x * y, x * z])
    out = check_hom_dim1([y, z], N)
    if holds(out):
        assert out.conclusion["lhs"] <= out.conclusion["rhs"]
    assert out.verdict in ("equality", "inequality")


def test_ring_independence_dualizes_each_cover_over_its_own_ring(
        monkeypatch):
    # the larger cover's module is killed by u0, so the duality route
    # would dualize the same F' over k[x, y, z] on both sides; the checker
    # reads the larger table off the tensored F over k[x, y, z, u0]
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    M = PresentedModule.cyclic(S, [x * y, x * z])
    rings = []
    for mod in (importlib.import_module("cmreg.regularity"),
                importlib.import_module("cmreg.complexes")):
        real = mod.resolution_to_complex

        def recording(F, real=real):
            rings.append(repr(F.ring))
            return real(F)

        monkeypatch.setattr(mod, "resolution_to_complex", recording)
    assert check_ring_independence(M).invariants["tables_match"]
    assert rings == ["GF(32003)[x,y,z]", "GF(32003)[x,y,z,u0]"]


def test_ring_independence_on_determinantal(det_module):
    out = check_ring_independence(det_module, extra_vars=2)
    assert out.verdict == "equality"
    assert out.invariants["tables_match"]


@pytest.mark.parametrize("extra", [0, -1])
def test_ring_independence_needs_an_extra_variable(det_module, extra):
    # with no extra variable the module would be compared with itself
    with pytest.raises(ValueError):
        check_ring_independence(det_module, extra_vars=extra)


# -- formulas with certified finite projective dimension -------------------

def test_ab_formula_equality(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x])
    N = PresentedModule.cyclic(S3, [y * y * y])
    out = check_ab_formula(M, N)
    assert holds(out)
    assert out.verdict == "equality"
    assert out.invariants["pd_N"] == 1


def test_ab_formula_not_asserted_over_quotient(ci_ring):
    k = PresentedModule.cyclic(ci_ring, list(ci_ring.gens()))
    R = PresentedModule.cyclic(ci_ring, [])
    out = check_ab_formula(R, k, instance="R,k", seed=5)
    assert out.as_dict() == {
        "check": "ab", "instance": "R,k", "seed": 5,
        "hypothesis": {"verdict": "fails", "witnesses": [
            {"reason": "projective dimension not certified finite",
             "levels": 8}]},
        "conclusion": {"verdict": "not-asserted", "lhs": None, "rhs": None},
        "invariants": {}}


def test_tensor_formula_not_asserted_over_quotient(ci_ring):
    k = PresentedModule.cyclic(ci_ring, list(ci_ring.gens()))
    R = PresentedModule.cyclic(ci_ring, [])
    out = check_cor_tensor(R, k, R, instance="R,k,R", seed=6)
    assert out.as_dict() == {
        "check": "tensor", "instance": "R,k,R", "seed": 6,
        "hypothesis": {"verdict": "fails", "witnesses": [
            {"factor": 1,
             "reason": "projective dimension not certified finite"}]},
        "conclusion": {"verdict": "not-asserted", "lhs": None, "rhs": None},
        "invariants": {}}


def test_tensor_formula_on_hypersurface_pair(S2):
    x, y = S2.gens()
    R = S2.quotient([x * x + y * y])
    xr, yr = R.gens()
    M = PresentedModule.cyclic(R, [xr])
    N = PresentedModule.cyclic(R, [yr])
    out = check_cor_tensor(M, N)
    assert holds(out)
    assert out.conclusion == {"lhs": 1, "rhs": 1, "verdict": "equality"}
    # both factors resolve in one step, and their resolution-level reg
    # vanishes while the answer does not
    assert relative_reg(M).value == 0 and relative_reg(M).certified
    assert relative_reg(N).value == 0 and relative_reg(N).certified


def test_tensor_three_factors(S2):
    x, y = S2.gens()
    A = PresentedModule.cyclic(S2, [x * x])
    B = PresentedModule.cyclic(S2, [y * y])
    C = PresentedModule.cyclic(S2, [x * y])
    out = check_cor_tensor(A, B, C)
    assert out.verdict in ("equality", "inequality")


def _mixed_pairs():
    # other variables, another field, another number of variables
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    M = PresentedModule.cyclic(S, [x * y, x * z])
    T = polynomial_ring(["a", "b"])
    a, _ = T.gens()
    S7 = polynomial_ring(["x", "y", "z"], p=7)
    x7 = S7.gens()[0]
    return [(M, PresentedModule.cyclic(T, [a * a])),
            (M, PresentedModule.cyclic(S7, [x7 * x7])),
            (PresentedModule.cyclic(T, [a * a]), M)]


@pytest.mark.parametrize("check", [
    check_ab_formula, check_cor_hom, check_cor_tensor,
    lambda M, N: check_cor_tensor(M, M, N)],
    ids=["ab", "hom", "tensor", "tensor3"])
def test_checkers_refuse_modules_over_different_rings(check):
    # before the guard, ab and tensor reported equality over k[x,y,z] and
    # k[a,b], and hom and tensor died inside the engine on the variable
    # counts
    for M, N in _mixed_pairs():
        with pytest.raises(ValueError, match="different rings"):
            check(M, N)


def _one_ideal_three_ways():
    """Modules over S/(x², y²) presented with its generators, reordered and
    with a redundant one: three ring objects."""
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    rings = [S.quotient(gens) for gens in
             ([x * x, y * y], [y * y, x * x], [x * x, y * y, x * x * y])]
    return [PresentedModule.cyclic(R, list(R.gens())) for R in rings]


def test_quotients_by_one_ideal_are_one_ring():
    # S/(x², y²) and S/(y², x²) compared unequal, so direct_sum and every
    # two-module checker refused them as modules over different rings
    M, N, P = _one_ideal_three_ways()
    assert M.ring == N.ring == P.ring
    assert hash(M.ring) == hash(N.ring) == hash(P.ring)
    assert theorems._one_ring([M, N, P]) is M.ring
    assert (M.direct_sum(N).hilbert_series().numerator
            == M.direct_sum(P).hilbert_series().numerator
            == M.direct_sum(M).hilbert_series().numerator)
    F = PresentedModule.cyclic(M.ring, [])
    assert (check_cor_hom(F, N).as_dict() == check_cor_hom(F, P).as_dict()
            == check_cor_hom(F, M).as_dict())


def test_quotients_by_different_ideals_stay_different_rings():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    R = S.quotient([x * x, y * y])
    for other in (S, S.quotient([x * x]), S.quotient([x * x, y ** 3]),
                  S.quotient([x * x, x * y]),
                  polynomial_ring(["x", "y"], p=7).quotient([x * x, y * y]),
                  polynomial_ring(["y", "x"]).quotient([x * x, y * y])):
        assert R != other and other != R
    with pytest.raises(ValueError, match="different rings"):
        theorems._one_ring([PresentedModule.cyclic(R, []),
                            PresentedModule.cyclic(S.quotient([x * x]), [])])


# -- the strictness family -------------------------------------------------

def test_scroll_family_shape():
    Rn, minors, z = nilpotent_scroll_family(2)
    assert Rn.nvars == 5
    # the appended linear form is the last x-variable
    assert str(z) == "x3"
    assert all(m.homogeneous_degree() == 2 for m in minors)


def test_scroll_family_rejects_small_n():
    with pytest.raises(ValueError):
        nilpotent_scroll_family(1)


def test_scroll_filter_strictness():
    Rn, minors, z = nilpotent_scroll_family(2)
    M = PresentedModule.cyclic(Rn, minors)
    out = check_filter_regular_formula(M, z)
    assert not holds(out)
    assert out.invariants["strict"]
    assert out.conclusion["lhs"] == 1
    assert out.conclusion["rhs"] == 3
    assert out.invariants["reg_colon"] == 3
    assert out.invariants["reg_quotient"] == 2


# -- sequence search and corpus machinery ----------------------------------

def test_saturated_sequence_length_matches_dimension(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    forms = saturated_sequence(M, seed=3)
    assert len(forms) == 2
    assert all(f.homogeneous_degree() == 1 for f in forms)


def test_saturated_sequence_empty_for_finite_length(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x, y, z * z])
    assert saturated_sequence(M) == []


def test_saturated_sequence_deterministic(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * z])
    a = [str(f) for f in saturated_sequence(M, seed=7)]
    b = [str(f) for f in saturated_sequence(M, seed=7)]
    assert a == b


def test_corpus_is_seeded_and_stable():
    a = random_ideal_corpus(seed=5, count=6)
    b = random_ideal_corpus(seed=5, count=6)
    assert [i.name for i in a] == [i.name for i in b]
    for u, v in zip(a, b):
        assert [str(g) for g in u.ideal] == [str(g) for g in v.ideal]
    c = random_ideal_corpus(seed=6, count=6)
    assert any([str(g) for g in u.ideal] != [str(g) for g in v.ideal]
               for u, v in zip(a, c))


def test_corpus_checks_produce_outcomes():
    inst = random_ideal_corpus(seed=11, count=1)[0]
    outs = corpus_checks(inst)
    assert len(outs) == 5
    names = {o.name for o in outs}
    assert names == {"cmd1", "dim1", "tensor", "hom", "filter"}


def test_run_corpus_keeps_instance_order():
    insts = random_ideal_corpus(seed=11, count=2)
    rows = run_corpus(insts)
    assert [o.instance for o in rows] == [
        o.instance for inst in insts for o in corpus_checks(inst)]


def test_checker_values_do_not_depend_on_the_route_reading_a_module(
        monkeypatch):
    # the checkers read every module value through _reg, off the duality
    # rows; the routes agree, so reading the checkers' own modules (H_i,
    # Tor, Ext, the colon and the quotient, which the route sweeps never
    # see) by the Koszul route instead changes no outcome
    def outcomes():
        return [o.as_dict() for inst in random_ideal_corpus(count=8)
                for o in corpus_checks(inst)]

    expected = outcomes()
    read = []

    def koszul_reg(M):
        read.append(M)
        return reg_via_koszul(M)[0]

    monkeypatch.setattr(theorems, "_reg", koszul_reg)
    assert outcomes() == expected
    # 120 module values, each read by the Koszul route
    assert len(read) == 120
