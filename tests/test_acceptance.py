"""End-to-end acceptance run.

Each test covers one numbered criterion and prints a single PASS or FAIL
line with capture suspended, so the verdicts land on the real stderr even
under pytest's default fd-level capture.  Timed criteria assert their
wall-clock budget.
"""

import sys
import time
from contextlib import contextmanager, nullcontext
from math import inf

import pytest

from cmreg import (DenseOracle, KoszulHypothesisError, PresentedModule,
                   bass_table, betti_table, check_cor_tensor,
                   check_filter_regular_formula, colon_by_element,
                   complex_from_module, depth, free_resolution, hom_complex,
                   koszul_complex, module_from_ideal, nilpotent_scroll_family,
                   polynomial_ring, quotient_by_element, reg_complex,
                   reg_via_betti, reg_via_duality, reg_via_ext,
                   reg_via_koszul, regularity, relative_reg,
                   resolution_to_complex, tor)
from cmreg.modules import annihilator, multiplication_map
from cmreg.regularity import depth_profile
from cmreg.theorems import (DEFAULT_CORPUS_SEED, corpus_checks,
                            random_ideal_corpus)


_CAP = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # lets criterion() suspend fd-level capture for its one-line verdict
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _verdict(word, number, title):
    with _CAP.disabled() if _CAP is not None else nullcontext():
        print(f"[{word}] criterion {number}: {title}", file=sys.__stderr__)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        _verdict("FAIL", number, title)
        raise
    _verdict("PASS", number, title)


@pytest.fixture(scope="module")
def corpus():
    return random_ideal_corpus(seed=DEFAULT_CORPUS_SEED, count=30)


@pytest.fixture(scope="module")
def corpus_outcomes(corpus):
    outs = []
    for inst in corpus:
        outs.extend(corpus_checks(inst))
    return outs


def test_criterion_1_determinantal_ring(det_module):
    with criterion(1, "determinantal ring: four routes, depth and colon"):
        t0 = time.perf_counter()
        R = det_module.ring
        z = R.gens()[2]
        rep = regularity(det_module)
        assert rep.agree and rep.value == 1
        assert set(rep.routes.values()) == {1}

        Q = quotient_by_element(det_module, z)
        assert depth(Q) == 1
        C, _ = colon_by_element(det_module, z)
        assert C.dimension() == 2

        out = check_filter_regular_formula(det_module, z)
        assert out.verdict == "equality"
        assert out.invariants["reg_colon"] == 1
        assert out.invariants["reg_quotient"] == 1
        assert out.conclusion["lhs"] == 1 == out.conclusion["rhs"]
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_strictness_family():
    with criterion(2, "nilpotent-scroll family: growth and strictness"):
        t0 = time.perf_counter()
        for n in (2, 3, 4):
            T, minors, z = nilpotent_scroll_family(n)
            assert reg_via_betti(module_from_ideal(T, minors))[0] == 2
            assert (reg_via_betti(module_from_ideal(T, minors + [z]))[0]
                    == n + 1)

        T, minors, z = nilpotent_scroll_family(2)
        M = PresentedModule.cyclic(T, minors)
        Q = quotient_by_element(M, z)
        assert depth(Q) == 0
        C, _ = colon_by_element(M, z)
        assert C.dimension() == 2
        ann = sorted(str(f) for f in annihilator(C))
        assert ann == ["x1", "x2", "x3"]

        out = check_filter_regular_formula(M, z)
        assert out.conclusion["lhs"] == 1
        # the colon module is generated in degree 3 and is a twisted
        # two-variable polynomial ring, so the right side is 3, strictly
        # above the left side
        assert out.invariants["reg_colon"] == 3
        assert out.invariants["reg_quotient"] == 2
        assert out.conclusion["rhs"] == 3
        assert out.invariants["strict"]
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_pair_over_a_koszul_hypersurface():
    with criterion(3, "hypersurface pair: graded Tor and the sum formula"):
        S = polynomial_ring(["x", "y"])
        x, y = S.gens()
        R = S.quotient([x * x + y * y])
        xr, yr = R.gens()
        M = PresentedModule.cyclic(R, [xr])
        N = PresentedModule.cyclic(R, [yr])

        T0 = tor(M, N, 0)
        assert T0.is_finite_length()
        assert [T0.hilbert_function(j) for j in range(3)] == [1, 0, 0]
        T1 = tor(M, N, 1)
        assert T1.is_finite_length()
        assert [T1.hilbert_function(j) for j in range(4)] == [0, 0, 1, 0]

        out = check_cor_tensor(M, N)
        assert out.hypothesis["verdict"] == "holds"
        assert out.conclusion["verdict"] == "equality"
        assert out.conclusion["lhs"] == 1
        regs = (reg_via_duality(M)[0], reg_via_duality(N)[0],
                reg_via_duality(PresentedModule.cyclic(R, []))[0])
        assert regs == (1, 1, 1)
        assert out.conclusion["lhs"] == regs[0] + regs[1] - regs[2]

        for P in (M, N):
            rel = relative_reg(P)
            assert rel.certified and rel.value == 0
            res = free_resolution(P)
            assert res.complete and res.length == 1


def test_criterion_4_two_quadrics_ring(ci_ring):
    with criterion(4, "two-quadric quotient: reg 2 and linear syzygies of k"):
        R0 = PresentedModule.cyclic(ci_ring, [])
        assert reg_via_duality(R0)[0] == 2

        k = PresentedModule.cyclic(ci_ring, list(ci_ring.gens()))
        bt = betti_table(k, max_len=6)
        assert not bt.complete
        tops = {}
        for (i, j), v in bt.entries.items():
            if v:
                tops[i] = max(tops.get(i, -10), j)
        assert tops == {i: i for i in range(7)}

        rel = relative_reg(k, max_len=6)
        reg_k = reg_via_duality(k)[0]
        # the two bridge inequalities at these values
        assert rel.value <= reg_k + rel.value
        assert reg_k <= rel.value + 2


def test_criterion_5_free_socles_and_gorenstein_count():
    with criterion(5, "dual socle of free rings and a hypersurface count"):
        for n in range(1, 5):
            S = polynomial_ring([f"x{i}" for i in range(1, n + 1)])
            free = PresentedModule.cyclic(S, [])
            mu = bass_table(free)
            assert mu == {(n, -n): 1}
            assert reg_via_ext(free)[0] == 0

        S = polynomial_ring(["x", "y"])
        x, y = S.gens()
        R = S.quotient([x * x + y * y])
        M = PresentedModule.cyclic(R, [])
        from cmreg import a_invariant
        assert M.dimension() == 1
        assert a_invariant(R) == 0
        assert reg_via_duality(M)[0] == 1 + 0


def test_criterion_6_four_route_sweep(corpus):
    with criterion(6, "four-route agreement on the seeded corpus"):
        t0 = time.perf_counter()
        assert len(corpus) >= 30
        for inst in corpus:
            M = inst.module
            vals = {
                reg_via_betti(M)[0],
                reg_via_ext(M)[0],
                reg_via_duality(M)[0],
                reg_via_koszul(M)[0],
            }
            assert len(vals) == 1, f"disagreement on {inst.name}: {vals}"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_depth_triple_formula(corpus):
    with criterion(7, "three depth computations agree on the corpus"):
        for inst in corpus:
            prof = depth_profile(inst.module)
            assert len(set(prof.values())) == 1, f"{inst.name}: {prof}"


def test_criterion_8_oracle_equivalence(corpus):
    with criterion(8, "dense linear-algebra oracle matches the resolutions"):
        for inst in corpus:
            M = inst.module
            bt = betti_table(M)
            oc = DenseOracle(M)
            n = M.ring.nvars
            for i in range(n + 1):
                for j in range(7):
                    assert (oc.betti_number(i, j)
                            == bt.entries.get((i, j), 0)), (
                        f"{inst.name}: betti({i},{j})")
            for j in range(7):
                assert oc.hilbert_function(j) == M.hilbert_function(j), (
                    f"{inst.name}: hilbert({j})")


def test_criterion_9_checker_soundness(corpus, corpus_outcomes):
    with criterion(9, "checkers: no violations, one-sided bounds everywhere"):
        # building the outcome list raises on any contradiction, so
        # reaching this point already rules violations out
        assert len(corpus_outcomes) == 5 * len(corpus)
        for out in corpus_outcomes:
            assert out.verdict in ("equality", "inequality", "not-asserted")
            lhs = out.conclusion["lhs"]
            rhs = out.conclusion["rhs"]
            if out.name in ("cmd1", "dim1", "filter"):
                assert lhs <= rhs, f"{out.instance}/{out.name}"
            if out.name in ("tensor", "hom") and lhs is not None:
                assert lhs >= rhs, f"{out.instance}/{out.name}"
        # the cut complexes bound the module value from above
        by_instance = {}
        for out in corpus_outcomes:
            by_instance.setdefault(out.instance.split("/")[0], []).append(out)
        for inst in corpus:
            value = reg_via_duality(inst.module)[0]
            for out in by_instance[inst.name]:
                if out.name == "cmd1":
                    assert value <= out.conclusion["rhs"], inst.name


def test_criterion_10_convolution_identity(corpus):
    with criterion(10, "resolution-against-socle convolution on five pairs"):
        import random
        picked = corpus[:5]
        for idx, inst in enumerate(picked):
            S = inst.ring
            M = inst.module
            if idx == 3:
                M = M.twist(-2)  # nonzero initial degree must shift the value
            rng = random.Random(f"pairs:{inst.name}")
            g = inst.ideal[rng.randrange(len(inst.ideal))]
            N = PresentedModule.cyclic(S, [g * g])

            res = free_resolution(M)
            assert res.complete
            F = resolution_to_complex(res)
            RH = hom_complex(F, complex_from_module(N))

            mu_rh = bass_table(RH)
            mu_n = bass_table(N)
            beta = betti_table(M).entries
            support = set(mu_rh)
            for (u, v) in beta:
                for (i, j) in mu_n:
                    support.add((i + u, j - v))
            for (i, j) in support:
                expect = sum(b * mu_n.get((i - u, j + v), 0)
                             for (u, v), b in beta.items())
                assert mu_rh.get((i, j), 0) == expect, (
                    f"{inst.name}: entry ({i},{j})")

            lhs = reg_complex(RH)
            assert lhs == reg_via_duality(N)[0] - M.indeg(), inst.name


def test_criterion_11_append_linear_forms(corpus, det_module):
    with criterion(11, "value stable under extra linear forms; loud failure"):
        import random
        # the smaller rings keep the exterior algebra sizes sane
        small = [inst for inst in corpus if inst.ring.nvars <= 3][:10]
        assert len(small) == 10
        for inst in small:
            M = inst.module
            S = inst.ring
            base = reg_via_koszul(M)[0]
            rng = random.Random(f"append:{inst.name}")
            extras = []
            for _ in range(3):
                f = S.zero_poly()
                while f.is_zero():
                    f = sum((rng.randrange(S.field.p) * S.monomial(
                        tuple(1 if i == v else 0 for i in range(S.nvars)))
                        for v in range(S.nvars)), S.zero_poly())
                extras.append(f)
                forms = list(S.gens()) + extras
                assert reg_via_koszul(M, forms=forms)[0] == base, inst.name

        z = det_module.ring.gens()[2]
        with pytest.raises(KoszulHypothesisError) as ei:
            reg_via_koszul(det_module, forms=[z])
        assert ei.value.spot == 1 and ei.value.dimension == 2
