import random
from math import inf

import pytest

from cmreg import (BoundedComplex, ModuleMap, PresentedModule,
                   complex_from_module, ext, free_resolution_of_complex,
                   grade_of_sequence, hom_complex, koszul_complex,
                   koszul_resolution_of_k, local_cohomology_table,
                   polynomial_ring,
                   resolution_to_complex, tensor_complexes,
                   tensor_free_with_complex, tor, free_resolution)
from cmreg.regularity import LocalCohomologyTable
from cmreg.complexes import dual_complex, ext_complex, free_complex_from_data
from cmreg.freemod import columns_from_rows
from cmreg.theorems import _random_linear_form, random_ideal_corpus


def test_koszul_complex_shape(S3):
    K = koszul_complex(list(S3.gens()), complex_from_module(
        PresentedModule.cyclic(S3, [])))
    assert sorted(K.levels()) == [0, 1, 2, 3]
    assert K.verify()
    # exterior-power ranks
    assert [K.term(i).rank for i in range(4)] == [1, 3, 3, 1]


def test_koszul_on_regular_sequence_resolves_quotient(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [])
    K = koszul_complex([x, y * y], complex_from_module(M))
    assert K.homology(1).is_zero()
    assert K.homology(2).is_zero()
    H0 = K.homology(0)
    Q = PresentedModule.cyclic(S3, [x, y * y])
    for j in range(5):
        assert H0.hilbert_function(j) == Q.hilbert_function(j)


def test_koszul_resolution_of_k_is_exact(S3):
    K = koszul_resolution_of_k(S3)
    assert K.verify()
    for i in sorted(K.levels()):
        H = K.homology(i)
        if i == 0:
            assert H.is_finite_length() and H.hilbert_function(0) == 1
        else:
            assert H.is_zero()


@pytest.mark.parametrize("field", [dict(p=32003), dict(p=2),
                                   dict(rational=True)],
                         ids=["GF(32003)", "GF(2)", "QQ"])
@pytest.mark.parametrize("n", range(1, 5))
def test_the_dual_koszul_complex_has_homology_k_of_n_at_minus_n(field, n):
    # Koszul self-duality: Ext^i(k, S) = H_{-i}(K^*) is k(n) at i = n and
    # zero elsewhere, read both off the cokernels and presented
    S = polynomial_ring(["x", "y", "z", "w"][:n], **field)
    D = dual_complex(koszul_complex(list(S.gens())))
    assert D.verify()
    assert D.levels() == list(range(-n, 1))
    k_n = PresentedModule.cyclic(S, list(S.gens())).hilbert_series().twist(n)
    assert D.nonzero_homology_series() == {-n: k_n}
    assert D.homology(-n).hilbert_series() == k_n


def _column(f):
    return {(0, m): c for m, c in f.terms.items()}


def test_the_dual_of_a_free_complex_is_a_complex(S3):
    x, y, z = S3.gens()
    # spots 0, 1 and 3, 4 with spot 2 empty
    gap = free_complex_from_data(S3, {0: (0,), 1: (1,), 3: (3,), 4: (5,)},
                                 {1: [_column(x)], 4: [_column(y * z)]})
    frees = [gap, gap.shift(1)]
    for inst in random_ideal_corpus():
        F = resolution_to_complex(free_resolution(inst.module))
        frees += [F, F.shift(1)]
    for F in frees:
        D = dual_complex(F)
        assert D.verify()
        assert D.levels() == sorted(-p for p in F.levels())
        for p in F.levels():
            assert D.term(-p).gens_free.twists == tuple(
                -a for a in F.term(p).gens_free.twists)
    assert sorted(dual_complex(gap).diffs) == [-3, 0]


def test_grade_of_full_variable_sequence(S3):
    M = PresentedModule.cyclic(S3, [])
    assert grade_of_sequence(list(S3.gens()), M) == 3


def test_grade_detects_zero_divisor(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    assert grade_of_sequence([x], M) == 0


def test_tor_symmetry(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, y * z])
    N = PresentedModule.cyclic(S3, [x * y + z * z])
    for i in range(3):
        A = tor(M, N, i)
        B = tor(N, M, i)
        for j in range(8):
            assert A.hilbert_function(j) == B.hilbert_function(j)


def test_totalizations_refuse_factors_over_different_rings(S3):
    # tensor and Hom read F's ring and C's modules, over two rings at once
    x, y, z = S3.gens()
    T = polynomial_ring(["x", "y", "z"], p=7)
    F = koszul_complex([x, y])
    C = complex_from_module(PresentedModule.cyclic(T, [T.gens()[0]]))
    for build in (tensor_free_with_complex, hom_complex):
        with pytest.raises(ValueError, match="different rings"):
            build(F, C)


def test_tor_zero_is_tensor_product(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x])
    N = PresentedModule.cyclic(S3, [y])
    T0 = tor(M, N, 0)
    P = PresentedModule.cyclic(S3, [x, y])
    for j in range(5):
        assert T0.hilbert_function(j) == P.hilbert_function(j)


def test_ext_into_free_detects_depth(S3):
    # for finite length modules only the top Ext against S survives
    x, y, z = S3.gens()
    k = PresentedModule.cyclic(S3, [x, y, z])
    S = PresentedModule.cyclic(S3, [])
    assert ext(k, S, 0).is_zero()
    assert ext(k, S, 1).is_zero()
    assert ext(k, S, 2).is_zero()
    E = ext(k, S, 3)
    assert not E.is_zero()
    assert E.is_finite_length()
    # one dimension, concentrated in degree -3
    assert E.hilbert_function(-3) == 1
    assert E.indeg() == -3 and E.top_degree() == -3


def test_shift_commutes_with_homology(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    K = koszul_complex([x], complex_from_module(M))
    Ks = K.shift(2)
    for i in K.levels():
        A = K.homology(i)
        B = Ks.homology(i + 2)
        for j in range(5):
            assert A.hilbert_function(j) == B.hilbert_function(j)


def test_free_resolution_of_complex_preserves_homology(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, x * y])
    L = koszul_complex([z], complex_from_module(M))
    F, complete = free_resolution_of_complex(L)
    assert complete
    assert F.is_free
    for i in set(L.levels()) | set(F.levels()):
        A = L.homology(i)
        B = F.homology(i)
        for j in range(6):
            assert A.hilbert_function(j) == B.hilbert_function(j)


def test_tensor_of_resolutions_computes_tor(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x])
    N = PresentedModule.cyclic(S3, [x * y])
    F = resolution_to_complex(free_resolution(M))
    T = tensor_free_with_complex(F, complex_from_module(N))
    for i in range(3):
        A = T.homology(i)
        B = tor(M, N, i)
        for j in range(6):
            assert A.hilbert_function(j) == B.hilbert_function(j)


def assert_series_match_homology(C):
    # the series first, so that no presented H_i exists when it is read
    for i in C.levels():
        assert C.homology_series(i) == C.homology(i).hilbert_series(), i


def duality_complex(M):
    """(Hom(F, S(-n)), n) for the minimal free resolution F of M over its
    n-variable cover S: the complex whose homology is Ext^q_S(M, S(-n))."""
    Mc = M.lift_to_cover()
    S = Mc.ring
    n = S.nvars
    D = hom_complex(resolution_to_complex(free_resolution(Mc)),
                    complex_from_module(PresentedModule.free(S, (n,))))
    return D, n


def reference_local_cohomology(M):
    """local_cohomology_table(M) built from presented Ext modules."""
    D, n = duality_complex(M)
    ext_mods = {}
    for s in D.levels():
        H = D.homology(s)
        if not H.is_zero():
            ext_mods[-s] = H
    support = {}
    for q, E in ext_mods.items():
        top = E.top_degree()
        support[n - q] = (-inf if top == inf else -top, -E.indeg())
    lo, hi = -2 * n - 4, 2 * n + 4
    needed = max(end for (_, end) in support.values())
    while hi < needed:
        hi = 2 * hi + 4
    entries = {}
    for q, E in ext_mods.items():
        for j in range(lo, hi + 1):
            d = E.hilbert_function(-j)
            if d:
                entries[(n - q, j)] = d
    return LocalCohomologyTable(entries, (lo, hi), support, n)


def table_fields(t):
    """What a local cohomology table reads: its window, entries and row
    support."""
    return t.window, t.entries, t.row_support


@pytest.mark.parametrize("inst", random_ideal_corpus(count=8),
                         ids=lambda inst: inst.name)
def test_homology_series_matches_homology_on_corpus(inst):
    M = inst.module
    S = inst.ring
    assert_series_match_homology(
        koszul_complex(list(S.gens()), complex_from_module(M)))
    assert_series_match_homology(
        hom_complex(koszul_resolution_of_k(S), complex_from_module(M)))
    assert_series_match_homology(duality_complex(M)[0])


def checker_complexes(inst):
    """The complexes that `corpus_checks` builds for inst, with its forms
    f and g drawn the same way: the cut K(f; M), the Tor complex of
    S/(g) (x) M and the Hom complex of S/(g) into M."""
    rng = random.Random(f"{inst.name}:aux")
    S, M = inst.ring, inst.module
    f = _random_linear_form(S, rng)
    g = _random_linear_form(S, rng)
    cyc = PresentedModule.cyclic(S, [g])
    return {"cut": koszul_complex([f], M),
            "tor": tensor_free_with_complex(
                resolution_to_complex(free_resolution(cyc)),
                complex_from_module(M)),
            "hom": ext_complex(cyc, M)}


@pytest.mark.parametrize("inst", random_ideal_corpus(count=5),
                         ids=lambda inst: inst.name)
def test_homology_series_matches_homology_on_checker_complexes(inst):
    for name, C in checker_complexes(inst).items():
        assert C.levels(), name
        assert_series_match_homology(C)


def assert_reader_is_the_filtered_series(C):
    """nonzero_homology_series() against homology_series at every spot from
    the lowest to the highest term: the nonzero ones, ascending."""
    want = {}
    for i in range(C.min_level, C.max_level + 1):
        H = C.homology_series(i)
        if not H.is_zero():
            want[i] = H
    got = C.nonzero_homology_series()
    assert got == want
    assert list(got) == sorted(got)
    return got


@pytest.mark.parametrize("inst", random_ideal_corpus(count=5),
                         ids=lambda inst: inst.name)
def test_nonzero_homology_series_reads_every_nonzero_spot(inst):
    complexes = checker_complexes(inst)
    complexes["bass"] = hom_complex(koszul_resolution_of_k(inst.ring),
                                    complexes["cut"])
    for name, C in complexes.items():
        assert assert_reader_is_the_filtered_series(C), name


def test_an_exact_complex_has_no_nonzero_homology_series(S3):
    x, y, _ = S3.gens()
    # the Koszul complex on a unit: M --1--> M, exact at both spots
    C = koszul_complex([S3.constant(1)], PresentedModule.cyclic(S3, [x * y]))
    assert C.levels() == [0, 1]
    assert assert_reader_is_the_filtered_series(C) == {}
    assert C.sup_homology() == -inf


def test_homology_series_matches_homology_over_quotient(det_module):
    R = det_module.ring
    assert_series_match_homology(
        koszul_complex(list(R.gens()), complex_from_module(det_module)))
    assert_series_match_homology(duality_complex(det_module)[0])


@pytest.mark.parametrize("inst", random_ideal_corpus(count=8),
                         ids=lambda inst: inst.name)
def test_local_cohomology_table_matches_module_path(inst):
    assert (table_fields(local_cohomology_table(inst.module))
            == table_fields(reference_local_cohomology(inst.module)))


def test_local_cohomology_table_matches_module_path_over_quotient(
        det_module):
    assert (table_fields(local_cohomology_table(det_module))
            == table_fields(reference_local_cohomology(det_module)))


def test_homology_series_rejects_noncomplex(S3):
    x, y, z = S3.gens()
    F0 = PresentedModule.free(S3, [0])
    F1 = PresentedModule.free(S3, [1])
    F2 = PresentedModule.free(S3, [2])
    d1 = ModuleMap(F1, F0, columns_from_rows([[x]], 1))
    d2 = ModuleMap(F2, F1, columns_from_rows([[y]], 1))
    C = BoundedComplex(S3, {0: F0, 1: F1, 2: F2}, {1: d1, 2: d2})
    with pytest.raises(ValueError):
        C.homology(1)
    with pytest.raises(ValueError):
        C.homology_series(1)
