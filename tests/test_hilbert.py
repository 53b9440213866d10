from math import inf

from cmreg import PresentedModule, module_from_ideal


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
