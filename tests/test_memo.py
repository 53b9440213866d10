"""The one cache rule (cmreg.memo): a per-object result is computed once
per object and key, and a compute that raises stores nothing."""

import pytest

import cmreg.complexes
import cmreg.groebner
import cmreg.modules
import cmreg.resolution
from cmreg import (BoundedComplex, ModuleMap, PresentedModule,
                   free_resolution, koszul_complex, koszul_resolution_of_k,
                   polynomial_ring)
from cmreg.groebner import defining_gb


def _module():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    return PresentedModule.cyclic(S, [x * x, x * y, y * z * z])


def _koszul():
    M = _module()
    x, y, _ = M.ring.gens()
    return koszul_complex([x, y], M)


def _quotient_ring():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    return S.quotient([x * y, y * z])


# (name, fresh object, the cached call, (owner, attribute) of the inner
# call that does the work on a miss)
CASES = [
    ("gb", _module, lambda M: M.gb(), (cmreg.modules, "groebner_basis")),
    ("minimized", _module, lambda M: M.minimized(),
     (cmreg.modules, "minimize_presentation")),
    ("hilbert_series", _module, lambda M: M.hilbert_series(),
     (cmreg.modules, "hilbert_series")),
    ("free_resolution", _module, free_resolution,
     (cmreg.resolution, "_resolve")),
    ("free_resolution_of_free", lambda: PresentedModule.free(
        polynomial_ring(["x", "y"]), [0, 1]), free_resolution,
     (cmreg.resolution, "_resolve")),
    ("homology", _koszul, lambda K: K.homology(1),
     (cmreg.complexes, "homology_at")),
    ("homology_series", _koszul, lambda K: K.homology_series(1),
     (BoundedComplex, "_coker_series")),
    ("koszul_resolution_of_k", lambda: polynomial_ring(["x", "y", "z"]),
     koszul_resolution_of_k, (cmreg.complexes, "koszul_complex")),
    ("defining_gb", _quotient_ring, defining_gb,
     (cmreg.groebner, "_buchberger")),
]


@pytest.mark.parametrize("fresh, call, inner", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_second_call_returns_the_cached_object(monkeypatch, fresh, call,
                                               inner):
    owner, attr = inner
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    obj = fresh()
    first = call(obj)
    computed = len(calls)
    assert computed >= 1
    assert call(obj) is first
    assert len(calls) == computed


def test_a_failing_compute_is_not_stored():
    S = polynomial_ring(["x", "y", "z"])
    x, y, _ = S.gens()
    F = [PresentedModule.free(S, [d]) for d in range(3)]
    C = BoundedComplex(S, dict(enumerate(F)),
                       {1: ModuleMap.from_entries(F[1], F[0], [[x]]),
                        2: ModuleMap.from_entries(F[2], F[1], [[y]])})
    for _ in range(2):
        with pytest.raises(ValueError):
            C.homology_series(1)
    assert ("HS", 1) not in C._cache


def test_defining_gb_of_a_polynomial_ring_is_empty_and_not_cached():
    S = polynomial_ring(["x", "y"])
    assert defining_gb(S) == []
    assert S._cache == {}
