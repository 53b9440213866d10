"""Coefficient types at every layer.  Over QQ every coefficient is a
Fraction, over GF(p) an int in [1, p).  Every layer computes with
operators (cmreg.scalars), which keep an int an int, so a single int
entering a QQ computation would later make 1 / a a float.  This reads the
coefficients that the resolution, minimization, subquotient, Koszul,
totalization and polynomial layers hand back."""

import random
from fractions import Fraction

import pytest

from cmreg import (PresentedModule, colon_by_element, free_resolution,
                   hom_complex, koszul_complex, polynomial_ring,
                   resolution_to_complex, tensor_complexes)
from cmreg.theorems import _random_linear_form, random_ideal_corpus
from test_oracle import over_field

FIELDS = {"GF(32003)": dict(p=32003), "QQ": dict(rational=True)}


def assert_coefficients(coeffs, K):
    p = K.characteristic
    coeffs = list(coeffs)
    if p:
        bad = [c for c in coeffs if type(c) is not int or not 0 < c < p]
    else:
        bad = [c for c in coeffs if type(c) is not Fraction or not c]
    assert bad == []


def vec_coefficients(vecs):
    return [c for v in vecs for c in v.values()]


def complex_coefficients(C):
    return vec_coefficients(col for d in C.diffs.values() for col in d.cols)


def dense_quadrics(S, rng):
    """len(S.gens()) quadrics with every coefficient drawn from -9..9."""
    xs = S.gens()
    return [sum((rng.randint(-9, 9) * xs[i] * xs[j]
                 for i in range(len(xs)) for j in range(i, len(xs))),
                S.zero_poly())
            for _ in xs]


def modules(field_args):
    """Eight corpus modules read over the field, and S/(dense quadrics) in
    three and four variables."""
    out = [over_field(inst.module, field_args)
           for inst in random_ideal_corpus()[:8]]
    rng = random.Random("coefficients")
    for n in (3, 4):
        S = polynomial_ring(["x", "y", "z", "w"][:n], **field_args)
        out.append(PresentedModule.cyclic(S, dense_quadrics(S, rng)))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_every_layer_hands_back_field_elements(field):
    rng = random.Random(f"forms:{field}")
    for M in modules(FIELDS[field]):
        S = M.ring
        K = S.field
        f = _random_linear_form(S, rng)
        res = free_resolution(M)
        assert_coefficients(vec_coefficients(
            col for cs in res.cols.values() for col in cs), K)
        assert_coefficients(vec_coefficients(M.minimized().rel_cols), K)
        colon, inclusion = colon_by_element(M, f)
        assert_coefficients(vec_coefficients(colon.rel_cols), K)
        assert_coefficients(vec_coefficients(inclusion.cols), K)
        L = koszul_complex([f, S.gens()[0]], M)
        assert_coefficients(complex_coefficients(L), K)
        for i in L.levels():
            assert_coefficients(vec_coefficients(L.homology(i).rel_cols), K)
        F = resolution_to_complex(res)
        kz = koszul_complex([f] + list(S.gens()[1:]))
        for C in (F.shift(1), kz, tensor_complexes(F, kz),
                  hom_complex(F, kz)):
            assert_coefficients(complex_coefficients(C), K)


@pytest.mark.parametrize("field", FIELDS)
def test_polynomial_arithmetic_hands_back_field_elements(field):
    S = polynomial_ring(["x", "y", "z"], **FIELDS[field])
    K = S.field
    f, g = dense_quadrics(S, random.Random("polys"))[:2]
    x = S.gens()[0]
    for h in (f + g, f - g, -f, f * g, f * 3, 3 * f, -1 * f, f + 1, 2 - f,
              f ** 3, x * -5, S.constant(-7), S.monomial((1, 2, 0))):
        assert h.terms
        assert_coefficients(h.terms.values(), K)
    for h in (f - f, f * 0, f + (-f), f * S.constant(0)):
        assert not h.terms
    p = K.characteristic
    if p:
        assert not (f * (p - 1) + f).terms
