from fractions import Fraction

import pytest

from cmreg import polynomial_ring
from cmreg.poly import Polynomial, grevlex_key
from cmreg.session import parse_polynomial


def test_ring_arithmetic(S3):
    x, y, z = S3.gens()
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert f - f == S3.zero_poly()


def test_int_coercion(S3):
    x, y, z = S3.gens()
    assert 3 * x == x + x + x
    assert x * 0 == S3.zero_poly()
    assert (x + 1) * (x - 1) == x * x - S3.constant(1)


def test_fraction_coercion_over_qq():
    # Fraction(1, 2) * x raised TypeError: only ints were coerced
    S = polynomial_ring(["x", "y"], rational=True)
    x, y = S.gens()
    half = Fraction(1, 2)
    h = S.constant(half)
    assert half * x == x * half == h * x
    assert x + half == half + x == x + h
    assert x - half == x - h
    assert Fraction(3) - x == S.constant(3) - x
    assert (half * x).terms == {(1, 0): half}
    assert (x - x * half) * 2 == x


def test_a_fraction_is_no_element_of_a_prime_field(S3):
    x = S3.gens()[0]
    for op in (lambda f: Fraction(1, 2) * f, lambda f: f * Fraction(1, 2),
               lambda f: f + Fraction(1, 2), lambda f: Fraction(1, 2) + f,
               lambda f: f - Fraction(1, 2), lambda f: Fraction(3) - f):
        with pytest.raises(TypeError):
            op(x)


def test_degree_and_homogeneity(S3):
    x, y, z = S3.gens()
    f = x * y + z * z
    assert f.homogeneous_degree() == 2
    assert f.is_homogeneous()
    assert not (x + y * z).is_homogeneous()
    assert S3.zero_poly().is_homogeneous()


def test_grevlex_ties_break_on_last_variable(S4):
    # same degree: the monomial whose trailing exponents are smaller wins
    x, y, z, t = S4.gens()
    f = x * t - y * z
    # leading (first printed is the smallest; str sorts ascending) term of
    # x*t - y*z under grevlex is y*z since x*t carries the cheapest variable
    assert str(f) == "32002*y*z + x*t"


def test_str_is_reparseable(S4):
    x, y, z, t = S4.gens()
    for f in (x * t - y * z, x ** 3 + 2 * x * y * z - t ** 3, S4.constant(5)):
        g = parse_polynomial(str(f), S4)
        assert g == f


def test_zero_prints_as_zero(S3):
    assert str(S3.zero_poly()) == "0"


def test_hash_consistent_with_eq(S3):
    x, y, z = S3.gens()
    a = x * y + z
    b = z + y * x
    assert a == b and hash(a) == hash(b)


def test_grevlex_key_multiplicative(S3):
    # m1 <= m2 implies m1*m <= m2*m for every monomial m
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    bump = (1, 0, 2)
    for a in mons:
        for b in mons:
            if grevlex_key(a) < grevlex_key(b):
                am = tuple(u + v for u, v in zip(a, bump))
                bm = tuple(u + v for u, v in zip(b, bump))
                assert grevlex_key(am) < grevlex_key(bm)
