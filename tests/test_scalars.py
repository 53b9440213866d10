import time
from fractions import Fraction
from math import isqrt

import pytest

from cmreg.scalars import MAX_MODULUS, QQ, PrimeField, _is_prime


def test_prime_field_inverse_covers_units():
    F = PrimeField(13)
    for a in range(1, 13):
        assert a * F.inv(a) % 13 == 1


def test_inverse_of_zero_rejected():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero in GF\(p\)$"):
        F.inv(0)


def test_from_int_normalizes():
    F = PrimeField(5)
    assert F.from_int(-1) == 4
    assert F.from_int(12) == 2


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_rational_field():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.from_int(4) == Fraction(4)
    assert QQ.characteristic == 0
    # an int one would turn 1 / a into a float
    assert type(QQ.one) is Fraction and type(QQ.from_int(4)) is Fraction
    assert type(QQ.inv(2)) is Fraction
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        QQ.inv(Fraction(0))


def test_modulus_zero_refused():
    # p = 0 stands for QQ in the one field class, but PrimeField refuses it
    with pytest.raises(ValueError, match="^modulus 0 is not prime$"):
        PrimeField(0)


def test_rationals_differ_from_every_prime_field():
    assert QQ != PrimeField(5) and PrimeField(5) != QQ
    assert PrimeField(5) == PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert type(QQ) is type(PrimeField(5))


def test_reprs():
    # the CLI reports the ring, field included, in every "ring" field
    assert repr(PrimeField(32003)) == "GF(32003)"
    assert repr(QQ) == "QQ"


def test_characteristic_exposed():
    assert PrimeField(32003).characteristic == 32003
    assert PrimeField(32003).p == 32003


def test_large_prime_accepted_quickly():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 0.5


def test_carmichael_numbers_rejected():
    for n in (561, 3215031751):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_known_primes_still_accepted():
    assert PrimeField(32003).p == 32003
    assert PrimeField(4294967311).p == 4294967311


def test_primality_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
    assert all(_is_prime(n) == by_trial(n) for n in range(5000))


def test_modulus_beyond_exact_range_refused():
    # strong pseudoprime to the bases 2..37, caught by base 41
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(MAX_MODULUS)
