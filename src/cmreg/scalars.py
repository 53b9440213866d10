"""Coefficient fields: the prime fields GF(p) and the rationals.

One class, `Field(p)`, with p = 0 meaning QQ.  Elements are plain Python
values: ints in [0, p) over GF(p), fractions.Fraction over QQ.  Every
layer computes with operators on the characteristic p,

    s = a + b * c
    if p:
        s %= p

and tests `if s` for zero, which holds for ints and Fractions alike.  A
field supplies only what operators cannot: its characteristic, its one,
the image of an int, and inverses.  Over QQ `one` and `from_int` return
Fractions, since 1 / a of an int a is a float.
"""

from fractions import Fraction


DEFAULT_PRIME = 32003


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError at or above MAX_MODULUS."""
    if n >= MAX_MODULUS:
        raise ValueError(f"modulus {n} is too large (must be below "
                         f"{MAX_MODULUS})")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """GF(p) for a prime p, or QQ for p = 0; `PrimeField` validates p."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    @property
    def characteristic(self):
        return self.p

    @property
    def one(self):
        return 1 if self.p else Fraction(1)

    def from_int(self, n):
        return n % self.p if self.p else Fraction(n)

    def inv(self, a):
        p = self.p
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of zero in GF(p)")
            return pow(a, p - 2, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


def PrimeField(p=DEFAULT_PRIME):
    """GF(p), refusing a p that is not prime (0 included)."""
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return Field(p)


QQ = Field(0)
