"""Exact coefficient arithmetic: prime fields GF(p) and the rationals.

Field elements are plain Python values (ints reduced into [0, p) for GF(p),
fractions.Fraction for the rationals).  A field object supplies the
operations; hot loops bind them to locals once.
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


class PrimeField:
    """GF(p) with elements stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p=DEFAULT_PRIME):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def characteristic(self):
        return self.p

    def from_int(self, n):
        return n % self.p

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals; elements are fractions.Fraction."""

    __slots__ = ()

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    @property
    def characteristic(self):
        return 0

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()
