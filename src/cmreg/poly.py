"""Monomials (exponent tuples), the graded reverse lexicographic order, and
polynomials with exact coefficients.

A monomial is a tuple of non-negative ints, one exponent per variable.
Polynomials store terms as a dict {monomial: coefficient} with no zero
coefficients; they carry a reference to their ring for coefficient
arithmetic and printing.
"""

from fractions import Fraction
from operator import add

EXPONENT_CAP = 2**16 - 1


def mono_deg(m):
    return sum(m)


def mono_mul(a, b):
    m = tuple(map(add, a, b))
    if m and max(m) > EXPONENT_CAP:
        raise OverflowError(f"monomial exponent exceeds {EXPONENT_CAP}")
    return m


def grevlex_key(m):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(m),) + tuple(-e for e in reversed(m))


class Polynomial:
    """Sparse polynomial over a graded ring's coefficient field.

    Over a quotient ring this is a representative; arithmetic does not
    normal-form-reduce, callers do that explicitly where it matters.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # dict mono -> nonzero coeff

    # -- basic predicates ------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if not self.terms:
            return None
        degs = {mono_deg(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError(f"polynomial {self} is not homogeneous")
        return degs.pop()

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        # a Fraction is a field element over QQ alone
        if isinstance(other, int) or (isinstance(other, Fraction)
                                      and not self.ring.field.characteristic):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.characteristic
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if p:
                s %= p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.characteristic
        return Polynomial(self.ring, {m: -c % p if p else -c
                                      for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.characteristic
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        result = self.ring.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing --------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == self.ring.field.one:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<poly {self}>"
