"""Monomials (exponent tuples) and their packed exponent words, the graded
reverse lexicographic order, and polynomials with exact coefficients.

A monomial is a tuple of non-negative ints, one exponent per variable.
Polynomials store terms as a dict {monomial: coefficient} with no zero
coefficients; they carry a reference to their ring for coefficient
arithmetic and printing.

The Groebner kernel and the Hilbert layer compute on monomials packed as
exponent words (`Words`), one int each; that class alone knows the word
layout, and both layers read it.
"""

import struct
from fractions import Fraction
from operator import add

EXPONENT_CAP = 2**16 - 1
_OVERFLOW = f"monomial exponent exceeds {EXPONENT_CAP}"
_FIELD_BITS = 32  # an exponent field: EXPONENT_CAP's 16 bits under 16 guard bits
_FIELD = (1 << _FIELD_BITS) - 1
_GUARD = _FIELD & ~EXPONENT_CAP


def mono_deg(m):
    return sum(m)


def mono_mul(a, b):
    m = tuple(map(add, a, b))
    if m and max(m) > EXPONENT_CAP:
        raise OverflowError(_OVERFLOW)
    return m


class Words:
    """The exponent words of monomials in nvars variables.  The word of
    x^e is one int, sum_i e_i * 2^(32 i): a 32-bit field per variable,
    its exponent in the low 16 bits under 16 guard bits, B = 32 nvars bits
    in all.  This class alone knows that layout; the Groebner kernel's
    packings extend it (cmreg.groebner) and the Hilbert layer's numerator
    recursion runs on it (cmreg.hilbert).  On words:

    - g divides m exactly when (m - g) & guard == 0, guard the mask of
      every guard bit: a field that goes negative borrows and sets its
      guard bits, and exponents up to EXPONENT_CAP never carry into them.
      A proper divisor has the smaller word, so words sorted by value
      list every divisor before its multiples;
    - the degree is one multiply: w * ones, ones the word of bit 0 in
      every field, sums all fields into the top one (`degree`, `degrees`);
    - the lcm is a field-wise max (`lcm`), the support counts of a list
      of words are one field-wise sum (`support`), and a colon by x_v^k
      is one subtraction per word (`colon`).
    """

    __slots__ = ("nvars", "struct", "nbytes", "B", "emask", "guard", "ones",
                 "top", "high", "low")

    def __init__(self, nvars):
        self.nvars = nvars
        self.struct = struct.Struct(f"<{nvars}I")
        self.nbytes = 4 * nvars
        self.B = _FIELD_BITS * nvars
        self.emask = (1 << self.B) - 1
        self.guard = self._every_field(_GUARD)
        self.ones = self._every_field(1)
        self.top = self.B - _FIELD_BITS
        # bit 16 of every field (`lcm`), and EXPONENT_CAP in every field
        # (`support`)
        self.high = self._every_field(EXPONENT_CAP + 1)
        self.low = self._every_field(EXPONENT_CAP)

    def _every_field(self, f):
        return int.from_bytes(self.struct.pack(*[f] * self.nvars), "little")

    def pack(self, m):
        """The word of the exponent tuple m; OverflowError for an exponent
        above EXPONENT_CAP."""
        try:
            w = int.from_bytes(self.struct.pack(*m), "little")
        except struct.error:
            if max(m) > EXPONENT_CAP:  # too wide for a field at all
                raise OverflowError(_OVERFLOW) from None
            raise
        if w & self.guard:
            raise OverflowError(_OVERFLOW)
        return w

    def monomial(self, w):
        """The exponent tuple of the word w."""
        return self.struct.unpack(w.to_bytes(self.nbytes, "little"))

    def degree(self, w):
        """The degree of the word w's monomial, by one multiply."""
        return ((w * self.ones) >> self.top) & _FIELD

    def degrees(self, ws):
        """The degree of each word's monomial, by one multiply each."""
        ones, top = self.ones, self.top
        return [((w * ones) >> top) & _FIELD for w in ws]

    def lcm(self, a, b):
        """(degree, word) of the lcm of the monomials of words a and b."""
        H = self.high
        # field by field, bit 16 of (2^16 + b_i - a_i) is set where
        # b_i >= a_i; widened to a mask, it picks the max
        ge = ((b | H) - a) & H
        w = a ^ ((a ^ b) & (ge - (ge >> 16)))
        return ((w * self.ones) >> self.top) & _FIELD, w

    def support(self, ws):
        """For each variable v, how many words of ws have x_v in their
        support: one field-wise sum of the 0/1 words that mark each
        word's nonzero fields (a field plus EXPONENT_CAP reaches bit 16
        exactly when it is nonzero)."""
        low, ones = self.low, self.ones
        return self.monomial(sum(((m + low) >> 16) & ones for m in ws))

    def column(self, ws, v):
        """The exponent of x_v in each word of ws."""
        s = _FIELD_BITS * v
        return [(m >> s) & _FIELD for m in ws]

    def power(self, v, k):
        """The word of x_v^k."""
        return k << (_FIELD_BITS * v)

    def colon(self, ws, col, v, k):
        """The words of m : x_v^k for the words m of ws, col their
        exponents of x_v (`column`): m less x_v^min(e_v, k), one
        subtraction each."""
        s = _FIELD_BITS * v
        return [m - ((e if e < k else k) << s) for m, e in zip(ws, col)]


_WORDS = {}


def words(nvars):
    """The one `Words` of nvars variables."""
    L = _WORDS.get(nvars)
    if L is None:
        L = _WORDS[nvars] = Words(nvars)
    return L


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
