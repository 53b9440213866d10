"""Monomial and term helpers for the tests' reference implementations.

The Groebner kernel divides monomials and takes their lcms on packed
exponent words (cmreg.groebner), so the library has no tuple versions
of these.  A reference written on exponent tuples takes them from here.
"""

from operator import le, sub

from cmreg.poly import grevlex_key


def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_div(b, a):
    """b / a, assuming a | b."""
    return tuple(map(sub, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def term_key(t):
    """Sort key for a term (position, monomial) in the position-over-grevlex
    order of cmreg.freemod; larger key = larger term."""
    return (-t[0],) + grevlex_key(t[1])
