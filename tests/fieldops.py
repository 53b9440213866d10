"""Method-call field arithmetic for the tests' reference implementations.

The library computes coefficients with operators on the characteristic
(cmreg.scalars), and its fields offer no add or mul.  A reference written
in the older method-call style takes `field_ops(K)` instead, which
rebuilds those methods from K.characteristic alone and passes `one`,
`from_int` and `inv` through, so it can still be handed to the library.
"""

import operator
from fractions import Fraction
from types import SimpleNamespace


def field_ops(K):
    p = K.characteristic
    if p:
        arith = dict(zero=0,
                     add=lambda a, b: (a + b) % p,
                     sub=lambda a, b: (a - b) % p,
                     mul=lambda a, b: a * b % p,
                     neg=lambda a: -a % p)
    else:
        arith = dict(zero=Fraction(0), add=operator.add, sub=operator.sub,
                     mul=operator.mul, neg=operator.neg)
    return SimpleNamespace(characteristic=p, one=K.one, from_int=K.from_int,
                           inv=K.inv, is_zero=lambda a: a == 0, **arith)
