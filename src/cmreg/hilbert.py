"""Hilbert series as Laurent numerator over (1-t)^n.

The numerator of a graded module comes from the lead-term module of its
relation basis: per free position, a monomial ideal whose quotient's
numerator is computed by the colon/sum pivot recursion
N(J) = N(J + (x_v^k)) + t^k * N(J : x_v^k) (Bigatti, Computation of
Hilbert-Poincare series, JPAA 1997).  The pivot variable x_v divides the
most generators and k is the lower median of its positive exponents, so
the recursion depth grows with the logarithm of the exponents, not with
the exponents themselves; when every exponent of x_v is 1 the pivot is
x_v.  Pairwise coprime generators are the base case, whose numerator is
the product of the (1 - t^deg): the recursion ends there, not only goes
faster, since on a pure power x_v^k the pivot is x_v^k itself and the
pivot step would call itself on the same ideal.

The recursion runs on exponent words (cmreg.poly.Words), the ints a
Groebner basis element already keeps for its lead, so the callers pass
the words of their leads as they are and nothing is unpacked.  g divides
m exactly when (m - g) & guard == 0; a degree is one multiply, the
support counts that pick x_v one field-wise sum, and the colon one
subtraction per generator.  A proper divisor has the smaller word, so
generators sorted by word list each divisor before its multiples.

The recursion (`_numerator`) takes minimal generators sorted by word,
and each step keeps that form.  The sum branch needs no minimalizing
(`_with_pivot`): x_v^k removes the generators it divides, no generator
divides it (a pure power x_v^j of J has the largest exponent of x_v,
above the lower median k, since x_v divides at least two generators),
and it is inserted in place.  Only the colon branch minimalizes.
`monomial_ideal_numerator`, the one entry point, minimalizes its
generators once.  One process-wide cache, keyed by word tuples, holds at
most _NUMERATOR_CACHE_CAP numerators and is emptied when full.  The
entry point's own generator tuple, as given, becomes a key next to the
minimal tuple, so a caller that asks again with the same leads reads the
cache without minimalizing.  The numerator of a monomial ideal does not
depend on how many variables its ring has, so one key serves every
variable count.
"""

from bisect import insort
from math import comb, inf

from .poly import words


def _minimalize(gens, L=None):
    """The minimal generators of (gens), words of layout L, as a tuple
    sorted by word.  gens may also be exponent tuples (L None), packed
    here with the layout of their length."""
    if L is None:
        if not gens:
            return ()
        L = words(len(gens[0]))
        gens = [L.pack(m) for m in gens]
    guard = L.guard
    out = []
    for m in sorted(set(gens)):
        for g in out:
            if not (m - g) & guard:  # g divides m
                break
        else:
            out.append(m)
    return tuple(out)


def _with_pivot(gens, pivot, guard):
    """The minimal generators of J + (pivot), sorted by word, from gens,
    J's minimal generators sorted so, when none of them divides the
    pivot x_v^k: those the pivot does not divide, with it inserted."""
    out = [m for m in gens if (m - pivot) & guard]
    insort(out, pivot)
    return tuple(out)


_NUMERATOR_CACHE = {}
_NUMERATOR_CACHE_CAP = 1 << 16


def _store(key, out):
    if len(_NUMERATOR_CACHE) >= _NUMERATOR_CACHE_CAP:
        _NUMERATOR_CACHE.clear()
    _NUMERATOR_CACHE[key] = out


def monomial_ideal_numerator(gens, nvars):
    """Numerator dict {degree: coeff} of S/J for the monomial ideal J
    generated by gens, a tuple or list of exponent words of nvars
    variables, or of exponent tuples, packed on entry."""
    raw = tuple(gens)
    if raw and type(raw[0]) is tuple:
        raw = tuple(map(words(nvars).pack, raw))
    out = _NUMERATOR_CACHE.get(raw)
    if out is None:
        L = words(nvars)
        gens = _minimalize(raw, L)
        out = _numerator(gens, L)
        if gens != raw:
            _store(raw, out)
    return dict(out)


def _numerator(gens, L):
    """The numerator of S/(gens), gens minimal words of layout L sorted by
    word, memoized under gens; the cached dict is never changed."""
    out = _NUMERATOR_CACHE.get(gens)
    if out is not None:
        return out
    if not gens:
        out = {0: 1}
    elif not gens[0]:  # the unit ideal: 1 comes first, and alone
        out = {}
    else:
        support = L.support(gens)
        most = max(support)
        if most == 1:
            # pairwise coprime generators: product of (1 - t^deg)
            out = {0: 1}
            for d in L.degrees(gens):
                nxt = dict(out)
                for e, c in out.items():
                    nxt[e + d] = nxt.get(e + d, 0) - c
                    if nxt[e + d] == 0:
                        del nxt[e + d]
                out = nxt
        else:
            v = support.index(most)
            col = L.column(gens, v)
            # lower median: x_v^k divides at least half of the generators
            # that x_v divides, and the colon drops v from at least half
            exps = sorted([e for e in col if e])
            k = exps[(len(exps) - 1) // 2]
            plus = _numerator(_with_pivot(gens, L.power(v, k), L.guard), L)
            colon = _numerator(_minimalize(L.colon(gens, col, v, k), L), L)
            out = dict(plus)
            for e, c in colon.items():
                out[e + k] = out.get(e + k, 0) + c
                if out[e + k] == 0:
                    del out[e + k]
    _store(gens, out)
    return out


class HilbertSeries:
    """numerator / (1 - t)^nvars with a Laurent polynomial numerator."""

    __slots__ = ("numerator", "nvars", "_red")

    def __init__(self, numerator, nvars):
        self.numerator = {d: c for d, c in numerator.items() if c}
        self.nvars = nvars
        self._red = None

    def is_zero(self):
        return not self.numerator

    def _reduced(self):
        """(numerator with all (1-t) factors cancelled, remaining pole
        order), divided out on the first call and kept."""
        if self._red is None:
            self._red = self._divided()
        return self._red

    def _divided(self):
        num = dict(self.numerator)
        pole = self.nvars
        while num and sum(num.values()) == 0:
            # divide by (1 - t): cumulative sums from the bottom
            lo, hi = min(num), max(num)
            run = 0
            quo = {}
            for d in range(lo, hi + 1):
                run += num.get(d, 0)
                if run:
                    quo[d] = run
            num = quo
            pole -= 1
        return num, pole

    def dimension(self):
        """Krull dimension: pole order at t = 1; -inf for the zero module."""
        if not self.numerator:
            return -inf
        _, pole = self._reduced()
        return pole

    def indeg(self):
        """Lowest degree with a nonzero piece; +inf for the zero module."""
        if not self.numerator:
            return inf
        return min(self.numerator)

    def coefficient(self, j):
        """dim of the degree-j piece."""
        n = self.nvars
        total = 0
        for d, c in self.numerator.items():
            k = j - d
            if k >= 0:
                total += c * comb(n - 1 + k, k) if n > 0 else (c if k == 0 else 0)
        return total

    def top_degree(self):
        """Largest degree with a nonzero piece; requires dimension <= 0."""
        if not self.numerator:
            return -inf
        num, pole = self._reduced()
        if pole > 0:
            return inf
        return max(num)

    def twist(self, d):
        """Series of M(d): pieces shift, coefficient(j) of M(d) = old (d + j)."""
        return HilbertSeries({e - d: c for e, c in self.numerator.items()}, self.nvars)

    def over(self, n):
        """The same series over n >= nvars variables: its numerator
        times (1 - t)^(n - nvars).  ValueError for n < nvars, where no
        polynomial numerator need exist."""
        if n < self.nvars:
            raise ValueError(f"a series over {self.nvars} variables cannot "
                             f"be written over {n}")
        num = self.numerator
        for _ in range(n - self.nvars):
            nxt = dict(num)
            for d, c in num.items():
                nxt[d + 1] = nxt.get(d + 1, 0) - c
            num = nxt
        return HilbertSeries(num, n)

    def add(self, other):
        if self.nvars != other.nvars:
            raise ValueError("series over different covers")
        num = dict(self.numerator)
        for d, c in other.numerator.items():
            num[d] = num.get(d, 0) + c
        return HilbertSeries(num, self.nvars)

    def sub(self, other):
        return self.add(HilbertSeries({d: -c for d, c in other.numerator.items()},
                                      other.nvars))

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.nvars == other.nvars and self.numerator == other.numerator

    def __repr__(self):
        if not self.numerator:
            return "<series 0>"
        body = " + ".join(f"{c}*t^{d}" for d, c in sorted(self.numerator.items()))
        return f"<series ({body}) / (1-t)^{self.nvars}>"
