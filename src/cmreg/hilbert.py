"""Hilbert series as Laurent numerator over (1-t)^n.

The numerator of a graded module comes from the lead-term module of its
relation basis: per free position, a monomial ideal whose quotient's
numerator is computed by the colon/sum pivot recursion
N(J) = N(J + (x_v^k)) + t^k * N(J : x_v^k) (Bigatti, Computation of
Hilbert-Poincare series, JPAA 1997), memoized in one process-wide cache
of at most _NUMERATOR_CACHE_CAP entries, emptied when full.  The pivot
variable x_v divides the most generators and k is the lower median of
its positive exponents, so the recursion depth grows with the logarithm
of the exponents, not with the exponents themselves; when every exponent
of x_v is 1 the pivot is x_v.  Pairwise coprime generators are the base
case, whose numerator is the product of the (1 - t^deg): the recursion
ends there, not only goes faster, since on a pure power x_v^k the pivot
is x_v^k itself and the pivot step would call itself on the same ideal.

The recursion (`_numerator`) takes minimal generators sorted by
(degree, monomial), and each step keeps that form.  The sum branch needs
no minimalizing (`_with_pivot`): x_v^k removes the generators it
divides, no generator divides it (a pure power x_v^j of J has the
largest exponent of x_v, above the lower median k, since x_v divides at
least two generators), and it is inserted in place.  Only the colon
branch minimalizes.  `monomial_ideal_numerator`, the one entry point,
minimalizes its generators once, and its own generator tuple, as given,
becomes a cache key next to the minimal tuple, so a caller that asks
again with the same leads reads the cache without minimalizing.
"""

from bisect import insort
from math import comb, inf
from operator import le

from .poly import mono_deg


def _minimalize(gens):
    """The minimal generators of (gens), sorted by (degree, monomial)."""
    out = []
    for m in sorted(sorted(set(gens)), key=sum):  # stable: degree, then m
        for g in out:
            if all(map(le, g, m)):  # g divides m
                break
        else:
            out.append(m)
    return tuple(out)


def _with_pivot(gens, v, k):
    """The minimal generators of J + (x_v^k), sorted by (degree,
    monomial), from gens, J's minimal generators sorted so, when none of
    them divides x_v^k: those x_v^k does not divide, with x_v^k inserted."""
    pivot = tuple(k if i == v else 0 for i in range(len(gens[0])))
    out = [m for m in gens if m[v] < k]
    insort(out, pivot, key=lambda m: (sum(m), m))
    return tuple(out)


_NUMERATOR_CACHE = {}
_NUMERATOR_CACHE_CAP = 1 << 16


def _store(key, out):
    if len(_NUMERATOR_CACHE) >= _NUMERATOR_CACHE_CAP:
        _NUMERATOR_CACHE.clear()
    _NUMERATOR_CACHE[key] = out


def monomial_ideal_numerator(gens, nvars):
    """Numerator dict {degree: coeff} of S/J for the monomial ideal J
    generated by gens, a tuple or list of exponent tuples."""
    raw = tuple(gens)
    out = _NUMERATOR_CACHE.get(raw)
    if out is None:
        gens = _minimalize(raw)
        out = _numerator(gens, nvars)
        if gens != raw:
            _store(raw, out)
    return dict(out)


def _numerator(gens, nvars):
    """The numerator of S/(gens), gens minimal and sorted by (degree,
    monomial), memoized under gens; the cached dict is never changed."""
    out = _NUMERATOR_CACHE.get(gens)
    if out is not None:
        return out
    if not gens:
        out = {0: 1}
    elif not any(gens[0]):  # the unit ideal: 1 comes first, and alone
        out = {}
    else:
        support = [len(gens) - col.count(0) for col in zip(*gens)]
        if max(support) == 1:
            # pairwise coprime generators: product of (1 - t^deg)
            out = {0: 1}
            for m in gens:
                d = mono_deg(m)
                nxt = dict(out)
                for e, c in out.items():
                    nxt[e + d] = nxt.get(e + d, 0) - c
                    if nxt[e + d] == 0:
                        del nxt[e + d]
                out = nxt
        else:
            v = max(range(nvars), key=lambda i: support[i])
            # lower median: x_v^k divides at least half of the generators
            # that x_v divides, and the colon drops v from at least half
            exps = sorted(m[v] for m in gens if m[v])
            k = exps[(len(exps) - 1) // 2]
            plus = _numerator(_with_pivot(gens, v, k), nvars)
            colon = _numerator(_minimalize(
                tuple(m[:v] + (max(m[v] - k, 0),) + m[v + 1:] for m in gens)),
                nvars)
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
