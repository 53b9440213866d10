"""Standard graded rings: polynomial rings k[x_1..x_n] and their quotients
by homogeneous ideals.

A quotient ring R = S/I keeps a reference to its polynomial cover S and the
defining generators.  Module computations over R are routed through S by
adjoining the defining ideal; see groebner.py.
"""

from .poly import Polynomial
from .scalars import PrimeField, QQ, DEFAULT_PRIME


class GradedRing:
    __slots__ = ("field", "names", "defining", "_cover", "_cache")

    def __init__(self, field, names, defining=(), cover=None):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.defining = tuple(defining)
        self._cover = cover if cover is not None else self
        self._cache = {}
        for f in self.defining:
            if f.is_zero():
                raise ValueError("zero generator in defining ideal")
            if not f.is_homogeneous():
                raise ValueError(f"defining ideal generator {f} is not homogeneous")
            if f.homogeneous_degree() < 1:
                raise ValueError("defining ideal generator of degree 0")

    # -- construction ----------------------------------------------------
    def quotient(self, gens):
        """S/I for homogeneous gens; quotients of quotients concatenate."""
        cover = self.cover
        lifted = []
        for f in list(self.defining) + list(gens):
            lifted.append(Polynomial(cover, dict(f.terms)))
        return GradedRing(self.field, self.names, lifted, cover)

    # -- structure -------------------------------------------------------
    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_polynomial(self):
        return not self.defining

    @property
    def cover(self):
        return self._cover

    def gens(self):
        out = []
        for i in range(self.nvars):
            m = tuple(1 if j == i else 0 for j in range(self.nvars))
            out.append(Polynomial(self, {m: self.field.one}))
        return tuple(out)

    def constant(self, n):
        c = self.field.from_int(n) if isinstance(n, int) else n
        if not c:
            return Polynomial(self, {})
        one = tuple(0 for _ in range(self.nvars))
        return Polynomial(self, {one: c})

    def zero_poly(self):
        return Polynomial(self, {})

    def monomial(self, expts):
        if len(expts) != self.nvars:
            raise ValueError("wrong number of exponents")
        return Polynomial(self, {tuple(expts): self.field.one})

    def reduce(self, f):
        """Normal form of a representative modulo the defining ideal."""
        if self.is_polynomial:
            return f
        from .groebner import reduce_poly_mod_defining
        return reduce_poly_mod_defining(self, f)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedRing):
            return NotImplemented
        if self.field != other.field or self.names != other.names:
            return False
        # equal ideals: equal reduced bases, whatever generators defined them
        from .groebner import defining_gb
        return ([(g.lead, g.tail) for g in defining_gb(self)]
                == [(g.lead, g.tail) for g in defining_gb(other)])

    def __hash__(self):
        # equal ideals may have different numbers of generators
        return hash((self.field, self.names))

    def __repr__(self):
        base = f"{self.field}[{','.join(self.names)}]"
        if self.defining:
            return base + " / (" + ", ".join(str(g) for g in self.defining) + ")"
        return base


def polynomial_ring(names, p=DEFAULT_PRIME, rational=False):
    """Convenience constructor used by tests and the session layer."""
    field = QQ if rational else PrimeField(p)
    return GradedRing(field, names)
