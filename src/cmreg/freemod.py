"""Graded free modules, their elements, and degree-zero maps between them.

Elements of a free module F = sum_i R(-d_i) are sparse dicts
{(position, monomial): coefficient}.  Terms are ordered position-over-term:
(p, m) > (q, u) when p < q, or p == q and m > u in grevlex.  A term's
internal degree is deg(monomial) + twist(position).
"""

from .poly import Polynomial, grevlex_key, mono_deg, mono_mul


def term_key(t):
    """Sort key for (position, monomial); larger key = larger term."""
    return (-t[0],) + grevlex_key(t[1])


def vec_add(u, v, K):
    out = dict(u)
    for t, c in v.items():
        s = K.add(out.get(t, K.zero), c)
        if K.is_zero(s):
            out.pop(t, None)
        else:
            out[t] = s
    return out


def vec_term_mul(v, mono, c, K):
    """v multiplied by the term c * x^mono."""
    if K.is_zero(c):
        return {}
    return {(p, mono_mul(m, mono)): K.mul(cc, c) for (p, m), cc in v.items()}


def vec_poly_mul(v, poly_terms, K):
    out = {}
    for mono, c in poly_terms.items():
        for (p, m), cc in v.items():
            t = (p, mono_mul(m, mono))
            s = K.add(out.get(t, K.zero), K.mul(cc, c))
            if K.is_zero(s):
                out.pop(t, None)
            else:
                out[t] = s
    return out


def apply_map(cols, v, K):
    """Image of v under the map whose j-th column is cols[j]."""
    out = {}
    for (p, m), c in v.items():
        for (q, u), cc in cols[p].items():
            t = (q, mono_mul(u, m))
            s = K.add(out.get(t, K.zero), K.mul(c, cc))
            if K.is_zero(s):
                out.pop(t, None)
            else:
                out[t] = s
    return out


def vec_degree(v, twists):
    """Internal degree for homogeneous v; None for zero, error if mixed."""
    if not v:
        return None
    degs = {mono_deg(m) + twists[p] for (p, m) in v}
    if len(degs) != 1:
        raise ValueError("vector is not homogeneous")
    return degs.pop()

def vec_is_homogeneous(v, twists):
    return len({mono_deg(m) + twists[p] for (p, m) in v}) <= 1


class FreeModule:
    """R(-d_1) + ... + R(-d_r), represented by its twist list (d_1..d_r)."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(twists)

    @property
    def rank(self):
        return len(self.twists)

    def twist(self, d):
        """F(d): generator degrees drop by d."""
        return FreeModule(self.ring, tuple(t - d for t in self.twists))

    def dual(self):
        return FreeModule(self.ring, tuple(-t for t in self.twists))

    def direct_sum(self, other):
        return FreeModule(self.ring, self.twists + other.twists)

    def basis_vec(self, i):
        one = tuple(0 for _ in range(self.ring.nvars))
        return {(i, one): self.ring.field.one}

    def __eq__(self, other):
        if not isinstance(other, FreeModule):
            return NotImplemented
        return self.ring == other.ring and self.twists == other.twists

    def __hash__(self):
        return hash(self.twists)

    def __repr__(self):
        return f"<free module twists={list(self.twists)}>"


def vec_from_column(polys):
    """Engine vector from a column of polynomials (entry i at position i)."""
    out = {}
    for i, f in enumerate(polys):
        for m, c in f.terms.items():
            out[(i, m)] = c
    return out


class GradedMap:
    """A degree-zero map of graded free modules, stored column-wise:
    cols[j] is the image of the j-th source basis vector."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        self.cols = tuple(dict(c) for c in cols)
        if len(self.cols) != source.rank:
            raise ValueError("column count does not match source rank")

    @classmethod
    def from_entries(cls, source, target, rows):
        """rows[i][j] is the (i, j) entry, i indexing the target."""
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError("entry matrix shape does not match module ranks")
        cols = []
        for j in range(source.rank):
            col = {}
            for i in range(target.rank):
                for m, c in rows[i][j].terms.items():
                    col[(i, m)] = c
            cols.append(col)
        return cls(source, target, cols)

    @property
    def ring(self):
        return self.source.ring

    def entry(self, i, j):
        terms = {m: c for (p, m), c in self.cols[j].items() if p == i}
        return Polynomial(self.ring, terms)

    def entries(self):
        return [[self.entry(i, j) for j in range(self.source.rank)]
                for i in range(self.target.rank)]

    def is_zero(self):
        return all(not c for c in self.cols)

    def compose(self, other):
        """self after other."""
        if other.target.twists != self.source.twists:
            raise ValueError("maps are not composable")
        K = self.ring.field
        return GradedMap(other.source, self.target,
                         [apply_map(self.cols, c, K) for c in other.cols])

    def dual(self):
        """Hom(-, R): transpose with negated twists."""
        src, tgt = self.target.dual(), self.source.dual()
        cols = [{} for _ in range(src.rank)]
        for j, col in enumerate(self.cols):
            for (p, m), c in col.items():
                cols[p][(j, m)] = c
        return GradedMap(src, tgt, cols)

    @classmethod
    def identity(cls, F):
        return cls(F, F, [F.basis_vec(i) for i in range(F.rank)])

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{} for _ in range(source.rank)])

    def __repr__(self):
        return f"<graded map {self.target.rank}x{self.source.rank}>"
