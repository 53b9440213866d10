"""Graded free modules and their elements.

Elements of a free module F = sum_i R(-d_i) are sparse dicts
{(position, monomial): coefficient}.  Terms are ordered position-over-term:
(p, m) > (q, u) when p < q, or p == q and m > u in grevlex.  A term's
internal degree is deg(monomial) + twist(position).

A degree-zero map of free modules is its list of columns: cols[j] is the
image of the j-th source basis vector (apply_map applies it).  A free chain
F_0 <- F_1 <- ... is two dicts, twists[i] the twist tuple of F_i and
cols[i] the columns of d_i : F_i -> F_{i-1}; free resolutions,
minimize_chain and free_complex_from_data share that layout.

Coefficients combine with operators on the field's characteristic p
(cmreg.scalars).  `vec_addmul` is the one accumulate loop: it adds f * v
into a vector in place and drops the entries that cancel.  apply_map
runs on it, and so does each Schur step of cmreg.minimize.
"""

from .poly import mono_deg, mono_mul


def vec_addmul(out, v, f, p):
    """out += f * v in place, for f a polynomial's terms {monomial: c}, over
    the field of characteristic p (QQ when p is 0); entries that cancel
    are dropped."""
    for mono, c in f.items():
        for (q, m), cc in v.items():
            t = (q, mono_mul(m, mono))
            s = out.get(t, 0) + cc * c
            if p:
                s %= p
            if s:
                out[t] = s
            else:
                out.pop(t, None)


def apply_map(cols, v, K):
    """Image of v under the map whose j-th column is cols[j]."""
    out = {}
    p = K.characteristic
    for (q, m), c in v.items():
        vec_addmul(out, cols[q], {m: c}, p)
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


def columns_from_rows(rows, ncols):
    """Column vectors of the matrix whose (i, j) entry is rows[i][j], i
    indexing the target; ValueError unless every row has ncols entries."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"matrix rows must have {ncols} entries each")
    return [vec_from_column([r[j] for r in rows]) for j in range(ncols)]
