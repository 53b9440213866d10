"""Splitting trivial summands off chains of graded maps.

A degree-zero entry of a differential is a unit (entries are homogeneous,
so degree zero means a nonzero constant).  Eliminating it removes one basis
vector from the source and one from the target, replaces the map by its
Schur complement, drops the corresponding row of the next map and column of
the previous map, and leaves all homology unchanged.  Repeating until no
unit is left minimizes a free complex.

One pass per level: `minimize_chain` removes the units a sweep that
restarts after every unit would, in its order: always the first unit (by
column, then by the column's term order, which puts the lowest position
first) of the lowest level that has one, whatever the dict order of the
column's terms.  Removing a unit of d_L creates units only in d_L: the
Schur complement changes d_L alone, and d_{L+1} and d_{L-1} only lose a
row or a column.  So the levels are taken in ascending order.  Within a level no column gains its first unit
(see `_eliminate_units`), so one ascending pass over the columns that
start with a unit removes the units in the sweep's order, and an index
from target position to the columns with an entry there lets a Schur step
touch only those columns, each in place (`freemod.vec_addmul`).  Indices
stay stable while a level is worked; removed rows and columns are
dropped, and the rest renumbered, once at the end.

Passenger rows, at or past the rank of F_{L-1}, carry the map of F_L to
the complex cmreg.resolution resolves.  They are never pivots, go
through the Schur updates (as the map does when F_L's basis changes) and
are renumbered with the other rows, so they start at the rank of F_{L-1}.
"""

from .freemod import vec_addmul
from .poly import mono_deg


def _find_unit(col, rows=None):
    """(position, coefficient) of col's first constant entry in term order,
    the one at the lowest position, or None; with `rows`, of its first one
    at a position below `rows`.  How the column was summed does not
    matter."""
    units = [(p, c) for (p, m), c in col.items()
             if not any(m) and (rows is None or p < rows)]
    return min(units) if units else None


def _eliminate_units(cols, K, dead_src, dead_tgt, rows):
    """Remove every unit of one level's columns (stable indices), in the
    order the restarting sweep would; records the removed source and
    target indices in dead_src and dead_tgt.  Positions at or past
    `rows` are passengers and never pivots."""
    # A Schur step adds -(column j's entry at r0) / u times the pivot to
    # column j, so column j gains a constant entry only if it has one at r0
    # already: no column gains its first unit.  One ascending pass over the
    # columns that start with a unit therefore meets every unit in order.
    todo = [j for j, col in enumerate(cols) if _find_unit(col, rows) is not None]
    if not todo:
        return
    p = K.characteristic
    index = {}
    for j, col in enumerate(cols):
        for row, _ in col:
            index.setdefault(row, set()).add(j)
    for j0 in todo:
        hit = _find_unit(cols[j0], rows)
        if hit is None:
            continue
        r0, u = hit
        dead_src.add(j0)
        dead_tgt.add(r0)
        pivot = cols[j0]
        support = {row for row, _ in pivot}
        # the factor stays unreduced: vec_addmul reduces each sum mod p
        neg_uinv = -K.inv(u)
        for j in index.pop(r0, ()):
            if j in dead_src:
                continue
            col = cols[j]
            factor = {m: c * neg_uinv for (row, m), c in col.items() if row == r0}
            if not factor:
                continue
            vec_addmul(col, pivot, factor, p)
            for row in support:
                index.setdefault(row, set()).add(j)


def minimize_chain(twists, cols, K):
    """Minimize a chain of maps.

    twists: dict level -> twist tuple of F_level, for level = lo..hi
    cols:   dict level -> list of columns of d_level : F_level -> F_{level-1},
            which may carry passenger rows (module docstring)

    Mutates nothing; returns (new_twists, new_cols, kept) where
    kept[level] lists the surviving original basis indices of F_level.
    """
    work = {i: [dict(c) for c in cs] for i, cs in cols.items()}
    dead = {i: set() for i in twists}
    for lev in sorted(work):
        below = dead[lev - 1]
        if below:
            # rows removed by the level below
            work[lev] = [{t: c for t, c in col.items() if t[0] not in below}
                         for col in work[lev]]
        _eliminate_units(work[lev], K, dead[lev], below, len(twists[lev - 1]))
    kept = {i: [k for k in range(len(t)) if k not in dead[i]]
            for i, t in twists.items()}
    for lev, cs in work.items():
        if dead[lev]:
            cs = [cs[k] for k in kept[lev]]
        if dead[lev - 1]:
            # a removed row keeps entries only when a pivot's unit entry
            # had other terms (non-homogeneous input); they go with it.
            # Passengers move down by the number of removed rows.
            new = {k: n for n, k in enumerate(kept[lev - 1])}
            rows, drop = len(twists[lev - 1]), len(dead[lev - 1])
            cs = [{(new[p] if p < rows else p - drop, m): c
                   for (p, m), c in col.items() if p in new or p >= rows}
                  for col in cs]
        work[lev] = cs
    return ({i: tuple([t[k] for k in kept[i]]) for i, t in twists.items()},
            work,
            kept)


def minimize_presentation(gen_twists, rel_cols, K):
    """Minimal presentation from a (gens, relations) pair.

    Relation columns must be nonzero and homogeneous.
    Returns (new gen twists, new relation columns, kept gen indices).
    """
    rel_cols = [c for c in rel_cols if c]
    rel_degs = []
    for c in rel_cols:
        (p, m) = next(iter(c))
        rel_degs.append(mono_deg(m) + gen_twists[p])
    tw, cs, kept = minimize_chain({0: tuple(gen_twists), 1: tuple(rel_degs)},
                                  {1: rel_cols}, K)
    new_cols = [c for c in cs[1] if c]
    return tw[0], new_cols, kept[0]
