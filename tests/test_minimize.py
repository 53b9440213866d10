"""The one-pass minimizer against the restart-after-every-unit sweep."""

import copy
import importlib
import random

import pytest

from cmreg import PresentedModule, free_resolution, module_from_ideal
from cmreg import polynomial_ring
from cmreg.freemod import vec_addmul
from cmreg.minimize import minimize_chain
from cmreg.oracle import monomials_of_degree
from cmreg.theorems import nilpotent_scroll_family, random_ideal_corpus
from fieldops import field_ops


# -- reference: the restart sweep -----------------------------------------

def _first_unit(cols):
    """(column, position, coefficient) of the first unit: in the first
    column that has one, its first constant entry in term order, the one
    at the lowest position."""
    for j, col in enumerate(cols):
        units = sorted((p, c) for (p, m), c in col.items() if not any(m))
        if units:
            return (j, *units[0])
    return None


def _drop_position(col, p0):
    return {(p - 1 if p > p0 else p, m): c for (p, m), c in col.items() if p != p0}


def _schur_eliminate(cols, j0, p0, u, K):
    F = field_ops(K)
    uinv = K.inv(u)
    pivot = cols[j0]
    out = []
    for j, col in enumerate(cols):
        if j == j0:
            continue
        coeff = {m: c for (p, m), c in col.items() if p == p0}
        if coeff:
            factor = {m: F.mul(c, F.neg(uinv)) for m, c in coeff.items()}
            vec_addmul(col, pivot, factor, F.characteristic)
        out.append(_drop_position(col, p0))
    return out


def naive_minimize_chain(twists, cols, K):
    """Eliminate the first unit of the lowest level that has one, renumber
    everything, and start again until no unit is left."""
    twists = {i: list(t) for i, t in twists.items()}
    cols = {i: [dict(c) for c in cs] for i, cs in cols.items()}
    kept = {i: list(range(len(t))) for i, t in twists.items()}
    changed = True
    while changed:
        changed = False
        for lev in sorted(cols):
            hit = _first_unit(cols[lev])
            if hit is None:
                continue
            j0, p0, u = hit
            cols[lev] = _schur_eliminate(cols[lev], j0, p0, u, K)
            del twists[lev][j0]
            del kept[lev][j0]
            del twists[lev - 1][p0]
            del kept[lev - 1][p0]
            if lev + 1 in cols:
                cols[lev + 1] = [_drop_position(c, j0) for c in cols[lev + 1]]
            if lev - 1 in cols:
                del cols[lev - 1][p0]
            changed = True
            break
    return {i: tuple(t) for i, t in twists.items()}, cols, kept


def assert_same_as_reference(twists, cols, K):
    before = copy.deepcopy((twists, cols))
    tw, cs, kept = minimize_chain(twists, cols, K)
    ref_tw, ref_cs, ref_kept = naive_minimize_chain(twists, cols, K)
    assert (twists, cols) == before  # inputs untouched
    assert tw == ref_tw
    assert kept == ref_kept
    assert list(cs) == list(ref_cs)
    for lev in ref_cs:
        # same terms in the same dict order
        assert [list(c.items()) for c in cs[lev]] == \
            [list(c.items()) for c in ref_cs[lev]]


# -- seeded random chains with planted units ------------------------------

def random_chain(rng, ring, levels):
    """Homogeneous maps F_lev -> F_{lev-1} with random entries, planted
    constants where source and target twists agree, and a few columns
    that add a multiple of an earlier one (so Schur steps rewrite later
    columns and cancel terms)."""
    K = ring.field
    twists = {0: tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(2, 5))))}
    cols = {}
    for lev in range(1, levels + 1):
        below = twists[lev - 1]
        src = tuple(sorted(rng.randint(min(below), max(below) + 2)
                           for _ in range(rng.randint(2, 6))))
        twists[lev] = src
        cs = []
        for d in src:
            col = {}
            for p, t in enumerate(below):
                if d < t or rng.random() < 0.3:
                    continue
                if d == t:
                    if rng.random() < 0.6:
                        col[(p, (0,) * ring.nvars)] = K.from_int(rng.randint(1, 9))
                    continue
                for m in rng.sample(monomials_of_degree(ring.nvars, d - t), 2):
                    c = K.from_int(rng.randint(-9, 9))
                    if c:
                        col[(p, m)] = c
            k = rng.randrange(len(cs)) if cs else None
            if k is not None and src[k] <= d and rng.random() < 0.3:
                mono = rng.choice(monomials_of_degree(ring.nvars, d - src[k]))
                vec_addmul(col, cs[k], {mono: K.one}, K.characteristic)
            cs.append(col)
        cols[lev] = cs
    return twists, cols


@pytest.mark.parametrize("rational", [False, True])
def test_random_chains_match_reference(rational):
    rng = random.Random(20131120 + rational)
    ring = polynomial_ring(["x", "y", "z"], rational=rational)
    for _ in range(40):
        twists, cols = random_chain(rng, ring, rng.randint(1, 4))
        assert_same_as_reference(twists, cols, ring.field)


def test_random_chains_eliminate_units():
    # the random chains are not vacuous: most of them lose basis vectors
    rng = random.Random(5)
    ring = polynomial_ring(["x", "y", "z"])
    shrunk = 0
    for _ in range(20):
        twists, cols = random_chain(rng, ring, 3)
        tw, _, _ = minimize_chain(twists, cols, ring.field)
        shrunk += sum(map(len, tw.values())) < sum(map(len, twists.values()))
    assert shrunk >= 10


def test_the_unit_is_chosen_by_term_order_not_dict_order():
    # d_1's first column has units at positions 0 and 1.  With its terms
    # in either dict order the unit at position 0, first in term order,
    # goes, so the output does not depend on how the column was summed.
    ring = polynomial_ring(["x", "y"])
    K = ring.field
    one, x, y, xy = (0, 0), (1, 0), (0, 1), (1, 1)
    units = [((0, one), K.from_int(2)), ((1, one), K.from_int(3))]
    twists = {0: (0, 0), 1: (0, 1), 2: (2,)}
    outs = []
    for order in (units, units[::-1]):
        cols = {1: [dict(order), {(0, x): K.one, (1, y): K.one}],
                2: [{(0, xy): K.one, (1, x): K.from_int(5)}]}
        assert_same_as_reference(twists, cols, K)
        outs.append(minimize_chain(twists, cols, K))
    assert outs[0] == outs[1]
    tw, _, kept = outs[0]
    assert kept[0] == [1] and kept[1] == [1] and tw[0] == (0,)


# -- every minimize_chain call made by real resolutions ----------------------

def recorded_inputs(monkeypatch, run):
    res_mod = importlib.import_module("cmreg.resolution")
    calls = []
    real = res_mod.minimize_chain

    def record(twists, cols, K):
        calls.append((copy.deepcopy(twists), copy.deepcopy(cols), K))
        return real(twists, cols, K)

    monkeypatch.setattr(res_mod, "minimize_chain", record)
    run()
    monkeypatch.undo()
    return calls


def _corpus_resolutions():
    for inst in random_ideal_corpus()[:8]:
        free_resolution(inst.module)


def _scroll_resolutions():
    for n in (2, 3):
        ring, minors, z = nilpotent_scroll_family(n)
        free_resolution(module_from_ideal(ring, minors))
        free_resolution(module_from_ideal(ring, minors + [z]))


def _quotient_resolutions():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    R = S.quotient([x * x, y * z, z * z - x * y])
    x, y, z = R.gens()
    for max_len in (1, 2, 3, 4):
        free_resolution(PresentedModule.cyclic(R, [x, y, z]), max_len=max_len)
        free_resolution(PresentedModule.cyclic(R, [x, y]), max_len=max_len)


@pytest.mark.parametrize("run", [_corpus_resolutions, _scroll_resolutions,
                                 _quotient_resolutions])
def test_recorded_resolution_chains_match_reference(monkeypatch, run):
    calls = recorded_inputs(monkeypatch, run)
    assert calls
    for twists, cols, K in calls:
        assert_same_as_reference(twists, cols, K)
