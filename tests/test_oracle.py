import importlib
import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from cmreg import (DenseOracle, PresentedModule, betti_table, parse_session,
                   polynomial_ring)
from cmreg.freemod import FreeModule, vec_degree
from cmreg.oracle import _rref, monomials_of_degree
from cmreg.theorems import DEFAULT_CORPUS_SEED, random_ideal_corpus

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "sessions")


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(3, 4)) == 15
    assert monomials_of_degree(2, 0) == [(0, 0)]


def rref(rows, ncols, p):
    """_rref on dense rows, rendered densely: (pivot columns, reduced rows
    in pivot order)."""
    piv = _rref([{k: a for k, a in enumerate(row) if a} for row in rows], p)
    pivots = sorted(piv)
    red = []
    for c in pivots:
        row = [0] * ncols
        row[c] = 1
        for k, a in piv[c].items():
            row[k] = a
        red.append(row)
    return pivots, red


def dense(cols, nrows):
    """A list of sparse columns {row: coefficient} as a list of rows."""
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def test_rref_rank():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 5]]
    pivots, red = rref(rows, 3, 7)
    assert pivots == [0, 2]
    assert red == [[1, 2, 0], [0, 0, 1]]


def test_rref_exact_above_int64_range():
    # (p - 1)^2 exceeds 2^63 here; int64 products would wrap around
    p = 4294967311
    pivots, red = rref([[p - 1, p - 2], [p - 3, 1]], 2, p)
    assert pivots == [0, 1]
    assert red == [[1, 0], [0, 1]]
    pivots, red = rref([[p - 1, p - 2], [1, 2]], 2, p)
    assert pivots == [0]
    assert red == [[1, 2]]


def test_oracle_hilbert_agrees_with_series(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, y * z])
    oc = DenseOracle(M)
    for j in range(7):
        assert oc.hilbert_function(j) == M.hilbert_function(j)


def test_oracle_betti_agrees_with_resolution(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y, y * z, x * x * z])
    bt = betti_table(M)
    oc = DenseOracle(M)
    for i in range(4):
        for j in range(6):
            assert oc.betti_number(i, j) == bt.entries.get((i, j), 0)


def test_oracle_on_noncyclic_module(S2):
    x, y = S2.gens()
    M = PresentedModule.cyclic(S2, [x * x]).direct_sum(
        PresentedModule.cyclic(S2, [y]).twist(-1))
    bt = betti_table(M)
    oc = DenseOracle(M)
    for i in range(3):
        for j in range(5):
            assert oc.betti_number(i, j) == bt.entries.get((i, j), 0)


def test_oracle_below_degree_zero():
    M = parse_session(
        "ring S = GF(32003)[x, y];\n"
        "module M = coker(S, [-2, 0], [[x^2, y^3], [0, x]]);\n").get("M")
    bt = betti_table(M)
    assert bt.entries[(0, -2)] == 1
    oc = DenseOracle(M)
    for j in range(-3, 7):
        assert oc.hilbert_function(j) == M.hilbert_function(j)
        for i in range(3):
            assert oc.betti_number(i, j) == bt.entries.get((i, j), 0)


def test_oracle_betti_table_starts_at_the_lowest_generator():
    # the window once started at degree 0 and dropped beta_{0,-2} = 1
    M = parse_session("ring S = GF(32003)[x, y, z];\n"
                      "module M = coker(S, [-2], [[x^2]]);\n").get("M")
    table = DenseOracle(M).betti_table()
    assert table == {(0, -2): 1, (1, 0): 1}
    assert table == betti_table(M).entries


def test_oracle_betti_table_ends_above_a_high_generator():
    # the window once ended at degree 6 and compared nothing at all
    M = parse_session("ring S = GF(32003)[x, y, z];\n"
                      "module M = coker(S, [8], [[x^2]]);\n").get("M")
    table = DenseOracle(M).betti_table()
    assert table == {(0, 8): 1, (1, 10): 1}
    assert table == betti_table(M).entries
    # at or below degree 0 the window ends at max_degree, as before
    N = parse_session("ring S = GF(32003)[x, y, z];\n"
                      "module M = coker(S, [0], [[x^7]]);\n").get("M")
    assert DenseOracle(N).betti_table() == {(0, 0): 1}


def _shifted_module(k):
    return parse_session("ring S = GF(32003)[x, y, z, w];\n"
                         f"module M = coker(S, [-{k}], [[x^2, y*z]]);\n"
                         ).get("M")


@pytest.mark.parametrize("k", [0, 3, 16])
def test_oracle_cap_counts_degrees_above_the_lowest_generator(k):
    # an absolute cap let a generator in degree -k build pieces k degrees
    # larger than one in degree 0
    M = _shifted_module(k)
    oc = DenseOracle(M, max_degree=6)
    assert oc.hilbert_function(6 - k) == M.hilbert_function(6 - k)
    assert len(oc.ambient_basis(6 - k)) == len(monomials_of_degree(4, 6))
    with pytest.raises(ValueError, match="beyond oracle cap 6"):
        oc.hilbert_function(7 - k)


def test_oracle_multiplication_matrix_shape(S2):
    M = PresentedModule.cyclic(S2, [])
    oc = DenseOracle(M)
    cols = oc.mult_matrix(0, 1)
    assert len(cols) == oc.hilbert_function(1) == 2
    assert all(max(col) < oc.hilbert_function(2) for col in cols)
    # x * x = x^2 and x * y = xy, among x^2, xy, y^2
    assert dense(cols, oc.hilbert_function(2)) == [[1, 0], [0, 1], [0, 0]]


# -- reference: the oracle before it cached anything --------------------------
#
# ReferenceOracle is the DenseOracle that projected each shifted basis
# vector onto the quotient basis one pivot at a time, rebuilt all n
# multiplication matrices for every differential rank, and computed each
# rank once per Betti number that needs it.  Its row reduction is dense and
# searches pivots one entry at a time: numpy over GF(p) (int64 while a
# product of two residues fits, exact Python ints in object arrays above
# that), lists of Fractions over QQ.  The oracle's sparse elimination must
# agree with both, and the oracle with the reference entry by entry.

def reference_dtype(p):
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def reference_rref_mod_p(rows, ncols, p):
    dtype = reference_dtype(p)
    if not rows:
        return [], np.zeros((0, ncols), dtype=dtype)
    A = np.array(rows, dtype=dtype) % p
    m = A.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            A[nz] = (A[nz] - np.outer(col[nz], A[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, A[:len(pivots)]


def reference_rref_exact(rows, ncols):
    A = [list(map(Fraction, row)) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(A)):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [a * inv for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return pivots, A[:len(pivots)]


def reference_rank(rows, ncols, field):
    p = field.characteristic
    if p:
        return len(reference_rref_mod_p(rows, ncols, p)[0])
    return len(reference_rref_exact(rows, ncols)[0])


class ReferenceOracle:
    def __init__(self, module):
        M = module.lift_to_cover()
        self.field = M.ring.field
        self.nvars = M.ring.nvars
        self.twists = tuple(M.gens_free.twists)
        self.rels = [dict(c) for c in M.rel_cols]
        self.rel_degs = [vec_degree(c, self.twists) for c in self.rels]
        self._pieces = {}
        self.built = {}

    def _piece(self, j):
        got = self._pieces.get(j)
        if got is not None:
            return got
        basis = [(pos, m) for pos, t in enumerate(self.twists)
                 for m in monomials_of_degree(self.nvars, j - t)]
        index = {bm: a for a, bm in enumerate(basis)}
        rows = []
        for col, d in zip(self.rels, self.rel_degs):
            for m in monomials_of_degree(self.nvars, j - d):
                row = [0] * len(basis)
                for (pos, mono), c in col.items():
                    prod = tuple(a + b for a, b in zip(m, mono))
                    row[index[(pos, prod)]] = int(c) if self.field.characteristic else c
                rows.append(row)
        p = self.field.characteristic
        if p:
            pivots, red = reference_rref_mod_p(rows, len(basis), p)
        else:
            pivots, red = reference_rref_exact(rows, len(basis))
        pivset = set(pivots)
        kept = [a for a in range(len(basis)) if a not in pivset]
        got = (basis, index, pivots, red, kept)
        self._pieces[j] = got
        return got

    def hilbert_function(self, j):
        basis, _, pivots, _, _ = self._piece(j)
        return len(basis) - len(pivots)

    def _project(self, j, ambient_vec):
        basis, _, pivots, red, kept = self._piece(j)
        p = self.field.characteristic
        if p:
            v = np.array(ambient_vec, dtype=reference_dtype(p)) % p
            for r, c in enumerate(pivots):
                if v[c]:
                    v = (v - v[c] * red[r]) % p
            return [int(v[a]) for a in kept]
        v = list(map(Fraction, ambient_vec))
        for r, c in enumerate(pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, red[r])]
        return [v[a] for a in kept]

    def mult_matrix(self, var, j):
        basis_j, _, _, _, kept_j = self._piece(j)
        basis_n, index_n, _, _, kept_n = self._piece(j + 1)
        cols = []
        for a in kept_j:
            pos, m = basis_j[a]
            m2 = tuple(e + (1 if t == var else 0) for t, e in enumerate(m))
            amb = [0] * len(basis_n)
            amb[index_n[(pos, m2)]] = 1
            cols.append(self._project(j + 1, amb))
        mat = [[cols[b][a] for b in range(len(kept_j))]
               for a in range(len(kept_n))]
        self.built[(var, j)] = mat
        return mat

    def betti_number(self, i, j):
        n = self.nvars
        if i < 0 or i > n:
            return 0

        def diff_rank(level):
            if level < 1 or level > n:
                return 0
            src_dim = self.hilbert_function(j - level)
            tgt_dim = self.hilbert_function(j - level + 1)
            if src_dim == 0 or tgt_dim == 0:
                return 0
            subsets = list(combinations(range(n), level))
            prev = {T: a for a, T in
                    enumerate(combinations(range(n), level - 1))}
            mults = {v: self.mult_matrix(v, j - level) for v in range(n)}
            ncols = len(subsets) * src_dim
            colmat = [[0] * ncols for _ in range(len(prev) * tgt_dim)]
            for bT, T in enumerate(subsets):
                for a, v in enumerate(T):
                    rest = T[:a] + T[a + 1:]
                    sgn = 1 if a % 2 == 0 else -1
                    roff = prev[rest] * tgt_dim
                    coff = bT * src_dim
                    for rr in range(tgt_dim):
                        for cc in range(src_dim):
                            val = mults[v][rr][cc]
                            if val:
                                colmat[roff + rr][coff + cc] += sgn * val
            return reference_rank([r for r in colmat if any(r)], ncols,
                                  self.field)

        return (comb(n, i) * self.hilbert_function(j - i)
                - diff_rank(i) - diff_rank(i + 1))


BIG_PRIME = 4294967311
FIELDS = {"GF(32003)": dict(p=32003), "GF(4294967311)": dict(p=BIG_PRIME),
          "QQ": dict(rational=True)}


def over_field(M, field_args):
    """The cover presentation of M with its coefficients read as signed
    integers over another field."""
    Mc = M.lift_to_cover()
    S = polynomial_ring(list(Mc.ring.names), **field_args)
    p = Mc.ring.field.characteristic

    def lift(c):
        c = int(c)
        return S.field.from_int(c - p if c > p // 2 else c)

    cols = [{k: lift(c) for k, c in col.items()} for col in Mc.rel_cols]
    return PresentedModule(S, FreeModule(S, Mc.gens_free.twists), cols)


def window_modules():
    mods = [(inst.name, inst.module)
            for inst in random_ideal_corpus(seed=DEFAULT_CORPUS_SEED, count=30)]
    for name in sorted(os.listdir(SESSIONS)):
        with open(os.path.join(SESSIONS, name), encoding="utf-8") as fh:
            s = parse_session(fh.read())
        mods += [(f"{name}:{b}", s.get(b)) for b in s.order
                 if s.kind_of(b) == "module"]
    return mods


@pytest.mark.parametrize("field", list(FIELDS))
def test_oracle_matches_the_reference_entry_by_entry(field):
    built = 0
    modules = window_modules()
    assert len(modules) == 38
    for name, M in modules:
        M = over_field(M, FIELDS[field])
        new, ref = DenseOracle(M), ReferenceOracle(M)
        n = new.nvars
        for j in range(7):
            assert new.hilbert_function(j) == ref.hilbert_function(j), (
                f"{name}: hilbert({j})")
        for i in range(n + 1):
            for j in range(7):
                assert new.betti_number(i, j) == ref.betti_number(i, j), (
                    f"{name}: betti({i},{j})")
        for (var, j), mat in ref.built.items():
            got = dense(new.mult_matrix(var, j), new.hilbert_function(j + 1))
            assert got == mat, (
                f"{name}: mult_matrix({var}, {j})")
        built += len(ref.built)
    assert built > 500


def dense_quadrics(S, seed):
    """S/(f_1..f_n), n quadrics in the n variables of S with every
    coefficient nonzero: a complete intersection with dense pieces."""
    rng = random.Random(seed)
    g = S.gens()
    quads = [a * b for k, a in enumerate(g) for b in g[k:]]
    fs = [sum((rng.randint(1, 9) * q for q in quads), S.constant(0))
          for _ in g]
    return PresentedModule.cyclic(S, fs)


@pytest.mark.parametrize("field", list(FIELDS))
def test_oracle_on_dense_pieces_reads_the_koszul_table(field):
    # over QQ an int unit coordinate once made the elimination divide
    # into floats, and the Betti numbers of this module came out negative
    M = dense_quadrics(polynomial_ring("abcd", **FIELDS[field]), 4)
    oc = DenseOracle(M)
    assert oc.betti_table() == {(0, 0): 1, (1, 2): 4, (2, 4): 6, (3, 6): 4}
    assert [oc.hilbert_function(j) for j in range(6)] == [1, 4, 6, 4, 1, 0]
    entries = [c for key, got in oc._cache.items() if key[0] == "piece"
               for coords in got[3] for c in coords.values()]
    assert entries and all(type(c) is type(oc.field.one) for c in entries)


def random_sparse_matrix(rng, p):
    """Up to 40 x 40 and mostly zero.  At most as many random rows as
    columns, so the reduced rows have tails to fill in, and the rest
    combinations of two earlier rows, so the rank falls short."""
    m, n = rng.randint(1, 40), rng.randint(1, 40)
    density = rng.choice([0.05, 0.1, 0.2, 0.4])

    def entry():
        if p:
            return rng.choice([1, p - 1, rng.randrange(1, p)])
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.randint(1, 5))

    rows = [[entry() if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(1, min(m, n)))]
    while len(rows) < m:
        a, b = rng.choice(rows), rng.choice(rows)
        fa, fb = entry(), entry()
        rows.append([(fa * x + fb * y) % p if p else fa * x + fb * y
                     for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows, n


def mean_weight(rows):
    return sum(1 for row in rows for a in row if a) / max(len(rows), 1)


def test_row_reduction_matches_the_reference_on_random_matrices():
    rng = random.Random("rref")
    deficient = filled = 0
    for p in (7, 32003, BIG_PRIME, 0) * 40:
        rows, n = random_sparse_matrix(rng, p)
        pivots, red = rref(rows, n, p)
        if p:
            want_pivots, want_red = reference_rref_mod_p(rows, n, p)
            want_red = want_red.tolist()
        else:
            want_pivots, want_red = reference_rref_exact(rows, n)
        assert pivots == want_pivots
        assert red == want_red
        # the reduced form is unique, whatever the order of the rows
        assert rref(rows[::-1], n, p) == (pivots, red)
        deficient += len(pivots) < min(len(rows), n)
        filled += mean_weight(red) > mean_weight(rows)
    # most fall short of full rank, and many reduce to heavier rows
    assert deficient > 100 and filled > 40


def test_a_full_window_lists_each_degree_monomials_once(monkeypatch):
    oracle_mod = importlib.import_module("cmreg.oracle")
    original = oracle_mod.monomials_of_degree
    lists = []

    def counting(nvars, d):
        lists.append((nvars, d))
        return original(nvars, d)

    # the recursion looks the name up again, so inner calls count too;
    # only the calls with the oracle's own variable count are its lists
    monkeypatch.setattr(oracle_mod, "monomials_of_degree", counting)
    for _, M in window_modules():
        lists.clear()
        oc = DenseOracle(M)
        oc.betti_table()
        top = [d for nvars, d in lists if nvars == oc.nvars]
        assert top and len(top) == len(set(top))


def test_a_full_window_computes_each_rank_once(monkeypatch):
    ranks = []
    original = DenseOracle._koszul_rank

    def counting(self, level, j):
        ranks.append((level, j))
        return original(self, level, j)

    monkeypatch.setattr(DenseOracle, "_koszul_rank", counting)
    for _, M in window_modules():
        ranks.clear()
        oc = DenseOracle(M)
        for i in range(oc.nvars + 1):
            for j in range(7):
                oc.betti_number(i, j)
        assert len(ranks) == len(set(ranks))
        assert set(ranks) == {(level, j) for level in range(1, oc.nvars + 1)
                              for j in range(7)}
