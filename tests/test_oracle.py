from cmreg import DenseOracle, PresentedModule, betti_table
from cmreg.oracle import monomials_of_degree, rref_mod_p


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(3, 4)) == 15
    assert monomials_of_degree(2, 0) == [(0, 0)]


def test_rref_rank():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 5]]
    pivots, red = rref_mod_p(rows, 3, 7)
    assert pivots == [0, 2]
    assert [[int(a) for a in row] for row in red] == [[1, 2, 0], [0, 0, 1]]


def test_rref_exact_above_int64_range():
    # (p - 1)^2 exceeds 2^63 here; int64 products would wrap around
    p = 4294967311
    pivots, red = rref_mod_p([[p - 1, p - 2], [p - 3, 1]], 2, p)
    assert pivots == [0, 1]
    assert [[int(a) for a in row] for row in red] == [[1, 0], [0, 1]]
    pivots, red = rref_mod_p([[p - 1, p - 2], [1, 2]], 2, p)
    assert pivots == [0]
    assert [int(a) for a in red[0]] == [1, 2]


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


def test_oracle_multiplication_matrix_shape(S2):
    M = PresentedModule.cyclic(S2, [])
    oc = DenseOracle(M)
    rows, cols = len(oc.mult_matrix(0, 1)), None
    assert rows == oc.hilbert_function(2)
