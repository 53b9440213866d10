from math import inf

import pytest

from cmreg import (PresentedModule, betti_table, depth, free_resolution, pd,
                   polynomial_ring, relative_reg)


def test_koszul_resolution_of_residue_field(S3):
    # k over k[x,y,z]: ranks 1,3,3,1 with linear shifts
    k = PresentedModule.cyclic(S3, list(S3.gens()))
    bt = betti_table(k)
    assert bt.complete
    assert bt.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert bt.regularity() == 0
    assert bt.projective_dimension() == 3


def test_differentials_compose_to_zero(S4):
    x, y, z, t = S4.gens()
    M = PresentedModule.cyclic(S4, [x * x, x * z, x * t - y * z])
    res = free_resolution(M)
    for a, b in zip(res.maps, res.maps[1:]):
        comp = a.compose(b)
        assert all(not c for c in comp.cols)


def test_resolution_is_minimal(S4):
    x, y, z, t = S4.gens()
    M = PresentedModule.cyclic(S4, [x * x, x * z, x * t - y * z])
    res = free_resolution(M)
    one = tuple(0 for _ in range(4))
    for gm in res.maps:
        for col in gm.cols:
            # no unit entries: every coefficient sits on a true monomial
            assert all(m != one for (_, m) in col)


def test_determinantal_betti_numbers(S4):
    # frozen: 1; 3 quadric relations; 2 linear syzygies between them
    x, y, z, t = S4.gens()
    bt = betti_table(PresentedModule.cyclic(S4, [x * x, x * z, x * t - y * z]))
    assert bt.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert bt.regularity() == 1
    assert bt.projective_dimension() == 2


def test_pd_of_free_module_is_zero(S3):
    assert pd(PresentedModule.free(S3, (0, 2))) == 0


def test_pd_of_zero_module(S3):
    assert pd(PresentedModule.zero(S3)) == -inf


def test_depth_from_projective_dimension(S3):
    x, y, z = S3.gens()
    # depth = n - pd over the polynomial ring
    M = PresentedModule.cyclic(S3, [x * y, x * z])
    assert depth(M) == 3 - pd(M)


def test_infinite_resolution_is_flagged(ci_ring):
    k = PresentedModule.cyclic(ci_ring, list(ci_ring.gens()))
    bt = betti_table(k, max_len=5)
    assert not bt.complete
    assert bt.projective_dimension() == inf


def test_betti_euler_characteristic_matches_hilbert(S3):
    # alternating sum of shifted cover Hilbert functions returns the
    # module's Hilbert function
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x * y, y * z])
    bt = betti_table(M)
    S = PresentedModule.cyclic(S3, [])
    for d in range(8):
        total = 0
        for (i, j), b in bt.entries.items():
            total += (-1) ** i * b * S.hilbert_function(d - j)
        assert total == M.hilbert_function(d)


def test_witness_points_at_regularity(S4):
    x, y, z, t = S4.gens()
    bt = betti_table(PresentedModule.cyclic(S4, [x * x, x * z, x * t - y * z]))
    i, j = bt.witness()
    assert j - i == bt.regularity()
    assert bt.entries[(i, j)] > 0


def test_render_mentions_every_column(S3):
    x, y, z = S3.gens()
    bt = betti_table(PresentedModule.cyclic(S3, [x * x, y * y * y]))
    text = bt.render()
    assert isinstance(text, str) and text


# -- truncated resolutions over quotient rings ------------------------------

def residue_field_of_two_quadrics():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    R = S.quotient([x * x, y * y])
    return PresentedModule.cyclic(R, list(R.gens()))


@pytest.mark.parametrize("max_len", range(1, 8))
def test_truncated_residue_field_stays_linear(max_len):
    # k over k[x,y]/(x^2,y^2) resolves linearly with beta_{i,i} = i + 1;
    # the top level of a truncation must be minimal too
    bt = betti_table(residue_field_of_two_quadrics(), max_len=max_len)
    assert bt.entries == {(i, i): i + 1 for i in range(max_len + 1)}
    assert bt.complete is False
    assert bt.regularity() == 0


def test_truncated_top_level_is_minimal():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    R = S.quotient([x * x + y * y])
    M = PresentedModule.cyclic(R, [R.gens()[0]])
    res = free_resolution(M, max_len=1)
    assert res.is_minimal()
    bt = betti_table(M, max_len=1)
    assert bt.entries == {(0, 0): 1, (1, 1): 1}
    assert bt.regularity() == 0
    assert relative_reg(residue_field_of_two_quadrics(), max_len=3).value == 0

