from math import inf

import pytest

from cmreg import (ModuleMap, PresentedModule, annihilator, colon_by_element,
                   homology_at, kernel, module_from_ideal,
                   multiplication_map, quotient_by_element)
import cmreg.modules as modules
from cmreg.modules import image, is_filter_regular, syzygies_of_vectors
from cmreg.freemod import (FreeModule, apply_map, columns_from_rows,
                           vec_from_column)


def relations_die(phi):
    """phi is well defined: the images of the source's relations lie in
    the target's relations."""
    gb = phi.target.gb()
    return all(gb.contains(apply_map(phi.cols, r, phi.ring.field))
               for r in phi.source.rel_cols)


def test_inhomogeneous_relation_rejected(S3):
    x, y, z = S3.gens()
    F = FreeModule(S3, (0,))
    with pytest.raises(ValueError):
        PresentedModule(S3, F, [vec_from_column([x + x * y])])


def test_free_module_has_no_relations(S3):
    # twists are generator degrees
    M = PresentedModule.free(S3, (0, 1))
    assert M.rank == 2
    assert M.hilbert_function(0) == 1
    assert M.hilbert_function(1) == 3 + 1


def test_minimization_strips_unit_relations(S3):
    x, y, z = S3.gens()
    # a redundant degree-1 generator equal to x times the first one
    F = FreeModule(S3, (0, 1))
    one = tuple(0 for _ in range(3))
    col = {(0, (1, 0, 0)): 1, (1, one): S3.field.from_int(-1)}
    M = PresentedModule(S3, F, [col])
    Mm = M.minimized()
    assert Mm.rank == 1
    for j in range(4):
        assert Mm.hilbert_function(j) == M.hilbert_function(j)


def test_direct_sum_adds_hilbert_functions(S3):
    x, y, z = S3.gens()
    A = PresentedModule.cyclic(S3, [x])
    B = PresentedModule.cyclic(S3, [y * y]).twist(-1)
    C = A.direct_sum(B)
    for j in range(5):
        assert (C.hilbert_function(j)
                == A.hilbert_function(j) + B.hilbert_function(j))


def test_twist_moves_degrees(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x, y, z])
    assert M.is_finite_length()
    up = M.twist(3)
    assert up.hilbert_function(-3) == 1
    assert up.hilbert_function(0) == 0
    assert up.indeg() == -3


def test_zero_module_conventions(S3):
    Z = PresentedModule.cyclic(S3, [S3.constant(1)])
    assert Z.is_zero()
    assert Z.dimension() == -inf
    assert Z.indeg() == inf
    assert Z.top_degree() == -inf


def test_multiplication_map_twists_target(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x])
    phi, d = multiplication_map(M, y)
    assert d == 1
    assert phi.source is M
    # M(d) lives d steps lower: its generator degrees drop by d
    assert phi.target.gens_free.twists == tuple(t - 1 for t in M.gens_free.twists)
    assert relations_die(phi)
    assert not phi.is_zero_map()


def test_kernel_of_injective_map_is_zero(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    phi, _ = multiplication_map(M, z)
    K, _ = kernel(phi)
    assert K.is_zero()


def test_kernel_detects_torsion(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * y])
    phi, _ = multiplication_map(M, x)
    K, inc = kernel(phi)
    # (0 : x) in S/(xy) is the image of (y), a line's worth of directions
    assert not K.is_zero()
    assert K.dimension() == 2


def test_colon_and_quotient(det_module):
    R = det_module.ring
    x, y, z, t = R.gens()
    C, _ = colon_by_element(det_module, z)
    Q = quotient_by_element(det_module, z)
    assert C.dimension() == 2
    assert Q.dimension() == 2
    # every annihilator element genuinely kills the colon submodule
    ann = annihilator(C)
    assert ann
    for f in ann:
        phi, _ = multiplication_map(C, f)
        assert phi.is_zero_map()


def test_annihilator_of_cyclic_module(S3):
    x, y, z = S3.gens()
    M = PresentedModule.cyclic(S3, [x * x, y])
    got = sorted(str(f) for f in annihilator(M))
    assert got == ["x^2", "y"]


def test_filter_regularity(S2):
    x, y = S2.gens()
    R = S2.quotient([x * x])
    M = PresentedModule.cyclic(R, [])
    assert is_filter_regular(R.gens()[1], M)
    assert not is_filter_regular(R.gens()[0], M)


def test_koszul_middle_homology_vanishes(S3):
    x, y, z = S3.gens()
    # x, y is a regular sequence: ker(y, -x) = im(x, y)^T inside S(-1)^2
    mid = PresentedModule.free(S3, (1, 1))
    top = PresentedModule.free(S3, (0,))
    bot = PresentedModule.free(S3, (2,))
    phi = ModuleMap(mid, top, columns_from_rows([[y, -1 * x]], 2))
    psi = ModuleMap(bot, mid, columns_from_rows([[x], [y]], 1))
    H = homology_at(psi, phi)
    assert H.is_zero()


def test_homology_at_refuses_maps_that_do_not_compose(S3):
    # only the generator twists were compared, so psi into S/(x) and phi
    # out of S/(y) gave k without complaint
    x, y, z = S3.gens()
    into = PresentedModule.cyclic(S3, [x])
    out_of = PresentedModule.cyclic(S3, [y])
    psi = ModuleMap(PresentedModule.free(S3, (1,)), into,
                    columns_from_rows([[x]], 1))
    phi = ModuleMap.zero(out_of, PresentedModule.zero(S3))
    with pytest.raises(ValueError, match="not composable"):
        homology_at(psi, phi)
    # an equal module built again composes
    again = PresentedModule.cyclic(S3, [y])
    psi = ModuleMap(PresentedModule.free(S3, (1,)), again,
                    columns_from_rows([[x]], 1))
    assert homology_at(psi, phi).hilbert_series() == PresentedModule.cyclic(
        S3, [x, y]).hilbert_series()


def test_columns_from_rows_checks_the_matrix_shape(S3):
    x, y, z = S3.gens()
    top = PresentedModule.free(S3, (0,))
    mid = PresentedModule.free(S3, (1, 1))
    with pytest.raises(ValueError):
        columns_from_rows([[x, y, z]], mid.rank)  # a row too long
    with pytest.raises(ValueError):
        columns_from_rows([[x]], mid.rank)  # a row too short
    phi = ModuleMap(mid, top, columns_from_rows([[x, y]], mid.rank))
    assert phi.cols == (vec_from_column([x]), vec_from_column([y]))
    # no rows at all still gives one (zero) column per source generator
    zero = ModuleMap(mid, PresentedModule.zero(S3),
                     columns_from_rows([], mid.rank))
    assert zero.cols == ({}, {})


def test_lift_to_cover_preserves_hilbert(det_module):
    Mc = det_module.lift_to_cover()
    assert Mc.ring.is_polynomial
    for j in range(5):
        assert Mc.hilbert_function(j) == det_module.hilbert_function(j)


# -- the primitive: relations modulo a held Groebner basis ---------------

def test_a_zero_vector_comes_back_as_its_tag(S3):
    x, y, z = S3.gens()
    gb = PresentedModule.cyclic(S3, [x * y]).gb()
    one = (0, 0, 0)
    rels = syzygies_of_vectors([{}, {(0, (1, 0, 0)): 1}], (0, 1), gb)
    # e_0 for the zero vector, y e_1 since x y lies in (x y)
    assert rels == [{(0, one): 1}, {(1, (0, 1, 0)): 1}]


def test_relations_over_a_quotient_ring_hold_no_defining_columns(S3):
    x, y, z = S3.gens()
    R = S3.quotient([x * y, z * z])
    gb = PresentedModule.free(R, (0,)).gb()
    rels = syzygies_of_vectors([{(0, (1, 0, 0)): 1}], (1,), gb)
    # a x = 0 in R exactly for a in (y); x y e and z^2 e vanish in R, so
    # neither comes back
    assert rels == [{(0, (0, 1, 0)): 1}]


def test_kernel_lists_generators_sent_to_zero_in_degree_order(S3):
    # Only the third generator maps, onto the unit of S/(xy)(-1); the
    # kernel is e_0, e_1 and xy e_2.  The kernel lists them in the
    # basis's degree order: twists (0, 2, 3), where generators sent to
    # zero on the nose used to come last, (3, 2, 0).
    x, y, z = S3.gens()
    N = PresentedModule.cyclic(S3, [x * y]).twist(-1)
    src = PresentedModule.free(S3, (2, 0, 1))
    phi = ModuleMap(src, N, [{}, {}, {(0, (0, 0, 0)): 1}])
    K, incl = kernel(phi)
    assert K.gens_free.twists == (0, 2, 3)
    assert K.rel_cols == ()
    assert incl.cols == ({(1, (0, 0, 0)): 1}, {(0, (0, 0, 0)): 1},
                         {(2, (1, 1, 0)): 1})


def test_module_path_builds_no_scratch_basis_on_tag_positions(
        monkeypatch, S3):
    """Every from-scratch basis that kernel, image and homology_at build
    is some module's own gb(); the tagged runs grow a held basis."""
    x, y, z = S3.gens()
    R = S3.quotient([x * y, z * z])
    real = modules.groebner_basis
    scratch, seeded = [], []

    def counted(vectors, ring, free, *, known=None):
        (scratch if known is None else seeded).append(free)
        return real(vectors, ring, free, known=known)

    monkeypatch.setattr(modules, "groebner_basis", counted)
    for ring in (S3, R):
        a, b, c = ring.gens()
        M = PresentedModule(ring, FreeModule(ring, (1, 1)),
                            [{(0, (0, 0, 1)): ring.field.one}])
        N = PresentedModule.cyclic(ring, [a * c])
        phi = ModuleMap(M, N, columns_from_rows([[a, b]], 2))
        psi = ModuleMap(PresentedModule.free(ring, (2,)), M,
                        columns_from_rows([[c], [ring.constant(0)]], 1))
        assert relations_die(phi) and relations_die(psi)
        owned = {id(X.gens_free) for X in (M, N, psi.source)}
        kernel(phi)
        image(phi)
        homology_at(psi, phi)
        # kernel: its vectors and its subquotient; image: its subquotient;
        # homology: phi's kernel vectors, psi's columns over the middle
        # module, and the subquotient
        assert len(seeded) == 6
        assert all(id(F) in owned for F in scratch), scratch
        scratch.clear()
        seeded.clear()
