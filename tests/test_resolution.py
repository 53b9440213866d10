import importlib
import json
import os
import random
from math import inf

import pytest

import cmreg.cli as cli
from cmreg import (BettiTable, BoundedComplex, ModuleMap, PresentedModule,
                   betti_table, complex_from_module, depth, ext, ext_complex,
                   free_resolution, free_resolution_of_complex,
                   koszul_complex, module_from_ideal, parse_session, pd,
                   polynomial_ring, reg_via_betti, regularity, relative_reg,
                   resolution_to_complex, tor)
from cmreg.complexes import free_complex_from_data, tor_complex
from cmreg.freemod import (FreeModule, columns_from_rows, vec_addmul,
                           vec_from_column)
from cmreg import groebner
from cmreg.groebner import (_INDEX_BITS, GroebnerBasis, _Packing, _packing,
                            certify, groebner_basis, syzygy_generators)
from cmreg.minimize import _find_unit, minimize_chain
from cmreg.modules import colon_by_element, quotient_by_element
from cmreg.oracle import DenseOracle
from cmreg.theorems import (_random_linear_form, check_cor_tensor,
                            nilpotent_scroll_family, random_ideal_corpus,
                            scroll_member)
from monomials import mono_div
from test_groebner import grouped_syzygy_generators, naive_syzygy_generators
from test_oracle import BIG_PRIME, FIELDS, over_field
from test_sessions import SESSIONS, load
from test_subquotient import corpus_complexes, session_complexes


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
    assert resolution_to_complex(res).verify()


def test_resolution_is_minimal(S4):
    x, y, z, t = S4.gens()
    M = PresentedModule.cyclic(S4, [x * x, x * z, x * t - y * z])
    res = free_resolution(M)
    one = tuple(0 for _ in range(4))
    for cs in res.cols.values():
        for col in cs:
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


def test_the_betti_table_of_a_complex_starts_at_its_lowest_spot():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    L = koszul_complex([x], PresentedModule.cyclic(S, [x * y])).shift(-2)
    bt = betti_table(L)
    assert bt.entries == {(-2, 0): 1, (-1, 1): 1, (-1, 2): 1, (0, 3): 1}


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


# -- truncation over a polynomial ring --------------------------------------

K6_SESSION = """
ring S = GF(32003)[a, b, c, d, e, f];
ideal m = a, b, c, d, e, f;
module k = cyclic(S, m);
"""


@pytest.mark.parametrize("max_len", [1, 2, 5, 6, 7])
def test_truncation_over_a_polynomial_ring(max_len, tmp_path, capsys):
    # the residue field in 6 variables has pd 6, so max_len below 6 cuts
    # it; from 6 on nothing lies past the top level and the table is full
    k = parse_session(K6_SESSION).get("k")
    full = betti_table(k)
    assert full.complete and full.projective_dimension() == 6
    cut = max_len < 6
    bt = betti_table(k, max_len=max_len)
    assert bt.complete is not cut
    assert pd(k, max_len=max_len) == (inf if cut else 6)
    assert bt.entries == {key: v for key, v in full.entries.items()
                          if key[0] <= max_len}
    assert free_resolution(k, max_len=max_len).is_minimal()
    p = tmp_path / "k6.cmreg"
    p.write_text(K6_SESSION)
    code = cli.main(["--session", str(p), "betti", "k", "--max-len", str(max_len)])
    out = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert out["truncated"] is cut and out["table"]["complete"] is not cut
    assert out["table"]["entries"] == [[i, j, v] for (i, j), v in
                                       sorted(bt.entries.items())]


TOR_SESSION = """
ring S = GF(32003)[x, y];
ideal m = x, y;
ideal a = x;
module k = cyclic(S, m);
module N = cyclic(S, a);
"""


def test_tor_and_ext_over_a_truncated_polynomial_resolution(tmp_path, capsys):
    # Tor_1(k, S/(x)) = k(-1); from k's resolution cut at length 1 the top
    # spot would read ker(d_1 (x) S/(x)), of infinite length
    p = tmp_path / "tor.cmreg"
    p.write_text(TOR_SESSION)
    for cmd in ("tor", "ext"):
        cli.main(["--session", str(p), cmd, "k", "N"])
        full = json.loads(capsys.readouterr().out)["result"]
        assert full["truncated"] is False
        assert [e["i"] for e in full[cmd]] == ([0, 1] if cmd == "tor" else [1, 2])
        code = cli.main(["--session", str(p), cmd, "k", "N", "--max-len", "1"])
        cut = json.loads(capsys.readouterr().out)["result"]
        assert code == 0 and cut["truncated"] is True
        assert cut[cmd] == [e for e in full[cmd] if e["i"] < 1]


@pytest.mark.parametrize("max_len", [0, -1])
def test_non_positive_max_len_is_refused(max_len):
    s = parse_session(TOR_SESSION)
    k, N = s.get("k"), s.get("N")
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        free_resolution(k, max_len=max_len)
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        free_resolution_of_complex(complex_from_module(N), max_len=max_len)


@pytest.mark.parametrize("max_len", [1.5, 2.0, True, False, "2"])
def test_a_max_len_that_is_not_an_int_is_refused(max_len):
    # up front, before any level is built: unchecked, a float would stop
    # the loop between levels or reach the cut's range(), and True would
    # act as 1.  S/(xy, yz, xz) is killed by no linear form and S/(x, yz)
    # is cut by x.
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    for M in (PresentedModule.cyclic(S, [x * y, y * z, x * z]),
              PresentedModule.cyclic(S, [x, y * z])):
        with pytest.raises(TypeError, match="max_len must be an int"):
            betti_table(M, max_len=max_len)
        assert M._cache == {}
        assert betti_table(M, max_len=3).complete


@pytest.mark.parametrize("max_len", ["0", "-1"])
@pytest.mark.parametrize("argv", [["betti", "k"], ["tor", "k", "N"]])
def test_cli_refuses_non_positive_max_len(argv, max_len, tmp_path, capsys):
    p = tmp_path / "tor.cmreg"
    p.write_text(TOR_SESSION)
    for flags in (argv + ["--max-len", max_len], ["--max-len", max_len] + argv):
        code = cli.main(["--session", str(p)] + flags)
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "--max-len: max_len must be at least 1" in out.err


def test_library_tor_and_ext_read_one_level_past_i():
    # Tor_i and Ext^i read d_{i+1} and nothing past it, so they resolve M
    # to level i + 1 and agree with the complexes on the full resolution
    s = parse_session(TOR_SESSION)
    k, N = s.get("k"), s.get("N")
    T, E = tor_complex(k, N), ext_complex(k, N)
    for i in range(4):
        assert (tor(k, N, i).hilbert_series()
                == T.homology(i).hilbert_series()), i
        assert (ext(k, N, i).hilbert_series()
                == E.homology(-i).hilbert_series()), i
    assert tor(k, N, 1).hilbert_series() == k.hilbert_series().twist(-1)
    # over the two-quadrics ring k's resolution never ends; Tor_1(k, k)
    # resolves it to level 2 and no further
    k = residue_field_of_two_quadrics()
    assert tor(k, k, 1).hilbert_series() == k.hilbert_series().twist(-1).add(
        k.hilbert_series().twist(-1))
    assert max(k._cache["resolution"].res.twists) == 2
    assert free_resolution(k, max_len=2) is k._cache["resolution"].res


def test_a_truncation_at_the_projective_dimension_is_complete(capsys,
                                                              monkeypatch):
    # the level past the cut was dropped before it was read, so a
    # resolution cut at its own pd was flagged incomplete, with pd inf
    tensored = recorded_tensor_cuts(monkeypatch)
    S = polynomial_ring(["x", "y"])
    M = PresentedModule.cyclic(S, [S.gens()[0]])
    res = free_resolution(M, max_len=1)
    assert len(tensored) == 1  # the linear cut's path
    assert res.complete and res.twists == {0: (0,), 1: (1,)}
    assert pd(M, max_len=1) == 1
    # the loop's path: R/(y) over R = k[x, y, z]/(x^2) has pd 1
    S = polynomial_ring(["x", "y", "z"])
    R = S.quotient([S.gens()[0] ** 2])
    M = PresentedModule.cyclic(R, [R.gens()[1]])
    tensored.clear()
    free_resolution(M, max_len=1)
    assert tensored == []
    assert regularity(M, max_len=1).relative.certified
    # Tor_1(M, N) = k(-2) on the hypersurface pair, where the cut at 1
    # withheld it as the top of a truncation
    code = cli.main(["--session", os.path.join(SESSIONS,
                                               "hypersurface-pair.cmreg"),
                     "tor", "M", "N", "--max-len", "1"])
    out = json.loads(capsys.readouterr().out)["result"]
    assert code == 0 and out["truncated"] is False
    assert [(e["i"], e["values"]) for e in out["tor"]] == [
        (0, [{"degree": 0, "dim": 1}]), (1, [{"degree": 2, "dim": 1}])]


def test_the_two_quadrics_residue_field_resolves_nothing_past_its_cut(
        monkeypatch):
    # the loop stops at its cut: the default truncation (2n + 4 = 8
    # levels) runs 8 syzygy steps and 7 Groebner runs of its own (the
    # first basis is the module's), and max_len 3 runs 3 and 2
    res_mod = importlib.import_module("cmreg.resolution")
    runs = {"syzygy_generators": 0, "groebner_basis": 0}
    for name in runs:
        real = getattr(res_mod, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            runs[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(res_mod, name, counting)
    for max_len, calls in ((None, (8, 7)), (3, (3, 2))):
        for name in runs:
            runs[name] = 0
        res = free_resolution(residue_field_of_two_quadrics(), max_len)
        assert (runs["syzygy_generators"], runs["groebner_basis"]) == calls
        top = 8 if max_len is None else max_len
        assert res.twists == {i: (i,) * (i + 1) for i in range(top + 1)}
        assert not res.complete


def test_a_free_complex_honours_its_cut():
    # K(x, y, z) over k[x, y, z] resolves the residue field, and a cut
    # below its top leaves it incomplete as the residue field's does
    S = polynomial_ring(["x", "y", "z"])
    k = PresentedModule.cyclic(S, list(S.gens()))
    K = koszul_complex(list(S.gens()))
    for max_len in (1, 3):
        got, ref = free_resolution(K, max_len), free_resolution(k, max_len)
        assert got.twists == ref.twists, max_len
        assert got.complete == ref.complete == (max_len == 3), max_len
        assert pd(k, max_len) == (3 if max_len == 3 else inf)
        assert resolution_to_complex(got).verify()


def counted_loops(monkeypatch):
    """{"loops": fresh loops started, "syzygy_generators": syzygy steps}
    in cmreg.resolution, counted as they come."""
    res_mod = importlib.import_module("cmreg.resolution")
    runs = {"loops": 0, "syzygy_generators": 0}
    real_loop, real_syz = res_mod._resolve, res_mod.syzygy_generators

    def loop(*args):
        runs["loops"] += 1
        return real_loop(*args)

    def syz(*args, **kwargs):
        runs["syzygy_generators"] += 1
        return real_syz(*args, **kwargs)

    monkeypatch.setattr(res_mod, "_resolve", loop)
    monkeypatch.setattr(res_mod, "syzygy_generators", syz)
    return runs


@pytest.mark.parametrize("reads, top", [
    (lambda k: [tor(k, k, i) for i in range(7)], 7),
    (lambda k: [relative_reg(k, n) for n in range(1, 11)], 10)],
    ids=["tor", "relative_reg"])
def test_successive_cuts_resume_one_loop(monkeypatch, reads, top):
    # each longer cut of the two-quadrics residue field resumes the loop
    # held on k, and a shorter one is read off the resolution held
    runs = counted_loops(monkeypatch)
    free_resolution(residue_field_of_two_quadrics(), top)
    once = dict(runs)
    assert once == {"loops": 1, "syzygy_generators": top}
    k = residue_field_of_two_quadrics()
    for name in runs:
        runs[name] = 0
    reads(k)
    assert runs == once
    assert [key for key in k._cache if "resolution" in key] == ["resolution"]
    assert max(free_resolution(k, 3).twists) == 3 and runs == once


def test_a_failed_resume_fails_again_and_stores_nothing(monkeypatch):
    # resuming is a computation: an error in it leaves no suspended loop
    # behind, so the next call fails the same way, and once the fault is
    # gone the resolution is the one a fresh loop gives
    res_mod = importlib.import_module("cmreg.resolution")
    ref = free_resolution(residue_field_of_two_quadrics())
    k = residue_field_of_two_quadrics()
    free_resolution(k, 1)

    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(res_mod, "syzygy_generators", broken)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="injected"):
            free_resolution(k)
    monkeypatch.undo()
    assert max(free_resolution(k, 1).twists) == 1
    res = free_resolution(k)
    assert (res.twists, res.complete, res.cols) == (
        ref.twists, ref.complete, ref.cols)


def cut_order_objects():
    """(label, builder of a fresh object): a quotient-ring module over
    each field, two modules with a linear cut (the residue field of
    k[x, y, z] and M/lM for a corpus module M, whose cut module has a
    longer resolution), a Koszul complex on a corpus module, the free
    Koszul complex and a complex with a gap."""
    out, fields = [], set()
    for label, _ in quotient_corpus():
        if label.split("-")[0] not in fields:
            fields.add(label.split("-")[0])
            out.append((label, lambda label=label: dict(quotient_corpus())[
                label]))
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    inst = random_ideal_corpus()[0]
    out += [
        ("k", lambda: PresentedModule.cyclic(S, [x, y, z])),
        ("corpus-00/l", lambda: quotient_by_element(
            inst.module, _random_linear_form(
                inst.ring, random.Random(f"{inst.name}:cut")))),
        ("K(x, y; corpus-00)", lambda: koszul_complex(
            list(inst.ring.gens())[:2], random_ideal_corpus()[0].module)),
        ("K(x, y, z)", lambda: koszul_complex([x, y, z])),
        ("gap", lambda: BoundedComplex(
            S, {0: PresentedModule.cyclic(S, [x]),
                2: PresentedModule.cyclic(S, [y]),
                3: PresentedModule.cyclic(S, [y, z])}, {}))]
    return out


@pytest.mark.parametrize("order", [(1, 2, 3, None), (6, 3, 1, None, 2),
                                   (None, 2, 9, 4)],
                         ids=["ascending", "descending", "mixed"])
def test_every_cut_in_any_order_matches_a_fresh_loop(order):
    # one resolution kept per object: a shorter cut is read off it and a
    # longer one resumes its loop; cols are read on one object as each
    # cut comes, on another only after every cut of the order
    for label, build in cut_order_objects():
        at_once, late = build(), build()
        got = []
        for n in order:
            res = free_resolution(at_once, n)
            got.append((n, res, res.cols, free_resolution(late, n)))
        for obj in (at_once, late):
            assert [key for key in obj._cache if "resolution" in key] == [
                "resolution"], label
        for n, res, cols, res_late in got:
            ref = free_resolution(build(), n)
            for r in (res, res_late):
                assert (r.twists, r.complete) == (ref.twists, ref.complete), (
                    label, n)
            assert cols == res_late.cols == ref.cols, (label, n)


def quotient_corpus():
    """(label, module) pairs: seeded cyclic modules over quotients of
    k[x, y] and k[x, y, z] by one or two quadrics, over GF(2), GF(3),
    GF(32003) and QQ."""
    for field in (dict(p=2), dict(p=3), dict(p=32003), dict(rational=True)):
        rng = random.Random(f"quotient-corpus:{field}")
        for idx in range(5):
            S = polynomial_ring(["x", "y", "z"][:rng.choice([2, 3])], **field)

            def form(d):
                f = S.zero_poly()
                for _ in range(3):
                    e = [0] * S.nvars
                    for _ in range(d):
                        e[rng.randrange(S.nvars)] += 1
                    f = f + rng.randint(1, 5) * S.monomial(tuple(e))
                return f

            defining = [f for f in (form(2) for _ in range(rng.choice([1, 2])))
                        if not f.is_zero()] or [S.gens()[0] ** 2]
            R = S.quotient(defining)
            gens = [g for g in (R.reduce(form(rng.choice([1, 2])))
                                for _ in range(rng.choice([1, 2])))
                    if not g.is_zero()]
            yield f"{field}-{idx}", PresentedModule.cyclic(R, gens)


def test_a_cut_is_complete_exactly_when_one_more_level_is_empty():
    # completeness at a cut is read off Hilbert series: it must agree with
    # resolving one level more, on modules and on a Koszul complex of each
    seen = set()
    for label, M in quotient_corpus():
        # both start at spot 0
        for obj in (M, koszul_complex([M.ring.gens()[0]], M)):
            for max_len in (1, 2, 3):
                short = free_resolution(obj, max_len)
                longer = free_resolution(obj, max_len + 1)
                assert short.twists == {i: t for i, t in longer.twists.items()
                                        if i <= max_len}, label
                assert short.complete == (
                    not longer.twists.get(max_len + 1)), (label, max_len)
                seen.add(short.complete)
    assert seen == {True, False}


def quotient_session_modules():
    """(session file, binding) of every module over a quotient ring in
    the shipped sessions."""
    out = []
    for name in sorted(os.listdir(SESSIONS)):
        s = parse_session(load(name))
        out += [(name, b) for b in s.order if s.kind_of(b) == "module"
                and not s.get(b).ring.is_polynomial]
    return out


def skipped_pair_projections(gb):
    """The syzygy each S-pair of two defining columns gives on the module
    coordinates, as `grouped_syzygy_generators` computes it, decoded."""
    P = gb.packing
    mod = gb.module_elements
    ext = list(mod) + groebner._augmented_columns(gb.ring, gb.free)
    Q = P.schreyer([g.lead for g in mod])
    heads = [Q.head(k) for k in range(len(mod))]
    heads += [None] * (len(ext) - len(mod))
    K, reducers = gb.ring.field, groebner._reducers(ext)
    out = []
    for i, j, hl in groebner._schreyer_pairs(ext, P, len(ext)):
        if i >= len(mod):
            s, _, _ = groebner._s_vector(ext[i], ext[j], hl, K, P.G)
            r, trace = groebner._reduce_packed(s, reducers, K, P, heads)
            assert not r
            out.append(Q.decode_vec(trace.items()))
    return out


def test_skipping_pairs_of_two_defining_columns_changes_no_table(
        monkeypatch, capsys):
    # The step skips every S-pair of two defining columns (the proof is in
    # `syzygy_generators`).  Against the step that reduces them
    # (`grouped_syzygy_generators`): the same Betti tables on the seeded
    # quotient modules and every quotient-ring session module, and the
    # same CLI stdout on the latter; and at every step the syzygy of each
    # skipped pair lies in the span of the kept ones.
    res_mod = importlib.import_module("cmreg.resolution")
    step, s_vector = res_mod.syzygy_generators, groebner._s_vector
    skipped = nonzero = 0

    def spanned(gb):
        nonlocal skipped, nonzero
        reduced = []
        with monkeypatch.context() as m:
            m.setattr(groebner, "_s_vector", lambda gi, gj, *rest: (
                reduced.append(gi) or s_vector(gi, gj, *rest)))
            elems, basis = step(gb)
            basis.elements  # every tail is reduced on its first read
        # every reduced pair's first element is a module element
        mod = {id(g) for g in gb.module_elements}
        assert all(id(g) in mod for g in reduced)
        projections = skipped_pair_projections(gb)
        skipped += len(projections)
        kept = groebner_basis(basis.module_vectors(), gb.ring, basis.free)
        for v in projections:
            nonzero += bool(v)
            assert kept.contains(v)
        return elems, basis

    def reducing(gb):
        _, basis = grouped_syzygy_generators(gb)
        return basis.module_elements, basis

    sessions = quotient_session_modules()

    def outputs():
        tables = [betti_table(M, max_len=3).entries
                  for _, M in quotient_corpus()]
        for name, b in sessions:
            tables.append(betti_table(parse_session(load(name)).get(b)).entries)
            for cmd in ("reg", "betti", "depth", "oracle"):
                cli.main(["--session", os.path.join(SESSIONS, name), cmd, b])
                tables.append(capsys.readouterr())
        return tables

    with monkeypatch.context() as m:
        m.setattr(res_mod, "syzygy_generators", spanned)
        kept = outputs()
    with monkeypatch.context() as m:
        m.setattr(res_mod, "syzygy_generators", reducing)
        assert outputs() == kept
    assert len(sessions) >= 4
    # not vacuous: 151 pairs were skipped, 28 of them with a nonzero syzygy
    assert skipped > 100 and nonzero > 10, (skipped, nonzero)


def test_the_syzygy_step_forms_no_lcm_of_two_defining_columns(monkeypatch):
    # The step reduces no pair of two defining columns, so it forms none
    # of their lcms either: at each syzygy step over a quotient ring the
    # candidates formed are the same-position pairs (i, j), i < j, with i
    # a module element, while `certify` still forms every pair.  Counted
    # on every quotient-ring session module, resolved and run by every
    # route from a fresh parse.
    inner_pair, inner_pairs = groebner._Packing.pair, groebner._schreyer_pairs
    formed = [0]
    steps, certified = [], []

    def pair(self, *args):
        formed[0] += 1
        return inner_pair(self, *args)

    def pairs(elems, P, stop):
        before = formed[0]
        out = inner_pairs(elems, P, stop)
        pos = [g.pos for g in elems]
        same = [(i, j) for j in range(len(pos)) for i in range(j)
                if pos[i] == pos[j]]
        wanted = sum(1 for i, _ in same if i < stop)
        (steps if stop < len(elems) else certified).append(
            (formed[0] - before, wanted, len(same)))
        return out

    monkeypatch.setattr(groebner._Packing, "pair", pair)
    monkeypatch.setattr(groebner, "_schreyer_pairs", pairs)
    for name, b in quotient_session_modules():
        M = parse_session(load(name)).get(b)
        betti_table(M)
        regularity(M)
    assert all(got == wanted for got, wanted, _ in steps + certified)
    assert all(wanted == every for _, wanted, every in certified)
    # not vacuous: 10 syzygy steps, where 36 of 147 same-position pairs
    # join two defining columns, and 14 certified bases
    assert len(steps) >= 10 and len(certified) >= 5
    assert sum(every - wanted for _, wanted, every in steps) > 30


def test_completeness_at_a_negative_spot_is_read_exactly(monkeypatch):
    # `_resolves` weighs spot i by an int sign.  (-1) ** i is the float
    # -1.0 at i = -1, so with numerator coefficients above 2^53 its
    # Euler-characteristic sums rounded, and this cut, complete, read
    # incomplete once every numerator was scaled by 2^53 + 1
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()

    def cut():
        L = BoundedComplex(S, {-1: PresentedModule.cyclic(S, [x, y, z]),
                               0: PresentedModule.cyclic(S, [x * y])}, {})
        return free_resolution(L, max_len=3)

    want = cut()
    assert want.complete
    big = 2 ** 53 + 1
    res_mod, mod_mod = (importlib.import_module("cmreg.resolution"),
                        importlib.import_module("cmreg.modules"))
    for m in (res_mod, mod_mod):
        inner = m.monomial_ideal_numerator
        monkeypatch.setattr(m, "monomial_ideal_numerator", lambda gens, n,
                            inner=inner: {d: big * c for d, c in
                                          inner(gens, n).items()})
    got = cut()
    assert got.complete and got.twists == want.twists


def test_a_cut_below_the_top_of_a_complex_reads_no_series():
    # L = S/(x) + S/(y)[2] + S/(y)[3] with zero differentials: cut at 1,
    # F_0 and F_1 resolve S/(x), and the series of the last two terms
    # cancel, so the Euler sums agree though H_2(L) and H_3(L) are left
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    L = BoundedComplex(S, {0: PresentedModule.cyclic(S, [x]),
                           2: PresentedModule.cyclic(S, [y]),
                           3: PresentedModule.cyclic(S, [y])}, {})
    res = free_resolution(L, 1)
    assert res.twists == {0: (0,), 1: (1,)} and not res.complete
    assert free_resolution(L).twists == {
        0: (0,), 1: (1,), 2: (0,), 3: (0, 1), 4: (1,)}


def test_a_cut_below_the_top_of_a_complex_is_incomplete_in_any_order():
    # L = S/(x) + (S --1--> S at spots 3 -> 2) resolves as S/(x) does, so
    # the full resolution holds nothing past level 1; a cut at 1 is below
    # hi - 1 = 2 and reports incomplete whether the loop stops there or
    # the cut is read off the held full resolution
    S = polynomial_ring(["x", "y"])
    x, _ = S.gens()
    F = PresentedModule.free(S, (0,))

    def build():
        return BoundedComplex(
            S, {0: PresentedModule.cyclic(S, [x]), 2: F, 3: F},
            {3: ModuleMap(F, F, columns_from_rows([[S.constant(1)]], 1))})

    for order in ((1, None), (None, 1)):
        L = build()
        got = {n: free_resolution(L, n) for n in order}
        assert got[None].betti() == {(0, 0): 1, (1, 1): 1}
        assert got[None].complete
        assert got[1].twists == {0: (0,), 1: (1,)}, order
        assert not got[1].complete, order
        # from spot 0 to 3 a cut at 2 decides, read off the held one
        assert free_resolution(L, 2).complete, order


def test_reg_via_betti_refuses_a_truncated_resolution(monkeypatch):
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    M = PresentedModule.cyclic(S, [x * x, y * y])
    assert reg_via_betti(M)[0] == 2
    assert pd(M, max_len=2) == 2 and betti_table(M, max_len=2).complete
    # the route takes no truncation: it reads the full resolution's Betti
    # table, and refuses one that stops short
    routes = importlib.import_module("cmreg.regularity")
    full = routes.betti_table
    monkeypatch.setattr(routes, "betti_table",
                        lambda obj: full(obj, max_len=1))
    with pytest.raises(RuntimeError, match="truncated"):
        reg_via_betti(M)


# -- the Schreyer pair selection leaves every resolution's Betti table ------

def invariant_inputs():
    """(label, module, max_len) triples, built fresh on every call because
    resolutions are cached on their module."""
    for idx, inst in enumerate(random_ideal_corpus()[:8]):
        yield f"corpus-{idx:02d}", inst.module, None
    for name in sorted(os.listdir(SESSIONS)):
        s = parse_session(load(name))
        for b in s.order:
            if s.kind_of(b) == "module":
                for max_len in (None, 1, 2, 3, 4):
                    yield f"{name}:{b}", s.get(b), max_len
    for n in (2, 3, 4):
        ring, minors, z = nilpotent_scroll_family(n)
        yield f"scroll-{n}", module_from_ideal(ring, minors), None
        yield f"scroll-{n}+z", module_from_ideal(ring, minors + [z]), None


def complex_inputs():
    """(label, complex) pairs: corpus Koszul([f], M) complexes and the
    quotient-ring complexes of two-quadrics.cmreg, built fresh."""
    for idx in range(3):
        yield f"corpus-{idx:02d}-koszul", corpus_complexes(idx)[0]
    for k, C in enumerate(session_complexes("two-quadrics.cmreg")):
        if not C.ring.is_polynomial:
            yield f"two-quadrics-{k}", C


def complex_table(C, max_len):
    F, complete = free_resolution_of_complex(C, max_len=max_len)
    entries = {}
    for i, t in F.terms.items():
        for j in t.gens_free.twists:
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries, complete)


def tables():
    out = {(label, max_len): betti_table(M, max_len=max_len)
           for label, M, max_len in invariant_inputs()}
    for label, C in complex_inputs():
        for max_len in (None, 2):
            out[(label, max_len)] = complex_table(C, max_len)
    return out


def test_betti_tables_match_all_pair_syzygies(monkeypatch):
    pruned = tables()
    res_mod = importlib.import_module("cmreg.resolution")
    monkeypatch.setattr(res_mod, "syzygy_generators", naive_syzygy_generators)
    naive = tables()
    assert pruned.keys() == naive.keys()
    for key, bt in pruned.items():
        assert bt.entries == naive[key].entries, key
        assert bt.complete == naive[key].complete, key


def all_pairs_at_step(monkeypatch, k):
    """Make every resolution take all same-position pairs at its k-th
    syzygy step (k = 1 is the step at level lo + 1) and the selected
    pairs at the others.  All pairs at every step of a frame grow it like
    a Taylor resolution, 2^s generators for s leads, so the scroll family
    past n = 3 is compared one step at a time."""
    res_mod = importlib.import_module("cmreg.resolution")
    real_resolve, real_syz = res_mod._resolve, res_mod.syzygy_generators
    step = [0]

    def resolve(*args):
        step[0] = 0
        return real_resolve(*args)

    def syz(gb):
        step[0] += 1
        pick = naive_syzygy_generators if step[0] == k else real_syz
        return pick(gb)

    monkeypatch.setattr(res_mod, "_resolve", resolve)
    monkeypatch.setattr(res_mod, "syzygy_generators", syz)


def test_scroll_family_stdout_matches_all_pair_syzygies(monkeypatch, capsys):
    def stdout():
        outs = []
        for n in (2, 3, 4):
            assert cli.main(["family", "nilpotent-scroll", "--n", str(n)]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    pruned = stdout()
    # a module's resolution over 3 + n variables has at most 3 + n steps
    for k in range(1, 8):
        with monkeypatch.context() as m:
            all_pairs_at_step(m, k)
            assert stdout() == pruned, k


# -- one loop: a module is the one-term complex ------------------------------

def corpus_and_session_modules():
    """(label, module) pairs, built fresh on every call because resolutions
    are cached on their module."""
    for idx, inst in enumerate(random_ideal_corpus()):
        yield f"corpus-{idx:02d}", inst.module
    for name in sorted(os.listdir(SESSIONS)):
        s = parse_session(load(name))
        for b in s.order:
            if s.kind_of(b) == "module":
                yield f"{name}:{b}", s.get(b)


def assert_same_free_complex(got, ref):
    assert list(got.terms) == list(ref.terms)
    for n, t in ref.terms.items():
        assert got.terms[n].gens_free.twists == t.gens_free.twists
    assert list(got.diffs) == list(ref.diffs)
    for n, d in ref.diffs.items():
        assert got.diffs[n].cols == d.cols


@pytest.mark.parametrize("max_len", [None, 1, 2, 3])
def test_a_module_resolves_as_its_one_term_complex(max_len):
    count = 0
    for label, M in corpus_and_session_modules():
        res = free_resolution(M, max_len=max_len)
        F, complete = free_resolution_of_complex(complex_from_module(M),
                                                 max_len=max_len)
        assert_same_free_complex(F, resolution_to_complex(res))
        assert complete == res.complete, (label, max_len)
        count += 1
    assert count == 38


def test_a_complex_cut_at_its_full_length_is_complete():
    # Over a polynomial ring in n variables nothing lies past level s + n of
    # a complex spanning s spots, so max_len = s + n is the full resolution,
    # as max_len = n is for a module.  Here F_3 = F_{s+n} is nonzero.
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    L = koszul_complex([y], PresentedModule.cyclic(S, [x * x, x * y]))
    F, complete = free_resolution_of_complex(L)
    G, complete_cut = free_resolution_of_complex(L, max_len=3)
    assert complete and complete_cut
    assert F.max_level == 3
    assert_same_free_complex(G, F)
    assert not free_resolution_of_complex(L, max_len=2)[1]


def test_hypersurface_pair_completes_at_max_len_two(monkeypatch):
    # At level 1 the syzygies are nonzero over the cover but vanish modulo
    # x^2 + y^2; the loop must read completeness off the empty module basis
    # at level 2, not off the columns.
    res_mod = importlib.import_module("cmreg.resolution")
    chains = []
    real = res_mod.minimize_chain

    def recorded(twists, cols, K):
        out = real(twists, cols, K)
        # the loop goes on to edit the dicts it gets back
        chains.append((dict(out[0]), {n: list(cs) for n, cs in out[1].items()}))
        return out

    monkeypatch.setattr(res_mod, "minimize_chain", recorded)
    s = parse_session(load("hypersurface-pair.cmreg"))
    for name in ("M", "N"):
        M = s.get(name)
        chains.clear()
        res = free_resolution(M, max_len=2)
        assert res.complete and res.length == 1
        # the loop's last minimization, before its Groebner step at level 2
        twists, cols = [c for c in chains if 2 in c[1]][-1]
        level2 = cols[2]
        zero = groebner_basis([], M.ring, FreeModule(M.ring, twists[1]))
        assert level2 and all(level2)
        assert not any(zero.normal_form(v) for v in level2)
        F, complete = free_resolution_of_complex(complex_from_module(M),
                                                 max_len=2)
        assert complete
        assert_same_free_complex(F, resolution_to_complex(res))


# (session, position among its quotient-ring complexes) -> top level and
# complete flag at max_len=2, as the fiber-product loop this one replaced
# left them, except that the hypersurface-pair complexes, which end at
# level 2, are complete: nothing lies past the cut
QUOTIENT_COMPLEX_STOPS = {
    ("determinantal.cmreg", 0): (1, True),
    ("determinantal.cmreg", 1): (1, True),
    ("hypersurface-pair.cmreg", 0): (2, True),
    ("hypersurface-pair.cmreg", 1): (2, True),
    ("two-quadrics.cmreg", 0): (1, True),
    ("two-quadrics.cmreg", 1): (2, False),
}


def test_quotient_ring_session_complexes_stop_where_they_did():
    seen = {}
    for name in sorted(os.listdir(SESSIONS)):
        quotient = [C for C in session_complexes(name)
                    if not C.ring.is_polynomial]
        for k, C in enumerate(quotient):
            F, complete = free_resolution_of_complex(C, max_len=2)
            seen[(name, k)] = (F.max_level, complete)
            assert F.verify()
            top = F.diff(F.max_level)
            assert all(_find_unit(c) is None for c in top.cols)
    assert seen == QUOTIENT_COMPLEX_STOPS


def test_units_of_the_complex_cancel_and_passengers_follow():
    # L = S/(y) at spot 0, S + S(-1) at spot 1 and S + S(-2) at spot 2,
    # d_2 = diag(1, x): L is quasi-isomorphic to S/(y) + (S/(x))(-1)[1].
    # The unit of d_2 cancels a generator of F_1 while F_2's other column
    # still carries its map to L_2, whose row must move down with it.
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    L1, L2 = PresentedModule.free(S, (0, 1)), PresentedModule.free(S, (0, 2))
    d2 = ModuleMap(L2, L1, columns_from_rows([[S.constant(1), S.constant(0)],
                                              [S.constant(0), x]], 2))
    L = BoundedComplex(S, {0: PresentedModule.cyclic(S, [y]), 1: L1, 2: L2},
                       {2: d2})
    full = [(0, (0,)), (1, (1, 1)), (2, (2,))]
    # F ends at level 2, so a cut there is complete: nothing lies past it
    for max_len, complete, twists in ((None, True, full),
                                      (2, True, full),
                                      (1, False, full[:2])):
        F, got = free_resolution_of_complex(L, max_len=max_len)
        assert got is complete
        assert [(n, t.gens_free.twists) for n, t in F.terms.items()] == twists
        assert F.verify()
        assert all(_find_unit(c) is None for d in F.diffs.values()
                   for c in d.cols)
        if complete:
            for n in range(-1, 4):
                assert F.homology_series(n) == L.homology_series(n)


# -- one entry point: free_resolution takes a module or a complex ----------

@pytest.mark.parametrize("entry", [free_resolution, betti_table,
                                   free_resolution_of_complex, pd],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("obj", [3, None, "M"])
def test_resolution_entries_refuse_other_objects_with_type_error(entry, obj):
    # each raised AttributeError here before free_resolution checked its
    # argument
    with pytest.raises(TypeError):
        entry(obj)


def test_a_complex_keeps_its_resolution_keyed_by_spot():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    L = koszul_complex([y], PresentedModule.cyclic(S, [x * x, x * y])).shift(2)
    res = free_resolution(L)
    # spanning one spot over two variables, max_len 3 is the full length
    assert free_resolution(L, max_len=3) is res
    assert free_resolution(L, max_len=2) is not res
    assert res.complete and min(res.twists) == 2 and res.length == 5
    F, complete = free_resolution_of_complex(L)
    assert complete
    assert [(n, t.gens_free.twists) for n, t in F.terms.items()] == [
        (n, tw) for n, tw in res.twists.items() if tw]
    assert reg_via_betti(L) == (-1, (3, 2))
    rel = relative_reg(L)
    assert (rel.value, rel.certified, rel.levels) == (-1, True, 5)


def test_relative_reg_levels_of_complexes():
    # the highest spot with a nonzero term, or 0 when there is none
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    E = ext_complex(PresentedModule.cyclic(S, [x]),
                    PresentedModule.cyclic(S, [x * y, z * z]))
    assert E.levels() == [-1, 0]
    rel = relative_reg(E)
    assert (rel.value, rel.certified, rel.levels) == (2, True, 2)
    assert reg_via_betti(E) == (2, (1, 3))
    K = parse_session(load("determinantal.cmreg")).get("K")
    rel = relative_reg(K, max_len=2)
    assert (rel.value, rel.certified, rel.levels) == (0, True, 1)
    exact = BoundedComplex(S, {0: PresentedModule.free(S, (0,)),
                               1: PresentedModule.free(S, (0,))},
                           {1: ModuleMap(
                               PresentedModule.free(S, (0,)),
                               PresentedModule.free(S, (0,)),
                               columns_from_rows([[S.constant(1)]], 1))})
    rel = relative_reg(exact)
    assert (rel.value, rel.certified, rel.levels) == (-inf, True, 0)


def test_a_free_complex_is_only_minimized(monkeypatch):
    res_mod = importlib.import_module("cmreg.resolution")

    def no_loop(*args):
        raise AssertionError("a free complex went through the loop")

    monkeypatch.setattr(res_mod, "_resolve", no_loop)
    S = polynomial_ring(["x", "y", "z"])
    res = free_resolution(koszul_complex(list(S.gens())))
    assert res.complete
    assert res.betti() == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    # d_1 = 1 cancels both terms
    F = PresentedModule.free(S, (0,))
    one = BoundedComplex(S, {0: F, 1: F},
                         {1: ModuleMap(F, F, columns_from_rows(
                             [[S.constant(1)]], 1))})
    res = free_resolution(one)
    assert res.complete and res.betti() == {} and res.length == 0
    assert reg_via_betti(one) == (-inf, None)


def test_free_complex_edge_cases():
    S = polynomial_ring(["x", "y"])
    empty = BoundedComplex(S, {}, {})
    res = free_resolution(empty)
    assert res.twists == {} and res.complete and res.cols == {}
    assert reg_via_betti(empty) == (-inf, None)
    # a zero middle term: no differential touches spot 2
    gap = free_complex_from_data(S, {0: (0,), 1: (), 2: (2,)}, {})
    res = free_resolution(gap)
    assert res.complete and res.betti() == {(0, 0): 1, (2, 2): 1}
    assert res.is_minimal() and resolution_to_complex(res).verify()
    assert res.length == 2
    # the exact chain S <-1- S
    one = free_complex_from_data(S, {0: (0,), 1: (0,)},
                                 {1: [{(0, (0, 0)): S.field.one}]})
    res = free_resolution(one)
    assert res.twists == {0: (), 1: ()} and res.complete
    assert res.cols == {1: []}
    assert reg_via_betti(one)[0] == -inf


@pytest.mark.parametrize("name, binding", [("determinantal.cmreg", "M"),
                                           ("hypersurface-pair.cmreg", "M"),
                                           ("two-quadrics.cmreg", "k")])
def test_regularity_over_a_quotient_ring_resolves_twice(monkeypatch, name,
                                                        binding):
    # once over the cover, where the betti and duality routes share one
    # resolution, and once over the quotient ring for relative_reg; each
    # route built its own cover, and resolved it, before the cover was kept
    # (a cover killed by linear forms resolves its cut module over fewer
    # variables as well, in a loop of its own, counted apart)
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._resolve
    rings = []

    def counting(ring, *args):
        rings.append(ring)
        return real(ring, *args)

    monkeypatch.setattr(res_mod, "_resolve", counting)
    M = parse_session(load(name)).get(binding)
    assert not M.ring.is_polynomial
    assert regularity(M).agree
    R, S = M.ring, M.ring.cover
    assert (rings.count(R), rings.count(S)) == (1, 1)
    cut = [ring for ring in rings if ring not in (R, S)]
    assert all(ring.nvars < S.nvars for ring in cut)
    split = f"{name}:{binding}" in SPLIT_SESSION_COVERS
    assert len(cut) == split
    assert M.lift_to_cover() is M.lift_to_cover()


# -- Schreyer frames: levels of trace syzygies take no Buchberger run -------

def frame_inputs():
    """(label, object) pairs over polynomial rings and quotient rings:
    every corpus instance, every session module and complex, and the
    cyclic modules of the scroll family for n = 2..5, built fresh."""
    for idx, inst in enumerate(random_ideal_corpus()):
        yield f"corpus-{idx:02d}", inst.module
    for label, M in corpus_and_session_modules():
        if not label.startswith("corpus"):
            yield label, M
    for name in sorted(os.listdir(SESSIONS)):
        for k, C in enumerate(session_complexes(name)):
            yield f"{name}-complex-{k}", C
    for n in (2, 3, 4, 5):
        ring, minors, z = nilpotent_scroll_family(n)
        yield f"family-{n}", PresentedModule.cyclic(ring, minors)
        yield f"family-{n}+z", PresentedModule.cyclic(ring, minors + [z])


def frame_max_lens(label, obj):
    """None and every max_len from 1 to the number of variables, or to n
    for the scroll family's member n."""
    top = int(label[7]) if label.startswith("family-") else obj.ring.nvars
    return [None, *range(1, top + 1)]


def table_of(obj, max_len):
    res = free_resolution(obj, max_len=max_len)
    return res.betti(), res.complete


def test_frame_tables_match_all_pair_syzygies(monkeypatch):
    # All pairs at every step where that stays small.  The scroll family
    # past n = 2 grows too large for it and takes all pairs one step at a
    # time; a resolution cut at max_len makes max_len syzygy steps.
    pruned = {}
    for label, obj in frame_inputs():
        for max_len in frame_max_lens(label, obj):
            pruned[(label, max_len)] = table_of(obj, max_len)
    step_by_step = ("family-3", "family-4", "family-5")
    with monkeypatch.context() as m:
        res_mod = importlib.import_module("cmreg.resolution")
        m.setattr(res_mod, "syzygy_generators", naive_syzygy_generators)
        for label, obj in frame_inputs():
            if not label.startswith(step_by_step):
                for max_len in frame_max_lens(label, obj):
                    key = (label, max_len)
                    assert table_of(obj, max_len) == pruned[key], key
    for k in range(1, 11):
        with monkeypatch.context() as m:
            all_pairs_at_step(m, k)
            for label, obj in frame_inputs():
                if not label.startswith(step_by_step):
                    continue
                for max_len in frame_max_lens(label, obj):
                    if max_len is None or k <= max_len:
                        key = (label, max_len)
                        assert table_of(obj, max_len) == pruned[key], (key, k)


def test_frame_resolutions_are_minimal_complexes():
    for label, obj in frame_inputs():
        for max_len in frame_max_lens(label, obj):
            res = free_resolution(obj, max_len=max_len)
            assert res.is_minimal(), (label, max_len)
            assert all(list(tw) == sorted(tw) for i, tw in res.twists.items()
                       if i > min(res.twists)), (label, max_len)
            assert resolution_to_complex(res).verify(), (label, max_len)


def test_a_misnumbered_frame_raises():
    # The Koszul frame of k[x, y, z]: two level-2 syzygies share lead index
    # e_1 and their S-pair reduces by the third, whose leading term has the
    # same level-0 term as the pair's lcm.  In lead-index order the third
    # comes last and the trace syzygy leads with its predicted term; numbered
    # first, the third's term outranks it.
    S = polynomial_ring(["x", "y", "z"])
    gens = [{(0, m): S.field.one} for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    gb = groebner_basis(gens, S, FreeModule(S, (0,)))
    _, frame = syzygy_generators(gb)
    leads = [g.pos for g in frame.elements]
    assert leads == sorted(leads)
    _, top = syzygy_generators(frame)
    assert len(top.elements) == 1 and certify(top)
    bad = GroebnerBasis(S, frame.free, frame.elements[::-1], [0, 1, 2],
                        frame.packing)
    # the step builds leads alone; the check runs where a tail is reduced
    _, lazy = syzygy_generators(bad)
    with pytest.raises(ArithmeticError, match="Schreyer term"):
        lazy.elements
    # a failed read leaves its degree pending, so a second read raises too
    with pytest.raises(ArithmeticError, match="Schreyer term"):
        lazy.module_vectors()


def test_a_frame_syzygy_decodes_only_through_its_basis():
    # The same Koszul frame.  Its elements are packed in a Schreyer order
    # they do not know: read as position over grevlex they would decode
    # to other vectors.  module_vectors decodes them in the basis's own
    # packing, to the Koszul syzygies, and each level's syzygies
    # annihilate the level below.
    S = polynomial_ring(["x", "y", "z"])
    K = S.field
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    gens = [{(0, m): K.one} for m in (x, y, z)]
    gb = groebner_basis(gens, S, FreeModule(S, (0,)))
    assert [gb.packing.monomial(g.word) for g in gb.module_elements] == [
        z, y, x]
    _, frame = syzygy_generators(gb)
    _, top = syzygy_generators(frame)
    minus = K.from_int(-1)
    assert frame.module_vectors() == [
        {(0, x): K.one, (2, z): minus}, {(0, y): K.one, (1, z): minus},
        {(1, x): K.one, (2, y): minus}]
    for below, level in ((gb, frame), (frame, top)):
        rows = below.module_vectors()
        vecs = level.module_vectors()
        assert len(vecs) == len(level.elements) > 0
        for g, v in zip(level.elements, vecs):
            assert _packing(3, level.free.rank).decode_vec(
                g.items(K.one)) != v
            assert v[(g.pos, level.packing.monomial(g.word))] == K.one
            total = {}
            for (k, mono), c in v.items():
                vec_addmul(total, rows[k], {mono: c}, K.characteristic)
            assert not total


def test_betti_tables_reduce_only_frame_syzygies_that_can_carry_a_constant(
        monkeypatch):
    # A constant term c e_p of a homogeneous syzygy has the degree of e_p,
    # so a Betti table reduces only the frame S-pairs whose syzygy degree
    # is a twist one level down (GroebnerBasis.module_constants), and
    # reading cols reduces the rest.  Counted on the scroll family: a
    # frame S-pair reduction is a `_reduce_packed` call with trace heads,
    # since a module over a polynomial ring is resolved with no lift,
    # and the frame syzygies are the syzygy step's elements.  The S/I
    # members' frames are linear, so no syzygy there has the degree of a
    # twist one level down.  Pinned on the cover of every session module
    # too.
    res_mod = importlib.import_module("cmreg.resolution")
    reduce_packed = groebner._reduce_packed
    step = res_mod.syzygy_generators
    reductions = syzygies = 0

    def counting_reduce(work, reducers, K, P, heads=None):
        nonlocal reductions
        reductions += heads is not None
        return reduce_packed(work, reducers, K, P, heads)

    def counting_step(gb):
        nonlocal syzygies
        out = step(gb)
        syzygies += len(out[0])
        return out

    def count(M):
        # (reduced for the table, frame syzygies, reduced once cols is read)
        nonlocal reductions, syzygies
        reductions = syzygies = 0
        betti_table(M)
        read = reductions
        free_resolution(M).cols
        return read, syzygies, reductions

    monkeypatch.setattr(groebner, "_reduce_packed", counting_reduce)
    monkeypatch.setattr(res_mod, "syzygy_generators", counting_step)
    counts = []
    for n in (2, 3, 4):
        R, minors, z = nilpotent_scroll_family(n)
        for gens in (minors, minors + [z]):
            counts.append(count(PresentedModule.cyclic(R, gens)))
    assert counts == [(0, 11, 11), (21, 22, 22), (0, 39, 39), (78, 79, 79),
                      (0, 114, 114), (236, 237, 237)]
    covers = {label: count(M.lift_to_cover())
              for label, M in corpus_and_session_modules()
              if not label.startswith("corpus")}
    assert covers == {
        "determinantal.cmreg:M": (0, 2, 2),
        "free-socle.cmreg:F": (0, 0, 0), "free-socle.cmreg:k": (0, 0, 0),
        "hypersurface-pair.cmreg:M": (0, 0, 0),
        "hypersurface-pair.cmreg:N": (0, 0, 0),
        "scroll-2.cmreg:M": (0, 11, 11),
        "two-quadrics.cmreg:RC": (0, 1, 1), "two-quadrics.cmreg:k": (0, 0, 0)}


def test_a_frame_reduces_a_tail_only_over_a_complete_level_below(
        monkeypatch):
    # The one rule of GroebnerBasis._complete: a read that reduces a tail
    # at frame level k + 1 completes level k whole first, so every frame
    # S-pair is reduced against a reducer list with no pending tail.
    # Checked on every reduction behind betti_table and then cols, on
    # the scroll family for n = 2..4 and the cover of every session
    # module; 335 of the reductions there have a frame as level below.
    res_mod = importlib.import_module("cmreg.resolution")
    step, tail = res_mod.syzygy_generators, groebner._syzygy_tail
    frame_elems, over_frames = {}, 0  # kept alive, so no id is reused

    def recording_step(gb):
        out = step(gb)
        frame_elems.update((id(g), g) for g in out[0])
        return out

    def checked_tail(lead, i, j, hl, ext, *args):
        nonlocal over_frames
        assert all(g.tail is not None for g in ext)
        over_frames += any(id(g) in frame_elems for g in ext)
        return tail(lead, i, j, hl, ext, *args)

    monkeypatch.setattr(res_mod, "syzygy_generators", recording_step)
    monkeypatch.setattr(groebner, "_syzygy_tail", checked_tail)
    mods = [M.lift_to_cover() for label, M in corpus_and_session_modules()
            if not label.startswith("corpus")]
    for n in (2, 3, 4):
        R, minors, z = nilpotent_scroll_family(n)
        mods += [PresentedModule.cyclic(R, gens)
                 for gens in (minors, minors + [z])]
    for M in mods:
        betti_table(M)
        free_resolution(M).cols
    assert over_frames > 300, over_frames


def buchberger_runs(monkeypatch):
    """A list that gets the arguments of every `_buchberger` run."""
    real = groebner._buchberger
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    return calls


@pytest.mark.parametrize("label", ["corpus", "family"])
def test_a_module_over_a_polynomial_ring_runs_buchberger_once(label,
                                                              monkeypatch):
    # counted at the kernel: the level-1 basis is the module's own, filled
    # by the loop when nothing read it before
    calls = buchberger_runs(monkeypatch)
    for name, obj in frame_inputs():
        if name.startswith(label) and isinstance(obj, PresentedModule):
            calls.clear()
            res = free_resolution(obj)
            assert res.complete and len(calls) == 1, name


def resolution_text(res):
    return repr((res.twists, res.complete, res.cols))


def own_level_one(monkeypatch):
    """Make every module's gb() a fresh, unkept Buchberger run, so that
    the loop's first level is a basis of its own."""
    def fresh(M):
        return groebner_basis(M.rel_cols, M.ring, M.gens_free)

    monkeypatch.setattr(PresentedModule, "gb", fresh)


def test_the_first_level_is_the_modules_own_basis(monkeypatch):
    # over a polynomial ring a module's loop needs Buchberger at level 1
    # alone, so with M.gb() read first, in either order, it runs none
    refs = {}
    with monkeypatch.context() as m:
        own_level_one(m)
        for label, M in frame_inputs():
            if isinstance(M, PresentedModule):
                refs[label] = resolution_text(free_resolution(M))
    runs = buchberger_runs(monkeypatch)
    count = 0
    for label, M in frame_inputs():
        if not isinstance(M, PresentedModule):
            continue
        M.gb()
        runs.clear()
        res = free_resolution(M)
        assert resolution_text(res) == refs[label], label
        if M.ring.is_polynomial:
            assert runs == [], label
            count += 1
    for label, M in frame_inputs():
        if isinstance(M, PresentedModule) and M.ring.is_polynomial:
            res = free_resolution(M)
            runs.clear()
            M.gb()
            assert runs == [], label
            assert resolution_text(res) == refs[label], label
    assert count == 41


def test_a_unit_relation_leaves_the_loop_its_own_first_basis(S3,
                                                             monkeypatch):
    # x e_0 + e_1 is minimized away before the first Groebner step, so the
    # loop's relations are no longer the module's: it runs its own basis
    x, y, z = S3.gens()
    one = S3.field.one
    M = PresentedModule(S3, FreeModule(S3, (0, 1)), [
        {(0, (1, 0, 0)): one, (1, (0, 0, 0)): one},
        vec_from_column([y * y, S3.zero_poly()]),
        vec_from_column([S3.zero_poly(), z * z])])
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod.groebner_basis
    runs = []

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(res_mod, "groebner_basis", counting)
    res = free_resolution(M)
    assert len(runs) == 1 and "gb" not in M._cache
    assert res.twists[0] == (0,)
    assert betti_table(M) == betti_table(M.minimized())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_scroll_member_matches_the_ideal_as_a_module(monkeypatch, n):
    # S/(I + z) is killed by z and resolves over the other variables; the
    # ideal as a module is killed by no form, so it checks that path
    cuts = recorded_cuts(monkeypatch)
    ring, minors, z = nilpotent_scroll_family(n)
    got = scroll_member(n)[3:]
    assert got == (2, n + 1)
    assert [c is not None for c in cuts] == [False, True]
    cuts.clear()
    assert got == (reg_via_betti(module_from_ideal(ring, minors))[0],
                   reg_via_betti(module_from_ideal(ring, minors + [z]))[0])
    assert cuts == [None, None]


# -- a module killed by linear forms: F' over the other variables (x) K(l) ---

def recorded_tensor_cuts(monkeypatch):
    """The arguments (ring, inner, keep, forms) of every `_tensor_cut`
    call, in order: inner is F', the resolution of the cut module, that
    F tensors with the Koszul complex of the forms."""
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._tensor_cut
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(res_mod, "_tensor_cut", recording)
    return calls


def recorded_cuts(monkeypatch):
    """The linear cut of every module or complex resolved by the loop,
    None or the resolution F' of its cut module (the inner resolution
    `_tensor_cut` tensors), appended as the loop reaches its first cut.
    The loop that resolves a cut module runs inside its module's loop,
    and is not counted."""
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._resolve
    tensored = recorded_tensor_cuts(monkeypatch)
    cuts, depth = [], [0]

    def recording(*args):
        loop = real(*args)
        depth[0] += 1
        seen = len(tensored)
        try:
            res = next(loop)
        finally:
            depth[0] -= 1
        if not depth[0]:
            cuts.append(tensored[-1][1] if len(tensored) > seen else None)
        while True:
            res = loop.send((yield res))

    monkeypatch.setattr(res_mod, "_resolve", recording)
    return cuts


SPLIT_SESSION_COVERS = {"free-socle.cmreg:k", "hypersurface-pair.cmreg:M",
                        "hypersurface-pair.cmreg:N", "two-quadrics.cmreg:k"}


def cut_modules():
    """(label, module) pairs of modules killed by linear forms, built fresh
    on every call: for each corpus instance M and two seeded linear forms,
    M/lM, (0 :_M l) and M/(l_1, l_2)M; the residue field of k[x, y, z]
    over GF(7), QQ and GF(4294967311); a rank-two module with twists 0
    and 1 killed by x - 2y + 3z; and the session covers that split."""
    for inst in random_ideal_corpus():
        M, S = inst.module, inst.ring
        rng = random.Random(f"{inst.name}:cut")
        l1, l2 = _random_linear_form(S, rng), _random_linear_form(S, rng)
        yield f"{inst.name}/l", quotient_by_element(M, l1)
        yield f"{inst.name}/colon", colon_by_element(M, l1)[0]
        yield f"{inst.name}/l1l2", quotient_by_element(
            quotient_by_element(M, l1), l2)
    for args in (dict(p=7), dict(rational=True), dict(p=BIG_PRIME)):
        S = polynomial_ring(["x", "y", "z"], **args)
        yield f"k over {S.field}", PresentedModule.cyclic(S, list(S.gens()))
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    F = FreeModule(S, (0, 1))
    rels = [{(p, m): c for m, c in (x - 2 * y + 3 * z).terms.items()}
            for p in (0, 1)]
    rels += [vec_from_column([x * x, -y]), vec_from_column([y * z, z])]
    yield "rank two", PresentedModule(S, F, rels)
    for label, M in corpus_and_session_modules():
        if label in SPLIT_SESSION_COVERS:
            yield f"{label} cover", M.lift_to_cover()


def test_the_session_covers_that_split(monkeypatch):
    cuts = recorded_cuts(monkeypatch)
    split = set()
    for label, M in corpus_and_session_modules():
        cuts.clear()
        free_resolution(M.lift_to_cover())
        if cuts[-1] is not None:
            split.add(label)
    assert split == SPLIT_SESSION_COVERS


def test_a_cut_module_resolves_as_the_oracle_and_the_routes_read_it(
        monkeypatch):
    cuts = recorded_cuts(monkeypatch)
    count = zero = 0
    for label, M in cut_modules():
        cuts.clear()
        res = free_resolution(M)
        bt = betti_table(M)
        assert bt.complete, label
        if M.is_zero():
            assert bt.entries == {} and cuts == [None], label
            zero += 1
            continue
        (cut,) = cuts
        assert cut is not None, label
        oc = DenseOracle(M)
        lo, hi = oc.window(6)
        assert oc.betti_table() == {
            (i, j): b for (i, j), b in bt.entries.items() if lo <= j <= hi}, \
            label
        F = resolution_to_complex(res)
        assert F.verify() and res.is_minimal(), label
        assert F.nonzero_homology_series() == {0: M.hilbert_series()}, label
        # a disagreement raises
        assert regularity(M).value == bt.regularity(), label
        pd = bt.projective_dimension()
        for max_len in (1, 2, 3):
            cut_bt = betti_table(M, max_len=max_len)
            assert cut_bt.entries == {(i, j): b for (i, j), b
                                      in bt.entries.items() if i <= max_len}
            # a cut at pd or above is complete (past max_len = n it is
            # the full resolution)
            assert cut_bt.complete == (pd <= max_len), (label, max_len)
        count += 1
    assert (count, zero) == (74, 24)


def cut_scroll():
    """(S/(I + z), z) for the scroll member n = 2, built fresh."""
    ring, minors, z = nilpotent_scroll_family(2)
    return PresentedModule.cyclic(ring, minors + [z]), z


def residue_field(ring):
    return PresentedModule.cyclic(ring, list(ring.gens()))


def tor_k_table(M):
    """{(i, j): dim Tor_i(M, k)_j} off the series of F (x) k, F the
    resolution of M: the Betti table when F is minimal."""
    return {(i, j): d
            for i, H in tor_complex(M, residue_field(M.ring))
            .nonzero_homology_series().items()
            for j in range(H.indeg(), H.top_degree() + 1)
            if (d := H.coefficient(j))}


def test_tor_against_k_reads_a_cut_betti_table():
    # the readers of a cut module's tensored cols: Tor against k here,
    # check tensor on the corpus (S/(g) is cut by g)
    for label, M in cut_modules():
        assert tor_k_table(M) == betti_table(M).entries, label


def test_an_off_by_one_koszul_twist_is_caught(monkeypatch):
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._koszul_basis
    bt = betti_table(cut_scroll()[0])
    # the last twist of the witness's level attains the regularity
    level = bt.witness()[0]

    def bumped(inner, c, i):
        basis = real(inner, c, i)
        if i == level:
            t, *rest = basis[-1]
            basis[-1] = (t + 1, *rest)
        return basis

    monkeypatch.setattr(res_mod, "_koszul_basis", bumped)
    M = cut_scroll()[0]
    assert betti_table(M).regularity() == bt.regularity() + 1
    # Tor against k reads the tensored differentials, which no longer fit
    # (the duality route reads F' alone)
    M, k = cut_scroll()[0], residue_field(M.ring)
    with pytest.raises(ValueError, match="not homogeneous"):
        tor_complex(M, k)
    with pytest.raises(ValueError, match="not homogeneous"):
        resolution_to_complex(free_resolution(M)).verify()


def test_a_flipped_koszul_sign_is_caught(monkeypatch):
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._koszul_cols
    M, z = cut_scroll()
    (zm,) = z.terms
    flipped = []

    def flip(ring, keep, forms, levels, inner):
        assert forms == [z.terms]
        cols = real(ring, keep, forms, levels, inner)
        # a column of d_2 with an entry of d' and one of z
        col = next(col for col in cols[2]
                   if len({m == zm for _, m in col}) == 2)
        for t, c in col.items():
            if t[1] == zm:
                col[t] = ring.field.characteristic - c
                flipped.append(t)
        return cols

    monkeypatch.setattr(res_mod, "_koszul_cols", flip)
    assert not resolution_to_complex(free_resolution(M)).verify()
    assert len(flipped) == 1
    # check tensor reads F (x) R, whose homology sees d^2 != 0 (the
    # duality route reads F' alone, and F (x) k has zero differentials)
    M = cut_scroll()[0]
    with pytest.raises(ValueError, match="composition is not zero"):
        check_cor_tensor(M, PresentedModule.cyclic(M.ring, []))


# -- Betti numbers off the frame: ranks of constant parts ---------------------

def recorded_chains(monkeypatch):
    """The chains `_resolve` reads Betti numbers off, as (twists, cols,
    ring), appended as they come, with each frame level, a packed syzygy
    basis, decoded into its columns."""
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._betti_twists
    chains = []

    def recording(twists, cols, ring):
        chains.append((twists, {
            i: cs.module_vectors() if isinstance(cs, GroebnerBasis) else cs
            for i, cs in cols.items()}, ring))
        return real(twists, cols, ring)

    monkeypatch.setattr(res_mod, "_betti_twists", recording)
    return chains


def recorded_minimal_cols(monkeypatch):
    """The arguments of every `_minimal_cols` call, (twists, chain
    twists, chain cols, field), appended as they come: the chain a
    resolution's cols minimize, on their first read, with each frame level
    still a packed syzygy basis.  For a module killed by linear forms it
    is the chain of F' over the other variables."""
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._minimal_cols
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(res_mod, "_minimal_cols", recording)
    return calls


def schreyer_decodes(monkeypatch):
    """A list that gets the term count of every vector decoded from a
    Schreyer packing."""
    real = _Packing.decode_vec
    decoded = []

    def counting(self, terms):
        # every packing but the shared position-over-grevlex one is a
        # Schreyer order
        if groebner._PACKINGS.get(self.nvars) is not self:
            decoded.append(len(terms))
        return real(self, terms)

    monkeypatch.setattr(_Packing, "decode_vec", counting)
    return decoded


def test_betti_numbers_decode_no_frame_syzygy(monkeypatch):
    # Over a polynomial ring the frame levels stay packed: the Betti
    # numbers are read off their packed constant terms, and only a read
    # of cols decodes them.
    decoded = schreyer_decodes(monkeypatch)
    # fresh modules for each entry, so that none reads a cached resolution
    for entry in (lambda M: [betti_table(M.lift_to_cover(), max_len=n)
                             for n in (None, 1, 2, 3)],
                  reg_via_betti, depth):
        for label, M in corpus_and_session_modules():
            entry(M)
    for n in (2, 3, 4):
        scroll_member(n)
    assert decoded == []
    for label, M in corpus_and_session_modules():
        free_resolution(M.lift_to_cover()).cols
    assert decoded


def reference_decode(basis):
    """A packed syzygy basis as tuple dicts, each monomial the quotient of
    its term's level-0 monomial by its basis vector's, the level-0
    exponents read field by field."""
    Q = basis.packing
    n = basis.ring.nvars

    def mono(h0):
        return tuple((h0 >> (32 * v)) & 0xFFFF for v in range(n))

    return [{(h & Q.M, mono_div(mono(h >> _INDEX_BITS),
                                mono(Q.bases[h & Q.M]))): c
             for h, c in g.items(basis.ring.field.one)}
            for g in basis.module_elements]


def test_cols_are_the_frame_decoded(monkeypatch):
    # the differentials minimize the decoded frame, as a loop that decoded
    # every syzygy when it was found would (and a linear cut tensors that
    # with its Koszul complex)
    res_mod = importlib.import_module("cmreg.resolution")
    minimal = recorded_minimal_cols(monkeypatch)
    real_cut = res_mod._tensor_cut
    cut_args = recorded_tensor_cuts(monkeypatch)
    frames = cuts = 0
    for label, M in corpus_and_session_modules():
        for N in {M, M.lift_to_cover()}:
            minimal.clear()
            cut_args.clear()
            res = free_resolution(N)
            cols = res.cols
            (twists, chain_twists, chain_cols, K), = minimal
            chain_cols = dict(chain_cols)
            packed = [i for i, cs in chain_cols.items()
                      if isinstance(cs, GroebnerBasis)]
            frames += len(packed)
            for i in packed:
                assert (chain_cols[i].module_vectors()
                        == reference_decode(chain_cols[i]))
                chain_cols[i] = reference_decode(chain_cols[i])
            decoded = res_mod._minimal_cols(twists, chain_twists,
                                            chain_cols, K)
            if not cut_args:
                assert cols == decoded, label
                continue
            (ring, inner, keep, forms), = cut_args
            assert inner.cols == decoded, label
            F = res_mod.FreeResolution(inner.ring, inner.twists,
                                       inner.complete, lambda: decoded)
            assert cols == real_cut(ring, F, keep, forms).cols, label
            cuts += 1
    # the four cut modules' frames run over fewer variables, so they are
    # shorter: 38 frame levels here, where resolving them over all the
    # variables took 43
    assert frames == 38 and cuts == 4


def minimized_twists(twists, cols, K):
    """{spot: sorted twists} of the chain minimized outright."""
    tw, _, _ = minimize_chain(twists, cols, K)
    return {i: sorted(t) for i, t in tw.items()}


@pytest.mark.parametrize("max_len", [None, 1, 2, 3])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_rank_betti_numbers_equal_the_minimized_twists(monkeypatch, field,
                                                       max_len):
    # the twists the loop reads off its chain: F's, or F''s over the other
    # variables when a linear cut splits the module
    chains = recorded_chains(monkeypatch)
    tensored = recorded_tensor_cuts(monkeypatch)
    units = 0
    for label, M in corpus_and_session_modules():
        M = over_field(M, FIELDS[field])
        chains.clear()
        tensored.clear()
        res = free_resolution(M, max_len=max_len)
        (twists, cols, ring), = chains
        loop = tensored[-1][1] if tensored else res
        complete = loop.complete
        ref = minimized_twists(twists, cols, ring.field)
        units += sum(map(len, twists.values())) - sum(map(len, ref.values()))
        got = {i: sorted(t) for i, t in loop.twists.items()}
        assert got == {i: ref[i] for i in got}, label
        dropped = set(ref) - set(got)
        if complete:
            # it drops the level of degree-restricted syzygies above its
            # top; every other level it drops is empty
            assert all(not ref[i] for i in dropped if i < max(ref)), label
        else:
            # a truncation drops the syzygies past its cut, which cut its
            # top level down; it is incomplete because they do not vanish
            top = max(got)
            assert dropped == {top + 1} and ref[top + 1], label
        before = dict(res.twists)
        assert res.is_minimal(), label
        assert res.twists == before, label
        assert resolution_to_complex(res).verify(), label
    # the frames are not minimal, so the ranks do some work
    assert units > 0


def test_rank_betti_numbers_of_truncated_frames(monkeypatch):
    # sigma<=k of a frame is a free complex with homology at k as well;
    # the rank formula holds for any free complex
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod._betti_twists
    chains = recorded_chains(monkeypatch)
    count = 0
    for inst in random_ideal_corpus():
        chains.clear()
        free_resolution(inst.module)
        (twists, cols, ring), = chains
        for k in range(min(twists) + 1, max(twists) + 1):
            tw = {i: t for i, t in twists.items() if i <= k}
            cs = {i: c for i, c in cols.items() if i <= k}
            got = {i: sorted(t) for i, t in real(tw, cs, ring).items()}
            assert got == minimized_twists(tw, cs, ring.field), (inst.name, k)
            count += 1
    assert count > 60


def test_the_betti_route_never_minimizes_a_frame_level(monkeypatch):
    # A module's frame starts at level 2; only the loop's own minimization
    # of d_1, before its Groebner step, is left.  The Betti numbers come
    # from minimizing the constant part, a complex over the field, whose
    # entries are all scalars.
    res_mod = importlib.import_module("cmreg.resolution")
    real = res_mod.minimize_chain
    tops = []

    def counting(twists, cols, K):
        polynomial = [i for i, cs in cols.items()
                      if any(any(m) for col in cs for _, m in col)]
        if polynomial:
            tops.append(max(polynomial))
        return real(twists, cols, K)

    monkeypatch.setattr(res_mod, "minimize_chain", counting)
    # fresh modules for each entry, so that none reads a cached resolution
    for entry in (lambda M: [betti_table(M.lift_to_cover(), max_len=n)
                             for n in (None, 1, 2, 3)],
                  reg_via_betti, depth):
        for label, M in corpus_and_session_modules():
            entry(M)
    for n in (2, 3, 4):
        scroll_member(n)
    assert tops and set(tops) == {1}


# -- one Betti read for every ring and every free complex ---------------------

def test_a_free_complex_lists_levels_above_the_bottom_by_degree():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    res = free_resolution(koszul_complex([y * y, x]))
    assert res.twists == {0: (0,), 1: (1, 2), 2: (3,)}
    assert res.is_minimal() and resolution_to_complex(res).verify()


@pytest.mark.parametrize("max_len", [None, 1, 2, 3])
def test_quotient_ring_twists_and_cols_are_the_chain_minimized(monkeypatch,
                                                               max_len):
    # over a quotient ring the loop minimizes every level before its
    # Groebner step, so the chain minimized outright is what it was
    chains = recorded_chains(monkeypatch)
    count = 0
    for label, M in corpus_and_session_modules():
        if M.ring.is_polynomial:
            continue
        chains.clear()
        res = free_resolution(M, max_len=max_len)
        (twists, cols, ring), = chains
        tw, cs, _ = minimize_chain(twists, cols, ring.field)
        lo = min(res.twists)
        assert res.twists == {i: tw[i] for i in res.twists}, label
        assert res.cols == {i: cs[i] for i in res.twists if i > lo}, label
        count += 1
    assert count == 5


def test_an_unminimized_chain_resolves_as_a_free_complex(monkeypatch):
    # the frame of each corpus module, read back as a free complex, is
    # minimized on the free-complex path down to the module's resolution
    chains = recorded_chains(monkeypatch)
    units = 0
    for inst in random_ideal_corpus():
        chains.clear()
        res = free_resolution(inst.module)
        (twists, cols, ring), = chains
        F = free_resolution(free_complex_from_data(ring, twists, cols))
        assert F.complete, inst.name
        assert ({i: tw for i, tw in F.twists.items() if tw}
                == {i: tw for i, tw in res.twists.items() if tw}), inst.name
        assert all(list(tw) == sorted(tw) for i, tw in F.twists.items()
                   if i > min(F.twists)), inst.name
        assert F.is_minimal(), inst.name
        assert resolution_to_complex(F).verify(), inst.name
        units += (sum(map(len, twists.values()))
                  - sum(map(len, F.twists.values())))
    assert units > 0
