import importlib
import json
import os
from math import inf

import pytest

import cmreg.cli as cli
from cmreg import (PresentedModule, betti_table, complex_from_module, depth,
                   ext, free_resolution, free_resolution_of_complex,
                   module_from_ideal, parse_session, pd,
                   polynomial_ring, reg_via_betti, relative_reg,
                   resolution_to_complex, tor)
from cmreg.theorems import nilpotent_scroll_family, random_ideal_corpus
from test_groebner import naive_syzygy_generators
from test_sessions import SESSIONS, load


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


def test_library_tor_and_ext_reach_past_a_short_max_len():
    # tor and ext resolve at least one level past i, so a max_len at or
    # below i still gives Tor_i and Ext^i rather than the truncation's top
    s = parse_session(TOR_SESSION)
    k, N = s.get("k"), s.get("N")
    for i in (0, 1, 2):
        for max_len in (0, 1, 2):
            assert (tor(k, N, i, max_len=max_len).hilbert_series()
                    == tor(k, N, i).hilbert_series()), (i, max_len)
            assert (ext(k, N, i, max_len=max_len).hilbert_series()
                    == ext(k, N, i).hilbert_series()), (i, max_len)
    tor1 = tor(k, N, 1, max_len=1)
    assert tor1.hilbert_series() == k.hilbert_series().twist(-1)  # k(-1)


def test_reg_via_betti_refuses_a_truncated_resolution():
    S = polynomial_ring(["x", "y"])
    x, y = S.gens()
    M = PresentedModule.cyclic(S, [x * x, y * y])
    assert reg_via_betti(M)[0] == 2
    assert reg_via_betti(M, max_len=2)[0] == 2
    assert pd(M, max_len=2) == 2 and betti_table(M, max_len=2).complete
    with pytest.raises(RuntimeError, match="truncated"):
        reg_via_betti(M, max_len=1)


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


def tables():
    return {(label, max_len): betti_table(M, max_len=max_len)
            for label, M, max_len in invariant_inputs()}


def test_betti_tables_match_all_pair_syzygies(monkeypatch):
    pruned = tables()
    res_mod = importlib.import_module("cmreg.resolution")
    monkeypatch.setattr(res_mod, "syzygy_generators", naive_syzygy_generators)
    naive = tables()
    assert pruned.keys() == naive.keys()
    for key, bt in pruned.items():
        assert bt.entries == naive[key].entries, key
        assert bt.complete == naive[key].complete, key


def test_scroll_family_stdout_matches_all_pair_syzygies(monkeypatch, capsys):
    def stdout():
        outs = []
        for n in (2, 3, 4):
            assert cli.main(["family", "nilpotent-scroll", "--n", str(n)]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    pruned = stdout()
    res_mod = importlib.import_module("cmreg.resolution")
    monkeypatch.setattr(res_mod, "syzygy_generators", naive_syzygy_generators)
    assert stdout() == pruned
