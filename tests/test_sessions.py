"""The shipped session files must parse and support their headline use."""

import importlib
import json
import os

import pytest

import cmreg.cli as cli
from cmreg import betti_table, free_resolution, parse_session
from cmreg.resolution import BettiTable

HERE = os.path.dirname(__file__)
SESSIONS = os.path.join(HERE, "..", "sessions")


def load(name):
    with open(os.path.join(SESSIONS, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(os.listdir(SESSIONS)))
def test_every_shipped_session_parses_and_round_trips(name):
    text = load(name)
    s = parse_session(text)
    # each shipped statement sits on a line of its own and binds one name
    statements = [ln for ln in text.splitlines()
                  if ln.strip() and not ln.lstrip().startswith("#")]
    assert len(s.order) == len(statements)


def run(*argv):
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def path(name):
    return os.path.join(SESSIONS, name)


def test_determinantal_session_headline():
    code, out = run("--session", path("determinantal.cmreg"), "reg", "M")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 1


def test_hypersurface_pair_session_headline():
    code, out = run("--session", path("hypersurface-pair.cmreg"),
                    "check", "tensor", "--modules", "M,N")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["conclusion"] == {"lhs": 1, "rhs": 1, "verdict": "equality"}


def test_two_quadrics_session_headline():
    code, out = run("--session", path("two-quadrics.cmreg"), "reg", "RC")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 2
    code, out = run("--session", path("two-quadrics.cmreg"),
                    "betti", "k", "--max-len", "4")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["truncated"]
    # strictly linear syzygies with ranks climbing by one
    assert [1, 1, 2] in result["table"]["entries"]
    assert [4, 4, 5] in result["table"]["entries"]


def test_scroll_session_headline():
    code, out = run("--session", path("scroll-2.cmreg"),
                    "check", "filter", "--module", "M", "--form", "x3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["conclusion"]["lhs"] == 1
    assert result["conclusion"]["rhs"] == 3
    assert result["invariants"]["strict"] is True


def test_tor_and_ext_leave_out_the_top_of_a_truncation():
    # R = k[x,y]/(x^2,y^2) is free over itself and self-injective, so
    # Tor_i(k, R) and Ext^i(k, R) vanish for i > 0; k's resolution never
    # ends, and the top spot i = 8 of its truncation is not listed
    for cmd in ("tor", "ext"):
        code, out = run("--session", path("two-quadrics.cmreg"), cmd, "k", "RC")
        assert code == 0
        result = json.loads(out)["result"]
        assert [e["i"] for e in result[cmd]] == [0]
        assert result["truncated"] is True
    code, out = run("--session", path("free-socle.cmreg"), "tor", "k", "k")
    assert json.loads(out)["result"]["truncated"] is False


def test_free_socle_session_headline():
    code, out = run("--session", path("free-socle.cmreg"), "ext", "k", "F")
    assert code == 0
    entries = json.loads(out)["result"]["ext"]
    assert len(entries) == 1
    assert entries[0]["i"] == 3
    assert entries[0]["values"] == [{"degree": -3, "dim": 1}]


def test_truncated_betti_top_level_is_minimal():
    code, out = run("--session", path("hypersurface-pair.cmreg"),
                    "betti", "M", "--max-len", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["table"]["entries"] == [[0, 0, 1], [1, 1, 1]]
    assert result["regularity"] == 0
    code, out = run("--session", path("two-quadrics.cmreg"),
                    "betti", "k", "--max-len", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["table"]["entries"] == [[0, 0, 1], [1, 1, 2], [2, 2, 3],
                                          [3, 3, 4]]
    assert result["table"]["complete"] is False
    code, out = run("--session", path("two-quadrics.cmreg"),
                    "reg", "k", "--max-len", "3")
    assert code == 0
    assert json.loads(out)["result"]["relative"]["value"] == 0


def session_modules(name):
    s = parse_session(load(name))
    return [(b, s.get(b)) for b in s.order if s.kind_of(b) == "module"]


def test_the_oracle_sees_a_dropped_top_level(monkeypatch):
    # the oracle command skipped every spot past the resolution's own pd,
    # so a table that lost its top level still agreed on every module
    real = cli.betti_table

    def dropped(M, max_len=None):
        bt = real(M, max_len)
        top = max(i for (i, _) in bt.entries)
        return BettiTable({k: v for k, v in bt.entries.items()
                           if k[0] != top}, bt.complete)

    monkeypatch.setattr(cli, "betti_table", dropped)
    seen = []
    for name in sorted(os.listdir(SESSIONS)):
        for binding, _ in session_modules(name):
            code, out = run("--session", path(name), "oracle", binding)
            assert code == 0
            seen.append((name, binding,
                         json.loads(out)["result"]["agrees"]))
    assert len(seen) == 8
    assert [s for s in seen if s[2] is not False] == []


@pytest.mark.parametrize("name", sorted(os.listdir(SESSIONS)))
def test_a_truncated_table_is_a_longer_tables_prefix(name):
    # the top level of a truncation is cut down against all of the next
    # level's columns, so its Betti numbers are final: cut at max_len, a
    # module's table is the table cut one level later, up to level max_len
    for max_len in (1, 2, 3, 4):
        for (b, M), (_, again) in zip(session_modules(name),
                                      session_modules(name)):
            cut = betti_table(M, max_len=max_len)
            longer = betti_table(again, max_len=max_len + 1)
            assert cut.entries == {(i, j): v for (i, j), v
                                   in longer.entries.items()
                                   if i <= max_len}, (b, max_len)
            if cut.complete:
                assert longer.complete and longer.entries == cut.entries


def test_reg_on_a_complex_runs_the_betti_route_once(monkeypatch):
    reg_mod = importlib.import_module("cmreg.regularity")
    real = reg_mod.reg_via_betti
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reg_mod, "reg_via_betti", counting)
    code, out = run("--session", path("determinantal.cmreg"), "reg", "K")
    assert code == 0
    assert json.loads(out)["result"] == {
        "routes": {"koszul": 1, "betti": 1}, "agree": True, "value": 1}
    assert len(calls) == 1
    # a disagreeing betti route still exits 2
    monkeypatch.setattr(reg_mod, "reg_via_betti", lambda obj: (5, None))
    code, _ = run("--session", path("determinantal.cmreg"), "reg", "K")
    assert code == 2


def test_reg_and_depth_on_a_module_exit_two_when_routes_disagree(
        monkeypatch):
    # a faulted duality route exited 0 with "agree": false
    reg_mod = importlib.import_module("cmreg.regularity")
    det = path("determinantal.cmreg")
    assert run("--session", det, "reg", "M")[0] == 0
    assert run("--session", det, "depth", "M")[0] == 0
    monkeypatch.setattr(reg_mod, "reg_via_duality", lambda M: (5, None))
    assert run("--session", det, "reg", "M") == (2, "")
    monkeypatch.setattr(reg_mod, "grade_of_sequence", lambda forms, M: 7)
    assert run("--session", det, "depth", "M") == (2, "")


@pytest.mark.parametrize("name", sorted(os.listdir(SESSIONS)))
def test_tor_and_ext_read_hilbert_series_only(name, monkeypatch):
    # each entry equals the profile of the presented homology module, and
    # the output is the same with homology_at switched off
    cx = importlib.import_module("cmreg.complexes")
    mods = session_modules(name)
    pairs = [(a, b) for a, A in mods for b, B in mods if A.ring == B.ring]
    assert pairs
    calls = [(cmd, a, b, extra) for a, b in pairs for cmd in ("tor", "ext")
             for extra in ([], ["--max-degree", "4"])]
    outs = {}
    for cmd, a, b, extra in calls:
        code, out = run("--session", path(name), *extra, cmd, a, b)
        assert code == 0
        outs[(cmd, a, b, tuple(extra))] = out
    for a, b in pairs:
        A, B = dict(mods)[a], dict(mods)[b]
        res = free_resolution(A)
        for cmd, C, sign in (("tor", cx.tor_complex(A, B), 1),
                             ("ext", cx.ext_complex(A, B), -1)):
            entries = []
            # the top spot of a truncated resolution is not Tor or Ext
            top = (max(sign * s for s in C.levels()) + 1 if res.complete
                   else res.length)
            for i in range(top):
                H = C.homology(sign * i)
                if not H.is_zero():
                    entries.append({"i": i, **cli._module_profile(
                        H.hilbert_series())})
            got = json.loads(outs[(cmd, a, b, ())])["result"][cmd]
            assert got == cli.jsonable(entries)

    def refuse(*args, **kwargs):
        raise AssertionError("homology module presented")

    monkeypatch.setattr(importlib.import_module("cmreg.modules"),
                        "homology_at", refuse)
    monkeypatch.setattr(cx, "homology_at", refuse)
    for cmd, a, b, extra in calls:
        code, out = run("--session", path(name), *extra, cmd, a, b)
        assert code == 0
        assert out == outs[(cmd, a, b, tuple(extra))]
