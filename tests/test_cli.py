import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

import cmreg.cli as cli
from cmreg.oracle import DenseOracle
from cmreg.theorems import nilpotent_scroll_family

SESSION = """
ring S = GF(32003)[x, y, z, t];
ideal I = x^2, x*z, x*t - y*z;
ring R = S / I;
module M = cyclic(R);
sequence zz = z;
complex K = koszul(zz, M);
"""


@pytest.fixture()
def session_file(tmp_path):
    p = tmp_path / "det.cmreg"
    p.write_text(SESSION)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reg_json_payload(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "reg", "M")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "cmreg/1"
    assert payload["command"] == "reg"
    assert payload["result"]["value"] == 1
    assert payload["result"]["routes"] == {
        "betti": 1, "ext": 1, "koszul": 1, "duality": 1}


def test_flags_accepted_before_and_after_subcommand(session_file, capsys):
    a = run(capsys, "--session", session_file, "dim", "M")
    b = run(capsys, "dim", "M", "--session", session_file)
    assert a == b == (0, a[1], "")


def test_json_is_byte_deterministic(session_file, capsys):
    _, a, _ = run(capsys, "--session", session_file, "check", "filter",
                  "--module", "M", "--form", "z", "--seed", "4")
    _, b, _ = run(capsys, "--session", session_file, "check", "filter",
                  "--module", "M", "--form", "z", "--seed", "4")
    assert a == b


def test_text_format(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "depth", "M",
                       "--format", "text")
    assert code == 0
    assert "depth: 2" in out


def test_infinities_are_tagged_in_json(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "hilbert", "M",
                       "--max-degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["top_degree"] == {
        "value": None, "kind": "plus_infinity"}


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cmreg"
    bad.write_text("ring A = GF(7)[x y];")
    code, _, err = run(capsys, "--session", str(bad), "reg", "A")
    assert code == 1
    assert "line 1" in err


def test_deep_nesting_exits_one(tmp_path, capsys):
    deep = tmp_path / "deep.cmreg"
    deep.write_text("ring S = GF(32003)[x, y];\nideal I = "
                    + "(" * 3000 + "x" + ")" * 3000 + ";\n"
                    "module M = cyclic(S, I);\n")
    code, out, err = run(capsys, "--session", str(deep), "reg", "M")
    assert code == 1
    assert out == ""
    assert "line 2, column" in err and "nested" in err


@pytest.mark.parametrize("ideal, message, col", [
    # '²' and '٣' pass str.isdigit: the first escaped as a bare int()
    # error with exit 2, the second was read as x^3
    ("x^\u00b2", "unexpected character '\u00b2'", 13),
    ("x^\u0663", "unexpected character '\u0663'", 13),
    # exit 2 with no position, from poly.mono_mul
    ("x^70000", "monomial exponent exceeds 65535", 12),
    ("x^40000*x^40000", "monomial exponent exceeds 65535", 18),
    # exit 2 with no position, from Python's int string conversion limit
    pytest.param("x^" + "1" * 5000, "integer literal of 5000 digits is "
                 f"too long (at most {sys.get_int_max_str_digits()})", 13,
                 id="5000-digit-exponent"),
])
def test_bad_literals_exit_one_at_their_token(tmp_path, capsys, ideal,
                                              message, col):
    bad = tmp_path / "bad.cmreg"
    bad.write_text("ring S = GF(32003)[x, y];\nideal I = " + ideal + ";\n"
                   "module M = cyclic(S, I);\n", encoding="utf-8")
    code, out, err = run(capsys, "--session", str(bad), "dim", "M")
    assert (code, out) == (1, "")
    assert err == f"cmreg: line 2, column {col}: {message}\n"


def test_chain_composing_past_the_cap_exits_one(tmp_path, capsys):
    # verifying the complex multiplies x^40000 by x^40000: exit 2 with no
    # position, from poly.mono_mul
    bad = tmp_path / "chain.cmreg"
    bad.write_text("ring S = GF(32003)[x, y];\n"
                   "complex C = chain(S, [0], [[x^40000]], [40000], "
                   "[[x^40000]], [80000]);\nmodule M = cyclic(S);\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "--session", str(bad), "dim", "M")
    assert (code, out) == (1, "")
    assert err == "cmreg: line 2, column 13: monomial exponent exceeds 65535\n"


@pytest.mark.parametrize("form, col", [("x^70000", 2), ("x^40000*x^40000", 8),
                                       ("x^99999999999999999999999", 2)])
def test_filter_form_past_the_exponent_cap_exits_one(session_file, capsys,
                                                     form, col):
    code, out, err = run(capsys, "--session", session_file, "check",
                         "filter", "--module", "M", "--form", form)
    assert (code, out) == (1, "")
    assert err == (f"cmreg: line 1, column {col}: monomial exponent "
                   "exceeds 65535\n")


def test_filter_form_of_degree_zero_exits_two(session_file, capsys):
    # it exited 3, "contradiction: filter on M: lhs=1 rhs=-inf", which
    # reports a broken engine; a unit form is a bad input
    code, out, err = run(capsys, "--session", session_file, "check",
                         "filter", "--module", "M", "--form", "z^0")
    assert (code, out) == (2, "")
    assert err == ("cmreg: the filter formula needs a form of positive "
                   "degree\n")


def test_unknown_binding_exits_one(session_file, capsys):
    code, _, err = run(capsys, "--session", session_file, "reg", "ghost")
    assert code == 1
    assert "ghost" in err


def test_missing_session_file_exits_one(capsys):
    code, _, err = run(capsys, "--session", "/nonexistent/f.cmreg", "reg", "M")
    assert code == 1


def test_computation_error_exits_two(session_file, capsys):
    # the single form z has a two-dimensional obstruction on this module
    code, _, err = run(capsys, "--session", session_file, "koszul", "zz", "M")
    assert code == 2
    assert "H_1" in err


def test_a_route_disagreement_exits_two(session_file, capsys, monkeypatch):
    # a fault put on one route reaches cmreg reg through the route table,
    # on a module and on a complex, and stderr names each route's value
    routes = importlib.import_module("cmreg.regularity")
    monkeypatch.setattr(routes, "reg_via_betti", lambda obj: (99, None))
    for name, what in (("M", "a module: betti gives 99, ext gives 1, "
                              "koszul gives 1, duality gives 1"),
                       ("K", "a complex: koszul gives 1, betti gives 99")):
        assert run(capsys, "--session", session_file, "reg", name) == (
            2, "", f"cmreg: internal disagreement on {what}\n")


def test_reg_of_a_complex_refuses_max_len(session_file, capsys):
    # no value of the complex report reads a truncation, so the flag is
    # refused as a usage problem rather than silently ignored; a module's
    # report still takes it
    for flag in ("1", "2"):
        code, out, err = run(capsys, "--session", session_file, "reg", "K",
                             "--max-len", flag)
        assert (code, out) == (1, "")
        assert err.startswith("cmreg: reg on a complex takes no --max-len")
    assert run(capsys, "--session", session_file, "reg", "K")[0] == 0
    code, out, _ = run(capsys, "--session", session_file, "reg", "M",
                       "--max-len", "2")
    assert code == 0 and json.loads(out)["result"]["value"] == 1


@pytest.mark.parametrize("argv", [
    ["hilbert", "M"], ["dim", "M"], ["depth", "M"], ["oracle", "M"],
    ["koszul", "zz", "M"], ["check", "filter", "--module", "M", "--form", "z"],
    ["family", "nilpotent-scroll", "--n", "2"]],
    ids=lambda argv: argv[0])
def test_max_len_is_refused_where_no_value_reads_a_truncation(
        session_file, capsys, argv):
    # only reg, betti, tor and ext report values read off a truncated
    # resolution; every other command refused nothing and printed a value
    # of the full resolution, or none at all
    for flags in (argv + ["--max-len", "1"], ["--max-len", "2"] + argv):
        code, out, err = run(capsys, "--session", session_file, *flags)
        assert (code, out) == (1, ""), flags
        assert err == (f"cmreg: {argv[0]} takes no --max-len: no value it "
                       f"reports reads a truncated resolution\n"), flags
    assert run(capsys, "--session", session_file, "dim", "M")[0] == 0


@pytest.mark.parametrize("decl, value", [
    ("chain(S, [0], [[x, y]], [1, 1])", 0),
    ("chain(S, [])", {"kind": "minus_infinity", "value": None})],
    ids=["free", "empty"])
def test_reg_of_a_free_or_empty_complex(tmp_path, capsys, decl, value):
    # no shipped session holds either: each route of the complex row
    # prints its own value, the same on both
    p = tmp_path / "chain.cmreg"
    p.write_text(f"ring S = GF(32003)[x, y];\ncomplex C = {decl};\n",
                 encoding="utf-8")
    result = {"agree": True, "routes": {"betti": value, "koszul": value},
              "value": value}
    assert run(capsys, "--session", str(p), "reg", "C") == (
        0, json.dumps({"schema": "cmreg/1", "command": "reg",
                       "result": result}, indent=2, sort_keys=True) + "\n",
        "")


def test_contradiction_exits_three(session_file, capsys, monkeypatch):
    from cmreg.theorems import TheoremContradiction, _finish

    def boom(session, args):
        _finish("demo", "forced", {"verdict": "holds", "witnesses": []},
                0, 1, {})

    monkeypatch.setitem(cli._HANDLERS, "dim", boom)
    code, _, err = run(capsys, "--session", session_file, "dim", "M")
    assert code == 3
    assert "contradiction" in err


def test_usage_error_exits_one(capsys):
    code = cli.main(["check"])
    capsys.readouterr()
    assert code == 1


def test_check_needs_its_flags(session_file, capsys):
    code, _, err = run(capsys, "--session", session_file, "check", "filter")
    assert code == 1
    assert "--module" in err or "needs" in err


def test_session_from_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring A = GF(7)[x];"))
    code, out, _ = run(capsys, "--session", "-", "dim", "A")
    assert code == 1  # A is a ring binding, not a module


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_family_below_two_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, "family", "nilpotent-scroll", "--n", n)
    assert code == 1 and out == ""
    assert "starts at n = 2" in err
    with pytest.raises(ValueError):
        nilpotent_scroll_family(int(n))


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "nilpotent-scroll", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["reg_ideal"] == 2
    assert payload["result"]["reg_ideal_plus_form"] == 3


def test_oracle_command(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "oracle", "M")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["agrees"] is True


def test_oracle_command_exact_for_large_prime(session_file, capsys):
    # GF(4294967311): products of residues overflow int64
    code, out, _ = run(capsys, "--session", session_file,
                       "--field", "4294967311", "oracle", "M")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agrees"] is True
    assert all(r["resolution"] == r["oracle"] for r in result["betti"])


NEGATIVE_GENERATOR = ("ring S = GF(32003)[x, y];\n"
                      "module M = coker(S, [-2, 0], [[x^2, y^3], [0, x]]);\n")


def test_oracle_window_reaches_the_lowest_generator(tmp_path, capsys):
    # beta_{0,-2} = 1: a window starting at degree 0 never compares it
    p = tmp_path / "neg.cmreg"
    p.write_text(NEGATIVE_GENERATOR)
    code, out, _ = run(capsys, "--session", str(p), "oracle", "M")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agrees"] is True
    assert {"i": 0, "j": -2, "resolution": 1, "oracle": 1} in result["betti"]
    assert [r["degree"] for r in result["hilbert"]] == list(range(-2, 7))
    assert result["hilbert"][:2] == [
        {"degree": -2, "series": 1, "oracle": 1},
        {"degree": -1, "series": 2, "oracle": 2}]


def test_oracle_window_ends_above_a_high_generator(tmp_path, capsys):
    # a window ending at degree 6 compared nothing and still agreed
    p = tmp_path / "high.cmreg"
    p.write_text("ring S = GF(32003)[x, y, z];\n"
                 "module M = coker(S, [8], [[x^2]]);\n")
    code, out, _ = run(capsys, "--session", str(p), "oracle", "M")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agrees"] is True and result["max_degree"] == 6
    assert result["betti"] == [
        {"i": 0, "j": 8, "resolution": 1, "oracle": 1},
        {"i": 1, "j": 10, "resolution": 1, "oracle": 1}]
    assert [r["degree"] for r in result["hilbert"]] == list(range(0, 15))
    assert result["hilbert"][8] == {"degree": 8, "series": 1, "oracle": 1}
    assert result["hilbert"][14] == {"degree": 14, "series": 13, "oracle": 13}


LOW_GENERATOR = ("ring S = GF(32003)[x, y, z];\n"
                 "module M = coker(S, [-2], [[x^2, y*z]]);\n")


@pytest.mark.parametrize("text,cap,rows", [
    (LOW_GENERATOR, -3, None), (LOW_GENERATOR, -2, (1, 1)),
    (LOW_GENERATOR, -1, (1, 2)), (SESSION, -1, None), (SESSION, 0, (1, 1))],
    ids=["low-3", "low-2", "low-1", "det-1", "det0"])
def test_oracle_refuses_an_empty_window(tmp_path, capsys, text, cap, rows):
    # the window runs from min(0, lowest generator) up to the cap; below
    # that start it once compared nothing and still reported agreement
    p = tmp_path / "s.cmreg"
    p.write_text(text)
    code, out, err = run(capsys, "--session", str(p),
                         "--max-degree", str(cap), "oracle", "M")
    if rows is None:
        assert (code, out) == (1, "")
        assert f"--max-degree {cap}" in err and "empty" in err
        return
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["agrees"] is True
    assert (len(result["betti"]), len(result["hilbert"])) == rows


LOW_PAIR = ("ring S = GF(32003)[x, y, z];\n"
            "module M = coker(S, [-2], [[x^2, y*z]]);\n"
            "module k = coker(S, [0], [[x, y, z]]);\n")


@pytest.mark.parametrize("argv,cap,lengths", [
    (["hilbert", "M"], -3, None), (["hilbert", "M"], -2, [1]),
    (["hilbert", "k"], -1, None), (["hilbert", "k"], 0, [1]),
    (["tor", "M", "k"], -3, None), (["tor", "M", "k"], -2, [1, 0, 0]),
    (["ext", "k", "M"], -6, None), (["ext", "k", "M"], -5, [0, 0, 1])],
    ids=["hilbert-M-3", "hilbert-M-2", "hilbert-k-1", "hilbert-k0",
         "tor-3", "tor-2", "ext-6", "ext-5"])
def test_hilbert_tor_ext_refuse_an_empty_window(tmp_path, capsys, argv, cap,
                                                lengths):
    # a cap below the first degree listed once printed empty value lists
    # and exited 0; one degree higher lists exactly one value
    p = tmp_path / "low.cmreg"
    p.write_text(LOW_PAIR)
    code, out, err = run(capsys, "--session", str(p),
                         "--max-degree", str(cap), *argv)
    if lengths is None:
        assert (code, out) == (1, "")
        assert f"--max-degree {cap}" in err and "empty" in err
        return
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    if argv[0] == "hilbert":
        assert [len(result["values"])] == lengths
    else:
        assert [len(e["values"]) for e in result[argv[0]]] == lengths


@pytest.mark.parametrize("cap, degrees", [(None, []), (2, [0, 1, 2])])
def test_hilbert_of_a_zero_module_lists_no_values(tmp_path, capsys, cap,
                                                  degrees):
    # its top degree is -inf, which once became the end of the window
    # and raised TypeError; with a cap it lists zeros up to the cap
    p = tmp_path / "zero.cmreg"
    p.write_text("ring S = GF(32003)[x, y];\n"
                 "module Z = coker(S, [0], [[1]]);\n")
    flags = [] if cap is None else ["--max-degree", str(cap)]
    code, out, err = run(capsys, "--session", str(p), *flags, "hilbert", "Z")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["top_degree"] == {"value": None, "kind": "minus_infinity"}
    assert result["values"] == [{"degree": j, "dim": 0} for j in degrees]


def _shifted_session(tmp_path, k):
    p = tmp_path / f"shift{k}.cmreg"
    p.write_text("ring S = GF(32003)[x, y, z, w];\n"
                 f"module M = coker(S, [-{k}], [[x^2, y*z]]);\n")
    return str(p)


@pytest.mark.parametrize("k", [4, 5, 16, 64])
def test_oracle_cap_counts_from_the_lowest_generator(tmp_path, capsys,
                                                     monkeypatch, k):
    # The oracle is built with a cap of 6 + 4 degrees; it once capped the
    # absolute degree, so a generator in degree -k made it build pieces
    # 6 + k degrees above the generator, without bound.  Now up to k = 4
    # the full window fits, and past it the command fails loudly before
    # building any piece more than 10 degrees above the generator.
    pieces = []
    real = DenseOracle.ambient_basis

    def recorded(self, j):
        pieces.append(j - self.lowest)
        return real(self, j)

    monkeypatch.setattr(DenseOracle, "ambient_basis", recorded)
    code, out, err = run(capsys, "--session", _shifted_session(tmp_path, k),
                         "oracle", "M")
    assert max(pieces) <= 10
    if k <= 4:
        assert code == 0
        result = json.loads(out)["result"]
        assert result["agrees"] is True
        assert [r["degree"] for r in result["hilbert"]] == list(range(-k, 7))
    else:
        assert code == 2
        assert "beyond oracle cap 10 above the lowest generator" in err


HUGE_EXPONENTS = ("ring S = GF(32003)[x, y, z];\n"
                  "ideal I = x^5000*y, x^5000*z;\n"
                  "module M = cyclic(S, I);\n")


@pytest.mark.parametrize("cmd", ["hilbert", "reg", "dim", "depth"])
def test_huge_exponents_exit_zero(tmp_path, capsys, cmd):
    # the Hilbert numerator recursion once went one level per exponent
    p = tmp_path / "huge.cmreg"
    p.write_text(HUGE_EXPONENTS)
    code, out, err = run(capsys, "--session", str(p), cmd, "M")
    assert (code, err) == (0, "")
    if cmd == "reg":
        result = json.loads(out)["result"]
        assert result["value"] == 5000
        assert set(result["routes"].values()) == {5000}


def test_large_moduli_through_cli(tmp_path, capsys):
    p = tmp_path / "s.cmreg"
    p.write_text("ring A = GF(2305843009213693951)[x, y];\n"
                 "module M = cyclic(A);\n")
    code, out, _ = run(capsys, "--session", str(p), "reg", "M")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0
    code, _, err = run(capsys, "--session", str(p),
                       "--field", str(2**89 - 1), "reg", "M")
    assert code == 1
    assert "too large" in err


def test_field_override_flag(tmp_path, capsys):
    p = tmp_path / "s.cmreg"
    p.write_text("ring A = GF(32003)[x, y];\nmodule M = cyclic(A);\n")
    code, out, _ = run(capsys, "--session", str(p), "--field", "101",
                       "reg", "M")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0


def run_child(*args):
    # the child imports the same cmreg as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point(session_file):
    proc = run_child("-m", "cmreg.cli", "--session", session_file, "reg", "M")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 1


def test_reg_leaves_numpy_unloaded(session_file):
    # nothing in cmreg needs numpy, not even the dense oracle, so neither a
    # cold reg call nor a cold oracle call loads it
    for command in ("reg", "oracle"):
        proc = run_child("-c", (
            "import sys, cmreg.cli\n"
            f"code = cmreg.cli.main(['--session', {session_file!r}, "
            f"{command!r}, 'M'])\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"))
        assert proc.returncode == 0
        assert proc.stderr.split() == ["0", "False"]
        result = json.loads(proc.stdout)["result"]
        if command == "reg":
            assert result["value"] == 1
        else:
            assert result["agrees"] is True


def test_oracle_agrees_over_a_wide_window(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "sessions",
                        "determinantal.cmreg")
    code, out, _ = run(capsys, "--session", path, "oracle",
                       "--max-degree", "14", "M")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agrees"] is True
    rows = result["hilbert"]
    assert [r["degree"] for r in rows] == list(range(15))
    assert all(r["series"] == r["oracle"] for r in rows)
    assert rows[14]["oracle"] > 0


def test_check_ring_indep_via_cli(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "check",
                       "ring-indep", "--module", "M")
    assert code == 0
    assert json.loads(out)["result"]["conclusion"]["verdict"] == "equality"


@pytest.mark.parametrize("power", [40, 44])
def test_check_ring_indep_reads_both_tables_to_their_last_rows(
        monkeypatch, capsys, power):
    # the tables' windows grew by doubling up to caps of 40 and 48: x^40
    # needs degree 37, which the doubled ends passed ("need degree 37"),
    # and x^44 needs 41, past the cap ("local cohomology window cap
    # exceeded (need degree 41)") though `reg` reads 43 on all four
    # routes.  Both exited 2; the windows now end at the last row
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        f"ring S = GF(32003)[x, y, z]; ideal I = x^{power}; "
        "module M = cyclic(S, I);"))
    code, out, err = run(capsys, "--session", "-", "check", "ring-indep",
                         "--module", "M")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["conclusion"] == {"lhs": power - 1, "rhs": power - 1,
                                    "verdict": "equality"}
    assert result["invariants"]["tables_match"] is True


@pytest.mark.parametrize("extra", ["0", "-1"])
def test_check_ring_indep_refuses_no_extra_variable(session_file, capsys,
                                                    extra):
    code, out, err = run(capsys, "--session", session_file, "check",
                         "ring-indep", "--module", "M", "--extra", extra)
    assert (code, out) == (1, "")
    assert "--extra" in err


def test_tor_requires_same_ring(tmp_path, capsys):
    p = tmp_path / "two.cmreg"
    p.write_text("""
ring A = GF(32003)[x];
module M = cyclic(A);
ring B = GF(32003)[y];
module N = cyclic(B);
""")
    code, _, err = run(capsys, "--session", str(p), "tor", "M", "N")
    assert code == 1
    assert "different rings" in err


MIXED = """
ring A = GF(32003)[x, y];
module M = cyclic(A);
ring B = GF(7)[x, y];
module N = cyclic(B);
ring C = GF(32003)[x, y, z];
ideal J = x*z;
module P = cyclic(C, J);
"""


@pytest.mark.parametrize("argv", [
    ("check", "ab", "--module", "M", "--with", "N"),
    ("check", "hom", "--module", "M", "--with", "N"),
    ("check", "tensor", "--modules", "M,N"),
    ("check", "ab", "--module", "P", "--with", "M"),
    ("check", "hom", "--module", "M", "--with", "P"),
    ("check", "tensor", "--modules", "M,P"),
    ("check", "tensor", "--modules", "M,M,N"),
])
def test_checks_refuse_modules_over_different_rings(tmp_path, capsys, argv):
    # over GF(32003) and GF(7) ab, hom and tensor reported equality; with
    # two and three variables hom and tensor died with a traceback
    p = tmp_path / "mixed.cmreg"
    p.write_text(MIXED)
    code, out, err = run(capsys, "--session", str(p), *argv)
    assert (code, out) == (1, "")
    assert "different rings" in err


ONE_IDEAL = """
ring S = GF(32003)[x, y];
ideal I = x^2, y^2;
ideal J = y^2, x^2;
ideal K = x^2, y^2, x^2*y;
ring R = S / I;
ring RJ = S / J;
ring RK = S / K;
ideal m = x, y;
module F = cyclic(R);
module k = cyclic(R, m);
module kJ = cyclic(RJ, m);
module kK = cyclic(RK, m);
"""


@pytest.mark.parametrize("other", ["kJ", "kK"])
@pytest.mark.parametrize("argv", [
    ("tor", "k", "{}"),
    ("check", "hom", "--module", "F", "--with", "{}")])
def test_one_ideal_under_other_generators_is_one_ring(tmp_path, capsys,
                                                      argv, other):
    # over S/(y², x²) and S/(x², y², x²y) against S/(x², y²), tor and
    # check hom exited 1 with "the modules live over different rings"
    p = tmp_path / "one-ideal.cmreg"
    p.write_text(ONE_IDEAL)
    want = run(capsys, "--session", str(p), *[a.format("k") for a in argv])
    got = run(capsys, "--session", str(p), *[a.format(other) for a in argv])
    assert want[0] == 0
    assert (got[0], got[1].replace(other, "k")) == want[:2]


@pytest.mark.parametrize("ring, form, message", [
    ("GF(7)[x, y]", "x", "GF(7) cannot be read over GF(32003)"),
    ("GF(32003)[u, v]", "u", "different variables")])
def test_koszul_refuses_a_sequence_from_another_ring(tmp_path, capsys,
                                                     ring, form, message):
    p = tmp_path / "seq.cmreg"
    p.write_text(f"ring Q = {ring};\nsequence s = {form};\n" + MIXED)
    code, out, err = run(capsys, "--session", str(p), "koszul", "s", "M")
    assert (code, out) == (1, "")
    assert message in err


def test_koszul_reports_an_infinite_h0_and_exits_two(tmp_path, capsys):
    # behaviour pin: z is regular on F = S/(x) + S(-1), so H_0 is the only
    # homology of positive dimension, and it is reported
    p = tmp_path / "h0.cmreg"
    p.write_text("ring S = GF(32003)[x, y, z];\nsequence s = z;\n"
                 "module F = coker(S, [0, 1], [[x], [0]]);\n")
    code, out, err = run(capsys, "--session", str(p), "koszul", "s", "F")
    assert (code, out) == (2, "")
    assert "H_0 of the Koszul complex has dimension 2" in err


def test_check_tensor_needs_two_modules(session_file, capsys):
    code, out, err = run(capsys, "--session", session_file, "check",
                         "tensor", "--modules", "M")
    assert (code, out) == (1, "")
    assert "at least two" in err


# -- one parser per process ---------------------------------------------------

QUADRICS = ("ring S = GF(32003)[x, y];\n"
            "ideal I = x^2, y^2;\n"
            "ring R = S / I;\n"
            "ideal m = x, y;\n"
            "module k = cyclic(R, m);\n")

# each flag changes the output of its command, before or after it
FLAGGED = [
    ("--format", "text", "depth", "k"),
    ("depth", "k", "--format", "text"),
    ("--max-len", "2", "betti", "k"),
    ("betti", "k", "--max-len", "2"),
    ("--field", "101", "reg", "k"),
    ("reg", "k", "--field", "101"),
    ("--seed", "7", "check", "filter", "--module", "k", "--form", "x+y"),
    ("check", "filter", "--module", "k", "--form", "x+y", "--seed", "7"),
    ("--max-degree", "2", "hilbert", "k"),
    ("hilbert", "k", "--max-degree", "2"),
]
PLAIN = [("depth", "k"), ("betti", "k"), ("reg", "k"),
         ("check", "filter", "--module", "k", "--form", "x+y"),
         ("hilbert", "k")]
REFUSED = [("--max-len", "0", "reg", "k"), ("nosuch", "k"),
           ("family", "nilpotent-scroll")]


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    p = tmp_path / "quadrics.cmreg"
    p.write_text(QUADRICS)
    calls = [("--session", str(p)) + c for c in FLAGGED + PLAIN + REFUSED]
    forward = {c: run(capsys, *c) for c in calls}
    backward = {c: run(capsys, *c) for c in reversed(calls)}
    assert forward == backward
    ok = len(FLAGGED) + len(PLAIN)
    assert [forward[c][:2] for c in calls[ok:]] == [(1, "")] * len(REFUSED)
    flagged = [forward[c] for c in calls[:len(FLAGGED)]]
    plain = [forward[c] for c in calls[len(FLAGGED):ok]]
    assert all(code == 0 for code, _, _ in flagged + plain)
    # a flag reads the same before and after the subcommand, and it
    # changes the output, so a flag kept from an earlier call would show
    assert flagged[0::2] == flagged[1::2]
    assert len({out for _, out, _ in flagged[0::2] + plain}) == (
        len(FLAGGED) // 2 + len(PLAIN))
    for c in (calls[0], calls[len(FLAGGED)]):
        proc = run_child("-m", "cmreg.cli", *c)
        assert (proc.returncode, proc.stdout) == forward[c][:2]


def test_a_second_call_builds_no_parser(session_file, capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "--session", session_file, "dim", "M")[0] == 0
    built.clear()
    assert run(capsys, "--session", session_file, "dim", "M")[0] == 0
    assert built == []
    argparse.ArgumentParser(prog="probe")  # the counter does see one
    assert built == ["probe"]


@pytest.mark.parametrize("turn", [1, 2])
def test_argparse_errors_reach_the_current_stderr(capsys, turn):
    # each turn has its own capsys: a parser holding on to the first
    # turn's stream would leave the second one's stderr empty
    code, out, err = run(capsys, "--max-len", "0", "dim", "M")
    assert (code, out) == (1, "")
    assert err.startswith("usage: cmreg")
    assert "--max-len" in err
