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
    # numpy serves only the dense oracle, so a cold reg call skips its import
    proc = run_child("-c", (
        "import sys, cmreg.cli\n"
        f"code = cmreg.cli.main(['--session', {session_file!r}, 'reg', 'M'])\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"))
    assert proc.returncode == 0
    assert proc.stderr.split() == ["0", "False"]
    assert json.loads(proc.stdout)["result"]["value"] == 1


def test_check_ring_indep_via_cli(session_file, capsys):
    code, out, _ = run(capsys, "--session", session_file, "check",
                       "ring-indep", "--module", "M")
    assert code == 0
    assert json.loads(out)["result"]["conclusion"]["verdict"] == "equality"


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
