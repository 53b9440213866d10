"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They cover the tracer's patching (every copy of a target rebound, every
binding restored), determinism of the traced counts across two fresh
processes, equality of traced and untraced outputs, and the refusal to
run without the cmreg sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cmreg  # noqa: E402,F401
import cmreg.cli  # noqa: E402,F401
import tracer as tracing  # noqa: E402


def _bindings():
    """Every (module, name) -> object binding in the cmreg modules, plus
    the class attributes the tracer targets."""
    out = {}
    for mod in tracing._cmreg_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for t in tracing.TARGETS:
        owner = tracing._resolve(t.owner)
        if isinstance(owner, type):
            out[(t.owner, t.attr)] = owner.__dict__[t.attr]
    return out


def test_owner_resolves_the_submodule_not_the_exported_function():
    assert callable(cmreg.regularity)
    mod = tracing._resolve("cmreg.regularity")
    assert mod is sys.modules["cmreg.regularity"]
    assert hasattr(mod, "reg_via_koszul")


def test_install_wraps_every_copy_and_uninstall_restores_all():
    before = _bindings()
    originals = {id(v) for v in before.values()}
    copies = {}
    for (mod, name), value in before.items():
        copies.setdefault(id(value), []).append(mod)
    tr = tracing.Tracer().install()
    try:
        wrapped = {id(f): key for key, f in tr.originals.items()}
        assert len(wrapped) == len(tracing.TARGETS)
        for (mod, name), value in _bindings().items():
            assert id(value) not in wrapped, f"{mod}.{name} left unwrapped"
        # the from-import copies are many; each one was rebound
        fr = tr.originals["cmreg.resolution.free_resolution"]
        kc = tr.originals["cmreg.complexes.koszul_complex"]
        assert len(copies[id(fr)]) >= 5 and len(copies[id(kc)]) >= 5
        rebound = [(ns, n) for ns, n, f in tr._bindings if f is fr]
        assert len(rebound) == len(copies[id(fr)])
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, f"{key} not restored"
    assert originals == {id(v) for v in after.values()}


def test_recursive_numerator_is_counted_once():
    hilbert = sys.modules["cmreg.hilbert"]
    gens = ((3, 1, 0, 2, 0), (0, 2, 2, 0, 1), (1, 0, 3, 1, 1),
            (2, 2, 0, 0, 3))
    hilbert._NUMERATOR_CACHE.pop(hilbert._minimalize(gens), None)
    with tracing.Tracer() as tr:
        got = hilbert.monomial_ideal_numerator(gens, 5)
    key = "cmreg.hilbert.monomial_ideal_numerator"
    assert [s[0].key for s in tr.spans] == [key]
    assert got == hilbert.monomial_ideal_numerator(gens, 5)


def test_self_time_excludes_children():
    outer = tracing.Target("cli", "m", "f")
    inner = tracing.Target("groebner", "m", "g")
    spans = [[outer, 0.0, 10.0, -1, 0, None], [inner, 1.0, 4.0, 0, 0, None]]
    got = tracing.layer_metrics(spans, 0)
    assert got["cli.self_s"] == 7.0
    assert got["groebner.self_s"] == 3.0


def _worker(*flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         "scroll", "--seed", "3", "--corpus-seed", "101", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_outputs_match_untraced():
    a, b = _worker("--trace"), _worker("--trace")
    plain = _worker()
    for name in tracing.COUNT_METRICS:
        assert a["layers"][name] == b["layers"][name], name
    assert a["layers"]["groebner.calls"] > 0
    assert a["layers"]["resolution.calls"] > 0
    for run in (a, b, plain):
        assert all(row["ok"] for row in run["ops"])
    digests = [[(r["name"], r["digest"]) for r in run["ops"]]
               for run in (a, b, plain)]
    assert digests[0] == digests[1] == digests[2]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scroll",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
