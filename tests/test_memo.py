"""The one cache rule (cmreg.memo): a per-object result is computed once
per object and key, and a compute that raises stores nothing.  Also the
source lints over src/cmreg: only memo writes object caches, the one
resolution loop, `resolution._resolve`, is the only caller of the syzygy
step and is started and resumed only in `free_resolution`, a
`FreeResolution` is built by its three builders alone and cut by one
method, the loop alone reads a linear cut,
off its own basis, which the cut module holds, so it runs no Buchberger
over the smaller ring, a known Groebner basis reaches a module only
through its constructor, from four builders, resolutions minimize in
three places, Groebner bases interreduce in two places, a frame is
decoded only by its basis, only the packing classes read the packed-term
layout and the pair formula is written once, in them, an exponent word
is read off the packing only where an element is built (never in
`_buchberger` or `_schreyer_pairs`), `_buchberger` and the syzygy step
take no flag, the reduction kernel is one loop with its field arithmetic
inline and records its trace as one flat dict, no
function computes with field methods and there is one field class,
checker outcomes are built and contradictions raised only by
`theorems._finish`, a checker reads a module's value only through
`theorems._reg` (two other route calls are listed with reasons), the
cache keys are a fixed inventory, a homology series reads only the
cokernel series and nothing outside the complex layer reads one spot by
spot (everything reads `nonzero_homology_series`), only
`local_cohomology_table` reads a degree window and builds a local
cohomology table, the Koszul route builds no probe module and
runs no separate hypothesis pass, Hom is the tensor with the dual
(only the tensor builder assembles a term's basis), the duality rows
are read off a resolution's dual over the cover by `_duality_rows`
alone, the one reader of a spot range, and with the depth are computed
only under their keys on the cover ring (and read there up to twist),
the routes reach the cover through `_cover` only in the betti route,
nothing calls `free_resolution_of_complex`, the complex layer
presents no kernels, the dense oracle imports nothing from the Groebner,
Hilbert or resolution layers, only the oracle's own table reads single
Betti numbers, regularity.py keeps no twist sup and no window cap and
grows no local cohomology window in a loop, nothing imports numpy, and
every function, class and method is read in src, exported by the
package or on an allow-list with its reason.  A guard checks that
perfbench, which Tier-1 does not run, still finds every cmreg name it
reaches.  The lints read the sources, their trees and the calls in
them once per session (`sources`, `parse`, `_calls_by_name`)."""

import ast
import functools
import importlib
import importlib.util
import os
import random
from fnmatch import fnmatch

import pytest

import cmreg.complexes
import cmreg.groebner
import cmreg.memo
import cmreg.modules
import cmreg.resolution
from cmreg import (BoundedComplex, ModuleMap, PresentedModule,
                   free_resolution, koszul_complex, koszul_resolution_of_k,
                   polynomial_ring)
from cmreg.freemod import columns_from_rows
from cmreg.groebner import defining_gb

# the package exports a function named regularity, which shadows the
# submodule as an attribute of cmreg
routes = importlib.import_module("cmreg.regularity")


def _module():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    return PresentedModule.cyclic(S, [x * x, x * y, y * z * z])


def _koszul():
    M = _module()
    x, y, _ = M.ring.gens()
    return koszul_complex([x, y], M)


def _quotient_ring():
    S = polynomial_ring(["x", "y", "z"])
    x, y, z = S.gens()
    return S.quotient([x * y, y * z])


def _quotient_module():
    R = _quotient_ring()
    x, _, z = R.gens()
    return PresentedModule.cyclic(R, [x * z])


def _quotient_koszul():
    M = _quotient_module()
    return koszul_complex([M.ring.gens()[0]], M)


def _twisted(M):
    return M.twist(2)


# (name, fresh object, the cached call, (owner, attribute) of the inner
# call that does the work on a miss[, the object of the second call, made
# from the first])
CASES = [
    ("gb", _module, lambda M: M.gb(), (cmreg.modules, "groebner_basis")),
    ("hilbert_series", _module, lambda M: M.hilbert_series(),
     (cmreg.modules, "hilbert_series")),
    ("free_resolution", _module, free_resolution,
     (cmreg.resolution, "_resolve")),
    ("free_resolution_of_free", lambda: PresentedModule.free(
        polynomial_ring(["x", "y"]), [0, 1]), free_resolution,
     (cmreg.resolution, "_resolve")),
    ("free_resolution_of_a_complex", _koszul, free_resolution,
     (cmreg.resolution, "_resolve")),
    ("module_cover", _quotient_module, lambda M: M.lift_to_cover(),
     (PresentedModule, "_lift")),
    ("complex_cover", _quotient_koszul, lambda C: C.lift_to_cover(),
     (BoundedComplex, "_lift")),
    ("homology", _koszul, lambda K: K.homology(1),
     (cmreg.complexes, "homology_at")),
    ("coker_series", _koszul, lambda K: K._coker_series(1),
     (cmreg.complexes, "groebner_basis")),
    ("koszul_resolution_of_k", lambda: polynomial_ring(["x", "y", "z"]),
     koszul_resolution_of_k, (cmreg.complexes, "koszul_complex")),
    ("defining_gb", _quotient_ring, defining_gb,
     (cmreg.groebner, "_buchberger")),
    # kept on the cover ring up to twist: depth and the rows of local
    # cohomology do not move under a twist
    ("depth_up_to_twist", _module, routes.depth,
     (routes, "free_resolution"), _twisted),
    ("duality_up_to_twist", _module,
     lambda M: sorted(routes.local_cohomology_table(M).row_support),
     (routes, "resolution_to_complex"), _twisted),
]


@pytest.mark.parametrize("fresh, call, inner, again",
                         [(c + (None,))[1:5] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_second_call_returns_the_cached_object(monkeypatch, fresh, call,
                                               inner, again):
    owner, attr = inner
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    obj = fresh()
    first = call(obj)
    computed = len(calls)
    assert computed >= 1
    if again is None:
        assert call(obj) is first
    else:
        assert call(again(obj)) == first
    assert len(calls) == computed


def test_minimized_is_built_afresh_on_every_call(monkeypatch):
    """A minimal presentation is read once where it is built
    (`quotient_by_element`), so it keeps no entry."""
    calls = []
    original = cmreg.modules.minimize_presentation

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cmreg.modules, "minimize_presentation", counting)
    M = _module()
    first, second = M.minimized(), M.minimized()
    assert first is not second and len(calls) == 2
    assert (first.gens_free.twists, first.rel_cols) == (
        second.gens_free.twists, second.rel_cols)
    assert M._cache == {}


def test_a_failing_compute_is_not_stored():
    S = polynomial_ring(["x", "y", "z"])
    x, y, _ = S.gens()
    F = [PresentedModule.free(S, [d]) for d in range(3)]
    C = BoundedComplex(S, dict(enumerate(F)),
                       {1: ModuleMap(F[1], F[0], columns_from_rows([[x]], 1)),
                        2: ModuleMap(F[2], F[1], columns_from_rows([[y]], 1))})
    for _ in range(2):
        with pytest.raises(ValueError):
            C.homology(1)
        with pytest.raises(ValueError):
            C.homology_series(1)
    assert C._cache == {}


def test_defining_gb_of_a_polynomial_ring_is_empty_and_not_cached():
    S = polynomial_ring(["x", "y"])
    assert defining_gb(S) == []
    assert S._cache == {}


CACHE_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear",
                  "__setitem__", "__delitem__"}


def cache_writes(source):
    """(line, text) of each write to an object's `_cache` in source:
    `x._cache[k] = ...`, `del x._cache[k]`, augmented assignment, or a
    mutating method call on `x._cache`."""
    out = []
    for node in ast.walk(parse(source)):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "_cache"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            out.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CACHE_MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_cache"):
            out.append((node.lineno, ast.unparse(node)))
    return out


def test_cache_writes_are_recognized():
    assert [t for _, t in cache_writes(
        "a._cache[k] = 1\ndel b._cache[k]\nc._cache[k] += 1\n"
        "d._cache.setdefault(k, 1)\nx = e._cache[k]\nf._cache.get(k)\n")] == [
        "a._cache[k]", "b._cache[k]", "c._cache[k]",
        "d._cache.setdefault(k, 1)"]


@functools.cache
def sources():
    """(file name, path, source) of each .py file under src/cmreg, read
    once per session."""
    root = os.path.dirname(cmreg.memo.__file__)
    out = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    out.append((name, path, fh.read()))
    return tuple(out)


@functools.cache
def parse(source):
    """The tree of source, parsed once per session: every lint reads the
    same trees and none of them changes one."""
    return ast.parse(source)


def test_only_memo_writes_object_caches():
    """The one cache rule: every per-object result goes through
    memo._cached, so no other file under src/cmreg writes `._cache[`."""
    offenders = [f"{name}:{line}: {text}"
                 for name, path, source in sources()
                 if path != cmreg.memo.__file__
                 for line, text in cache_writes(source)]
    assert offenders == []


def calls(source, name):
    """(line, enclosing function) of each call to `name` in source, as a
    plain name or as an attribute."""
    return list(_calls_by_name(source).get(name, ()))


@functools.cache
def _calls_by_name(source):
    """{called name: [(line, enclosing function)]} over every call in
    source, in one walk of its tree per session."""
    out = {}

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else (
                f.attr if isinstance(f, ast.Attribute) else None)
            out.setdefault(called, []).append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(parse(source), None)
    return out


def call_sites(name):
    """(file, line, enclosing function) of each call to `name` under
    src/cmreg."""
    return [(fname, line, func) for fname, _, source in sources()
            for line, func in calls(source, name)]


def test_calls_are_recognized():
    src = ("def f():\n    g(1)\n    m.g(2)\n    h = g\n"
           "def k():\n    return [g(x) for x in y]\n")
    assert calls(src, "g") == [(2, "f"), (3, "f"), (6, "k")]


def test_syzygy_step_has_one_call_site():
    sites = call_sites("syzygy_generators")
    assert [(f, func) for f, _, func in sites] == [("resolution.py", "_resolve")]


def enclosing_top_level(name, files=None):
    """(file, top-level function or class) around each call to `name` in
    files, (name, path, source) triples, by default those of src/cmreg;
    nested functions and lambdas count as their top-level one."""
    out = []
    for fname, _, source in files or sources():
        body = [node for node in parse(source).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for line, _ in calls(source, name):
            out += [(fname, node.name) for node in body
                    if node.lineno <= line <= node.end_lineno]
    return out


def test_enclosing_top_level_is_recognized():
    src = ("def f():\n    def g():\n        h()\n    return lambda: h()\n"
           "class C:\n    def m(self):\n        h()\n")
    assert enclosing_top_level("h", [("a.py", "", src)]) == [
        ("a.py", "f"), ("a.py", "f"), ("a.py", "C")]


def test_the_resolution_loop_is_entered_only_through_free_resolution():
    """The loop starts, and a held loop resumes, only in
    `free_resolution`, which alone makes an object's one resolution
    entry."""
    assert enclosing_top_level("_resolve") == [
        ("resolution.py", "free_resolution")]
    assert enclosing_top_level("send") == [
        ("resolution.py", "free_resolution")]
    assert enclosing_top_level("SimpleNamespace") == [
        ("resolution.py", "free_resolution")] * 2


def test_a_resolution_is_built_only_by_its_three_builders():
    """A complex of free modules is its own chain, the loop builds every
    other resolution off its chain, and a linear cut tensors its cut
    module's; a cut of one is read off it (FreeResolution.truncate)."""
    def callers(name):
        return [(f, func) for f, _, func in call_sites(name)]

    assert callers("FreeResolution") == [
        ("resolution.py", "truncate"), ("resolution.py", "_tensor_cut"),
        ("resolution.py", "_free_chain"), ("resolution.py", "_read_chain")]
    assert callers("_free_chain") == [("resolution.py", "free_resolution")]
    assert callers("_tensor_cut") == [("resolution.py", "_tensored")]
    assert callers("_tensored") == [("resolution.py", "_resolve")]
    assert callers("_read_chain") == [("resolution.py", "_resolve")] * 2


def test_the_truncation_rule_is_kept_in_the_resolution_layer():
    """`free_resolution` alone reads a max_len, through `check_max_len`
    and `_truncation`, and cuts what it returns by the one rule,
    FreeResolution.truncate; the CLI checks its flag with the same rule.
    The loop alone decides completeness at its cut (`_resolves`), and
    passes its cut only to the cut module's resolution: the free chain
    and the tensored F take none.  cmreg.complexes takes nothing else
    from the resolution layer."""
    def callers(name):
        return [(f, func) for f, _, func in call_sites(name)]

    assert callers("_truncation") == [("resolution.py", "free_resolution")]
    assert sorted(callers("check_max_len")) == [
        ("cli.py", "_max_len_arg"), ("resolution.py", "free_resolution")]
    assert callers("_resolves") == [("resolution.py", "_read_chain")]
    assert callers("truncate") == [("resolution.py", "free_resolution")]
    source = {name: src for name, _, src in sources()}
    takes_a_cut = sorted(
        node.name for node in ast.walk(parse(source["resolution.py"]))
        if isinstance(node, ast.FunctionDef)
        and "max_len" in [a.arg for a in node.args.args])
    assert takes_a_cut == ["_resolve", "_tensored", "_truncation",
                           "betti_table", "check_max_len", "free_resolution",
                           "pd", "truncate"]
    imported = [alias.name
                for node in ast.walk(parse(source["complexes.py"]))
                if isinstance(node, ast.ImportFrom)
                and node.module == "resolution"
                for alias in node.names]
    assert imported == ["free_resolution"]


def test_only_the_loop_reads_a_linear_cut():
    """A module killed by linear forms is split off the loop's own first
    reduced basis, which the cut module holds: no separate Groebner basis
    finds the forms, and the cut module's resolution runs no Buchberger
    over the smaller ring."""
    assert [(f, func) for f, _, func in call_sites("_linear_cut")] == [
        ("resolution.py", "_resolve")]
    assert [(f, func) for f, _, func in call_sites("reduced_basis")] == [
        ("resolution.py", "_linear_cut")]


def held_basis_sites(source):
    """(kind, enclosing qualified name) of each assignment to an
    attribute named `_basis` or `_summands` ("set") and each call that
    passes `basis=` ("pass") in source."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        for t in targets:
            for sub in ast.walk(t):
                if (isinstance(sub, ast.Attribute)
                        and sub.attr in ("_basis", "_summands")):
                    out.append(("set", scope))
        if isinstance(node, ast.Call) and any(
                k.arg == "basis" for k in node.keywords):
            out.append(("pass", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(parse(source), None)
    return out


def test_held_basis_sites_are_recognized():
    src = ("class A:\n    def __init__(self, basis):\n"
           "        self._basis = basis\n"
           "def f(m):\n    m._summands, x = 1, 2\n"
           "    return A(basis=lambda: 1)\n")
    assert held_basis_sites(src) == [("set", "A.__init__"), ("set", "f"),
                                     ("pass", "f")]


def test_a_held_basis_is_passed_only_where_the_module_is_built():
    """A module whose Groebner basis is known where it is built gets it
    as its constructor's `basis`: no code patches a basis or a list of
    summands onto a module afterwards, and only four builders know one
    (a totalization term, a bottom homology, a twist and a linear
    cut's module)."""
    sites = sorted((kind, f"{name}:{scope}") for name, _, source in sources()
                   for kind, scope in held_basis_sites(source))
    assert sites == [
        ("pass", "complexes.py:tensor_free_with_complex"),
        ("pass", "modules.py:PresentedModule.twist"),
        ("pass", "modules.py:_cokernel"),
        ("pass", "resolution.py:_linear_cut"),
        ("set", "modules.py:PresentedModule.__init__")]


def test_a_cut_module_runs_no_buchberger_over_the_smaller_ring(monkeypatch):
    # M/lM for each corpus instance and a seeded linear form l
    from cmreg.modules import quotient_by_element
    from cmreg.theorems import _random_linear_form, random_ideal_corpus
    runs = []
    real = cmreg.groebner._buchberger

    def counting(*args):
        runs.append(args[3].nvars)  # the packing's
        return real(*args)

    monkeypatch.setattr(cmreg.groebner, "_buchberger", counting)
    # the resolution F' of the cut module, which F tensors
    inners = []
    real_cut = cmreg.resolution._tensor_cut

    def tensoring(ring, inner, *args):
        inners.append(inner)
        return real_cut(ring, inner, *args)

    monkeypatch.setattr(cmreg.resolution, "_tensor_cut", tensoring)
    cuts = 0
    for inst in random_ideal_corpus():
        l = _random_linear_form(inst.ring, random.Random(f"{inst.name}:cut"))
        M = quotient_by_element(inst.module, l)
        runs.clear()
        inners.clear()
        free_resolution(M)
        (inner,) = inners
        assert inner.ring.nvars < M.ring.nvars
        assert set(runs) <= {M.ring.nvars}, inst.name
        cuts += 1
    assert cuts == 30


def test_resolutions_minimize_in_three_places():
    """The loop minimizes each level before its Groebner run; the twists
    of every resolution are read by `_betti_twists` and its cols minimized
    by `_minimal_cols`."""
    sites = [(func, line) for f, line, func in call_sites("minimize_chain")
             if f == "resolution.py"]
    assert [func for func, _ in sites] == [
        "_resolve", "_betti_twists", "_minimal_cols"]
    [source] = [src for name, _, src in sources() if name == "resolution.py"]
    [resolve] = [node for node in ast.walk(parse(source))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_resolve"]
    [loop] = [node for node in ast.walk(resolve)
              if isinstance(node, ast.While)]
    [(run, _)] = calls(source, "groebner_basis")
    assert loop.lineno < sites[0][1] < run <= loop.end_lineno


def test_bases_interreduce_in_two_places():
    """A basis from `groebner_basis` is reduced on its first read
    (`GroebnerBasis._interreduced`, behind `elements`, `module_leads` and
    `module_indices`), so a Hilbert series never reduces one; the
    defining ideal's basis is reduced at once, where it is built and
    certified (`_defining_basis`)."""
    sites = call_sites("_interreduce")
    assert [(f, func) for f, _, func in sites] == [
        ("groebner.py", "_defining_basis"), ("groebner.py", "_interreduced")]


def test_a_frame_is_decoded_only_by_its_basis():
    """Basis elements are decoded in `GroebnerBasis.module_vectors` alone,
    in the basis's own packing, and `_reduce` decodes a normal form's
    remainder and trace.  The tag rows of a relation run and the
    relations of a bottom homology module are read through their basis
    (`modules.syzygies_of_vectors`, `modules._cokernel`); the resolution
    loop decodes the syzygies below its frame as it finds them, and a
    frame level only in `_minimal_cols`, on the first read of cols."""
    sites = call_sites("decode_vec")
    assert [(f, func) for f, _, func in sites] == [
        ("groebner.py", "_reduce"), ("groebner.py", "_reduce"),
        ("groebner.py", "module_vectors")]
    sites = call_sites("module_vectors")
    assert [(f, func) for f, _, func in sites] == [
        ("modules.py", "syzygies_of_vectors"), ("modules.py", "_cokernel"),
        ("resolution.py", "_resolve"), ("resolution.py", "_resolve"),
        ("resolution.py", "_minimal_cols")]


def test_a_frame_tail_is_computed_in_one_function():
    """A frame syzygy's tail comes from `_syzygy_tail` alone, on its
    first read (`GroebnerBasis._complete`, the one place that writes a
    tail into an element already made): the syzygy step builds leads
    and forms no S-vector, every other S-vector is a Buchberger or
    `certify` pair, reduced with no trace, and the only other traced
    reduction is `_reduce`'s, for lifts."""
    assert [(f, func) for f, _, func in call_sites("_syzygy_tail")] == [
        ("groebner.py", "_complete")]
    assert sorted(func for f, _, func in call_sites("_s_vector")) == [
        "_buchberger", "_syzygy_tail", "certify"]
    traced = {func for func, node in call_nodes("groebner.py",
                                                "_reduce_packed")
              if len(node.args) == 5}
    assert traced == {"_reduce", "_syzygy_tail"}
    writers = {func for func, node in functions_of("groebner.py")
               for n in ast.walk(node) if isinstance(n, ast.Attribute)
               and n.attr == "tail" and isinstance(n.ctx, ast.Store)}
    # GBElem.__init__ sets the tail an element is made with
    assert writers == {"__init__", "_complete"}


def test_a_basis_reads_its_private_slots_only_through_self():
    """No function reaches into another basis's state: the private slots
    of a GroebnerBasis, its frame among them, are read and written only
    as `self._...`, so a frame completes the level below by calling
    its `_complete`, as any reader would."""
    private = {s for s in cmreg.groebner.GroebnerBasis.__slots__
               if s.startswith("_")}
    offenders = [f"{name}:{n.lineno}: {ast.unparse(n)}"
                 for name, _, source in sources()
                 for n in ast.walk(parse(source))
                 if isinstance(n, ast.Attribute) and n.attr in private
                 and getattr(n.value, "id", None) != "self"]
    assert not offenders, offenders
    assert "_frame" in private


# reads that complete a frame, or reach a tail it may not have yet
COMPLETING = {"elements", "module_elements", "module_vectors", "key",
              "_complete", "_reducer_groups", "module_constants", "tail"}


def test_leads_degrees_and_pairs_never_complete_a_basis():
    """A frame's leads, degrees and the next step's pairs need no tail:
    `lead_words`, `module_leads`, `module_degrees`, the syzygy step,
    its pair selection (`_schreyer_pairs`) and its sort (`_syzygy_basis`)
    read no tail and nothing that completes a frame."""
    funcs = dict(functions_of("groebner.py"))
    for name in ("lead_words", "module_leads", "module_degrees",
                 "syzygy_generators", "_schreyer_pairs", "_syzygy_basis"):
        reads = {n.attr for n in ast.walk(funcs[name])
                 if isinstance(n, ast.Attribute)}
        assert not reads & COMPLETING, (name, reads & COMPLETING)


def test_betti_twists_read_frame_constants_only_through_module_constants():
    """The Betti numbers read a frame level's constant part through
    `GroebnerBasis.module_constants` alone, which completes only the
    syzygies that can carry one; `_minimal_cols` is the resolution's one
    full read of a frame."""
    funcs = dict(functions_of("resolution.py"))
    reads = {n.attr for n in ast.walk(funcs["_betti_twists"])
             if isinstance(n, ast.Attribute)}
    assert "module_constants" in reads
    assert not reads & (COMPLETING - {"module_constants"})
    assert [(f, func) for f, _, func in call_sites("module_constants")] == [
        ("resolution.py", "_betti_twists")]


def functions_of(fname):
    """(name, node) of every function defined in the file `fname` under
    src/cmreg, methods and nested functions included."""
    [source] = [src for name, _, src in sources() if name == fname]
    return [(n.name, n) for n in ast.walk(parse(source))
            if isinstance(n, ast.FunctionDef)]


def call_nodes(fname, name):
    """(enclosing function, call node) of each call to `name`, as a plain
    name, in the file `fname` under src/cmreg."""
    out = []
    for func, node in functions_of(fname):
        nested = {id(n) for f in ast.walk(node) if f is not node
                  and isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        out += [(func, n) for n in ast.walk(node)
                if isinstance(n, ast.Call) and id(n) not in nested
                and getattr(n.func, "id", None) == name]
    return out



def _groebner_tree():
    [source] = [src for name, _, src in sources() if name == "groebner.py"]
    return parse(source)


def test_groebner_elements_hold_packed_terms_only():
    """A GBElem has no decoded vector, and no element class refuses one:
    only its basis, which knows the packing, decodes it."""
    from cmreg.groebner import GBElem
    assert not hasattr(GBElem, "vec")
    assert "_vec" not in GBElem.__slots__
    classes = {n.name for n in ast.walk(_groebner_tree())
               if isinstance(n, ast.ClassDef)}
    assert "_Syzygy" not in classes
    assert not hasattr(cmreg.groebner, "_make_elem")


def test_the_reduction_kernel_records_one_trace_form():
    """`_reduce_packed` records a trace exactly when it is given heads,
    in the one packed form, the flat dict {heads[i] + d: -c} of the terms
    of sum_i -q_i heads[i], not grouped per reducer (no `setdefault` in
    the kernel).  So it has no switch for a second format, and no packing
    decodes a raw quotient offset."""
    [kernel] = [n for n in _groebner_tree().body
                if isinstance(n, ast.FunctionDef) and n.name == "_reduce_packed"]
    assert [a.arg for a in kernel.args.args] == [
        "work", "reducers", "K", "P", "heads"]
    assert not [n for n in ast.walk(kernel) if isinstance(n, ast.Attribute)
                and n.attr == "setdefault"]
    from cmreg.groebner import _Packing
    assert not hasattr(_Packing, "quotient")


def test_a_lead_is_unpacked_only_where_an_element_is_built():
    """A GBElem carries its lead's exponent word, read off the packing
    once, where the element is made: `_elem` and the syzygy step
    (`_Packing.word`); a moved or reduced element shares it.  So no
    pair selection reads a word off the packing: `_buchberger` and
    `_schreyer_pairs` read `GBElem.word`.  A lead is unpacked to its
    word alone: an element keeps no lead monomial, its degree is read
    off the word (`Words.degree`), and only the decoder (`mono`) turns
    a word into a monomial."""
    from cmreg.groebner import GBElem, _Packing
    readers = {func for f, _, func in call_sites("word")
               if f == "groebner.py"}
    # `mono` is the packing's own decoder
    assert readers == {"mono", "_elem", "syzygy_generators"}
    assert {func for f, _, func in call_sites("monomial")
            if f == "groebner.py"} == {"mono"}
    assert GBElem.__slots__ == ("lead", "tail", "pos", "word", "deg")
    assert not hasattr(_Packing, "unpack")


def test_the_packed_lcm_is_written_once():
    """The field-wise max of exponent words is one method, `Words.lcm`,
    and the pair formula built on it, head + ((lcm - (d << B)) << W), is
    one packing method (`pair`) that serves both pair selections.  The
    max's bit-16 comparisons stay inside `Words` with the rest of the word
    layout (`test_only_the_packings_read_the_packed_layout`)."""
    tree = _groebner_tree()
    defs = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert defs.count("pair") == 1 and "lcm" not in defs
    [pair] = [n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "pair"]
    assert "lcm" in {n.func.attr for n in ast.walk(pair)
                     if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Attribute)}
    readers = [f.name for f in tree.body
               if isinstance(f, ast.FunctionDef)
               and any(isinstance(n, ast.Attribute) and n.attr == "pair"
                       for n in ast.walk(f))]
    assert readers == ["_buchberger", "_schreyer_pairs"]
    [words] = [n for name, _, src in sources() if name == "poly.py"
               for n in ast.walk(parse(src))
               if isinstance(n, ast.ClassDef) and n.name == "Words"]
    assert [f.name for f in words.body
            if isinstance(f, ast.FunctionDef)].count("lcm") == 1


# the one packing class
PACKINGS = {"_Packing"}
LAYOUT_ATTRS = {"A", "B", "emask", "one", "bases", "struct"}
LAYOUT_NAMES = {"_DEG_TOP", "_INDEX_BITS", "struct"}


def layout_reads(source):
    """(function, line, text) of each read of a packed-term layout name
    in a function outside the packing classes: an attribute in
    LAYOUT_ATTRS, except a field's `one`, or a name in LAYOUT_NAMES."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and node.name in PACKINGS:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and (
                (isinstance(node, ast.Attribute)
                 and node.attr in LAYOUT_ATTRS and not _is_field(node.value))
                or (isinstance(node, ast.Name) and node.id in LAYOUT_NAMES)):
            out.append((func, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(parse(source), None)
    return out


def test_layout_reads_are_recognized():
    src = ("import struct\n_DEG_TOP = 1\n"
           "class _Packing:\n    def f(self):\n        return self.A, _DEG_TOP\n"
           "def g(P, K):\n    return P.A + P.one + K.one\n"
           "class GroebnerBasis:\n    def h(self):\n"
           "        return self.packing.bases, struct.pack(_INDEX_BITS)\n")
    assert layout_reads(src) == [
        ("g", 7, "P.A"), ("g", 7, "P.one"), ("h", 10, "self.packing.bases"),
        ("h", 10, "struct"), ("h", 10, "_INDEX_BITS")]


def test_only_the_packings_read_the_packed_layout():
    """`_buchberger`, the Schreyer pairs, lifts, syzygies, the block
    shifts and the constant parts read exponent words, packed lcms and
    basis vectors' heads through the packing (`word`, `pair`, `head`),
    so a new packing needs no change outside its class.  The exponent
    words under the packed terms have one owner, `Words`: in groebner.py,
    hilbert.py and poly.py no other function reads their field width,
    guard mask or degree multiply, so `_Packing` and the numerator
    recursion share one layout."""
    [source] = [src for name, _, src in sources() if name == "groebner.py"]
    assert layout_reads(source) == []
    for name, _, source in sources():
        if name in ("groebner.py", "hilbert.py", "poly.py"):
            assert word_layout_reads(source) == [], name


# the exponent-word layout: its constants, its struct, the masks and
# shifts of its fields and the degree multiply, known to `Words` alone
WORD_NAMES = {"_FIELD_BITS", "_FIELD", "_GUARD", "struct"}
WORD_ATTRS = {"struct", "nbytes", "ones", "top", "high", "low"}
WORD_CONSTANTS = {16, 32, 0xFFFF, 0xFFFFFFFF}


def word_layout_reads(source):
    """(function, line, text) of each read of the exponent-word layout in a
    function outside class Words: a name in WORD_NAMES, an attribute in
    WORD_ATTRS, or a constant in WORD_CONSTANTS as an operand."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and node.name == "Words":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and (
                (isinstance(node, ast.Name) and node.id in WORD_NAMES)
                or (isinstance(node, ast.Attribute)
                    and node.attr in WORD_ATTRS)
                or (isinstance(node, ast.BinOp) and any(
                    isinstance(side, ast.Constant)
                    and side.value in WORD_CONSTANTS
                    for side in (node.left, node.right)))):
            out.append((func, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(parse(source), None)
    return out


def test_word_layout_reads_are_recognized():
    src = ("_FIELD_BITS = 32\nX = 1 << 16\n"
           "class Words:\n    def deg(self, w):\n"
           "        return (w * self.ones >> self.top) & _FIELD\n"
           "def f(L, w, v):\n    return w >> 32 * v, L.ones, L.guard\n"
           "def g(m):\n    return struct.pack(*m), (m + 0xFFFF) >> 16\n")
    assert word_layout_reads(src) == [
        ("f", 7, "32 * v"), ("f", 7, "L.ones"), ("g", 9, "struct"),
        ("g", 9, "m + 65535 >> 16"), ("g", 9, "m + 65535")]


def test_the_series_readers_pass_words_and_read_no_monomial():
    """`quotient_series` and `_resolves` pass their leads' exponent words
    (`lead_words`, `GBElem.word`) to the numerator recursion, and turn no
    word into a monomial (`monomial`)."""
    funcs = {}
    for name, _, source in sources():
        for node in parse(source).body:
            if isinstance(node, ast.FunctionDef):
                funcs[name, node.name] = node
    for key, reads in ((("modules.py", "quotient_series"), "lead_words"),
                       (("resolution.py", "_resolves"), "word")):
        attrs = {n.attr for n in ast.walk(funcs[key])
                 if isinstance(n, ast.Attribute)}
        assert "monomial" not in attrs and reads in attrs, key


def position_reads(source):
    """(line, text) of each read of a packing's `S`, `shift` or `base`,
    and of each `M` that is not the right operand of `h & M` (nor bound
    to a local name, or assigned in the class)."""
    tree = parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("S", "shift",
                                                             "base"):
            out.append((node.lineno, ast.unparse(node)))
        is_m = ((isinstance(node, ast.Attribute) and node.attr == "M")
                or (isinstance(node, ast.Name) and node.id == "M"))
        if not is_m or isinstance(node.ctx, ast.Store):
            continue
        up = parents[node]
        if isinstance(up, ast.Tuple):  # M, G = P.M, P.G
            up = parents[up]
        if isinstance(up, ast.Assign):
            continue
        if (isinstance(up, ast.BinOp) and isinstance(up.op, ast.BitAnd)
                and up.right is node
                and isinstance(up.left, (ast.Name, ast.Attribute))):
            continue
        out.append((node.lineno, ast.unparse(up)))
    return sorted(out)


def test_position_reads_are_recognized():
    src = ("def f(P, h):\n    M, G = P.M, P.G\n    return h & M, g.lead & P.M\n"
           "def g(P, h):\n    return (h >> P.S) & P.M, h >> P.shift, P.base\n"
           "def k(P, h):\n    return P.M & h, (h >> 32) & P.M\n")
    assert position_reads(src) == [
        (5, "P.S"), (5, "P.base"), (5, "P.shift"), (5, "h >> P.S & P.M"),
        (7, "P.M & h"), (7, "h >> 32 & P.M")]


def test_one_layout_reads_a_position_as_h_and_m():
    """Every packed term is (level-0 term << W) + position in one packing
    class, so groebner.py has no second layout to tell apart: no packing
    attribute `S`, `shift` or `base` is read, a position is read only as
    h & M, and the kernel takes no shift between two layouts."""
    [source] = [src for name, _, src in sources() if name == "groebner.py"]
    assert position_reads(source) == []
    classes = {n.name for n in ast.walk(_groebner_tree())
               if isinstance(n, ast.ClassDef)}
    assert classes == {"_Packing", "GBElem", "GroebnerBasis"}


def test_buchberger_and_the_syzygy_step_take_no_flag():
    """The product criterion follows from the rank (one twist), and the
    syzygy step has no degree filter."""
    args = {f.name: [a.arg for a in f.args.args]
            for f in _groebner_tree().body if isinstance(f, ast.FunctionDef)}
    assert args["_buchberger"] == ["gens", "K", "twists", "P", "known"]
    assert args["syzygy_generators"] == ["gb"]


FIELD_METHODS = {"add", "sub", "mul", "neg", "is_zero", "zero"}


def _is_field(node):
    """`K`, `field`, or any `<expr>.field`."""
    return ((isinstance(node, ast.Name) and node.id in ("K", "field"))
            or (isinstance(node, ast.Attribute) and node.attr == "field"))


def field_method_uses(source, funcs=None):
    """(function, line, text) of each `add`, `sub`, `mul`, `neg`,
    `is_zero` or `zero` read off `K`, `field` or `<expr>.field`, called
    or bound to a name: in every function of source (methods and nested
    functions under their own name, module level as None), or only in
    the functions named in `funcs`."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in FIELD_METHODS
                and _is_field(node.value)
                and (funcs is None or func in funcs)):
            out.append((func, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(parse(source), None)
    return out


def test_field_method_uses_are_recognized():
    src = ("def f(K):\n    return K.mul(a, b)\n"
           "def g(K):\n    sub = K.sub\n    return K.one, K.characteristic\n"
           "def h(K):\n    return K.neg(a)\n"
           "class C:\n    def m(self):\n        return self.ring.field.add(a, b)\n"
           "    def n(self, field):\n        return field.zero, H.is_zero()\n"
           "z = R.field.is_zero(0)\n")
    assert field_method_uses(src, {"f", "g"}) == [
        ("f", 2, "K.mul"), ("g", 4, "K.sub")]
    assert field_method_uses(src) == [
        ("f", 2, "K.mul"), ("g", 4, "K.sub"), ("h", 7, "K.neg"),
        ("m", 10, "self.ring.field.add"), ("n", 12, "field.zero"),
        (None, 13, "R.field.is_zero")]


def test_no_layer_computes_with_field_methods():
    """Operators are the one coefficient idiom (cmreg.scalars): no
    function under src/cmreg calls a field method for arithmetic."""
    offenders = [(name, *use) for name, _, source in sources()
                 for use in field_method_uses(source)]
    assert offenders == []


def test_one_field_class_with_the_smallest_surface():
    """GF(p) and QQ are one class, and it offers only what operators
    cannot do."""
    from cmreg.scalars import QQ, Field, PrimeField
    [source] = [src for name, _, src in sources() if name == "scalars.py"]
    classes = [n.name for n in ast.walk(parse(source))
               if isinstance(n, ast.ClassDef)]
    assert classes == ["Field"]
    assert type(QQ) is Field and type(PrimeField(7)) is Field
    surface = {n for n in dir(Field) if not n.startswith("_")}
    assert surface == {"p", "characteristic", "one", "from_int", "inv"}


def test_the_reduction_kernel_has_one_loop_with_inline_arithmetic():
    """The reduction kernel, `_s_vector` and the syzygy step do their
    coefficient arithmetic with operators, the same code for GF(p)
    and QQ (`groebner._reduce_packed`): no field method calls, one loop
    over a heap of terms, one walk of a reducer's tail in it, and no test
    of the field's kind."""
    [source] = [src for name, _, src in sources() if name == "groebner.py"]
    assert field_method_uses(source, {"_reduce_packed", "_s_vector",
                                      "syzygy_generators"}) == []
    # the kernel pops a heap of terms; `_buchberger` pops its pair queue
    assert sorted(func for f, _, func in call_sites("heappop")
                  if f == "groebner.py") == ["_buchberger", "_reduce_packed"]
    tree = parse(source)
    [kernel] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_reduce_packed"]
    assert len([n for n in ast.walk(kernel) if isinstance(n, ast.While)]) == 1
    assert len([n for n in ast.walk(kernel) if isinstance(n, ast.For)
                and isinstance(n.iter, ast.Name) and n.iter.id == "tail"]) == 1
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"PrimeField", "RationalField", "QQ", "isinstance",
                        "type"}


def test_buchberger_takes_lcms_on_packed_exponents():
    """`_buchberger` takes each pair's lcm and degree on packed exponent
    fields, once per new element (the Gebauer-Moeller update), and keeps
    the packed lcm with the pair: it never builds a tuple lcm, sums one, or
    packs one again."""
    [source] = [src for name, _, src in sources() if name == "groebner.py"]
    for name in ("mono_lcm", "mono_deg", "encode"):
        assert [func for _, func in calls(source, name)
                if func == "_buchberger"] == [], name


def test_checker_outcomes_are_built_only_by_finish():
    """`theorems._finish` is the one home of the checker contradiction
    rule: it alone builds a `CheckOutcome` and raises
    `TheoremContradiction`, so no checker decides a verdict by hand."""
    for name in ("CheckOutcome", "TheoremContradiction"):
        sites = call_sites(name)
        assert [(f, func) for f, _, func in sites] == [
            ("theorems.py", "_finish")], name
    defined = {node.name for _, _, source in sources()
               for node in ast.walk(parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_xadd", "_xsub"}
    assert call_sites("_xadd") == call_sites("_xsub") == []


# (route, function) of each route call in theorems.py that sits outside
# `_reg`, with its reason
ROUTE_CALLS_OUTSIDE_REG = {
    ("reg_via_ext", "check_ring_independence"):
        "ring-indep compares the ext route's own value over two covers",
    ("reg_via_betti", "scroll_member"):
        "the scroll family is no checker: it reads its values off Betti "
        "tables, with no homology",
}


def test_the_checkers_read_a_module_value_only_through_reg():
    """In theorems.py every call to a `reg_via_*` route sits in `_reg`,
    which reads a module's value off the duality rows kept under its key
    (cmreg.regularity), so no checker starts a second route on a module;
    the Koszul route is reached only through `reg_complex`.  The calls
    outside `_reg` are exactly those of ROUTE_CALLS_OUTSIDE_REG."""
    theorems = [f for f in sources() if f[0] == "theorems.py"]
    sites = [(route, func)
             for route in ("reg_via_" + name
                           for name in routes.ROUTES[PresentedModule])
             for _, func in enclosing_top_level(route, theorems)]
    assert [site for site in sites if site[1] == "_reg"] == [
        ("reg_via_duality", "_reg")]
    assert {site for site in sites if site[1] != "_reg"} == set(
        ROUTE_CALLS_OUTSIDE_REG)


def cached_computes(source, tag):
    """(first line, last line) of each compute that source hands to
    `_cached` under a key (tag, ...): a lambda, or a function of that name
    defined in the same function."""
    out = []
    for scope in ast.walk(parse(source)):
        if not isinstance(scope, ast.FunctionDef):
            continue
        local = {node.name: node for node in ast.walk(scope)
                 if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_cached" and len(node.args) == 3):
                continue
            key, compute = node.args[1], node.args[2]
            if not (isinstance(key, ast.Tuple) and key.elts
                    and isinstance(key.elts[0], ast.Constant)
                    and key.elts[0].value == tag):
                continue
            if isinstance(compute, ast.Name):
                compute = local[compute.id]
            out.append((compute.lineno, compute.end_lineno))
    return out


def test_cached_computes_are_recognized():
    src = ("def f(S, k):\n    def compute():\n        return g()\n"
           "    return _cached(S, ('a', k), compute)\n"
           "def h(S, k):\n    return _cached(S, ('b', k), lambda: g())\n"
           "def m(S):\n    return _cached(S, 'a', lambda: g())\n")
    assert cached_computes(src, "a") == [(2, 3)]
    assert cached_computes(src, "b") == [(6, 6)]


def test_duality_and_depth_are_computed_only_under_their_cover_keys():
    """Only `_duality_rows` reads a resolution into a complex, and it
    reads that complex's dual (`dual_complex`, which the ext route also
    reads for K): regularity.py builds no free module and no Hom complex,
    and no checker dualizes through `ext_complex` into a free module.  It
    runs only in the compute kept on the cover ring under ("duality",
    key), so check ring-indep reads both its sides there.  Depth reads pd
    off a resolution only in the compute kept there under ("depth", key),
    so a module met again up to twist or presentation pays for neither.
    The routes reach the cover through `_cover` only in the betti route:
    run_routes and reg_complex run on the object itself."""
    source = {name: src for name, _, src in sources()}
    reg = source["regularity.py"]
    assert {func for _, func in calls(reg, "resolution_to_complex")} == {
        "_duality_rows"}
    assert {func for _, func in calls(reg, "dual_complex")} == {
        "_duality_rows", "bass_table"}
    assert not calls(reg, "free") and not calls(reg, "hom_complex")
    assert not calls(source["theorems.py"], "free")
    assert {func for _, func in calls(source["theorems.py"], "ext_complex")
            } == {"check_cor_hom"}
    [(lo, hi)] = cached_computes(reg, "duality")
    sites = sorted(call_sites("_duality_rows"))
    assert [(name, func) for name, _, func in sites] == [
        ("regularity.py", "compute")]
    assert lo <= sites[0][1] <= hi
    [(lo, hi)] = cached_computes(reg, "depth")
    sites = [line for line, func in calls(reg, "free_resolution")
             if func == "depth"]
    assert sites and all(lo <= line <= hi for line in sites)
    # pd read straight off a resolution: nowhere else in src/cmreg
    lengths = [(name, node.lineno) for name, _, src in sources()
               for node in ast.walk(parse(src))
               if isinstance(node, ast.Attribute) and node.attr == "length"
               and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "free_resolution"]
    assert lengths and all(name == "regularity.py" and lo <= line <= hi
                           for name, line in lengths)
    assert [(name, func) for name, _, func in call_sites("_cover")] == [
        ("regularity.py", "reg_via_betti")]


def test_hom_is_the_tensor_with_the_dual():
    """One builder lays out a totalization: in complexes.py only
    `tensor_free_with_complex` assembles a term's basis from its blocks'
    (`direct_sum_basis`), and `hom_complex` calls nothing but
    `dual_complex` and that builder."""
    src = {name: src for name, _, src in sources()}["complexes.py"]
    assert {func for _, func in calls(src, "direct_sum_basis")} == {
        "tensor_free_with_complex"}
    assert {name for name, sites in _calls_by_name(src).items()
            if any(func == "hom_complex" for _, func in sites)} == {
        "dual_complex", "tensor_free_with_complex"}


def cache_keys(source):
    """The key of each `_cached(obj, key, compute)` call in source: a
    string key as itself, a tuple key as (its tag, its length)."""
    out = []
    for node in ast.walk(parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_cached" and len(node.args) == 3):
            key = node.args[1]
            out.append((key.elts[0].value, len(key.elts))
                       if isinstance(key, ast.Tuple) else key.value)
    return out


def test_cache_keys_are_recognized():
    src = ("def f(M, i):\n    return _cached(M, 'gb', g)\n"
           "def h(S, k, j):\n    return _cached(S, ('mult', k, j), g)\n"
           "def k(M):\n    return M._cache.get('hs')\n")
    assert cache_keys(src) == ["gb", ("mult", 3)]


# every key under which src/cmreg keeps a result, by file
CACHE_INVENTORY = {
    "complexes.py": {"cover", ("H", 2), ("coker", 2), "koszul_k"},
    "groebner.py": {"defining_gb"},
    "modules.py": {"gb", "cover", "hs"},
    "oracle.py": {("monomials", 2), ("piece", 2), ("mult", 3), ("rank", 3)},
    "regularity.py": {"koszul", ("duality", 2), ("depth", 2)},
    "resolution.py": {"resolution"},
}


def test_the_cache_keys_are_the_inventory():
    """A result is kept only where a second read happens: a homology
    series is read off the cokernel entries (no ("HS", i)), a minimal
    presentation is built afresh (no "minimized"), and the duality route
    keeps its rows on the cover ring alone (no per-module "duality")."""
    found = {name: set(cache_keys(source)) for name, _, source in sources()}
    assert {name: keys for name, keys in found.items() if keys} == (
        CACHE_INVENTORY)


def test_homology_series_reads_only_the_cokernel_series():
    """The series path never reads a presented H_i, so comparing it with
    `homology` compares two computations."""
    [source] = [src for name, _, src in sources() if name == "complexes.py"]
    [method] = [node for node in ast.walk(parse(source))
                if isinstance(node, ast.FunctionDef)
                and node.name == "homology_series"]
    reads = [ast.unparse(node) for node in ast.walk(method)
             if (isinstance(node, ast.Attribute)
                 and node.attr in ("_cache", "homology"))
             or (isinstance(node, ast.Name) and node.id == "_cached")]
    assert reads == []
    assert {func for _, func in calls(source, "_coker_series")} >= {
        "homology_series"}


def test_homology_series_has_one_reader_outside_the_complex_layer():
    """The ext, koszul and duality routes, the saturation check and the
    CLI's tor and ext read a complex's nonzero series through
    `nonzero_homology_series`; only `sup_homology` reads spots one at a
    time, since it stops at the top nonzero spot (without that stop
    `cmreg depth M` on sessions/scroll-2.cmreg ran about 10% slower)."""
    assert [s for s in call_sites("homology_series")
            if s[0] != "complexes.py"] == []
    [source] = [src for name, _, src in sources() if name == "complexes.py"]
    assert {func for _, func in calls(source, "homology_series")} == {
        "nonzero_homology_series", "sup_homology"}


def test_only_the_duality_rows_read_a_spot_range():
    """Ext^q_S(M, S) can be nonzero only from q = codim M to q = pd M, so
    `_duality_rows` alone passes `nonzero_homology_series` a spot range;
    every other reader reads every spot.  It dualizes over the cover and
    nowhere else: regularity.py writes no series over another ring, and
    a resolution keeps no resolution of a cut module to dualize over a
    smaller ring."""
    ranged = []

    def visit(node, name, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "nonzero_homology_series"
                and (node.args or node.keywords)):
            ranged.append((name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, name, func)

    for name, _, src in sources():
        visit(parse(src), name, None)
    assert ranged == [("regularity.py", "_duality_rows")]
    [reg] = [src for name, _, src in sources() if name == "regularity.py"]
    assert not calls(reg, "over")
    assert "cut" not in cmreg.resolution.FreeResolution.__slots__


def test_nothing_calls_free_resolution_of_complex():
    assert call_sites("free_resolution_of_complex") == []


def test_complex_layer_presents_no_kernels():
    assert [s for s in call_sites("kernel") if s[0] == "complexes.py"] == []


def test_the_oracle_table_has_one_reader():
    """`cmreg oracle` compares the oracle's own table, so only
    `DenseOracle.betti_table` reads single Betti numbers."""
    assert [(f, func) for f, _, func in call_sites("betti_number")] == [
        ("oracle.py", "betti_table")]


def _regularity_tree():
    [source] = [src for name, _, src in sources() if name == "regularity.py"]
    return parse(source)


def test_reg_and_the_local_cohomology_window_have_one_reader():
    """The betti route and `relative_reg` read reg off the Betti table,
    with no twist sup of their own, and the local cohomology window has
    no cap."""
    tree = _regularity_tree()
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not defined & {"_twist_sup", "WINDOW_HARD_CAP_FACTOR"}


def test_the_local_cohomology_window_ends_with_no_loop():
    """Its rows are exact, so the window runs to the last row's end in
    one step: nothing grows it in a loop."""
    [table] = [node for node in ast.walk(_regularity_tree())
               if isinstance(node, ast.FunctionDef)
               and node.name == "local_cohomology_table"]
    assert not [n for n in ast.walk(table) if isinstance(n, ast.While)]


def test_one_function_reads_a_local_cohomology_window():
    """`local_cohomology_table` is the one function that takes a degree
    window and the one builder of a LocalCohomologyTable, and the
    checkers read none: check ring-indep compares exact duality rows."""
    readers = {node.name for _, _, source in sources()
               for node in ast.walk(parse(source))
               if isinstance(node, ast.FunctionDef)
               and node.name != "__init__"
               and "window" in {a.arg for a in node.args.args}}
    assert readers == {"local_cohomology_table"}
    assert [(f, func) for f, _, func in call_sites("LocalCohomologyTable")
            ] == [("regularity.py", "local_cohomology_table")]
    [theorems] = [src for name, _, src in sources() if name == "theorems.py"]
    assert not any(calls(theorems, name) for name in readers)


def test_the_koszul_route_is_one_pass_with_no_probe_module():
    """Forms that span R_1 never fail the finite-length test, so the route
    needs no module to tell whether they do, and no flag to skip it."""
    [route] = [node for node in ast.walk(_regularity_tree())
               if isinstance(node, ast.FunctionDef)
               and node.name == "_koszul_route"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(route)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not names & {"PresentedModule", "verify"}


def cmreg_imports(source):
    """Names of the cmreg modules that source imports, at any depth:
    relative (`from .x import`, `from . import x`) or absolute
    (`import cmreg.x`, `from cmreg.x import`, `from cmreg import x`).
    `import cmreg` itself reads as "cmreg"."""
    out = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cmreg":
                    out.add(parts[1] if len(parts) > 1 else "cmreg")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == "cmreg":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_cmreg_imports_are_recognized():
    src = ("from .freemod import vec_degree\nfrom . import hilbert\n"
           "from .groebner.inner import f\nimport cmreg.resolution\n"
           "import cmreg.poly as P\nfrom cmreg.modules import kernel\n"
           "from cmreg import oracle\nimport numpy\nimport cmreg\n"
           "from fractions import Fraction\n"
           "def f():\n    from .complexes import koszul_complex\n")
    assert cmreg_imports(src) == {
        "freemod", "hilbert", "groebner", "resolution", "poly", "modules",
        "oracle", "cmreg", "complexes"}


def test_resolution_layer_imports_nothing_from_complexes():
    # complexes imports resolution; free_resolution recognizes a complex
    # by its terms and diffs
    [source] = [src for name, _, src in sources() if name == "resolution.py"]
    assert "complexes" not in cmreg_imports(source)


def test_oracle_imports_only_the_base_layers():
    """The dense oracle is the independent witness of every route, so
    from cmreg it may import only free-module helpers, the cache rule,
    polynomials and scalars."""
    [source] = [src for name, _, src in sources() if name == "oracle.py"]
    assert cmreg_imports(source) <= {"freemod", "memo", "poly", "scalars"}


def top_level_imports(source):
    """Top-level package names that source imports, at any depth;
    relative imports are left out."""
    out = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_top_level_imports_are_recognized():
    src = ("import numpy as np\nfrom numpy.linalg import matrix_rank\n"
           "from . import oracle\nfrom .poly import Poly\nimport os.path\n"
           "def f():\n    import scipy.sparse\n")
    assert top_level_imports(src) == {"numpy", "os", "scipy"}


def test_nothing_under_src_imports_numpy():
    """The oracle eliminates over sparse rows in plain Python, so the
    package needs nothing outside the standard library to run."""
    offenders = [name for name, _, source in sources()
                 if "numpy" in top_level_imports(source)]
    assert offenders == []


# -- every library name has a reader ---------------------------------------

TEST_ORACLE = "a test oracle: tests check the library's results with it"
PERFBENCH = ("reached by perfbench; goes with the in-library counters "
             "(ROADMAP item 9) or the next benchmark-only change")

# the names under src/cmreg that nothing in src reads, with why each stays
UNREAD_ALLOWED = {
    "resolution.FreeResolution.is_minimal": TEST_ORACLE,
    "complexes.minimal_cover": PERFBENCH,
    "session.Session.kind_of": PERFBENCH,
    "complexes.BoundedComplex.shift":
        "tests build complexes at other spots with it",
    "session._Parser.decl_*": "dispatched by name in _Parser.parse",
}


def unread_names(texts):
    """Names defined in texts, {module name: source}, that nothing there
    reads: a module-level function or class that no other place
    references (as a name or an attribute) and `__init__` does not
    import, and a method that no source reads as `.name` outside its own
    body.  Dunder methods are called by the language and are skipped.
    Names read "module.name" and "module.Class.method".

    A read is matched by name alone, so a method that shares its name
    with one read elsewhere passes unseen.  One such method stays:
    `FreeResolution.module`, which perfbench's tracer calls in
    `_resolution_post`."""
    trees = {mod: parse(src) for mod, src in texts.items()}
    reads = {"name": {}, "attr": {}}  # identifier -> [(module, line)]
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads["name"].setdefault(node.id, []).append(
                    (mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads["attr"].setdefault(node.attr, []).append(
                    (mod, node.lineno))
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    def read_outside(mod, node, kinds):
        return any(not (m == mod and node.lineno <= line <= node.end_lineno)
                   for kind in kinds
                   for m, line in reads[kind].get(node.name, ()))

    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (node.name not in exported
                    and not read_outside(mod, node, ("name", "attr"))):
                out.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{mod}.{node.name}.{f.name}" for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not (f.name.startswith("__")
                                 and f.name.endswith("__"))
                        and not read_outside(mod, f, ("attr",))]
    return out


def test_unread_names_are_recognized():
    srcs = {"__init__": "from .a import exported\n",
            "a": ("def exported():\n    pass\n"
                  "def helper():\n    return helper()\n"
                  "def used():\n    pass\n"
                  "class C:\n    def __init__(self):\n        self.m()\n"
                  "    def m(self):\n        return self.m\n"
                  "    def only_self(self):\n        return self.only_self()\n"),
            "b": "from .a import used, C\nx = used()\nC().n\n"}
    assert unread_names(srcs) == ["a.helper", "a.C.only_self"]


def test_every_library_name_has_a_reader():
    """A name in src/cmreg is read by src or exported by the package;
    anything else is on UNREAD_ALLOWED with its reason, and every entry
    there still names an unread name."""
    unread = unread_names({name[:-3]: source
                           for name, _, source in sources()})
    assert [n for n in unread
            if not any(fnmatch(n, pat) for pat in UNREAD_ALLOWED)] == []
    assert [pat for pat in UNREAD_ALLOWED
            if not any(fnmatch(n, pat) for n in unread)] == []


# -- what perfbench reaches in cmreg ---------------------------------------

PERFBENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench")


def perfbench_source(name):
    with open(os.path.join(PERFBENCH_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def workload_reads(source):
    """(module, name) of each `_mod("cmreg.X").name` read in source."""
    return sorted({(node.value.args[0].value, node.attr)
                   for node in ast.walk(parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Call)
                   and isinstance(node.value.func, ast.Name)
                   and node.value.func.id == "_mod"
                   and isinstance(node.value.args[0], ast.Constant)})


def test_workload_reads_are_recognized():
    src = ("def f(M):\n    bt = _mod('cmreg.resolution').betti_table(M)\n"
           "    _mod('cmreg.cli')\n    return _mod('cmreg.resolution').x\n")
    assert workload_reads(src) == [("cmreg.resolution", "betti_table"),
                                   ("cmreg.resolution", "x")]


def test_perfbench_finds_every_cmreg_name_it_uses():
    """`python -m pytest perfbench` is not part of Tier-1, so a trim of
    the library is checked here against what `perfbench/run.py --trace 1`
    reaches: each tracer target by the lookup `Tracer.install` makes,
    each `_mod("cmreg.X").name` of the workloads, and the two methods
    called on cmreg objects (`Session.kind_of` by the sessions workload,
    `FreeResolution.module` by the tracer's `_resolution_post`)."""
    from cmreg.resolution import FreeResolution
    from cmreg.session import Session
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH_DIR, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [t.key for t in tracer.TARGETS
               if t.attr not in tracer._resolve(t.owner).__dict__]
    reads = workload_reads(perfbench_source("workloads.py"))
    assert reads
    missing += [f"{mod}.{name}" for mod, name in reads
                if not hasattr(importlib.import_module(mod), name)]
    missing += [f"{cls.__name__}.{attr}"
                for cls, attr in ((Session, "kind_of"),
                                  (FreeResolution, "module"))
                if attr not in cls.__dict__]
    assert missing == []
    # each name kept for perfbench is still in perfbench's source
    text = perfbench_source("tracer.py") + perfbench_source("workloads.py")
    assert [n for n, why in UNREAD_ALLOWED.items() if why == PERFBENCH
            and n.rpartition(".")[2] not in text] == []
