"""Outside-in span tracer for cmreg.

The tracer never edits the engine's source.  It replaces each target
function (or method) with a wrapper that records a span -- target, start,
end, parent span, op id and an optional probe value -- and rebinds every
copy of the original that a cmreg module holds, so calls made through a
``from .x import f`` binding are seen too.  Spans stay in memory until
the caller asks for them.

A layer's self time is the time of its spans minus the time covered by
their direct child spans; spans nest properly because cmreg runs on one
thread.
"""

import importlib
import sys
import time


class Target:
    """One traced function: ``owner`` is a module name or ``module:Class``.

    pre(args) runs before the call and post(pre_value, args, out) after
    it; the last value is kept on the span.  skip(args) true means call
    through without a span.  outermost=True records only the outermost
    call of a function that recurses through its own module global.
    """

    __slots__ = ("layer", "owner", "attr", "pre", "post", "skip",
                 "outermost", "key")

    def __init__(self, layer, owner, attr, pre=None, post=None, skip=None,
                 outermost=False):
        self.layer = layer
        self.owner = owner
        self.attr = attr
        self.pre = pre
        self.post = post
        self.skip = skip
        self.outermost = outermost
        self.key = f"{owner}.{attr}"


def _homology_pre(args):
    return ("H", args[1]) in args[0]._cache


def _defining_skip(args):
    return args[0].is_polynomial


def _defining_pre(args):
    return "defining_gb" in args[0]._cache


def _resolution_post(_, args, res):
    return [len(res.module(i).twists) for i in range(res.length + 1)]


def _syzgen_post(_, args, out):
    return len(out[0])


def _gb_post(_, args, gb):
    return len(gb.module_indices)


def _minimize_post(_, args, out):
    before = sum(len(t) for t in args[0].values())
    after = sum(len(t) for t in out[0].values())
    return (before - after) // 2


def _targets():
    T = Target
    out = []
    for name in ("reg_via_betti", "reg_via_ext", "reg_via_koszul",
                 "reg_via_duality", "relative_reg", "reg_complex",
                 "regularity", "depth", "depth_profile", "bass_table",
                 "local_cohomology_table", "a_invariant"):
        out.append(T("regularity", "cmreg.regularity", name))
    for name in ("check_thm_cmd1", "check_thm_dim1", "check_cor_tensor",
                 "check_cor_hom", "check_filter_regular_formula",
                 "check_ab_formula", "check_ring_independence",
                 "corpus_checks", "nilpotent_scroll_family",
                 "random_ideal_corpus"):
        out.append(T("theorems", "cmreg.theorems", name))
    for name in ("complex_from_module", "free_complex_from_data",
                 "resolution_to_complex", "koszul_complex",
                 "koszul_resolution_of_k", "tensor_free_with_complex",
                 "tensor_complexes", "hom_complex", "tor", "tor_complex",
                 "ext", "ext_complex", "grade_of_sequence", "minimal_cover",
                 "free_resolution_of_complex"):
        out.append(T("complexes", "cmreg.complexes", name))
    out.append(T("complexes", "cmreg.complexes:BoundedComplex", "homology",
                 pre=_homology_pre))
    for name in ("homology_at", "kernel", "image", "syzygies_of_vectors",
                 "present_subquotient", "colon_by_element",
                 "quotient_by_element", "annihilator", "is_filter_regular"):
        out.append(T("modules", "cmreg.modules", name))
    out.append(T("resolution", "cmreg.resolution", "free_resolution",
                 post=_resolution_post))
    out.append(T("groebner", "cmreg.groebner", "groebner_basis",
                 post=_gb_post))
    out.append(T("groebner", "cmreg.groebner", "syzygy_generators",
                 post=_syzgen_post))
    out.append(T("groebner", "cmreg.groebner", "defining_gb",
                 pre=_defining_pre, skip=_defining_skip))
    out.append(T("minimize", "cmreg.minimize", "minimize_chain",
                 post=_minimize_post))
    out.append(T("minimize", "cmreg.minimize", "minimize_presentation"))
    out.append(T("hilbert", "cmreg.hilbert", "monomial_ideal_numerator",
                 outermost=True))
    for name in ("__init__", "betti_number", "hilbert_function",
                 "betti_table"):
        out.append(T("oracle", "cmreg.oracle:DenseOracle", name))
    out.append(T("session", "cmreg.session", "parse_session"))
    out.append(T("cli", "cmreg.cli", "main"))
    return out


TARGETS = _targets()


def _cmreg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmreg" or name.startswith("cmreg."))]


def _resolve(owner):
    """The module or class named by ``owner``.  Modules come from
    importlib, not attribute access: the ``regularity`` function exported
    by the package shadows the ``cmreg.regularity`` submodule."""
    mod_name, _, cls = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Installs wrappers on TARGETS and keeps the spans they record.

    Each span is a list [target, start, end, parent index, op id, probe].
    """

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._bindings = []  # (namespace object, attribute, original)
        self.originals = {}  # target key -> original function

    def _wrap(self, target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre, post, skip = target.pre, target.post, target.skip
        active = [0]

        def wrapper(*args, **kwargs):
            if (target.outermost and active[0]) or (skip and skip(args)):
                return fn(*args, **kwargs)
            rec = [target, clock(), 0.0, stack[-1] if stack else -1,
                   self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            active[0] += 1
            try:
                if pre:
                    rec[5] = pre(args)
                out = fn(*args, **kwargs)
                if post:
                    rec[5] = post(rec[5], args, out)
                return out
            finally:
                active[0] -= 1
                stack.pop()
                rec[2] = clock()

        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", target.attr)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        owners = [(t, _resolve(t.owner)) for t in TARGETS]
        modules = _cmreg_modules()
        for t, owner in owners:
            fn = owner.__dict__[t.attr]
            w = self._wrap(t, fn)
            self.originals[t.key] = fn
            if isinstance(owner, type):
                self._bindings.append((owner, t.attr, fn))
                setattr(owner, t.attr, w)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, name, fn))
                        setattr(mod, name, w)
        return self

    def uninstall(self):
        for ns, name, fn in reversed(self._bindings):
            setattr(ns, name, fn)
        self._bindings = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def export(self):
        """Spans as plain rows: name, start, end, parent, op, probe."""
        return [[s[0].key, s[1], s[2], s[3], s[4], s[5]] for s in self.spans]


# -- per-layer metrics ---------------------------------------------------

LAYER_METRICS = (
    "regularity.betti_s", "regularity.ext_s", "regularity.koszul_s",
    "regularity.duality_s", "regularity.relative_s", "regularity.complex_s",
    "modules.homology_calls", "modules.homology_self_s",
    "modules.kernel_calls", "modules.syz_calls", "modules.syz_self_s",
    "modules.subquotient_calls",
    "resolution.calls", "resolution.self_s", "resolution.hit_ratio",
    "resolution.betti_total", "resolution.syz_kept_ratio",
    "groebner.syzgen_calls", "groebner.syzgen_self_s", "groebner.syzgen_raw",
    "minimize.calls", "minimize.self_s", "minimize.units_eliminated",
    "groebner.calls", "groebner.self_s", "groebner.basis_elems",
    "complexes.calls", "complexes.self_s", "complexes.homology_calls",
    "complexes.homology_hit_ratio",
    "theorems.cmd1_s", "theorems.dim1_s", "theorems.tensor_s",
    "theorems.hom_s", "theorems.filter_s",
    "hilbert.series_calls", "hilbert.self_s", "hilbert.cache_entries",
    "groebner.defining_hit_ratio", "session.parse_s", "cli.self_s",
    "oracle.calls", "oracle.self_s",
)

# inclusive time of the outermost call of each function
_INCLUSIVE = {
    "regularity.betti_s": "cmreg.regularity.reg_via_betti",
    "regularity.ext_s": "cmreg.regularity.reg_via_ext",
    "regularity.koszul_s": "cmreg.regularity.reg_via_koszul",
    "regularity.duality_s": "cmreg.regularity.reg_via_duality",
    "regularity.relative_s": "cmreg.regularity.relative_reg",
    "regularity.complex_s": "cmreg.regularity.reg_complex",
    "theorems.cmd1_s": "cmreg.theorems.check_thm_cmd1",
    "theorems.dim1_s": "cmreg.theorems.check_thm_dim1",
    "theorems.tensor_s": "cmreg.theorems.check_cor_tensor",
    "theorems.hom_s": "cmreg.theorems.check_cor_hom",
    "theorems.filter_s": "cmreg.theorems.check_filter_regular_formula",
    "session.parse_s": "cmreg.session.parse_session",
}

_CALLS = {
    "modules.homology_calls": "cmreg.modules.homology_at",
    "modules.kernel_calls": "cmreg.modules.kernel",
    "modules.syz_calls": "cmreg.modules.syzygies_of_vectors",
    "modules.subquotient_calls": "cmreg.modules.present_subquotient",
    "resolution.calls": "cmreg.resolution.free_resolution",
    "groebner.syzgen_calls": "cmreg.groebner.syzygy_generators",
    "groebner.calls": "cmreg.groebner.groebner_basis",
    "complexes.homology_calls": "cmreg.complexes:BoundedComplex.homology",
    "hilbert.series_calls": "cmreg.hilbert.monomial_ideal_numerator",
}

_SELF_BY_KEY = {
    "modules.homology_self_s": "cmreg.modules.homology_at",
    "modules.syz_self_s": "cmreg.modules.syzygies_of_vectors",
    "resolution.self_s": "cmreg.resolution.free_resolution",
    "groebner.syzgen_self_s": "cmreg.groebner.syzygy_generators",
}

# layers whose calls count entries into the layer from outside it
_ENTRY_LAYERS = ("minimize", "complexes", "oracle")
_SELF_LAYERS = ("minimize", "groebner", "complexes", "hilbert", "cli",
                "oracle")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cache_entries):
    """Per-layer metrics from raw spans (see LAYER_METRICS).

    Times are in seconds, counts are whole numbers and ratios are in
    [0, 1]; a ratio with no attempts reads 0.
    """
    n = len(spans)
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
            children[s[3]].append(i)
    self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]

    def key(i):
        return spans[i][0].key

    def layer(i):
        return spans[i][0].layer

    def outermost_of_same(i):
        p = spans[i][3]
        while p >= 0:
            if key(p) == key(i):
                return False
            p = spans[p][3]
        return True

    def descendants(i):
        todo, out = list(children[i]), []
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children[j])
        return out

    out = {m: 0 for m in LAYER_METRICS}
    for m, k in _INCLUSIVE.items():
        out[m] = sum(s[2] - s[1] for i, s in enumerate(spans)
                     if key(i) == k and outermost_of_same(i))
    for m, k in _CALLS.items():
        out[m] = sum(1 for i in range(n) if key(i) == k)
    for m, k in _SELF_BY_KEY.items():
        out[m] = sum(self_time[i] for i in range(n) if key(i) == k)
    for lay in _ENTRY_LAYERS:
        out[f"{lay}.calls"] = sum(
            1 for i, s in enumerate(spans)
            if layer(i) == lay and (s[3] < 0 or layer(s[3]) != lay))
    for lay in _SELF_LAYERS:
        out[f"{lay}.self_s"] = sum(self_time[i] for i in range(n)
                                   if layer(i) == lay)

    res_hits = res_calls = betti_total = kept = raw = 0
    for i in range(n):
        if key(i) != "cmreg.resolution.free_resolution":
            continue
        res_calls += 1
        below = descendants(i)
        if not any(key(j) == "cmreg.groebner.groebner_basis" for j in below):
            res_hits += 1
            continue
        ranks = spans[i][5] or []
        betti_total += sum(ranks)
        kept += sum(ranks[2:])
        raw += sum(spans[j][5] for j in below
                   if key(j) == "cmreg.groebner.syzygy_generators")
    out["resolution.hit_ratio"] = _ratio(res_hits, res_calls)
    out["resolution.betti_total"] = betti_total
    out["resolution.syz_kept_ratio"] = _ratio(kept, raw)

    out["groebner.syzgen_raw"] = sum(
        s[5] for i, s in enumerate(spans)
        if key(i) == "cmreg.groebner.syzygy_generators")
    out["groebner.basis_elems"] = sum(
        s[5] for i, s in enumerate(spans)
        if key(i) == "cmreg.groebner.groebner_basis")
    out["minimize.units_eliminated"] = sum(
        s[5] for i, s in enumerate(spans)
        if key(i) == "cmreg.minimize.minimize_chain")

    def hit_ratio(k):
        probes = [s[5] for i, s in enumerate(spans) if key(i) == k]
        return _ratio(sum(1 for p in probes if p), len(probes))

    out["complexes.homology_hit_ratio"] = hit_ratio(
        "cmreg.complexes:BoundedComplex.homology")
    out["groebner.defining_hit_ratio"] = hit_ratio(
        "cmreg.groebner.defining_gb")
    out["hilbert.cache_entries"] = cache_entries
    return out


# metrics that count work; two traced passes over the same inputs must
# give identical values for these
COUNT_METRICS = tuple(
    m for m in LAYER_METRICS
    if m.endswith(("_calls", ".calls", "_raw", "_elems", "_total",
                   "_eliminated", "_entries", "_ratio")))
