"""Command-line surface: parse a session file, run one command against
its bindings, emit JSON or text on stdout.

Exit codes: 0 success; 1 usage or parse problem; 2 a computation could
not be carried out; 3 an identity that must hold was contradicted, which
means the engine itself is broken.

JSON output is deterministic: identical input and identical --seed give
byte-identical bytes.  Infinite values are encoded as null plus a "kind"
tag, since JSON has no infinities.

`main` builds its argument parser once per process, on the first call, so
in-process callers stop paying for argparse on every later call; a
one-shot `cmreg` process builds it once either way and is unchanged.
"""

import argparse
import functools
import json
import sys
from math import inf

from .complexes import ext_complex, tor_complex
from .modules import PresentedModule
from .regularity import (depth, depth_profile, reg_via_koszul, regularity,
                         run_routes)
from .resolution import betti_table, check_max_len, free_resolution
from .oracle import DenseOracle
from .session import (ParseError, Session, UnknownBinding, parse_polynomial,
                      parse_session, transfer_polys)
from .theorems import (TheoremContradiction, check_ab_formula,
                       check_cor_hom, check_cor_tensor,
                       check_filter_regular_formula, check_ring_independence,
                       check_thm_cmd1, check_thm_dim1, scroll_member)

SCHEMA = "cmreg/1"


class UsageError(Exception):
    pass


# -- serialization ---------------------------------------------------------

def jsonable(v):
    """Plain data with infinities replaced by tagged nulls."""
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, float):
        if v == inf:
            return {"value": None, "kind": "plus_infinity"}
        if v == -inf:
            return {"value": None, "kind": "minus_infinity"}
        return v
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return str(v)


def _scalar_text(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v == inf:
            return "+inf"
        if v == -inf:
            return "-inf"
    return str(v)


def _text_lines(v, indent=0):
    pad = "  " * indent
    if isinstance(v, dict):
        out = []
        for k, val in v.items():
            if isinstance(val, (dict, list, tuple)) and val:
                out.append(f"{pad}{k}:")
                out.extend(_text_lines(val, indent + 1))
            else:
                out.append(f"{pad}{k}: {_scalar_text(val)}")
        return out
    if isinstance(v, (list, tuple)):
        out = []
        for item in v:
            if isinstance(item, (dict, list, tuple)):
                out.append(f"{pad}-")
                out.extend(_text_lines(item, indent + 1))
            else:
                out.append(f"{pad}- {_scalar_text(item)}")
        return out
    return [f"{pad}{_scalar_text(v)}"]


# -- command handlers ------------------------------------------------------

def _module_profile(H, max_degree=None):
    """dim, indeg, top degree and values of a module's Hilbert series H."""
    ind, top = H.indeg(), H.top_degree()
    lo = 0 if ind == inf else ind
    if top != inf:
        hi = top
    else:
        hi = max_degree if max_degree is not None else lo + 6
    if max_degree is not None:
        hi = min(hi, max_degree)
    return {
        "dim": H.dimension(),
        "indeg": ind,
        "top_degree": top,
        "values": [{"degree": j, "dim": H.coefficient(j)}
                   for j in range(lo, hi + 1)],
    }


def cmd_reg(session, args):
    obj = session.get(args.name, ("module", "complex"))
    if isinstance(obj, PresentedModule):
        return regularity(obj, max_len=args.max_len).as_dict()
    if args.max_len is not None:
        raise UsageError("reg on a complex takes no --max-len: no value it "
                         "reports reads a truncated resolution")
    # run_routes raises on a mismatch, so the routes agree here
    value, runs = run_routes(obj)
    return {"routes": {name: v for name, (v, _) in runs.items()},
            "agree": True, "value": value}


def cmd_betti(session, args):
    M = session.get(args.name, ("module",))
    bt = betti_table(M, max_len=args.max_len)
    return {"ring": repr(M.ring), "table": bt.to_json(),
            "regularity": bt.regularity(), "pd": bt.projective_dimension(),
            "truncated": not bt.complete}


def cmd_hilbert(session, args):
    M = session.get(args.name, ("module",))
    hs = M.hilbert_series()
    ind, top = hs.indeg(), hs.top_degree()
    lo = 0 if ind == inf else min(ind, 0)
    if args.max_degree is not None:
        hi = args.max_degree
        if hi < lo:
            raise UsageError(f"--max-degree {hi} leaves the hilbert window "
                             f"empty: it starts at degree {lo}")
    elif top != inf:
        hi = max(top, lo - 1)  # a zero module lists no values
    else:
        hi = max(lo + 10, 10)
    return {"dimension": hs.dimension(), "indeg": ind, "top_degree": top,
            "values": [{"degree": j, "dim": hs.coefficient(j)}
                       for j in range(lo, hi + 1)]}


def cmd_dim(session, args):
    M = session.get(args.name, ("module",))
    return {"dim": M.dimension()}


def cmd_depth(session, args):
    M = session.get(args.name, ("module",))
    return {"depth": depth(M), "profile": depth_profile(M)}


def _modules(session, *names):
    """The modules bound to names, which must all live over one ring."""
    mods = [session.get(n, ("module",)) for n in names]
    if any(M.ring != mods[0].ring for M in mods[1:]):
        raise UsageError("the modules live over different rings")
    return mods


def _derived(session, args, key, build, sign):
    """Profiles of the nonzero H_{sign*i}(C) for i >= 0, ascending in i,
    with C = build(A, B) on the resolution of A: sign 1 lists Tor_i, sign
    -1 lists Ext^i (at spot -i).  When that resolution is truncated at
    length L, H_L(C) lacks d_{L+1} and is not Tor_L or Ext^L, so only
    i < L is listed."""
    A, B = _modules(session, args.first, args.second)
    res = free_resolution(A, max_len=args.max_len)
    C = build(A, B, max_len=args.max_len)
    top = inf if res.complete else res.length
    series = {sign * s: H for s, H in C.nonzero_homology_series().items()}
    entries = [{"i": i, **_module_profile(series[i], args.max_degree)}
               for i in sorted(series) if 0 <= i < top]
    if entries and not any(e["values"] for e in entries):
        start = min(e["indeg"] for e in entries)
        raise UsageError(f"--max-degree {args.max_degree} leaves every {key} "
                         f"window empty: the lowest starts at degree {start}")
    return {"modules": [args.first, args.second], key: entries,
            "truncated": not res.complete}


def cmd_tor(session, args):
    return _derived(session, args, "tor", tor_complex, 1)


def cmd_ext(session, args):
    return _derived(session, args, "ext", ext_complex, -1)


def cmd_koszul(session, args):
    forms = session.get(args.sequence, ("sequence",))
    M = session.get(args.name, ("module",))
    try:
        forms = transfer_polys(forms, M.ring)
    except ValueError as e:
        raise UsageError(str(e))
    value, witness = reg_via_koszul(M, forms=forms)
    return {"value": value,
            "witness": list(witness) if witness else None,
            "forms": [str(f) for f in forms]}


def cmd_check(session, args):
    kind = args.kind
    seed = args.seed

    def need(flag, value):
        if value is None:
            raise UsageError(f"check {kind} needs {flag}")
        return value

    if kind == "ab":
        M, N = _modules(session, need("--module", args.module),
                        need("--with", args.with_))
        out = check_ab_formula(M, N, instance=f"{args.module},{args.with_}",
                               seed=seed)
    elif kind in ("cmd1", "dim1"):
        if args.complex_ is not None:
            obj = session.get(args.complex_, ("complex",))
            label = args.complex_
        else:
            obj = session.get(need("--complex or --module", args.module),
                              ("module",))
            label = args.module
        fn = check_thm_cmd1 if kind == "cmd1" else check_thm_dim1
        out = fn(obj, instance=label, seed=seed)
    elif kind == "tensor":
        names = [n.strip() for n in need("--modules", args.modules).split(",")]
        if len(names) < 2:
            raise UsageError("check tensor needs at least two modules in "
                             "--modules")
        mods = _modules(session, *names)
        out = check_cor_tensor(*mods, instance=",".join(names), seed=seed)
    elif kind == "hom":
        M, N = _modules(session, need("--module", args.module),
                        need("--with", args.with_))
        out = check_cor_hom(M, N, instance=f"{args.module},{args.with_}",
                            seed=seed)
    elif kind == "filter":
        M = session.get(need("--module", args.module), ("module",))
        form = parse_polynomial(need("--form", args.form), M.ring)
        out = check_filter_regular_formula(M, form, instance=args.module,
                                           seed=seed)
    else:  # ring-indep: argparse admits no other kind
        M = session.get(need("--module", args.module), ("module",))
        if args.extra < 1:
            raise UsageError("check ring-indep needs --extra of at least 1")
        out = check_ring_independence(M, extra_vars=args.extra,
                                      instance=args.module, seed=seed)
    return out.as_dict()


def cmd_family(session, args):
    if args.n < 2:
        raise UsageError("the family starts at n = 2")
    Rn, minors, z, reg_i, reg_iz = scroll_member(args.n)
    return {"n": args.n, "ring": repr(Rn),
            "generators": [str(m) for m in minors], "form": str(z),
            "reg_ideal": reg_i, "reg_ideal_plus_form": reg_iz}


def cmd_oracle(session, args):
    """The resolution's Betti numbers and the Hilbert function against the
    dense oracle's, at every (i, j) and degree of the oracle's own window,
    window(d_cap): the Betti tables agree only when equal there."""
    M = session.get(args.name, ("module",))
    Mc = M.lift_to_cover()
    d_cap = args.max_degree if args.max_degree is not None else 6
    oc = DenseOracle(Mc, max_degree=max(8, d_cap + Mc.ring.nvars))
    lo, hi = oc.window(d_cap)
    if hi < lo:
        raise UsageError(f"--max-degree {d_cap} leaves the oracle window "
                         f"empty: it would end at degree {hi}, below its "
                         f"start at degree {lo}")
    sym = {(i, j): b for (i, j), b in betti_table(Mc).entries.items()
           if lo <= j <= hi}
    orc = oc.betti_table(max_degree=d_cap)
    betti_rows = [{"i": i, "j": j, "resolution": sym.get((i, j), 0),
                   "oracle": orc.get((i, j), 0)}
                  for (i, j) in sorted(sym.keys() | orc.keys())]
    hs = Mc.hilbert_series()
    hilbert_rows = [{"degree": j, "series": hs.coefficient(j),
                     "oracle": oc.hilbert_function(j)}
                    for j in range(lo, hi + 1)]
    agree = sym == orc and all(r["series"] == r["oracle"]
                               for r in hilbert_rows)
    return {"max_degree": d_cap, "agrees": agree, "betti": betti_rows,
            "hilbert": hilbert_rows}


_HANDLERS = {
    "reg": cmd_reg,
    "betti": cmd_betti,
    "hilbert": cmd_hilbert,
    "dim": cmd_dim,
    "depth": cmd_depth,
    "tor": cmd_tor,
    "ext": cmd_ext,
    "koszul": cmd_koszul,
    "check": cmd_check,
    "family": cmd_family,
    "oracle": cmd_oracle,
}


# the commands whose values read a truncated resolution
_TRUNCATED = ("reg", "betti", "tor", "ext")


def run_command(session, args):
    if args.max_len is not None and args.command not in _TRUNCATED:
        raise UsageError(f"{args.command} takes no --max-len: no value it "
                         f"reports reads a truncated resolution")
    return _HANDLERS[args.command](session, args)


# -- argument parsing ------------------------------------------------------

def _max_len_arg(text):
    try:
        n = int(text)
        check_max_len(n)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return n


def _add_global_flags(p, trailing):
    # trailing parsers must not clobber values given before the subcommand
    d = {"default": argparse.SUPPRESS} if trailing else {}
    p.add_argument("--session", metavar="PATH",
                   help="session file to load; - reads stdin", **d)
    p.add_argument("--format", choices=("json", "text"),
                   **(d if trailing else {"default": "json"}))
    p.add_argument("--seed", type=int,
                   help="seed recorded in check outcomes",
                   **(d if trailing else {"default": 0}))
    p.add_argument("--max-degree", type=int, dest="max_degree",
                   help="degree window cap for tables", **d)
    p.add_argument("--max-len", type=_max_len_arg, dest="max_len",
                   metavar="N",
                   help="reg, betti, tor and ext: truncate free "
                        "resolutions after homological degree N >= 1, over "
                        "polynomial and quotient rings alike; a truncated "
                        "table is exact up to N and marked incomplete", **d)
    p.add_argument("--field", type=int,
                   help="override the prime of every GF declaration", **d)


@functools.cache
def build_parser():
    # parse_args leaves the parser as it found it: every call fills a fresh
    # Namespace and writes usage and errors to the sys.stderr of the moment
    ap = argparse.ArgumentParser(
        prog="cmreg",
        description="Exact regularity of graded modules and complexes, "
                    "by independent routes that must agree.")
    _add_global_flags(ap, trailing=False)
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_flags(shared, trailing=True)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("reg", "betti", "hilbert", "dim", "depth", "oracle"):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("name", help="a session binding")
    for name in ("tor", "ext"):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("first")
        p.add_argument("second")
    p = sub.add_parser("koszul", parents=[shared])
    p.add_argument("sequence")
    p.add_argument("name")
    p = sub.add_parser("check", parents=[shared])
    p.add_argument("kind", choices=("ab", "cmd1", "dim1", "tensor", "hom",
                                    "filter", "ring-indep"))
    p.add_argument("--module")
    p.add_argument("--with", dest="with_")
    p.add_argument("--complex", dest="complex_")
    p.add_argument("--modules", help="comma-separated module bindings")
    p.add_argument("--form", help="polynomial expression")
    p.add_argument("--extra", type=int, default=1,
                   help="extra cover variables for ring-indep (at least 1)")
    p = sub.add_parser("family", parents=[shared])
    p.add_argument("kind", choices=("nilpotent-scroll",))
    p.add_argument("--n", type=int, required=True)
    return ap


def _load_session(args):
    if not args.session:
        return Session()
    if args.session == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.session, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read session file: {e}")
    return parse_session(text, field_override=args.field)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        session = _load_session(args)
        report = run_command(session, args)
    except (ParseError, UnknownBinding, UsageError) as e:
        print(f"cmreg: {e}", file=sys.stderr)
        return 1
    except TheoremContradiction as e:
        print(f"cmreg: contradiction: {e}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as e:
        print(f"cmreg: {e}", file=sys.stderr)
        return 2
    result = jsonable(report)
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.command,
                   "result": result}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_text_lines(result)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
