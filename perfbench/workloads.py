"""The four benchmark workloads: their inputs, ops and correctness gates.

An op is one timed call into cmreg.  After the clock stops, ``render``
turns its output into canonical text, and ``gate(output, text)`` lists
what is wrong with it; an op with problems counts as failed.  Every call
into cmreg goes through a module attribute looked up at call time, so the
tracer's wrappers see it.

Why each workload exists (see README.md for the layer predictions):

- routes: the four regularity routes plus relative reg on the seeded
  corpus; the ext and koszul routes' homology dominates.
- checks: the five theorem checkers on the same corpus, reaching the same
  homology and Groebner layers through tensor/Hom totalization.
- scroll: the CLI ``family nilpotent-scroll`` path, pure resolution work
  (Buchberger, syzygies, minimization) with no homology.
- sessions: the CLI on the shipped session files, the only workload with
  quotient rings, the session parser and the documented failure exits.
"""

import contextlib
import glob
import importlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

DEFAULT_CORPUS_SEED = 101
ROUTES_COUNT = 30
# corpus_checks on all 30 instances takes about 70 s on the reference
# machine, 35 s of it on corpus-101-25; the first 13 instances take about
# 8 s and include the 4-variable instances 00, 01, 02 and 07.
CHECKS_COUNT = 13
# n = 5 alone takes about 22 s, more than a run's budget.  Each n runs
# SCROLL_REPEATS times per pass so a pass has more than ten ops.
SCROLL_NS = (2, 3, 4)
SCROLL_REPEATS = 4
SESSION_COMMANDS = ("reg", "betti", "depth", "oracle")
WORKLOADS = ("routes", "checks", "scroll", "sessions")


def _mod(name):
    return importlib.import_module(name)


def canon(obj):
    """Deterministic JSON text for engine output (tuples, sets, infinities
    and non-string keys included)."""
    def conv(v):
        if isinstance(v, dict):
            return {str(k): conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        if isinstance(v, (set, frozenset)):
            return sorted((conv(x) for x in v), key=repr)
        if isinstance(v, float) and v in (float("inf"), float("-inf")):
            return repr(v)
        if v is None or isinstance(v, (bool, int, float, str)):
            return v
        return repr(v)
    return json.dumps(conv(obj), sort_keys=True, separators=(",", ":"))


class Op:
    __slots__ = ("name", "run", "render", "gate")

    def __init__(self, name, run, render, gate):
        self.name = name
        self.run = run
        self.render = render
        self.gate = gate


def load_expected(workload):
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _stored(expected, name, text):
    want = expected.get(name)
    if want is not None and want != text:
        return ["output differs from the stored result"]
    return []


# -- routes ----------------------------------------------------------------

def _oracle_window(M):
    """Criterion 8: Betti numbers for i <= n, j <= 6 and the Hilbert
    function for j <= 6 agree with the dense oracle."""
    bt = _mod("cmreg.resolution").betti_table(M)
    oc = _mod("cmreg.oracle").DenseOracle(M)
    bad = [f"betti({i},{j})" for i in range(M.ring.nvars + 1)
           for j in range(7)
           if oc.betti_number(i, j) != bt.entries.get((i, j), 0)]
    bad += [f"hilbert({j})" for j in range(7)
            if oc.hilbert_function(j) != M.hilbert_function(j)]
    return bad


def _routes(corpus_seed, expected):
    corpus = _mod("cmreg.theorems").random_ideal_corpus(corpus_seed,
                                                        ROUTES_COUNT)
    ops = []
    for inst in corpus:
        def run(M=inst.module):
            return _mod("cmreg.regularity").regularity(M)

        def gate(rep, text, M=inst.module, name=inst.name):
            problems = []
            if not rep.agree or len(set(rep.routes.values())) != 1:
                problems.append(f"routes disagree: {rep.routes}")
            problems += [f"oracle mismatch {b}" for b in _oracle_window(M)]
            return problems + _stored(expected, name, text)
        ops.append(Op(inst.name, run, lambda rep: canon(rep.as_dict()),
                      gate))
    return ops


# -- checks ----------------------------------------------------------------

_VERDICTS = ("equality", "inequality", "not-asserted")


def _checks(corpus_seed, expected):
    corpus = _mod("cmreg.theorems").random_ideal_corpus(corpus_seed,
                                                        CHECKS_COUNT)
    ops = []
    for inst in corpus:
        def run(inst=inst):
            return _mod("cmreg.theorems").corpus_checks(inst)

        def gate(outcomes, text, inst=inst):
            problems = []
            if len(outcomes) != 5:
                problems.append(f"{len(outcomes)} outcomes, expected 5")
            # criterion 9: verdicts and the one-sided bounds
            for o in outcomes:
                lhs, rhs = o.conclusion["lhs"], o.conclusion["rhs"]
                if o.verdict not in _VERDICTS:
                    problems.append(f"{o.name}: verdict {o.verdict}")
                if o.name in ("cmd1", "dim1", "filter") and not lhs <= rhs:
                    problems.append(f"{o.name}: {lhs} > {rhs}")
                if (o.name in ("tensor", "hom") and lhs is not None
                        and not lhs >= rhs):
                    problems.append(f"{o.name}: {lhs} < {rhs}")
            value = _mod("cmreg.regularity").reg_via_duality(inst.module)[0]
            for o in outcomes:
                if o.name == "cmd1" and not value <= o.conclusion["rhs"]:
                    problems.append(f"cmd1 bound {o.conclusion['rhs']} "
                                    f"below reg {value}")
            return problems + _stored(expected, inst.name, text)
        ops.append(Op(inst.name, run,
                      lambda outs: canon([o.as_dict() for o in outs]), gate))
    return ops


# -- CLI workloads -------------------------------------------------------------

def cli_call(argv):
    """cmreg.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _mod("cmreg.cli").main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_render(got):
    return canon(got[:2])


def _cli_gate(key, expected, known=None):
    """Gate for a CLI op: its stored exit code and stdout bytes, then any
    known values."""
    def gate(got, _):
        code, out, _err = got
        want = expected.get(key)
        if want is not None:
            if code != want["exit"]:
                return [f"exit {code}, expected {want['exit']}"]
            if out != want["stdout"]:
                return ["stdout differs from the stored result"]
        return known(code, out) if known else []
    return gate


def _scroll(_, expected):
    _mod("cmreg.cli")
    ops = []
    for n in SCROLL_NS:
        def known(code, out, n=n):
            if code != 0:
                return [f"exit {code}"]
            r = json.loads(out)["result"]
            if (r["reg_ideal"], r["reg_ideal_plus_form"]) != (2, n + 1):
                return [f"reg {r['reg_ideal']}, {r['reg_ideal_plus_form']};"
                        f" expected 2, {n + 1}"]
            return []
        argv = ("family", "nilpotent-scroll", "--n", str(n))
        key = f"scroll-n{n}"
        for r in range(SCROLL_REPEATS):
            ops.append(Op(f"{key}-{r}", lambda argv=argv: cli_call(argv),
                          _cli_render, _cli_gate(key, expected, known)))
    return ops


def session_argvs(root):
    """(name, argv) for every sessions op, in canonical order."""
    parse = _mod("cmreg.session").parse_session
    out = []
    for path in sorted(glob.glob(os.path.join(root, "sessions", "*.cmreg"))):
        rel = os.path.relpath(path, root)
        with open(path, "r", encoding="utf-8") as fh:
            session = parse(fh.read())
        for binding in session.order:
            if session.kind_of(binding) not in ("module", "complex"):
                continue
            for cmd in SESSION_COMMANDS:
                out.append((f"{os.path.basename(path)}:{cmd}:{binding}",
                            ("--session", rel, cmd, binding)))
    det = os.path.join("sessions", "determinantal.cmreg")
    out.append(("determinantal.cmreg:check-filter:M",
                ("--session", det, "check", "filter", "--module", "M",
                 "--form", "z")))
    # H_1 of the Koszul complex on z is not of finite length: exit 2
    out.append(("determinantal.cmreg:koszul:zz:M",
                ("--session", det, "koszul", "zz", "M")))
    return out


def _sessions(_, expected, root):
    _mod("cmreg.cli")
    return [Op(name, lambda argv=argv: cli_call(argv), _cli_render,
               _cli_gate(name, expected))
            for name, argv in session_argvs(root)]


def build(workload, corpus_seed, root, expected=None):
    """The workload's ops in canonical order.  Stored results are loaded
    unless given; corpus results exist for the default corpus seed only."""
    if expected is None:
        expected = load_expected(workload)
        if (workload in ("routes", "checks")
                and corpus_seed != DEFAULT_CORPUS_SEED):
            expected = {}
    if workload == "routes":
        return _routes(corpus_seed, expected)
    if workload == "checks":
        return _checks(corpus_seed, expected)
    if workload == "scroll":
        return _scroll(corpus_seed, expected)
    if workload == "sessions":
        return _sessions(corpus_seed, expected, root)
    raise ValueError(f"unknown workload {workload!r}")
