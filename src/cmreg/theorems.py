"""Instance-level verification of the regularity identities on explicit
modules and complexes.

Each checker evaluates the hypotheses of one identity on a concrete input
and then compares the two sides of the claimed conclusion.  A complex's
regularity is read by the totalized-Koszul route (reg_complex) and every
module's, each homology module included, off its duality rows (`_reg`),
so the two routes never feed each other.  The outcome records the
hypothesis verdict with witnesses, both values, and the intermediate
invariants, so a corpus run can be audited line by line.

A false conclusion under verified hypotheses cannot be blamed on the
input; it means the engine is broken.  Checkers raise
TheoremContradiction in that case instead of returning a report.  The
same policy applies to the unconditional one-sided bounds, which must
hold even when an instance fails the hypotheses of the sharp statement.
`_finish` is the one home of that rule: it builds every outcome and is
the only place that raises TheoremContradiction, so every checker, and
every one-sided bound a checker tests on the way, reports through it.
Checkers that take several modules refuse modules over different rings
with ValueError.
"""

import random
from math import inf

from .complexes import (_as_complex, complex_from_module, ext_complex,
                        koszul_complex, resolution_to_complex,
                        tensor_complexes, tensor_free_with_complex,
                        tor_complex)
from .freemod import FreeModule
from .modules import (PresentedModule, colon_by_element, kernel,
                      multiplication_map, quotient_by_element)
from .poly import Polynomial
from .regularity import (_duality_series, depth, reg_complex,
                         reg_via_betti, reg_via_duality, reg_via_ext,
                         relative_reg)
from .resolution import free_resolution
from .rings import GradedRing, polynomial_ring


class TheoremContradiction(RuntimeError):
    """Hypotheses verified but the conclusion is false: an engine bug."""

    def __init__(self, outcome):
        self.outcome = outcome
        c = outcome.conclusion
        super().__init__(
            f"{outcome.name} on {outcome.instance}: lhs={c['lhs']} "
            f"rhs={c['rhs']} with hypothesis {outcome.hypothesis['verdict']}")


class SaturationError(RuntimeError):
    """Random linear forms failed verification after the retry budget."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(f"no saturated sequence found: {certificate}")


class CheckOutcome:
    """Auditable record of one identity checked on one instance.

    hypothesis: {"verdict": "holds" | "fails", "witnesses": [...]}
    conclusion: {"verdict": "equality" | "inequality" | "violated"
                 | "not-asserted", "lhs": value, "rhs": value}
    invariants: every intermediate quantity the verdicts were based on.
    """

    __slots__ = ("name", "instance", "hypothesis", "conclusion",
                 "invariants", "seed")

    def __init__(self, name, instance, hypothesis, conclusion, invariants,
                 seed=None):
        self.name = name
        self.instance = instance
        self.hypothesis = hypothesis
        self.conclusion = conclusion
        self.invariants = invariants
        self.seed = seed

    @property
    def verdict(self):
        return self.conclusion["verdict"]

    def as_dict(self):
        return {
            "check": self.name,
            "instance": self.instance,
            "seed": self.seed,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "invariants": self.invariants,
        }

    def __repr__(self):
        return (f"CheckOutcome({self.name}, {self.instance!r}, "
                f"hypothesis={self.hypothesis['verdict']}, "
                f"verdict={self.verdict})")


def _hypothesis(witnesses, **extra):
    """The hypothesis record: it holds exactly when nothing witnesses a
    failure."""
    return {"verdict": "holds" if not witnesses else "fails",
            "witnesses": witnesses, **extra}


def _finish(name, instance, hypothesis, lhs, rhs, invariants, seed=None,
            asserts="equality", slack=None, closed=True):
    """Assemble the outcome and police the contradiction rule.

    asserts: what the identity claims under its hypotheses, "equality" or
    "lhs<=rhs", or None when nothing is asserted (lhs and rhs are None).
    slack: the one-sided bound that survives a hypothesis failure
    ("lhs<=rhs" or "lhs>=rhs"), or None when nothing does.  closed: False
    when an equality the identity also claims, beside lhs = rhs, is false;
    lhs = rhs is then a violation.
    """
    holds = hypothesis["verdict"] == "holds"
    breached = ((slack == "lhs<=rhs" and lhs > rhs)
                or (slack == "lhs>=rhs" and lhs < rhs))
    if asserts is None:
        verdict = "not-asserted"
    elif lhs == rhs:
        verdict = "equality" if closed else "violated"
    elif asserts == "equality":
        verdict = "violated" if (holds or breached) else "inequality"
    else:
        verdict = "inequality" if lhs < rhs else "violated"
    out = CheckOutcome(name, instance,
                       hypothesis, {"verdict": verdict, "lhs": lhs, "rhs": rhs},
                       invariants, seed)
    if verdict == "violated" and (holds or breached):
        raise TheoremContradiction(out)
    return out


def _not_asserted(name, instance, witness, seed):
    return _finish(name, instance, _hypothesis([witness]), None, None, {},
                   seed, asserts=None)


def _reg(M):
    """reg M off the duality rows kept on the cover ring under M's key
    (cmreg.regularity): the one reader of a module's value in every
    checker, which starts no other route on a module."""
    return reg_via_duality(M)[0]


def _one_ring(modules):
    """The common ring of modules; ValueError when they live over
    different rings."""
    ring = modules[0].ring
    if any(M.ring != ring for M in modules[1:]):
        raise ValueError("the modules live over different rings")
    return ring


# -- homology-wise regularity of complexes ---------------------------------

def _homology_profile(C):
    """{spot: {"reg", "depth", "dim"} of H} over the nonzero homology H of
    C, and sup{reg H_s - s} (-inf when C is exact)."""
    profile = {}
    for s in C.levels():
        H = C.homology(s)
        if not H.is_zero():
            profile[s] = {"reg": _reg(H), "depth": depth(H),
                          "dim": H.dimension()}
    return profile, max((p["reg"] - s for s, p in profile.items()),
                        default=-inf)


def _homology_formula(L, name, instance, witness_fn, seed=None):
    """Shared core: reg L (totalized Koszul, reg_complex) against
    sup{reg H_i - i} (each H_i's duality rows, `_reg`), with the
    hypothesis delegated to witness_fn.

    Also enforces the two unconditional bounds: reg L never exceeds the
    homology-wise sup, and never exceeds the termwise sup{reg L_i - i}.
    """
    L = _as_complex(L)
    profile, rhs = _homology_profile(L)
    lhs = reg_complex(L)
    invariants = {f"H_{i}": p for i, p in profile.items()}
    termwise = -inf
    for i in L.levels():
        T = L.term(i)
        if not T.is_zero():
            termwise = max(termwise, _reg(T) - i)
    invariants["termwise_bound"] = termwise
    hypothesis = _hypothesis(witness_fn(profile))
    # the termwise bound: this outcome only raises on a breach
    _finish(name, instance, hypothesis, lhs, termwise, invariants, seed=seed,
            asserts="lhs<=rhs", slack="lhs<=rhs")
    return _finish(name, instance, hypothesis, lhs, rhs, invariants,
                   seed=seed, asserts="equality", slack="lhs<=rhs")


def _staircase(profile):
    """(i, j) for each nonzero spot i, with the next nonzero spot j above,
    where depth at i < dim at j - (j - i); profile maps the nonzero spots
    to their {"depth", "dim"}.  Between neighbours that is the staircase
    condition depth H_i >= dim H_{i+1} - 1.  Across zero homology it is
    what makes the spectral sequence's differentials from H_i to H_j
    vanish, so a zero module never meets the condition vacuously."""
    spots = sorted(profile)
    return [(i, j) for i, j in zip(spots, spots[1:])
            if profile[i]["depth"] < profile[j]["dim"] - (j - i)]


def check_thm_cmd1(L, instance="complex", seed=None):
    """reg L = sup{reg H_i(L) - i} under the staircase condition
    depth H_i >= dim H_{i+1} - 1 for every i below the top homology spot,
    read across zero homology as depth H_i >= dim H_j - (j - i) for each
    nonzero H_i and the next nonzero H_j above it."""

    def witness_fn(profile):
        return [{"spot": i, "depth": profile[i]["depth"],
                 "dim_above": profile[j]["dim"]}
                for i, j in _staircase(profile)]

    return _homology_formula(L, "cmd1", instance, witness_fn, seed=seed)


def check_thm_dim1(G, instance="complex", seed=None):
    """reg G = sup{reg H_i(G) - i} when every homology module above the
    bottom spot has dimension at most one."""

    def witness_fn(profile):
        bottom = min(profile, default=0)
        return [{"spot": i, "dim": p["dim"]}
                for i, p in sorted(profile.items())
                if i != bottom and p["dim"] > 1]

    return _homology_formula(G, "dim1", instance, witness_fn, seed=seed)


# -- regularity along derived tensor products ------------------------------

def check_ab_formula(M, N, instance="pair", seed=None):
    """reg(M tensor-L N) = reg M + rel.reg N = reg M + reg N - reg R,
    for N of certified finite projective dimension; also the closed loop
    reg N - rel.reg N = reg R for the same N."""
    ring = _one_ring((M, N))
    res = free_resolution(N)
    if not res.complete:
        return _not_asserted("ab", instance,
                             {"reason": "projective dimension not certified "
                                        "finite", "levels": res.length}, seed)
    rel = relative_reg(N)
    lhs = reg_complex(tor_complex(N, M))
    reg_m = _reg(M)
    reg_n = _reg(N)
    reg_r = _reg(PresentedModule.cyclic(ring, []))
    invariants = {"reg_M": reg_m, "reg_N": reg_n, "reg_ring": reg_r,
                  "relative_reg_N": rel.value, "pd_N": res.length}
    # every value here is an int or -inf, never +inf
    rhs = reg_m + rel.value
    eqs = [lhs == rhs, lhs == reg_m + reg_n - reg_r]
    if not N.is_zero():
        eqs.append(reg_n - rel.value == reg_r)
    invariants["loop_closed"] = all(eqs)
    return _finish("ab", instance, _hypothesis([]), lhs, rhs, invariants,
                   seed=seed, closed=all(eqs))


def check_cor_tensor(*modules, instance="tensor", seed=None):
    """max{reg Tor_i(M_1..M_d) - i} = sum reg M_j - (d-1) reg R when the
    higher Tor modules have dimension at most one and all but the last
    factor have certified finite projective dimension."""
    if len(modules) < 2:
        raise ValueError("need at least two modules")
    ring = _one_ring(modules)
    resolutions = []
    for t, M in enumerate(modules[:-1]):
        res = free_resolution(M)
        if not res.complete:
            return _not_asserted("tensor", instance,
                                 {"factor": t, "reason": "projective "
                                  "dimension not certified finite"}, seed)
        resolutions.append(res)
    F = resolution_to_complex(resolutions[0])
    for res in resolutions[1:]:
        F = tensor_complexes(F, resolution_to_complex(res))
    T = tensor_free_with_complex(F, complex_from_module(modules[-1]))
    profile, lhs = _homology_profile(T)
    invariants = {f"Tor_{i}": {"reg": p["reg"], "dim": p["dim"]}
                  for i, p in profile.items()}
    witnesses = [{"spot": i, "dim": p["dim"]} for i, p in profile.items()
                 if i >= 1 and p["dim"] > 1]
    reg_r = _reg(PresentedModule.cyclic(ring, []))
    rhs = -inf if any(M.is_zero() for M in modules) else -(len(modules) - 1) * reg_r
    for t, M in enumerate(modules):
        r = _reg(M)
        invariants[f"reg_factor_{t}"] = r
        rhs += r
    invariants["reg_ring"] = reg_r
    return _finish("tensor", instance, _hypothesis(witnesses), lhs, rhs,
                   invariants,
                   seed=seed, asserts="equality", slack="lhs>=rhs")


# -- regularity along derived Hom ------------------------------------------

def check_cor_hom(M, N, instance="pair", seed=None):
    """max{reg Ext^i(M,N) + i} = reg N - indeg M under the staircase
    condition depth Ext^i >= dim Ext^{i-1} - 1 above the least index,
    read across zero Ext as depth Ext^j >= dim Ext^i - (j - i) for each
    nonzero Ext^i and the next nonzero Ext^j above it."""
    _one_ring((M, N))
    res = free_resolution(M)
    if not res.complete:
        raise ValueError(
            "derived Hom is not bounded here: the projective dimension of "
            f"the source was not certified finite within {res.length} steps")
    E = ext_complex(M, N)
    # Ext^i sits at spot -i, so reg Ext^i + i is reg H_s - s
    profile, lhs = _homology_profile(E)
    invariants = {f"Ext_{-s}": profile[s]
                  for s in sorted(profile, reverse=True)}
    # Ext^i sits at spot -i, so the staircase over spots reads depth
    # Ext^j >= dim Ext^i - (j - i) for consecutive nonzero Ext^i and
    # Ext^j, i < j; witnesses are listed by ascending index
    witnesses = [{"index": -s, "depth": profile[s]["depth"],
                  "dim_below": profile[t]["dim"]}
                 for s, t in reversed(_staircase(profile))]
    reg_n = _reg(N)
    rhs = reg_n - M.indeg() if not M.is_zero() else -inf
    invariants["reg_N"] = reg_n
    invariants["indeg_M"] = M.indeg()
    return _finish("hom", instance, _hypothesis(witnesses), lhs, rhs,
                   invariants,
                   seed=seed, asserts="equality", slack="lhs>=rhs")


def check_hom_dim1(ideal_gens, N, instance="pair", seed=None):
    """reg Hom(R/I, N) <= reg N when that Hom module has dimension at most
    one; the base ring must be polynomial."""
    ring = N.ring
    if not ring.is_polynomial:
        raise ValueError("this bound is for polynomial base rings")
    H = N
    for g in ideal_gens:
        phi, _ = multiplication_map(H, g)
        H, _ = kernel(phi)
    dm = H.dimension()
    hypothesis = _hypothesis([] if dm <= 1 else [{"dim": dm}])
    lhs = _reg(H)
    rhs = _reg(N)
    invariants = {"dim_hom": dm, "reg_hom": lhs, "reg_N": rhs}
    return _finish("hom-dim1", instance, hypothesis, lhs, rhs, invariants,
                   seed=seed, asserts="lhs<=rhs", slack=None)


# -- one linear (or higher-degree) cut -------------------------------------

def check_filter_regular_formula(M, x, instance="module", seed=None):
    """reg M = max{reg(0:x), reg M/xM - d + 1} for a form x of degree
    d >= 1, under depth M/xM >= dim(0:x) - 1.  Without the hypothesis only
    <= survives, and the outcome records whether the gap is strict."""
    x = M.ring.reduce(x)
    if x.is_zero() or not x.is_homogeneous():
        raise ValueError("need a nonzero homogeneous form")
    d = x.homogeneous_degree()
    if d < 1:
        raise ValueError("the filter formula needs a form of positive degree")
    C, _ = colon_by_element(M, x)
    Q = quotient_by_element(M, x)
    dep_q = depth(Q)
    dim_c = C.dimension()
    hypothesis = _hypothesis(
        [] if dep_q >= dim_c - 1
        else [{"depth_quotient": dep_q, "dim_colon": dim_c}])
    lhs = _reg(M)
    reg_c = _reg(C)
    reg_q = _reg(Q)
    rhs = max(reg_c, reg_q - (d - 1))
    invariants = {"degree": d, "reg_colon": reg_c, "reg_quotient": reg_q,
                  "depth_quotient": dep_q, "dim_colon": dim_c,
                  "strict": lhs < rhs}
    return _finish("filter", instance, hypothesis, lhs, rhs, invariants,
                   seed=seed, asserts="equality", slack="lhs<=rhs")


# -- independence from the presentation ------------------------------------

def _with_extra_vars(M, extra):
    """The same module presented over a cover with extra variables, each
    new variable made zero in the quotient."""
    ring = M.ring
    taken = set(ring.names)
    fresh, k = [], 0
    while len(fresh) < extra:
        cand = f"u{k}"
        k += 1
        if cand not in taken:
            fresh.append(cand)
    names = list(ring.names) + fresh
    pad = (0,) * extra
    S2 = GradedRing(ring.field, names)
    defining2 = [Polynomial(S2, {tuple(m) + pad: c for m, c in g.terms.items()})
                 for g in ring.defining]
    for j in range(extra):
        expt = [0] * len(names)
        expt[len(ring.names) + j] = 1
        defining2.append(S2.monomial(expt))
    R2 = S2.quotient(defining2)
    F2 = FreeModule(R2, M.gens_free.twists)
    cols2 = [{(p, tuple(m) + pad): c for (p, m), c in col.items()}
             for col in M.rel_cols]
    return PresentedModule(R2, F2, cols2)


def check_ring_independence(M, extra_vars=1, instance="module", seed=None):
    """The Ext-route value and the local cohomology of the module do not
    depend on which polynomial ring presents it, compared over a cover
    with extra_vars >= 1 more variables.  The identity is about the ext
    route itself, so it runs that route, not `_reg`.

    The local cohomology is compared as its duality rows,
    {i: HS(Ext^{n-i}_S(M, S(-n)))}, which are exact in every degree: the
    rows of M (cmreg.regularity), written over the n2 variables of the
    larger cover, against the rows of the module over that cover, killed
    by the extra variables u.  Each side is read off the dual of its own
    resolution, F and F (x) K(u), so the two sides come from two
    complexes over two rings (Rees' lemma and graded local duality, Bruns
    and Herzog 3.1.16 and 3.6.19)."""
    if extra_vars < 1:
        raise ValueError("ring independence needs at least one extra variable")
    M2 = _with_extra_vars(M, extra_vars)
    e1 = reg_via_ext(M)[0]
    e2 = reg_via_ext(M2)[0]
    n2 = M2.ring.cover.nvars
    rows1 = {i: E.over(n2) for i, E in _duality_series(M).items()}
    rows2 = _duality_series(M2)
    tables_match = rows1 == rows2
    hypothesis = _hypothesis(
        [], covers=[repr(M.ring.cover), repr(M2.ring.cover)])
    invariants = {"ext_route": [e1, e2],
                  "row_support": [sorted(rows1), sorted(rows2)],
                  "tables_match": tables_match}
    return _finish("ring-indep", instance, hypothesis, e1, e2, invariants,
                   seed=seed, closed=tables_match)


# -- the one-nilpotent-block scroll family ---------------------------------

def nilpotent_scroll_family(n):
    """(ring, ideal generators, distinguished form) for the family indexed
    by n >= 2: minors of a 2 x (n+2) matrix with one nilpotent block and
    one extra column, the form being the last x-variable.

    The ideal has regularity 2 for every n, while adding the form drives
    the regularity of the cut ideal up to n + 1: a single linear cut can
    raise regularity by an arbitrary amount.
    """
    if n < 2:
        raise ValueError("the family starts at n = 2")
    names = [f"x{i}" for i in range(1, n + 2)] + ["y1", "y2"]
    Rn = polynomial_ring(names)
    gens = Rn.gens()
    xs, ys = gens[:n + 1], gens[n + 1:]
    top = [Rn.zero_poly()] + list(xs[:n]) + [ys[0]]
    bot = list(xs) + [ys[1]]
    minors = []
    for a in range(n + 2):
        for b in range(a + 1, n + 2):
            m = top[a] * bot[b] - top[b] * bot[a]
            if not m.is_zero():
                minors.append(m)
    return Rn, minors, xs[n]


def scroll_member(n):
    """(ring, ideal generators, form, reg of the ideal, reg of the ideal
    plus the form) for member n of the scroll family, by the betti route
    on the cyclic modules S/I: reg I = reg(S/I) + 1 for a proper nonzero
    ideal I.  The family is no checker: it reads Betti tables alone."""
    Rn, minors, z = nilpotent_scroll_family(n)
    return (Rn, minors, z,
            reg_via_betti(PresentedModule.cyclic(Rn, minors))[0] + 1,
            reg_via_betti(PresentedModule.cyclic(Rn, minors + [z]))[0] + 1)


# -- random saturated sequences --------------------------------------------

def _random_linear_form(ring, rng):
    field = ring.field
    p = field.characteristic
    nv = ring.nvars
    while True:
        if p:
            coeffs = [rng.randrange(p) for _ in range(nv)]
        else:
            coeffs = [rng.randint(-10, 10) for _ in range(nv)]
        if any(coeffs):
            break
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            expt = tuple(1 if j == i else 0 for j in range(nv))
            terms[expt] = field.from_int(c)
    return Polynomial(ring, terms)


def _saturation_failure(forms, M, mods):
    """None when the sequence verifies, else a certificate of what broke."""
    Q = M
    for f in forms:
        Q = quotient_by_element(Q, f)
    if Q.dimension() > 0:
        return {"reason": "not a system of parameters",
                "dim_after_cut": Q.dimension()}
    for t, N in enumerate(mods):
        if N.is_zero():
            continue
        prefix = min(len(forms), depth(N))
        cur = N
        for s in range(prefix):
            col, _ = colon_by_element(cur, forms[s])
            if not col.is_zero():
                return {"reason": "prefix not regular", "module": t,
                        "step": s}
            cur = quotient_by_element(cur, forms[s])
        series = koszul_complex(forms, N).nonzero_homology_series()
        for i, H in series.items():
            if i > 0 and H.dimension() > 0:
                return {"reason": "positive homology not finite length",
                        "module": t, "spot": i, "dim": H.dimension()}
    return None


SATURATION_TRIES = 5


def saturated_sequence(M, others=(), seed=0):
    """dim M random linear forms forming a system of parameters for M,
    with regular prefixes and finite-length positive Koszul homology for
    M and every module in others.  Verified after sampling, never assumed:
    over a finite field a random draw can miss, so failures resample with
    a derived seed up to SATURATION_TRIES times before raising
    SaturationError."""
    r = M.dimension()
    if r <= 0:
        return []
    ring = M.ring
    mods = [M] + list(others)
    last = None
    for attempt in range(SATURATION_TRIES):
        rng = random.Random(f"saturate:{seed}:{attempt}")
        forms = [_random_linear_form(ring, rng) for _ in range(r)]
        cert = _saturation_failure(forms, M, mods)
        if cert is None:
            return forms
        cert["attempt"] = attempt
        last = cert
    raise SaturationError(last)


# -- the randomized corpus -------------------------------------------------

DEFAULT_CORPUS_SEED = 101


class CorpusInstance:
    __slots__ = ("name", "ring", "ideal", "module", "seed")

    def __init__(self, name, ring, ideal, module, seed):
        self.name = name
        self.ring = ring
        self.ideal = ideal
        self.module = module
        self.seed = seed

    def __repr__(self):
        return self.name


def _random_monomial(rng, ring, degree):
    expt = [0] * ring.nvars
    for _ in range(degree):
        expt[rng.randrange(ring.nvars)] += 1
    return ring.monomial(expt)


def random_ideal_corpus(seed=DEFAULT_CORPUS_SEED, count=30):
    """Seeded corpus of cyclic modules S/I over small polynomial rings:
    2 to 4 variables, 1 to nvars generators of degree 2 to 4, an even mix
    of monomials and binomials.  Identical seeds give identical output."""
    rng = random.Random(f"corpus:{seed}")
    out = []
    pool = ("x", "y", "z", "w")
    for idx in range(count):
        nv = rng.randint(2, 4)
        S = polynomial_ring(pool[:nv])
        gens = []
        for _ in range(rng.randint(1, nv)):
            dg = rng.randint(2, 4)
            m1 = _random_monomial(rng, S, dg)
            if rng.random() < 0.5:
                g = m1
            else:
                m2 = _random_monomial(rng, S, dg)
                g = m1 - m2 if rng.random() < 0.5 else m1 + m2
                if g.is_zero():
                    g = m1
            gens.append(g)
        out.append(CorpusInstance(f"corpus-{seed}-{idx:02d}", S, gens,
                                  PresentedModule.cyclic(S, gens), seed))
    return out


def corpus_checks(inst):
    """Every checker wired to one corpus instance, with the auxiliary
    forms drawn from the instance's own seed."""
    rng = random.Random(f"{inst.name}:aux")
    S, M = inst.ring, inst.module
    f = _random_linear_form(S, rng)
    g = _random_linear_form(S, rng)
    L = koszul_complex([f], M)
    cyc = PresentedModule.cyclic(S, [g])
    return [
        check_thm_cmd1(L, instance=f"{inst.name}/cut", seed=inst.seed),
        check_thm_dim1(L, instance=f"{inst.name}/cut", seed=inst.seed),
        check_cor_tensor(cyc, M, instance=f"{inst.name}/tensor",
                         seed=inst.seed),
        check_cor_hom(cyc, M, instance=f"{inst.name}/hom", seed=inst.seed),
        check_filter_regular_formula(M, f, instance=inst.name,
                                     seed=inst.seed),
    ]


def run_corpus(instances=None):
    """Run every checker over every instance; contradictions propagate."""
    if instances is None:
        instances = random_ideal_corpus()
    rows = []
    for inst in instances:
        rows.extend(corpus_checks(inst))
    return rows
